"""fockfuse: exact simulation of linear-optical qubit fusion and fission."""

__version__ = "0.1.0"

from .states import (
    H,
    V,
    ConditionalOutcome,
    DetectionPattern,
    MixedState,
    PhotonCapExceeded,
    PureState,
    fidelity,
    projector_probability,
)
from .elements import (
    Hwp,
    Merge,
    OpticalElement,
    Pbs,
    Relabel,
    SigmaX,
    SignFlipV,
    Unfold,
    apply_element,
)
from .circuits import (
    Circuit,
    CircuitError,
    PhotonIn,
    QubitSlot,
    QuditSlot,
    apply_feed_forward,
    build_fission_circuit,
    build_fusion_circuit,
    fission_feed_forward,
    fission_success_target,
    fused_target,
    initial_state,
    product_qudit,
    run_circuit,
    run_fission,
    run_fusion,
)
from .dsl import ParseError, load_named_circuit, parse_circuit, serialize_circuit
from .rails import (
    FusionBranches,
    cnot,
    fission as rail_fission,
    fuse as rail_fuse,
    fuse_iterated,
    fuse_joint,
)
from .distinguishability import (
    BASIS_KEYS,
    Basis,
    ProbabilityMatrix,
    average_fidelity,
    basis_mean_fidelity_law,
    closed_form_matrix,
    coincidence_weighted_fidelity,
    fit_p,
    get_basis,
    indistinguishable_fraction,
    similarity,
    simulate_basis_matrix,
    simulated_average_fidelity,
    simulated_basis_mean_fidelity,
)
from .reports import REFERENCE, ExperimentReport, ReferenceConstants
from .verify import run_verification

__all__ = [name for name in dir() if not name.startswith("_")]
