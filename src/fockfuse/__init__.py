"""fockfuse: exact simulation of linear-optical qubit fusion and fission.

Each exported name imports its module on first use, so a program pays only
for the modules it reaches."""

from importlib import import_module

__version__ = "0.1.0"

#: module -> the names exported from it, ``alias=name`` where they differ
_MODULES = {
    "states": "H V ConditionalOutcome DetectionPattern MixedState PhotonCapExceeded PureState "
    "fidelity product_qudit projector_probability",
    "elements": "Hwp Merge OpticalElement Pbs Relabel SigmaX SignFlipV Unfold apply_element",
    "circuits": "BASIS_KEYS Circuit CircuitError PhotonIn QubitSlot QuditSlot apply_feed_forward "
    "build_fission_circuit build_fusion_circuit fission_feed_forward fission_success_target "
    "fused_target initial_state run_circuit run_fission run_fusion",
    "dsl": "ParseError load_named_circuit parse_circuit serialize_circuit",
    "rails": "FusionBranches cnot rail_fission=fission rail_fuse=fuse fuse_iterated fuse_joint",
    "distinguishability": "Basis ProbabilityMatrix average_fidelity basis_mean_fidelity_law "
    "closed_form_matrix coincidence_weighted_fidelity fit_p get_basis indistinguishable_fraction "
    "similarity simulate_basis_matrix simulated_average_fidelity simulated_basis_mean_fidelity",
    "reports": "REFERENCE ExperimentReport ReferenceConstants",
    "verify": "run_verification",
}
#: exported name -> (its module, its name there)
_EXPORTS = {
    alias: (module, name or alias)
    for module, names in _MODULES.items()
    for alias, _, name in (word.partition("=") for word in names.split())
}

__all__ = sorted([*_EXPORTS, *_MODULES])


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _EXPORTS[name]
    value = globals()[name] = getattr(import_module(f".{module}", __name__), attr)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
