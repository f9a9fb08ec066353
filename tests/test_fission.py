"""End-to-end checks of the optical fission apparatus.

The branch oracle below spells out the expected heralded output for all
four detection branches (ancilla polarization x exit channel), including
the sign structure that the feed-forward rules must undo.  The
fusion-then-fission round trip is the ``optical-roundtrip`` check of
``fockfuse.verify``, run by ``test_acceptance.py``; ``TestBridge`` runs it
through the library on all sixteen branch pairs.
"""

import random

import numpy as np
import pytest

from fockfuse.circuits import (
    Circuit,
    PhotonIn,
    apply_feed_forward,
    build_fission_circuit,
    fission_feed_forward,
    fission_success_target,
    run_circuit,
    run_fission,
    run_fusion,
)
from fockfuse.dsl import SHIPPED, parse_circuit
from fockfuse.elements import Relabel, apply_elements
from fockfuse.states import H, V, DetectionPattern, PureState, fidelity, product_qudit, superpose
from fockfuse.verify import random_qubit, random_qudit


def branch_oracle(amps, a_pol, channel):
    """Expected (t, c/c') state per heralded branch, built by hand."""
    a0, a1, a2, a3 = amps
    if channel == "c":
        coeffs = [a0, a1, a2, a3] if a_pol == H else [a0, -a1, a2, -a3]
        kets = [(H, H), (V, H), (H, V), (V, V)]
    else:
        coeffs = [a0, a1, a2, a3] if a_pol == H else [-a0, a1, -a2, a3]
        kets = [(V, H), (H, H), (V, V), (H, V)]
    state = PureState.zero()
    for z, (tp, cp) in zip(coeffs, kets):
        if z != 0:
            state = state + z * PureState.vacuum().create("t", tp).create(channel, cp)
    return state


BRANCHES = [(H, "c"), (V, "c"), (H, "c'"), (V, "c'")]


class TestHeraldedBranches:
    def test_all_branches_match_the_oracle(self):
        rng = random.Random(7)
        for _ in range(10):
            amps = random_qudit(rng)
            outcomes = run_fission(amps)
            for outcome, (a_pol, channel) in zip(outcomes, BRANCHES):
                assert outcome.probability == pytest.approx(1 / 32, abs=1e-12)
                got = outcome.state.factor_on_modes(("t", "c", "c'"))
                want = branch_oracle(amps, a_pol, channel)
                assert fidelity(got, want) >= 1.0 - 1e-10
                # phases match exactly, not just up to a global factor
                overlap = got.normalized().inner(want.normalized())
                assert abs(overlap - 1.0) < 1e-10

    def test_success_branch_basis_kets(self):
        for idx, expected in enumerate([(H, H), (V, H), (H, V), (V, V)]):
            amps = [0.0] * 4
            amps[idx] = 1.0
            outcome = run_fission(amps)[0]
            tp, cp = expected
            want = PureState.vacuum().create("t", tp).create("c", cp)
            got = outcome.state.factor_on_modes(("t", "c", "c'"))
            assert fidelity(got, want) == pytest.approx(1.0)


class TestFeedForward:
    def test_v_ancilla_needs_sign_flip(self):
        rng = random.Random(8)
        amps = random_qudit(rng)
        target = fission_success_target(amps)
        outcome_v = run_fission(amps)[1]
        uncorrected = outcome_v.state.factor_on_modes(("t", "c", "c'"))
        if not np.allclose([amps[1], amps[3]], 0):
            assert fidelity(uncorrected, target) < 1.0 - 1e-6
        assert fidelity(fission_feed_forward(outcome_v), target) >= 1.0 - 1e-10

    def test_prime_channel_needs_swap(self):
        rng = random.Random(9)
        amps = random_qudit(rng)
        target = fission_success_target(amps)
        outcome_p = run_fission(amps)[2]
        assert fidelity(fission_feed_forward(outcome_p), target) >= 1.0 - 1e-10

    @pytest.mark.parametrize("branch", range(4))
    def test_each_feed_forward_refuses_the_other_apparatus(self, branch):
        fusion_outcome = run_fusion((1, 0), (1, 0))[branch]
        with pytest.raises(ValueError, match="^outcome does not carry a fission detection pattern$"):
            fission_feed_forward(fusion_outcome)
        fission_outcome = run_fission((1, 0, 0, 0))[branch]
        with pytest.raises(ValueError, match="^outcome does not carry a fusion detection pattern$"):
            apply_feed_forward(fission_outcome)
        # the branch's own detections on a and c, without the coincidence on t1+t2
        partial = DetectionPattern(tuple(r for r in fusion_outcome.pattern.requirements if len(r[0]) == 1))
        with pytest.raises(ValueError, match="^outcome does not carry a fusion detection pattern$"):
            apply_feed_forward(fusion_outcome.replace(pattern=partial))


class TestBridge:
    """The paper's iterated use: two qubits fused into one ququart photon,
    which fission splits back onto two qubits, through the library."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fusion_then_fission_returns_the_input_on_every_branch_pair(self, seed):
        rng = random.Random(seed)
        psi, phi = random_qubit(rng), random_qubit(rng)
        target = fission_success_target(product_qudit(psi, phi))
        onto_fission = (Relabel("t1", "c1"), Relabel("t2", "c2"))
        total = 0.0
        for fused in run_fusion(psi, phi):
            photon = apply_elements(apply_feed_forward(fused), onto_fission)
            state = photon.create("t", H).create("a", H)
            for split in run_circuit(build_fission_circuit(), input_state=state):
                # the same state, global phase included
                assert abs(target.inner(fission_feed_forward(split)) - 1.0) < 1e-10
                total += fused.probability * split.probability
        assert total == pytest.approx(1 / 64, abs=1e-12)


#: fission's modes in the five-photon bridge: its input is fusion's output
BRIDGE_NAMES = {"c1": "t1", "c2": "t2", "t": "u", "a": "b", "c": "d", "c'": "d'"}


def bridge_circuit():
    """Fusion then fission as one circuit, built from the two shipped texts:
    fission's modes renamed by ``BRIDGE_NAMES``, its elements appended to
    fusion's, its two photons added, and one pattern per pair of branches,
    fusion's coincidence on t1+t2 left out; no corrections or output.
    Also returns the renamed fission circuit."""
    fusion = parse_circuit((SHIPPED / "fusion.lop").read_text())
    lines = (SHIPPED / "fission.lop").read_text().splitlines()
    fission = parse_circuit("\n".join(" ".join(BRIDGE_NAMES.get(w, w) for w in line.split()) for line in lines))
    patterns = tuple(
        DetectionPattern(tuple(r for r in first.requirements if len(r[0]) == 1) + second.requirements)
        for first in fusion.patterns for second in fission.patterns
    )
    circuit = Circuit(
        fusion.modes + tuple(m for m in fission.modes if m not in fusion.modes),
        fusion.inputs + tuple(i for i in fission.inputs if isinstance(i, PhotonIn)),
        fusion.elements + fission.elements,
        patterns,
    )
    return circuit, fission


class TestBridgeCircuit:
    """The paper's bridge as one optical circuit: two qubits fused into one
    ququart photon that fission splits back, with no feed-forward between."""

    @pytest.mark.parametrize("seed", [4, 5])
    def test_every_pattern_heralds_and_fission_corrections_restore_the_input(self, seed):
        circuit, fission = bridge_circuit()
        assert (len(circuit.modes), len(circuit.inputs), len(circuit.patterns)) == (9, 5, 16)
        assert fission.output == ("u", "d")
        rng = random.Random(seed)
        psi, phi = random_qubit(rng), random_qubit(rng)
        kets = tuple((("u", tp), ("d", cp)) for cp in (H, V) for tp in (H, V))
        target = superpose(PureState.vacuum(), product_qudit(psi, phi), kets)
        outcomes = run_circuit(circuit, bindings={"psi": psi, "phi": phi})
        for outcome in outcomes:
            assert abs(outcome.probability - 1 / 1024) < 1e-10
        # fusion's HH branches need no correction, so fission's alone restore the input
        for outcome, corrections in zip(outcomes[:4], fission.feed_forward):
            split = apply_elements(outcome.state, corrections).factor_on_modes(fission.output)
            assert abs(target.inner(split) - 1.0) < 1e-10  # global phase included


class TestStructure:
    def test_output_modes(self):
        assert build_fission_circuit().output_modes() == {"a", "t", "c", "c'"}

    def test_pattern_order(self):
        circuit = build_fission_circuit()
        labels = []
        for pattern in circuit.patterns:
            reqs = {mode: req for group, req in pattern.requirements for mode in group}
            labels.append((reqs["a"], "c" if reqs["c"] == "any" else "c'"))
        assert labels == BRANCHES
