"""End-to-end checks of the optical fusion apparatus."""

import math

import numpy as np
import pytest

from fockfuse.circuits import (
    apply_elements,
    apply_feed_forward,
    build_fusion_circuit,
    fused_target,
    initial_state,
    normalized_amplitudes,
    product_qudit,
    run_circuit,
    run_fission,
    run_fusion,
)
from fockfuse.elements import Hwp, Pbs, SigmaX, Unfold
from fockfuse.states import H, V, DetectionPattern, MixedState, PureState, fidelity

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_qubit(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return (complex(v[0]), complex(v[1]))


class TestStructure:
    def test_element_sequence(self):
        circuit = build_fusion_circuit()
        assert circuit.elements == (
            Hwp("a", 22.5),
            Pbs("c", "a", "c", "a"),
            Hwp("a", 22.5),
            Hwp("c", 22.5),
            Unfold("t", "t1", "t2"),
            Hwp("t1", 22.5),
            SigmaX("t2"),
            Hwp("t2", 22.5),
            Pbs("a", "t1", "a", "t1"),
            Pbs("c", "t2", "c", "t2"),
            Hwp("a", 22.5),
            Hwp("c", 22.5),
            Hwp("t1", 22.5),
            Hwp("t2", 22.5),
        )

    def test_output_modes(self):
        assert build_fusion_circuit().output_modes() == {"a", "c", "t1", "t2"}

    def test_patterns_mutually_exclusive(self):
        circuit = build_fusion_circuit()
        kets = []
        state = PureState.vacuum()
        for pa in (H, V):
            for pc in (H, V):
                for pt in (H, V):
                    for tmode in ("t1", "t2"):
                        kets.append(
                            state.create("a", pa).create("c", pc).create(tmode, pt)
                        )
        for k in kets:
            matches = sum(
                1 for pattern in circuit.patterns
                for occ, _ in k.items()
                if pattern.matches(occ)
            )
            assert matches == 1


class TestLogicalBasis:
    def test_hh_input_gives_t1h(self):
        outcome = run_fusion((1, 0), (1, 0))[0]
        assert outcome.probability == pytest.approx(1 / 32, abs=1e-12)
        assert fidelity(apply_feed_forward(outcome), fused_target((1, 0, 0, 0))) == pytest.approx(1.0)

    def test_vv_input_gives_t2v(self):
        outcome = run_fusion((0, 1), (0, 1))[0]
        assert fidelity(apply_feed_forward(outcome), fused_target((0, 0, 0, 1))) == pytest.approx(1.0)

    def test_plus_plus_input(self):
        # hand expansion of the tensor product: all four amplitudes 1/2
        plus = (INV_SQRT2, INV_SQRT2)
        outcome = run_fusion(plus, plus)[0]
        target = fused_target((0.5, 0.5, 0.5, 0.5))
        assert fidelity(apply_feed_forward(outcome), target) == pytest.approx(1.0)


class TestRandomInputs:
    def test_probabilities_and_feed_forward(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            psi, phi = random_qubit(rng), random_qubit(rng)
            outcomes = run_fusion(psi, phi)
            target = fused_target(product_qudit(psi, phi))
            probs = [o.probability for o in outcomes]
            assert all(abs(p - 1 / 32) < 1e-12 for p in probs)
            assert abs(sum(probs) - 1 / 8) < 1e-12
            for outcome in outcomes:
                corrected = apply_feed_forward(outcome)
                assert fidelity(corrected, target) >= 1.0 - 1e-10

    def test_entangled_inputs_by_linearity(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            outcome = run_fusion(entangled=tuple(amps))[0]
            corrected = apply_feed_forward(outcome)
            assert fidelity(corrected, fused_target(amps)) >= 1.0 - 1e-10

    def test_double_occupations_never_survive_detection(self):
        # the polarization Hong-Ou-Mandel filter claim
        rng = np.random.default_rng(44)
        for _ in range(10):
            outcomes = run_fusion(random_qubit(rng), random_qubit(rng))
            for outcome in outcomes:
                for occ, _amp in outcome.state.items():
                    counts = {}
                    for (mode, _pol, _tag), n in occ:
                        counts[mode] = counts.get(mode, 0) + n
                    assert counts.get("a") == 1 and counts.get("c") == 1
                    assert counts.get("t1", 0) + counts.get("t2", 0) == 1
                    assert max(counts.values()) == 1


class TestSpectatorEntanglement:
    def test_external_entanglement_is_preserved(self):
        rng = np.random.default_rng(45)
        circuit = build_fusion_circuit()
        psi = random_qubit(rng)
        state = PureState.vacuum().create("a", H)
        state = psi[0] * state.create("t", H) + psi[1] * state.create("t", V)
        state = INV_SQRT2 * (
            state.create("s", H).create("c", H) + state.create("s", V).create("c", V)
        )
        evolved = apply_elements(state, circuit.elements)
        detected = evolved.project(
            DetectionPattern.of({"a": H, "c": H, ("t1", "t2"): "any"})
        )
        assert detected.probability == pytest.approx(1 / 32, abs=1e-12)
        expected = PureState.zero()
        for j, pol in enumerate((H, V)):
            amps = [0.0] * 4
            amps[j] = psi[0]
            amps[j + 2] = psi[1]
            expected = expected + INV_SQRT2 * fused_target(amps).create("s", pol)
        joint = detected.state.factor_on_modes(("s", "t1", "t2"))
        assert fidelity(joint, expected) >= 1.0 - 1e-10


class TestGenericRunner:
    def test_runner_matches_run_fusion(self):
        rng = np.random.default_rng(46)
        psi, phi = random_qubit(rng), random_qubit(rng)
        circuit = build_fusion_circuit()
        via_runner = run_circuit(circuit, bindings={"psi": psi, "phi": phi})
        via_fusion = run_fusion(psi, phi)
        for x, y in zip(via_runner, via_fusion):
            assert x.probability == pytest.approx(y.probability, abs=1e-15)
            assert fidelity(x.state, y.state) == pytest.approx(1.0)

    def test_empty_circuit_projects_the_input(self):
        from fockfuse.circuits import Circuit, PhotonIn

        circuit = Circuit(
            modes=("a",),
            inputs=(PhotonIn("a", H),),
            elements=(),
            patterns=(DetectionPattern.of({"a": H}), DetectionPattern.of({"a": V})),
        )
        outcomes = run_circuit(circuit)
        assert outcomes[0].probability == pytest.approx(1.0)
        assert outcomes[1].probability == 0.0

    def test_mixture_input_is_weighted(self):
        rng = np.random.default_rng(47)
        circuit = build_fusion_circuit()
        psi, phi = random_qubit(rng), random_qubit(rng)
        plain = initial_state(circuit, {"psi": psi, "phi": phi})
        tagged = initial_state(circuit, {"psi": psi, "phi": phi}, tags={"a": "A"})
        mixed = MixedState(((0.4, plain), (0.6, tagged)))
        outcomes = run_circuit(circuit, mixed)
        for idx in range(4):
            expected = (
                0.4 * run_circuit(circuit, plain)[idx].probability
                + 0.6 * run_circuit(circuit, tagged)[idx].probability
            )
            assert outcomes[idx].probability == pytest.approx(expected, abs=1e-15)

    def test_unbound_slot_raises(self):
        with pytest.raises(ValueError, match="unbound"):
            initial_state(build_fusion_circuit(), {"psi": (1, 0)})


class TestAmplitudes:
    @pytest.mark.parametrize("run", [
        lambda: run_fusion((math.nan, 1), (1, 0)),
        lambda: run_fusion((1, 0), (1, math.inf)),
        lambda: run_fusion(entangled=(1, 0, 0, math.nan)),
        lambda: run_fission((math.nan, 0, 0, 1)),
    ])
    def test_non_finite_amplitude_raises(self, run):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            run()

    def test_zero_and_miscounted_amplitudes_raise(self):
        with pytest.raises(ValueError, match="all zero"):
            normalized_amplitudes((0, 0), 2)
        with pytest.raises(ValueError, match="expected 4 amplitudes, got 2"):
            normalized_amplitudes((1, 0), 4)

    def test_library_inputs_are_normalized(self):
        scaled = run_fusion((3, 4j), (2, 2))
        unit = run_fusion((0.6, 0.8j), (INV_SQRT2, INV_SQRT2))
        for got, want in zip(scaled, unit):
            assert got.probability == pytest.approx(want.probability, abs=1e-15)
            assert fidelity(got.state, want.state) == pytest.approx(1.0, abs=1e-12)
