"""Rail-level protocol tests: the CNOT table, fusion, fission, iteration."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockfuse.circuits import apply_feed_forward, fused_target, product_qudit, run_fusion
from fockfuse.rails import (
    SPLIT_RAIL_KETS,
    _fuse_joint_with_vacuum_amps,
    cnot,
    fission,
    fuse,
    fuse_iterated,
    fuse_joint,
    qubit_on,
    rail_ket,
    two_qubit_state,
)
from fockfuse.states import INV_SQRT2, fidelity
from fockfuse.verify import random_qubit

C = ("c0", "c1")
T = ("t0", "t1")


class TestCnot:
    @pytest.mark.parametrize(
        "control_rail,target_in,target_out",
        [
            ("c0", "t0", "t0"),
            ("c1", "t0", "t1"),
            ("c0", "t1", "t1"),
            ("c1", "t1", "t0"),
        ],
    )
    def test_populated_table(self, control_rail, target_in, target_out):
        out = cnot(rail_ket((control_rail, target_in)), C, T)
        assert fidelity(out, rail_ket((control_rail, target_out))) == pytest.approx(1.0)

    def test_empty_target_rescales(self):
        out = cnot(rail_ket(("c0",)), C, T, vacuum_amp=1.0)
        assert out.amplitude(((("c0", "", ""), 1),)) == 1.0
        out = cnot(rail_ket(("c0",)), C, T, vacuum_amp=0.5)
        assert out.amplitude(((("c0", "", ""), 1),)) == 0.5

    def test_empty_control_rescales(self):
        out = cnot(rail_ket(("t1",)), C, T, vacuum_amp=0.5)
        assert out.amplitude(((("t1", "", ""), 1),)) == 0.5

    def test_linearity_on_superpositions(self):
        state = qubit_on(C, (INV_SQRT2, INV_SQRT2)).create("t0", "")
        out = cnot(state, C, T)
        expected = INV_SQRT2 * (rail_ket(("c0", "t0")) + rail_ket(("c1", "t1")))
        assert fidelity(out, expected) == pytest.approx(1.0)

    def test_overlapping_rails_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            cnot(rail_ket(("c0",)), C, ("c1", "t0"))


class TestFuse:
    def test_product_amplitudes(self):
        rng = random.Random(21)
        for _ in range(20):
            psi, phi = random_qubit(rng), random_qubit(rng)
            branches = fuse(psi, phi)
            target = np.array(product_qudit(psi, phi))
            assert branches.plus_probability == pytest.approx(0.5, abs=1e-12)
            assert branches.minus_probability == pytest.approx(0.5, abs=1e-12)
            overlap = abs(np.vdot(target, np.array(branches.plus_amps))) ** 2
            assert overlap >= 1.0 - 1e-12

    def test_basis_input(self):
        branches = fuse((1, 0), (1, 0))
        assert np.allclose(np.abs(branches.plus_amps), [1, 0, 0, 0])

    def test_minus_branch_signs_and_correction(self):
        plus = (INV_SQRT2, INV_SQRT2)
        branches = fuse(plus, plus)
        assert np.allclose(branches.minus_amps, [0.5, -0.5, 0.5, -0.5])
        assert np.allclose(branches.minus_corrected(), [0.5, 0.5, 0.5, 0.5])

    @given(st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_vacuum_amplitude_independence(self, seed):
        rng = random.Random(seed)
        psi, phi = random_qubit(rng), random_qubit(rng)
        eta = complex(rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        reference = np.array(fuse(psi, phi).plus_amps)
        scaled = np.array(fuse(psi, phi, vacuum_amp=eta).plus_amps)
        assert abs(abs(np.vdot(reference, scaled)) ** 2 - 1.0) < 1e-12

    def test_mismatched_vacuum_amplitudes_break_fusion(self):
        plus = (INV_SQRT2, INV_SQRT2)
        branches = _fuse_joint_with_vacuum_amps(product_qudit(plus, plus), 1.0, 0.5)
        target = np.full(4, 0.5)
        assert abs(np.vdot(target, np.array(branches.plus_amps))) ** 2 < 1.0 - 1e-3

    def test_matches_optical_fusion(self):
        rng = random.Random(22)
        for _ in range(10):
            psi, phi = random_qubit(rng), random_qubit(rng)
            abstract = fuse(psi, phi).plus_amps
            optical = apply_feed_forward(run_fusion(psi, phi)[0])
            assert fidelity(optical, fused_target(abstract)) >= 1.0 - 1e-10


class TestFuseIterated:
    def test_single_qubit_is_identity(self):
        amps, prob = fuse_iterated([(0.6, 0.8)])
        assert np.allclose(amps, [0.6, 0.8])
        assert prob == 1.0

    def test_two_qubits_match_fuse(self):
        rng = random.Random(23)
        psi, phi = random_qubit(rng), random_qubit(rng)
        amps, prob = fuse_iterated([psi, phi])
        reference = fuse(psi, phi)
        assert abs(abs(np.vdot(np.array(reference.plus_amps), np.array(amps))) ** 2 - 1) < 1e-12
        assert prob == pytest.approx(0.5, abs=1e-12)

    def test_three_plus_states(self):
        plus = (INV_SQRT2, INV_SQRT2)
        amps, _ = fuse_iterated([plus, plus, plus])
        assert np.allclose(amps, np.full(8, 1.0 / (2.0 * math.sqrt(2.0))))

    def test_exhaustive_basis_inputs(self):
        for n in range(1, 5):
            for index in range(2**n):
                qubits = [
                    (1, 0) if (index >> (n - 1 - k)) & 1 == 0 else (0, 1)
                    for k in range(n)
                ]
                amps, _ = fuse_iterated(qubits)
                expected = np.zeros(2**n)
                expected[index] = 1.0
                assert np.allclose(np.abs(amps), expected)

    def test_random_inputs_match_kron(self):
        rng = random.Random(24)
        for _ in range(10):
            qubits = [random_qubit(rng) for _ in range(3)]
            amps, _ = fuse_iterated(qubits)
            target = np.kron(np.kron(qubits[0], qubits[1]), qubits[2])
            assert abs(abs(np.vdot(target, np.array(amps))) ** 2 - 1.0) < 1e-10

    def test_qubit_count_cap(self):
        with pytest.raises(ValueError):
            fuse_iterated([(1, 0)] * 5)


class TestFission:
    def test_basis_ket(self):
        state, prob = fission((1, 0, 0, 0))
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert fidelity(state, rail_ket(("c_0", "t_0"))) == pytest.approx(1.0)

    def test_product_qudit_separates(self):
        rng = random.Random(25)
        for _ in range(10):
            psi, phi = random_qubit(rng), random_qubit(rng)
            state, prob = fission(product_qudit(psi, phi))
            assert prob == pytest.approx(0.5, abs=1e-12)
            assert fidelity(state, two_qubit_state(psi, phi)) >= 1.0 - 1e-10

    def test_bell_qudit(self):
        state, _ = fission((INV_SQRT2, 0, 0, INV_SQRT2))
        bell = INV_SQRT2 * (rail_ket(("c_0", "t_0")) + rail_ket(("c_1", "t_1")))
        assert fidelity(state, bell) >= 1.0 - 1e-12

    def test_inverts_fuse(self):
        rng = random.Random(26)
        for _ in range(10):
            psi, phi = random_qubit(rng), random_qubit(rng)
            state, _ = fission(fuse(psi, phi).plus_amps)
            assert fidelity(state, two_qubit_state(psi, phi)) >= 1.0 - 1e-10

    def test_round_trip_on_entangled_qudits(self):
        # fission output re-fused through the entangled-input path
        rng = np.random.default_rng(28)
        for _ in range(10):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            amps /= np.linalg.norm(amps)
            state, _ = fission(tuple(amps))
            refused = fuse_joint(state.amplitudes(SPLIT_RAIL_KETS))
            overlap = abs(np.vdot(amps, np.array(refused.plus_amps))) ** 2
            assert overlap >= 1.0 - 1e-10

    def test_vacuum_amp_independence(self):
        rng = np.random.default_rng(27)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        ref, _ = fission(tuple(amps))
        alt, prob = fission(tuple(amps), vacuum_amp=0.5 * 1j)
        assert fidelity(ref, alt) >= 1.0 - 1e-12
        assert prob == pytest.approx(0.25 * 0.5, abs=1e-12)


class TestInputScale:
    """Rail probabilities are those of the normalized input, at any scale."""

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
    def test_probabilities_are_one_half(self, scale):
        branches = fuse((2 * scale, 0), (scale, 0))
        assert branches.plus_probability == pytest.approx(0.5, abs=1e-12)
        assert branches.minus_probability == pytest.approx(0.5, abs=1e-12)
        assert fuse_iterated([(3 * scale, 0), (scale, 0)])[1] == pytest.approx(0.5, abs=1e-12)
        state, probability = fission((2 * scale, 0, 0, 0))
        assert probability == pytest.approx(0.5, abs=1e-12)
        assert fidelity(state, rail_ket(("c_0", "t_0"))) == pytest.approx(1.0, abs=1e-12)

    def test_scale_leaves_amplitudes_unchanged(self):
        plus = (INV_SQRT2, INV_SQRT2)
        reference = fuse(plus, plus).plus_amps
        assert fuse((1e200, 1e200), (3e200, 3e200)).plus_amps == pytest.approx(reference)
        assert fuse((1e-200, 1e-200), (3e-200, 3e-200)).plus_amps == pytest.approx(reference)
        assert fuse_iterated([(1e200, 0), (0, 2e-200)])[0] == pytest.approx((0, 1, 0, 0))

    @pytest.mark.parametrize("call", [
        lambda nan: fuse((nan, 0), (1, 0)),
        lambda nan: fuse_joint((1, 0, 0, nan)),
        lambda nan: fuse_iterated([(1, 0), (nan, 1)]),
        lambda nan: fission((1, nan, 0, 0)),
    ], ids=["fuse", "fuse_joint", "fuse_iterated", "fission"])
    def test_nan_raises(self, call):
        with pytest.raises(ValueError, match="finite"):
            call(math.nan)
