"""Rail-level protocol tests: the CNOT table, fusion, fission, iteration."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockfuse.circuits import (
    apply_feed_forward,
    fused_target,
    normalized_amplitudes,
    product_qudit,
    rescaled_amplitudes,
    run_fusion,
)
from fockfuse.rails import (
    MAX_FUSED_QUBITS,
    SPLIT_RAIL_KETS,
    _fuse_joint_with_vacuum_amps,
    cnot,
    erase_to_zero_port,
    fission,
    fuse,
    fuse_iterated,
    fuse_joint,
    measure_plus_minus,
    qubit_on,
    rail_ket,
    two_qubit_state,
)
from fockfuse.states import (
    H,
    INV_SQRT2,
    PLAN_LIMIT,
    PRUNE_TOL,
    V,
    PureState,
    fidelity,
    planned,
    projector_probability,
    superpose,
)
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
        assert out.amplitudes(((("c0", ""),),)) == (1.0,)
        out = cnot(rail_ket(("c0",)), C, T, vacuum_amp=0.5)
        assert out.amplitudes(((("c0", ""),),)) == (0.5,)

    def test_empty_control_rescales(self):
        out = cnot(rail_ket(("t1",)), C, T, vacuum_amp=0.5)
        assert out.amplitudes(((("t1", ""),),)) == (0.5,)

    def test_linearity_on_superpositions(self):
        state = qubit_on(C, (INV_SQRT2, INV_SQRT2)).create("t0", "")
        out = cnot(state, C, T)
        expected = INV_SQRT2 * (rail_ket(("c0", "t0")) + rail_ket(("c1", "t1")))
        assert fidelity(out, expected) == pytest.approx(1.0)

    def test_overlapping_rails_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            cnot(rail_ket(("c0",)), C, ("c1", "t0"))


def _rail_key(rail):
    return (rail, "", "")


def cnot_reference(joint, control, target, vacuum_amp=1.0):
    """``cnot`` without a plan: each call reads every term's rail pairs."""
    if set(control) & set(target):
        raise ValueError("control and target rails overlap")
    c0, c1 = (_rail_key(rail) for rail in control)
    t0, t1 = (_rail_key(rail) for rail in target)
    out: dict = {}
    for occ, amp in joint.items():
        counts = dict(occ)
        nc = (counts.get(c0, 0), counts.get(c1, 0))
        nt = (counts.get(t0, 0), counts.get(t1, 0))
        if nc not in ((0, 0), (0, 1), (1, 0)) or nt not in ((0, 0), (0, 1), (1, 0)):
            raise ValueError(f"rail occupancy outside the protocol space: {occ}")
        if nc == (0, 0) or nt == (0, 0):
            new_occ, new_amp = occ, amp * vacuum_amp
        elif nc == (1, 0):
            new_occ, new_amp = occ, amp
        else:  # control logical 1: swap the target rails
            counts[t0], counts[t1] = nt[1], nt[0]
            new_occ = tuple(sorted((k, n) for k, n in counts.items() if n > 0))
            new_amp = amp
        out[new_occ] = out.get(new_occ, 0.0) + new_amp
    return PureState(out)


def measure_plus_minus_reference(state, pair):
    """``measure_plus_minus`` without a plan."""
    k0, k1 = _rail_key(pair[0]), _rail_key(pair[1])
    collected = {+1: {}, -1: {}}
    for occ, amp in state.items():
        counts = dict(occ)
        n0, n1 = counts.pop(k0, 0), counts.pop(k1, 0)
        rest = tuple(sorted(counts.items()))
        if (n0, n1) == (1, 0):
            collected[+1][rest] = collected[+1].get(rest, 0.0) + amp * INV_SQRT2
            collected[-1][rest] = collected[-1].get(rest, 0.0) + amp * INV_SQRT2
        elif (n0, n1) == (0, 1):
            collected[+1][rest] = collected[+1].get(rest, 0.0) + amp * INV_SQRT2
            collected[-1][rest] = collected[-1].get(rest, 0.0) - amp * INV_SQRT2
        else:
            raise ValueError("erased qubit must carry exactly one photon")
    results = []
    for sign in (+1, -1):
        branch = PureState(collected[sign])
        prob = sum((abs(a) ** 2 for _occ, a in branch.items()), 0.0)
        results.append((prob, branch * (1.0 / math.sqrt(prob)) if prob > 0 else PureState.zero()))
    return tuple(results)


def erase_to_zero_port_reference(state, pair):
    """``erase_to_zero_port`` without a plan."""
    k0, k1 = _rail_key(pair[0]), _rail_key(pair[1])
    out: dict = {}
    for occ, amp in state.items():
        counts = dict(occ)
        n0, n1 = counts.pop(k0, 0), counts.pop(k1, 0)
        if (n0, n1) == (0, 0):
            new_amp = amp
        elif (n0, n1) in ((1, 0), (0, 1)):
            counts[k0] = 1
            new_amp = amp * INV_SQRT2
        else:
            raise ValueError("erased qubit must carry at most one photon")
        new_occ = tuple(sorted((k, n) for k, n in counts.items() if n > 0))
        out[new_occ] = out.get(new_occ, 0.0) + new_amp
    return PureState(out)


def exact(value):
    """A result's exact bits, signed zeros included: states as their ordered
    terms, probabilities as their type and ``float.hex``, amplitudes as both
    parts' ``float.hex``, recursively over tuples."""
    if isinstance(value, PureState):
        return [(occ, a.real.hex(), a.imag.hex()) for occ, a in value.items()]
    if isinstance(value, tuple):
        return tuple(exact(v) for v in value)
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return type(value), float(value).hex()


def outcome(step, *args):
    """A step's exact result, or the message of the ``ValueError`` it raises."""
    try:
        return exact(step(*args))
    except ValueError as exc:
        return str(exc)


#: repeated values so that terms cancel exactly, signed zeros, and magnitudes
#: that fall to or below PRUNE_TOL once scaled by 1/sqrt(2) or a vacuum amplitude
RAIL_VALUES = (
    1.0, -1.0, 0.5j, -0.5j, complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.5),
    1.2 * PRUNE_TOL, -1.2 * PRUNE_TOL, 3 * PRUNE_TOL, 0.3 - 0.4j,
)
RAIL_AMPS = st.sampled_from(RAIL_VALUES)
#: rail-pair photon counts, mostly inside the protocol space
PAIR_COUNTS = st.sampled_from(((0, 0), (1, 0), (0, 1), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)))
#: photons no rail step reads: a tagged or polarized photon on a rail's mode, or one elsewhere
SPECTATORS = st.lists(
    st.sampled_from(((("s", H, ""), 1), (("s", H, "A"), 1), (("c0", "", "A"), 1), (("t1", H, ""), 2))),
    max_size=2,
    unique=True,
)


def rail_occupation(control, target, spectators):
    counts = {}
    for rail, n in zip(C + T, control + target):
        if n:
            counts[_rail_key(rail)] = n
    counts.update(spectators)
    return tuple(sorted(counts.items()))


RAIL_STATES = st.dictionaries(
    st.builds(rail_occupation, PAIR_COUNTS, PAIR_COUNTS, SPECTATORS), RAIL_AMPS, min_size=1, max_size=8
).map(PureState)
VACUUM_AMPS = st.sampled_from((1.0, 0.5j, complex(-0.0, 1.0), 1e-7, 0.3 - 0.4j))

#: each planned step and its reference, as a call on rails C and T
RAIL_STEPS = {
    "cnot": (lambda s, amp: cnot(s, C, T, amp), lambda s, amp: cnot_reference(s, C, T, amp)),
    "cnot_reversed": (lambda s, amp: cnot(s, T, C, amp), lambda s, amp: cnot_reference(s, T, C, amp)),
    "measure_plus_minus": (lambda s, amp: measure_plus_minus(s, C), lambda s, amp: measure_plus_minus_reference(s, C)),
    "erase_to_zero_port": (lambda s, amp: erase_to_zero_port(s, T), lambda s, amp: erase_to_zero_port_reference(s, T)),
}


#: PLAN_LIMIT + 1 supports, each its own by a spectator's tag, that every
#: planned step accepts
MEMO_STATES = [
    PureState({
        rail_occupation((1, 0), (0, 1), ((("s", H, str(i)), 1),)): 0.6,
        rail_occupation((0, 1), (1, 0), ((("s", H, str(i)), 1),)): -0.8j,
        rail_occupation((0, 1), (0, 1), ((("s", H, str(i)), 1),)): complex(-0.0, 0.5),
    })
    for i in range(PLAN_LIMIT + 1)
]
#: every step that plans through ``planned``, as a call on one state
PLANNED_STEPS = {
    "superpose": lambda s: superpose(s, (1.0, -0.6j), ((("a", H),), (("a", V), ("b", V))), {"a": "A", "b": None}),
    "projector_probability": lambda s: projector_probability(s, {("t0", ""): INV_SQRT2, ("t1", ""): 0.5j}),
    "cnot": lambda s: cnot(s, C, T, 0.5j),
    "cnot_reversed": lambda s: cnot(s, T, C, 0.5j),
    "measure_plus_minus": lambda s: measure_plus_minus(s, C),
    "erase_to_zero_port": lambda s: erase_to_zero_port(s, T),
}


class TestRailPlans:
    @pytest.mark.parametrize("name", sorted(RAIL_STEPS))
    @settings(deadline=None, max_examples=60)
    @given(state=RAIL_STATES, amps=st.lists(RAIL_AMPS, min_size=1, max_size=8), vacuum_amp=VACUUM_AMPS)
    def test_plan_equals_the_reference(self, name, state, amps, vacuum_amp):
        """The same bits, or the same refusal, as the reference: cold, warm,
        and with other amplitudes on the same support."""
        step, reference = RAIL_STEPS[name]
        other = PureState._of({occ: complex(amps[i % len(amps)]) for i, (occ, _a) in enumerate(state.items())})
        planned.cache_clear()
        for drawn in (state, state, other):
            assert outcome(step, drawn, vacuum_amp) == outcome(reference, drawn, vacuum_amp)

    @pytest.mark.parametrize("step, state, message", [
        (lambda s: cnot(s, C, ("c1", "t0")), rail_ket(("c0",)), "^control and target rails overlap$"),
        (
            lambda s: cnot(s, C, T),
            rail_ket(("c0", "c1", "t0")),
            r"^rail occupancy outside the protocol space: \(\(\('c0', '', ''\), 1\), ",
        ),
        (lambda s: measure_plus_minus(s, C), rail_ket(("t0",)), "^erased qubit must carry exactly one photon$"),
        (lambda s: erase_to_zero_port(s, C), rail_ket(("c0", "c1")), "^erased qubit must carry at most one photon$"),
    ], ids=["overlap", "outside", "measure", "erase"])
    def test_a_refusal_is_raised_on_every_call(self, step, state, message):
        planned.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                step(state)
        assert planned.cache_info().currsize == 0

    def test_a_fully_pruned_branch_has_a_float_probability(self):
        tiny = PureState({((("c0", "", ""), 1),): 1.2 * PRUNE_TOL})
        (p_plus, plus), (p_minus, minus) = measure_plus_minus(tiny, C)
        assert exact((p_plus, p_minus)) == ((float, "0x0.0p+0"), (float, "0x0.0p+0"))
        assert plus.is_zero and minus.is_zero
        assert exact(PureState.zero().squared_norm()) == (float, "0x0.0p+0")

    @pytest.mark.parametrize("name", sorted(PLANNED_STEPS))
    def test_a_plan_dropped_from_the_memo_is_rebuilt(self, name):
        """The one memo keeps ``PLAN_LIMIT`` plans; the least recently used
        is dropped, and a call on its support rebuilds it with the same bits
        (both of them for ``measure_plus_minus``, which plans each branch)."""
        step = PLANNED_STEPS[name]
        planned.cache_clear()
        first = [exact(step(state)) for state in MEMO_STATES]
        assert planned.cache_info().currsize == PLAN_LIMIT
        misses = planned.cache_info().misses
        assert exact(step(MEMO_STATES[0])) == first[0]
        assert planned.cache_info().misses == misses + (2 if name == "measure_plus_minus" else 1)


#: the control rails of every fusion round
FUSION_CONTROL = ("cx0", "cx1")


def fuse_iterated_reference(qubits, vacuum_amp=1.0):
    """``fuse_iterated`` without plans: each round spreads the register by a
    relabeling comprehension, then runs the CNOT and erasure references."""
    qubits = [normalized_amplitudes(q, 2) for q in qubits]
    state = qubit_on(("r0", "r1"), qubits[0])
    width = 2
    probability = 1.0
    for q in qubits[1:]:
        spread = {f"r{i}": f"r{2 * i}" for i in range(width)}
        state = PureState._of({
            tuple(sorted(((spread[rail], ch, tag), n) for (rail, ch, tag), n in occ)): amp
            for occ, amp in state.items()
        })
        width *= 2
        state = superpose(state, q, tuple(((rail, ""),) for rail in FUSION_CONTROL))
        for k in range(width // 2):
            state = cnot_reference(state, FUSION_CONTROL, (f"r{2 * k}", f"r{2 * k + 1}"), vacuum_amp)
        (p_plus, state), _minus = measure_plus_minus_reference(state, FUSION_CONTROL)
        probability *= p_plus
    return state.amplitudes(tuple(((f"r{i}", ""),) for i in range(width))), probability


#: qubits of RAIL_AMPS values, or a basis state with a signed zero, never both zero
QUBITS = st.lists(
    st.tuples(*[st.sampled_from(RAIL_VALUES + (0.0, -0.0))] * 2).filter(any), min_size=1, max_size=MAX_FUSED_QUBITS
)


class TestFuseIteratedPlans:
    @settings(deadline=None, max_examples=60)
    @given(qubits=QUBITS, others=QUBITS, vacuum_amp=VACUUM_AMPS)
    def test_plans_equal_the_reference(self, qubits, others, vacuum_amp):
        """The same bits, or the same refusal, as the reference on one to
        four qubits: cold, warm, and then on other qubits."""
        planned.cache_clear()
        for drawn in (qubits, qubits, others):
            assert outcome(fuse_iterated, drawn, vacuum_amp) == outcome(fuse_iterated_reference, drawn, vacuum_amp)


def fuse_joint_reference(amps, vacuum_amp=1.0):
    """``fuse_joint`` from the reference loops, in the spread layout: the
    target's logical t on rail r2t, the CNOTs onto (r0, r1) and (r2, r3)."""
    amps, squared_norm = rescaled_amplitudes(amps, 4)
    joint = superpose(
        PureState.vacuum(), amps, tuple(((f"r{2 * t}", ""), (c, "")) for t in (0, 1) for c in FUSION_CONTROL)
    )
    for k in range(2):
        joint = cnot_reference(joint, FUSION_CONTROL, (f"r{2 * k}", f"r{2 * k + 1}"), vacuum_amp)
    (p_plus, plus), (p_minus, minus) = measure_plus_minus_reference(joint, FUSION_CONTROL)
    kets = tuple(((f"r{i}", ""),) for i in range(4))
    return plus.amplitudes(kets), minus.amplitudes(kets), p_plus / squared_norm, p_minus / squared_norm


def fuse_reference(psi, phi, vacuum_amp=1.0):
    psi, phi = (rescaled_amplitudes(q, 2)[0] for q in (psi, phi))
    return fuse_joint_reference(product_qudit(psi, phi), vacuum_amp)


def branches(fusion):
    return fusion.plus_amps, fusion.minus_amps, fusion.plus_probability, fusion.minus_probability


class TestFuseJointPlans:
    @settings(deadline=None, max_examples=60)
    @given(
        amps=st.lists(st.sampled_from(RAIL_VALUES + (0.0, -0.0)), min_size=4, max_size=4),
        qubits=st.lists(st.tuples(*[st.sampled_from(RAIL_VALUES + (0.0, -0.0))] * 2), min_size=2, max_size=2),
        vacuum_amp=VACUUM_AMPS,
    )
    def test_branches_equal_the_reference(self, amps, qubits, vacuum_amp):
        """``fuse_joint`` and ``fuse`` give the reference's amplitudes and
        probabilities bit for bit, or its refusal: cold, then warm."""
        planned.cache_clear()
        for _ in range(2):
            got = outcome(lambda *a: branches(fuse_joint(*a)), amps, vacuum_amp)
            assert got == outcome(fuse_joint_reference, amps, vacuum_amp)
            got = outcome(lambda *a: branches(fuse(*a)), *qubits, vacuum_amp)
            assert got == outcome(fuse_reference, *qubits, vacuum_amp)


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
