import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockfuse import circuits
from fockfuse.circuits import (
    FUSED_KETS,
    apply_feed_forward,
    build_fission_circuit,
    build_fusion_circuit,
    fission_feed_forward,
    fusion_input,
    run_circuit,
)
from fockfuse.elements import Hwp, Relabel, SigmaX, SignFlipV, apply_elements
from fockfuse.states import (
    H,
    INV_SQRT2,
    PRUNE_TOL,
    V,
    ConditionalOutcome,
    DetectionPattern,
    MemoRules,
    MixedState,
    PhotonCapExceeded,
    PureState,
    conditioned,
    fidelity,
    make_key,
    normalized_amplitudes,
    planned,
    projector_probability,
    superpose,
)

SQRT2 = math.sqrt(2.0)


def ket(*photons):
    state = PureState.vacuum()
    for mode, pol, *tag in photons:
        state = state.create(mode, pol, tag[0] if tag else "")
    return state


FUSION = build_fusion_circuit()
TAGS = st.sampled_from(("", "A", "B"))
#: raw weights on a small integer grid, so a failure shrinks fast
WEIGHTS = st.integers(0, 4)
#: four normalized complex amplitudes from small Gaussian integers, not all zero
QUDITS = (
    st.lists(st.builds(complex, st.integers(-2, 2), st.integers(-2, 2)), min_size=4, max_size=4)
    .filter(any)
    .map(lambda amps: normalized_amplitudes(amps, 4))
)


def heralded(state, target):
    """Each fusion pattern's probability, and its joint probability with a
    projection of the fused photon onto ``target``."""
    return [
        (o.probability, o.probability * projector_probability(o.state, target))
        for o in run_circuit(FUSION, state)
    ]


class TestCreation:
    def test_single_creation_on_vacuum(self):
        state = PureState.vacuum().create("t", H)
        assert state.amplitudes(((("t", H),),)) == (1.0,)

    def test_double_occupation_gains_sqrt2(self):
        # creation-operator convention: applying a-dagger twice gives sqrt(2)|2>
        state = PureState.vacuum().create("a", H).create("a", H)
        assert abs(state.amplitudes(((("a", H), ("a", H)),))[0] - SQRT2) < 1e-15

    def test_amplitudes_of_a_ket_with_two_photons_on_one_key(self):
        state = PureState.vacuum().create("a", H).create("a", H).create("b", V)
        got = state.amplitudes(((("a", H), ("b", V), ("a", H)), (("a", H), ("b", V))))
        assert got == (dict(state.items()).get(((("a", H, ""), 2), (("b", V, ""), 1)), 0), 0.0)
        assert abs(got[0] - SQRT2) < 1e-15

    def test_independent_channels_do_not_rescale(self):
        state = PureState.vacuum().create("a", H).create("a", V)
        assert state.amplitudes(((("a", H), ("a", V)),)) == (1.0,)

    def test_photon_cap(self):
        state = ket(("a", H), ("a", V), ("c", H), ("c", V))
        with pytest.raises(PhotonCapExceeded):
            state.create("t", H, cap=4)
        state.create("t", H, cap=5)  # a larger cap allows it
        state.create("t", H)  # no cap by default

    @given(st.permutations([("a", H, ""), ("a", V, ""), ("c", H, "A"), ("a", H, "")]))
    @settings(max_examples=30)
    def test_creations_commute(self, order):
        reference = None
        state = PureState.vacuum()
        for mode, pol, tag in order:
            state = state.create(mode, pol, tag)
        for mode, pol, tag in [("a", H, ""), ("a", V, ""), ("c", H, "A"), ("a", H, "")]:
            reference = (reference or PureState.vacuum()).create(mode, pol, tag)
        assert abs(state.inner(reference) - reference.squared_norm()) < 1e-12


def create_reference(state, mode, pol, tag):
    """One creation operator by its own arithmetic: count n gains √(n+1),
    summed onto 0.0 as an addition to an absent term would be."""
    key = make_key(mode, pol, tag)
    out = {}
    for occ, amp in state.items():
        counts = dict(occ)
        n = counts.get(key, 0) + 1
        counts[key] = n
        out[tuple(sorted(counts.items()))] = 0.0 + amp * math.sqrt(n)
    return PureState(out)


def superpose_reference(base, amps, kets, tags=None):
    """``superpose`` as a chain of ``create_reference``, ``*`` and ``+``:
    one intermediate state per photon and per ket, sharing no code with
    ``superpose`` or ``create``."""
    tags = tags or {}
    out = PureState.zero()
    for a, ket in zip(amps, kets):
        if a != 0:
            term = base
            for mode, pol in ket:
                term = create_reference(term, mode, pol, tags.get(mode, ""))
            out = out + complex(a) * term
    return out


def bits(state):
    """A state's terms in order, each amplitude as its exact bits (signed zeros included)."""
    return [(occ, a.real.hex(), a.imag.hex()) for occ, a in state.items()]


#: a few values repeated so that equal kets cancel exactly, signed zeros, and
#: magnitudes within a decade of PRUNE_TOL on either side
POOL = (0, 1, -1, 0.5, -0.5j, complex(-0.0, 1.0), complex(1.0, -0.0), -0.0, PRUNE_TOL, -PRUNE_TOL)
AMPLITUDES = st.one_of(
    st.sampled_from(POOL),
    st.builds(lambda x, sign: sign * x, st.floats(PRUNE_TOL / 10, PRUNE_TOL * 10), st.sampled_from((1, -1, 1j, -1j))),
    st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
)
PHOTONS = st.tuples(st.sampled_from(("a", "b")), st.sampled_from((H, V, "")))
KETS = st.lists(PHOTONS, min_size=1, max_size=3).map(tuple)
BRACKETS = st.lists(st.tuples(AMPLITUDES, KETS), max_size=4)
TAG_MAPS = st.dictionaries(st.sampled_from(("a", "b")), TAGS, max_size=2)


#: other amplitudes for a drawn support, none of them pruned
AMPLITUDE_SETS = st.lists(
    st.complex_numbers(min_magnitude=0.5, max_magnitude=4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=5,
)
#: amplitudes with a signed zero part, which a sum onto 0.0 turns positive
SIGNED_ZEROS = [complex(-0.0, 0.75), complex(0.5, -0.0)]


def on_support(state, amps):
    """``state``'s occupations, in order, with ``amps`` cycled over them."""
    other = PureState({occ: amps[i % len(amps)] for i, (occ, _amp) in enumerate(state.items())})
    assert [occ for occ, _amp in other.items()] == [occ for occ, _amp in state.items()]
    return other


class TestSuperpose:
    @settings(deadline=None)
    @given(BRACKETS, TAG_MAPS, BRACKETS, TAG_MAPS, st.lists(AMPLITUDES, min_size=4, max_size=4), AMPLITUDE_SETS)
    def test_one_pass_equals_the_create_chain(self, base_terms, base_tags, terms, tags, again, base_amps):
        """Same terms, in the same order, with the same bits, over tagged and
        untagged kets, two photons on one key, multi-term bases, zero
        amplitudes and amplitudes near ``PRUNE_TOL``; ``create``, which is
        one ``superpose`` call, gives each photon as the reference does.
        The same support and kets with other amplitudes, on the kets and
        then on the base (signed zero parts first), replay the plan the
        first call made."""
        base = PureState.vacuum()
        if base_terms:
            base = superpose_reference(base, *zip(*base_terms), base_tags)
        amps, kets = zip(*terms) if terms else ((), ())
        assert bits(superpose(base, amps, kets, tags)) == bits(superpose_reference(base, amps, kets, tags))
        misses = planned.cache_info().misses
        again = again[: len(kets)]
        assert bits(superpose(base, again, kets, tags)) == bits(superpose_reference(base, again, kets, tags))
        other = on_support(base, SIGNED_ZEROS + base_amps)
        assert bits(superpose(other, amps, kets, tags)) == bits(superpose_reference(other, amps, kets, tags))
        assert planned.cache_info().misses == misses
        for mode, pol in (photon for ket in kets for photon in ket):
            tag = tags.get(mode, "")
            assert bits(base.create(mode, pol, tag)) == bits(create_reference(base, mode, pol, tag))

    def test_a_cancelled_term_is_dropped_and_re_added_last(self):
        base = ket(("a", H))
        kets = ((("b", H),), (("b", V),), (("b", H),), (("b", H),))
        amps = (1.0, 0.5, -1.0, 0.25)
        got = superpose(base, amps, kets)
        assert bits(got) == bits(superpose_reference(base, amps, kets))
        (with_v, _amp), = ket(("a", H), ("b", V)).items()
        (with_h, _amp), = ket(("a", H), ("b", H)).items()
        assert [occ for occ, _amp in got.items()] == [with_v, with_h]


class TestInnerProduct:
    def test_normalized_self_overlap(self):
        state = (ket(("a", H)) + ket(("a", V))).normalized()
        assert abs(state.inner(state) - 1.0) < 1e-15

    def test_orthogonal_polarizations(self):
        assert ket(("a", H)).inner(ket(("a", V))) == 0.0

    def test_tags_suppress_interference(self):
        assert ket(("t", H, "A")).inner(ket(("t", H, "B"))) == 0.0

    def test_conjugate_linear_in_first_argument(self):
        x, y = ket(("a", H)), ket(("a", H))
        assert (1j * x).inner(y) == pytest.approx(-1j * x.inner(y))
        assert x.inner(1j * y) == pytest.approx(1j * x.inner(y))

    def test_zero_only_for_empty_state(self):
        assert PureState.zero().inner(PureState.zero()) == 0.0
        state = 1e-3 * ket(("a", H))
        assert state.inner(state).real > 0.0


class TestProjection:
    def test_symmetric_superposition(self):
        state = (ket(("a", H), ("c", H)) + ket(("a", V), ("c", V))).normalized()
        outcome = state.project(DetectionPattern.of({"a": H, "c": "any"}))
        assert outcome.probability == pytest.approx(0.5, abs=1e-12)
        assert fidelity(outcome.state, ket(("a", H), ("c", H))) == pytest.approx(1.0)

    def test_zero_probability_is_a_value(self):
        state = ket(("a", H))
        outcome = state.project(DetectionPattern.of({"a": "none"}))
        assert outcome.probability == 0.0
        assert outcome.state.is_zero

    def test_group_requirement(self):
        state = (ket(("t1", H)) + ket(("t2", V))).normalized()
        outcome = state.project(DetectionPattern.of({("t1", "t2"): "any"}))
        assert outcome.probability == pytest.approx(1.0)
        two = ket(("t1", H), ("t2", V))
        assert two.project(DetectionPattern.of({("t1", "t2"): "any"})).probability == 0.0

    @pytest.mark.parametrize("requirement", [H, V, "any", "none"])
    def test_rail_photon_meets_no_requirement(self, requirement):
        rail = PureState.vacuum().create("a", "")
        assert rail.project(DetectionPattern.of({"a": requirement})).probability == 0.0
        assert rail.project(DetectionPattern.of({"b": "none"})).probability == 1.0

    def test_exhaustive_family_sums_to_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = PureState.zero()
            for z, (pa, pc) in zip(coeffs, [(H, H), (H, V), (V, H), (V, V)]):
                state = state + z * ket(("a", pa), ("c", pc))
            total = sum(
                state.project(DetectionPattern.of({"a": ra, "c": rc})).probability
                for ra in (H, V, "none")
                for rc in (H, V, "none")
            )
            assert total == pytest.approx(state.squared_norm(), abs=1e-12)

    def test_probability_is_squared_norm_before_renormalization(self):
        state = (0.6 * ket(("a", H)) + 0.8 * ket(("a", V)))
        outcome = state.project(DetectionPattern.of({"a": H}))
        assert outcome.probability == pytest.approx(0.36, abs=1e-12)
        assert outcome.state.squared_norm() == pytest.approx(1.0, abs=1e-12)


class TestPruning:
    def test_tiny_amplitudes_dropped_without_norm_damage(self):
        base = ket(("a", H))
        state = base + 1e-13 * ket(("a", V))
        assert len(state) == 1
        assert abs(state.norm() - 1.0) < 1e-10


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.nan, 1)])
    def test_non_finite_amplitudes_raise(self, bad):
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            PureState({((("a", H, ""), 1),): bad})
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            ket(("a", H)) * bad


class TestTrustedPaths:
    """States built from already-checked terms still refuse non-finite amplitudes."""

    def test_create_overflowing_on_a_doubly_occupied_key(self):
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            (ket(("a", H)) * 1.5e308).create("a", H)

    def test_superpose_with_an_infinite_amplitude(self):
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            superpose(PureState.vacuum(), (math.inf, 1.0), ((("a", H),), (("a", V),)))

    def test_substituted_overflowing_through_a_hwp(self):
        state = (ket(("a", H)) + ket(("a", V))) * 1.5e308  # H gains both halves
        for _ in range(2):  # cold, then through the memoized plan
            with pytest.raises(ValueError, match="^amplitudes must be finite$"):
                apply_elements(state, (Hwp("a", 22.5),))

    def test_conditional_outcome_of_a_nan(self):
        kept = {((("a", H, ""), 1),): complex(math.nan, 0.0)}
        with pytest.raises(ValueError, match="^amplitudes must be finite$"):
            conditioned(kept)

    def test_conditional_outcome_prunes_what_renormalization_shrinks(self):
        big, small = ((("a", H, ""), 1),), ((("a", V, ""), 1),)
        _probability, state = conditioned({big: 1e6 + 0j, small: 1e-7 + 0j})
        assert [occ for occ, _amp in state.items()] == [big]

    def test_unnormalized_fusion_input_is_unchanged(self):
        # an input of norm 3 gives every pattern nine times its probability
        # (ROADMAP item 5); pinned here bit for bit
        outcomes = run_circuit(FUSION, input_state=fusion_input((1, 0, 0, 0)) * 3)
        t1_pol = {(H, H): H, (H, V): H, (V, H): V, (V, V): V}
        for o, (a, c) in zip(outcomes, [(H, H), (H, V), (V, H), (V, V)]):
            assert o.probability == 0.28125000000000006
            occ = ((("a", a, ""), 1), (("c", c, ""), 1), (("t1", t1_pol[a, c], ""), 1))
            assert [(k, repr(z)) for k, z in o.state.items()] == [(occ, "(1+0j)")]


def conditioned_reference(terms):
    """The arithmetic ``ConditionalOutcome.of`` had, written out: Σ|a|²,
    then each term times 1.0/√Σ, less those at or below ``PRUNE_TOL``."""
    probability = sum(abs(a) ** 2 for a in terms.values())
    if probability <= 0.0:
        return 0.0, PureState.zero()
    scale = 1.0 / math.sqrt(probability)
    return probability, PureState({occ: amp * scale for occ, amp in terms.items()})


def exact_outcome(outcome):
    probability, state = outcome
    return type(probability), probability.hex(), [(occ, a.real.hex(), a.imag.hex()) for occ, a in state.items()]


#: heralded terms: signed zero parts, and magnitudes that fall to or below
#: PRUNE_TOL once 1e6 or 1e150 sets the scale
HERALDED_TERMS = st.dictionaries(
    st.sampled_from([((("a", pol, tag), 1), (("c", H, ""), n)) for pol in (H, V) for tag in ("", "A") for n in (1, 2)]),
    st.sampled_from(
        (1.0, -0.6j, complex(-0.0, 0.8), complex(0.5, -0.0), 0.3 - 0.4j, 1e6, -1e6j, 1e150, 1e-7, 3e-12, 1e-140)
    ),
    max_size=6,
)


class TestConditioned:
    @settings(deadline=None, max_examples=200)
    @given(terms=HERALDED_TERMS)
    def test_equals_the_old_arithmetic(self, terms):
        assert exact_outcome(conditioned(terms)) == exact_outcome(conditioned_reference(terms))

    def test_no_terms(self):
        assert exact_outcome(conditioned({})) == (float, "0x0.0p+0", [])


class TestScale:
    """Norms and fidelities give the unit-scale answer when Σ|a|² overflows."""

    def test_run_circuit_past_the_float_range(self):
        """The unit input's conditional states, and probability ``inf``, as
        ``squared_norm`` reads it; before, Σ|a|² raised ``OverflowError``."""
        unit = run_circuit(FUSION, input_state=fusion_input((1, 0, 0, 0)))
        big = run_circuit(FUSION, input_state=fusion_input((1, 0, 0, 0)) * 1e200)
        assert len(big) == len(unit) == 4
        for got, want in zip(big, unit):
            assert got.probability == math.inf
            assert [occ for occ, _amp in got.state.items()] == [occ for occ, _amp in want.state.items()]
            for (_occ, a), (_occ2, b) in zip(got.state.items(), want.state.items()):
                assert a == pytest.approx(b, abs=1e-15)

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_norm_and_normalized(self, scale):
        unit = 0.6 * ket(("a", H)) + 0.8j * ket(("a", V), ("b", H, "A"))
        big = unit * scale
        assert big.squared_norm() == math.inf
        assert big.norm() == pytest.approx(scale, rel=1e-15)
        got = big.normalized()
        assert [occ for occ, _amp in got.items()] == [occ for occ, _amp in unit.items()]
        for (_occ, a), (_occ2, b) in zip(got.items(), unit.items()):
            assert a == pytest.approx(b, abs=1e-15)

    @pytest.mark.parametrize("scale", [1e100, 1e200, 1e300])
    def test_fidelity(self, scale):
        x = INV_SQRT2 * (ket(("a", H)) + ket(("a", V)))
        y = ket(("a", H))
        assert fidelity(x * scale, x * scale) == pytest.approx(1.0, abs=1e-15)
        assert fidelity(x * scale, y) == pytest.approx(0.5, abs=1e-15)
        assert fidelity(y, x * scale) == pytest.approx(0.5, abs=1e-15)
        assert fidelity(y * scale, ket(("a", V)) * scale) == 0.0

    def test_moderate_scale_keeps_its_arithmetic(self):
        state = 0.3 * ket(("a", H)) + (0.2 - 0.7j) * ket(("b", V))
        squared = abs(0.3) ** 2 + abs(0.2 - 0.7j) ** 2
        assert state.squared_norm() == squared
        assert state.norm() == math.sqrt(squared)
        assert list(state.normalized().items()) == list((state * (1.0 / math.sqrt(squared))).items())


class TestZeroState:
    def test_normalizing_it_is_refused(self):
        with pytest.raises(ValueError, match="^cannot normalize the zero state$"):
            PureState.zero().normalized()

    def test_its_fidelity_with_any_state_is_zero(self):
        for x, y in ((PureState.zero(), ket(("a", H))), (ket(("a", H)), PureState.zero())):
            assert exact(fidelity(x, y)) == "0x0.0p+0"


class TestSerialization:
    def test_canonical_text_is_sorted_and_stable(self):
        fwd = ket(("c", V)) + 2.0 * ket(("a", H))
        rev = 2.0 * ket(("a", H)) + ket(("c", V))
        assert fwd.to_canonical_text() == rev.to_canonical_text()
        rows = fwd.to_json_obj()
        assert rows[0]["occupations"] == [["a", "H", "", 1]]
        assert rows[0]["re"] == 2.0

    def test_factor_on_modes(self):
        state = ket(("a", H), ("t1", H)) + ket(("a", H), ("t1", V))
        part = state.factor_on_modes(("t1",))
        assert part.amplitudes(((("t1", H),),)) == (1.0,)
        entangled = ket(("a", H), ("t1", H)) + ket(("a", V), ("t1", V))
        with pytest.raises(ValueError):
            entangled.factor_on_modes(("t1",))


def factor_on_modes_reference(state, modes):
    """``factor_on_modes`` without a plan: each call splits every occupation."""
    keep = frozenset(modes)
    rest_ref = None
    out = {}
    for occ, amp in state.items():
        inside, outside = [], []
        for pair in occ:
            (inside if pair[0][0] in keep else outside).append(pair)
        if rest_ref is None:
            rest_ref = outside
        elif outside != rest_ref:
            raise ValueError(
                f"state does not factor on modes {sorted(keep)}"
            )
        # the common outside part makes inside parts distinct; 0.0 + as in create
        out[tuple(inside)] = 0.0 + amp
    return PureState._of(out)


def outcome(step, *args):
    """A step's result as its bits, or the message of the ``ValueError`` it raises."""
    try:
        return bits(step(*args))
    except ValueError as exc:
        return str(exc)


class TestFactorOnModes:
    @settings(deadline=None)
    @given(
        BRACKETS, TAG_MAPS, BRACKETS, TAG_MAPS, st.sampled_from(("", "A")), AMPLITUDE_SETS,
        st.sampled_from(((), ("a",), ("b",), ("a", "b"), ("a", "s"), ("a", "b", "s"), ["b", "b"])),
    )
    def test_plan_equals_the_reference(self, base_terms, base_tags, terms, tags, tag, amps, modes):
        """The same bits, or the same refusal, as the reference on tagged
        multi-term states with a spectator photon on ``s``: cold, warm, and
        with other amplitudes, signed zero parts first, on the same support."""
        state = bracket_state(base_terms, base_tags, terms, tags).create("s", H, tag)
        other = on_support(state, SIGNED_ZEROS + amps)
        MemoRules.image.cache_clear()
        MemoRules.plan.cache_clear()
        for drawn in (state, state, other):
            assert outcome(drawn.factor_on_modes, modes) == outcome(factor_on_modes_reference, drawn, modes)

    def test_a_refusal_is_raised_on_every_call(self):
        """The identity map's plan is kept; its replay refuses each time."""
        entangled = ket(("a", H), ("t1", H)) + ket(("a", V), ("t1", V))
        MemoRules.plan.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^state does not factor on modes \['t1'\]$"):
                entangled.factor_on_modes(("t1",))
        assert MemoRules.plan.cache_info().misses == 1


#: each apparatus's feed-forward and, as its docstring states them, its
#: corrections by pattern in circuit order and the modes its output is factored onto
FEED_FORWARDS = {
    "fusion": (
        apply_feed_forward, FUSION, ((), (SigmaX("t2"),), (SigmaX("t1"),), (SigmaX("t1"), SigmaX("t2"))), ("t1", "t2"),
    ),
    "fission": (
        fission_feed_forward,
        build_fission_circuit(),
        ((), (SignFlipV("t"),), (SigmaX("t"), Relabel("c'", "c")), (SignFlipV("t"), SigmaX("t"), Relabel("c'", "c"))),
        ("t", "c"),
    ),
}


def feed_forward_reference(outcome, apparatus):
    """The feed-forward as two steps: the pattern's corrections applied to the
    full state by ``apply_elements``, then factored by the plain loop."""
    _step, circuit, corrections, modes = FEED_FORWARDS[apparatus]
    requirements = [p.requirements for p in circuit.patterns]
    if outcome.pattern.requirements not in requirements:
        raise ValueError(f"outcome does not carry a {apparatus} detection pattern")
    elements = corrections[requirements.index(outcome.pattern.requirements)]
    return factor_on_modes_reference(apply_elements(outcome.state, elements), modes)


def occupation(photons):
    """The occupation holding ``(mode, channel, tag)`` photons, a repeat two on one key."""
    counts = {}
    for mode, channel, tag in photons:
        key = make_key(mode, channel, tag)
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


@st.composite
def apparatus_outcomes(draw):
    """An outcome of one of the apparatus's patterns, or one time in four of
    the other's, whose state shares one drawn spectator part, but a term in
    three also holds a photon anywhere (so the state may not factor).  Photons may
    repeat a key or sit on a rail, amplitudes may be signed zeros or within
    a decade of ``PRUNE_TOL``, and no term is pruned when the state is made.
    In a fission branch through ``c'`` a photon on ``c`` is refused."""
    apparatus = draw(st.sampled_from(sorted(FEED_FORWARDS)))
    _step, circuit, _corrections, modes = FEED_FORWARDS[apparatus]
    outputs = sorted(circuit.output_modes())
    photon = lambda pool: st.tuples(st.sampled_from(pool), st.sampled_from((H, V, "")), st.sampled_from(("", "A")))
    common = draw(st.lists(photon([m for m in outputs if m not in modes]), max_size=2))
    stray = st.one_of(st.just([]), st.just([]), st.lists(photon(outputs), min_size=1, max_size=1))
    terms = draw(st.lists(st.tuples(st.lists(photon(list(modes)), max_size=3), stray, AMPLITUDES), min_size=1, max_size=6))
    state = PureState._of({occupation(common + inside + extra): complex(a) for inside, extra, a in terms})
    foreign = FEED_FORWARDS["fission" if apparatus == "fusion" else "fusion"][1].patterns
    pattern = draw(st.sampled_from(foreign if draw(st.integers(0, 3)) == 3 else circuit.patterns))
    return apparatus, ConditionalOutcome(1.0, state, pattern)


class TestFeedForward:
    @pytest.mark.parametrize("apparatus", sorted(FEED_FORWARDS))
    def test_the_shipped_file_declares_the_corrections(self, apparatus):
        """The ``then`` tails and ``output`` line parse to the records above,
        and the engine holds no correction of its own."""
        _step, circuit, corrections, modes = FEED_FORWARDS[apparatus]
        assert circuit.feed_forward == corrections and circuit.output == modes
        assert not {"Relabel", "SigmaX", "SignFlipV"} & set(vars(circuits))

    @settings(deadline=None)
    @given(apparatus_outcomes(), AMPLITUDE_SETS)
    def test_one_replay_equals_correcting_then_factoring(self, drawn, amps):
        """The same bits, or the same refusal, as the two-step reference:
        cold, warm, and with other amplitudes, signed zero parts first, on
        the same support, which the element-free branches sum onto 0.0."""
        apparatus, drawn_outcome = drawn
        step = FEED_FORWARDS[apparatus][0]
        other = drawn_outcome.replace(state=on_support(drawn_outcome.state, SIGNED_ZEROS + amps))
        MemoRules.image.cache_clear()
        MemoRules.plan.cache_clear()
        for given_outcome in (drawn_outcome, drawn_outcome, other):
            assert outcome(step, given_outcome) == outcome(feed_forward_reference, given_outcome, apparatus)

    def test_a_mixed_input_outcome_is_refused_as_before(self):
        """Each branch label is a spectator, so a heralded mixture does not factor."""
        plain, tagged = fusion_input((0.6, 0.8j, 0.0, 0.0)), fusion_input((0.6, 0.8j, 0.0, 0.0), "A", "B")
        for mixed_outcome in run_circuit(FUSION, MixedState(((0.3, plain), (0.7, tagged)))):
            message = outcome(apply_feed_forward, mixed_outcome)
            assert message == outcome(feed_forward_reference, mixed_outcome, "fusion")
            assert message == "state does not factor on modes ['t1', 't2']"


def projector_probability_reference(state, amplitudes):
    """``projector_probability`` without a plan: each call splits every
    occupation into its target-mode and spectator parts."""
    target_modes = {mode for mode, _ in amplitudes}
    overlaps = {}
    for occ, amp in state.items():
        inside = [(k, n) for k, n in occ if k[0] in target_modes]
        if sum(n for _, n in inside) != 1:
            continue
        (mode, channel, tag), _ = inside[0]
        coeff = amplitudes.get((mode, channel))
        if coeff is None or coeff == 0:
            continue
        outside = tuple((k, n) for k, n in occ if k[0] not in target_modes)
        slot = (outside, tag)
        overlaps[slot] = overlaps.get(slot, 0.0) + complex(coeff).conjugate() * amp
    return sum(abs(v) ** 2 for v in overlaps.values())


def bracket_state(base_terms, base_tags, terms, tags):
    """Drawn ``BRACKETS`` kets, each with its ``TAG_MAPS`` tags, on a base of
    drawn kets: up to 16 terms of up to six photons on ``a`` and ``b``."""
    base = PureState.vacuum()
    for drawn, drawn_tags in ((base_terms, base_tags), (terms, tags)):
        if drawn:
            base = superpose_reference(base, *zip(*drawn), drawn_tags)
    return base


def exact(probability):
    """A probability's bits; the reference's empty sum is the int 0."""
    return float(probability).hex()


BRACKET_STATES = st.builds(bracket_state, BRACKETS, TAG_MAPS, BRACKETS, TAG_MAPS)
#: a mixture of two bracket states, its branch label a spectator on every target
MIXED_STATES = st.builds(
    lambda w, x, y: MixedState(((w, x), (1.0 - w, y))), st.floats(0.0, 1.0), BRACKET_STATES, BRACKET_STATES
)
#: zero, tiny and complex coefficients on some (mode, channel) pairs; the
#: other channels of a target mode are missing, and an untargeted mode is a spectator
ANALYZERS = st.dictionaries(
    st.tuples(st.sampled_from(("a", "b")), st.sampled_from((H, V, ""))), AMPLITUDES, min_size=1, max_size=4
)
class TestProjectorProbability:
    @settings(deadline=None)
    @given(st.one_of(BRACKET_STATES, MIXED_STATES), ANALYZERS, ANALYZERS, AMPLITUDE_SETS)
    def test_plan_equals_the_reference(self, state, first, second, amps):
        """The same bits as the reference, always as a float, on a drawn
        support under two analyzers and then with other amplitudes on the
        same support, so that a plan is replayed."""
        for drawn in (state, on_support(state, amps)):
            for analyzer in (first, second):
                got = projector_probability(drawn, analyzer)
                assert type(got) is float
                assert exact(got) == exact(projector_probability_reference(drawn, analyzer))

    def test_plus_projector(self):
        state = ket(("t1", H))
        amps = {("t1", H): 1 / SQRT2, ("t1", V): 1 / SQRT2}
        assert projector_probability(state, amps) == pytest.approx(0.5)

    def test_tag_sectors_add_incoherently(self):
        state = (ket(("t1", H, "A")) + ket(("t1", V, "B"))).normalized()
        amps = {("t1", H): 1 / SQRT2, ("t1", V): 1 / SQRT2}
        # each tagged component projects with probability 1/2
        assert projector_probability(state, amps) == pytest.approx(0.5)


class TestMixedState:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixedState(((0.5, ket(("a", H))),))

    @pytest.mark.parametrize(
        "weights, message",
        [
            ((math.nan, 1.0), "^branch weights must be finite$"),
            ((math.nan,), "^branch weights must be finite$"),
            ((0.5,), "^branch weights sum to 0.5, expected 1$"),
            ((-0.5, 1.5), "^branch weights must be non-negative$"),
            ((), "^a mixed state needs at least one branch$"),
        ],
    )
    def test_bad_weights_raise(self, weights, message):
        with pytest.raises(ValueError, match=message):
            MixedState(tuple((w, ket(("a", H))) for w in weights))

    def test_projection_weights(self):
        mixed = MixedState(((0.25, ket(("a", H))), (0.75, ket(("a", V)))))
        outcome = mixed.project(DetectionPattern.of({"a": H}))
        assert outcome.probability == pytest.approx(0.25)
        # one branch survives, so its label factors out
        assert fidelity(outcome.state.factor_on_modes(("a",)), ket(("a", H))) == pytest.approx(1.0)

    def test_zero_probability_marker(self):
        mixed = MixedState(((1.0, ket(("a", H))),))
        outcome = mixed.project(DetectionPattern.of({"a": "none"}))
        assert outcome.probability == 0.0
        assert outcome.state.is_zero

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_mixture_is_its_weighted_branches(self, data):
        """Through the fusion circuit a mixture gives its branches' weighted
        values, a nested mixture those of its flattened weights, and a lone
        branch its pure run's conditional states."""
        n = data.draw(st.integers(1, 3))
        branches = [fusion_input(data.draw(QUDITS), data.draw(TAGS), data.draw(TAGS)) for _ in range(n)]
        raw = data.draw(st.lists(WEIGHTS, min_size=n, max_size=n).filter(any))
        weights = [x / sum(raw) for x in raw]  # some may be 0.0
        target = {ket: a for (ket,), a in zip(FUSED_KETS, data.draw(QUDITS))}

        singles = [heralded(s, target) for s in branches]
        mixed = heralded(MixedState(zip(weights, branches)), target)
        for k, got in enumerate(mixed):
            want = tuple(sum(w * single[k][j] for w, single in zip(weights, singles)) for j in (0, 1))
            assert got == pytest.approx(want, abs=1e-12)

        v = data.draw(WEIGHTS) / 4
        extra = fusion_input(data.draw(QUDITS), data.draw(TAGS), data.draw(TAGS))
        nested = MixedState(((v, MixedState(zip(weights, branches))), (1.0 - v, extra)))
        flat = MixedState([(v * w, s) for w, s in zip(weights, branches)] + [(1.0 - v, extra)])
        for got, want in zip(heralded(nested, target), heralded(flat, target)):
            assert got == pytest.approx(want, abs=1e-12)

        lone = data.draw(st.integers(0, n - 1))
        only = MixedState((float(i == lone), s) for i, s in enumerate(branches))
        for got, want in zip(run_circuit(FUSION, only), run_circuit(FUSION, branches[lone])):
            assert got.probability == pytest.approx(want.probability, abs=1e-12)
            assert (got.state.factor_on_modes(FUSION.modes) + -1 * want.state).norm() <= 1e-12

