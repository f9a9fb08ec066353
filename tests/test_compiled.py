"""Property tests of the compiled element path.

A whole element sequence is applied as one composed substitution; these
tests hold it to element-by-element application and to an independent
transfer-matrix/permanent calculation.  Compiled maps memoize their
monomial images, and a plan per input support, in two memos that all maps
share, each entry keyed by its map; a memo must never change a result or
skip a check.
"""

import importlib
import inspect
import itertools
import math
import pkgutil
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockfuse
from fockfuse.elements import (
    Hwp,
    Merge,
    Pbs,
    Relabel,
    SigmaX,
    SignFlipV,
    Unfold,
    apply_element,
    apply_elements,
    compile_elements,
)
from fockfuse.circuits import (
    Circuit,
    PhotonIn,
    _heralded_map,
    build_fusion_circuit,
    initial_state,
    run_circuit,
    run_fusion,
)
from fockfuse.states import H, INV_SQRT2, PLAN_LIMIT, V, DetectionPattern, MemoRules, PureState

# the benchmark's numpy oracles are the one copy of the transfer-matrix/permanent calculation
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracles  # noqa: E402

MODES = ("a", "b", "c", "d")
#: free names that unfold/relabel/merge can also write to
FRESH = ("x", "y")
#: angles whose cos/sin are 0 or well above the pruning tolerance
ANGLES = (0.0, 22.5, -22.5, 30.0, 45.0, 67.5, 112.5)


def ket(*photons):
    state = PureState.vacuum()
    for mode, pol, *tag in photons:
        state = state.create(mode, pol, tag[0] if tag else "")
    return state


def occupied_modes(state):
    """The sorted modes that some term of ``state`` holds a photon on."""
    return sorted({mode for occ, _amp in state.items() for (mode, _ch, _tag), _n in occ})


def outcome(fn):
    try:
        return "ok", fn()
    except ValueError as exc:
        return "error", str(exc)


def sequential(state, elements):
    for element in elements:
        state = apply_element(state, element)
    return state


def max_difference(x, y):
    xs, ys = dict(x.items()), dict(y.items())
    return max((abs(xs.get(o, 0) - ys.get(o, 0)) for o in xs.keys() | ys.keys()), default=0.0)


@st.composite
def circuits(draw):
    modes = MODES[: draw(st.integers(2, 4))]
    targets = modes + FRESH
    pick = st.sampled_from(modes)
    ports = st.lists(pick, min_size=2, max_size=2, unique=True)  # a PBS names no port twice
    element = st.one_of(
        st.builds(Hwp, pick, st.sampled_from(ANGLES)),
        st.tuples(ports, ports).map(lambda pair: Pbs(*pair[0], *pair[1])),
        st.builds(SigmaX, pick),
        st.builds(SignFlipV, pick),
        st.builds(Unfold, pick, st.sampled_from(targets), st.sampled_from(targets)),
        st.builds(Relabel, pick, st.sampled_from(targets)),
        st.builds(Merge, pick, pick, pick),
    )
    return modes, tuple(draw(st.lists(element, min_size=1, max_size=8)))


@st.composite
def fock_terms(draw, modes):
    tag = st.sampled_from(("", "A", "B"))
    photon = st.tuples(st.sampled_from(modes), st.sampled_from((H, V)), tag)
    return ket(*draw(st.lists(photon, min_size=1, max_size=3)))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_fock_input_composed_equals_sequential(data):
    modes, elements = data.draw(circuits())
    state = data.draw(fock_terms(modes))
    got = outcome(lambda: apply_elements(state, elements))
    want = outcome(lambda: sequential(state, elements))
    # for a single Fock term the structural checks are exact: same error or none
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert max_difference(got[1], want[1]) <= 1e-12


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_superposed_input_composed_equals_sequential(data):
    modes, elements = data.draw(circuits())
    terms = data.draw(
        st.lists(fock_terms(modes), min_size=2, max_size=3, unique_by=PureState.to_canonical_text)
    )
    coeffs = data.draw(
        st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0), min_size=3, max_size=3)
    )
    state = sum((z * term for z, term in zip(coeffs, terms)), PureState.zero())
    got = outcome(lambda: apply_elements(state, elements))
    want = outcome(lambda: sequential(state, elements))
    # interference between terms can empty a target that only the structural
    # check sees, so the composed path may raise where the sequential does
    # not, but never the other way round
    if got[0] == "ok":
        assert want[0] == "ok"
        assert max_difference(got[1], want[1]) <= 1e-12


# -- an independent transfer-matrix / permanent oracle -------------------------


def mesh_layer(element):
    """``oracles.mesh_transfer_matrix``'s layer for a drawn HWP or mode-preserving PBS."""
    if isinstance(element, Hwp):
        return ("hwp", MODES.index(element.mode), element.theta)
    return ("pbs", MODES.index(element.in1), MODES.index(element.in2))


@st.composite
def meshes(draw):
    n = draw(st.integers(2, 4))
    modes = MODES[:n]
    angle = st.floats(-90, 90, allow_nan=False)
    hwp = st.builds(Hwp, st.sampled_from(modes), angle)
    pbs = st.lists(st.sampled_from(modes), min_size=2, max_size=2, unique=True).map(
        lambda pair: Pbs(pair[0], pair[1], pair[0], pair[1])
    )
    elements = tuple(draw(st.lists(st.one_of(hwp, pbs), min_size=1, max_size=10)))
    pols = draw(st.lists(st.sampled_from((H, V)), min_size=n, max_size=n))
    return n, elements, list(zip(modes, pols))


@given(meshes())
@settings(max_examples=100, deadline=None)
def test_mesh_coincidences_match_permanents(mesh):
    n, elements, photons = mesh
    out = apply_elements(ket(*photons), elements)
    u = oracles.mesh_transfer_matrix(n, [mesh_layer(el) for el in elements])
    columns = [2 * MODES.index(mode) + (pol == V) for mode, pol in photons]
    for rows in itertools.combinations_with_replacement(range(2 * n), len(photons)):
        bunching = math.prod(math.factorial(rows.count(r)) for r in set(rows))
        want = abs(oracles.ryser_permanent(u[np.ix_(rows, columns)])) ** 2 / bunching
        (got,) = out.amplitudes((tuple((MODES[r // 2], (H, V)[r % 2]) for r in rows),))
        assert abs(got) ** 2 == pytest.approx(want, abs=1e-12)


# -- structural occupancy checks -------------------------------------------------


def test_one_element_check_messages():
    with pytest.raises(ValueError, match=r"^unfold target 't1' already carries photons$"):
        apply_element(ket(("t", H), ("t1", H)), Unfold("t", "t1", "t2"))
    with pytest.raises(ValueError, match=r"^unfold target 't2' already carries photons$"):
        apply_element(ket(("t", H), ("t2", "")), Unfold("t", "t1", "t2"))  # a rail photon
    with pytest.raises(ValueError, match=r"^merge undefined: 't1' carries the reflected polarization$"):
        apply_element(ket(("t1", V)), Merge("t1", "t2", "t"))
    with pytest.raises(ValueError, match=r"^merge undefined: 't2' carries the reflected polarization$"):
        apply_element(ket(("t2", H)), Merge("t1", "t2", "t"))
    with pytest.raises(ValueError, match=r"^relabel target 'u' already carries photons$"):
        apply_element(ket(("t", H), ("u", V)), Relabel("t", "u"))


def test_check_sees_photons_routed_by_earlier_elements():
    # the V half of a's photon leaves the PBS on b, which the unfold must find empty
    elements = (Hwp("a", 22.5), Pbs("a", "b", "a", "b"), Unfold("c", "b", "d"))
    with pytest.raises(ValueError, match=r"^unfold target 'b' already carries photons$"):
        apply_elements(ket(("a", H), ("c", H)), elements)


@pytest.mark.parametrize("first", ["e", "b"])
def test_the_earliest_refusing_check_fires_whatever_the_term_order(first):
    # the e term is refused only by the later relabel, the b term by the unfold
    second = {"e": "b", "b": "e"}[first]
    state = ket((first, H)) + ket((second, H))
    elements = (Unfold("a", "b", "c"), Relabel("d", "e"))
    with pytest.raises(ValueError, match=r"^unfold target 'b' already carries photons$"):
        apply_elements(state, elements)


def test_check_fires_when_interference_empties_the_target():
    # (H + V)/sqrt2 leaves the Hadamard as H, so nothing reaches b; the
    # structural check only sees that a's V operator can
    state = INV_SQRT2 * (ket(("a", H)) + ket(("a", V)))
    elements = (Hwp("a", 22.5), Pbs("a", "b", "a", "b"), Unfold("c", "b", "d"))
    assert "b" not in occupied_modes(sequential(state, elements))
    with pytest.raises(ValueError, match="unfold target 'b'"):
        apply_elements(state, elements)


def test_identity_pair_before_unfold_does_not_raise():
    state = ket(("a", H), ("c", V))
    for elements in (
        (Hwp("a", 22.5), Hwp("a", 22.5), Unfold("a", "a1", "a2")),
        # the cancelled a -> V coefficient must not count as reaching b
        (Hwp("a", 22.5), Hwp("a", 22.5), Pbs("a", "b", "a", "b"), Unfold("c", "b", "d")),
    ):
        out = apply_elements(state, elements)
        assert max_difference(out, sequential(state, elements)) <= 1e-12
    image = dict(compile_elements((Hwp("a", 22.5), Hwp("a", 22.5)))[("a", H)])
    assert list(image) == [("a", H)] and image[("a", H)] == pytest.approx(1.0, abs=1e-15)


# -- the monomial-image memo -----------------------------------------------------


@st.composite
def multi_photon_states(draw, modes):
    """A superposition of tagged Fock terms, some with several photons per mode."""
    tag = st.sampled_from(("", "A", "B"))
    photon = st.tuples(st.sampled_from(modes), st.sampled_from((H, V)), tag)
    photons = st.lists(photon, min_size=1, max_size=4)
    terms = draw(st.lists(photons, min_size=1, max_size=3))
    coeffs = draw(st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0), min_size=3))
    return sum((z * ket(*photons) for z, photons in zip(coeffs, terms)), PureState.zero())


def accumulated(state, rules):
    """The reference for ``substituted``: each term's image, expanded by a
    fresh map, added term by term into one dict, then the checked
    constructor."""
    if not rules:
        return state
    fresh = MemoRules(dict(rules), rules.checks, rules.patterns)
    out, refused = {}, len(rules.checks)
    for occ, amp in state.items():
        root_fact_in, terms, check = fresh.image(occ)
        refused = min(refused, check)
        scale = amp / root_fact_in
        for mono, coeff, root_fact_out, _route in terms:
            out[mono] = out.get(mono, 0.0) + scale * coeff * root_fact_out
    if refused < len(rules.checks):
        raise ValueError(rules.checks[refused][1])
    return PureState(out)


def result(fn):
    """``outcome`` with a state's terms, in order, in place of the state."""
    kind, value = outcome(fn)
    return kind, list(value.items()) if kind == "ok" else value


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_memoized_application_equals_fresh_expansion(data):
    modes, elements = data.draw(circuits())
    state = data.draw(multi_photon_states(modes))
    terms = list(state.items())
    # supports sharing occupations: zero amplitudes in different slots, the
    # same terms in another order, and new amplitudes on the same support
    variants = [state]
    for _ in range(2):
        order = data.draw(st.permutations(terms))
        zeros = data.draw(st.lists(st.booleans(), min_size=len(terms), max_size=len(terms)))
        variants.append(PureState({occ: 0.0 if zero else amp for (occ, amp), zero in zip(order, zeros)}))
    coeffs = data.draw(st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0), min_size=len(terms)))
    variants.append(PureState({occ: z for (occ, _amp), z in zip(terms, coeffs)}))
    rules = compile_elements(elements)
    cold = MemoRules(dict(rules), rules.checks)
    for _ in range(2):  # the repeat pass replays the first pass's plans
        for variant in variants:
            want = result(lambda: accumulated(variant, rules))
            assert result(lambda: variant.substituted(cold)) == want
            assert result(lambda: apply_elements(variant, elements)) == want
    for occ, _amp in state.items():
        assert rules.image(occ) is rules.image(occ)
        assert rules.image(occ)[:2] == MemoRules(dict(rules), ()).image(occ)[:2]


def memo_sizes():
    """The entries the image and plan memos of every map hold."""
    return MemoRules.image.cache_info().currsize, MemoRules.plan.cache_info().currsize


def test_a_heralded_map_keeps_at_most_plan_limit_images_and_plans():
    """A loop over distinct tags makes a new input occupation on every run;
    the two map memos stay bounded and the results unchanged."""
    circuit = build_fusion_circuit()
    bindings = {"psi": (1, 0), "phi": (0, 1)}  # one input term per run
    _heralded_map.cache_clear()
    for i in range(1000):
        warm = run_circuit(circuit, initial_state(circuit, bindings, tags={"t": f"t{i}"}))
        assert max(memo_sizes()) <= PLAN_LIMIT
    _heralded_map.cache_clear()
    cold = run_circuit(circuit, initial_state(circuit, bindings, tags={"t": f"t{i}"}))
    assert [(o.probability, list(o.state.items())) for o in warm] == [
        (o.probability, list(o.state.items())) for o in cold
    ]


def test_many_circuits_keep_at_most_plan_limit_images_and_plans_in_all():
    """Distinct circuits make distinct maps, each run on its own tag: the
    bound holds over all maps together, not per map."""
    mesh = (Pbs("a", "b", "a", "b"), Hwp("b", 30.0), Pbs("b", "c", "b", "c"), Hwp("c", 22.5))
    pattern = DetectionPattern.of({"a": "any", ("b", "c"): "any"})
    for i in range(300):
        elements = (Hwp("a", 10.0 + i / 8),) + mesh
        circuit = Circuit(("a", "b", "c"), (PhotonIn("a", H), PhotonIn("b", V)), elements, (pattern,))
        (outcome,) = run_circuit(circuit, initial_state(circuit, tags={"a": f"t{i}"}))
        assert outcome.probability > 0.0
        assert max(memo_sizes()) <= PLAN_LIMIT
    assert memo_sizes() == (PLAN_LIMIT, PLAN_LIMIT)


def test_every_memo_with_an_argument_keeps_plan_limit_entries():
    """Each ``functools`` cache on a ``fockfuse`` module or on a class one
    defines, but those of argument-free builders, is an LRU cache of
    ``PLAN_LIMIT`` entries."""
    memos = {}
    for info in pkgutil.iter_modules(fockfuse.__path__, "fockfuse."):
        module = importlib.import_module(info.name)
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == info.name]
        for owner in owners:
            for name, value in vars(owner).items():
                if hasattr(value, "cache_parameters"):
                    memos[f"{owner.__name__}.{name}"] = value
    assert {"MemoRules.image", "MemoRules.plan", "fockfuse.states.planned"} <= memos.keys()
    for name, memo in memos.items():
        if inspect.signature(memo.__wrapped__).parameters:
            assert memo.cache_parameters()["maxsize"] == PLAN_LIMIT, name


def test_plan_memo_is_bounded():
    mesh = (Hwp("a", 22.5), Pbs("a", "b", "a", "b"), Hwp("b", 30.0), Unfold("c", "x", "y"))
    compiled = compile_elements(mesh)
    rules = MemoRules(dict(compiled), compiled.checks)
    for _ in range(2):
        for i in range(300):  # 300 distinct supports, each tag its own sector
            state = 0.6 * ket(("a", H, f"t{i}")) + 0.8j * ket(("a", V), ("b", H, f"t{i}"))
            assert result(lambda: state.substituted(rules)) == result(lambda: accumulated(state, rules))
            assert memo_sizes()[1] <= PLAN_LIMIT
    hits = MemoRules.plan.cache_info().hits
    rules.plan(tuple(occ for occ, _amp in state.items()))  # the last support's plan is kept
    assert MemoRules.plan.cache_info().hits == hits + 1


@pytest.mark.parametrize(
    "state, elements, message",
    [
        (ket(("t", H), ("t1", H)), (Unfold("t", "t1", "t2"),), "unfold target 't1' already"),
        (ket(("t1", V)), (Merge("t1", "t2", "t"),), "merge undefined: 't1' carries"),
        (ket(("t", H), ("u", V)), (Relabel("t", "u"),), "relabel target 'u' already"),
    ],
)
def test_checks_still_raise_when_the_images_are_memoized(state, elements, message):
    rules = compile_elements(elements)
    for occ, _amp in state.items():
        rules.image(occ)
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{message}"):
            apply_elements(state, elements)


def test_each_map_owns_its_images():
    compile_elements.cache_clear()  # every map below starts with an empty memo
    mesh = (Hwp("a", 22.5), Pbs("a", "b", "a", "b"), Hwp("b", 30.0), Pbs("b", "c", "b", "c"))
    mesh += (Hwp("a", 67.5), Hwp("c", 22.5))
    inputs = [ket(("a", H)), ket(("a", H), ("b", V, "A")), ket(("a", H), ("a", V), ("b", H))]
    inputs.append(ket(("a", H), ("a", H), ("b", V), ("c", H)))  # a 66-term image
    for angle in range(0, 90, 5):
        elements = (Hwp("c", float(angle)),) + mesh
        rules = compile_elements(elements)
        applied = set()
        for state in inputs:
            for _ in range(2):
                out = apply_elements(state, elements)
                assert list(out.items()) == list(state.substituted(MemoRules(rules, ())).items())
            applied.update(occ for occ, _amp in state.items())
            before = MemoRules.image.cache_info()
            for occ in applied:  # each applied occupation's image is kept for this map
                rules.image(occ)
            assert MemoRules.image.cache_info().hits == before.hits + len(applied)
        # an equal map shares no entry
        before = MemoRules.image.cache_info()
        equal = MemoRules(dict(rules), rules.checks)
        for occ in applied:
            equal.image(occ)
        assert MemoRules.image.cache_info().misses == before.misses + len(applied)
    (big, _amp), = inputs[-1].items()
    assert len(rules.image(big)[1]) == 66
    dropped = weakref.ref(rules)
    del rules, equal
    # a dropped map is released once the caches that hold it are cleared
    for memo in (compile_elements, MemoRules.image, MemoRules.plan):
        memo.cache_clear()
    assert dropped() is None


def race(n, fn):
    """``fn(i)`` for i < n, each in its own thread, all released at once
    with a short switch interval; returns the results in order."""
    start, results = threading.Barrier(n), [None] * n

    def run(i):
        start.wait()
        results[i] = fn(i)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def test_threads_racing_on_a_fresh_map_agree():
    psi, phi = (0.6, 0.8j), (INV_SQRT2, -INV_SQRT2)
    _heralded_map.cache_clear()
    runs = race(8, lambda i: [(o.probability, list(o.state.items())) for o in run_fusion(psi, phi)])
    assert runs[0] is not None and all(r == runs[0] for r in runs)
    circuit = build_fusion_circuit()
    heralded = _heralded_map(circuit)
    for occ, _amp in initial_state(circuit, {"psi": psi, "phi": phi}).items():
        assert heralded.image(occ) is heralded.image(occ)
    # a miss raced by many threads may be computed more than once; every thread gets an equal image
    (occ, _amp), = ket(("a", H), ("a", H), ("b", V), ("c", H)).items()
    mesh = (Hwp("a", 22.5), Pbs("a", "b", "a", "b"), Hwp("b", 30.0), Pbs("b", "c", "b", "c"))
    rules = compile_elements(mesh)
    for _ in range(5):
        fresh = MemoRules(dict(rules), rules.checks)
        images = race(8, lambda i: fresh.image(occ))
        assert all(image == fresh.image(occ) for image in images)
