"""Property tests of the compiled element path.

A whole element sequence is applied as one composed substitution; these
tests hold it to element-by-element application and to an independent
transfer-matrix/permanent calculation.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from fockfuse.states import H, INV_SQRT2, V, PureState

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
    occs = {occ for occ, _ in x.items()} | {occ for occ, _ in y.items()}
    return max((abs(x.amplitude(o) - y.amplitude(o)) for o in occs), default=0.0)


@st.composite
def circuits(draw):
    modes = MODES[: draw(st.integers(2, 4))]
    targets = modes + FRESH
    pick = st.sampled_from(modes)
    element = st.one_of(
        st.builds(Hwp, pick, st.sampled_from(ANGLES)),
        st.builds(Pbs, pick, pick, pick, pick),
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


def permanent(m):
    n = m.shape[0]
    return sum(
        math.prod(m[i, sigma[i]] for i in range(n)) for sigma in itertools.permutations(range(n))
    )


def transfer_matrix(n_modes, elements):
    """2m x 2m matrix whose column (2i + pol) is the image of that operator."""
    u = np.eye(2 * n_modes, dtype=complex)
    for el in elements:
        step = np.eye(2 * n_modes, dtype=complex)
        if isinstance(el, Hwp):
            i = 2 * MODES.index(el.mode)
            c, s = np.cos(np.radians(2 * el.theta)), np.sin(np.radians(2 * el.theta))
            step[i : i + 2, i : i + 2] = [[c, s], [s, -c]]
        else:
            p, q = 2 * MODES.index(el.in1), 2 * MODES.index(el.in2)
            step[[p, p + 1, q, q + 1], :] = 0.0
            step[p, p] = step[q + 1, p + 1] = step[q, q] = step[p + 1, q + 1] = 1.0
        u = step @ u
    return u


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
    u = transfer_matrix(n, elements)
    columns = [2 * MODES.index(mode) + (pol == V) for mode, pol in photons]
    for rows in itertools.combinations_with_replacement(range(2 * n), len(photons)):
        occ = tuple(
            ((MODES[r // 2], (H, V)[r % 2], ""), rows.count(r)) for r in sorted(set(rows))
        )
        bunching = math.prod(math.factorial(count) for _, count in occ)
        want = abs(permanent(u[np.ix_(rows, columns)])) ** 2 / bunching
        assert abs(out.amplitude(occ)) ** 2 == pytest.approx(want, abs=1e-12)


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


def test_check_fires_when_interference_empties_the_target():
    # (H + V)/sqrt2 leaves the Hadamard as H, so nothing reaches b; the
    # structural check only sees that a's V operator can
    state = INV_SQRT2 * (ket(("a", H)) + ket(("a", V)))
    elements = (Hwp("a", 22.5), Pbs("a", "b", "a", "b"), Unfold("c", "b", "d"))
    assert "b" not in sequential(state, elements).modes()
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
    image = dict(compile_elements((Hwp("a", 22.5), Hwp("a", 22.5)))[0][("a", H)])
    assert list(image) == [("a", H)] and image[("a", H)] == pytest.approx(1.0, abs=1e-15)
