import cmath
import math
import re
from importlib import resources
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fockfuse import circuits
from fockfuse.circuits import (
    Circuit,
    CircuitError,
    PhotonIn,
    QubitSlot,
    QuditSlot,
    corrected,
    initial_state,
    run_circuit,
)
from fockfuse.distinguishability import ProbabilityMatrix, closed_form_matrix, similarity
from fockfuse.dsl import ParseError, parse_circuit, serialize_circuit
from fockfuse.elements import Hwp, OpticalElement, Pbs, Relabel, SigmaX, Unfold, apply_elements
from fockfuse.states import H, V, DetectionPattern, PatternError, PureState, normalized_amplitudes, planned
from test_states import bits, factor_on_modes_reference, outcome, superpose_reference

DATA = Path(__file__).parent / "data"
SHIPPED = sorted(
    (path for path in resources.files("fockfuse.data").iterdir() if path.name.endswith(".lop")),
    key=lambda path: path.name,
)

BAD_FILES = {
    "bad_arity.lop": (4, "argument"),
    "bad_unknown_directive.lop": (2, "unknown directive"),
    "bad_undeclared_mode.lop": (2, "undeclared mode"),
    "bad_angle.lop": (2, "angle"),
    "bad_reuse_after_unfold.lop": (6, "unfolded"),
    "bad_unnamed_group_member.lop": (4, "empty mode name in group 'a+'"),
}

#: files that break a rule of the ``then`` and ``output`` grammar -> (line, column, message)
BAD_GRAMMAR = {
    "bad_then_non_output.lop": (6, 26, "correction references non-output mode 'a'"),
    "bad_output_undeclared.lop": (5, 10, "undeclared mode 'z'"),
    "bad_output_non_output.lop": (8, 10, "output references non-output mode 't'"),
    "bad_then_without_output.lop": (5, 12, "corrections need an 'output' directive"),
    "bad_then_unknown_head.lop": (4, 28, "unknown element 'photon' after 'then'"),
    "bad_then_short_arity.lop": (5, 35, "'relabel' takes 2 arguments, got 1"),
}


class TestParsing:
    def test_single_element_line(self):
        circuit = parse_circuit("mode a\nhwp a 22.5\n")
        assert circuit.elements == (Hwp("a", 22.5),)

    def test_comments_and_blank_lines_ignored(self):
        circuit = parse_circuit("# header\n\nmode a  # trailing\nhwp a 10\n")
        assert circuit.modes == ("a",)

    def test_corrections_read_each_element_by_its_arity(self):
        """Words after ``then`` are taken greedily, as many per element as its
        fields, so a mode may share a directive's name."""
        circuit = parse_circuit(
            "mode a\nmode hwp\nphoton a H\ndetect a H then relabel hwp a hwp a 45 sigmax hwp\noutput a hwp\n"
        )
        assert circuit.feed_forward == ((Relabel("hwp", "a"), Hwp("a", 45.0), SigmaX("hwp")),)
        assert circuit.output == ("a", "hwp")
        assert parse_circuit(serialize_circuit(circuit)) == circuit

    def test_then_is_no_mode_name_and_output_comes_once(self):
        with pytest.raises(ParseError, match="line 1, column 6: invalid mode name 'then'"):
            parse_circuit("mode then\n")
        with pytest.raises(ParseError, match="line 3, column 1: 'output' takes one or more modes, on one line"):
            parse_circuit("mode a\noutput a\noutput a\n")

    def test_equal_patterns_need_equal_corrections(self):
        with pytest.raises(ParseError, match="line 3, column 1: pattern repeats an earlier one with other corr"):
            parse_circuit("mode a\ndetect a H then sigmax a\ndetect a H\noutput a\n")

    def test_detect_group_syntax(self):
        circuit = parse_circuit("mode a\nmode b\nphoton a H\nphoton b h\ndetect a+b any\n")
        assert circuit.inputs == (PhotonIn("a", H), PhotonIn("b", H))
        (pattern,) = circuit.patterns
        ((group, req),) = pattern.requirements
        assert group == frozenset({"a", "b"}) and req == "any"


class TestSerialization:
    @pytest.mark.parametrize("path", SHIPPED, ids=[path.name for path in SHIPPED])
    def test_round_trip(self, path):
        circuit = parse_circuit(path.read_text())
        assert parse_circuit(serialize_circuit(circuit)) == circuit


class TestErrors:
    @pytest.mark.parametrize("name,expected", sorted(BAD_FILES.items()))
    def test_malformed_files_report_positions(self, name, expected):
        line, needle = expected
        with pytest.raises(ParseError) as excinfo:
            parse_circuit((DATA / name).read_text())
        err = excinfo.value
        assert err.line == line
        assert err.column >= 1
        assert needle in str(err)

    @pytest.mark.parametrize("name", sorted(BAD_GRAMMAR))
    def test_grammar_errors_point_at_their_token(self, name):
        with pytest.raises(ParseError) as excinfo:
            parse_circuit((DATA / name).read_text())
        err = excinfo.value
        assert (err.line, err.column, err.message) == BAD_GRAMMAR[name]

    def test_arity_error_inline(self):
        with pytest.raises(ParseError) as excinfo:
            parse_circuit("mode a\nmode c\npbs a c a\n")
        assert excinfo.value.line == 3

    def test_duplicate_mode(self):
        with pytest.raises(ParseError, match="declared twice"):
            parse_circuit("mode a\nmode a\n")

    def test_bad_polarization(self):
        with pytest.raises(ParseError, match="polarization"):
            parse_circuit("mode a\nphoton a X\n")

    def test_detect_requires_pairs(self):
        with pytest.raises(ParseError):
            parse_circuit("mode a\ndetect a\n")

    def test_positions_are_columns(self):
        with pytest.raises(ParseError) as excinfo:
            parse_circuit("mode a\nhwp a nope\n")
        assert excinfo.value.column == 7  # points at the angle token


# -- generated circuits -------------------------------------------------------

MODE_POOL = ("a", "b", "c", "t1", "t2", "c'", "x_0")
DIRECTIVES = ("mode", "photon", "qubit", "qudit", "detect") + tuple(
    cls.__name__.lower() for cls in get_args(OpticalElement)
)


@st.composite
def detection_patterns(draw, outputs):
    chosen = draw(st.lists(st.sampled_from(outputs), min_size=1, unique=True))
    spec, start = {}, 0
    while start < len(chosen):
        group = tuple(chosen[start:start + draw(st.integers(1, 2))])
        start += len(group)
        spec[group[0] if len(group) == 1 else group] = draw(st.sampled_from((H, V, "any", "none")))
    return DetectionPattern.of(spec)


def drawn_element(draw, available):
    """An element of any kind on the ``available`` modes that ``block``
    accepts, or None where a ``pbs`` would need two of them."""
    live = st.sampled_from(available)
    kind = draw(st.sampled_from(get_args(OpticalElement)))
    if kind is Hwp:
        return Hwp(draw(live), draw(st.floats(allow_nan=False, allow_infinity=False)))
    if kind is Pbs:  # two distinct inputs and two distinct outputs
        if len(available) < 2:
            return None
        pair = st.lists(live, min_size=2, max_size=2, unique=True)
        return Pbs(*draw(pair), *draw(pair))
    return kind(*(draw(live) for _ in kind.__match_args__))


@st.composite
def valid_circuits(draw, min_inputs=0, max_inputs=3):
    """Circuits of every element kind that pass ``Circuit.validate``; half of
    those with outputs declare some, and then corrections on output modes
    for their patterns, equal patterns alike."""
    modes = tuple(draw(st.lists(st.sampled_from(MODE_POOL), min_size=1, max_size=5, unique=True)))
    mode = st.sampled_from(modes)
    inputs = tuple(draw(st.lists(st.one_of(
        st.builds(PhotonIn, mode, st.sampled_from((H, V)), st.sampled_from(("", "A", "tag_2"))),
        st.builds(QubitSlot, mode, st.sampled_from(("psi", "phi"))),
        st.builds(QuditSlot, mode, mode, st.just("input")),
    ), min_size=min_inputs, max_size=max_inputs)))
    slots = [i.name for i in inputs if not isinstance(i, PhotonIn)]
    assume(len(slots) == len(set(slots)))
    elements, retired = [], set()
    for _ in range(draw(st.integers(0, 8))):
        element = drawn_element(draw, [m for m in modes if m not in retired])
        if element is None:
            continue
        elements.append(element)
        if isinstance(element, Unfold):
            retired.add(element.src)
            if retired == set(modes):
                break
    circuit = Circuit(modes, inputs, tuple(elements), ())
    outputs = sorted(circuit.output_modes())
    patterns = draw(st.lists(detection_patterns(outputs), max_size=3)) if outputs else []
    if not outputs or draw(st.booleans()):
        return Circuit(modes, inputs, tuple(elements), tuple(patterns))
    output = tuple(draw(st.lists(st.sampled_from(outputs), min_size=1, unique=True)))
    tails: dict = {}
    for pattern in patterns:
        corrections = (drawn_element(draw, outputs) for _ in range(draw(st.integers(0, 2))))
        tails.setdefault(pattern.requirements, tuple(c for c in corrections if c is not None))
    return Circuit(modes, inputs, tuple(elements), tuple(patterns), tuple(tails[p.requirements] for p in patterns), output)


def mostly(usual, odd=st.text(max_size=3)):
    """``usual`` three times in four, else ``odd`` (any short text by default)."""
    return st.integers(0, 3).flatmap(lambda k: odd if k == 3 else usual)


@st.composite
def named_circuits(draw):
    """The raw parts of a circuit whose names, polarizations and tags may be
    any text, its patterns as raw (group, requirement) pairs, so that many of
    them break a rule of ``Circuit.validate`` or ``DetectionPattern``, and
    sometimes its output modes and each pattern's corrections."""
    modes = draw(st.lists(st.sampled_from(MODE_POOL), min_size=1, max_size=4, unique=True))
    modes += draw(mostly(st.just([]), st.lists(mostly(st.text(max_size=3), st.just("then")), min_size=1, max_size=1)))
    mode = st.sampled_from(modes)
    name = mostly(st.sampled_from(("psi", "phi", "input")))
    pol, tag = mostly(st.sampled_from((H, V))), mostly(st.sampled_from(("", "A")))
    inputs = draw(st.lists(st.one_of(
        st.builds(PhotonIn, mode, pol, tag),
        st.builds(QubitSlot, mode, name),
        st.builds(QuditSlot, mode, mode, name),
    ), max_size=3))
    kinds = [kind for kind in get_args(OpticalElement) if kind is not Hwp]
    element = st.one_of(
        st.builds(Hwp, mode, st.floats()),
        *(st.builds(kind, *[mode] * len(kind.__match_args__)) for kind in kinds),
    )
    elements = draw(st.lists(element, max_size=3))
    group = mostly(st.frozensets(mode, min_size=1, max_size=2),
                   st.frozensets(mostly(mode), max_size=2))
    requirement = mostly(st.sampled_from((H, V, "any", "none")), st.just("bogus"))
    pairs = mostly(st.lists(st.tuples(group, requirement), min_size=1, max_size=3), st.just([]))
    declared = draw(st.booleans())  # output modes and each pattern's corrections
    patterns = draw(st.lists(pairs.map(tuple), min_size=declared, max_size=2))
    if not declared:
        return tuple(modes), tuple(inputs), tuple(elements), tuple(patterns), (), ()
    tails = tuple(draw(st.lists(element, min_size=1, max_size=2)) for _ in patterns)
    output = draw(mostly(st.lists(mode, min_size=1, max_size=2), st.lists(mostly(mode), max_size=2)))
    return tuple(modes), tuple(inputs), tuple(elements), tuple(patterns), tuple(map(tuple, tails)), tuple(output)


def initial_state_reference(circuit, bindings, tags):
    """The input as one ``superpose_reference`` call per input, in order, each
    slot's photon on H and V of each of its modes."""
    state = PureState.vacuum()
    for inp in circuit.inputs:
        if isinstance(inp, PhotonIn):
            amps, kets, tag = (1.0,), (((inp.mode, inp.pol),),), inp.tag
        else:
            modes = (inp.mode1, inp.mode2) if isinstance(inp, QuditSlot) else (inp.mode,)
            kets, tag = tuple(((m, p),) for m in modes for p in (H, V)), tags.get(modes[0], "")
            amps = normalized_amplitudes(bindings[inp.name], len(kets))
        state = superpose_reference(state, amps, kets, {m: tags.get(m, tag) for ket in kets for m, _ in ket})
    return state


#: zeros, equal magnitudes that cancel, and, half the time, parts so small
#: beside a unit one that their products fall under PRUNE_TOL at the second
#: slot or at the first
SLOT_AMPLITUDES = st.one_of(st.sampled_from((0, 1, -1, 1j, -1j, 0.5)), st.sampled_from((1e-6, -1e-7j, 1e-13)))


class TestGenerated:
    @settings(deadline=None)
    @given(named_circuits())
    def test_circuits_that_validate_round_trip(self, parts):
        modes, inputs, elements, patterns, tails, output = parts
        try:
            circuit = Circuit(modes, inputs, elements, tuple(map(DetectionPattern, patterns)), tails, output)
        except (CircuitError, PatternError):
            return
        assert parse_circuit(serialize_circuit(circuit)) == circuit

    @settings(deadline=None)
    @given(valid_circuits())
    def test_parse_inverts_serialize(self, circuit):
        assert parse_circuit(serialize_circuit(circuit)) == circuit

    @settings(deadline=None)
    @given(valid_circuits(min_inputs=1, max_inputs=1))
    def test_one_photon_ends_on_one_output(self, circuit):
        """"H, or V, on output m and none on every other output", over every
        output m, is an exhaustive pattern family for a one-photon input."""
        outputs = sorted(circuit.output_modes())
        patterns = tuple(
            DetectionPattern.of({m: pol, **{o: "none" for o in outputs if o != m}})
            for m in outputs for pol in (H, V)
        )
        (inp,) = circuit.inputs
        amps = (0.6, 0.8j) if isinstance(inp, QubitSlot) else (0.5, 0.5j, -0.5, 0.5)
        bindings = {} if isinstance(inp, PhotonIn) else {inp.name: amps}
        state = initial_state(circuit, bindings).normalized()
        try:
            outcomes = run_circuit(circuit.replace(patterns=patterns, feed_forward=()), state)
        except ValueError as exc:  # an element wrote onto a target that is not empty
            assert "already carries photons" in str(exc) or "merge undefined" in str(exc)
            assume(False)
        assert abs(sum(outcome.probability for outcome in outcomes) - 1.0) < 1e-12

    @settings(deadline=None)
    @given(valid_circuits(), st.data())
    def test_input_equals_one_superpose_per_slot(self, circuit, data):
        """``initial_state`` replays one plan, yet gives the terms, in order,
        and the bits of one ``superpose_reference`` call per input, over
        zero amplitudes, products pruned partway through, tags and inputs
        sharing a mode, whose sums may cancel.  A warm call with other
        amplitudes makes no plan miss."""
        def amplitudes(slot):
            n = 4 if isinstance(slot, QuditSlot) else 2
            return tuple(data.draw(st.lists(SLOT_AMPLITUDES, min_size=n, max_size=n).filter(any)))

        tag = st.sampled_from(("", "A"))
        occupied = sorted(
            {m for i in circuit.inputs for m in ((i.mode1, i.mode2) if isinstance(i, QuditSlot) else (i.mode,))}
        )
        tags = data.draw(st.dictionaries(st.sampled_from(occupied), tag, max_size=2)) if occupied else {}
        for warm in (False, True):
            bindings = {i.name: amplitudes(i) for i in circuit.inputs if not isinstance(i, PhotonIn)}
            misses = circuits._input_plan.cache_info().misses, planned.cache_info().misses
            got = initial_state(circuit, bindings, tags=tags)
            assert bits(got) == bits(initial_state_reference(circuit, bindings, tags))
            if warm:
                assert (circuits._input_plan.cache_info().misses, planned.cache_info().misses) == misses

    def test_a_product_pruned_partway_is_built_on_what_is_left(self):
        """``a`` V with ``b`` H falls under ``PRUNE_TOL`` at the second slot;
        the third slot extends the three terms left, in the chain's order."""
        inputs = (QubitSlot("a", "psi"), QubitSlot("b", "phi"), QubitSlot("c", "chi"))
        circuit = Circuit(("a", "b", "c"), inputs, (), ())
        bindings = {"psi": (1, 1e-7), "phi": (1e-6, 1), "chi": (1, -1)}
        got = initial_state(circuit, bindings)
        assert bits(got) == bits(initial_state_reference(circuit, bindings, {}))
        assert len(got) == 6

    @settings(deadline=None)
    @given(valid_circuits(), st.data())
    def test_heralded_run_equals_the_projected_full_state(self, circuit, data):
        """``run_circuit`` builds only heralded terms, yet each outcome equals,
        bit for bit, the projection of ``apply_elements``'s full state."""
        amps = {QubitSlot: (0.6, 0.8j), QuditSlot: (0.5, 0.5j, -0.5, 0.5)}
        bindings = {i.name: amps[type(i)] for i in circuit.inputs if not isinstance(i, PhotonIn)}
        tag = st.sampled_from(("", "A"))
        occupied = sorted(
            {m for i in circuit.inputs for m in ((i.mode1, i.mode2) if isinstance(i, QuditSlot) else (i.mode,))}
        )
        # a tag on a mode no input occupies is refused
        tags = data.draw(st.dictionaries(st.sampled_from(occupied), tag, max_size=2)) if occupied else {}
        state = initial_state(circuit, bindings, tags=tags)
        for mode, rail_tag in data.draw(st.lists(st.tuples(st.sampled_from(circuit.modes), tag), max_size=2)):
            state = state.create(mode, "", rail_tag)  # a rail photon
        try:
            full = apply_elements(state, circuit.elements)
        except ValueError as exc:  # a structural check fires on both paths alike
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                run_circuit(circuit, state)
            return
        outcomes = run_circuit(circuit, state)
        assert len(outcomes) == len(circuit.patterns)
        for pattern, got in zip(circuit.patterns, outcomes):
            want = full.project(pattern)
            assert got.pattern == pattern and got.probability == want.probability
            assert list(got.state.items()) == list(want.state.items())

    @settings(deadline=None, max_examples=20)
    @given(valid_circuits().filter(lambda circuit: circuit.output))
    def test_corrected_equals_correcting_then_factoring(self, circuit):
        """A generated circuit's declared corrections and output give each
        branch the bits, or the refusal, of ``apply_elements`` on its state
        followed by the plain factoring loop."""
        try:
            outcomes = run_circuit(circuit, initial_state(circuit, bound(circuit)))
        except ValueError:  # an element wrote onto a target that is not empty
            assume(False)
        for got, tail in zip(outcomes, circuit.feed_forward):
            reference = lambda: factor_on_modes_reference(apply_elements(got.state, tail), circuit.output)
            assert outcome(corrected, got, circuit) == outcome(reference)

    @settings(deadline=None)
    @given(st.one_of(
        st.text(),
        st.lists(
            st.lists(
                st.sampled_from(DIRECTIVES + MODE_POOL + (
                    "H", "V", "any", "none", "t1+t2", "a+a", "+", "22.5", "-1e999", "nan", "#", "x",
                )),
                max_size=6,
            ).map(" ".join),
            max_size=8,
        ).map("\n".join),
    ))
    def test_random_text_raises_only_parse_errors(self, text):
        try:
            parse_circuit(text)
        except ParseError:
            pass


#: amplitudes bound to each kind of slot
SLOT_BINDINGS = {QubitSlot: (0.6, 0.8j), QuditSlot: (0.5, 0.5j, -0.5, 0.5)}
#: the names a renaming gives the modes of ``MODE_POOL``, which no other token uses
RENAMED_MODES = ("q", "r_2", "s'", "m0", "zz", "b1", "y_")


def bound(circuit):
    return {i.name: SLOT_BINDINGS[type(i)] for i in circuit.inputs if not isinstance(i, PhotonIn)}


def pattern_probabilities(circuit, state):
    """Each pattern's probability, or None when a structural check refuses the run."""
    try:
        return [outcome.probability for outcome in run_circuit(circuit, state)]
    except ValueError as exc:
        assert "already carries photons" in str(exc) or "merge undefined" in str(exc)
        return None


def assert_same_probabilities(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert len(got) == len(want) and all(abs(g - w) <= 1e-12 for g, w in zip(got, want))


#: the tags a renaming permutes
TAGS = ("A", "tag_2", "B")
#: an H photon tagged A and an untagged V photon meet on one mode, and a
#: Hadamard plate there parts them onto h and v only if they differ
HONG_OU_MANDEL = parse_circuit(
    "mode a\nmode b\nmode h\nmode v\nphoton a H A\nphoton b V\npbs a b a b\nhwp a 22.5\nunfold a h v\ndetect h any v any\n"
)


@st.composite
def tagged_circuits(draw):
    """A generated circuit and a tag, maybe none, for each mode a slot occupies."""
    circuit = draw(valid_circuits())
    slots = (i for i in circuit.inputs if not isinstance(i, PhotonIn))
    occupied = sorted({m for i in slots for m in ((i.mode1, i.mode2) if isinstance(i, QuditSlot) else (i.mode,))})
    return circuit, {m: draw(st.sampled_from(("", *TAGS))) for m in occupied}


class TestInvariance:
    """Every pattern's probability is a property of the physics, not of the
    input's global phase or of the names its modes and tags are given."""

    @settings(deadline=None, max_examples=20)
    @given(valid_circuits(), st.floats(-math.pi, math.pi))
    def test_a_global_phase_on_the_input(self, circuit, angle):
        state = initial_state(circuit, bound(circuit))
        phased = cmath.exp(1j * angle) * state
        assert_same_probabilities(pattern_probabilities(circuit, phased), pattern_probabilities(circuit, state))

    @settings(deadline=None, max_examples=20)
    @given(valid_circuits(), st.permutations(RENAMED_MODES))
    def test_renaming_every_mode_in_the_text(self, circuit, names):
        """Every mode token, ``+`` group members, ``then`` and ``output``
        lines included, renamed in the serialized text and parsed again."""
        names = dict(zip(MODE_POOL, names))
        rename = lambda word: "+".join(names.get(part, part) for part in word.split("+"))
        text = "\n".join(" ".join(map(rename, line.split())) for line in serialize_circuit(circuit).splitlines())
        renamed = parse_circuit(text)
        assert renamed.modes == tuple(names[m] for m in circuit.modes)
        assert renamed.output == tuple(names[m] for m in circuit.output)
        got = pattern_probabilities(renamed, initial_state(renamed, bound(renamed)))
        assert_same_probabilities(got, pattern_probabilities(circuit, initial_state(circuit, bound(circuit))))

    @settings(deadline=None, max_examples=20)
    @given(tagged_circuits(), st.permutations(TAGS))
    @example((HONG_OU_MANDEL, {}), ("tag_2", "A", "B"))
    def test_renaming_every_tag(self, drawn, names):
        """Photon tags and the tags given to slot modes, renamed one to one
        (the untagged photons stay untagged)."""
        (circuit, tags), names = drawn, dict(zip(TAGS, names), **{"": ""})
        inputs = tuple(i.replace(tag=names[i.tag]) if isinstance(i, PhotonIn) else i for i in circuit.inputs)
        renamed = circuit.replace(inputs=inputs)
        got = initial_state(renamed, bound(renamed), tags={m: names[t] for m, t in tags.items()})
        want = initial_state(circuit, bound(circuit), tags=tags)
        assert_same_probabilities(pattern_probabilities(renamed, got), pattern_probabilities(circuit, want))


# -- validation errors carry their own line and token --------------------------

PLAIN = "mode a\nmode b\nmode t\nphoton a H\n"

POSITIONED = {
    "undeclared element mode": (PLAIN + "pbs a b a x\nhwp a 1\n", 5, 11, "undeclared mode 'x'"),
    "undeclared photon mode": (PLAIN + "photon q V\nhwp a 1\n", 5, 8, "undeclared mode 'q'"),
    "undeclared qudit mode": (PLAIN + "qudit a  q s\nhwp a 1\n", 5, 10, "undeclared mode 'q'"),
    "undeclared detect mode": (PLAIN + "detect a H t+zz any\nhwp a 1\n", 5, 12, "undeclared mode 'zz'"),
    "reuse after unfold": (PLAIN + "unfold t a b\nhwp b 1\npbs a t a b\nhwp a 2\n", 7, 7,
                           "mode 't' reused after being unfolded away"),
    "duplicate mode": ("mode a\nmode b\n  mode   a\nphoton a H\n", 3, 10, "mode 'a' declared twice"),
    "duplicate slot name": (PLAIN + "qubit a q\nhwp a 1\nqubit b  q\n", 7, 10,
                            "slot 'q' declared twice"),
    "detect on a non-output": (PLAIN + "relabel a b\nhwp b 10\ndetect a any\nhwp b 20\nhwp b 30\n", 7, 8,
                               "detection references non-output mode 'a'"),
    "detect on an unfolded mode": (PLAIN + "unfold t a b\ndetect t any\nhwp a 1\n", 6, 8,
                                   "detection references non-output mode 't'"),
    "pbs with one input twice": (PLAIN + "pbs a a a b\n", 5, 7, "pbs names 'a' twice on one side"),
    "pbs with one output twice": (PLAIN + "hwp a 1\npbs a b t  t\n", 6, 12,
                                  "pbs names 't' twice on one side"),
    "NaN angle": (PLAIN + "hwp a nan\nhwp a 1\n", 5, 7, "angle must be finite, got nan"),
    "infinite angle": (PLAIN + "hwp  a -1e999\n", 5, 8, "angle must be finite, got -inf"),
    "mode repeated in a later group": (PLAIN + "detect a any a+b none\n", 5, 14,
                                       "mode 'a' constrained twice"),
    "mode repeated across groups": (PLAIN + "detect a+b any b+c none\n", 5, 16,
                                    "mode 'b' constrained twice"),
    "mode repeated within a group": (PLAIN + "detect a+a any\n", 5, 8, "mode 'a' constrained twice"),
    "empty group member": (PLAIN + "detect a H  + any\n", 5, 13, "empty mode name in group '+'"),
    "unknown requirement": (PLAIN + "detect a any b bogus\n", 5, 16,
                            "requirement must be H, V, any or none, got 'bogus'"),
    "bad polarization": (PLAIN + "photon b x\n", 5, 10, "polarization must be H or V, got 'x'"),
    "invalid mode name": ("mode a\nmode 1b\n", 2, 6, "invalid mode name '1b'"),
    "invalid slot name": (PLAIN + "hwp a 1\nqubit a p-q\n", 6, 9, "invalid slot name 'p-q'"),
}


def built(inputs=(PhotonIn("a", H),), modes=("a", "b"), pattern=None):
    """A circuit built in Python; ``pattern`` lists raw (modes, requirement) pairs."""
    if pattern is None:
        return Circuit(modes, inputs, (), ())
    pairs = tuple((frozenset(group), req) for group, req in pattern)
    return Circuit(modes, inputs, (), (DetectionPattern(pairs),))


#: circuits and patterns built in Python obey the rules that parsed ones do:
#: name -> (a build that breaks one, the error it raises, its message)
REFUSED = {
    "unknown polarization": (lambda: built((PhotonIn("a", "X"),)), CircuitError,
                             "polarization must be H or V, got 'X'"),
    "rail photon": (lambda: built((PhotonIn("a", ""),)), CircuitError, "polarization must be H or V, got ''"),
    "mode name with a space": (lambda: built(modes=("a", "a b")), CircuitError, "invalid mode name 'a b'"),
    "slot name with a space": (lambda: built((QubitSlot("a", "p q"),)), CircuitError, "invalid slot name 'p q'"),
    "tag with a space": (lambda: built((PhotonIn("a", H, "x y"),)), CircuitError, "tag must be one token"),
    "unknown requirement": (lambda: built(pattern=[(("a",), "bogus")]), PatternError,
                            "requirement must be H, V, any or none, got 'bogus'"),
    "empty pattern": (lambda: built(pattern=[]), PatternError, "needs a (group, requirement) pair"),
    "empty group": (lambda: built(pattern=[((), H)]), PatternError, "empty mode name in group ''"),
    "mode constrained twice": (lambda: built(pattern=[(("a",), H), (("a", "b"), V)]), PatternError,
                               "mode 'a' constrained twice"),
    "hwp at a string angle": (lambda: Circuit(("a",), (PhotonIn("a", H),), (Hwp("a", "45"),), ()),
                              CircuitError, "angle must be a real number, got '45'"),
    "corrections for no pattern": (lambda: Circuit(("a",), (), (), (), ((SigmaX("a"),),), ("a",)), CircuitError,
                                   "feed_forward needs one tuple per pattern"),
    "corrections without output": (lambda: built(pattern=[(("a",), H)]).replace(feed_forward=((SigmaX("a"),),)),
                                   CircuitError, "corrections need an 'output' directive"),
    "correction at a NaN angle": (lambda: Circuit(("a",), (), (), (DetectionPattern.of({"a": H}),),
                                                  ((Hwp("a", math.nan),),), ("a",)),
                                  CircuitError, "angle must be finite, got nan"),
}

PHOTON_A = PureState.vacuum().create("a", H)
MODEL = closed_form_matrix("ii", 0.5)


def observed(rows):
    return ProbabilityMatrix("ii", tuple(map(tuple, rows)), MODEL.row_labels, MODEL.col_labels)


#: values built by hand that each consumer used to take unchecked:
#: name -> (a use of one, the message the parser or ``ProbabilityMatrix`` gives for its rule)
HAND_BUILT = {
    "pattern with an unknown requirement": (
        lambda: PHOTON_A.project(DetectionPattern(((frozenset({"a"}), "bogus"),))),
        "requirement must be H, V, any or none, got 'bogus'"),
    "empty pattern": (lambda: PHOTON_A.project(DetectionPattern(())),
                      "a detection pattern needs a (group, requirement) pair"),
    "pbs naming one input twice": (lambda: apply_elements(PHOTON_A, (Pbs("a", "a", "c", "d"),)),
                                   "pbs names 'a' twice on one side"),
    "hwp at a NaN angle": (lambda: apply_elements(PHOTON_A, (Hwp("a", math.nan),)),
                           "angle must be finite, got nan"),
    "hwp at a string angle": (lambda: apply_elements(PHOTON_A, (Hwp("a", "45"),)),
                              "angle must be a real number, got '45'"),
    "matrix of NaNs": (lambda: similarity(observed([[math.nan] * 4] * 4), MODEL),
                       "observed matrix entries must be finite"),
    "matrix of one 1x2 row": (lambda: similarity(observed([[1.0, 2.0]]), MODEL),
                              "expected a 4x4 matrix, got rows of lengths [2]"),
}


class TestValidationPositions:
    @pytest.mark.parametrize("name", sorted(POSITIONED))
    def test_error_points_at_its_line_and_token(self, name):
        text, line, column, message = POSITIONED[name]
        with pytest.raises(ParseError) as excinfo:
            parse_circuit(text)
        err = excinfo.value
        assert (err.line, err.column, err.message) == (line, column, message)

    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_built_circuit_breaking_a_rule_is_refused(self, name):
        """Building it fails, so no run or ``initial_state`` can be given it."""
        build, error, message = REFUSED[name]
        with pytest.raises(error, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_value_breaking_a_rule_is_refused(self, name):
        use, message = HAND_BUILT[name]
        with pytest.raises(ValueError) as excinfo:
            use()
        assert str(excinfo.value) == message

    def test_pattern_order_is_canonical(self):
        written = DetectionPattern(((frozenset({"b"}), H), (frozenset({"a"}), V)))
        assert written == DetectionPattern.of({"a": V, "b": H})

    def test_mode_declared_after_its_first_use(self):
        circuit = parse_circuit("photon a H\nhwp a 45\nmode a\n")
        assert circuit.modes == ("a",) and circuit.elements == (Hwp("a", 45.0),)

    def test_input_after_an_unfold_of_its_mode(self):
        circuit = parse_circuit("mode t\nmode u\nmode v\nunfold t u v\nqubit t psi\n")
        assert circuit.inputs == (QubitSlot("t", "psi"),)

    def test_circuit_error_names_entry_and_mode(self):
        with pytest.raises(CircuitError, match="mode 'a' declared twice") as excinfo:
            Circuit(("a", "b", "a"), (), (), ())
        assert (excinfo.value.entry, excinfo.value.mode) == (("modes", 2), "a")

    def test_angles_serialize_exactly(self):
        circuit = parse_circuit("mode a\nhwp a 10.123456789\nhwp a 45\n")
        text = serialize_circuit(circuit)
        assert "hwp a 10.123456789\n" in text and "hwp a 45.0\n" in text
        assert parse_circuit(text) == circuit
