"""The value classes are records: each keeps what a frozen dataclass gave it.

Each record is compared with a frozen dataclass of the same name, fields and
values, built here: the same repr, equality within one class only, the hash
of its fields' tuple, refused assignment and deletion, and round trips
through pickle and copy.
"""

import copy
import dataclasses
import pickle

import pytest

from fockfuse import circuits, distinguishability, elements, rails, reports, states
from fockfuse.circuits import Circuit, CircuitError, PhotonIn, build_fusion_circuit
from fockfuse.distinguishability import BASES, ProbabilityMatrix, closed_form_matrix
from fockfuse.elements import Hwp, Merge, Pbs, Relabel, SigmaX, SignFlipV, Unfold, compile_elements
from fockfuse.reports import ExperimentReport, ReferenceConstants
from fockfuse.states import ConditionalOutcome, DetectionPattern, PureState, Record


def samples():
    """One record of each class, by class name."""
    pattern = DetectionPattern.of({"a": "H", ("t1", "t2"): "any"})
    return {
        "DetectionPattern": pattern,
        "ConditionalOutcome": ConditionalOutcome(0.25, PureState.vacuum().create("a", "H"), pattern),
        "Hwp": Hwp("a", 22.5),
        "Pbs": Pbs("a", "b", "c", "d"),
        "Unfold": Unfold("a", "b", "c"),
        "Merge": Merge("a", "b", "c"),
        "Relabel": Relabel("a", "b"),
        "SigmaX": SigmaX("a"),
        "SignFlipV": SignFlipV("a"),
        "PhotonIn": PhotonIn("a", "V", "x"),
        "QubitSlot": circuits.QubitSlot("a", "psi"),
        "QuditSlot": circuits.QuditSlot("a", "b", "q"),
        "Circuit": build_fusion_circuit(),
        "Basis": BASES["ii"],
        "ProbabilityMatrix": closed_form_matrix("ii", 0.5),
        "ReferenceConstants": ReferenceConstants(),
        "ExperimentReport": ExperimentReport("fuse", {"psi": [1.0, 0.0]}, {"t": {"p": 0.5}}),
        "FusionBranches": rails.fuse((1.0, 0.0), (0.6, 0.8)),
    }


SAMPLES = samples()
#: classes whose fields hold dicts, so that neither they nor a dataclass hash
UNHASHABLE = {"Basis", "ExperimentReport"}
#: a class with a field that compares by identity (a ``PureState``), so a copy is not equal
BY_IDENTITY = {"ConditionalOutcome"}


def fields(record):
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def as_dataclass(record):
    """A frozen dataclass of the record's class name and fields, holding its values."""
    names = type(record).__match_args__
    twin = dataclasses.make_dataclass(type(record).__name__, names, frozen=True)
    return twin(*fields(record))


def test_every_record_class_has_a_sample():
    modules = {m.__name__ for m in (states, elements, circuits, distinguishability, reports, rails)}
    found = {cls.__name__ for cls in Record.__subclasses__() if cls.__module__ in modules}
    assert found == set(SAMPLES) and len(found) == 18


@pytest.mark.parametrize("name", sorted(SAMPLES))
class TestParity:
    def test_repr_equality_and_hash(self, name):
        record = SAMPLES[name]
        twin = as_dataclass(record)
        assert repr(record) == repr(twin)
        assert record == type(record)(*fields(record)) and not record != type(record)(*fields(record))
        assert record != twin and record != fields(record)
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(fields(record)) == hash(twin)

    def test_assignment_and_deletion_raise(self, name):
        record = SAMPLES[name]
        first = type(record).__match_args__[0]
        if name == "ExperimentReport":  # a report may be changed after it is built
            report = copy.copy(record)
            report.name = "other"
            assert report.name == "other" and record.name == "fuse"
            return
        with pytest.raises(AttributeError, match=f"cannot assign to field '{first}'"):
            setattr(record, first, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{first}'"):
            delattr(record, first)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, first) is not None

    @pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
    def test_round_trips(self, name, how):
        record = SAMPLES[name]
        twin = {
            "pickle": lambda r: pickle.loads(pickle.dumps(r)),
            "copy": copy.copy,
            "deepcopy": copy.deepcopy,
        }[how](record)
        assert type(twin) is type(record)
        if name in BY_IDENTITY:  # equal once the state, equal term by term, is the same object
            assert dict(twin.state.items()) == dict(record.state.items())
            twin = twin.replace(state=record.state)
        assert twin == record  # not repr: a copied frozenset may print in another order
        if name not in UNHASHABLE:
            assert hash(twin) == hash(record)

    def test_positional_patterns_bind_the_fields(self, name):
        record = SAMPLES[name]
        captures = ", ".join(f"v{i}" for i in range(len(type(record).__match_args__)))
        namespace = {"record": record, "cls": type(record)}
        exec(f"match record:\n case cls({captures}):\n  got = ({captures},)\n case _:\n  got = None", namespace)
        assert namespace["got"] == fields(record)

    def test_replace_keeps_the_other_fields(self, name):
        record = SAMPLES[name]
        assert record.replace() == record and record.replace() is not record
        last = type(record).__match_args__[-1]
        assert fields(record.replace(**{last: getattr(record, last)})) == fields(record)


def test_equal_fields_in_other_classes_differ():
    """Equality holds within one class, so element sequences that differ only
    in an element's class compile to different maps."""
    assert SigmaX("a") != SignFlipV("a") and hash(SigmaX("a")) == hash(SignFlipV("a"))
    assert Unfold("a", "b", "c") != Merge("a", "b", "c")
    assert compile_elements((SigmaX("a"),)) is not compile_elements((SignFlipV("a"),))
    assert dict(compile_elements((SigmaX("a"),))) != dict(compile_elements((SignFlipV("a"),)))


def test_defaults_and_keywords():
    assert PhotonIn("a", "H") == PhotonIn(mode="a", pol="H") == PhotonIn("a", pol="H", tag="")
    assert repr(PhotonIn("a", "H")) == "PhotonIn(mode='a', pol='H', tag='')"
    matrix = ProbabilityMatrix("ii", closed_form_matrix("ii", 0.5).entries)
    assert matrix.row_labels == BASES["ii"].input_labels
    for bad in ((), ("a", "H", "", "extra")):
        with pytest.raises(TypeError, match="PhotonIn"):
            PhotonIn(*bad)
    with pytest.raises(TypeError, match="PhotonIn"):
        PhotonIn("a", "H", mode="b")
    with pytest.raises(TypeError, match="PhotonIn"):
        PhotonIn("a", "H", colour="red")
    with pytest.raises(TypeError, match="PhotonIn"):
        PhotonIn("a", "H").replace(colour="red")


def test_a_report_owns_its_default_tables():
    one, two = ExperimentReport("a", {}), ExperimentReport("b", {})
    one.tables["t"] = {"x": 1.0}
    assert two.tables == {} and two.references == {} and one.references is not two.references
    assert ExperimentReport.__hash__ is None


def test_a_report_renders_rows_and_scalars():
    """A table that is a list of rows prints one line per row, its values
    space-separated to 6 decimals; a scalar table prints one line."""
    report = ExperimentReport("r", {}, {"rows": [[0.5, 0.25j], (1.0, -2.0)], "scalar": 0.125})
    assert report.to_text().splitlines()[1:] == [
        "", "== rows ==", "  0.500000 0.000000+0.250000j", "  1.000000 -2.000000", "", "== scalar ==", "  0.125000",
    ]


def test_replace_checks_the_new_record():
    circuit = build_fusion_circuit()
    fewer = circuit.replace(patterns=circuit.patterns[:2], feed_forward=circuit.feed_forward[:2])
    assert fewer.patterns == circuit.patterns[:2] and fewer.elements is circuit.elements
    with pytest.raises(CircuitError, match="undeclared mode 'zz'"):
        circuit.replace(patterns=(DetectionPattern.of({"zz": "H"}),))
    with pytest.raises(ValueError, match="4x4"):
        closed_form_matrix("i", 0.5).replace(entries=((1.0,),))
    pattern = DetectionPattern.of({"b": "V", "a": "H"})
    assert pattern.replace() == DetectionPattern.of({"a": "H", "b": "V"})


def test_circuit_hash_is_kept_out_of_its_fields():
    circuit = Circuit(("a",), (PhotonIn("a", "H"),), (), ())
    hash(circuit)
    assert "_hash" in vars(circuit) and "_hash" not in repr(circuit)
    assert fields(circuit) == (("a",), (PhotonIn("a", "H"),), (), (), (), ())

