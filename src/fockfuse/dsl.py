"""Parser and serializer for the circuit description language.

One directive per line, ``#`` starts a comment.  Directives:

    mode <name>
    photon <mode> <H|V> [tag]
    qubit <mode> <slotname>
    qudit <mode1> <mode2> <slotname>
    hwp <mode> <degrees>
    pbs <in1> <in2> <out1> <out2>
    unfold <src> <outH> <outV>
    merge <inH> <inV> <out>
    sigmax <mode>
    signflipv <mode>
    relabel <from> <to>
    detect <modespec> <H|V|any|none> ... [then <element directive> ...]
    output <mode> ...

An input or element directive is its record (``photon``, ``qubit`` and
``qudit`` are ``PhotonIn``, ``QubitSlot`` and ``QuditSlot``; an element is
its class name in lower case) with the fields as arguments in order, a
defaulted last field being optional.  Fields parse by name, the angle
(``circuits.ANGLE``) being the one number, which the serializer writes back
with ``repr``.  A ``detect`` line is one detection pattern; a ``modespec`` is
a mode or a ``+``-joined group (``t1+t2``) constrained as a whole.  After
``then`` come its branch's corrections (feed-forward): element directives,
in order, each taking as many words as its fields.  The one ``output`` line,
which corrections need, names the modes a corrected branch is factored onto;
``then`` names no mode.  The shipped circuits, corrections included, live in
``SHIPPED``.

The parser checks syntax only; each ``DetectionPattern`` and the ``Circuit``
judge their own content when they are built, as in Python.
Declarations may come in any order, and every error carries the 1-based
line and column of the offending token.
"""

from __future__ import annotations

import re
from pathlib import Path

from .circuits import ANGLE, Circuit, CircuitError, PhotonIn, QubitSlot, QuditSlot
from .elements import OpticalElement
from .states import H, V, DetectionPattern, PatternError

_TOKEN = re.compile(r"\S+")

#: the directory of the circuits shipped with the package, one ``<name>.lop`` each
SHIPPED = Path(__file__).with_name("data")
#: input and element directive -> its record
_DIRECTIVES = {"photon": PhotonIn, "qubit": QubitSlot, "qudit": QuditSlot,
               **{cls.__name__.lower(): cls for cls in OpticalElement.__args__}}
#: record -> its directive
_HEADS = {cls: head for head, cls in _DIRECTIVES.items()}


class ParseError(ValueError):
    """Syntax or structure error with a source position."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


class _Line:
    def __init__(self, number: int, text: str):
        self.number = number
        code = text.split("#", 1)[0]
        self.tokens = [(m.start() + 1, m.group()) for m in _TOKEN.finditer(code)]
        self.words = [w for _, w in self.tokens]

    def fail(self, message: str, index: int = 0) -> ParseError:
        return ParseError(self.number, self.tokens[index][0], message)


def _pol(word: str) -> str:
    """``h`` and ``v`` in upper case, as the circuit spells them; other words unchanged."""
    return word.upper() if word.upper() in (H, V) else word


def parse_circuit(text: str) -> Circuit:
    # each section's (entry, line, index of the token before its fields), for error positions
    sections: dict[str, list] = {key: [] for key in "modes inputs elements patterns output feed_forward".split()}
    tails: list[tuple] = []  # each pattern's corrections

    def arity(line: _Line, low: int, high: int, at: int = 0, stop: int | None = None) -> list[str]:
        words = line.words[at + 1:stop]
        n = len(words)
        if not low <= n <= high:
            count = f"{low}" if low == high else f"{low} or {high}"
            raise line.fail(
                f"{line.words[at]!r} takes {count} argument{'s' if high != 1 else ''}, got {n}",
                at + high if n > high else at,
            )
        return words

    def record(line: _Line, at: int = 0, stop: int | None = None):
        """The input or element whose directive is token ``at``, its fields the words after it."""
        cls = _DIRECTIVES[line.words[at].lower()]
        fields = cls.__match_args__
        args: list = []
        words = arity(line, len(fields) - len(cls._defaults), len(fields), at, stop)
        for i, (word, name) in enumerate(zip(words, fields), start=at + 1):
            try:
                args.append(float(word) if name == ANGLE else _pol(word) if name == "pol" else word)
            except ValueError:
                raise line.fail(f"angle must be a number, got {word!r}", i) from None
        return cls(*args)

    for number, raw in enumerate(text.splitlines(), start=1):
        line = _Line(number, raw)
        if not line.tokens:
            continue
        head = line.words[0].lower()

        if head == "mode":
            sections["modes"].append((arity(line, 1, 1)[0], line, 0))

        elif head in _DIRECTIVES:
            section = "elements" if _DIRECTIVES[head] in OpticalElement.__args__ else "inputs"
            sections[section].append((record(line), line, 0))

        elif head == "detect":
            words = line.words
            cut = words.index("then") if "then" in words else len(words)
            if cut < 3 or cut % 2 == 0:
                raise line.fail("'detect' takes <modespec> <H|V|any|none> pairs")
            pairs = [(group.split("+"), _pol(req)) for group, req in zip(words[1:cut:2], words[2:cut:2])]
            try:
                pattern = DetectionPattern.of(pairs)
            except PatternError as exc:
                raise line.fail(str(exc), 1 + 2 * exc.pair + (exc.part == "requirement")) from None
            sections["patterns"].append((pattern, line, 0))
            at, tail = cut + 1, []
            while at < len(words):  # each correction reads as many words as its fields
                cls = _DIRECTIVES.get(words[at].lower())
                if cls not in OpticalElement.__args__:
                    raise line.fail(f"unknown element {words[at]!r} after 'then'", at)
                tail.append(record(line, at, at + 1 + len(cls.__match_args__)))
                sections["feed_forward"].append((tail[-1], line, at))
                at += 1 + len(cls.__match_args__)
            tails.append(tuple(tail))

        elif head == "output":
            if sections["output"] or len(line.words) < 2:
                raise line.fail("'output' takes one or more modes, on one line")
            sections["output"] += [(mode, line, i) for i, mode in enumerate(line.words[1:])]

        else:
            raise line.fail(f"unknown directive {line.words[0]!r}")

    try:
        entries = {section: tuple(entry for entry, _, _ in listed) for section, listed in sections.items()}
        return Circuit(**entries | {"feed_forward": tuple(tails)})  # corrections by pattern, not listed flat
    except CircuitError as exc:
        section, index = exc.entry
        entry, line, at = sections[section][index]
        words = line.words
        if exc.field:  # an input's or element's arguments follow its fields in order
            at += 1 + entry.__match_args__.index(exc.field)
        elif section == "patterns":  # a detect line names modes in its odd, `+`-joined tokens
            at = next((i for i in range(1, len(words), 2) if exc.mode in words[i].split("+")), 0)
        elif exc.mode:
            at = words.index(exc.mode, at + 1)
        else:  # corrections without an output: at their `then`
            at -= 1
        raise line.fail(str(exc), at) from None


def _directive(entry) -> str:
    """An input's or element's line: its directive, then its fields, less a
    last one equal to its default (str() of the float angle is its repr)."""
    fields = entry.__match_args__
    values = list(entry._values(entry))
    if fields[-1] in entry._defaults and entry._defaults[fields[-1]] == values[-1]:
        values.pop()
    words = (str(float(v) if name == ANGLE else v) for name, v in zip(fields, values))
    return " ".join([_HEADS[type(entry)], *words])


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit back into DSL text (parse round trips exactly)."""
    lines = [f"mode {m}" for m in circuit.modes]
    lines += ["", *map(_directive, circuit.inputs), "", *map(_directive, circuit.elements), ""]
    for pattern, tail in zip(circuit.patterns, circuit.feed_forward):
        pairs = (f"{'+'.join(sorted(group))} {req}" for group, req in pattern.requirements)
        lines.append(" ".join(["detect", *pairs, *(["then", *map(_directive, tail)] if tail else [])]))
    if circuit.output:
        lines.append(" ".join(["output", *circuit.output]))
    return "\n".join(lines) + "\n"


def load_named_circuit(name: str) -> Circuit:
    """Parse one of the circuits shipped with the package (e.g. 'fusion')."""
    return parse_circuit((SHIPPED / f"{name}.lop").read_text(encoding="utf-8"))
