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
    detect <modespec> <H|V|any|none> ...

An input or element directive is its record (``photon``, ``qubit`` and
``qudit`` are ``PhotonIn``, ``QubitSlot`` and ``QuditSlot``; an element is
its class name in lower case) with the fields as arguments in order, a
defaulted last field being optional.  Fields parse by name, the angle
(``circuits.ANGLE``) being the one number, which the serializer writes back
with ``repr``.  A ``detect`` line is one detection pattern; a ``modespec`` is
a mode or a ``+``-joined group (``t1+t2``) constrained as a whole.  The
circuits shipped with the package live in ``SHIPPED``.

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
    # each section's (entry, source line), so validation errors get positions
    sections: dict[str, list] = {"modes": [], "inputs": [], "elements": [], "patterns": []}

    def arity(line: _Line, low: int, high: int) -> list[str]:
        words = line.words
        n = len(words) - 1
        if not low <= n <= high:
            count = f"{low}" if low == high else f"{low} or {high}"
            raise line.fail(
                f"{words[0]!r} takes {count} argument{'s' if high != 1 else ''}, got {n}",
                high if n > high else 0,
            )
        return words

    for number, raw in enumerate(text.splitlines(), start=1):
        line = _Line(number, raw)
        if not line.tokens:
            continue
        head = line.words[0].lower()

        if head == "mode":
            sections["modes"].append((arity(line, 1, 1)[1], line))

        elif head in _DIRECTIVES:
            cls = _DIRECTIVES[head]
            fields = cls.__match_args__
            words = arity(line, len(fields) - len(cls._defaults), len(fields))
            args: list = []
            for i, (word, name) in enumerate(zip(words[1:], fields), start=1):
                try:
                    args.append(float(word) if name == ANGLE else _pol(word) if name == "pol" else word)
                except ValueError:
                    raise line.fail(f"angle must be a number, got {word!r}", i) from None
            section = "elements" if cls in OpticalElement.__args__ else "inputs"
            sections[section].append((cls(*args), line))

        elif head == "detect":
            words = line.words
            if len(words) < 3 or len(words) % 2 == 0:
                raise line.fail("'detect' takes <modespec> <H|V|any|none> pairs")
            pairs = [(group.split("+"), _pol(req)) for group, req in zip(words[1::2], words[2::2])]
            try:
                pattern = DetectionPattern.of(pairs)
            except PatternError as exc:
                raise line.fail(str(exc), 1 + 2 * exc.pair + (exc.part == "requirement")) from None
            sections["patterns"].append((pattern, line))

        else:
            raise line.fail(f"unknown directive {line.words[0]!r}")

    try:
        return Circuit(
            **{section: tuple(entry for entry, _ in entries) for section, entries in sections.items()}
        )
    except CircuitError as exc:
        section, index = exc.entry
        entry, line = sections[section][index]
        words = line.words
        if exc.field:  # an input's or element's arguments follow its fields in order
            at = 1 + entry.__match_args__.index(exc.field)
        elif section == "patterns":  # a detect line names modes in its odd, `+`-joined tokens
            at = next(i for i in range(1, len(words), 2) if exc.mode in words[i].split("+"))
        else:
            at = words.index(exc.mode, 1)
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
    for pattern in circuit.patterns:
        pairs = (f"{'+'.join(sorted(group))} {req}" for group, req in pattern.requirements)
        lines.append(" ".join(["detect", *pairs]))
    return "\n".join(lines) + "\n"


def load_named_circuit(name: str) -> Circuit:
    """Parse one of the circuits shipped with the package (e.g. 'fusion')."""
    return parse_circuit((SHIPPED / f"{name}.lop").read_text(encoding="utf-8"))
