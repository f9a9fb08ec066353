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

An element directive is its class name in lower case, and its arguments
follow the element dataclass's fields in order (``elements.Hwp`` is
``hwp <mode> <theta>``); the serializer writes the same fields, floats with
``repr``.  A ``detect`` line is one detection pattern; a ``modespec`` is a
mode name or a ``+``-joined group (e.g. ``t1+t2``) constrained as a whole,
which expresses the one-photon-across-both-target-outputs coincidence.

Declarations may come in any order: the parser checks syntax only, and
``Circuit.validate`` checks the modes and that angles are finite.  Every
error, its own or a validation error, carries the 1-based line and column
of the offending token.
"""

from __future__ import annotations

import re
from dataclasses import astuple, fields
from importlib import resources
from typing import get_args, get_type_hints

from .circuits import Circuit, CircuitError, PhotonIn, QubitSlot, QuditSlot
from .elements import OpticalElement
from .states import ADMITS, H, V, DetectionPattern

_TOKEN = re.compile(r"\S+")
_MODE_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_']*$")

#: element directive -> (element class, the types of its fields in order)
_ELEMENTS = {
    cls.__name__.lower(): (cls, tuple(get_type_hints(cls)[f.name] for f in fields(cls)))
    for cls in get_args(OpticalElement)
}


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

    def fail(self, message: str, index: int = 0) -> ParseError:
        column = self.tokens[index][0] if index < len(self.tokens) else (
            self.tokens[-1][0] if self.tokens else 1
        )
        return ParseError(self.number, column, message)

    def words(self) -> list[str]:
        return [w for _, w in self.tokens]


def parse_circuit(text: str) -> Circuit:
    # each section's (entry, source line), so validation errors get positions
    sections: dict[str, list] = {"modes": [], "inputs": [], "elements": [], "patterns": []}

    def arity(line: _Line, n: int) -> list[str]:
        words = line.words()
        if len(words) - 1 != n:
            raise line.fail(
                f"{words[0]!r} takes {n} argument{'s' if n != 1 else ''}, "
                f"got {len(words) - 1}",
                min(len(words) - 1, n) if len(words) - 1 > n else 0,
            )
        return words

    for number, raw in enumerate(text.splitlines(), start=1):
        line = _Line(number, raw)
        if not line.tokens:
            continue
        head = line.words()[0].lower()

        if head == "mode":
            name = arity(line, 1)[1]
            if not _MODE_NAME.match(name):
                raise line.fail(f"invalid mode name {name!r}", 1)
            sections["modes"].append((name, line))

        elif head == "photon":
            words = line.words()
            if len(words) not in (3, 4):
                raise line.fail("'photon' takes <mode> <H|V> [tag]")
            pol = words[2].upper()
            if pol not in (H, V):
                raise line.fail(f"polarization must be H or V, got {words[2]!r}", 2)
            tag = words[3] if len(words) == 4 else ""
            sections["inputs"].append((PhotonIn(words[1], pol, tag), line))

        elif head == "qubit":
            words = arity(line, 2)
            sections["inputs"].append((QubitSlot(*words[1:]), line))

        elif head == "qudit":
            words = arity(line, 3)
            sections["inputs"].append((QuditSlot(*words[1:]), line))

        elif head in _ELEMENTS:
            cls, kinds = _ELEMENTS[head]
            words = arity(line, len(kinds))
            args: list = []
            for i, (word, kind) in enumerate(zip(words[1:], kinds), start=1):
                try:
                    args.append(kind(word))
                except ValueError:
                    raise line.fail(f"angle must be a number, got {word!r}", i) from None
            sections["elements"].append((cls(*args), line))

        elif head == "detect":
            words = line.words()
            if len(words) < 3 or len(words) % 2 == 0:
                raise line.fail("'detect' takes <modespec> <H|V|any|none> pairs")
            spec: dict = {}
            seen: set[str] = set()
            for i in range(1, len(words), 2):
                group = tuple(words[i].split("+"))
                req = words[i + 1]
                req = req.upper() if req.upper() in (H, V) else req.lower()
                if req not in ADMITS:
                    raise line.fail(
                        f"requirement must be H, V, any or none, got {words[i + 1]!r}",
                        i + 1,
                    )
                for mode in group:
                    if not mode:
                        raise line.fail(f"empty mode name in group {words[i]!r}", i)
                    if mode in seen:
                        raise line.fail(f"mode {mode!r} constrained twice", i)
                    seen.add(mode)
                spec[group[0] if len(group) == 1 else group] = req
            sections["patterns"].append((DetectionPattern.of(spec), line))

        else:
            raise line.fail(f"unknown directive {line.words()[0]!r}")

    circuit = Circuit(
        **{section: tuple(entry for entry, _ in entries) for section, entries in sections.items()}
    )
    try:
        circuit.validate()
    except CircuitError as exc:
        section, index = exc.entry
        entry, line = sections[section][index]
        words = line.words()
        if exc.field:  # an element's or slot's arguments follow its fields in order
            at = 1 + [f.name for f in fields(entry)].index(exc.field)
        elif section == "patterns":  # a detect line names modes in its odd, `+`-joined tokens
            at = next(i for i in range(1, len(words), 2) if exc.mode in words[i].split("+"))
        else:
            at = words.index(exc.mode, 1)
        raise line.fail(str(exc), at) from None
    return circuit


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit back into DSL text (parse round trips exactly)."""
    lines = [f"mode {m}" for m in circuit.modes]
    lines.append("")
    for inp in circuit.inputs:
        if isinstance(inp, PhotonIn):
            tag = f" {inp.tag}" if inp.tag else ""
            lines.append(f"photon {inp.mode} {inp.pol}{tag}")
        elif isinstance(inp, QubitSlot):
            lines.append(f"qubit {inp.mode} {inp.name}")
        else:
            lines.append(f"qudit {inp.mode1} {inp.mode2} {inp.name}")
    lines.append("")
    for el in circuit.elements:
        head = type(el).__name__.lower()
        kinds = _ELEMENTS[head][1]
        # str() of a float is its repr, which parses back to the same float
        lines.append(" ".join([head, *(str(kind(v)) for v, kind in zip(astuple(el), kinds))]))
    lines.append("")
    for pattern in circuit.patterns:
        parts = ["detect"]
        for group, req in pattern.requirements:
            parts.append("+".join(sorted(group)))
            parts.append(req)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def load_named_circuit(name: str) -> Circuit:
    """Parse one of the circuits shipped with the package (e.g. 'fusion')."""
    text = resources.files("fockfuse.data").joinpath(f"{name}.lop").read_text()
    return parse_circuit(text)
