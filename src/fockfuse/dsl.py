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

A ``detect`` line is one detection pattern; a ``modespec`` is a mode name or
a ``+``-joined group (e.g. ``t1+t2``) constrained as a whole, which
expresses the one-photon-across-both-target-outputs coincidence.  Parse
errors carry 1-based line and column positions.
"""

from __future__ import annotations

import re
from importlib import resources

from .circuits import Circuit, CircuitError, PhotonIn, QubitSlot, QuditSlot
from .elements import Hwp, Merge, Pbs, Relabel, SigmaX, SignFlipV, Unfold
from .states import H, V, DetectionPattern

_TOKEN = re.compile(r"\S+")
_MODE_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_']*$")


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
    modes: list[str] = []
    inputs: list = []
    elements: list = []
    patterns: list[DetectionPattern] = []
    declared: set[str] = set()
    retired: set[str] = set()

    def known_mode(line: _Line, idx: int) -> str:
        name = line.words()[idx]
        if name not in declared:
            raise line.fail(f"undeclared mode {name!r}", idx)
        if name in retired:
            raise line.fail(f"mode {name!r} reused after being unfolded away", idx)
        return name

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
            words = arity(line, 1)
            name = words[1]
            if not _MODE_NAME.match(name):
                raise line.fail(f"invalid mode name {name!r}", 1)
            if name in declared:
                raise line.fail(f"mode {name!r} declared twice", 1)
            declared.add(name)
            modes.append(name)

        elif head == "photon":
            words = line.words()
            if len(words) not in (3, 4):
                raise line.fail("'photon' takes <mode> <H|V> [tag]")
            mode = known_mode(line, 1)
            pol = words[2].upper()
            if pol not in (H, V):
                raise line.fail(f"polarization must be H or V, got {words[2]!r}", 2)
            tag = words[3] if len(words) == 4 else ""
            inputs.append(PhotonIn(mode, pol, tag))

        elif head == "qubit":
            words = arity(line, 2)
            inputs.append(QubitSlot(known_mode(line, 1), words[2]))

        elif head == "qudit":
            words = arity(line, 3)
            inputs.append(QuditSlot(known_mode(line, 1), known_mode(line, 2), words[3]))

        elif head == "hwp":
            words = arity(line, 2)
            mode = known_mode(line, 1)
            try:
                theta = float(words[2])
            except ValueError:
                raise line.fail(f"angle must be a number, got {words[2]!r}", 2) from None
            elements.append(Hwp(mode, theta))

        elif head == "pbs":
            arity(line, 4)
            elements.append(
                Pbs(*(known_mode(line, i) for i in (1, 2, 3, 4)))
            )

        elif head == "unfold":
            arity(line, 3)
            src = known_mode(line, 1)
            out_h = known_mode(line, 2)
            out_v = known_mode(line, 3)
            elements.append(Unfold(src, out_h, out_v))
            retired.add(src)

        elif head == "merge":
            arity(line, 3)
            elements.append(Merge(*(known_mode(line, i) for i in (1, 2, 3))))

        elif head == "sigmax":
            arity(line, 1)
            elements.append(SigmaX(known_mode(line, 1)))

        elif head == "signflipv":
            arity(line, 1)
            elements.append(SignFlipV(known_mode(line, 1)))

        elif head == "relabel":
            arity(line, 2)
            elements.append(Relabel(known_mode(line, 1), known_mode(line, 2)))

        elif head == "detect":
            words = line.words()
            if len(words) < 3 or len(words) % 2 == 0:
                raise line.fail("'detect' takes <modespec> <H|V|any|none> pairs")
            spec: dict = {}
            for i in range(1, len(words), 2):
                group = tuple(words[i].split("+"))
                for g in group:
                    if g not in declared:
                        raise line.fail(f"undeclared mode {g!r}", i)
                    if g in retired:
                        raise line.fail(
                            f"mode {g!r} reused after being unfolded away", i
                        )
                req = words[i + 1]
                req = req.upper() if req.upper() in (H, V) else req.lower()
                if req not in (H, V, "any", "none"):
                    raise line.fail(
                        f"requirement must be H, V, any or none, got {words[i + 1]!r}",
                        i + 1,
                    )
                key = group[0] if len(group) == 1 else group
                if key in spec or (isinstance(key, str) and any(
                    key in (k if isinstance(k, tuple) else (k,)) for k in spec
                )):
                    raise line.fail(f"mode {words[i]!r} constrained twice", i)
                spec[key] = req
            try:
                patterns.append(DetectionPattern.of(spec))
            except ValueError as exc:
                raise line.fail(str(exc)) from None

        else:
            raise line.fail(f"unknown directive {line.words()[0]!r}")

    circuit = Circuit(
        modes=tuple(modes),
        inputs=tuple(inputs),
        elements=tuple(elements),
        patterns=tuple(patterns),
    )
    try:
        circuit.validate()
    except CircuitError as exc:
        raise ParseError(len(text.splitlines()) or 1, 1, str(exc)) from None
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
        if isinstance(el, Hwp):
            lines.append(f"hwp {el.mode} {el.theta:g}")
        elif isinstance(el, Pbs):
            lines.append(f"pbs {el.in1} {el.in2} {el.out1} {el.out2}")
        elif isinstance(el, Unfold):
            lines.append(f"unfold {el.src} {el.out_h} {el.out_v}")
        elif isinstance(el, Merge):
            lines.append(f"merge {el.in_h} {el.in_v} {el.out}")
        elif isinstance(el, Relabel):
            lines.append(f"relabel {el.src} {el.dst}")
        elif isinstance(el, SigmaX):
            lines.append(f"sigmax {el.mode}")
        elif isinstance(el, SignFlipV):
            lines.append(f"signflipv {el.mode}")
        else:
            raise TypeError(f"unknown element {el!r}")
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
