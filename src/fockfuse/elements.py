"""Linear optical elements, compiled into one creation-operator substitution.

Conventions: a half-wave plate at angle theta (degrees from the H axis)
applies the Jones matrix [[cos 2t, sin 2t], [sin 2t, -cos 2t]]; polarizing
beam splitters transmit H and reflect V without adding a phase.  Every
element preserves total photon number, and all act identically on each
distinguishability tag sector.

Each element is a small substitution block on the ``(mode, channel)``
creation operators it touches.  ``compile_elements`` composes a sequence's
blocks into one sparse linear map, a ``MemoRules`` that also carries the
sequence's checks, so a circuit compiles once and is applied in a single
``PureState.substituted`` call.  Unfold, Merge, Relabel and a PBS need each
target that is not also a source empty, and a mode an element empties must
hold no rail photon unless the element moves it (only Relabel does).  Each
such check becomes structural: the set of input operators reaching the
forbidden operator at that step with a coefficient above ``PRUNE_TOL``.  A
state fails when one of its terms holds an operator of that set, so the
check also fires when interference leaves the target exactly empty.  The
map decides each input occupation's verdict once, with its image.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable

from .states import H, PLAN_LIMIT, PRUNE_TOL, V, MemoRules, PureState, Record


class Hwp(Record):
    """Half-wave plate on one mode; ``theta`` in degrees."""

    mode: str
    theta: float


class Pbs(Record):
    """Polarizing beam splitter between two spatial modes."""

    in1: str
    in2: str
    out1: str
    out2: str


class Unfold(Record):
    """Split a mode by polarization: H goes to ``out_h``, V to ``out_v``."""

    src: str
    out_h: str
    out_v: str


class Merge(Record):
    """Inverse of Unfold: recombine an H-only and a V-only mode."""

    in_h: str
    in_v: str
    out: str


class Relabel(Record):
    src: str
    dst: str


class SigmaX(Record):
    """Swap H and V on one mode (a NOT in the polarization basis)."""

    mode: str


class SignFlipV(Record):
    """Negate the V amplitude on one mode."""

    mode: str


OpticalElement = Hwp | Pbs | Unfold | Merge | Relabel | SigmaX | SignFlipV

#: (mode, channel) -> image as (((mode, channel), coefficient), ...)
Rules = dict[tuple[str, str], tuple[tuple[tuple[str, str], complex], ...]]


def _moves(*routes: tuple[str, str, str]) -> Rules:
    """Unit-coefficient block moving ``(src, channel)`` onto ``(dst, channel)``."""
    return {(src, ch): (((dst, ch), 1.0),) for src, ch, dst in routes}


def _empty(kind: str, *modes: str) -> tuple:
    """Checks that each target mode is empty, in the optical and rail channels."""
    message = "{} target {!r} already carries photons"
    return tuple(((m, ch), message.format(kind, m)) for m in modes for ch in (H, V, ""))


class ElementError(ValueError):
    """An element with a value no element of its kind may hold in ``field``."""

    def __init__(self, message: str, field: str):
        super().__init__(message)
        self.field = field


def block(element: OpticalElement) -> tuple[Rules, tuple]:
    """An element's substitution block and the ``(operator, error)`` checks
    that the operator is empty before it.

    The block's keys are the operators the element empties and its images
    the operators it fills.  Raises ``ElementError`` for an HWP whose angle
    is not a finite real number or a PBS that names one port twice on one
    side.
    """
    match element:
        case Hwp(mode, theta):
            try:
                finite = math.isfinite(theta)
            except TypeError:
                raise ElementError(f"angle must be a real number, got {theta!r}", "theta") from None
            if not finite:
                raise ElementError(f"angle must be finite, got {theta!r}", "theta")
            # a half-wave plate repeats every 180 degrees; fmod keeps |theta| < 180 exact
            two_theta = math.radians(2.0 * math.fmod(theta, 180.0))
            c, s = math.cos(two_theta), math.sin(two_theta)
            return {
                (mode, H): (((mode, H), c), ((mode, V), s)),
                (mode, V): (((mode, H), s), ((mode, V), -c)),
            }, ()
        case Pbs(in1, in2, out1, out2):
            if in1 == in2 or out1 == out2:
                field = "in2" if in1 == in2 else "out2"
                raise ElementError(f"pbs names {getattr(element, field)!r} twice on one side", field)
            moves = _moves((in1, H, out1), (in1, V, out2), (in2, H, out2), (in2, V, out1))
            return moves, _empty("pbs", *(m for m in (out1, out2) if m not in (in1, in2)))
        case Unfold(src, out_h, out_v):
            return _moves((src, H, out_h), (src, V, out_v)), _empty("unfold", out_h, out_v)
        case Merge(in_h, in_v, out):
            message = "merge undefined: {!r} carries the reflected polarization"
            checks = (((in_h, V), message.format(in_h)), ((in_v, H), message.format(in_v)))
            checks += _empty("merge", out) if out not in (in_h, in_v) else ()
            return _moves((in_h, H, out), (in_v, V, out)), checks
        case Relabel(src, dst):
            if src == dst:
                return {}, ()
            return _moves(*((src, ch, dst) for ch in (H, V, ""))), _empty("relabel", dst)
        case SigmaX(mode):
            return {(mode, H): (((mode, V), 1.0),), (mode, V): (((mode, H), 1.0),)}, ()
        case SignFlipV(mode):
            return {(mode, V): (((mode, V), -1.0),)}, ()
    raise TypeError(f"unknown optical element {element!r}")


@lru_cache(maxsize=PLAN_LIMIT)
def compile_elements(elements: tuple[OpticalElement, ...]) -> MemoRules:
    """Compose the elements' blocks, in order, into one sparse linear map.

    Returns a ``MemoRules`` whose rules leave out the operators no element
    touches and whose checks are, in step order, (frozenset of input
    operators that reach a forbidden operator, the error that step raises).
    """
    images: dict[tuple[str, str], dict[tuple[str, str], complex]] = {}
    checks = []
    for element in elements:
        rules, forbidden = block(element)
        # a mode the element empties would keep a rail photon that its block does not move
        filled = {m for image in rules.values() for (m, _ch), _u in image}
        stranded = sorted({m for m, _ch in rules if (m, "") not in rules} - filled)
        error = f"{type(element).__name__.lower()} cannot move the rail photon on {{!r}}"
        forbidden += tuple(((m, ""), error.format(m)) for m in stranded)
        for op, message in forbidden:
            reach = {src for src, image in images.items() if abs(image.get(op, 0.0)) > PRUNE_TOL}
            checks.append((frozenset(reach if op in images else reach | {op}), message))
        for op in rules:
            images.setdefault(op, {op: 1.0})
        for src, image in images.items():
            out: dict[tuple[str, str], complex] = {}
            for mid, coeff in image.items():
                for dst, u in rules.get(mid, ((mid, 1.0),)):
                    out[dst] = out.get(dst, 0.0) + coeff * u
            images[src] = {dst: u for dst, u in out.items() if abs(u) > PRUNE_TOL}
    return MemoRules({src: tuple(image.items()) for src, image in images.items()}, tuple(checks))


def apply_elements(state: PureState, elements: Iterable[OpticalElement]) -> PureState:
    """Apply an element sequence, in order, in one substitution; raises
    ``ValueError`` when a term reaches an operator that an element requires
    to be empty."""
    return state.substituted(compile_elements(tuple(elements)))


def apply_element(state: PureState, element: OpticalElement) -> PureState:
    return apply_elements(state, (element,))


def apply_relabel(state: PureState, src: str, dst: str) -> PureState:
    return apply_element(state, Relabel(src, dst))


def apply_sigma_x(state: PureState, mode: str) -> PureState:
    return apply_element(state, SigmaX(mode))


def apply_sign_flip_v(state: PureState, mode: str) -> PureState:
    return apply_element(state, SignFlipV(mode))
