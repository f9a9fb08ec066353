"""Linear optical elements, compiled into one creation-operator substitution.

Conventions: a half-wave plate at angle theta (degrees from the H axis)
applies the Jones matrix [[cos 2t, sin 2t], [sin 2t, -cos 2t]]; polarizing
beam splitters transmit H and reflect V without adding a phase.  Every
element preserves total photon number, and all act identically on each
distinguishability tag sector.

Each element is a small substitution block on the ``(mode, channel)``
creation operators it touches.  ``compile_elements`` composes a sequence's
blocks into one sparse linear map, so a circuit compiles once and is applied
in a single ``PureState.substituted`` call.  Unfold, Merge and Relabel need
their targets empty; each such check becomes structural: the set of input
operators reaching the forbidden operator at that step with a coefficient
above ``PRUNE_TOL``.  A state fails when its support meets that set, so the
check also fires when interference leaves the target exactly empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .states import H, PRUNE_TOL, V, PureState


@dataclass(frozen=True)
class Hwp:
    """Half-wave plate on one mode; ``theta`` in degrees."""

    mode: str
    theta: float


@dataclass(frozen=True)
class Pbs:
    """Polarizing beam splitter between two spatial modes."""

    in1: str
    in2: str
    out1: str
    out2: str


@dataclass(frozen=True)
class Unfold:
    """Split a mode by polarization: H goes to ``out_h``, V to ``out_v``."""

    src: str
    out_h: str
    out_v: str


@dataclass(frozen=True)
class Merge:
    """Inverse of Unfold: recombine an H-only and a V-only mode."""

    in_h: str
    in_v: str
    out: str


@dataclass(frozen=True)
class Relabel:
    src: str
    dst: str


@dataclass(frozen=True)
class SigmaX:
    """Swap H and V on one mode (a NOT in the polarization basis)."""

    mode: str


@dataclass(frozen=True)
class SignFlipV:
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


def _block(element: OpticalElement) -> tuple[Rules, tuple]:
    """An element's substitution block and the ``(operator, error)`` checks
    that the operator is empty before it."""
    match element:
        case Hwp(mode, theta):
            c, s = math.cos(math.radians(2.0 * theta)), math.sin(math.radians(2.0 * theta))
            return {
                (mode, H): (((mode, H), c), ((mode, V), s)),
                (mode, V): (((mode, H), s), ((mode, V), -c)),
            }, ()
        case Pbs(in1, in2, out1, out2):
            return _moves((in1, H, out1), (in1, V, out2), (in2, H, out2), (in2, V, out1)), ()
        case Unfold(src, out_h, out_v):
            return _moves((src, H, out_h), (src, V, out_v)), _empty("unfold", out_h, out_v)
        case Merge(in_h, in_v, out):
            message = "merge undefined: {!r} carries the reflected polarization"
            checks = (((in_h, V), message.format(in_h)), ((in_v, H), message.format(in_v)))
            return _moves((in_h, H, out), (in_v, V, out)), checks
        case Relabel(src, dst):
            if src == dst:
                return {}, ()
            return _moves((src, H, dst), (src, V, dst)), _empty("relabel", dst)
        case SigmaX(mode):
            return {(mode, H): (((mode, V), 1.0),), (mode, V): (((mode, H), 1.0),)}, ()
        case SignFlipV(mode):
            return {(mode, V): (((mode, V), -1.0),)}, ()
    raise TypeError(f"unknown optical element {element!r}")


@lru_cache(maxsize=256)
def compile_elements(elements: tuple[OpticalElement, ...]) -> tuple[Rules, tuple]:
    """Compose the elements' blocks, in order, into one sparse linear map.

    Returns the rules (operators no element touches are left out) and, in
    step order, the checks: (frozenset of input operators that reach a
    forbidden operator, the error that step raises).
    """
    images: dict[tuple[str, str], dict[tuple[str, str], complex]] = {}
    checks = []
    for element in elements:
        block, forbidden = _block(element)
        for op, message in forbidden:
            reach = {src for src, image in images.items() if abs(image.get(op, 0.0)) > PRUNE_TOL}
            checks.append((frozenset(reach if op in images else reach | {op}), message))
        for op in block:
            images.setdefault(op, {op: 1.0})
        for src, image in images.items():
            out: dict[tuple[str, str], complex] = {}
            for mid, coeff in image.items():
                for dst, u in block.get(mid, ((mid, 1.0),)):
                    out[dst] = out.get(dst, 0.0) + coeff * u
            images[src] = {dst: u for dst, u in out.items() if abs(u) > PRUNE_TOL}
    return {src: tuple(image.items()) for src, image in images.items()}, tuple(checks)


def apply_elements(state: PureState, elements: Iterable[OpticalElement]) -> PureState:
    """Apply an element sequence, in order, in one substitution.

    Raises ``ValueError`` when the state's support reaches an operator that
    an Unfold, Merge or Relabel requires to be empty.
    """
    rules, checks = compile_elements(tuple(elements))
    if checks:
        support = {(m, ch) for occ, _amp in state.items() for (m, ch, _tag), _n in occ}
        for reach, message in checks:
            if not reach.isdisjoint(support):
                raise ValueError(message)
    return state.substituted(rules) if rules else state


def apply_element(state: PureState, element: OpticalElement) -> PureState:
    return apply_elements(state, (element,))


def apply_hwp(state: PureState, mode: str, theta: float) -> PureState:
    return apply_element(state, Hwp(mode, theta))


def apply_pbs(state: PureState, in1: str, in2: str, out1: str, out2: str) -> PureState:
    return apply_element(state, Pbs(in1, in2, out1, out2))


def apply_unfold(state: PureState, src: str, out_h: str, out_v: str) -> PureState:
    return apply_element(state, Unfold(src, out_h, out_v))


def apply_merge(state: PureState, in_h: str, in_v: str, out: str) -> PureState:
    return apply_element(state, Merge(in_h, in_v, out))


def apply_relabel(state: PureState, src: str, dst: str) -> PureState:
    return apply_element(state, Relabel(src, dst))


def apply_sigma_x(state: PureState, mode: str) -> PureState:
    return apply_element(state, SigmaX(mode))


def apply_sign_flip_v(state: PureState, mode: str) -> PureState:
    return apply_element(state, SignFlipV(mode))
