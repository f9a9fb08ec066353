"""Sparse exact algebra over multi-mode photon-number states.

A basis vector assigns photon counts to occupation keys ``(mode, channel,
tag)``.  ``channel`` is the polarization ("H"/"V") for optical modes and the
empty string for abstract rails; ``tag`` is a distinguishability label, empty
when photons are mutually indistinguishable.  Two occupations interfere only
if all three key components agree.

Amplitudes are stored against *normalized* kets, but transformations follow
the creation-operator convention: applying the same creation operator twice
to vacuum yields sqrt(2) times the normalized two-photon ket.  All values are
immutable after construction and every operation is a pure function of its
inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

H = "H"
V = "V"
UNTAGGED = ""

PRUNE_TOL = 1e-12
INV_SQRT2 = 1.0 / math.sqrt(2.0)
DEFAULT_PHOTON_CAP = 4

#: (mode, channel, tag)
Key = tuple[str, str, str]
#: sorted tuple of (key, count) pairs with count > 0
Occupation = tuple[tuple[Key, int], ...]


class PhotonCapExceeded(ValueError):
    """A creation operator would push the total photon count over the cap."""


def make_key(mode: str, channel: str, tag: str | None = None) -> Key:
    return (mode, channel, tag if tag else UNTAGGED)


def total_photons(occ: Occupation) -> int:
    return sum(n for _, n in occ)


def _occ_bump(occ: Occupation, key: Key) -> Occupation:
    """``occ`` with one more photon on ``key``, kept sorted."""
    for i, (k, n) in enumerate(occ):
        if k == key:
            return occ[:i] + ((k, n + 1),) + occ[i + 1 :]
        if key < k:
            return occ[:i] + ((key, 1),) + occ[i:]
    return occ + ((key, 1),)


def _mode_channel_counts(occ: Occupation, modes: frozenset[str]) -> tuple[int, int]:
    """Photon counts (H, V) over a set of modes, summed across tags."""
    n_h = n_v = 0
    for (mode, channel, _tag), n in occ:
        if mode in modes:
            if channel == V:
                n_v += n
            else:
                n_h += n
    return n_h, n_v


class PureState:
    """Sparse complex-amplitude expansion over occupation basis vectors."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Occupation, complex] | None = None):
        data: dict[Occupation, complex] = {}
        if terms:
            for occ, amp in terms.items():
                z = complex(amp)
                if abs(z) > PRUNE_TOL:
                    data[occ] = z
        self._terms = data

    @classmethod
    def vacuum(cls) -> "PureState":
        return cls({(): 1.0 + 0.0j})

    @classmethod
    def zero(cls) -> "PureState":
        """The empty-state marker (zero vector, not the vacuum)."""
        return cls()

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterator[tuple[Occupation, complex]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def amplitude(self, occ: Occupation) -> complex:
        return self._terms.get(tuple(sorted(occ)), 0.0 + 0.0j)

    def squared_norm(self) -> float:
        return sum(abs(a) ** 2 for a in self._terms.values())

    def norm(self) -> float:
        return math.sqrt(self.squared_norm())

    def modes(self) -> list[str]:
        return sorted({k[0] for occ in self._terms for k, _ in occ})

    def tags(self) -> list[str]:
        return sorted({k[2] for occ in self._terms for k, _ in occ})

    def max_photons(self) -> int:
        return max((total_photons(occ) for occ in self._terms), default=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        for occ, amp in sorted(self._terms.items()):
            ket = " ".join(f"{m}.{ch}{('^' + t) if t else ''}x{n}" for (m, ch, t), n in occ) or "vac"
            parts.append(f"({amp:.4g})|{ket}>")
        return "PureState(" + " + ".join(parts) + ")" if parts else "PureState(0)"

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "PureState") -> "PureState":
        out = dict(self._terms)
        for occ, amp in other._terms.items():
            out[occ] = out.get(occ, 0.0) + amp
        return PureState(out)

    def __sub__(self, other: "PureState") -> "PureState":
        return self + (-1.0) * other

    def __mul__(self, factor: complex) -> "PureState":
        return PureState({occ: amp * factor for occ, amp in self._terms.items()})

    __rmul__ = __mul__

    def normalized(self) -> "PureState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return self * (1.0 / n)

    # -- physics ------------------------------------------------------------

    def create(
        self,
        mode: str,
        channel: str,
        tag: str | None = None,
        cap: int | None = DEFAULT_PHOTON_CAP,
    ) -> "PureState":
        """Apply a creation operator: count n gains factor sqrt(n+1)."""
        key = make_key(mode, channel, tag)
        out: dict[Occupation, complex] = {}
        for occ, amp in self._terms.items():
            if cap is not None and total_photons(occ) + 1 > cap:
                raise PhotonCapExceeded(
                    f"creating a photon on {key} exceeds the cap of {cap}"
                )
            n = dict(occ).get(key, 0)
            out_occ = _occ_bump(occ, key)
            out[out_occ] = out.get(out_occ, 0.0) + amp * math.sqrt(n + 1)
        return PureState(out)

    def inner(self, other: "PureState") -> complex:
        """<self|other>, conjugate-linear in ``self``."""
        if len(other._terms) < len(self._terms):
            return other.inner(self).conjugate()
        acc = 0.0 + 0.0j
        for occ, amp in self._terms.items():
            o = other._terms.get(occ)
            if o is not None:
                acc += amp.conjugate() * o
        return acc

    def substituted(
        self,
        rules: Mapping[tuple[str, str], Iterable[tuple[tuple[str, str], complex]]],
    ) -> "PureState":
        """Rewrite creation operators by a linear substitution.

        ``rules`` maps ``(mode, channel)`` to the image as a list of
        ``((mode, channel), coefficient)`` pairs; absent keys are left alone.
        Tags ride along unchanged, so every tag sector transforms identically.
        """
        out: dict[Occupation, complex] = {}
        for occ, amp in self._terms.items():
            # Expand the creation-operator monomial for this term.
            poly: dict[Occupation, complex] = {(): 1.0 + 0.0j}
            fact_in = 1.0
            for (mode, channel, tag), n in occ:
                fact_in *= math.factorial(n)
                images = rules.get((mode, channel))
                if images is None:
                    images = (((mode, channel), 1.0 + 0.0j),)
                for _ in range(n):
                    nxt: dict[Occupation, complex] = {}
                    for mono, coeff in poly.items():
                        for (m2, c2), u in images:
                            if u == 0:
                                continue
                            bumped = _occ_bump(mono, (m2, c2, tag))
                            nxt[bumped] = nxt.get(bumped, 0.0) + coeff * u
                    poly = nxt
            scale = amp / math.sqrt(fact_in)
            for mono, coeff in poly.items():
                fact_out = 1.0
                for _, n in mono:
                    fact_out *= math.factorial(n)
                out[mono] = out.get(mono, 0.0) + scale * coeff * math.sqrt(fact_out)
        return PureState(out)

    def project(self, pattern: "DetectionPattern") -> "ConditionalOutcome":
        """Keep basis vectors matching the pattern; renormalize the rest.

        A zero-probability projection yields probability 0 and the
        empty-state marker rather than raising.
        """
        kept = {occ: amp for occ, amp in self._terms.items() if pattern.matches(occ)}
        probability = sum(abs(a) ** 2 for a in kept.values())
        if probability <= 0.0:
            return ConditionalOutcome(0.0, PureState.zero(), pattern)
        scale = 1.0 / math.sqrt(probability)
        state = PureState({occ: amp * scale for occ, amp in kept.items()})
        return ConditionalOutcome(probability, state, pattern)

    def factor_on_modes(self, modes: Iterable[str]) -> "PureState":
        """Restrict to ``modes`` when the complement part factors out.

        Every term must carry one common occupation outside ``modes``;
        otherwise the state is entangled with the remainder and a
        ``ValueError`` is raised.
        """
        keep = frozenset(modes)
        rest_ref: Occupation | None = None
        out: dict[Occupation, complex] = {}
        for occ, amp in self._terms.items():
            inside = tuple((k, n) for k, n in occ if k[0] in keep)
            outside = tuple((k, n) for k, n in occ if k[0] not in keep)
            if rest_ref is None:
                rest_ref = outside
            elif outside != rest_ref:
                raise ValueError(
                    f"state does not factor on modes {sorted(keep)}"
                )
            out[inside] = out.get(inside, 0.0) + amp
        return PureState(out)

    def to_json_obj(self) -> list[dict]:
        """Canonical serialization: sorted list of occupation/amplitude rows."""
        rows = []
        for occ in sorted(self._terms):
            amp = self._terms[occ]
            rows.append(
                {
                    "occupations": [[m, ch, tag, n] for (m, ch, tag), n in occ],
                    "re": amp.real,
                    "im": amp.imag,
                }
            )
        return rows

    def to_canonical_text(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def fidelity(x: PureState, y: PureState) -> float:
    """|<x|y>|^2 for normalized inputs, global-phase insensitive."""
    nx, ny = x.squared_norm(), y.squared_norm()
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return abs(x.inner(y)) ** 2 / (nx * ny)


def projector_probability(
    state: "PureState | MixedState",
    amplitudes: Mapping[tuple[str, str], complex],
) -> float:
    """Probability of a single-photon projective outcome.

    ``amplitudes`` defines the normalized target superposition over
    ``(mode, channel)`` components.  The projector acts on the photon living
    in those modes and is summed over distinguishability tags (detectors do
    not resolve tags); occupations of all other modes are spectators.
    Terms with zero or several photons in the target modes are orthogonal to
    the one-photon outcome and contribute nothing.
    """
    if isinstance(state, MixedState):
        return sum(w * projector_probability(s, amplitudes) for w, s in state.branches)
    target_modes = {mode for mode, _ in amplitudes}
    overlaps: dict[tuple[Occupation, str], complex] = {}
    for occ, amp in state.items():
        inside = [(k, n) for k, n in occ if k[0] in target_modes]
        if sum(n for _, n in inside) != 1:
            continue
        (mode, channel, tag), _ = inside[0]
        coeff = amplitudes.get((mode, channel))
        if coeff is None or coeff == 0:
            continue
        outside = tuple((k, n) for k, n in occ if k[0] not in target_modes)
        slot = (outside, tag)
        overlaps[slot] = overlaps.get(slot, 0.0) + complex(coeff).conjugate() * amp
    return sum(abs(v) ** 2 for v in overlaps.values())


_REQUIREMENTS = ("H", "V", "any", "none")


@dataclass(frozen=True)
class DetectionPattern:
    """Photon-count requirements on groups of output modes.

    Each entry constrains a mode group: ``"H"``/``"V"`` demand exactly one
    photon of that polarization (and nothing else) in the group, ``"any"``
    exactly one photon of either polarization, ``"none"`` an empty group.
    Unlisted modes are unconstrained.  Groups let one requirement span two
    spatial modes, as in the fourfold-coincidence condition of one photon
    across both target outputs.
    """

    requirements: tuple[tuple[frozenset[str], str], ...]

    @classmethod
    def of(cls, spec: Mapping[str | tuple[str, ...], str]) -> "DetectionPattern":
        entries = []
        seen: set[str] = set()
        for group, req in spec.items():
            modes = (group,) if isinstance(group, str) else tuple(group)
            if req not in _REQUIREMENTS:
                raise ValueError(f"unknown detection requirement {req!r}")
            for m in modes:
                if m in seen:
                    raise ValueError(f"mode {m!r} constrained twice")
                seen.add(m)
            entries.append((frozenset(modes), req))
        entries.sort(key=lambda e: tuple(sorted(e[0])))
        return cls(tuple(entries))

    def matches(self, occ: Occupation) -> bool:
        for group, req in self.requirements:
            n_h, n_v = _mode_channel_counts(occ, group)
            if req == "H":
                if not (n_h == 1 and n_v == 0):
                    return False
            elif req == "V":
                if not (n_v == 1 and n_h == 0):
                    return False
            elif req == "any":
                if n_h + n_v != 1:
                    return False
            else:  # "none"
                if n_h + n_v != 0:
                    return False
        return True

    def constrained_modes(self) -> set[str]:
        return {m for group, _ in self.requirements for m in group}

    def requirement_for(self, mode: str) -> str | None:
        for group, req in self.requirements:
            if mode in group:
                return req
        return None


@dataclass(frozen=True)
class ConditionalOutcome:
    """A detection pattern's probability and renormalized conditional state."""

    probability: float
    state: "PureState | MixedState"
    pattern: DetectionPattern


class MixedState:
    """Weighted list of pure branches (weights sum to one)."""

    __slots__ = ("branches",)

    def __init__(self, branches: Iterable[tuple[float, PureState]], *, _partial: bool = False):
        branches = tuple((float(w), s) for w, s in branches)
        if not _partial:
            if not branches:
                raise ValueError("a mixed state needs at least one branch")
            total = sum(w for w, _ in branches)
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"branch weights sum to {total}, expected 1")
            if any(w < 0 for w, _ in branches):
                raise ValueError("branch weights must be non-negative")
        self.branches = branches

    @classmethod
    def empty(cls) -> "MixedState":
        """Zero-probability marker with no branches."""
        return cls((), _partial=True)

    @property
    def is_zero(self) -> bool:
        return not self.branches

    def map_states(self, fn) -> "MixedState":
        return MixedState(
            tuple((w, fn(s)) for w, s in self.branches), _partial=not self.branches
        )

    def project(self, pattern: DetectionPattern) -> ConditionalOutcome:
        """Weighted projection; branches renormalized, weights updated."""
        kept: list[tuple[float, PureState]] = []
        probability = 0.0
        for w, s in self.branches:
            outcome = s.project(pattern)
            if outcome.probability > 0.0:
                kept.append((w * outcome.probability, outcome.state))
                probability += w * outcome.probability
        if probability <= 0.0:
            return ConditionalOutcome(0.0, MixedState.empty(), pattern)
        rescaled = tuple((w / probability, s) for w, s in kept)
        return ConditionalOutcome(probability, MixedState(rescaled), pattern)
