"""Sparse exact algebra over multi-mode photon-number states.

A basis vector assigns photon counts to occupation keys ``(mode, channel,
tag)``.  ``channel`` is the polarization ("H"/"V") for optical modes and the
empty string for abstract rails; ``tag`` is a distinguishability label, empty
when photons are mutually indistinguishable.  Two occupations interfere only
if all three key components agree.

Amplitudes are stored against *normalized* kets, but transformations follow
the creation-operator convention: applying the same creation operator twice
to vacuum yields sqrt(2) times the normalized two-photon ket.  ``superpose``
is the one routine that creates photons; ``PureState.create`` and every
input builder call it.  All values are immutable after construction and
every operation is a pure function of its inputs.

A linear optical network is one ``MemoRules`` map: its creation-operator
substitution and its occupancy checks.  ``MemoRules.replay`` is the one step
that pushes a state through it, and ``substituted`` builds a state from it;
the map decides each input occupation's image, check verdict and, for a
heralded map, each image term's route (the patterns that admit it) once.

Memo policy: a memo keyed by occupations, supports, element sequences or
circuits holds at most ``PLAN_LIMIT`` entries.  A map's images and plans are
emptied when full; ``planned`` and the compiled and heralded map caches keep
their most recently used entries.

Every other step that goes term by term but ``factor_on_modes`` (whose
one pass costs less than a plan's lookup) keeps one rule: where each term
goes is decided once per input support (its ordered occupations) and the
step's arguments, by a builder whose plan ``planned`` keeps.  A builder's
refusal is not kept, so it is raised on every call.  A plan decides only
where terms go; each call redoes every float operation on its own
amplitudes, in the order the plain loop would.  ``moved`` replays the plans
that send each term to one occupation, with at most one factor (the rail
steps of ``fockfuse.rails``); ``superpose`` and ``projector_probability``
replay their own, which hold each photon's √n and each projector slot.

A heralded outcome (a detection pattern, a rail erasure, rail fission's
zero ports) is conditioned by one rule, ``conditioned``: its probability
is Σ|a|² of the heralded terms (``inf`` past the float range), and its
state those terms times 1/√Σ, less any at or below ``PRUNE_TOL``.

A mixture is a pure state too: ``MixedState`` labels each branch on a mode
no detector reads, so one algebra serves both.
"""

from __future__ import annotations

import cmath
import json
import math
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

H = "H"
V = "V"
UNTAGGED = ""

PRUNE_TOL = 1e-12
#: the most entries a memo keeps (the module docstring's memo policy)
PLAN_LIMIT = 256
#: the mode holding a mixture's branch labels: no circuit can name or detect
#: it, and it sorts before every valid mode name
BRANCH_MODE = "#"
INV_SQRT2 = 1.0 / math.sqrt(2.0)
_set = object.__setattr__  # sets a field of a record, which refuses assignment

#: (mode, channel, tag)
Key = tuple[str, str, str]
#: sorted tuple of (key, count) pairs with count > 0
Occupation = tuple[tuple[Key, int], ...]


class Record:
    """A value with the fields its class annotates, in order (``__match_args__``),
    each defaulting to its class attribute if it has one (a dict default is
    copied per record).  Records are equal only within a class; a record hashes
    as its fields' tuple, shows as a frozen dataclass does and refuses
    assignment.  ``__post_init__``, if defined, checks each new record."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = names = tuple(cls.__annotations__)
        get = attrgetter(*names)
        cls._values = staticmethod(get if len(names) > 1 else lambda record: (get(record),))
        cls._defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
        cls._checked = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):  # a field named, or left to its default
            given = {**dict(zip(names, args)), **kwargs}
            values = {k: v.copy() if isinstance(v, dict) else v for k, v in self._defaults.items()} | given
            if len(given) < len(args) + len(kwargs) or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes each of {names} once, or its default")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            _set(self, name, value)
        if self._checked:
            self.__post_init__()

    def replace(self, **changes):
        """A copy with ``changes`` to its fields, checked as a new record."""
        return type(self)(**{**dict(zip(self.__match_args__, self._values(self))), **changes})

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values(self) == other._values(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = (f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values(self)))
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PhotonCapExceeded(ValueError):
    """A creation operator would push the total photon count over the cap."""


def make_key(mode: str, channel: str, tag: str | None = None) -> Key:
    return (mode, channel, tag if tag else UNTAGGED)


def total_photons(occ: Occupation) -> int:
    return sum(n for _, n in occ)


def unit_shift(amps: Iterable[complex]) -> int:
    """The exponent of the exact power of two that brings the largest real or
    imaginary part of ``amps`` into [0.5, 1); 0 when all are zero."""
    peak = max((max(abs(z.real), abs(z.imag)) for z in amps), default=0.0)
    return -math.frexp(peak)[1]


def _occ_bump(occ: Occupation, key: Key) -> tuple[Occupation, int]:
    """``occ`` with one more photon on ``key``, kept sorted, and the count
    ``key`` now holds."""
    for i, (k, n) in enumerate(occ):
        if k == key:
            return occ[:i] + ((k, n + 1),) + occ[i + 1 :], n + 1
        if key < k:
            return occ[:i] + ((key, 1),) + occ[i:], 1
    return occ + ((key, 1),), 1


def _mode_channel_counts(occ: Occupation, modes: frozenset[str]) -> tuple[int, int] | None:
    """Photon counts (H, V) over a set of modes, summed across tags; None for a rail photon."""
    n_h = n_v = 0
    for (mode, channel, _tag), n in occ:
        if mode in modes:
            if channel == V:
                n_v += n
            elif channel == H:
                n_h += n
            else:
                return None
    return n_h, n_v


def _kept(memo: dict, key, value):
    """``memo.setdefault(key, value)``, emptying a full ``memo`` first; racing threads get the stored value."""
    if len(memo) >= PLAN_LIMIT:
        memo.clear()
    return memo.setdefault(key, value)


class MemoRules(dict):
    """A compiled map: ``(mode, channel)`` -> image as ``((mode, channel),
    coefficient)`` pairs, each coefficient above ``PRUNE_TOL`` (absent
    operators are left alone), and, in step order, ``(operators, message)``
    checks that refuse an input occupation holding any of the operators.

    It memoizes each occupation's image and verdict (tags included) and each
    support's ``plan`` under the memo policy, and must not change afterwards.
    With ``patterns``, an image keeps the terms one admits, with the same additions.
    """

    def __init__(self, rules, checks: tuple, patterns: tuple | None = None):
        super().__init__(rules)
        self.checks = checks
        self.patterns = patterns
        self._images: dict = {}
        self._plans: dict = {}

    def image(self, occ: Occupation):
        """``occ``'s creation-operator monomial expanded under the map, as
        ``(√Π n_in!, ((out_occ, coeff, √Π n_out!, route), ...), refused)``:
        ``route`` the indices of the patterns that admit ``out_occ`` (empty
        without patterns) and ``refused`` the index of the first check that
        refuses ``occ``, or ``len(self.checks)``."""
        found = self._images.get(occ)
        if found is not None:
            return found
        poly: dict[Occupation, complex] = {(): 1.0 + 0.0j}
        fact_in = 1.0
        for (mode, channel, tag), n in occ:
            fact_in *= math.factorial(n)
            images = self.get((mode, channel))
            if images is None:
                images = (((mode, channel), 1.0 + 0.0j),)
            for _ in range(n):
                nxt: dict[Occupation, complex] = {}
                for mono, coeff in poly.items():
                    for (m2, c2), u in images:
                        bumped, _n = _occ_bump(mono, (m2, c2, tag))
                        nxt[bumped] = nxt.get(bumped, 0.0) + coeff * u
                poly = nxt
        terms, keep = [], self.patterns
        for mono, coeff in poly.items():
            route = () if keep is None else tuple(i for i, p in enumerate(keep) if p.matches(mono))
            if route or keep is None:
                terms.append((mono, coeff, math.sqrt(math.prod(math.factorial(n) for _, n in mono)), route))
        held = {(mode, channel) for (mode, channel, _tag), _n in occ}
        refusals = (i for i, (ops, _) in enumerate(self.checks) if not ops.isdisjoint(held))
        return _kept(self._images, occ, (math.sqrt(fact_in), tuple(terms), next(refusals, len(self.checks))))

    def plan(self, support: tuple[Occupation, ...]):
        """The images of the input occupations ``support`` merged as ``(roots,
        rows, refused)``: each input's √Π n_in!, each output occupation in
        first-touch order as ``(occupation, route, [(input index, coeff,
        √Π n_out!), ...])``, and the earliest refusing check, as in ``image``."""
        found = self._plans.get(support)
        if found is not None:
            return found
        roots, rows, refused = [], {}, len(self.checks)
        for i, occ in enumerate(support):
            root, terms, check = self.image(occ)
            roots.append(root)
            refused = min(refused, check)
            for mono, coeff, root_out, route in terms:
                rows.setdefault(mono, (mono, route, []))[2].append((i, coeff, root_out))
        return _kept(self._plans, support, (tuple(roots), tuple(rows.values()), refused))

    def replay(self, state: "PureState") -> Iterator[tuple[Occupation, tuple[int, ...], complex]]:
        """``(occupation, route, amplitude)`` per output occupation of
        ``state``'s plan, summed onto 0.0 in its order, less sums at or below
        ``PRUNE_TOL`` (NaN is kept for the caller to refuse); the identity map
        yields each term as it is.  Raises ``ValueError`` with the message of
        the earliest check, in step order, that refuses any term."""
        roots, rows, refused = self.plan(tuple(state._terms))
        if refused < len(self.checks):
            raise ValueError(self.checks[refused][1])
        amps = list(state._terms.values())
        if not self:
            for occ, route, ((i, _coeff, _root),) in rows:
                yield occ, route, amps[i]
            return
        scales = [amp / root for amp, root in zip(amps, roots)]
        for occ, route, row in rows:
            total = 0.0
            for i, coeff, root in row:
                total += scales[i] * coeff * root
            if not abs(total) <= PRUNE_TOL:
                yield occ, route, total


class PureState:
    """Sparse complex-amplitude expansion over occupation basis vectors."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Occupation, complex] | None = None):
        data: dict[Occupation, complex] = {}
        if terms:
            for occ, amp in terms.items():
                z = complex(amp)
                size = abs(z)
                if PRUNE_TOL < size < math.inf:
                    data[occ] = z
                elif not size <= PRUNE_TOL:  # NaN or infinite, never pruned
                    raise ValueError("amplitudes must be finite")
        self._terms = data

    @staticmethod
    def _of(terms: dict[Occupation, complex]) -> "PureState":
        """``terms``, complex and above ``PRUNE_TOL``; only finiteness is checked."""
        if not all(map(cmath.isfinite, terms.values())):
            raise ValueError("amplitudes must be finite")
        state = object.__new__(PureState)
        state._terms = terms
        return state

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

    def amplitudes(self, kets) -> tuple[complex, ...]:
        """Amplitudes of untagged kets, each a sequence of ``(mode, channel)``
        photons, one photon per pair; a pair listed twice holds two."""
        found = []
        for ket in kets:
            occ = ()
            for mode, channel in ket:
                occ, _n = _occ_bump(occ, make_key(mode, channel))
            found.append(self._terms.get(occ, 0.0 + 0.0j))
        return tuple(found)

    def squared_norm(self) -> float:
        """Σ|a|², or ``inf`` when it passes the float range."""
        return _squared_sum(self._terms)

    def norm(self) -> float:
        """The norm at any scale, by an exact power-of-two prescale when Σ|a|²
        overflows; ``OverflowError`` only past the float range."""
        squared = self.squared_norm()
        if squared < math.inf:
            return math.sqrt(squared)
        shift = unit_shift(self._terms.values())
        return math.ldexp((self * 2.0**shift).norm(), -shift)

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

    def __mul__(self, factor: complex) -> "PureState":
        return PureState({occ: amp * factor for occ, amp in self._terms.items()})

    __rmul__ = __mul__

    def normalized(self) -> "PureState":
        probability, state = conditioned(self._terms)
        if probability == 0.0:
            raise ValueError("cannot normalize the zero state")
        return state

    # -- physics ------------------------------------------------------------

    def create(
        self,
        mode: str,
        channel: str,
        tag: str | None = None,
        cap: int | None = None,
    ) -> "PureState":
        """Apply a creation operator, as ``superpose`` does: count n gains
        factor sqrt(n+1); a term may hold at most ``cap`` photons if one is
        given."""
        if cap is not None and self.max_photons() + 1 > cap:
            key = make_key(mode, channel, tag)
            raise PhotonCapExceeded(f"creating a photon on {key} exceeds the cap of {cap}")
        return superpose(self, (1.0,), (((mode, channel),),), {mode: tag})

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

    def substituted(self, rules: MemoRules) -> "PureState":
        """The state ``MemoRules.replay`` pushes through a compiled map: every tag
        sector transforms identically, and an empty map is the identity."""
        return PureState._of({occ: amp for occ, _route, amp in rules.replay(self)})

    def project(self, pattern: "DetectionPattern") -> "ConditionalOutcome":
        """The terms the pattern admits, ``conditioned``."""
        kept = {occ: amp for occ, amp in self._terms.items() if pattern.matches(occ)}
        return ConditionalOutcome(*conditioned(kept), pattern)

    def factor_on_modes(self, modes: Iterable[str]) -> "PureState":
        """Restrict to ``modes`` when the complement part factors out.

        Every term must carry one common occupation outside ``modes``;
        otherwise the state is entangled with the remainder and a
        ``ValueError`` is raised.
        """
        keep = frozenset(modes)
        rest_ref = None
        out = {}
        for occ, amp in self._terms.items():
            inside, outside = [], []
            for pair in occ:
                (inside if pair[0][0] in keep else outside).append(pair)
            if rest_ref is None:
                rest_ref = outside
            elif outside != rest_ref:
                raise ValueError(f"state does not factor on modes {sorted(keep)}")
            # the common outside part keeps the inside parts distinct; 0.0 + as in ``moved``
            out[tuple(inside)] = 0.0 + amp
        return PureState._of(out)

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


def _squared_sum(terms: Mapping[Occupation, complex]) -> float:
    try:
        return sum((abs(a) ** 2 for a in terms.values()), 0.0)
    except OverflowError:
        return math.inf


def conditioned(terms: dict[Occupation, complex]) -> tuple[float, PureState]:
    """The heralded ``terms`` as ``(probability, state)`` by the module
    docstring's rule, scaled by ``norm``'s exact power-of-two prescale past
    the float range; ``(0.0, PureState.zero())`` if none, NaN left to ``_of``."""
    probability = _squared_sum(terms)
    if probability <= 0.0:
        return 0.0, PureState.zero()
    scale = 1.0 / (PureState._of(terms).norm() if probability == math.inf else math.sqrt(probability))
    kept = {occ: z for occ, amp in terms.items() if not abs(z := amp * scale) <= PRUNE_TOL}
    return probability, PureState._of(kept)


@lru_cache(maxsize=PLAN_LIMIT)
def planned(build, support: tuple[Occupation, ...], *args):
    """``build(support, *args)``, kept for the ``PLAN_LIMIT`` most recently
    used calls."""
    return build(support, *args)


def moved(state: PureState, plan, factor: complex = 1.0) -> PureState:
    """``state`` with each term sent to its plan's ``(occupation, sign)``
    and summed onto 0.0: as it is at sign 0, plus ``amp * factor`` at 1 and
    minus it at -1; sums at or below ``PRUNE_TOL`` are dropped, as the
    checking constructor drops them, and NaN is kept for ``_of`` to refuse."""
    out: dict[Occupation, complex] = {}
    for (occ, sign), amp in zip(plan, state._terms.values()):
        if not sign:
            out[occ] = out.get(occ, 0.0) + amp
        elif sign > 0:
            out[occ] = out.get(occ, 0.0) + amp * factor
        else:
            out[occ] = out.get(occ, 0.0) - amp * factor
    return PureState._of({occ: z for occ, z in out.items() if not abs(z) <= PRUNE_TOL})


def _superpose_plan(support: tuple[Occupation, ...], kets: tuple, tags: tuple):
    """For each ket, for each occupation of ``support``: that occupation with
    the ket's photons created on the ``tags`` of their modes, and the √n each
    photon in turn gains."""
    tags = dict(tags)
    plan = []
    for ket in kets:
        keys = [make_key(mode, pol, tags.get(mode)) for mode, pol in ket]
        rows = []
        for occ in support:
            roots = []
            for key in keys:
                occ, n = _occ_bump(occ, key)
                roots.append(math.sqrt(n))
            rows.append((occ, tuple(roots)))
        plan.append(tuple(rows))
    return tuple(plan)


def superpose(base: PureState, amps, kets, tags=None) -> PureState:
    """Sum of ``a * (base with the ket's photons created)`` over nonzero ``a``:
    the one routine that puts photons on occupations.

    A ket is a sequence of ``(mode, pol)`` photons; ``tags`` maps a mode to
    its distinguishability tag.  One pass forms each amplitude as ``create``,
    ``*`` and ``+`` chained would, -0.0 parts included: √(n+1) per photon,
    then ``a``; a product or a running sum at or below ``PRUNE_TOL`` is
    dropped.
    """
    if len(amps) != len(kets):
        raise ValueError(f"expected {len(kets)} amplitudes, got {len(amps)}")
    tags = tuple(tags.items()) if tags else ()
    plan = planned(_superpose_plan, tuple(base._terms), tuple(map(tuple, kets)), tags)
    out: dict[Occupation, complex] = {}
    for a, rows in zip(amps, plan):
        if a != 0:
            a = complex(a)
            for (occ, roots), amp in zip(rows, base._terms.values()):
                for root in roots:
                    amp = 0.0 + amp * root
                amp = amp * a
                if abs(amp) <= PRUNE_TOL:
                    continue
                out[occ] = total = out.get(occ, 0.0) + amp
                if abs(total) <= PRUNE_TOL:
                    del out[occ]
    return PureState._of(out)


def fidelity(x: PureState, y: PureState) -> float:
    """|<x|y>|^2 for normalized inputs, global-phase insensitive."""
    nx, ny = x.squared_norm(), y.squared_norm()
    if nx == 0.0 or ny == 0.0:
        return 0.0
    if nx * ny == math.inf:  # fidelity ignores each state's scale
        return fidelity(x.normalized(), y.normalized())
    return abs(x.inner(y)) ** 2 / (nx * ny)


def _projector_plan(support: tuple[Occupation, ...], targets: frozenset[str]):
    """For each occupation of ``support``: None unless it holds exactly one
    photon in the ``targets`` modes, else that photon's ``(mode, channel)``
    and its slot ``(spectator index, tag)``, the occupation's part outside
    ``targets`` numbered in first-touch order."""
    spectators: dict[Occupation, int] = {}
    steps = []
    for occ in support:
        inside = [(k, n) for k, n in occ if k[0] in targets]
        if sum(n for _, n in inside) != 1:
            steps.append(None)
            continue
        (mode, channel, tag), _n = inside[0]
        outside = tuple((k, n) for k, n in occ if k[0] not in targets)
        steps.append(((mode, channel), (spectators.setdefault(outside, len(spectators)), tag)))
    return tuple(steps)


def projector_probability(
    state: PureState,
    amplitudes: Mapping[tuple[str, str], complex],
) -> float:
    """Probability of a single-photon projective outcome.

    ``amplitudes`` defines the normalized target superposition over
    ``(mode, channel)`` components.  The projector acts on the photon living
    in those modes and is summed over distinguishability tags (detectors do
    not resolve tags); occupations of all other modes, a mixture's branch
    label among them, are spectators.
    Terms with zero or several photons in the target modes are orthogonal to
    the one-photon outcome and contribute nothing.
    """
    plan = planned(_projector_plan, tuple(state._terms), frozenset(mode for mode, _ in amplitudes))
    overlaps: dict[tuple[int, str], complex] = {}
    for amp, step in zip(state._terms.values(), plan):
        if step is None:
            continue
        key, slot = step
        coeff = amplitudes.get(key)
        if coeff is None or coeff == 0:
            continue
        overlaps[slot] = overlaps.get(slot, 0.0) + complex(coeff).conjugate() * amp
    return sum((abs(v) ** 2 for v in overlaps.values()), 0.0)


#: detection requirement -> the (H, V) photon counts over its group that it admits
ADMITS = {
    H: frozenset({(1, 0)}),
    V: frozenset({(0, 1)}),
    "any": frozenset({(1, 0), (0, 1)}),
    "none": frozenset({(0, 0)}),
}


class PatternError(ValueError):
    """A broken pattern rule at pair ``pair``, in its ``"group"`` or ``"requirement"``."""

    def __init__(self, message: str, pair: int, part: str):
        super().__init__(message)
        self.pair = pair
        self.part = part


class DetectionPattern(Record):
    """Photon-count requirements on groups of output modes.

    Each entry constrains a mode group to the (H, V) photon counts, summed
    over the group, that ``ADMITS`` lists for its requirement: one H photon,
    one V photon, one of either (``"any"``) or none.  Unlisted modes are
    unconstrained.  Groups let one requirement span two spatial modes, as in
    the fourfold-coincidence condition of one photon across both target
    outputs.  Equal requirements in any order make equal patterns.

    A group is a mode or a collection of modes.  Construction raises
    ``PatternError`` if there is no pair, or at the first pair, in the given
    order, with a requirement ``ADMITS`` lacks, an empty name or a repeat.
    """

    requirements: tuple[tuple[frozenset[str], str], ...]

    def __post_init__(self):
        if not self.requirements:
            raise PatternError("a detection pattern needs a (group, requirement) pair", 0, "group")
        entries = []
        seen: set[str] = set()
        for i, (group, req) in enumerate(self.requirements):
            modes = (group,) if isinstance(group, str) else tuple(group)
            if req not in ADMITS:
                message = f"requirement must be H, V, any or none, got {req!r}"
                raise PatternError(message, i, "requirement")
            if not modes or not all(modes):
                raise PatternError(f"empty mode name in group {'+'.join(modes)!r}", i, "group")
            for m in modes:
                if m in seen:
                    raise PatternError(f"mode {m!r} constrained twice", i, "group")
                seen.add(m)
            entries.append((frozenset(modes), req))
        object.__setattr__(self, "requirements", tuple(sorted(entries, key=lambda e: sorted(e[0]))))

    @classmethod
    def of(cls, spec: Mapping | Iterable) -> "DetectionPattern":
        """The pattern of a ``{group: requirement}`` mapping or a sequence of pairs."""
        return cls(tuple(spec.items() if isinstance(spec, Mapping) else spec))

    def matches(self, occ: Occupation) -> bool:
        for group, req in self.requirements:
            if _mode_channel_counts(occ, group) not in ADMITS[req]:
                return False
        return True

    def constrained_modes(self) -> set[str]:
        return {m for group, _ in self.requirements for m in group}

    def requirement_for(self, mode: str) -> str | None:
        for group, req in self.requirements:
            if mode in group:
                return req
        return None


class ConditionalOutcome(Record):
    """A detection pattern's probability and conditional state, as
    ``conditioned`` gives them; for a mixed input the state is the
    purification of the conditional mixture, each term keeping its label."""

    probability: float
    state: PureState
    pattern: DetectionPattern


class MixedState(PureState):
    """A mixture of pure branches, weights summing to one, held as its
    purification Σ √wᵢ·ψᵢ: each term of branch i carries one rail photon
    tagged ``i`` on ``BRANCH_MODE``, or ``i.j`` when the branch is itself a
    mixture whose term carries label ``j``.

    Different labels make different occupations, so branches never
    interfere, and no detector reads the label, so projections and
    probabilities come out as the weighted sums over the branches.
    """

    def __init__(self, branches: Iterable[tuple[float, PureState]]):
        branches = tuple((float(w), s) for w, s in branches)
        if not branches:
            raise ValueError("a mixed state needs at least one branch")
        if not all(math.isfinite(w) for w, _ in branches):
            raise ValueError("branch weights must be finite")
        total = sum(w for w, _ in branches)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"branch weights sum to {total}, expected 1")
        if any(w < 0 for w, _ in branches):
            raise ValueError("branch weights must be non-negative")
        terms: dict[Occupation, complex] = {}
        for i, (w, state) in enumerate(branches):
            root = math.sqrt(w)
            for occ, amp in state.items():
                label = str(i)
                if occ and occ[0][0][0] == BRANCH_MODE:  # a label sorts first
                    label = f"{i}.{occ[0][0][2]}"
                    occ = occ[1:]
                terms[(((BRANCH_MODE, "", label), 1),) + occ] = root * amp
        super().__init__(terms)
