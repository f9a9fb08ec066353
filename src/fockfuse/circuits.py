"""Circuit container, the two apparatuses, and end-to-end runners.

The fusion apparatus merges two polarization qubits (spatial modes ``t`` and
``c``, plus an H-polarized ancilla on ``a``) into one photon spanning modes
``t1``/``t2`` and polarization.  The fission apparatus splits such a
four-dimensional photon (entering on ``c1``/``c2``) back onto two photons
exiting on ``t`` and on one of the two channels ``c``/``c'``.  Each is
defined once, by the ``fusion.lop`` or ``fission.lop`` file shipped in
``fockfuse.data``; ``build_fusion_circuit`` and ``build_fission_circuit``
parse it once per process.  Detection heralds success; pattern-dependent
unitary corrections (feed-forward) fold all heralded branches onto the
canonical output.

Inputs and targets are built by ``states.superpose``, which owns photon
creation.  A circuit's elements compile once (``elements.compile_elements``,
cached) into one ``MemoRules`` map: a linear substitution of the creation
operators that carries the elements' checks.  A circuit is validated once,
when it is built; ``run_circuit`` pushes its input, a mixture included,
through one replay of its heralded map: the same map and checks with every
output occupation that none of the circuit's patterns admits dropped, so it
computes only the terms a detector can herald, each with the patterns that
admit it.  ``apply_elements`` gives the full output state, as the
feed-forward corrections use it.
"""

from __future__ import annotations

import cmath
import math
import re
from functools import cache, lru_cache

from .elements import (
    ElementError,
    OpticalElement,
    Relabel,
    SigmaX,
    SignFlipV,
    Unfold,
    apply_elements,
    block,
    compile_elements,
)

# one-element appliers, re-exported: perfbench/tracing.py wraps them here
from .elements import apply_element, apply_relabel, apply_sigma_x, apply_sign_flip_v  # noqa: F401
from .states import (
    H,
    PLAN_LIMIT,
    V,
    ConditionalOutcome,
    DetectionPattern,
    MemoRules,
    PureState,
    Record,
    conditioned,
    superpose,
    unit_shift,
)

#: a mode or slot name: one token that ``--bind name=...`` and a ``+`` group can hold
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
#: input fields that do not name a mode -> (test, message for a failing value)
_FIELD_RULES = {
    "pol": (lambda pol: pol in (H, V), "polarization must be H or V, got {!r}"),
    "tag": (re.compile(r"[^\s#]*").fullmatch, "tag must be one token without '#', got {!r}"),
    "name": (_NAME.fullmatch, "invalid slot name {!r}"),
}


class CircuitError(ValueError):
    """Structural problem in a circuit definition.

    ``entry`` is the failing ``(section, index)``, a section being one of
    ``"modes"``, ``"inputs"``, ``"elements"`` and ``"patterns"``; ``mode`` is
    the mode involved, or ``field`` the element field holding a bad value.
    """

    def __init__(
        self, message: str, entry: tuple[str, int], mode: str | None = None, field: str | None = None
    ):
        super().__init__(message)
        self.entry = entry
        self.mode = mode
        self.field = field


class PhotonIn(Record):
    """A fixed single-photon injection."""

    mode: str
    pol: str
    tag: str = ""


class QubitSlot(Record):
    """A polarization qubit whose two amplitudes are bound at run time."""

    mode: str
    name: str


class QuditSlot(Record):
    """A single photon over two modes x polarization, bound at run time.

    Amplitude order: (mode1 H, mode1 V, mode2 H, mode2 V).
    """

    mode1: str
    mode2: str
    name: str


CircuitInput = PhotonIn | QubitSlot | QuditSlot


class Circuit(Record):
    """A linear-optical circuit, checked by ``validate`` when it is built."""

    modes: tuple[str, ...]
    inputs: tuple[CircuitInput, ...]
    elements: tuple[OpticalElement, ...]
    patterns: tuple[DetectionPattern, ...]

    def __post_init__(self):
        self.validate()

    def __hash__(self) -> int:  # hashed once: each run looks its map up by the circuit
        if "_hash" not in vars(self):
            object.__setattr__(self, "_hash", super().__hash__())
        return self._hash

    def __getstate__(self) -> dict:  # a str hash differs between processes: copies hash afresh
        return {name: value for name, value in vars(self).items() if name != "_hash"}

    def slot_names(self) -> list[str]:
        return [i.name for i in self.inputs if not isinstance(i, PhotonIn)]

    def output_modes(self) -> set[str]:
        """Modes live at the output: each element empties the modes of its
        block's keys and fills the modes of their images."""
        live = set(self.modes)
        for el in self.elements:
            rules = block(el)[0]
            live.difference_update(mode for mode, _ch in rules)
            live.update(mode for image in rules.values() for (mode, _ch), _u in image)
        return live

    def validate(self) -> None:
        """Raise ``CircuitError`` at the first entry that misnames or
        redeclares a mode or slot, names an undeclared mode or one unfolded
        away, breaks a ``_FIELD_RULES`` rule, is an element that ``block``
        refuses, or is a pattern that detects on a non-output mode."""
        declared: set[str] = set()
        for i, mode in enumerate(self.modes):
            if not _NAME.fullmatch(mode):
                raise CircuitError(f"invalid mode name {mode!r}", ("modes", i), mode)
            if mode in declared:
                raise CircuitError(f"mode {mode!r} declared twice", ("modes", i), mode)
            declared.add(mode)

        def check(mode: str, entry: tuple[str, int]) -> None:
            if mode not in declared:
                raise CircuitError(f"undeclared mode {mode!r}", entry, mode)

        slots: set[str] = set()
        retired: set[str] = set()
        for section, entries in (("inputs", self.inputs), ("elements", self.elements)):
            for i, entry in enumerate(entries):
                at = (section, i)
                for name, value in vars(entry).items():
                    if name in _FIELD_RULES:
                        if not _FIELD_RULES[name][0](value):
                            raise CircuitError(_FIELD_RULES[name][1].format(value), at, field=name)
                        if name == "name":
                            if value in slots:
                                raise CircuitError(f"slot {value!r} declared twice", at, field=name)
                            slots.add(value)
                    elif name != "theta":  # every other field but an angle names a mode
                        check(value, at)
                        if value in retired:
                            message = f"mode {value!r} reused after being unfolded away"
                            raise CircuitError(message, at, value)
                if section == "elements":
                    try:
                        block(entry)
                    except ElementError as exc:
                        raise CircuitError(str(exc), at, field=exc.field) from None
                if isinstance(entry, Unfold):
                    retired.add(entry.src)
        live = self.output_modes()
        for i, pattern in enumerate(self.patterns):
            at = ("patterns", i)
            for mode in sorted(pattern.constrained_modes()):
                check(mode, at)
                if mode not in live:
                    raise CircuitError(f"detection references non-output mode {mode!r}", at, mode)


# -- state preparation and running ----------------------------------------


def rescaled_amplitudes(amps, n: int) -> tuple[tuple[complex, ...], float]:
    """``n`` finite, not all zero amplitudes times an exact power of two that
    keeps their sum of squares finite and nonzero, and that sum of squares."""
    vec = [complex(a) for a in amps]
    if len(vec) != n:
        raise ValueError(f"expected {n} amplitudes, got {len(vec)}")
    if not all(cmath.isfinite(z) for z in vec):
        raise ValueError("amplitudes must be finite")
    if not any(vec):
        raise ValueError("amplitudes are all zero")
    shift = unit_shift(vec)
    vec = [complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift)) for z in vec]
    return tuple(vec), sum(z.real * z.real for z in vec) + sum(z.imag * z.imag for z in vec)


def normalized_amplitudes(amps, n: int) -> tuple[complex, ...]:
    """``n`` finite, not all zero amplitudes, scaled to unit norm at any scale."""
    vec, squared_norm = rescaled_amplitudes(amps, n)
    norm = math.sqrt(squared_norm)
    return tuple(z / norm for z in vec)


@lru_cache(maxsize=PLAN_LIMIT)
def _heralded_map(circuit: Circuit) -> MemoRules:
    """The circuit's compiled map, with its elements' checks and patterns: it
    keeps only the output occupations one of them admits, each with its route."""
    compiled = compile_elements(circuit.elements)
    return MemoRules(compiled, compiled.checks, circuit.patterns)


def initial_state(
    circuit: Circuit,
    bindings: dict[str, tuple[complex, ...]] | None = None,
    *,
    tags: dict[str, str] | None = None,
) -> PureState:
    """Build the input state, binding each slot's amplitudes by name; ``tags``
    optionally assigns a distinguishability tag per mode an input occupies."""
    bindings = bindings or {}
    tags = tags or {}
    slots = circuit.slot_names()
    missing = [n for n in slots if n not in bindings]
    if missing:
        raise ValueError(f"unbound input slots: {', '.join(missing)}")
    unknown = [n for n in bindings if n not in slots]
    if unknown:
        raise ValueError(f"no input slot named {', '.join(map(repr, unknown))}")
    state = PureState.vacuum()
    occupied = set()
    for inp in circuit.inputs:
        if isinstance(inp, PhotonIn):
            amps, kets, tag = (1.0,), (((inp.mode, inp.pol),),), inp.tag
        else:
            modes = (inp.mode1, inp.mode2) if isinstance(inp, QuditSlot) else (inp.mode,)
            kets = tuple(((m, p),) for m in modes for p in (H, V))
            tag = tags.get(modes[0], "")
            try:
                amps = normalized_amplitudes(bindings[inp.name], len(kets))
            except ValueError as exc:
                raise ValueError(f"slot {inp.name!r}: {exc}") from None
        mode_tags = {m: tags.get(m, tag) for ket in kets for m, _ in ket}
        occupied.update(mode_tags)
        state = superpose(state, amps, kets, mode_tags)
    stray = [m for m in tags if m not in occupied]
    if stray:
        raise ValueError(f"no input on mode {', '.join(map(repr, stray))}")
    return state


def run_circuit(
    circuit: Circuit,
    input_state: PureState | None = None,
    bindings: dict[str, tuple[complex, ...]] | None = None,
) -> list[ConditionalOutcome]:
    """Replay the circuit's heralded map on ``input_state``, or on the state
    ``bindings`` build, giving each term to every pattern that admits it;
    equal, bit for bit, to projecting the full ``apply_elements`` output.
    A ``MixedState`` input gives each pattern its branches' weighted
    probability and a conditional state whose terms keep their labels."""
    if input_state is not None and bindings is not None:
        raise ValueError("give either input_state or bindings")
    heralded = _heralded_map(circuit)
    if input_state is None:
        input_state = initial_state(circuit, bindings)
    kept: list[dict] = [{} for _ in circuit.patterns]
    for occ, route, amp in heralded.replay(input_state):
        for i in route:
            kept[i][occ] = amp
    return [ConditionalOutcome(*conditioned(terms), p) for terms, p in zip(kept, circuit.patterns)]


# -- fusion apparatus -------------------------------------------------------


@cache
def build_fusion_circuit() -> Circuit:
    """The three-photon fusion apparatus defined by the shipped ``fusion.lop``.

    Parsed and validated once; later calls return the same frozen circuit.
    """
    from .dsl import load_named_circuit  # dsl imports this module

    return load_named_circuit("fusion")


#: the keys of the fusion apparatus's four tested input bases (``distinguishability.BASES``)
BASIS_KEYS = ("i", "ii", "iii", "iv")

#: ket order of the fused photon: t1H, t1V, t2H, t2V
FUSED_KETS = tuple(((m, p),) for m in ("t1", "t2") for p in (H, V))


def fused_target(amps) -> PureState:
    """The merged single-photon state for qudit amplitudes over ``FUSED_KETS``."""
    return superpose(PureState.vacuum(), amps, FUSED_KETS)


def fusion_input(amps, ancilla_tag: str = "", pair_tag: str = "") -> PureState:
    """The fusion apparatus's input: an H ancilla on ``a`` and the (t, c)
    pair with joint amplitudes (tH cH, tH cV, tV cH, tV cV).

    The tags are the ancilla's and the pair's distinguishability labels.
    """
    kets = [(("t", tp), ("c", cp)) for tp in (H, V) for cp in (H, V)]
    base = PureState.vacuum().create("a", H, ancilla_tag)
    return superpose(base, amps, kets, {"t": pair_tag, "c": pair_tag})


def product_qudit(psi, phi) -> tuple[complex, ...]:
    """Tensor-product amplitudes (a0*c0, a0*c1, a1*c0, a1*c1)."""
    a0, a1 = (complex(x) for x in psi)
    b0, b1 = (complex(x) for x in phi)
    return (a0 * b0, a0 * b1, a1 * b0, a1 * b1)


def run_fusion(psi=None, phi=None, *, entangled=None) -> list[ConditionalOutcome]:
    """Run the fusion apparatus; outcomes ordered HH, HV, VH, VV on (a, c).

    Either two qubit amplitude pairs or a single 4-amplitude entangled input
    for the t/c photon pair.
    """
    circuit = build_fusion_circuit()
    if entangled is not None:
        if psi is not None or phi is not None:
            raise ValueError("give either psi/phi or an entangled input")
        state = fusion_input(normalized_amplitudes(entangled, 4))
        return run_circuit(circuit, input_state=state)
    if psi is None or phi is None:
        raise ValueError("psi and phi amplitude pairs are required")
    return run_circuit(circuit, bindings={"psi": tuple(psi), "phi": tuple(phi)})


def apply_feed_forward(outcome: ConditionalOutcome) -> PureState:
    """Correct a heralded fusion branch onto the canonical merged state.

    A V detection on ``a`` flips H/V on ``t1``; a V detection on ``c`` flips
    them on ``t2``.  Returns the corrected output-photon state on t1/t2.
    """
    req = outcome.pattern.requirement_for
    flips = _FUSION_FLIPS.get((req("a"), req("c")))
    if flips is None:
        raise ValueError("outcome does not carry a fusion detection pattern")
    return apply_elements(outcome.state, flips).factor_on_modes(("t1", "t2"))


#: the fusion feed-forward's flips by the detections on (a, c)
_T1, _T2 = SigmaX("t1"), SigmaX("t2")
_FUSION_FLIPS = {(H, H): (), (H, V): (_T2,), (V, H): (_T1,), (V, V): (_T1, _T2)}


# -- fission apparatus ------------------------------------------------------


@cache
def build_fission_circuit() -> Circuit:
    """The three-photon fission apparatus defined by the shipped ``fission.lop``.

    Parsed and validated once, like the fusion circuit.
    """
    from .dsl import load_named_circuit  # dsl imports this module

    return load_named_circuit("fission")


def run_fission(amps) -> list[ConditionalOutcome]:
    """Run the fission apparatus on qudit amplitudes (c1H, c1V, c2H, c2V).

    Outcomes ordered (H_a, c), (V_a, c), (H_a, c'), (V_a, c').
    """
    return run_circuit(build_fission_circuit(), bindings={"input": tuple(amps)})


#: ket order of the split photon pair: tH cH, tV cH, tH cV, tV cV
SPLIT_KETS = tuple((("t", tp), ("c", cp)) for cp in (H, V) for tp in (H, V))


def fission_success_target(amps) -> PureState:
    """Expected heralded two-photon state on (t, c) over ``SPLIT_KETS``."""
    return superpose(PureState.vacuum(), amps, SPLIT_KETS)


def fission_feed_forward(outcome: ConditionalOutcome) -> PureState:
    """Correct a heralded fission branch onto the canonical split state.

    A V-polarized ancilla needs a sign flip of the V component on ``t``; an
    exit through ``c'`` needs an H/V swap on ``t`` (flip applied first), and
    the output is relabeled onto ``c``.  Returns the two-photon state on
    (t, c).  An outcome of any other pattern is refused.
    """
    if outcome.pattern not in build_fission_circuit().patterns:
        raise ValueError("outcome does not carry a fission detection pattern")
    req = outcome.pattern.requirement_for
    corrections = _FISSION_FLIP * (req("a") == V) + _FISSION_SWAP * (req("c'") == "any")
    return apply_elements(outcome.state, corrections).factor_on_modes(("t", "c"))


#: the fission feed-forward's corrections, applied in this order
_FISSION_FLIP, _FISSION_SWAP = (SignFlipV("t"),), (SigmaX("t"), Relabel("c'", "c"))
