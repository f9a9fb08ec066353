"""Circuit container, the two apparatuses, and end-to-end runners.

The fusion apparatus merges two polarization qubits (spatial modes ``t`` and
``c``, plus an H-polarized ancilla on ``a``) into one photon spanning modes
``t1``/``t2`` and polarization.  The fission apparatus splits such a
four-dimensional photon (entering on ``c1``/``c2``) back onto two photons
exiting on ``t`` and on one of the two channels ``c``/``c'``.  Each one's
optics and patterns are defined by the ``fusion.lop`` or ``fission.lop``
file shipped in ``fockfuse.data``; ``build_fusion_circuit`` and
``build_fission_circuit`` parse it once per process.  Detection heralds
success; each pattern's corrections (feed-forward) and the output modes
are part of the circuit, declared in its ``.lop``, and fold every heralded
branch onto the canonical output.

A circuit's input replays one ``states.product_plan`` over its inputs,
kept per circuit and tags; targets are built by ``states.superpose``.  A
circuit's elements compile once (``elements.compile_elements``, cached)
into one ``MemoRules`` map: a linear substitution of the creation operators
that carries the elements' checks.  A circuit is validated once, when it is
built; ``run_circuit`` pushes its input, a mixture included, through one
replay of its heralded map: the same map and checks with every output
occupation that none of the circuit's patterns admits dropped, so it
computes only the terms a detector can herald, each with the patterns that
admit it.  Each branch's feed-forward (``corrected``) is one replay of a map
too: its corrections, factoring onto the output modes as it goes.
"""

from __future__ import annotations

import re
from functools import cache, lru_cache

from .elements import ElementError, OpticalElement, Unfold, block, compile_elements

# re-exported: perfbench/tracing.py wraps these here, and perfbench/workloads.py calls product_qudit
from .elements import apply_element, apply_relabel, apply_sigma_x, apply_sign_flip_v  # noqa: F401
from .states import product_qudit  # noqa: F401
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
    normalized_amplitudes,
    product_plan,
    superpose,
    superposed,
)

#: a mode or slot name: one token that ``--bind name=...`` and a ``+`` group can hold
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
#: the one record field that holds a number, an ``Hwp``'s angle in degrees
ANGLE = "theta"
#: input fields that do not name a mode -> (test, message for a failing value)
_FIELD_RULES = {
    "pol": (lambda pol: pol in (H, V), "polarization must be H or V, got {!r}"),
    "tag": (re.compile(r"[^\s#]*").fullmatch, "tag must be one token without '#', got {!r}"),
    "name": (_NAME.fullmatch, "invalid slot name {!r}"),
}


class CircuitError(ValueError):
    """Structural problem in a circuit definition.

    ``entry`` is the failing ``(section, index)``, a section being a field
    of ``Circuit`` (``"feed_forward"`` indexes every pattern's corrections in
    turn); ``mode`` is the mode involved, or ``field`` the element field
    holding a bad value.
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
    feed_forward: tuple[tuple[OpticalElement, ...], ...] = ()  # each pattern's corrections
    output: tuple[str, ...] = ()  # the modes a corrected branch is factored onto

    def __post_init__(self):
        if not any(self.feed_forward):  # no corrections: an empty one per pattern
            object.__setattr__(self, "feed_forward", ((),) * len(self.patterns))
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
        refuses, or is a pattern, output or correction on a non-output mode;
        corrections, a tuple per pattern and alike for equal ones, need output."""
        declared: set[str] = set()
        for i, mode in enumerate(self.modes):
            if not _NAME.fullmatch(mode) or mode == "then":  # `then` starts a detect line's corrections
                raise CircuitError(f"invalid mode name {mode!r}", ("modes", i), mode)
            if mode in declared:
                raise CircuitError(f"mode {mode!r} declared twice", ("modes", i), mode)
            declared.add(mode)

        def check(mode: str, entry: tuple[str, int], role: str = "") -> None:
            if mode not in declared:
                raise CircuitError(f"undeclared mode {mode!r}", entry, mode)
            if role and mode not in live:
                raise CircuitError(f"{role} references non-output mode {mode!r}", entry, mode)

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
                    elif name != ANGLE:  # every other field but the angle names a mode
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
            for mode in sorted(pattern.constrained_modes()):
                check(mode, ("patterns", i), "detection")
        for i, mode in enumerate(self.output):
            check(mode, ("output", i), "output")
        corrections = [element for tail in self.feed_forward for element in tail]
        if len(self.feed_forward) != len(self.patterns):
            raise CircuitError("feed_forward needs one tuple per pattern", ("feed_forward", 0))
        if corrections and not self.output:
            raise CircuitError("corrections need an 'output' directive", ("feed_forward", 0))
        for i, element in enumerate(corrections):
            for mode in [value for name, value in vars(element).items() if name != ANGLE]:
                check(mode, ("feed_forward", i), "correction")
            try:
                block(element)
            except ElementError as exc:
                raise CircuitError(str(exc), ("feed_forward", i), field=exc.field) from None
        tails: dict = {}
        for i, (pattern, tail) in enumerate(zip(self.patterns, self.feed_forward)):
            if tails.setdefault(pattern.requirements, tail) != tail:
                raise CircuitError("pattern repeats an earlier one with other corrections", ("patterns", i))


# -- state preparation and running ----------------------------------------


@lru_cache(maxsize=PLAN_LIMIT)
def _heralded_map(circuit: Circuit) -> MemoRules:
    """The circuit's compiled map, with its elements' checks and patterns: it
    keeps only the output occupations one of them admits, each with its route."""
    compiled = compile_elements(circuit.elements)
    return MemoRules(compiled, compiled.checks, circuit.patterns)


@lru_cache(maxsize=PLAN_LIMIT)
def _input_plan(circuit: Circuit, tags: tuple):
    """The ``product_plan`` from the vacuum over the circuit's inputs, each
    slot's photon on H and V of each of its modes, on the ``tags`` of its
    modes; refuses a tag on a mode that no input occupies."""
    tags, slots, occupied = dict(tags), [], set()
    for inp in circuit.inputs:
        if isinstance(inp, PhotonIn):
            kets, tag = (((inp.mode, inp.pol),),), inp.tag
        else:
            modes = (inp.mode1, inp.mode2) if isinstance(inp, QuditSlot) else (inp.mode,)
            kets, tag = tuple(((m, p),) for m in modes for p in (H, V)), tags.get(modes[0], "")
        mode_tags = {m: tags.get(m, tag) for ket in kets for m, _ in ket}
        occupied.update(mode_tags)
        slots.append((kets, tuple(mode_tags.items())))
    stray = [m for m in tags if m not in occupied]
    if stray:
        raise ValueError(f"no input on mode {', '.join(map(repr, stray))}")
    return product_plan(((),), *slots)


def initial_state(
    circuit: Circuit,
    bindings: dict[str, tuple[complex, ...]] | None = None,
    *,
    tags: dict[str, str] | None = None,
) -> PureState:
    """Build the input state, binding each slot's amplitudes by name; ``tags``
    optionally assigns a distinguishability tag per mode an input occupies.
    The product over the inputs replays one plan per circuit and tags."""
    bindings = bindings or {}
    tags = tags or {}
    slots = circuit.slot_names()
    missing = [n for n in slots if n not in bindings]
    if missing:
        raise ValueError(f"unbound input slots: {', '.join(missing)}")
    unknown = [n for n in bindings if n not in slots]
    if unknown:
        raise ValueError(f"no input slot named {', '.join(map(repr, unknown))}")
    amps = []
    for inp in circuit.inputs:
        if isinstance(inp, PhotonIn):
            amps.append((1.0,))
            continue
        try:  # a slot's photon on H and V of each of its modes
            amps.append(normalized_amplitudes(bindings[inp.name], 4 if isinstance(inp, QuditSlot) else 2))
        except ValueError as exc:
            raise ValueError(f"slot {inp.name!r}: {exc}") from None
    plan = _input_plan(circuit, tuple(tags.items()))
    return superposed(plan, amps) if plan else PureState.vacuum()


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


@lru_cache(maxsize=PLAN_LIMIT)
def _feed_forward(circuit: Circuit) -> dict:
    """Each pattern's corrections compiled into one map that factors onto the
    output modes, by its requirements (compared without ``Record.__eq__``)."""
    maps = {}
    for pattern, corrections in zip(circuit.patterns, circuit.feed_forward):
        compiled = compile_elements(corrections)
        maps[pattern.requirements] = MemoRules(compiled, compiled.checks, modes=circuit.output or None)
    return maps


def corrected(outcome: ConditionalOutcome, circuit: Circuit, name: str = "matching") -> PureState:
    """``outcome``'s state through its pattern's corrections, factored onto the
    output modes; a pattern the circuit lacks is refused, naming it ``name``."""
    correction = _feed_forward(circuit).get(outcome.pattern.requirements)
    if correction is None:
        raise ValueError(f"outcome does not carry a {name} detection pattern")
    return outcome.state.substituted(correction)


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
    """Correct a heralded fusion branch onto the merged state on t1/t2, as
    ``fusion.lop`` declares; an outcome of any other pattern is refused."""
    return corrected(outcome, build_fusion_circuit(), "fusion")


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
    """Correct a heralded fission branch onto the split state on (t, c), as
    ``fission.lop`` declares; an outcome of any other pattern is refused."""
    return corrected(outcome, build_fission_circuit(), "fission")
