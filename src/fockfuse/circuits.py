"""Circuit container, apparatus builders, and end-to-end runners.

The fusion apparatus merges two polarization qubits (spatial modes ``t`` and
``c``, plus an H-polarized ancilla on ``a``) into one photon spanning modes
``t1``/``t2`` and polarization.  The fission apparatus splits such a
four-dimensional photon (entering on ``c1``/``c2``) back onto two photons
exiting on ``t`` and on one of the two channels ``c``/``c'``.  Detection
heralds success; pattern-dependent unitary corrections (feed-forward) fold
all heralded branches onto the canonical output.

A circuit's elements compile once into a single linear substitution of the
creation operators (``elements.compile_elements``, cached), which
``run_circuit`` applies in one ``PureState.substituted`` call per pure input
branch; feed-forward corrections are applied the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from .elements import (
    Hwp,
    Merge,
    OpticalElement,
    Pbs,
    Relabel,
    SigmaX,
    SignFlipV,
    Unfold,
    apply_elements,
)

# one-element appliers, re-exported: perfbench/tracing.py wraps them here
from .elements import apply_element, apply_relabel, apply_sigma_x, apply_sign_flip_v  # noqa: F401
from .states import (
    H,
    V,
    ConditionalOutcome,
    DetectionPattern,
    DEFAULT_PHOTON_CAP,
    MixedState,
    PureState,
)


class CircuitError(ValueError):
    """Structural problem in a circuit definition."""


@dataclass(frozen=True)
class PhotonIn:
    """A fixed single-photon injection."""

    mode: str
    pol: str
    tag: str = ""


@dataclass(frozen=True)
class QubitSlot:
    """A polarization qubit whose two amplitudes are bound at run time."""

    mode: str
    name: str


@dataclass(frozen=True)
class QuditSlot:
    """A single photon over two modes x polarization, bound at run time.

    Amplitude order: (mode1 H, mode1 V, mode2 H, mode2 V).
    """

    mode1: str
    mode2: str
    name: str


CircuitInput = PhotonIn | QubitSlot | QuditSlot


@dataclass(frozen=True)
class Circuit:
    modes: tuple[str, ...]
    inputs: tuple[CircuitInput, ...]
    elements: tuple[OpticalElement, ...]
    patterns: tuple[DetectionPattern, ...]

    def slot_names(self) -> list[str]:
        return [i.name for i in self.inputs if not isinstance(i, PhotonIn)]

    def input_modes(self) -> list[str]:
        out = []
        for i in self.inputs:
            if isinstance(i, QuditSlot):
                out.extend([i.mode1, i.mode2])
            else:
                out.append(i.mode)
        return out

    def output_modes(self) -> set[str]:
        """Declared modes still live after tracking unfold/merge/relabel."""
        live = set(self.modes) | set(self.input_modes())
        for el in self.elements:
            if isinstance(el, Unfold):
                live.discard(el.src)
                live.update((el.out_h, el.out_v))
            elif isinstance(el, Merge):
                live.discard(el.in_h)
                live.discard(el.in_v)
                live.add(el.out)
            elif isinstance(el, Relabel):
                live.discard(el.src)
                live.add(el.dst)
            elif isinstance(el, Pbs) and (el.in1 in live or el.in2 in live):
                live.discard(el.in1)
                live.discard(el.in2)
                live.update((el.out1, el.out2))
        return live

    def validate(self) -> None:
        declared = set(self.modes)
        if len(self.modes) != len(declared):
            raise CircuitError("duplicate mode declaration")

        def check(mode: str) -> None:
            if mode not in declared:
                raise CircuitError(f"undeclared mode {mode!r}")

        for mode in self.input_modes():
            check(mode)
        retired: set[str] = set()
        for el in self.elements:
            # every string field of an element names a mode
            for mode in (v for v in vars(el).values() if isinstance(v, str)):
                check(mode)
                if mode in retired:
                    raise CircuitError(
                        f"mode {mode!r} reused after being unfolded away"
                    )
            if isinstance(el, Unfold):
                retired.add(el.src)
        live = self.output_modes()
        for pattern in self.patterns:
            for mode in pattern.constrained_modes():
                check(mode)
                if mode not in live:
                    raise CircuitError(
                        f"detection references non-output mode {mode!r}"
                    )


# -- state preparation and running ----------------------------------------


def normalized_amplitudes(amps, n: int, *, tol: float = 1e-9) -> tuple[complex, ...]:
    vec = tuple(complex(a) for a in amps)
    if len(vec) != n:
        raise ValueError(f"expected {n} amplitudes, got {len(vec)}")
    norm = math.sqrt(sum(abs(a) ** 2 for a in vec))
    if norm == 0.0:
        raise ValueError("amplitudes are all zero")
    if abs(norm - 1.0) > tol:
        raise ValueError(f"amplitudes not normalized (norm {norm:.6f})")
    return tuple(a / norm for a in vec)


def initial_state(
    circuit: Circuit,
    bindings: dict[str, tuple[complex, ...]] | None = None,
    *,
    tags: dict[str, str] | None = None,
    cap: int | None = DEFAULT_PHOTON_CAP,
) -> PureState:
    """Build the input state, binding slot amplitudes by name.

    ``tags`` optionally assigns a distinguishability tag per input mode.
    """
    bindings = bindings or {}
    tags = tags or {}
    missing = [n for n in circuit.slot_names() if n not in bindings]
    if missing:
        raise ValueError(f"unbound input slots: {', '.join(missing)}")
    state = PureState.vacuum()
    for inp in circuit.inputs:
        if isinstance(inp, PhotonIn):
            amps, kets, tag = (1.0,), (((inp.mode, inp.pol),),), inp.tag
        elif isinstance(inp, QubitSlot):
            amps = normalized_amplitudes(bindings[inp.name], 2)
            kets, tag = (((inp.mode, H),), ((inp.mode, V),)), ""
        else:
            amps = normalized_amplitudes(bindings[inp.name], 4)
            kets = tuple(((m, p),) for m in (inp.mode1, inp.mode2) for p in (H, V))
            tag = tags.get(inp.mode1, "")
        mode_tags = {m: tags.get(m, tag) for ket in kets for m, _ in ket}
        state = superpose(state, amps, kets, mode_tags, cap)
    return state


def superpose(base: PureState, amps, kets, tags=None, cap=DEFAULT_PHOTON_CAP) -> PureState:
    """Sum of ``a * (base with the ket's photons created)`` over nonzero ``a``.

    A ket is a sequence of ``(mode, pol)`` photons; ``tags`` maps a mode to
    its distinguishability tag.
    """
    tags = tags or {}
    out = PureState.zero()
    for a, ket in zip(amps, kets):
        if a != 0:
            term = base
            for mode, pol in ket:
                term = term.create(mode, pol, tags.get(mode, ""), cap=cap)
            out = out + complex(a) * term
    return out


def run_circuit(
    circuit: Circuit,
    input_state: PureState | MixedState | None = None,
    bindings: dict[str, tuple[complex, ...]] | None = None,
) -> list[ConditionalOutcome]:
    """Apply the compiled circuit once per pure branch, then each detection pattern."""
    if input_state is None:
        input_state = initial_state(circuit, bindings)
    if isinstance(input_state, MixedState):
        evolved: PureState | MixedState = input_state.map_states(
            lambda s: apply_elements(s, circuit.elements)
        )
    else:
        evolved = apply_elements(input_state, circuit.elements)
    return [evolved.project(pattern) for pattern in circuit.patterns]


# -- fusion apparatus -------------------------------------------------------

FUSION_BRANCH_ORDER = ((H, H), (H, V), (V, H), (V, V))


def fusion_patterns() -> tuple[DetectionPattern, ...]:
    """One pattern per (a, c) polarization pair, plus exactly one photon
    across the two target outputs (the fourfold coincidence)."""
    return tuple(
        DetectionPattern.of({"a": pa, "c": pc, ("t1", "t2"): "any"})
        for pa, pc in FUSION_BRANCH_ORDER
    )


@cache
def build_fusion_circuit() -> Circuit:
    """Three-photon fusion apparatus.

    Ancilla Hadamard, copy of ``c`` onto ``a`` at a PBS, Hadamards, unfolding
    of ``t`` into ``t1``/``t2``, target Hadamards (the ``t2`` plate is a NOT
    followed by a Hadamard), the two PBS CNOTs, and exit Hadamards on all
    four outputs.  Built and validated once; later calls return the same
    frozen circuit.
    """
    circuit = Circuit(
        modes=("a", "c", "t", "t1", "t2"),
        inputs=(PhotonIn("a", H), QubitSlot("t", "psi"), QubitSlot("c", "phi")),
        elements=(
            Hwp("a", 22.5),
            Pbs("c", "a", "c", "a"),
            Hwp("a", 22.5),
            Hwp("c", 22.5),
            Unfold("t", "t1", "t2"),
            Hwp("t1", 22.5),
            SigmaX("t2"),
            Hwp("t2", 22.5),
            Pbs("a", "t1", "a", "t1"),
            Pbs("c", "t2", "c", "t2"),
            Hwp("a", 22.5),
            Hwp("c", 22.5),
            Hwp("t1", 22.5),
            Hwp("t2", 22.5),
        ),
        patterns=fusion_patterns(),
    )
    circuit.validate()
    return circuit


def fused_target(amps) -> PureState:
    """The merged single-photon state for qudit amplitudes (t1H, t1V, t2H, t2V)."""
    return superpose(PureState.vacuum(), amps, [((m, p),) for m in ("t1", "t2") for p in (H, V)])


def product_qudit(psi, phi) -> tuple[complex, ...]:
    """Tensor-product amplitudes (a0*c0, a0*c1, a1*c0, a1*c1)."""
    a0, a1 = (complex(x) for x in psi)
    b0, b1 = (complex(x) for x in phi)
    return (a0 * b0, a0 * b1, a1 * b0, a1 * b1)


def run_fusion(
    psi=None,
    phi=None,
    *,
    entangled=None,
) -> list[ConditionalOutcome]:
    """Run the fusion apparatus; outcomes ordered HH, HV, VH, VV on (a, c).

    Either two qubit amplitude pairs or a single 4-amplitude entangled input
    for the t/c photon pair.
    """
    circuit = build_fusion_circuit()
    if entangled is not None:
        if psi is not None or phi is not None:
            raise ValueError("give either psi/phi or an entangled input")
        amps = normalized_amplitudes(entangled, 4)
        kets = [(("t", tp), ("c", cp)) for tp in (H, V) for cp in (H, V)]
        state = superpose(PureState.vacuum().create("a", H), amps, kets)
        return run_circuit(circuit, input_state=state)
    if psi is None or phi is None:
        raise ValueError("psi and phi amplitude pairs are required")
    return run_circuit(circuit, bindings={"psi": tuple(psi), "phi": tuple(phi)})


def apply_feed_forward(outcome: ConditionalOutcome) -> PureState:
    """Correct a heralded fusion branch onto the canonical merged state.

    A V detection on ``a`` flips H/V on ``t1``; a V detection on ``c`` flips
    them on ``t2``.  Returns the corrected output-photon state on t1/t2.
    """
    if not isinstance(outcome.state, PureState):
        raise ValueError("feed-forward applies to pure conditional branches")
    pa = outcome.pattern.requirement_for("a")
    pc = outcome.pattern.requirement_for("c")
    if pa not in (H, V) or pc not in (H, V):
        raise ValueError("outcome does not carry a fusion detection pattern")
    flips = tuple(SigmaX(mode) for mode, pol in (("t1", pa), ("t2", pc)) if pol == V)
    return apply_elements(outcome.state, flips).factor_on_modes(("t1", "t2"))


# -- fission apparatus ------------------------------------------------------

FISSION_BRANCH_ORDER = ((H, "c"), (V, "c"), (H, "c'"), (V, "c'"))


def fission_patterns() -> tuple[DetectionPattern, ...]:
    out = []
    for pa, channel in FISSION_BRANCH_ORDER:
        other = "c'" if channel == "c" else "c"
        out.append(
            DetectionPattern.of({"a": pa, "t": "any", channel: "any", other: "none"})
        )
    return tuple(out)


@cache
def build_fission_circuit() -> Circuit:
    """Three-photon fission apparatus (the fusion layout traversed backwards).

    The four-dimensional photon enters on ``c1``/``c2``; target and ancilla
    photons enter H-polarized on ``t`` and ``a``.  The PBS recombining
    ``c1``/``c2`` has two exits ``c`` and ``c'``; a NOT plate on ``c'``
    aligns that channel's polarization with the ``c`` exit.  Built and
    validated once, like the fusion circuit.
    """
    circuit = Circuit(
        modes=("c1", "c2", "t", "a", "c", "c'"),
        inputs=(QuditSlot("c1", "c2", "input"), PhotonIn("t", H), PhotonIn("a", H)),
        elements=(
            Hwp("a", 22.5),
            Hwp("t", 22.5),
            Hwp("c1", 22.5),
            Hwp("c2", 22.5),
            Pbs("t", "c2", "t", "c2"),
            Pbs("a", "c1", "a", "c1"),
            Hwp("c1", 22.5),
            Hwp("c2", 22.5),
            SigmaX("c2"),
            Pbs("c1", "c2", "c", "c'"),
            SigmaX("c'"),
            Hwp("a", 22.5),
            Hwp("t", 22.5),
            Pbs("t", "a", "t", "a"),
            Hwp("a", 22.5),
        ),
        patterns=fission_patterns(),
    )
    circuit.validate()
    return circuit


def run_fission(amps) -> list[ConditionalOutcome]:
    """Run the fission apparatus on qudit amplitudes (c1H, c1V, c2H, c2V).

    Outcomes ordered (H_a, c), (V_a, c), (H_a, c'), (V_a, c').
    """
    circuit = build_fission_circuit()
    return run_circuit(circuit, bindings={"input": tuple(amps)})


def fission_success_target(amps) -> PureState:
    """Expected split two-photon state on (t, c) for the heralded branch."""
    kets = [(("t", tp), ("c", cp)) for cp in (H, V) for tp in (H, V)]
    return superpose(PureState.vacuum(), amps, kets)


def fission_feed_forward(outcome: ConditionalOutcome) -> PureState:
    """Correct a heralded fission branch onto the canonical split state.

    A V-polarized ancilla needs a sign flip of the V component on ``t``; an
    exit through ``c'`` needs an H/V swap on ``t`` (flip applied first), and
    the output is relabeled onto ``c``.  Returns the two-photon state on
    (t, c).
    """
    if not isinstance(outcome.state, PureState):
        raise ValueError("feed-forward applies to pure conditional branches")
    pa = outcome.pattern.requirement_for("a")
    via_prime = outcome.pattern.requirement_for("c'") == "any"
    if pa not in (H, V):
        raise ValueError("outcome does not carry a fission detection pattern")
    corrections: tuple[OpticalElement, ...] = (SignFlipV("t"),) if pa == V else ()
    if via_prime:
        corrections += (SigmaX("t"), Relabel("c'", "c"))
    return apply_elements(outcome.state, corrections).factor_on_modes(("t", "c"))
