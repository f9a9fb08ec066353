"""Rail-encoded (photon-number) fusion and fission protocols.

A qubit is a pair of abstract rails: |10> is logical 0, |01> logical 1, and
|00> the empty qubit that occurs mid-protocol.  The CNOT acts by the usual
table on populated qubits; on an empty control or target it returns the
state unchanged up to a fixed vacuum passthrough amplitude, and both CNOTs
of a protocol must share that amplitude for the output to be correct.

These protocols are the oracle for the full optical apparatus: the fusion
plus-branch amplitudes here must match the optical H/H-heralded branch, and
fission inverts fusion exactly.

Each rail step is a table, in ``_STEPS``, from the photon counts on its
rails to the counts it leaves there and the sign ``moved`` reads.  One
builder, ``_rail_plan``, applies a table to every term of a support,
and refuses a term whose counts the table lacks; the plan is kept and
replayed by the rule stated in ``fockfuse.states``.

A fusion round on a register of width w (rails r0..r{w-1}) CNOTs the
control onto each pair (r_k, r_{k+w}): the control's bit becomes the top
bit of the rail index, no rail is relabelled, and the amplitudes, first
qubit most significant, are read in bit-reversed rail order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import normalized_amplitudes, product_qudit, rescaled_amplitudes
from .states import INV_SQRT2, PureState, conditioned, make_key, moved, planned, superpose

RailPair = tuple[str, str]

#: rails of the two-qubit state returned by ``fission``
FISSION_C_RAILS: RailPair = ("c_0", "c_1")
FISSION_T_RAILS: RailPair = ("t_0", "t_1")
#: its kets in the order c0t0, c0t1, c1t0, c1t1
SPLIT_RAIL_KETS = tuple(((c, ""), (t, "")) for c in FISSION_C_RAILS for t in FISSION_T_RAILS)

MAX_FUSED_QUBITS = 4


def rail_ket(occupied: tuple[str, ...]) -> PureState:
    """Basis ket with one photon in each listed rail."""
    return superpose(PureState.vacuum(), (1.0,), (tuple((rail, "") for rail in occupied),))


def qubit_on(pair: RailPair, amps) -> PureState:
    """a0|10> + a1|01> on a rail pair."""
    return superpose(PureState.vacuum(), amps, tuple(((rail, ""),) for rail in pair))


#: a rail pair's counts: the empty qubit, logical 0 and logical 1
_EMPTY, _ZERO, _ONE = (0, 0), (1, 0), (0, 1)

#: each rail step's table and refusal message
_STEPS = {
    # counts on the control rails, then the target rails
    "cnot": (
        {
            # an empty control or target takes the passthrough amplitude
            _EMPTY + _EMPTY: (_EMPTY + _EMPTY, 1),
            _EMPTY + _ZERO: (_EMPTY + _ZERO, 1),
            _EMPTY + _ONE: (_EMPTY + _ONE, 1),
            _ZERO + _EMPTY: (_ZERO + _EMPTY, 1),
            _ONE + _EMPTY: (_ONE + _EMPTY, 1),
            # both populated: a logical-1 control swaps the target
            _ZERO + _ZERO: (_ZERO + _ZERO, 0),
            _ZERO + _ONE: (_ZERO + _ONE, 0),
            _ONE + _ZERO: (_ONE + _ONE, 0),
            _ONE + _ONE: (_ONE + _ZERO, 0),
        },
        "rail occupancy outside the protocol space: {}",
    ),
    # a populated pair's photon moves onto its first rail
    "erase": (
        {_EMPTY: (_EMPTY, 0), _ZERO: (_ZERO, 1), _ONE: (_ZERO, 1)},
        "erased qubit must carry at most one photon",
    ),
    # the pair's one photon is consumed, with a sign on the second rail in minus
    "plus": ({_ZERO: (_EMPTY, 1), _ONE: (_EMPTY, 1)}, "erased qubit must carry exactly one photon"),
    "minus": ({_ZERO: (_EMPTY, 1), _ONE: (_EMPTY, -1)}, "erased qubit must carry exactly one photon"),
}


def _rail_plan(support, step: str, rails: tuple[str, ...]):
    """For each occupation of ``support``: its counts on ``rails`` replaced
    by the ``step`` table's row for them, and that row's sign."""
    table, refusal = _STEPS[step]
    keys = [make_key(rail, "") for rail in rails]
    plan = []
    for occ in support:
        counts = dict(occ)
        row = table.get(tuple(counts.pop(key, 0) for key in keys))
        if row is None:
            raise ValueError(refusal.format(occ))
        counts.update((key, n) for key, n in zip(keys, row[0]) if n)
        plan.append((tuple(sorted(counts.items())), row[1]))
    return tuple(plan)


def cnot(
    joint: PureState,
    control: RailPair,
    target: RailPair,
    vacuum_amp: complex = 1.0,
) -> PureState:
    """Dual-rail CNOT with empty-qubit passthrough.

    Populated control/target follow the CNOT table; an empty control or an
    empty target leaves the term unchanged scaled by ``vacuum_amp``.
    """
    if set(control) & set(target):
        raise ValueError("control and target rails overlap")
    return moved(joint, planned(_rail_plan, tuple(joint._terms), "cnot", (*control, *target)), vacuum_amp)


def measure_plus_minus(state: PureState, pair: RailPair):
    """Erase a populated qubit by projecting on (|10> +/- |01>)/sqrt(2).

    The measured photon is consumed.  Returns the (plus, minus) branches,
    each ``conditioned`` as ``(probability, state)``.
    """
    return tuple(
        conditioned(moved(state, planned(_rail_plan, tuple(state._terms), step, tuple(pair)), INV_SQRT2)._terms)
        for step in ("plus", "minus")
    )


def erase_to_zero_port(state: PureState, pair: RailPair) -> PureState:
    """Hadamard a rail pair and keep the no-photon-in-the-one-port outcome.

    A populated pair keeps its photon, moved onto the first rail, with
    amplitude 1/sqrt(2); an empty pair passes unchanged.  The result is the
    unnormalized success branch.
    """
    return moved(state, planned(_rail_plan, tuple(state._terms), "erase", tuple(pair)), INV_SQRT2)


# -- fusion -----------------------------------------------------------------

#: control rails of a fusion round
_CONTROL: RailPair = ("cx0", "cx1")

MINUS_BRANCH_CORRECTION = (1.0, -1.0, 1.0, -1.0)


@dataclass(frozen=True)
class FusionBranches:
    """Both erasure outcomes of the rail-level fusion."""

    plus_amps: tuple[complex, ...]
    minus_amps: tuple[complex, ...]
    plus_probability: float
    minus_probability: float

    def minus_corrected(self) -> tuple[complex, ...]:
        return tuple(a * c for a, c in zip(self.minus_amps, MINUS_BRANCH_CORRECTION))


def _register_kets(width: int):
    """One-photon kets of register rails r0..r{width-1}, in bit-reversed order."""
    bits = width.bit_length() - 1
    return tuple(((f"r{int(f'{i:0{bits}b}'[::-1], 2)}", ""),) for i in range(width))


#: joint kets by (target bit, control bit): the target's logical t on rail rt
_JOINT_KETS = tuple(((f"r{t}", ""), (c, "")) for t in (0, 1) for c in _CONTROL)


def _fusion_round(joint: PureState, vacuum_amps):
    """CNOT pair (r_k, r_{k+w}), w = len(vacuum_amps), from the control with
    passthrough amplitude ``vacuum_amps[k]``, then erase the control in the
    +/- basis; returns ``measure_plus_minus``'s (plus, minus) branches."""
    width = len(vacuum_amps)
    for k, amp in enumerate(vacuum_amps):
        joint = cnot(joint, _CONTROL, (f"r{k}", f"r{k + width}"), amp)
    return measure_plus_minus(joint, _CONTROL)


def fuse(psi, phi, vacuum_amp: complex = 1.0) -> FusionBranches:
    """Merge two qubits into one four-dimensional carrier.

    The target qubit is unfolded over two zero-initialized rail pairs, both
    pairs receive a CNOT from the same control, and the control is erased in
    the +/- basis.  The plus branch carries the tensor-product amplitudes
    (a0*c0, a0*c1, a1*c0, a1*c1); the minus branch differs by signs undone
    by ``MINUS_BRANCH_CORRECTION``.  Each qubit is rescaled first, so
    that their product neither overflows nor underflows.
    """
    psi, phi = (rescaled_amplitudes(q, 2)[0] for q in (psi, phi))
    return fuse_joint(product_qudit(psi, phi), vacuum_amp)


def fuse_joint(amps, vacuum_amp: complex = 1.0) -> FusionBranches:
    """Fusion of an arbitrary (possibly entangled) two-photon rail state.

    ``amps`` indexes the joint state by (target bit, control bit): entry
    2*i + j is the amplitude of target logical i with control logical j.
    The protocol is linear, so the plus branch reproduces the amplitudes,
    and the probabilities do not depend on the input's scale.
    """
    return _fuse_joint_with_vacuum_amps(amps, vacuum_amp, vacuum_amp)


def _fuse_joint_with_vacuum_amps(amps, amp1, amp2) -> FusionBranches:
    """Fusion with per-CNOT vacuum amplitudes; correct only when equal.

    Exposed for fault-injection checks of the shared-passthrough
    requirement.
    """
    amps, squared_norm = rescaled_amplitudes(amps, 4)
    joint = superpose(PureState.vacuum(), amps, _JOINT_KETS)
    (p_plus, plus), (p_minus, minus) = _fusion_round(joint, (amp1, amp2))
    return FusionBranches(
        plus_amps=plus.amplitudes(_register_kets(4)),
        minus_amps=minus.amplitudes(_register_kets(4)),
        plus_probability=p_plus / squared_norm,
        minus_probability=p_minus / squared_norm,
    )


def fuse_iterated(qubits, vacuum_amp: complex = 1.0):
    """Merge n qubits into one 2^n-dimensional carrier, one fusion round each.

    Returns (amplitudes, success_probability); the amplitudes equal the full
    tensor product of the input pairs (first qubit = most significant bit),
    the probability tracks the plus-branch erasure of every merge step.
    """
    n = len(qubits)
    if not 1 <= n <= MAX_FUSED_QUBITS:
        raise ValueError(f"can fuse between 1 and {MAX_FUSED_QUBITS} qubits, got {n}")
    qubits = [normalized_amplitudes(q, 2) for q in qubits]
    # register rails r0..r{2^n-1}; start with qubit 1 on (r0, r1)
    state = qubit_on(("r0", "r1"), qubits[0])
    width = 2
    probability = 1.0
    for q in qubits[1:]:
        state = superpose(state, q, tuple(((c_rail, ""),) for c_rail in _CONTROL))
        p_plus, state = _fusion_round(state, [vacuum_amp] * width)[0]
        width *= 2
        probability *= p_plus
    return state.amplitudes(_register_kets(width)), probability


# -- fission ----------------------------------------------------------------

#: the input's two control pairs; erasure leaves each pair's photon on its
#: first rail, and those rails are the output control qubit
_SRC1: RailPair = (FISSION_C_RAILS[0], "s1")
_SRC2: RailPair = (FISSION_C_RAILS[1], "s3")


def fission(qudit, vacuum_amp: complex = 1.0):
    """Split a four-dimensional carrier onto two qubits.

    The four input rails are grouped into two control pairs acting on a
    shared logical-zero target; both control pairs are then Hadamard-erased
    keeping the logical-zero ports, which leaves the output control qubit.
    Returns (state, probability) with the normalized two-qubit state on
    FISSION_C_RAILS x FISSION_T_RAILS; the probability does not depend on
    the input's scale.
    """
    amps, squared_norm = rescaled_amplitudes(qudit, 4)
    state = superpose(PureState.vacuum(), amps, tuple(((rail, ""),) for rail in _SRC1 + _SRC2))
    state = state.create(FISSION_T_RAILS[0], "")
    state = cnot(state, _SRC1, FISSION_T_RAILS, vacuum_amp)
    state = cnot(state, _SRC2, FISSION_T_RAILS, vacuum_amp)
    state = erase_to_zero_port(state, _SRC1)
    state = erase_to_zero_port(state, _SRC2)
    probability, state = conditioned(state._terms)
    return state, probability / squared_norm


def two_qubit_state(c_amps, t_amps) -> PureState:
    """Product state on the fission output rails."""
    return superpose(PureState.vacuum(), product_qudit(c_amps, t_amps), SPLIT_RAIL_KETS)
