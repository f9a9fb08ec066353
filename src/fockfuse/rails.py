"""Rail-encoded (photon-number) fusion and fission protocols.

A qubit is a pair of abstract rails: |10> is logical 0, |01> logical 1, and
|00> the empty qubit that occurs mid-protocol.  The CNOT acts by the usual
table on populated qubits; on an empty control or target it returns the
state unchanged up to a fixed vacuum passthrough amplitude, and both CNOTs
of a protocol must share that amplitude for the output to be correct.

These protocols are the oracle for the full optical apparatus: the fusion
plus-branch amplitudes here must match the optical H/H-heralded branch, and
fission inverts fusion exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .states import INV_SQRT2, PureState

RailPair = tuple[str, str]

#: rails of the two-qubit state returned by ``fission``
FISSION_C_RAILS: RailPair = ("c_0", "c_1")
FISSION_T_RAILS: RailPair = ("t_0", "t_1")

MAX_FUSED_QUBITS = 4


def _rail_key(rail: str) -> tuple[str, str, str]:
    return (rail, "", "")


def rail_ket(occupied: tuple[str, ...]) -> PureState:
    """Basis ket with one photon in each listed rail."""
    state = PureState.vacuum()
    for rail in occupied:
        state = state.create(rail, "", cap=None)
    return state


def qubit_on(pair: RailPair, amps) -> PureState:
    """a0|10> + a1|01> on a rail pair."""
    a0, a1 = (complex(x) for x in amps)
    return a0 * rail_ket((pair[0],)) + a1 * rail_ket((pair[1],))


def _pair_occupancy(occ, pair: RailPair) -> tuple[int, int]:
    counts = dict(occ)
    return (
        counts.get(_rail_key(pair[0]), 0),
        counts.get(_rail_key(pair[1]), 0),
    )


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
    out: dict = {}
    for occ, amp in joint.items():
        nc = _pair_occupancy(occ, control)
        nt = _pair_occupancy(occ, target)
        if nc not in ((0, 0), (0, 1), (1, 0)) or nt not in ((0, 0), (0, 1), (1, 0)):
            raise ValueError(f"rail occupancy outside the protocol space: {occ}")
        if nc == (0, 0) or nt == (0, 0):
            new_occ, new_amp = occ, amp * vacuum_amp
        elif nc == (1, 0):
            new_occ, new_amp = occ, amp
        else:  # control logical 1: swap the target rails
            counts = dict(occ)
            k0, k1 = _rail_key(target[0]), _rail_key(target[1])
            counts[k0], counts[k1] = counts.get(k1, 0), counts.get(k0, 0)
            new_occ = tuple(sorted((k, n) for k, n in counts.items() if n > 0))
            new_amp = amp
        out[new_occ] = out.get(new_occ, 0.0) + new_amp
    return PureState(out)


def measure_plus_minus(state: PureState, pair: RailPair):
    """Erase a populated qubit by projecting on (|10> +/- |01>)/sqrt(2).

    The measured photon is consumed.  Returns ((p_plus, state_plus),
    (p_minus, state_minus)) with renormalized remainder states (or the
    zero-state marker at probability zero).
    """
    k0, k1 = _rail_key(pair[0]), _rail_key(pair[1])
    collected = {+1: {}, -1: {}}
    for occ, amp in state.items():
        counts = dict(occ)
        n0, n1 = counts.pop(k0, 0), counts.pop(k1, 0)
        rest = tuple(sorted(counts.items()))
        if (n0, n1) == (1, 0):
            collected[+1][rest] = collected[+1].get(rest, 0.0) + amp * INV_SQRT2
            collected[-1][rest] = collected[-1].get(rest, 0.0) + amp * INV_SQRT2
        elif (n0, n1) == (0, 1):
            collected[+1][rest] = collected[+1].get(rest, 0.0) + amp * INV_SQRT2
            collected[-1][rest] = collected[-1].get(rest, 0.0) - amp * INV_SQRT2
        else:
            raise ValueError("erased qubit must carry exactly one photon")
    results = []
    for sign in (+1, -1):
        branch = PureState(collected[sign])
        prob = branch.squared_norm()
        results.append((prob, branch.normalized() if prob > 0 else PureState.zero()))
    return tuple(results)


def erase_to_zero_port(state: PureState, pair: RailPair) -> PureState:
    """Hadamard a rail pair and keep the no-photon-in-the-one-port outcome.

    A populated pair keeps its photon, moved onto the first rail, with
    amplitude 1/sqrt(2); an empty pair passes unchanged.  The result is the
    unnormalized success branch.
    """
    k0, k1 = _rail_key(pair[0]), _rail_key(pair[1])
    out: dict = {}
    for occ, amp in state.items():
        counts = dict(occ)
        n0, n1 = counts.pop(k0, 0), counts.pop(k1, 0)
        if (n0, n1) == (0, 0):
            new_amp = amp
        elif (n0, n1) in ((1, 0), (0, 1)):
            counts[k0] = 1
            new_amp = amp * INV_SQRT2
        else:
            raise ValueError("erased qubit must carry at most one photon")
        new_occ = tuple(sorted((k, n) for k, n in counts.items() if n > 0))
        out[new_occ] = out.get(new_occ, 0.0) + new_amp
    return PureState(out)


# -- fusion -----------------------------------------------------------------

_CONTROL: RailPair = ("c0", "c1")
_TARGET1: RailPair = ("t1a", "t1b")
_TARGET2: RailPair = ("t2a", "t2b")

#: ket order of the fused four-dimensional state
_QUDIT_RAILS = ("t1a", "t1b", "t2a", "t2b")

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


def _qudit_amplitudes(state: PureState) -> tuple[complex, ...]:
    amps = []
    for rail in _QUDIT_RAILS:
        amps.append(state.amplitude(((_rail_key(rail), 1),)))
    return tuple(amps)


def fuse(psi, phi, vacuum_amp: complex = 1.0) -> FusionBranches:
    """Merge two qubits into one four-dimensional carrier.

    The target qubit is unfolded over two zero-initialized rail pairs, both
    pairs receive a CNOT from the same control, and the control is erased in
    the +/- basis.  The plus branch carries the tensor-product amplitudes
    (a0*c0, a0*c1, a1*c0, a1*c1); the minus branch differs by signs undone
    by ``MINUS_BRANCH_CORRECTION``.
    """
    return _fuse_with_vacuum_amps(psi, phi, vacuum_amp, vacuum_amp)


def _fuse_with_vacuum_amps(psi, phi, amp1, amp2) -> FusionBranches:
    """Fusion with per-CNOT vacuum amplitudes; correct only when equal.

    Exposed for fault-injection checks of the shared-passthrough
    requirement.
    """
    a0, a1 = (complex(x) for x in psi)
    b0, b1 = (complex(x) for x in phi)
    joint = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
    return _fuse_joint_with_vacuum_amps(joint, amp1, amp2)


def fuse_joint(amps, vacuum_amp: complex = 1.0) -> FusionBranches:
    """Fusion of an arbitrary (possibly entangled) two-photon rail state.

    ``amps`` indexes the joint state by (target bit, control bit): entry
    2*i + j is the amplitude of target logical i with control logical j.
    The protocol is linear, so the plus branch reproduces the amplitudes.
    """
    return _fuse_joint_with_vacuum_amps(amps, vacuum_amp, vacuum_amp)


def _fuse_joint_with_vacuum_amps(amps, amp1, amp2) -> FusionBranches:
    amps = tuple(complex(x) for x in amps)
    if len(amps) != 4:
        raise ValueError(f"expected 4 joint amplitudes, got {len(amps)}")
    # unfolded target: logical 0 sits on pair t1, logical 1 on pair t2
    joint = PureState.zero()
    for index, amp in enumerate(amps):
        if amp == 0:
            continue
        t_rail = _TARGET1[0] if index < 2 else _TARGET2[0]
        c_rail = _CONTROL[index % 2]
        joint = joint + amp * rail_ket((t_rail, c_rail))
    joint = cnot(joint, _CONTROL, _TARGET1, amp1)
    joint = cnot(joint, _CONTROL, _TARGET2, amp2)
    (p_plus, plus), (p_minus, minus) = measure_plus_minus(joint, _CONTROL)
    return FusionBranches(
        plus_amps=_qudit_amplitudes(plus),
        minus_amps=_qudit_amplitudes(minus),
        plus_probability=p_plus,
        minus_probability=p_minus,
    )


def fuse_iterated(qubits, vacuum_amp: complex = 1.0):
    """Merge n qubits into one 2^n-dimensional carrier, one CNOT round each.

    Returns (amplitudes, success_probability); the amplitudes equal the full
    tensor product of the input pairs (first qubit = most significant bit),
    the probability tracks the plus-branch erasure of every merge step.
    """
    qubits = [tuple(complex(x) for x in q) for q in qubits]
    n = len(qubits)
    if not 1 <= n <= MAX_FUSED_QUBITS:
        raise ValueError(f"can fuse between 1 and {MAX_FUSED_QUBITS} qubits, got {n}")
    # register rails r0..r{2^n-1}; start with qubit 1 on (r0, r1)
    state = qubit_on(("r0", "r1"), qubits[0])
    width = 2
    probability = 1.0
    for q in qubits[1:]:
        # spread rail i onto rail 2i, freeing odd rails as logical-1 slots
        rules = {("r%d" % i, ""): ((("r%d" % (2 * i), ""), 1.0),) for i in reversed(range(width))}
        state = state.substituted(rules)
        width *= 2
        control = ("cx0", "cx1")
        parts = []
        for c_amp, c_rail in zip(q, control):
            if c_amp != 0:
                parts.append(c_amp * state.create(c_rail, "", cap=None))
        state = sum(parts, PureState.zero())
        for i in range(0, width, 2):
            state = cnot(state, control, ("r%d" % i, "r%d" % (i + 1)), vacuum_amp)
        p_plus, state = measure_plus_minus(state, control)[0]
        probability *= p_plus
    amps = tuple(
        state.amplitude(((_rail_key("r%d" % i), 1),)) for i in range(width)
    )
    return amps, probability


# -- fission ----------------------------------------------------------------

_SRC1: RailPair = ("s0", "s1")
_SRC2: RailPair = ("s2", "s3")
_FISSION_TARGET: RailPair = ("u0", "u1")


def fission(qudit, vacuum_amp: complex = 1.0):
    """Split a four-dimensional carrier onto two qubits.

    The four input rails are grouped into two control pairs acting on a
    shared logical-zero target; both control pairs are then Hadamard-erased
    keeping the logical-zero ports, and the surviving rails form the output
    control qubit.  Returns (state, probability) with the normalized
    two-qubit state on FISSION_C_RAILS x FISSION_T_RAILS.
    """
    amps = tuple(complex(x) for x in qudit)
    if len(amps) != 4:
        raise ValueError(f"expected 4 amplitudes, got {len(amps)}")
    rails = (_SRC1[0], _SRC1[1], _SRC2[0], _SRC2[1])
    source = sum(
        (a * rail_ket((rail,)) for a, rail in zip(amps, rails) if a != 0),
        PureState.zero(),
    )
    state = source.create(_FISSION_TARGET[0], "", cap=None)
    state = cnot(state, _SRC1, _FISSION_TARGET, vacuum_amp)
    state = cnot(state, _SRC2, _FISSION_TARGET, vacuum_amp)
    state = erase_to_zero_port(state, _SRC1)
    state = erase_to_zero_port(state, _SRC2)
    # surviving rails s0/s2 become the output control qubit
    state = state.substituted(
        {
            (_SRC1[0], ""): (((FISSION_C_RAILS[0], ""), 1.0),),
            (_SRC2[0], ""): (((FISSION_C_RAILS[1], ""), 1.0),),
            (_FISSION_TARGET[0], ""): (((FISSION_T_RAILS[0], ""), 1.0),),
            (_FISSION_TARGET[1], ""): (((FISSION_T_RAILS[1], ""), 1.0),),
        }
    )
    probability = state.squared_norm()
    if probability <= 0.0:
        return PureState.zero(), 0.0
    return state.normalized(), probability


def two_qubit_ket(c_bit: int, t_bit: int) -> PureState:
    """|c_bit>_c |t_bit>_t on the fission output rails."""
    return rail_ket((FISSION_C_RAILS[c_bit], FISSION_T_RAILS[t_bit]))


def two_qubit_state(c_amps, t_amps) -> PureState:
    """Product state on the fission output rails."""
    out = PureState.zero()
    for i, ca in enumerate(complex(x) for x in c_amps):
        for j, ta in enumerate(complex(x) for x in t_amps):
            if ca * ta != 0:
                out = out + (ca * ta) * two_qubit_ket(i, j)
    return out
