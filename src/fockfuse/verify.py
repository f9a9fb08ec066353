"""Self-verification suite: every library invariant as a runnable check.

``CHECKS`` is the one statement of these invariants: ``fockfuse verify``
runs it at one seed and the acceptance tests at several.  Each check takes
a seed and returns None on success or a short failure description, and is
deterministic for a fixed seed.  Amplitudes, fidelities and matrix entries
are compared at ``TOL``.
"""

from __future__ import annotations

import cmath
import math
import random
import time

from .circuits import (
    FUSED_KETS,
    apply_feed_forward,
    build_fusion_circuit,
    fission_feed_forward,
    fission_success_target,
    fused_target,
    initial_state,
    run_circuit,
    run_fission,
    run_fusion,
)
from .distinguishability import (
    BASIS_KEYS,
    KETS,
    average_fidelity,
    closed_form_matrix,
    coincidence_weighted_fidelity,
    fit_p,
    similarity,
    simulate_basis_matrix,
    simulated_average_fidelity,
)
from .dsl import SHIPPED, ParseError, parse_circuit, serialize_circuit
from .elements import Hwp, Pbs, SigmaX, apply_element
from .rails import (
    FusionBranches,
    _fuse_joint_with_vacuum_amps,
    fission as rail_fission,
    fuse as rail_fuse,
    fuse_iterated,
    two_qubit_state,
)
from .states import (
    H,
    INV_SQRT2,
    V,
    DetectionPattern,
    MixedState,
    PureState,
    fidelity,
    normalized_amplitudes,
    product_qudit,
    superpose,
)

TOL = 1e-10
IDENTITY = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))
#: random inputs drawn by the fusion-correctness and oracle checks
N_RANDOM = 20


def random_qubit(rng: random.Random) -> tuple[complex, ...]:
    return normalized_amplitudes([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)], 2)


def random_qudit(rng: random.Random) -> tuple[complex, ...]:
    return normalized_amplitudes([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)], 4)


def phase_aligned_difference(got, want) -> float:
    """Largest entrywise gap after removing the global phase of ``got``."""
    pivot = max(range(len(want)), key=lambda i: abs(want[i]))
    phase = 1.0 if abs(got[pivot]) == 0 else want[pivot] / got[pivot]
    return max(abs(g * phase / abs(phase) - w) for g, w in zip(got, want))


def _max_gap(a, b) -> float:
    """Largest entrywise difference of two matrices."""
    return max(abs(x - y) for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b))


def _fused_qudit(state: PureState) -> tuple[complex, ...]:
    """Normalized single-photon amplitudes over ``FUSED_KETS`` of a fused state."""
    return normalized_amplitudes(state.amplitudes(FUSED_KETS), 4)


def _random_state(rng, n_photons: int = 2) -> PureState:
    modes = ("a", "c", "t1", "t2")
    state = PureState.zero()
    for _ in range(3):
        term = PureState.vacuum()
        for _ in range(n_photons):
            term = term.create(rng.choice(modes), rng.choice((H, V)), rng.choice(("", "A", "B")))
        z = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        state = state + z * term
    return state.normalized()


def check_element_conservation(seed: int) -> str | None:
    rng = random.Random(seed)
    elements = [
        Hwp("a", 22.5),
        Hwp("t1", -22.5),
        Hwp("c", 10.0),
        Pbs("a", "c", "a", "c"),
        Pbs("t1", "t2", "t1", "t2"),
        SigmaX("t1"),
    ]
    for _ in range(30):
        state = _random_state(rng)
        element = rng.choice(elements)
        out = apply_element(state, element)
        if abs(out.squared_norm() - 1.0) > 1e-12:
            return f"{element} changed the norm to {out.squared_norm()}"
        if out.max_photons() != state.max_photons():
            return f"{element} changed the photon count"
    return None


def check_hwp_involution(seed: int) -> str | None:
    rng = random.Random(seed)
    for _ in range(20):
        theta = rng.uniform(-90, 90)
        state = _random_state(rng)
        twice = apply_element(apply_element(state, Hwp("a", theta)), Hwp("a", theta))
        if abs(fidelity(twice, state) - 1.0) > 1e-12:
            return f"HWP({theta}) applied twice is not the identity"
    return None


def check_projection_completeness(seed: int) -> str | None:
    rng = random.Random(seed)
    reqs = (H, V, "none")
    for _ in range(10):
        # one photon in each of two modes keeps the mode family exhaustive
        amps = product_qudit(random_qubit(rng), random_qubit(rng))
        kets = tuple((("a", pa), ("c", pc)) for pa in (H, V) for pc in (H, V))
        state = superpose(PureState.vacuum(), amps, kets)
        total = 0.0
        for ra in reqs:
            for rc in reqs:
                total += state.project(DetectionPattern.of({"a": ra, "c": rc})).probability
        if abs(total - state.squared_norm()) > 1e-12:
            return f"exhaustive pattern probabilities sum to {total}"
    return None


def _heralded_failure(outcomes, feed_forward, target) -> str | None:
    """The apparatus heralding rule: every branch at 1/32, each fed forward
    onto ``target``, and 1/8 in total (so four branches)."""
    for outcome in outcomes:
        if abs(outcome.probability - 1 / 32) > 1e-12:
            return f"branch probability {outcome.probability} is not 1/32"
        corrected = feed_forward(outcome)
        if fidelity(corrected, target) < 1.0 - TOL:
            return f"feed-forward fidelity {fidelity(corrected, target)}"
    total = sum(outcome.probability for outcome in outcomes)
    if abs(total - 1 / 8) > 1e-12:
        return f"total heralded probability {total} is not 1/8"
    return None


def check_fusion_correctness(seed: int) -> str | None:
    rng = random.Random(seed)
    for _ in range(N_RANDOM):
        psi, phi = random_qubit(rng), random_qubit(rng)
        target = fused_target(product_qudit(psi, phi))
        if failure := _heralded_failure(run_fusion(psi, phi), apply_feed_forward, target):
            return failure
    return None


def check_fusion_hom_filter(seed: int) -> str | None:
    rng = random.Random(seed)
    for _ in range(10):
        outcomes = run_fusion(random_qubit(rng), random_qubit(rng))
        for outcome in outcomes:
            for occ, _amp in outcome.state.items():
                per_mode: dict = {}
                for (mode, _ch, _tag), n in occ:
                    per_mode[mode] = per_mode.get(mode, 0) + n
                if per_mode.get("a", 0) != 1 or per_mode.get("c", 0) != 1:
                    return f"kept term with occupancy {per_mode}"
                if per_mode.get("t1", 0) + per_mode.get("t2", 0) != 1:
                    return f"kept term with {per_mode} photons across t1/t2"
                if max(per_mode.values()) > 1:
                    return f"kept term with two photons in one mode: {per_mode}"
    return None


def check_fusion_entangled_linearity(seed: int) -> str | None:
    rng = random.Random(seed)
    for _ in range(10):
        amps = random_qudit(rng)
        outcome = run_fusion(entangled=amps)[0]
        target = fused_target(amps)
        corrected = apply_feed_forward(outcome)
        if fidelity(corrected, target) < 1.0 - TOL:
            return f"entangled-input fidelity {fidelity(corrected, target)}"
    return None


def check_fusion_spectator_entanglement(seed: int) -> str | None:
    rng = random.Random(seed)
    circuit = build_fusion_circuit()
    for _ in range(5):
        psi = random_qubit(rng)
        # spectator photon on mode s maximally entangled with the c photon
        state = PureState.vacuum().create("a", H)
        state = psi[0] * state.create("t", H) + psi[1] * state.create("t", V)
        state = INV_SQRT2 * (
            state.create("s", H).create("c", H) + state.create("s", V).create("c", V)
        )
        detected = run_circuit(circuit, input_state=state)[0]  # a and c both H
        if abs(detected.probability - 1 / 32) > 1e-12:
            return f"spectator branch probability {detected.probability} is not 1/32"
        expected = PureState.zero()
        for j, pol in enumerate((H, V)):
            amps = [0.0, 0.0, 0.0, 0.0]
            amps[j] = psi[0]
            amps[j + 2] = psi[1]
            expected = expected + INV_SQRT2 * (
                fused_target(amps).create("s", pol)
            )
        joint = detected.state.factor_on_modes(("s", "t1", "t2"))
        if fidelity(joint, expected) < 1.0 - TOL:
            return f"spectator joint-state fidelity {fidelity(joint, expected)}"
    return None


def check_oracle_equivalence(seed: int) -> str | None:
    rng = random.Random(seed)
    pairs = [(KETS[a], KETS[b]) for a in KETS for b in KETS]
    pairs += [(random_qubit(rng), random_qubit(rng)) for _ in range(N_RANDOM)]
    for psi, phi in pairs:
        optical = _fused_qudit(apply_feed_forward(run_fusion(psi, phi)[0]))
        gap = phase_aligned_difference(optical, rail_fuse(psi, phi).plus_amps)
        if gap > TOL:
            return f"optical/abstract amplitude gap {gap:.2e} at psi={psi}, phi={phi}"
    return None


def check_eta_requirement(seed: int) -> str | None:
    rng = random.Random(seed)
    plus = KETS["+"]
    reference = fused_target(rail_fuse(plus, plus).plus_amps)
    for _ in range(10):
        eta = cmath.rect(rng.uniform(0.2, 1.0), rng.uniform(0, 2 * math.pi))
        branches = rail_fuse(plus, plus, vacuum_amp=eta)
        if fidelity(reference, fused_target(branches.plus_amps)) < 1.0 - TOL:
            return f"shared vacuum amplitude {eta} changed the fused state"
    mismatched: FusionBranches = _fuse_joint_with_vacuum_amps(product_qudit(plus, plus), 1.0, 0.5)
    if fidelity(reference, fused_target(mismatched.plus_amps)) > 1.0 - 1e-6:
        return "mismatched vacuum amplitudes were not detected"
    return None


def check_iterated_fusion(seed: int) -> str | None:
    rng = random.Random(seed)
    for n in range(1, 5):
        for index in range(2**n):
            qubits = [
                KETS["H"] if (index >> (n - 1 - k)) & 1 == 0 else KETS["V"]
                for k in range(n)
            ]
            amps, _prob = fuse_iterated(qubits)
            expected = [float(i == index) for i in range(2**n)]
            if phase_aligned_difference(amps, expected) > TOL:
                return f"basis input {index} of n={n} not reproduced"
    for _ in range(10):
        qubits = [random_qubit(rng) for _ in range(3)]
        amps, _prob = fuse_iterated(qubits)
        product = [x * y * z for x in qubits[0] for y in qubits[1] for z in qubits[2]]
        gap = phase_aligned_difference(amps, product)
        if gap > TOL:
            return f"n=3 iterated fusion amplitude gap {gap:.2e}"
    return None


def check_fission_output(seed: int) -> str | None:
    rng = random.Random(seed)
    for _ in range(10):
        amps = random_qudit(rng)
        if failure := _heralded_failure(run_fission(amps), fission_feed_forward, fission_success_target(amps)):
            return f"fission {failure}"
    return None


def check_roundtrip(seed: int) -> str | None:
    rng = random.Random(seed)
    runs = []
    for _ in range(10):
        psi, phi = random_qubit(rng), random_qubit(rng)
        runs.append((run_fusion(psi, phi), product_qudit(psi, phi)))
    for _ in range(4):  # entangled t/c pairs
        amps = random_qudit(rng)
        runs.append((run_fusion(entangled=amps), amps))
    for outcomes, amps in runs:
        fused = apply_feed_forward(outcomes[0])
        split = fission_feed_forward(run_fission(_fused_qudit(fused))[0])
        expected = fission_success_target(amps)
        if fidelity(split, expected) < 1.0 - TOL:
            return f"fusion->fission round trip fidelity {fidelity(split, expected)}"
    return None


def check_abstract_roundtrip(seed: int) -> str | None:
    rng = random.Random(seed)
    for _ in range(10):
        psi, phi = random_qubit(rng), random_qubit(rng)
        fused = rail_fuse(psi, phi).plus_amps
        state, probability = rail_fission(fused)
        if abs(probability - 0.5) > 1e-12:
            return f"abstract fission success probability {probability}"
        expected = two_qubit_state(psi, phi)
        if fidelity(state, expected) < 1.0 - TOL:
            return f"abstract round trip fidelity {fidelity(state, expected)}"
    return None


def check_matrices(seed: int) -> str | None:
    for key in BASIS_KEYS:
        for p in (0.0, 0.25, 0.5, 0.77, 1.0):
            sim = simulate_basis_matrix(key, p).entries
            if min(map(min, sim)) < -1e-15:
                return f"basis {key} p={p}: negative entry {min(map(min, sim))}"
            if max(abs(sum(row) - 1.0) for row in sim) > 1e-12:
                return f"basis {key} p={p}: rows not stochastic"
            if _max_gap(sim, closed_form_matrix(key, p).entries) > TOL:
                return f"basis {key} p={p}: simulation differs from closed form"
        if _max_gap(simulate_basis_matrix(key, 1.0).entries, IDENTITY) > TOL:
            return f"basis {key}: no identity at p=1"
    return None


def check_diagonal_monotonicity(seed: int) -> str | None:
    for key in BASIS_KEYS:
        matrices = [simulate_basis_matrix(key, i / 20).entries for i in range(21)]
        if any(b[j][j] - a[j][j] < -1e-12 for a, b in zip(matrices, matrices[1:]) for j in range(4)):
            return f"basis {key}: diagonal not monotone in p"
    return None


def check_fidelity_law(seed: int) -> str | None:
    for p in [i / 20 for i in range(21)]:
        if abs(simulated_average_fidelity(p) - average_fidelity(p)) > TOL:
            return f"fidelity law violated at p={p}"
    if abs(average_fidelity(0.77) - 0.7320) > 1e-4:
        return f"average fidelity at p=0.77 is {average_fidelity(0.77)}"
    return None


def check_fit_recovery(seed: int) -> str | None:
    for p_star in (0.3, 0.5, 0.77, 0.9):
        estimate = fit_p(closed_form_matrix("ii", p_star), "ii")
        if abs(estimate - p_star) > 1e-3:
            return f"fit returned {estimate} for p*={p_star}"
    return None


def check_similarity_properties(seed: int) -> str | None:
    rng = random.Random(seed)
    m = simulate_basis_matrix("ii", 0.5)
    if similarity(m, m) != 1.0:
        return "self-similarity is not exactly 1"
    if abs(similarity(IDENTITY, [[0.25] * 4] * 4) - 0.25) > 1e-12:
        return "identity/uniform similarity is not 0.25"
    d, dp = ([[abs(rng.gauss(0, 1)) for _ in range(4)] for _ in range(4)] for _ in range(2))
    if abs(similarity([[3.0 * x for x in row] for row in d], dp) - similarity(d, dp)) > 1e-12:
        return "similarity is not invariant under rescaling its first argument"
    if abs(similarity(d, [[0.3 * x for x in row] for row in dp]) - similarity(d, dp)) > 1e-12:
        return "similarity is not invariant under rescaling its second argument"
    return None


def check_mixture_linearity(seed: int) -> str | None:
    rng = random.Random(seed)
    circuit = build_fusion_circuit()
    psi, phi = random_qubit(rng), random_qubit(rng)
    pure = initial_state(circuit, {"psi": psi, "phi": phi})
    tagged = initial_state(circuit, {"psi": psi, "phi": phi}, tags={"a": "A"})
    mixture = MixedState(((0.3, pure), (0.7, tagged)))
    mixed_outcomes = run_circuit(circuit, mixture)
    for idx in range(4):
        p_pure = run_circuit(circuit, pure)[idx].probability
        p_tagged = run_circuit(circuit, tagged)[idx].probability
        expected = 0.3 * p_pure + 0.7 * p_tagged
        if abs(mixed_outcomes[idx].probability - expected) > 1e-12:
            return f"mixture probability is not the weighted branch sum (branch {idx})"
    return None


def check_dsl(seed: int) -> str | None:
    for path in sorted(SHIPPED.glob("*.lop")):
        circuit = parse_circuit(path.read_text(encoding="utf-8"))
        if parse_circuit(serialize_circuit(circuit)) != circuit:
            return f"{path.name}: serializer round trip failed"
    try:
        parse_circuit("mode a\npbs a a a\n")
    except ParseError:
        pass
    else:
        return "arity error was not reported"
    return None


def check_mean_fidelity_weighting(seed: int) -> str | None:
    # the 16-input coincidence-weighted mean has its own closed form
    for p in (0.0, 0.3, 0.77, 1.0):
        got = coincidence_weighted_fidelity(p)
        want = (63.0 + p) / (144.0 - 80.0 * p)
        if abs(got - want) > TOL:
            return f"coincidence-weighted 16-state mean off at p={p}"
    return None


CHECKS = (
    ("element-conservation", check_element_conservation),
    ("hwp-involution", check_hwp_involution),
    ("projection-completeness", check_projection_completeness),
    ("fusion-correctness", check_fusion_correctness),
    ("fusion-hom-filter", check_fusion_hom_filter),
    ("fusion-entangled-linearity", check_fusion_entangled_linearity),
    ("fusion-spectator-entanglement", check_fusion_spectator_entanglement),
    ("abstract-oracle-equivalence", check_oracle_equivalence),
    ("shared-vacuum-amplitude", check_eta_requirement),
    ("iterated-fusion", check_iterated_fusion),
    ("fission-output", check_fission_output),
    ("optical-roundtrip", check_roundtrip),
    ("abstract-roundtrip", check_abstract_roundtrip),
    ("matrices-vs-closed-forms", check_matrices),
    ("diagonal-monotonicity", check_diagonal_monotonicity),
    ("fidelity-law", check_fidelity_law),
    ("sixteen-state-weighting", check_mean_fidelity_weighting),
    ("fit-recovery", check_fit_recovery),
    ("similarity-properties", check_similarity_properties),
    ("mixture-linearity", check_mixture_linearity),
    ("dsl-roundtrip", check_dsl),
)


def run_verification(seed: int = 12345, out=print) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    started = time.monotonic()
    for name, check in CHECKS:
        t0 = time.monotonic()
        detail = check(seed)
        elapsed = time.monotonic() - t0
        if detail is None:
            out(f"PASS {name} ({elapsed:.2f}s)")
        else:
            failures += 1
            out(f"FAIL {name}: {detail}")
    out(
        f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed "
        f"in {time.monotonic() - started:.2f}s (seed {seed}, tol {TOL:g})"
    )
    return failures
