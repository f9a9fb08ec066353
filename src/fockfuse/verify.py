"""Self-verification suite: every library invariant as a runnable check.

Each check returns None on success or a short failure description.  The
suite is deterministic for a fixed seed.  The comparison tolerance defaults
to 1e-10 and can be overridden through the FOCKFUSE_TOL environment
variable.
"""

from __future__ import annotations

import os
import time

import numpy as np

from .circuits import (
    apply_elements,
    apply_feed_forward,
    build_fission_circuit,
    build_fusion_circuit,
    fission_feed_forward,
    fission_success_target,
    fused_target,
    initial_state,
    product_qudit,
    run_circuit,
    run_fission,
    run_fusion,
)
from .distinguishability import (
    BASIS_KEYS,
    average_fidelity,
    closed_form_matrix,
    fit_p,
    similarity,
    simulate_basis_matrix,
    simulated_average_fidelity,
)
from .dsl import ParseError, load_named_circuit, parse_circuit, serialize_circuit
from .elements import Hwp, Pbs, SigmaX, apply_element, apply_hwp
from .rails import (
    FusionBranches,
    _fuse_with_vacuum_amps,
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
)
BASIS_KETS = {
    "H": (1.0, 0.0),
    "V": (0.0, 1.0),
    "+": (INV_SQRT2, INV_SQRT2),
    "-": (INV_SQRT2, -INV_SQRT2),
}


def comparison_tol() -> float:
    return float(os.environ.get("FOCKFUSE_TOL", "1e-10"))


def _random_qubit(rng) -> tuple[complex, complex]:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return (complex(v[0]), complex(v[1]))


def _random_qudit(rng) -> tuple[complex, ...]:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = v / np.linalg.norm(v)
    return tuple(complex(x) for x in v)


def _random_state(rng, n_photons: int = 2) -> PureState:
    modes = ("a", "c", "t1", "t2")
    state = PureState.zero()
    for _ in range(3):
        term = PureState.vacuum()
        for _ in range(n_photons):
            term = term.create(
                modes[rng.integers(len(modes))],
                H if rng.random() < 0.5 else V,
                ("", "A", "B")[rng.integers(3)],
            )
        z = complex(rng.normal(), rng.normal())
        state = state + z * term
    return state.normalized()


def check_element_conservation(seed: int) -> str | None:
    rng = np.random.default_rng(seed)
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
        element = elements[rng.integers(len(elements))]
        out = apply_element(state, element)
        if abs(out.squared_norm() - 1.0) > 1e-12:
            return f"{element} changed the norm to {out.squared_norm()}"
        if out.max_photons() != state.max_photons():
            return f"{element} changed the photon count"
    return None


def check_hwp_involution(seed: int) -> str | None:
    rng = np.random.default_rng(seed)
    for _ in range(20):
        theta = float(rng.uniform(-90, 90))
        state = _random_state(rng)
        twice = apply_hwp(apply_hwp(state, "a", theta), "a", theta)
        if abs(fidelity(twice, state) - 1.0) > 1e-12:
            return f"HWP({theta}) applied twice is not the identity"
    return None


def check_projection_completeness(seed: int) -> str | None:
    rng = np.random.default_rng(seed)
    reqs = (H, V, "none")
    for _ in range(10):
        # one photon in each of two modes keeps the mode family exhaustive
        psi, phi = _random_qubit(rng), _random_qubit(rng)
        state = PureState.zero()
        for i, pa in enumerate((H, V)):
            for j, pc in enumerate((H, V)):
                z = psi[i] * phi[j]
                if z != 0:
                    state = state + z * PureState.vacuum().create("a", pa).create("c", pc)
        total = 0.0
        for ra in reqs:
            for rc in reqs:
                total += state.project(DetectionPattern.of({"a": ra, "c": rc})).probability
        if abs(total - state.squared_norm()) > 1e-12:
            return f"exhaustive pattern probabilities sum to {total}"
    return None


def check_fusion_correctness(seed: int, n_random: int = 20) -> str | None:
    tol = comparison_tol()
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        psi, phi = _random_qubit(rng), _random_qubit(rng)
        outcomes = run_fusion(psi, phi)
        target = fused_target(product_qudit(psi, phi))
        total = 0.0
        for outcome in outcomes:
            if abs(outcome.probability - 1 / 32) > 1e-12:
                return f"branch probability {outcome.probability} is not 1/32"
            corrected = apply_feed_forward(outcome)
            if fidelity(corrected, target) < 1.0 - tol:
                return f"feed-forward fidelity {fidelity(corrected, target)}"
            total += outcome.probability
        if abs(total - 1 / 8) > 1e-12:
            return f"total heralded probability {total} is not 1/8"
    return None


def check_fusion_hom_filter(seed: int) -> str | None:
    rng = np.random.default_rng(seed)
    for _ in range(10):
        outcomes = run_fusion(_random_qubit(rng), _random_qubit(rng))
        for outcome in outcomes:
            for occ, _amp in outcome.state.items():
                per_mode: dict = {}
                for (mode, _ch, _tag), n in occ:
                    per_mode[mode] = per_mode.get(mode, 0) + n
                if per_mode.get("a", 0) != 1 or per_mode.get("c", 0) != 1:
                    return f"kept term with occupancy {per_mode}"
                if per_mode.get("t1", 0) + per_mode.get("t2", 0) != 1:
                    return f"kept term with {per_mode} photons across t1/t2"
    return None


def check_fusion_entangled_linearity(seed: int) -> str | None:
    tol = comparison_tol()
    rng = np.random.default_rng(seed)
    for _ in range(10):
        amps = _random_qudit(rng)
        outcome = run_fusion(entangled=amps)[0]
        target = fused_target(amps)
        corrected = apply_feed_forward(outcome)
        if fidelity(corrected, target) < 1.0 - tol:
            return f"entangled-input fidelity {fidelity(corrected, target)}"
    return None


def check_fusion_spectator_entanglement(seed: int) -> str | None:
    tol = comparison_tol()
    rng = np.random.default_rng(seed)
    circuit = build_fusion_circuit()
    for _ in range(5):
        psi = _random_qubit(rng)
        # spectator photon on mode s maximally entangled with the c photon
        state = PureState.vacuum().create("a", H)
        state = psi[0] * state.create("t", H) + psi[1] * state.create("t", V)
        state = INV_SQRT2 * (
            state.create("s", H).create("c", H) + state.create("s", V).create("c", V)
        )
        evolved = apply_elements(state, circuit.elements)
        detected = evolved.project(DetectionPattern.of({"a": H, "c": H, ("t1", "t2"): "any"}))
        expected = PureState.zero()
        for j, pol in enumerate((H, V)):
            amps = [0.0, 0.0, 0.0, 0.0]
            amps[j] = psi[0]
            amps[j + 2] = psi[1]
            expected = expected + INV_SQRT2 * (
                fused_target(amps).create("s", pol)
            )
        joint = detected.state.factor_on_modes(("s", "t1", "t2"))
        if fidelity(joint, expected) < 1.0 - tol:
            return f"spectator joint-state fidelity {fidelity(joint, expected)}"
    return None


def check_oracle_equivalence(seed: int, n_random: int = 20) -> str | None:
    tol = comparison_tol()
    rng = np.random.default_rng(seed)
    pairs = [
        (BASIS_KETS[a], BASIS_KETS[b])
        for a in ("H", "V", "+", "-")
        for b in ("H", "V", "+", "-")
    ]
    pairs += [(_random_qubit(rng), _random_qubit(rng)) for _ in range(n_random)]
    for psi, phi in pairs:
        optical = apply_feed_forward(run_fusion(psi, phi)[0])
        abstract = rail_fuse(psi, phi).plus_amps
        target = fused_target(abstract)
        if fidelity(optical, target) < 1.0 - tol:
            return f"optical/abstract mismatch at psi={psi}, phi={phi}"
    return None


def check_eta_requirement(seed: int) -> str | None:
    tol = comparison_tol()
    rng = np.random.default_rng(seed)
    plus = BASIS_KETS["+"]
    reference = rail_fuse(plus, plus).plus_amps
    for _ in range(10):
        eta = complex(rng.uniform(0.2, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        branches = rail_fuse(plus, plus, vacuum_amp=eta)
        overlap = abs(np.vdot(np.array(reference), np.array(branches.plus_amps))) ** 2
        if overlap < 1.0 - tol:
            return f"shared vacuum amplitude {eta} changed the fused state"
    mismatched: FusionBranches = _fuse_with_vacuum_amps(plus, plus, 1.0, 0.5)
    overlap = abs(np.vdot(np.array(reference), np.array(mismatched.plus_amps))) ** 2
    if overlap > 1.0 - 1e-6:
        return "mismatched vacuum amplitudes were not detected"
    return None


def check_iterated_fusion(seed: int) -> str | None:
    tol = comparison_tol()
    rng = np.random.default_rng(seed)
    for n in range(1, 5):
        for index in range(2**n):
            qubits = [
                BASIS_KETS["H"] if (index >> (n - 1 - k)) & 1 == 0 else BASIS_KETS["V"]
                for k in range(n)
            ]
            amps, _prob = fuse_iterated(qubits)
            expected = np.zeros(2**n)
            expected[index] = 1.0
            if np.abs(np.abs(np.array(amps)) - expected).max() > tol:
                return f"basis input {index} of n={n} not reproduced"
    for _ in range(10):
        qubits = [_random_qubit(rng) for _ in range(3)]
        amps, _prob = fuse_iterated(qubits)
        target = np.kron(np.kron(qubits[0], qubits[1]), qubits[2])
        overlap = abs(np.vdot(target, np.array(amps))) ** 2
        if overlap < 1.0 - tol:
            return f"n=3 iterated fusion overlap {overlap}"
    return None


def check_fission_output(seed: int) -> str | None:
    tol = comparison_tol()
    rng = np.random.default_rng(seed)
    for _ in range(10):
        amps = _random_qudit(rng)
        outcomes = run_fission(amps)
        target = fission_success_target(amps)
        for outcome in outcomes:
            if abs(outcome.probability - 1 / 32) > 1e-12:
                return f"fission branch probability {outcome.probability}"
            corrected = fission_feed_forward(outcome)
            if fidelity(corrected, target) < 1.0 - tol:
                return f"fission feed-forward fidelity {fidelity(corrected, target)}"
    return None


def check_roundtrip(seed: int) -> str | None:
    tol = comparison_tol()
    rng = np.random.default_rng(seed)
    for _ in range(10):
        psi, phi = _random_qubit(rng), _random_qubit(rng)
        fused = apply_feed_forward(run_fusion(psi, phi)[0])
        qudit = [
            fused.amplitude((((mode, pol, ""), 1),))
            for mode, pol in (("t1", H), ("t1", V), ("t2", H), ("t2", V))
        ]
        split = fission_feed_forward(run_fission(np.array(qudit) / np.linalg.norm(qudit))[0])
        expected = fission_success_target(product_qudit(psi, phi))
        if fidelity(split, expected) < 1.0 - tol:
            return f"fusion->fission round trip fidelity {fidelity(split, expected)}"
    return None


def check_abstract_roundtrip(seed: int) -> str | None:
    tol = comparison_tol()
    rng = np.random.default_rng(seed)
    for _ in range(10):
        psi, phi = _random_qubit(rng), _random_qubit(rng)
        fused = rail_fuse(psi, phi).plus_amps
        state, probability = rail_fission(fused)
        if abs(probability - 0.5) > 1e-12:
            return f"abstract fission success probability {probability}"
        expected = two_qubit_state(psi, phi)
        if fidelity(state, expected) < 1.0 - tol:
            return f"abstract round trip fidelity {fidelity(state, expected)}"
    return None


def check_matrices(seed: int) -> str | None:
    for key in BASIS_KEYS:
        for p in (0.0, 0.25, 0.5, 0.77, 1.0):
            sim = simulate_basis_matrix(key, p).as_array()
            if np.abs(sim.sum(axis=1) - 1.0).max() > 1e-12:
                return f"basis {key} p={p}: rows not stochastic"
            closed = closed_form_matrix(key, p).as_array()
            if np.abs(sim - closed).max() > comparison_tol():
                return f"basis {key} p={p}: simulation differs from closed form"
        if np.abs(simulate_basis_matrix(key, 1.0).as_array() - np.eye(4)).max() > comparison_tol():
            return f"basis {key}: no identity at p=1"
    return None


def check_diagonal_monotonicity(seed: int) -> str | None:
    grid = np.linspace(0.0, 1.0, 21)
    for key in BASIS_KEYS:
        diags = np.array([np.diag(simulate_basis_matrix(key, p).as_array()) for p in grid])
        if (np.diff(diags, axis=0) < -1e-12).any():
            return f"basis {key}: diagonal not monotone in p"
    return None


def check_fidelity_law(seed: int) -> str | None:
    tol = comparison_tol()
    for p in np.linspace(0.0, 1.0, 21):
        if abs(simulated_average_fidelity(p) - average_fidelity(p)) > tol:
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
    rng = np.random.default_rng(seed)
    m = simulate_basis_matrix("ii", 0.5)
    if similarity(m, m) != 1.0:
        return "self-similarity is not exactly 1"
    if abs(similarity(np.eye(4), np.full((4, 4), 0.25)) - 0.25) > 1e-12:
        return "identity/uniform similarity is not 0.25"
    d = np.abs(rng.normal(size=(4, 4)))
    dp = np.abs(rng.normal(size=(4, 4)))
    if abs(similarity(3.0 * d, dp) - similarity(d, dp)) > 1e-12:
        return "similarity is not scale invariant"
    return None


def check_mixture_linearity(seed: int) -> str | None:
    rng = np.random.default_rng(seed)
    circuit = build_fusion_circuit()
    psi, phi = _random_qubit(rng), _random_qubit(rng)
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
    rng = np.random.default_rng(seed)
    for name, builder, bindings in (
        ("fusion", build_fusion_circuit, lambda: {"psi": _random_qubit(rng), "phi": _random_qubit(rng)}),
        ("fission", build_fission_circuit, lambda: {"input": _random_qudit(rng)}),
    ):
        parsed = load_named_circuit(name)
        built = builder()
        if parsed != built:
            return f"{name}.lop is not structurally equal to the builder"
        if parse_circuit(serialize_circuit(built)) != built:
            return f"{name}: serializer round trip failed"
        for _ in range(3):
            b = bindings()
            for got, want in zip(run_circuit(parsed, bindings=b), run_circuit(built, bindings=b)):
                if abs(got.probability - want.probability) > 1e-12:
                    return f"{name}: parsed circuit behaves differently"
                if got.probability > 0 and fidelity(got.state, want.state) < 1.0 - 1e-12:
                    return f"{name}: parsed circuit state differs"
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
        from .distinguishability import coincidence_weighted_fidelity

        got = coincidence_weighted_fidelity(p)
        want = (63.0 + p) / (144.0 - 80.0 * p)
        if abs(got - want) > comparison_tol():
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
        f"in {time.monotonic() - started:.2f}s (seed {seed}, tol {comparison_tol():g})"
    )
    return failures
