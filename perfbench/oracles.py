"""Independent checks for the benchmark's results.

Nothing here calls fockfuse: every expected value is rebuilt with numpy from
the op's inputs (Jones matrices, permanents, tensor products), so an oracle
can fail even when the library agrees with itself.  Each ``check_*``
returns ``None`` on success or a one-line description of the mismatch.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-10
PROB_TOL = 1e-12
HERALD_PROBABILITY = 1.0 / 32.0


# -- reading library states as numpy vectors ----------------------------------


def amplitude_vector(state, kets) -> tuple[np.ndarray, float]:
    """Amplitudes of ``state`` on ``kets`` plus the squared norm elsewhere.

    A ket is a tuple of ``(mode, channel)`` pairs, one photon each, all
    untagged.  The second value is the weight of every term not listed, so a
    state that leaks outside the expected subspace cannot pass.
    """
    index = {tuple(sorted(ket)): i for i, ket in enumerate(kets)}
    vec = np.zeros(len(kets), dtype=complex)
    leaked = 0.0
    for occ, amp in state.items():
        photons = []
        for (mode, channel, tag), n in occ:
            if tag or n != 1:
                photons = None
                break
            photons.append((mode, channel))
        slot = index.get(tuple(sorted(photons))) if photons is not None else None
        if slot is None:
            leaked += abs(amp) ** 2
        else:
            vec[slot] = amp
    return vec, leaked


def overlap(got, want) -> float:
    """|<want|got>|^2 over both squared norms (phase-insensitive)."""
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    denom = float(np.vdot(got, got).real * np.vdot(want, want).real)
    if denom == 0.0:
        return 0.0
    return abs(np.vdot(want, got)) ** 2 / denom


def _state_fidelity(state, kets, want) -> float:
    vec, leaked = amplitude_vector(state, kets)
    total = float(np.vdot(vec, vec).real) + leaked
    if total == 0.0:
        return 0.0
    return overlap(vec, want) * float(np.vdot(vec, vec).real) / total


# -- apparatus: heralded fusion and fission ----------------------------------

FUSED_KETS = ((("t1", "H"),), (("t1", "V"),), (("t2", "H"),), (("t2", "V"),))
#: fission output kets in the order of the input qudit amplitudes
SPLIT_KETS = (
    (("t", "H"), ("c", "H")),
    (("t", "V"), ("c", "H")),
    (("t", "H"), ("c", "V")),
    (("t", "V"), ("c", "V")),
)


def product_amplitudes(*qubits) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for q in qubits:
        out = np.kron(out, np.asarray(q, dtype=complex))
    return out


def check_heralded(probabilities, corrected, fidelities, kets, want) -> str | None:
    """Every branch at 1/32; feed-forward lands on ``want`` with fidelity 1."""
    if len(probabilities) != 4:
        return f"expected 4 heralded branches, got {len(probabilities)}"
    for k, (prob, state, fid) in enumerate(zip(probabilities, corrected, fidelities)):
        if abs(prob - HERALD_PROBABILITY) > PROB_TOL:
            return f"branch {k} probability {prob!r}, expected 1/32"
        independent = _state_fidelity(state, kets, want)
        if independent < 1.0 - TOL:
            return f"branch {k} feed-forward fidelity {independent!r}"
        if abs(fid - independent) > TOL:
            return f"branch {k} reported fidelity {fid!r} != recomputed {independent!r}"
    return None


def check_rail_branch(optical_state, rail_amps) -> str | None:
    """The optical H/H branch carries the rail protocol's plus amplitudes."""
    vec, leaked = amplitude_vector(optical_state, FUSED_KETS)
    if leaked > TOL:
        return f"optical H/H branch leaks weight {leaked!r} outside t1/t2"
    diff = phase_aligned_difference(vec / np.linalg.norm(vec), _unit(rail_amps))
    if diff > 1e-9:
        return f"optical H/H branch differs from the rail oracle by {diff!r}"
    return None


def _unit(amps) -> np.ndarray:
    vec = np.asarray(amps, dtype=complex)
    return vec / np.linalg.norm(vec)


def phase_aligned_difference(got, want) -> float:
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    pivot = int(np.argmax(np.abs(want)))
    if abs(got[pivot]) == 0.0:
        return float(np.abs(got - want).max())
    phase = want[pivot] / got[pivot]
    return float(np.abs(got * phase / abs(phase) - want).max())


def check_row(got_row, want_row, what: str) -> str | None:
    got = np.asarray(got_row, dtype=float)
    total = got.sum()
    if not total > 0.0:
        return f"{what}: empty row"
    diff = float(np.abs(got / total - np.asarray(want_row, dtype=float)).max())
    if diff > TOL:
        return f"{what}: normalized row differs from the closed form by {diff!r}"
    return None


# -- rails --------------------------------------------------------------------


def check_rail_fuse(plus_amps, minus_corrected, p_plus, p_minus, psi, phi) -> str | None:
    want = product_amplitudes(psi, phi)
    for label, amps in (("plus", plus_amps), ("corrected minus", minus_corrected)):
        if overlap(amps, want) < 1.0 - TOL:
            return f"rail fuse {label} branch is not the tensor product"
    if abs(p_plus + p_minus - 1.0) > TOL:
        return f"rail fuse branch probabilities sum to {p_plus + p_minus!r}"
    return None


def check_fuse_iterated(amps, qubits) -> str | None:
    fid = overlap(amps, product_amplitudes(*qubits))
    if fid < 1.0 - TOL:
        return f"iterated fusion of {len(qubits)} qubits has overlap {fid!r}"
    return None


def check_rail_fission(amplitudes_ct, probability, qudit) -> str | None:
    """Split amplitudes (c0t0, c0t1, c1t0, c1t1) reproduce the qudit."""
    fid = overlap(amplitudes_ct, qudit)
    if fid < 1.0 - TOL:
        return f"rail fission overlap {fid!r}"
    if abs(probability - 0.5) > TOL:
        return f"rail fission success probability {probability!r}, expected 1/2"
    return None


# -- source model -------------------------------------------------------------


def similarity(a, b) -> float:
    """(sum sqrt(a b))^2 / (sum a * sum b) for non-negative arrays."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.sqrt(a * b).sum() ** 2 / (a.sum() * b.sum()))


def check_matrices(simulated, closed) -> str | None:
    diff = float(np.abs(np.asarray(simulated) - np.asarray(closed)).max())
    if diff > TOL:
        return f"simulated matrix differs from the closed form by {diff!r}"
    rows = np.asarray(simulated).sum(axis=1)
    if float(np.abs(rows - 1.0).max()) > TOL:
        return "simulated matrix is not row-stochastic"
    return None


def check_fit(counts, fitted, truth, model, fit_tol: float) -> str | None:
    """The fit is at least as similar to the data as the true p is.

    ``model(p)`` returns the closed-form matrix; the slack is how much the
    similarity moves within one fit tolerance of the estimate.
    """
    if not 0.0 <= fitted <= 1.0:
        return f"fitted p={fitted!r} outside [0, 1]"
    at_fit = similarity(counts, model(fitted))
    at_truth = similarity(counts, model(truth))
    slack = max(
        abs(similarity(counts, model(min(1.0, max(0.0, fitted + step)))) - at_fit)
        for step in (-fit_tol, fit_tol)
    )
    if at_fit < at_truth - slack - 1e-12:
        return f"fit p={fitted:.6f} similarity {at_fit!r} < {at_truth!r} at true p={truth:.6f}"
    return None


# -- mesh: transfer matrix and permanents -------------------------------------


def hwp_jones(theta_deg: float) -> np.ndarray:
    """Half-wave plate at ``theta`` degrees: [[cos 2t, sin 2t], [sin 2t, -cos 2t]]."""
    rad = math.radians(2.0 * theta_deg)
    c, s = math.cos(rad), math.sin(rad)
    return np.array([[c, s], [s, -c]], dtype=complex)


def mesh_transfer_matrix(n_modes: int, layers) -> np.ndarray:
    """2n x 2n single-photon map of a mesh; index 2*mode + (0 for H, 1 for V).

    ``layers`` is a sequence of ``("hwp", mode, theta)`` and
    ``("pbs", i, j)`` steps; the PBS transmits H and swaps V between the
    two modes (in1 V -> out2 V, in2 V -> out1 V).
    """
    u = np.eye(2 * n_modes, dtype=complex)
    for step in layers:
        e = np.eye(2 * n_modes, dtype=complex)
        if step[0] == "hwp":
            _, m, theta = step
            e[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = hwp_jones(theta)
        else:
            _, i, j = step
            vi, vj = 2 * i + 1, 2 * j + 1
            e[vi, vi] = e[vj, vj] = 0.0
            e[vj, vi] = e[vi, vj] = 1.0
        u = e @ u
    return u


def ryser_permanent(a: np.ndarray) -> complex:
    """Permanent by Ryser's inclusion-exclusion formula, O(2^n n^2)."""
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    subsets = np.array(
        [[(mask >> j) & 1 for j in range(n)] for mask in range(1, 1 << n)], dtype=float
    )
    row_sums = a @ subsets.T  # (n, 2^n - 1)
    signs = (-1.0) ** subsets.sum(axis=1)
    return complex((-1) ** n * np.sum(signs * np.prod(row_sums, axis=0)))


def coincidence_probability(u: np.ndarray, n_modes: int, pols) -> float:
    """One H photon in on every mode, one photon out per mode with ``pols``."""
    rows = [2 * m + (0 if pol == "H" else 1) for m, pol in enumerate(pols)]
    cols = [2 * m for m in range(n_modes)]
    return abs(ryser_permanent(u[np.ix_(rows, cols)])) ** 2


def check_coincidences(probabilities, u, n_modes: int, patterns) -> str | None:
    """Each pattern at |Perm|^2; the family sums to the permanent total."""
    if len(probabilities) != len(patterns):
        return f"expected {len(patterns)} coincidence outcomes, got {len(probabilities)}"
    expected = [coincidence_probability(u, n_modes, pols) for pols in patterns]
    for pols, got, want in zip(patterns, probabilities, expected):
        if abs(got - want) > TOL:
            return f"pattern {''.join(pols)}: probability {got!r}, permanent gives {want!r}"
    total = float(sum(probabilities))
    if abs(total - sum(expected)) > TOL or not 0.0 < total <= 1.0 + TOL:
        return f"coincidence family sums to {total!r}, permanents to {sum(expected)!r}"
    return None


# -- CLI reports --------------------------------------------------------------

#: reports print 12 significant digits
REPORT_TOL = 1e-9


def report_complex(values) -> np.ndarray:
    """A report's list of ``{"re", "im"}`` objects as a numpy vector."""
    return np.array([complex(v["re"], v["im"]) for v in values])


def check_product_report(amplitude_lists, probabilities, qubits, what: str) -> str | None:
    """Each listed amplitude vector is the tensor product of ``qubits``, up
    to phase, and the branch probabilities sum to 1 (when given)."""
    want = product_amplitudes(*qubits)
    for k, amps in enumerate(amplitude_lists):
        fid = overlap(report_complex(amps), want)
        if fid < 1.0 - REPORT_TOL:
            return f"{what}: amplitude list {k} has overlap {fid!r} with the tensor product"
    if probabilities and abs(sum(probabilities) - 1.0) > REPORT_TOL:
        return f"{what}: branch probabilities sum to {sum(probabilities)!r}"
    return None


def check_heralded_report(probabilities, what: str) -> str | None:
    if len(probabilities) != 4:
        return f"{what}: expected 4 heralded outcomes, got {len(probabilities)}"
    for k, prob in enumerate(probabilities):
        if abs(prob - HERALD_PROBABILITY) > REPORT_TOL:
            return f"{what}: outcome {k} probability {prob!r}, expected 1/32"
    return None


def fidelity_law(p: float) -> float:
    """The paper's average fusion fidelity, (3 + p) / (9 - 5p)."""
    return (3.0 + p) / (9.0 - 5.0 * p)


def check_fidelity_curve(rows, p_grid) -> str | None:
    """The grid is as asked; law, simulated and basis-ii columns follow the law."""
    if len(rows) != len(p_grid):
        return f"fidelity curve has {len(rows)} rows, expected {len(p_grid)}"
    for row, p in zip(rows, p_grid):
        if abs(row["p"] - p) > REPORT_TOL:
            return f"fidelity curve row at p={row['p']!r}, expected {p!r}"
        want = fidelity_law(p)
        for column in ("law", "simulated", "basis_ii"):
            if abs(row[column] - want) > REPORT_TOL:
                return f"fidelity curve {column} at p={p:.4f} is {row[column]!r}, law gives {want!r}"
    return None


def compare_values(got, want, path: str = "report") -> str | None:
    """Recursive numeric comparison of a JSON report against expected values.

    ``want`` mirrors the parts of the report to check; complex numbers are
    ``{"re", "im"}`` objects as the reports print them.  Reports carry 12
    significant digits, hence the relative tolerance.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return f"{path}: expected an object"
        for key, sub in want.items():
            if key not in got:
                return f"{path}: missing {key!r}"
            err = compare_values(got[key], sub, f"{path}.{key}")
            if err:
                return err
        return None
    if isinstance(want, (list, tuple)):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: expected a list of {len(want)}"
        for k, (g, w) in enumerate(zip(got, want)):
            err = compare_values(g, w, f"{path}[{k}]")
            if err:
                return err
        return None
    if isinstance(want, complex):
        return compare_values(got, {"re": want.real, "im": want.imag}, path)
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        if not isinstance(got, (int, float)) or abs(got - want) > 1e-9 * max(1.0, abs(want)):
            return f"{path}: {got!r} != expected {want!r}"
        return None
    if got != want:
        return f"{path}: {got!r} != expected {want!r}"
    return None
