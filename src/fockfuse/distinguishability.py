"""Partial-distinguishability model of the two-pair photon source.

The source emits two photon pairs; with probability ``p`` the pairs are
mutually indistinguishable.  After the polarization analysis that selects
one ancilla plus the control/target pair, the three-photon input to the
fusion apparatus is a two-branch mixture: an untagged branch with weight
r = 2p/(3-p) and a branch of weight 1-r in which the ancilla photon carries
a different distinguishability tag than the other two, which removes its
interference with them.

Propagating the mixture through the fusion apparatus and conditioning on
both ancillary detectors firing in H yields, for each tested input basis, a
4x4 row-stochastic input/output probability matrix with closed-form entries
in p.  Two transcription notes on the closed forms, both confirmed by the
simulation and by hand expansion of the tagged three-photon amplitudes:

* bases i and ii: the off-diagonal numerators read 3(1-p), the unique
  choice with unit row sums;
* basis iv: the entries here are the row-stochastic forms the model
  actually produces; commonly transcribed variants carry the same entry
  values with rows/columns rearranged and are not reproducible by any
  relabeling of this model's inputs or analyzers.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .circuits import (
    BASIS_KEYS,
    FUSED_KETS,
    build_fusion_circuit,
    fused_target,
    fusion_input,
    run_circuit,
)
from .states import INV_SQRT2, PLAN_LIMIT, Record, product_qudit, projector_probability

CLOSED_FORM_NOTE = (
    "bases i/ii off-diagonal closed-form numerators are 3(1-p), the unique "
    "row-normalized reading; for basis iv the shipped closed form is the "
    "row-stochastic arrangement the simulation produces (commonly "
    "transcribed variants permute the same entries); the simulation is the "
    "authority in both cases"
)


def indistinguishable_fraction(p: float) -> float:
    """Fraction r of events with three indistinguishable photons, r = 2p/(3-p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"indistinguishability parameter p={p} outside [0, 1]")
    return 2.0 * p / (3.0 - p)


# -- measurement bases ------------------------------------------------------

#: single-qubit kets by label
KETS = {"H": (1.0, 0.0), "V": (0.0, 1.0), "+": (INV_SQRT2, INV_SQRT2), "-": (INV_SQRT2, -INV_SQRT2)}


class Basis(Record):
    """One tested input basis with its four output analysis projectors."""

    key: str
    input_states: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]
    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]
    projectors: tuple[dict[tuple[str, str], complex], ...]

    @classmethod
    def of(cls, key: str, target: str, control: str) -> "Basis":
        """The basis whose inputs are the (target, control) products of the
        ``KETS`` labelled in ``target`` and ``control``, in label order.

        Output analyzer j is the ideal fused image of input j: the target
        bit picks the spatial mode (t1/t2, or their +/- superpositions) and
        the control bit the polarization.
        """
        pairs = [(t, c) for t in target for c in control]
        states = tuple((KETS[t], KETS[c]) for t, c in pairs)
        spatial = {"H": "1", "V": "2"}  # an H/V target bit routes to t1/t2
        photons = [ket[0] for ket in FUSED_KETS]
        return cls(
            key,
            states,
            tuple(f"{t}_t {c}_c" for t, c in pairs),
            tuple(f"{c}_t{spatial.get(t, t)}" for t, c in pairs),
            tuple(
                dict(zip(photons, fused_target(product_qudit(*state)).amplitudes(FUSED_KETS)))
                for state in states
            ),
        )

    def projector(self, j: int) -> dict[tuple[str, str], complex]:
        return self.projectors[j]


BASES = {
    key: Basis.of(key, *pair)
    for key, pair in zip(BASIS_KEYS, (("HV", "HV"), ("HV", "+-"), ("+-", "HV"), ("+-", "+-")))
}


def get_basis(basis: str | Basis) -> Basis:
    """The basis a key names, in any case, or ``basis`` itself if it is one."""
    if isinstance(basis, Basis):
        return basis
    try:
        return BASES[basis.lower()]
    except (KeyError, AttributeError):
        raise ValueError(f"unknown basis {basis!r}; expected one of {BASIS_KEYS}") from None


# -- probability matrices ---------------------------------------------------


class ProbabilityMatrix(Record):
    """4x4 input/output distribution with labels, by default the basis's;
    construction refuses entries that are not a 4x4 matrix of finite reals."""

    basis: str
    entries: tuple[tuple[float, ...], ...]
    row_labels: tuple[str, ...] | None = None
    col_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.basis, str):
            raise ValueError(f"basis must be a string, got {self.basis!r}")
        try:
            rows = tuple(tuple(float(x) for x in row) for row in self.entries)
        except (TypeError, ValueError):
            raise ValueError(f"expected a matrix of real numbers, got {self.entries!r}") from None
        if [len(row) for row in rows] != [4] * 4:
            raise ValueError(f"expected a 4x4 matrix, got rows of lengths {[len(row) for row in rows]}")
        if not all(math.isfinite(x) for row in rows for x in row):
            raise ValueError("observed matrix entries must be finite")
        object.__setattr__(self, "entries", rows)
        b = BASES.get(self.basis.lower())
        for name, kind, default in (
            ("row_labels", "row", b.input_labels if b else ("r0", "r1", "r2", "r3")),
            ("col_labels", "column", b.output_labels if b else ("c0", "c1", "c2", "c3")),
        ):
            given = getattr(self, name)
            if given is not None and not (isinstance(given, (list, tuple)) and len(given) == 4
                                          and all(isinstance(x, str) for x in given)):
                raise ValueError(f"{kind} labels must be four strings, got {given!r}")
            object.__setattr__(self, name, default if given is None else tuple(given))

    def to_json_obj(self) -> dict:
        return {
            "basis": self.basis,
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "entries": [list(row) for row in self.entries],
        }

    def table_lines(self) -> list[str]:
        """The text grid of a report's table: labels, then entries to 6 decimals."""
        width = max(len(lbl) for lbl in self.row_labels + self.col_labels) + 2
        lines = [" " * width + "".join(f"{lbl:>{width}}" for lbl in self.col_labels)]
        for lbl, row in zip(self.row_labels, self.entries):
            lines.append(f"{lbl:>{width}}" + "".join(f"{x:>{width}.6f}" for x in row))
        return lines

    def to_csv(self) -> str:
        lines = ["input/output," + ",".join(self.col_labels)]
        for label, row in zip(self.row_labels, self.entries):
            lines.append(label + "," + ",".join(f"{x:.12g}" for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, basis: str = "") -> "ProbabilityMatrix":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if len(lines) != 5:
            raise ValueError("expected a header line plus 4 data rows")
        col_labels = lines[0].split(",")[1:]
        rows, row_labels = [], []
        for ln in lines[1:]:
            cells = ln.split(",")
            row_labels.append(cells[0])
            rows.append(cells[1:])
        return cls(basis, rows, row_labels, col_labels)


def _read_matrix(value) -> tuple[tuple[float, ...], ...]:
    """The entries of a ``ProbabilityMatrix``, or of the one built from a
    sequence of rows."""
    return (value if isinstance(value, ProbabilityMatrix) else ProbabilityMatrix("", value)).entries


def _total(rows) -> float:
    return sum(x for row in rows for x in row)


@lru_cache(maxsize=PLAN_LIMIT)
def _branch_raw_rows(basis_key: str) -> tuple[tuple[tuple[float, ...], ...], ...]:
    """Raw (unnormalized) detection-and-projection probabilities.

    Returns two 4x4 tables, one for the indistinguishable branch and one for
    the tagged branch.  Entry [i][j] is the joint probability of the H/H
    ancillary detection and output projector j for basis input i.  These are
    p-independent; the source model only reweights the two tables.
    """
    basis = get_basis(basis_key)
    circuit = build_fusion_circuit()
    tables = []
    for ancilla_tag, pair_tag in (("", ""), ("A", "B")):
        rows = []
        for psi, phi in basis.input_states:
            state = fusion_input(product_qudit(psi, phi), ancilla_tag, pair_tag)
            # the first pattern: a and c both H, one photon across t1/t2
            # a zero-probability outcome carries the zero state, so its row is 0.0
            detected = run_circuit(circuit, input_state=state)[0]
            rows.append(tuple(
                detected.probability * projector_probability(detected.state, basis.projector(j))
                for j in range(4)
            ))
        tables.append(tuple(rows))
    return tuple(tables)


def _raw_matrix(basis_key: str, p: float) -> tuple[tuple[float, ...], ...]:
    r = indistinguishable_fraction(p)
    ind, dist = _branch_raw_rows(basis_key)
    return tuple(tuple(r * x + (1.0 - r) * y for x, y in zip(*rows)) for rows in zip(ind, dist))


def simulate_basis_matrix(basis, p: float) -> ProbabilityMatrix:
    """Run the source mixture through the apparatus and tabulate outcomes.

    Each row conditions on the H/H ancillary detection and is normalized to
    unit sum.
    """
    key = get_basis(basis).key
    raw = _raw_matrix(key, p)
    rows = [[x / total for x in row] for row, total in zip(raw, map(sum, raw))]
    return ProbabilityMatrix(key, rows)


def closed_form_matrix(basis, p: float) -> ProbabilityMatrix:
    """Closed-form model matrices as functions of p.

    For bases i and ii the off-diagonal numerators are 3(1-p), the unique
    row-stochastic reading; basis iv is the arrangement the model actually
    produces (see module docstring).  Every entry is verified against the
    independent mixture simulation.
    """
    indistinguishable_fraction(p)  # range check
    key = get_basis(basis).key
    q = 3.0 * (1.0 - p)
    if key == "i":
        d = 12.0 - 8.0 * p
        rows = [
            [(3.0 + p) / d, q / d, q / d, q / d],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [q / d, q / d, q / d, (3.0 + p) / d],
        ]
    elif key == "ii":
        d = 9.0 - 5.0 * p
        rows = [
            [(3.0 + p) / d, q / d, 0.0, q / d],
            [q / d, (3.0 + p) / d, 0.0, q / d],
            [0.0, q / d, (3.0 + p) / d, q / d],
            [0.0, q / d, q / d, (3.0 + p) / d],
        ]
    elif key == "iii":
        d = 4.0 * (9.0 - 5.0 * p)
        rows = [
            [(15.0 + p) / d, q / d, 3.0 * q / d, 3.0 * q / d],
            [q / d, (15.0 + p) / d, 3.0 * q / d, 3.0 * q / d],
            [q / d, q / d, (21.0 - 5.0 * p) / d, 3.0 * q / d],
            [q / d, q / d, 3.0 * q / d, (21.0 - 5.0 * p) / d],
        ]
    else:  # iv
        d1 = 6.0 - 2.0 * p
        d2 = 12.0 - 8.0 * p
        rows = [
            [(3.0 + p) / d2, 0.0, 0.0, 3.0 * q / d2],
            [q / d1, (3.0 + p) / d1, 0.0, 0.0],
            [0.0, 0.0, (3.0 + p) / d1, q / d1],
            [0.0, q / d2, q / d2, 2.0 * (3.0 - p) / d2],
        ]
    return ProbabilityMatrix(key, rows)


# -- fidelity and similarity -------------------------------------------------


def average_fidelity(p: float) -> float:
    """The average fusion-fidelity law, (3+p)/(9-5p).

    In this model the law coincides with the fidelity of every basis-ii
    input (their four diagonal entries are all equal), which is the quantity
    the one-parameter fit is anchored to.  A naive average over all 16
    inputs is a different number because the distinguishable branch fires
    the detectors 1.5x more often than the indistinguishable one, with
    basis-dependent diagonal weight; see ``coincidence_weighted_fidelity``.
    """
    return basis_mean_fidelity_law("ii", p)


def simulated_average_fidelity(p: float) -> float:
    """The simulated counterpart of ``average_fidelity``.

    Computed from the simulated basis-ii matrix as the mean of its diagonal
    (all four entries agree, so the coincidence-weighted and plain means
    coincide here).
    """
    return simulated_basis_mean_fidelity("ii", p)


def simulated_basis_mean_fidelity(basis, p: float) -> float:
    """Coincidence-weighted mean fidelity within one basis.

    Total diagonal detection probability over total detection probability,
    which is how count-rate data averages a basis.
    """
    raw = _raw_matrix(get_basis(basis).key, p)
    return sum(raw[i][i] for i in range(4)) / _total(raw)


def basis_mean_fidelity_law(basis, p: float) -> float:
    """Closed-form per-basis mean fidelity (coincidence-weighted)."""
    indistinguishable_fraction(p)  # range check
    key = get_basis(basis).key
    if key in ("i", "iii"):
        return (9.0 - p) / (18.0 - 10.0 * p)
    if key == "ii":
        return (3.0 + p) / (9.0 - 5.0 * p)
    return (15.0 + p) / (4.0 * (9.0 - 5.0 * p))  # iv


def coincidence_weighted_fidelity(p: float) -> float:
    """Mean fidelity over all 16 inputs weighted by detection probability.

    Aggregates raw diagonal counts over raw totals across the four bases;
    the closed form is (63+p)/(144-80p).
    """
    diag = 0.0
    total = 0.0
    for key in BASIS_KEYS:
        raw = _raw_matrix(key, p)
        diag += sum(raw[i][i] for i in range(4))
        total += _total(raw)
    return diag / total


def similarity(d, d_prime) -> float:
    """Bhattacharyya-style overlap between two non-negative 4x4 matrices.

    S = (sum_ij sqrt(D_ij D'_ij))^2 / (sum_ij D_ij * sum_ij D'_ij); equals 1
    exactly when the matrices are proportional and is invariant under
    positive rescaling of either argument.
    """
    a, b = _read_matrix(d), _read_matrix(d_prime)
    if any(x < 0 for row in a + b for x in row):
        raise ValueError("similarity requires non-negative entries")
    sum_a = _total(a)
    sum_b = _total(b)
    if sum_a == 0.0 or sum_b == 0.0:
        raise ValueError("similarity undefined for an all-zero matrix")
    overlap = sum(math.sqrt(x * y) for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b))
    return overlap * overlap / (sum_a * sum_b)


def fit_p(observed, basis="ii", *, tol: float = 1e-4) -> float:
    """Recover p by maximizing similarity to the closed-form model.

    Golden-section search over p in [0, 1] on the closed-form matrices of
    the given basis.
    """
    obs = _read_matrix(observed)
    if any(x < 0 for row in obs for x in row):
        raise ValueError("observed matrix must be non-negative")
    if _total(obs) == 0.0:
        raise ValueError("observed matrix is degenerate (all zero)")
    key = get_basis(basis).key

    def objective(p: float) -> float:
        return similarity(obs, closed_form_matrix(key, p))

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > tol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = objective(x2)
    best = 0.5 * (lo + hi)
    # keep the endpoints honest; the optimum may sit exactly at 0 or 1
    for candidate in (0.0, 1.0):
        if objective(candidate) > objective(best):
            best = candidate
    return best
