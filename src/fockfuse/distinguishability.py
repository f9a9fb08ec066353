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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import apply_elements, build_fusion_circuit
from .states import (
    H,
    INV_SQRT2,
    V,
    DetectionPattern,
    MixedState,
    PureState,
    projector_probability,
)

KET_H = (1.0, 0.0)
KET_V = (0.0, 1.0)
KET_PLUS = (INV_SQRT2, INV_SQRT2)
KET_MINUS = (INV_SQRT2, -INV_SQRT2)

#: detection used for all model predictions: both ancillary outputs in H,
#: one photon across the target outputs
ANCILLA_H_PATTERN = DetectionPattern.of({"a": H, "c": H, ("t1", "t2"): "any"})

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


@dataclass(frozen=True)
class DistModel:
    """Source model parametrized by the pair indistinguishability ``p``."""

    p: float

    def __post_init__(self) -> None:
        indistinguishable_fraction(self.p)  # range check

    @property
    def r(self) -> float:
        return indistinguishable_fraction(self.p)


def _three_photon_state(psi, phi, ancilla_tag: str, pair_tag: str) -> PureState:
    a0, a1 = (complex(x) for x in psi)
    b0, b1 = (complex(x) for x in phi)
    state = PureState.vacuum().create("a", H, ancilla_tag)
    state = a0 * state.create("t", H, pair_tag) + a1 * state.create("t", V, pair_tag)
    return b0 * state.create("c", H, pair_tag) + b1 * state.create("c", V, pair_tag)


def build_input_mixture(p: float, psi, phi) -> MixedState:
    """Two-branch source mixture for qubit inputs psi (on t) and phi (on c).

    The indistinguishable branch (weight r) is untagged; in the
    distinguishable branch (weight 1-r) the ancilla is tagged "A" and the
    control/target photons "B".
    """
    r = indistinguishable_fraction(p)
    ind = _three_photon_state(psi, phi, "", "")
    dist = _three_photon_state(psi, phi, "A", "B")
    if r >= 1.0:
        return MixedState(((1.0, ind),))
    if r <= 0.0:
        return MixedState(((1.0, dist),))
    return MixedState(((r, ind), (1.0 - r, dist)))


# -- measurement bases ------------------------------------------------------


def _pol_projector(mode: str, pol_amps) -> dict[tuple[str, str], complex]:
    c0, c1 = (complex(x) for x in pol_amps)
    return {(mode, H): c0, (mode, V): c1}


def _spatial_projector(pol_amps, sign: float) -> dict[tuple[str, str], complex]:
    """Projector on (|pol>_t1 + sign |pol>_t2)/sqrt(2) superpositions."""
    c0, c1 = (complex(x) for x in pol_amps)
    return {
        ("t1", H): c0 * INV_SQRT2,
        ("t1", V): c1 * INV_SQRT2,
        ("t2", H): sign * c0 * INV_SQRT2,
        ("t2", V): sign * c1 * INV_SQRT2,
    }


@dataclass(frozen=True)
class Basis:
    """One tested input basis with its four output analysis projectors."""

    key: str
    input_states: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]
    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]
    projectors: tuple[tuple[tuple[tuple[str, str], complex], ...], ...]

    def projector(self, j: int) -> dict[tuple[str, str], complex]:
        return dict(self.projectors[j])


def _freeze(proj: dict) -> tuple:
    return tuple(sorted(proj.items()))


def _make_bases() -> dict[str, Basis]:
    bases: dict[str, Basis] = {}
    bases["i"] = Basis(
        key="i",
        input_states=((KET_H, KET_H), (KET_H, KET_V), (KET_V, KET_H), (KET_V, KET_V)),
        input_labels=("H_t H_c", "H_t V_c", "V_t H_c", "V_t V_c"),
        output_labels=("H_t1", "V_t1", "H_t2", "V_t2"),
        projectors=tuple(
            _freeze(_pol_projector(mode, pol))
            for mode, pol in (("t1", KET_H), ("t1", KET_V), ("t2", KET_H), ("t2", KET_V))
        ),
    )
    bases["ii"] = Basis(
        key="ii",
        input_states=((KET_H, KET_PLUS), (KET_H, KET_MINUS), (KET_V, KET_PLUS), (KET_V, KET_MINUS)),
        input_labels=("H_t +_c", "H_t -_c", "V_t +_c", "V_t -_c"),
        output_labels=("+_t1", "-_t1", "+_t2", "-_t2"),
        projectors=tuple(
            _freeze(_pol_projector(mode, pol))
            for mode, pol in (
                ("t1", KET_PLUS),
                ("t1", KET_MINUS),
                ("t2", KET_PLUS),
                ("t2", KET_MINUS),
            )
        ),
    )
    bases["iii"] = Basis(
        key="iii",
        input_states=((KET_PLUS, KET_H), (KET_PLUS, KET_V), (KET_MINUS, KET_H), (KET_MINUS, KET_V)),
        input_labels=("+_t H_c", "+_t V_c", "-_t H_c", "-_t V_c"),
        output_labels=("H_t+", "V_t+", "H_t-", "V_t-"),
        projectors=tuple(
            _freeze(_spatial_projector(pol, sign))
            for pol, sign in ((KET_H, 1.0), (KET_V, 1.0), (KET_H, -1.0), (KET_V, -1.0))
        ),
    )
    bases["iv"] = Basis(
        key="iv",
        input_states=(
            (KET_PLUS, KET_PLUS),
            (KET_PLUS, KET_MINUS),
            (KET_MINUS, KET_PLUS),
            (KET_MINUS, KET_MINUS),
        ),
        input_labels=("+_t +_c", "+_t -_c", "-_t +_c", "-_t -_c"),
        output_labels=("+_t+", "-_t+", "+_t-", "-_t-"),
        projectors=tuple(
            _freeze(_spatial_projector(pol, sign))
            for pol, sign in ((KET_PLUS, 1.0), (KET_MINUS, 1.0), (KET_PLUS, -1.0), (KET_MINUS, -1.0))
        ),
    )
    return bases


BASES = _make_bases()
BASIS_KEYS = ("i", "ii", "iii", "iv")


def get_basis(key: str) -> Basis:
    try:
        return BASES[key.lower()]
    except KeyError:
        raise ValueError(f"unknown basis {key!r}; expected one of {BASIS_KEYS}") from None


# -- probability matrices ---------------------------------------------------


@dataclass(frozen=True)
class ProbabilityMatrix:
    """4x4 row-stochastic input/output distribution with labels."""

    basis: str
    entries: tuple[tuple[float, ...], ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)

    def to_json_obj(self) -> dict:
        return {
            "basis": self.basis,
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "entries": [list(row) for row in self.entries],
        }

    def to_csv(self) -> str:
        lines = ["input/output," + ",".join(self.col_labels)]
        for label, row in zip(self.row_labels, self.entries):
            lines.append(label + "," + ",".join(f"{x:.12g}" for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_rows(cls, basis: str, rows, row_labels=None, col_labels=None) -> "ProbabilityMatrix":
        arr = np.asarray(rows, dtype=float)
        if arr.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {arr.shape}")
        b = BASES.get(basis.lower()) if basis else None
        return cls(
            basis=basis,
            entries=tuple(tuple(float(x) for x in row) for row in arr),
            row_labels=tuple(row_labels) if row_labels else (b.input_labels if b else ("r0", "r1", "r2", "r3")),
            col_labels=tuple(col_labels) if col_labels else (b.output_labels if b else ("c0", "c1", "c2", "c3")),
        )

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
            rows.append([float(x) for x in cells[1:]])
        return cls.from_rows(basis, rows, row_labels, col_labels)


@lru_cache(maxsize=None)
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
            state = _three_photon_state(psi, phi, ancilla_tag, pair_tag)
            evolved = apply_elements(state, circuit.elements)
            detected = evolved.project(ANCILLA_H_PATTERN)
            row = []
            for j in range(4):
                if detected.probability <= 0.0:
                    row.append(0.0)
                else:
                    row.append(
                        detected.probability
                        * projector_probability(detected.state, basis.projector(j))
                    )
            rows.append(tuple(row))
        tables.append(tuple(rows))
    return tuple(tables)


def _raw_matrix(basis_key: str, p: float) -> np.ndarray:
    r = indistinguishable_fraction(p)
    ind, dist = _branch_raw_rows(basis_key)
    return r * np.array(ind) + (1.0 - r) * np.array(dist)


def simulate_basis_matrix(basis, p: float) -> ProbabilityMatrix:
    """Run the source mixture through the apparatus and tabulate outcomes.

    Each row conditions on the H/H ancillary detection and is normalized to
    unit sum.
    """
    key = basis if isinstance(basis, str) else basis.key
    raw = _raw_matrix(key, p)
    rows = raw / raw.sum(axis=1, keepdims=True)
    return ProbabilityMatrix.from_rows(key, rows)


def closed_form_matrix(basis, p: float) -> ProbabilityMatrix:
    """Closed-form model matrices as functions of p.

    For bases i and ii the off-diagonal numerators are 3(1-p), the unique
    row-stochastic reading; basis iv is the arrangement the model actually
    produces (see module docstring).  Every entry is verified against the
    independent mixture simulation.
    """
    indistinguishable_fraction(p)  # range check
    key = (basis if isinstance(basis, str) else basis.key).lower()
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
    elif key == "iv":
        d1 = 6.0 - 2.0 * p
        d2 = 12.0 - 8.0 * p
        rows = [
            [(3.0 + p) / d2, 0.0, 0.0, 3.0 * q / d2],
            [q / d1, (3.0 + p) / d1, 0.0, 0.0],
            [0.0, 0.0, (3.0 + p) / d1, q / d1],
            [0.0, q / d2, q / d2, 2.0 * (3.0 - p) / d2],
        ]
    else:
        raise ValueError(f"unknown basis {basis!r}; expected one of {BASIS_KEYS}")
    return ProbabilityMatrix.from_rows(key, rows)


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
    indistinguishable_fraction(p)  # range check
    return (3.0 + p) / (9.0 - 5.0 * p)


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
    key = basis if isinstance(basis, str) else basis.key
    raw = _raw_matrix(key, p)
    return float(np.trace(raw) / raw.sum())


def basis_mean_fidelity_law(basis, p: float) -> float:
    """Closed-form per-basis mean fidelity (coincidence-weighted)."""
    indistinguishable_fraction(p)  # range check
    key = (basis if isinstance(basis, str) else basis.key).lower()
    if key in ("i", "iii"):
        return (9.0 - p) / (18.0 - 10.0 * p)
    if key == "ii":
        return (3.0 + p) / (9.0 - 5.0 * p)
    if key == "iv":
        return (15.0 + p) / (4.0 * (9.0 - 5.0 * p))
    raise ValueError(f"unknown basis {basis!r}; expected one of {BASIS_KEYS}")


def coincidence_weighted_fidelity(p: float) -> float:
    """Mean fidelity over all 16 inputs weighted by detection probability.

    Aggregates raw diagonal counts over raw totals across the four bases;
    the closed form is (63+p)/(144-80p).
    """
    diag = 0.0
    total = 0.0
    for key in BASIS_KEYS:
        raw = _raw_matrix(key, p)
        diag += float(np.trace(raw))
        total += float(raw.sum())
    return diag / total


def similarity(d, d_prime) -> float:
    """Bhattacharyya-style overlap between two non-negative matrices.

    S = (sum_ij sqrt(D_ij D'_ij))^2 / (sum_ij D_ij * sum_ij D'_ij); equals 1
    exactly when the matrices are proportional and is invariant under
    positive rescaling of either argument.
    """
    a = d.as_array() if isinstance(d, ProbabilityMatrix) else np.asarray(d, dtype=float)
    b = d_prime.as_array() if isinstance(d_prime, ProbabilityMatrix) else np.asarray(d_prime, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if (a < 0).any() or (b < 0).any():
        raise ValueError("similarity requires non-negative entries")
    sum_a = float(a.sum())
    sum_b = float(b.sum())
    if sum_a == 0.0 or sum_b == 0.0:
        raise ValueError("similarity undefined for an all-zero matrix")
    overlap = float(np.sqrt(a * b).sum())
    return overlap * overlap / (sum_a * sum_b)


def fit_p(observed, basis="ii", *, tol: float = 1e-4) -> float:
    """Recover p by maximizing similarity to the closed-form model.

    Golden-section search over p in [0, 1] on the closed-form matrices of
    the given basis.
    """
    obs = observed.as_array() if isinstance(observed, ProbabilityMatrix) else np.asarray(observed, dtype=float)
    if not np.isfinite(obs).all():
        raise ValueError("observed matrix entries must be finite")
    if (obs < 0).any():
        raise ValueError("observed matrix must be non-negative")
    if obs.sum() == 0.0:
        raise ValueError("observed matrix is degenerate (all zero)")
    key = basis if isinstance(basis, str) else basis.key

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
