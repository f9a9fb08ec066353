"""Source-model tests: mixture weights, probability matrices, fidelity laws, fit.

The identity at p=1, the fidelity law on a grid, diagonal monotonicity and
fit self-recovery are ``fockfuse.verify`` checks, run by
``test_acceptance.py``; this file pins specific values and the API.
"""

import numpy as np
import pytest

from fockfuse.distinguishability import (
    BASIS_KEYS,
    ProbabilityMatrix,
    average_fidelity,
    basis_mean_fidelity_law,
    closed_form_matrix,
    coincidence_weighted_fidelity,
    fit_p,
    get_basis,
    indistinguishable_fraction,
    similarity,
    simulate_basis_matrix,
    simulated_basis_mean_fidelity,
)

P_GRID = (0.0, 0.25, 0.5, 0.77, 1.0)


class TestMixture:
    def test_fraction_formula(self):
        assert indistinguishable_fraction(1.0) == 1.0
        assert indistinguishable_fraction(0.0) == 0.0
        # 2*0.77 / (3-0.77)
        assert indistinguishable_fraction(0.77) == pytest.approx(0.6905829596412556)


class TestMatrices:
    @pytest.mark.parametrize("key", BASIS_KEYS)
    @pytest.mark.parametrize("p", P_GRID)
    def test_simulation_matches_closed_form(self, key, p):
        sim = np.array(simulate_basis_matrix(key, p).entries)
        closed = np.array(closed_form_matrix(key, p).entries)
        assert np.abs(sim - closed).max() < 1e-10

    @pytest.mark.parametrize("key", BASIS_KEYS)
    @pytest.mark.parametrize("p", P_GRID)
    def test_rows_are_stochastic(self, key, p):
        sim = np.array(simulate_basis_matrix(key, p).entries)
        assert (sim >= -1e-15).all()
        assert np.abs(sim.sum(axis=1) - 1.0).max() < 1e-12

    def test_basis_i_ancilla_independent_rows(self):
        # middle rows stay perfect even for a fully distinguishable ancilla
        for p in P_GRID:
            sim = np.array(simulate_basis_matrix("i", p).entries)
            assert np.abs(sim[1] - np.array([0, 1, 0, 0])).max() < 1e-12
            assert np.abs(sim[2] - np.array([0, 0, 1, 0])).max() < 1e-12

    def test_closed_form_spot_values(self):
        # basis iii diagonal: (15+p)/(4(9-5p))
        p = 0.77
        m = np.array(closed_form_matrix("iii", p).entries)
        assert m[0, 0] == pytest.approx((15 + p) / (4 * (9 - 5 * p)), abs=1e-15)
        # basis ii diagonal at p=0 is 1/3
        assert np.array(closed_form_matrix("ii", 0.0).entries)[0, 0] == pytest.approx(1 / 3)
        # basis iv top row: (3+p)/(12-8p) and 9(1-p)/(12-8p)
        m = np.array(closed_form_matrix("iv", p).entries)
        assert m[0, 0] == pytest.approx((3 + p) / (12 - 8 * p), abs=1e-15)
        assert m[0, 3] == pytest.approx(9 * (1 - p) / (12 - 8 * p), abs=1e-15)

    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            get_basis("v")
        with pytest.raises(ValueError):
            closed_form_matrix("v", 0.5)

    @pytest.mark.parametrize("key", BASIS_KEYS)
    def test_upper_case_key_names_the_same_basis(self, key):
        for p in (0.0, 0.3, 1.0):
            sim, closed = simulate_basis_matrix(key.upper(), p), closed_form_matrix(key.upper(), p)
            want = simulate_basis_matrix(key, p)
            assert (sim.entries, sim.row_labels, sim.col_labels) == (
                want.entries, want.row_labels, want.col_labels
            )
            assert closed == closed_form_matrix(key, p) and closed.basis == key
            assert sim == want and sim.basis == key
            assert simulated_basis_mean_fidelity(key.upper(), p) == simulated_basis_mean_fidelity(key, p)
            assert basis_mean_fidelity_law(key.upper(), p) == basis_mean_fidelity_law(key, p)
        observed = closed_form_matrix(key, 0.4)
        assert fit_p(observed, key.upper()) == fit_p(observed, key)

    def test_a_basis_names_itself(self):
        basis = get_basis("iii")
        assert get_basis(basis) is basis
        assert simulate_basis_matrix(basis, 0.3) == simulate_basis_matrix("iii", 0.3)
        assert closed_form_matrix(basis, 0.3) == closed_form_matrix("iii", 0.3)
        with pytest.raises(ValueError, match="unknown basis 5"):
            closed_form_matrix(5, 0.3)


class TestFidelity:
    def test_law_endpoints(self):
        assert average_fidelity(0.0) == pytest.approx(1 / 3)
        assert average_fidelity(1.0) == pytest.approx(1.0)

    def test_law_at_fitted_p(self):
        value = average_fidelity(0.77)
        assert value == pytest.approx(0.7320388349514563, abs=1e-12)
        assert abs(value - 0.750) < 0.03

    def test_law_equals_every_basis_ii_diagonal_entry(self):
        for p in P_GRID:
            diag = np.diag(np.array(simulate_basis_matrix("ii", p).entries))
            assert np.abs(diag - average_fidelity(p)).max() < 1e-10

    def test_per_basis_means(self):
        for key in BASIS_KEYS:
            for p in P_GRID:
                assert simulated_basis_mean_fidelity(key, p) == pytest.approx(
                    basis_mean_fidelity_law(key, p), abs=1e-10
                )

    def test_sixteen_state_weighted_mean(self):
        # the all-basis coincidence-weighted mean has its own closed form
        for p in P_GRID:
            assert coincidence_weighted_fidelity(p) == pytest.approx(
                (63 + p) / (144 - 80 * p), abs=1e-10
            )


class TestSimilarity:
    def test_self_similarity_is_exactly_one(self):
        m = simulate_basis_matrix("iii", 0.37)
        assert similarity(m, m) == 1.0

    def test_identity_vs_uniform(self):
        assert similarity(np.eye(4), np.full((4, 4), 0.25)) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        d = np.abs(rng.normal(size=(4, 4)))
        dp = np.abs(rng.normal(size=(4, 4)))
        assert similarity(2.0 * d, dp) == pytest.approx(similarity(d, dp), abs=1e-12)
        assert similarity(d, 7.5 * dp) == pytest.approx(similarity(d, dp), abs=1e-12)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            similarity(np.zeros((4, 4)), np.eye(4))
        with pytest.raises(ValueError):
            similarity(-np.eye(4), np.eye(4))


class TestFit:
    def test_identity_gives_full_indistinguishability(self):
        assert fit_p(np.eye(4), "ii") == pytest.approx(1.0, abs=1e-3)

    def test_perturbed_matrix_recovery(self):
        # compare golden-section result against a brute-force grid oracle
        noisy = np.array(closed_form_matrix("ii", 0.5).entries) + 0.01
        noisy /= noisy.sum(axis=1, keepdims=True)
        estimate = fit_p(noisy, "ii")
        grid = np.linspace(0.0, 1.0, 1001)
        oracle = grid[
            int(np.argmax([similarity(noisy, closed_form_matrix("ii", p)) for p in grid]))
        ]
        assert abs(estimate - 0.5) < 0.05
        assert abs(estimate - oracle) < 2e-3

    def test_rejects_degenerate_observations(self):
        with pytest.raises(ValueError):
            fit_p(np.zeros((4, 4)), "ii")


class TestMatrixIO:
    def test_csv_round_trip(self):
        m = simulate_basis_matrix("ii", 0.77)
        again = ProbabilityMatrix.from_csv(m.to_csv(), basis="ii")
        assert np.abs(np.array(m.entries) - np.array(again.entries)).max() < 1e-12
        assert again.row_labels == m.row_labels

    def test_json_obj_shape(self):
        obj = simulate_basis_matrix("i", 0.5).to_json_obj()
        assert obj["basis"] == "i"
        assert len(obj["entries"]) == 4
        assert obj["col_labels"] == ["H_t1", "V_t1", "H_t2", "V_t2"]
