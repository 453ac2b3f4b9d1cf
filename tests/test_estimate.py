from math import log
from unittest import mock

import numpy as np
import pytest

from netar import (
    AdjacencySeries,
    EstimationError,
    InnovationSpec,
    LnarSpec,
    MarkovEdgeNetwork,
    NarSpec,
    NeighborhoodFn,
    apply_neighborhood_fn,
    build_regressors,
    eval_theorem2_bound,
    fit_component_ls,
    fit_lnar,
    fit_nar,
    fit_var,
    select_order_bic,
    simulate_lnar,
    simulate_nar,
)
from netar import estimate
from netar.estimate import IndexSet, OrderSelection, _lag_stacks, _lnar_design, index_sets

from test_netdyn import example1_network_matrices, zero_diag_oracle
from test_model import example1_alpha


def literal_block_system(Y, y):
    """The raw normal-equation block system, solved as displayed.

    Unknown order (mu, w); first block row has a zero in the mu column
    and the doubly-summed cross products on the right.
    """
    m, k = Y.shape
    sum_y = Y.sum(axis=0)
    lhs_top = Y.T @ y - sum_y * y.sum() / m
    lhs = np.concatenate([lhs_top, [y.sum()]])
    rhs = np.zeros((k + 1, k + 1))
    rhs[:k, 0] = 0.0
    rhs[:k, 1:] = Y.T @ Y - np.outer(sum_y, sum_y) / m
    rhs[k, 0] = m
    rhs[k, 1:] = sum_y
    sol = np.linalg.solve(rhs, lhs)
    return sol[0], sol[1:]


def lnar_design_oracle(x, ads, g_list, p, t_start):
    """Per-target-time loop for the per-component design, one snapshot at a time."""
    d, n = x.shape
    Y = np.zeros((d, n - t_start, 2 * p))
    for j in range(1, p + 1):
        for row, t in enumerate(range(t_start - j, n - j)):
            Y[:, row, 2 * (j - 1)] = x[:, t]
            Y[:, row, 2 * (j - 1) + 1] = zero_diag_oracle(g_list[j - 1], ads[t]) @ x[:, t]
    return Y, x[:, t_start:]


def bic_oracle(x, ads=None, g=None, p_max=3, family="nar", mask=None):
    """Order selection with one full ``fit_*`` call per candidate order.

    The former ``select_order_bic`` body: every candidate is refitted from
    scratch on the common window t = p_max..n-1, covariances included.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d, n = x.shape
    m = n - p_max
    table = {}
    best_p, best_val = None, None
    for p in range(1, p_max + 1):
        try:
            if family == "nar":
                fit = fit_nar(x, ads, [g] * p, p, t_start=p_max)
            elif family == "lnar":
                fit = fit_lnar(x, ads, [g] * p, p, t_start=p_max)
            else:
                sub_mask = None if mask is None else np.asarray(mask)[:, : d * p]
                fit = fit_var(x, p, mask=sub_mask, t_start=p_max)
        except EstimationError:
            table[p] = float("inf")
            continue
        val = 0.0
        degenerate = False
        for c in fit.components:
            k_r = len(c.index_set) + 1
            if m - k_r < 5:
                degenerate = True
                break
            val += m * log(max(c.rss / m, 1e-300)) + k_r * log(m)
        if degenerate:
            table[p] = float("inf")
            continue
        table[p] = val
        if best_val is None or val < best_val - 1e-12:
            best_p, best_val = p, val
    if best_p is None:
        raise EstimationError("no candidate order is identifiable on this sample")
    return OrderSelection(p=best_p, table=table)


def assert_matches_bic_oracle(x, **kwargs):
    """Same order and tables within 1e-10 relative; returns the largest difference."""
    expected = bic_oracle(x, **kwargs)
    got = select_order_bic(x, **kwargs)
    assert got.p == expected.p
    assert set(got.table) == set(expected.table)
    worst = 0.0
    for p, val in expected.table.items():
        if np.isinf(val):
            assert got.table[p] == val
            continue
        rel = abs(got.table[p] - val) / abs(val)
        assert rel <= 1e-10, (p, got.table[p], val)
        worst = max(worst, rel)
    return worst


class CallCount:
    """Counts the calls of ``owner.name`` while monkeypatched in."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def ols_with_intercept(Y, y):
    design = np.column_stack([np.ones(len(y)), Y])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef[0], coef[1:]


class TestComponentSolver:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m, k = 60, 4
            Y = rng.normal(size=(m, k))
            w = rng.normal(size=k)
            mu = rng.normal()
            y = Y @ w + mu
            fit = fit_component_ls(y, Y, r=0)
            assert np.abs(fit.w - w).max() < 1e-10
            assert abs(fit.mu - mu) < 1e-10
            assert fit.rss < 1e-18

    def test_centered_solve_equals_literal_block_system(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(20, 60))
            k = int(rng.integers(1, 6))
            Y = rng.normal(size=(m, k)) * rng.uniform(0.5, 3)
            y = rng.normal(size=m) + Y @ rng.normal(size=k)
            fit = fit_component_ls(y, Y, r=0)
            mu_lit, w_lit = literal_block_system(Y, y)
            assert abs(fit.mu - mu_lit) < 1e-10
            assert np.abs(fit.w - w_lit).max() < 1e-10

    def test_matches_textbook_ols(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            Y = rng.normal(size=(50, 3))
            y = rng.normal(size=50)
            fit = fit_component_ls(y, Y, r=0)
            mu_o, w_o = ols_with_intercept(Y, y)
            assert abs(fit.mu - mu_o) < 1e-9
            assert np.abs(fit.w - w_o).max() < 1e-9

    def test_collinear_regressors_get_flagged_jitter(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=50)
        Y = np.column_stack([base, base])  # exactly collinear
        y = base * 2 + rng.normal(size=50) * 0.1
        fit = fit_component_ls(y, Y, r=0)
        assert fit.ridge_jitter > 0
        assert np.isfinite(fit.w).all()

    def test_intercept_only(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        fit = fit_component_ls(y, np.empty((4, 0)), r=0)
        assert fit.mu == pytest.approx(2.5)
        assert fit.w.size == 0
        assert fit.resid_var == pytest.approx(np.var(y, ddof=1))

    def test_solver_failure_on_nan_is_estimation_error(self):
        rng = np.random.default_rng(9)
        Y = rng.normal(size=(40, 3))
        Y[7, 1] = np.nan
        with pytest.raises(EstimationError, match="did not converge") as info:
            fit_component_ls(rng.normal(size=40), Y, r=2)
        assert info.value.diagnostics == {"k": 3, "n_obs": 40, "finite": False}

    def test_inverse_failure_is_estimation_error(self, monkeypatch):
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        rng = np.random.default_rng(10)
        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(EstimationError, match="asymptotic covariance"):
            fit_component_ls(rng.normal(size=30), rng.normal(size=(30, 2)), r=0)

    def test_too_few_observations(self):
        with pytest.raises(EstimationError, match="observations"):
            fit_component_ls(np.zeros(3), np.zeros((3, 5)), r=0)

    def test_index_set_length_must_match_columns(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="2 members but Y has 3 columns"):
            fit_component_ls(rng.normal(size=50), rng.normal(size=(50, 3)), r=0,
                             idx=IndexSet(0, (1, 2)))


class TestIndexSets:
    def test_zero_network_gives_empty_set(self):
        ads = AdjacencySeries(np.zeros((20, 3, 3)))
        idx = index_sets(20, ads, [NeighborhoodFn.transpose()], 1)[0]
        assert len(idx) == 0

    def test_static_complete_network_activates_all(self):
        ads = AdjacencySeries(np.ones((20, 3, 3)))
        for r in range(3):
            idx = index_sets(20, ads, [NeighborhoodFn.transpose()], 1)[r]
            assert idx.members == tuple(range(3))

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(5)
        stay, enter = example1_network_matrices()
        net = MarkovEdgeNetwork(stay, enter)
        ads = net.simulate(500, seed=rng)
        n = 500
        p = 2
        g = [NeighborhoodFn.identity(), NeighborhoodFn.identity()]
        sets = index_sets(n, ads, g, p)
        d = 4
        for r in range(d):
            brute = []
            for j in range(1, p + 1):
                for i in range(d):
                    mass = sum(abs(g[j - 1].apply(ads[t - j])[r, i]) for t in range(p, n))
                    if mass > 0:
                        brute.append(i + (j - 1) * d)
            assert sets[r].members == tuple(sorted(brute))

    def test_one_based_flattening(self):
        idx = IndexSet(r=0, members=(0, 2, 5))
        assert idx.one_based() == [1, 3, 6]


class TestRegressors:
    def test_static_complete_network_gives_lagged_values(self):
        rng = np.random.default_rng(6)
        d, n = 3, 12
        x = rng.normal(size=(d, n))
        ads = AdjacencySeries(np.ones((n, d, d)))
        g = [NeighborhoodFn.transpose()]
        idx = index_sets(n, ads, g, 1)[1]
        Y, y = build_regressors(x, ads, g, 1, r=1, idx=idx)
        assert np.allclose(Y, x[:, :-1].T)
        assert np.array_equal(y, x[1, 1:])

    def test_hand_computed_three_node_case(self):
        # weighted snapshot, p = 1, check the t = 2 row entry by entry
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        mats = np.zeros((3, 3, 3))
        mats[1] = np.array([[0.0, 0.5, 0.0], [0.2, 0.0, 0.0], [0.0, -0.3, 0.0]])
        ads = AdjacencySeries(mats)
        g = [NeighborhoodFn.transpose()]
        idx = IndexSet(r=1, members=(0, 1, 2))
        Y, y = build_regressors(x, ads, g, 1, r=1, idx=idx)
        # row for t=2 uses G(Ad_1) = Ad_1^T, row 1: (0.5, 0, -0.3)
        expected = [0.5 * x[0, 1], 0.0 * x[1, 1], -0.3 * x[2, 1]]
        assert np.allclose(Y[1], expected)
        assert y[1] == x[1, 2]

    def test_lnar_regressor_is_in_neighbor_average(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        mats = np.zeros((2, 3, 3))
        mats[0][0, 2] = 1.0  # edges into vertex 3 from 1 and 2
        mats[0][1, 2] = 1.0
        ads = AdjacencySeries(mats)
        g = [NeighborhoodFn.row_normalized_transpose()]
        Y, y = _lnar_design(x, ads, g, 1, None)
        Y, y = Y[2], y[2]
        # own lag then the equal-weight average of the in-neighbors
        assert Y[0, 0] == x[2, 0]
        assert Y[0, 1] == pytest.approx(0.5 * (x[0, 0] + x[1, 0]))
        assert y[0] == x[2, 1]


    def test_lag_stacks_match_per_lag_evaluation(self):
        # one kernel call per distinct G, sliced per lag, equals evaluating
        # every lag on its own snapshots
        rng = np.random.default_rng(31)
        d, n = 5, 40
        ads = AdjacencySeries(rng.uniform(-1, 1, (n, d, d)) * (rng.random((n, d, d)) < 0.5))
        tr, rnt = NeighborhoodFn.transpose(), NeighborhoodFn.row_normalized_transpose()
        for g_list, t_start in (([tr, rnt, tr], 3), ([rnt, tr, tr], 6), ([tr] * 2, 2)):
            p = len(g_list)
            stacks = _lag_stacks(n, ads, g_list, p, t_start)
            for j, (g, got) in enumerate(zip(g_list, stacks), start=1):
                expected = apply_neighborhood_fn(g, ads.mats[t_start - j: n - j])
                assert np.array_equal(got, expected), (j, t_start)

    @pytest.mark.parametrize("d", [1, 4, 33, 100])
    def test_lnar_design_matches_per_t_oracle(self, d):
        rng = np.random.default_rng(d)
        n = 60
        x = rng.normal(size=(d, n)) * 3.0
        ads = AdjacencySeries(rng.uniform(-1, 1, (n, d, d)) * (rng.random((n, d, d)) < 0.3))
        rnt, tr = NeighborhoodFn.row_normalized_transpose(), NeighborhoodFn.transpose()
        for g_list, t_start in (([rnt], None), ([tr] * 3, None),
                                ([NeighborhoodFn.identity()] * 2, 5), ([tr, rnt, tr], 7)):
            p = len(g_list)
            got = _lnar_design(x, ads, g_list, p, t_start)
            expected = lnar_design_oracle(x, ads, g_list, p, p if t_start is None else t_start)
            assert np.array_equal(got[0], expected[0]), (g_list[0].kind, d, t_start)
            assert np.array_equal(got[1], expected[1])


class TestFitNar:
    def test_static_complete_network_equals_var_ols(self):
        rng = np.random.default_rng(7)
        d, n, p = 3, 120, 2
        x = rng.normal(size=(d, n))
        ads = AdjacencySeries(np.ones((n, d, d)))
        fit = fit_nar(x, ads, [NeighborhoodFn.transpose()] * p, p)
        var_fit = fit_var(x, p)
        for r in range(d):
            assert np.abs(fit.components[r].w - var_fit.components[r].w).max() < 1e-10
            assert abs(fit.components[r].mu - var_fit.components[r].mu) < 1e-10
        # and both equal the textbook OLS on stacked lags
        lagged = np.column_stack([x[:, p - j: n - j].T for j in range(1, p + 1)])
        for r in range(d):
            mu_o, w_o = ols_with_intercept(lagged, x[r, p:])
            assert np.abs(var_fit.components[r].w - w_o).max() < 1e-9
            assert abs(var_fit.components[r].mu - mu_o) < 1e-9

    def test_structural_zeros_in_coefficient_matrices(self):
        rng = np.random.default_rng(8)
        d, n = 3, 80
        mats = np.zeros((n, d, d))
        mats[:, 0, 1] = 1.0  # only edge (1,2) ever active
        ads = AdjacencySeries(mats)
        x = rng.normal(size=(d, n))
        fit = fit_nar(x, ads, [NeighborhoodFn.identity()], 1)
        coef = fit.coefficient_matrices()[0]
        mask = np.zeros((d, d), dtype=bool)
        mask[0, 1] = True
        assert (coef[~mask] == 0).all()

    def test_noiseless_nar_recovery(self):
        rng = np.random.default_rng(9)
        stay, enter = example1_network_matrices()
        net = MarkovEdgeNetwork(stay, enter)
        ads = net.simulate(600, seed=rng)
        alpha = example1_alpha()
        spec = NarSpec(1, [alpha], [NeighborhoodFn.identity()])
        # noiseless: the signal comes from nonzero innovation means while the
        # noise variance is negligible, so the regression interpolates exactly
        innov = InnovationSpec(np.array([-1.0, 4.0, -9.0, 16.0]), np.eye(4) * 1e-24)
        x = simulate_nar(spec, ads, innov, n=500, burn_in=100, seed=rng)
        fit = fit_nar(x, ads.drop_first(100), [NeighborhoodFn.identity()], 1)
        coef = fit.coefficient_matrices()[0]
        for r in range(4):
            for flat in fit.components[r].index_set.members:
                assert coef[r, flat % 4] == pytest.approx(alpha[r, flat % 4], abs=1e-6)


class TestPartialFits:
    def test_failed_component_marked_and_nan_filled(self):
        # component 1 sees five regressors on five observations (unidentifiable),
        # the single-edge components still fit
        rng = np.random.default_rng(71)
        d, n = 5, 6
        mats = np.zeros((n, d, d))
        mats[:, :, 0] = 1.0  # every vertex feeds vertex 1
        for r in range(1, d):
            mats[:, r - 1, r] = 1.0  # chain edges for the rest
        ads = AdjacencySeries(mats)
        x = rng.normal(size=(d, n))
        g = [NeighborhoodFn.transpose()]
        with pytest.raises(EstimationError):
            fit_nar(x, ads, g, 1)
        fit = fit_nar(x, ads, g, 1, allow_partial=True)
        assert 0 in fit.errors
        mu = fit.mu_hat()
        assert np.isnan(mu[0]) and np.isfinite(mu[1:]).all()
        coef = fit.coefficient_matrices()[0]
        assert np.isnan(coef[0]).all()
        assert np.isfinite(coef[1:]).all()

    @pytest.mark.parametrize("family", ["nar", "lnar"])
    def test_failed_row_is_nan_in_both_families(self, family):
        # the same fit with component 1 recorded as failed: its row, and only
        # its row, turns nan in every lag matrix
        rng = np.random.default_rng(72)
        d, n, p = 4, 200, 2
        ads = AdjacencySeries((rng.random((n, d, d)) < 0.4).astype(float))
        x = rng.normal(size=(d, n))
        g = [NeighborhoodFn.transpose()] * p
        full = (fit_nar if family == "nar" else fit_lnar)(x, ads, g, p)
        failed = estimate.ModelFit(family=family, p=p, d=d, g=full.g,
                                   components=[c for c in full.components if c.r != 1],
                                   errors={1: "singular"})
        for want, got in zip(full.coefficient_matrices(), failed.coefficient_matrices()):
            assert np.isnan(got[1]).all()
            keep = np.arange(d) != 1
            assert np.array_equal(got[keep], want[keep])


class TestNonFiniteInput:
    def test_every_fit_rejects_a_nan_series(self):
        rng = np.random.default_rng(11)
        d, n = 3, 80
        x = rng.normal(size=(d, n))
        x[1, 40] = np.nan
        ads = AdjacencySeries((rng.random((n, d, d)) < 0.5).astype(float))
        g = [NeighborhoodFn.transpose()]
        for fit in (lambda: fit_nar(x, ads, g, 1), lambda: fit_lnar(x, ads, g, 1),
                    lambda: fit_var(x, 1), lambda: select_order_bic(x, ads, g[0], 2)):
            with pytest.raises(ValueError, match="component 1, time 40"):
                fit()


class TestFitVar:
    def test_all_ones_mask_is_unrestricted(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3, 60))
        full = fit_var(x, 1)
        masked = fit_var(x, 1, mask=np.ones((3, 3)))
        for r in range(3):
            assert np.array_equal(full.components[r].w, masked.components[r].w)

    def test_all_zero_mask_gives_intercept_only(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 50))
        fit = fit_var(x, 1, mask=np.zeros((2, 2)))
        for r in range(2):
            assert fit.components[r].w.size == 0
            assert fit.components[r].mu == pytest.approx(x[r, 1:].mean())

    def test_var_generated_data_matches_ols_oracle(self):
        rng = np.random.default_rng(12)
        d, n = 3, 400
        a = np.array([[0.4, 0.1, 0.0], [0.0, 0.3, 0.2], [0.1, 0.0, 0.2]])
        x = np.zeros((d, n))
        eps = rng.normal(size=(n, d)) + np.array([1.0, -1.0, 0.5])
        for t in range(1, n):
            x[:, t] = a @ x[:, t - 1] + eps[t]
        fit = fit_var(x, 1)
        for r in range(d):
            mu_o, w_o = ols_with_intercept(x[:, :-1].T, x[r, 1:])
            assert np.abs(fit.components[r].w - w_o).max() < 1e-10
            assert abs(fit.components[r].mu - mu_o) < 1e-10


class TestOrderSelection:
    def test_white_noise_prefers_smallest_order(self):
        wins = 0
        reps = 30
        for i in range(reps):
            rng = np.random.default_rng(100 + i)
            x = rng.normal(size=(3, 2000))
            sel = select_order_bic(x, p_max=3, family="var")
            vals = [sel.table[p] for p in (1, 2, 3)]
            if sel.p == 1 and vals[0] < vals[1] < vals[2]:
                wins += 1
        assert wins >= 0.9 * reps

    def test_example1_order_recovery(self):
        stay, enter = example1_network_matrices()
        net = MarkovEdgeNetwork(stay, enter)
        spec = NarSpec(1, [example1_alpha()], [NeighborhoodFn.identity()])
        innov = InnovationSpec(np.array([-1.0, 4.0, -9.0, 16.0]), np.eye(4))
        wins = 0
        reps = 20
        for i in range(reps):
            rng = np.random.default_rng(200 + i)
            ads = net.simulate(800, seed=rng)
            x = simulate_nar(spec, ads, innov, n=500, burn_in=300, seed=rng)
            sel = select_order_bic(x, ads.drop_first(300), NeighborhoodFn.identity(),
                                   p_max=3, family="nar")
            wins += sel.p == 1
        assert wins >= 0.9 * reps

    def test_common_window_assertion_holds(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 200))
        sel = select_order_bic(x, p_max=3, family="var")
        assert set(sel.table) == {1, 2, 3}


def bic_case(d, p_max, seed, n=60):
    """A persistent series on a random binary network, and a random VAR mask."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d, n)).cumsum(axis=1) * 0.3 + rng.normal(size=(d, n))
    ads = AdjacencySeries((rng.random((n, d, d)) < 0.4).astype(float))
    mask = (rng.random((d, d * p_max)) < 0.5).astype(float)
    return x, ads, mask


class TestBicLeadingBlocks:
    """``select_order_bic`` solves leading blocks of the p_max normal
    equations; ``bic_oracle`` refits every candidate from scratch."""

    @pytest.mark.parametrize("p_max", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 3, 12])
    @pytest.mark.parametrize("case", ["nar", "lnar", "var", "var-masked", "var-zero-rows"])
    def test_matches_per_candidate_refits(self, case, d, p_max):
        for seed in range(3):
            x, ads, mask = bic_case(d, p_max, seed)
            if case == "var-zero-rows":
                mask[::2] = 0.0
            if case.startswith("var"):
                kwargs = dict(family="var", mask=None if case == "var" else mask)
            else:
                g = (NeighborhoodFn.transpose() if case == "nar"
                     else NeighborhoodFn.row_normalized_transpose())
                kwargs = dict(ads=ads, g=g, family=case)
            assert_matches_bic_oracle(x, p_max=p_max, **kwargs)

    @pytest.mark.parametrize("p_max", [1, 2, 3])
    @pytest.mark.parametrize("case", ["nar", "lnar", "var-masked"])
    def test_top_candidate_is_the_returned_fit(self, case, p_max):
        # the order-p_max candidate and fit_*(..., p_max, t_start=p_max) solve
        # the same equations with the same residuals: equal bits, not just close
        for seed in range(5):
            x, ads, mask = bic_case(12, p_max, seed)
            if case == "var-masked":
                kwargs = dict(family="var", mask=mask)
                fit = fit_var(x, p_max, mask=mask, t_start=p_max)
            else:
                g = NeighborhoodFn.transpose()
                kwargs = dict(ads=ads, g=g, family=case)
                fit = (fit_nar if case == "nar" else fit_lnar)(x, ads, [g] * p_max, p_max,
                                                               t_start=p_max)
            m = x.shape[1] - p_max
            val = 0.0
            for c in fit.components:
                val += m * log(max(c.rss / m, 1e-300)) + (len(c.index_set) + 1) * log(m)
            assert select_order_bic(x, p_max=p_max, **kwargs).table[p_max] == val, seed

    def test_collinear_series_falls_back_to_per_block_guard(self, monkeypatch):
        # every Gram holding a series and its multiple is singular, and so is
        # every LNAR Gram at d = 1, where the pooled lag is zero; a nearly
        # collinear pair gives condition numbers near 1e14, past the limit:
        # the certificate fails and the ridge jitter fires
        rng = np.random.default_rng(21)
        n, p_max = 80, 3
        x = rng.normal(size=(3, n)).cumsum(axis=1)
        near = x.copy()
        near[1] = 2.0 * x[0] + 3e-6 * rng.normal(size=n)
        x[1] = 2.0 * x[0]
        g = NeighborhoodFn.transpose()
        complete, lone = AdjacencySeries(np.ones((n, 3, 3))), AdjacencySeries(np.zeros((n, 1, 1)))
        cases = (("var", x, {}, lambda: fit_var(x, 1, t_start=p_max)),
                 ("var", near, {}, lambda: fit_var(near, 1, t_start=p_max)),
                 ("nar", x, dict(ads=complete, g=g),
                  lambda: fit_nar(x, complete, [g], 1, t_start=p_max)),
                 ("lnar", x[:1], dict(ads=lone, g=g),
                  lambda: fit_lnar(x[:1], lone, [g], 1, t_start=p_max)))
        for family, xs, kwargs, order1_fit in cases:
            assert any(c.ridge_jitter > 0 for c in order1_fit().components), family
            eig = CallCount(monkeypatch, np.linalg, "eigvalsh")
            select_order_bic(xs, p_max=p_max, family=family, **kwargs)
            # the failed certificate, then the per-block check of every candidate
            assert eig.calls > (1 if family == "var" else len(xs)), family
            monkeypatch.undo()
            assert_matches_bic_oracle(xs, p_max=p_max, family=family, **kwargs)

    def test_certified_var_selection_makes_one_eigensolve_and_one_inverse_per_order(
            self, monkeypatch):
        # one inverse of each order's shared leading block, where a per-equation
        # inverse would make d * p_max = 36
        rng = np.random.default_rng(22)
        d, p_max = 12, 3
        x = rng.normal(size=(d, 300))
        mask = (rng.random((d, d * p_max)) < 0.6).astype(float)
        eig = CallCount(monkeypatch, np.linalg, "eigvalsh")
        inv = CallCount(monkeypatch, np.linalg, "inv")
        select_order_bic(x, p_max=p_max, family="var", mask=mask)
        assert (eig.calls, inv.calls) == (1, p_max)

    @pytest.mark.parametrize("d", [1, 4, 12])
    def test_certified_var_fit_makes_one_eigensolve_and_one_inverse(self, d, monkeypatch):
        rng = np.random.default_rng(28)
        p = 2
        x = rng.normal(size=(d, 300))
        mask = (rng.random((d, d * p)) < 0.6).astype(float)
        for m in (None, mask):
            eig = CallCount(monkeypatch, np.linalg, "eigvalsh")
            inv = CallCount(monkeypatch, np.linalg, "inv")
            fit_var(x, p, mask=m)
            assert (eig.calls, inv.calls) == (1, 1)
            monkeypatch.undo()

    @pytest.mark.parametrize("family", ["nar", "lnar"])
    def test_network_candidates_make_one_eigensolve_per_component(self, family, monkeypatch):
        d, p_max = 5, 3
        x, ads, _ = bic_case(d, p_max, seed=23, n=300)
        eig = CallCount(monkeypatch, np.linalg, "eigvalsh")
        inv = CallCount(monkeypatch, np.linalg, "inv")
        kernel = CallCount(monkeypatch, estimate, "apply_neighborhood_fn")
        select_order_bic(x, ads, NeighborhoodFn.transpose(), p_max=p_max, family=family)
        assert (eig.calls, inv.calls, kernel.calls) == (d, 0, 1)

    def test_fits_make_one_kernel_call_per_distinct_g(self, monkeypatch):
        d, n = 4, 50
        x, ads, _ = bic_case(d, 3, seed=24, n=n)
        tr, rnt = NeighborhoodFn.transpose(), NeighborhoodFn.row_normalized_transpose()
        for fit in (fit_lnar, fit_nar):
            for g_list, distinct in (([tr] * 3, 1), ([tr, rnt, tr], 2), ([rnt], 1)):
                kernel = CallCount(monkeypatch, estimate, "apply_neighborhood_fn")
                fit(x, ads, g_list, len(g_list))
                assert kernel.calls == distinct, (fit.__name__, len(g_list))
                monkeypatch.undo()

    def test_fit_var_on_one_gram_matches_per_equation_solver(self):
        rng = np.random.default_rng(25)
        d, n, p = 6, 150, 2
        x = rng.normal(size=(d, n)).cumsum(axis=1) * 0.2 + rng.normal(size=(d, n))
        x[5] = x[4] - x[3]  # equations that see columns 3, 4 and 5 get the ridge
        mask = (rng.random((d, d * p)) < 0.7).astype(float)
        mask[1] = 0.0
        mask[2] = 1.0
        lagged = np.column_stack([x[:, p - j: n - j].T for j in range(1, p + 1)])
        fit = fit_var(x, p, mask=mask)
        jittered = 0
        for r, c in enumerate(fit.components):
            mem = np.flatnonzero(mask[r])
            ref = fit_component_ls(x[r, p:], lagged[:, mem], r)
            assert c.index_set.members == tuple(mem)
            assert c.ridge_jitter == pytest.approx(ref.ridge_jitter, rel=1e-12)
            jittered += c.ridge_jitter > 0
            scale = max(1.0, np.abs(ref.w).max(initial=0.0))
            tol = 1e-10 if c.ridge_jitter == 0 else 1e-6
            assert np.abs(c.w - ref.w).max(initial=0.0) <= tol * scale
            assert c.mu == pytest.approx(ref.mu, rel=tol, abs=tol)
            assert c.rss == pytest.approx(ref.rss, rel=1e-10)
            assert c.resid_var == pytest.approx(ref.resid_var, rel=1e-10)
            if c.ridge_jitter == 0:
                assert c.gram_cond == pytest.approx(ref.gram_cond, rel=1e-6)
            else:  # the smallest eigenvalue is rounding noise; both exceed the limit
                assert min(c.gram_cond, ref.gram_cond) > estimate._COND_LIMIT
            assert np.allclose(c.gamma_y0, ref.gamma_y0, rtol=1e-12, atol=0)
            assert np.allclose(c.asymp_cov, ref.asymp_cov, rtol=tol * 1e2,
                               atol=tol * np.abs(ref.asymp_cov).max(initial=0.0))
        assert jittered >= 1


def per_block(fn, *args, **kwargs):
    """``fn`` with every certificate withheld, so each VAR equation solves
    its own principal block ``gram[mem, mem]`` with the ridge guard."""
    with mock.patch.object(estimate, "_certified", lambda gram: None):
        return fn(*args, **kwargs)


def assert_var_fits_close(got, ref, rtol=1e-10):
    """Same index sets and jitter; w, mu, rss, resid_var and asymp_cov within
    ``rtol`` of the reference's largest entry."""
    assert [c.r for c in got.components] == [c.r for c in ref.components]
    for c, e in zip(got.components, ref.components):
        assert c.index_set.members == e.index_set.members
        assert c.ridge_jitter == e.ridge_jitter
        for name in ("w", "mu", "rss", "resid_var", "asymp_cov"):
            a, b = np.asarray(getattr(c, name)), np.asarray(getattr(e, name))
            assert a.shape == b.shape, name
            scale = np.abs(b).max(initial=0.0)
            assert np.abs(a - b).max(initial=0.0) <= rtol * scale, (c.r, name)


def var_mask(kind, d, p_max, rng):
    if kind == "unmasked":
        return None
    mask = (rng.random((d, d * p_max)) < 0.6).astype(float)
    if kind == "zero-rows":
        mask[::2] = 0.0
    elif kind == "one-column":
        mask[0] = 0.0
        mask[0, rng.integers(d * p_max)] = 1.0
    return mask


def assert_shared_matches_per_block(x, p_max, mask):
    """Selection and every order's fit agree with the per-block path, and the
    shared path ran: one eigensolve (the certificate) per call."""
    d = x.shape[0]
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eig:
        got = select_order_bic(x, p_max=p_max, family="var", mask=mask)
        assert eig.call_count == 1
    ref = per_block(select_order_bic, x, p_max=p_max, family="var", mask=mask)
    assert got.p == ref.p
    for p, val in ref.table.items():
        assert got.table[p] == pytest.approx(val, rel=1e-10, abs=0.0), p
    for p in range(1, p_max + 1):
        sub = None if mask is None else mask[:, : d * p]
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eig:
            fit = fit_var(x, p, mask=sub)
            assert eig.call_count == 1
        assert all(c.ridge_jitter == 0.0 for c in fit.components)
        assert_var_fits_close(fit, per_block(fit_var, x, p, mask=sub))


class TestSharedVarPath:
    """The certified VAR solves every equation from one inverse per order;
    ``per_block`` runs the ridge-guarded per-equation solve it replaces."""

    @pytest.mark.parametrize("p_max", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 3, 12])
    @pytest.mark.parametrize("kind", ["unmasked", "random", "zero-rows", "one-column"])
    def test_matches_per_block_path(self, kind, d, p_max):
        for seed in range(2):
            x, _, _ = bic_case(d, p_max, seed, n=120)
            rng = np.random.default_rng(seed)
            assert_shared_matches_per_block(x, p_max, var_mask(kind, d, p_max, rng))

    def test_matches_per_block_path_at_d100(self):
        rng = np.random.default_rng(29)
        d, p_max = 100, 2
        x = rng.normal(size=(d, 320)).cumsum(axis=1) * 0.1 + rng.normal(size=(d, 320))
        mask = (rng.random((d, d * p_max)) < 0.9).astype(float)
        mask[3] = 0.0
        assert_shared_matches_per_block(x, p_max, mask)

    def test_collinear_series_keeps_the_per_block_jitter(self):
        # the shared Gram is singular, the certificate fails and every equation
        # solves its own block: the fit is the per-block fit, bit for bit, and
        # its jitter is the one the per-equation solver gives that block
        rng = np.random.default_rng(30)
        d, n, p = 3, 90, 2
        x = rng.normal(size=(d, n)).cumsum(axis=1)
        x[1] = 2.0 * x[0]
        mask = np.ones((d, d * p))
        mask[2, 1] = 0.0
        lagged = np.column_stack([x[:, p - j: n - j].T for j in range(1, p + 1)])
        fit = fit_var(x, p, mask=mask)
        ref = per_block(fit_var, x, p, mask=mask)
        assert_var_fits_close(fit, ref, rtol=0.0)
        for c in fit.components:
            mem = np.flatnonzero(mask[c.r])
            solo = fit_component_ls(x[c.r, p:], lagged[:, mem], c.r)
            assert c.ridge_jitter > 0.0
            assert c.ridge_jitter == pytest.approx(solo.ridge_jitter, rel=1e-12)
        assert_matches_bic_oracle(x, p_max=p, family="var", mask=mask)
        sel = select_order_bic(x, p_max=p, family="var", mask=mask)
        assert sel.table == per_block(select_order_bic, x, p_max=p, family="var",
                                      mask=mask).table

    def test_random_cases_match_per_block_path(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hyp.settings(max_examples=30, deadline=None, derandomize=True)
        @hyp.given(d=st.integers(1, 6), p_max=st.integers(1, 3),
                   density=st.sampled_from([0.0, 0.3, 0.8, 1.0]), seed=st.integers(0, 2**16))
        def check(d, p_max, density, seed):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(d, 80)).cumsum(axis=1) * 0.3 + rng.normal(size=(d, 80))
            mask = (rng.random((d, d * p_max)) < density).astype(float)
            assert_shared_matches_per_block(x, p_max, mask)

        check()

    def test_certified_fit_reports_the_certifying_condition_number(self):
        rng = np.random.default_rng(31)
        d, p = 4, 2
        x = rng.normal(size=(d, 200))
        mask = (rng.random((d, d * p)) < 0.7).astype(float)
        fit = fit_var(x, p, mask=mask)
        lagged = np.column_stack([x[:, p - j: -j].T for j in range(1, p + 1)])
        eigs = np.linalg.eigvalsh(np.cov(lagged.T, bias=True) * lagged.shape[0])
        for c, ref in zip(fit.components, per_block(fit_var, x, p, mask=mask).components):
            assert c.gram_cond == pytest.approx(eigs[-1] / eigs[0], rel=1e-8)
            assert 1.0 <= ref.gram_cond <= c.gram_cond * (1 + 1e-8)  # interlacing


class TestOrderSelectionInputs:
    @pytest.mark.parametrize("family", ["nar", "lnar"])
    def test_network_family_names_the_missing_argument(self, family):
        x, ads, _ = bic_case(3, 2, seed=26)
        g = NeighborhoodFn.transpose()
        with pytest.raises(ValueError, match="needs the network series ads"):
            select_order_bic(x, g=g, p_max=2, family=family)
        with pytest.raises(ValueError, match="needs the neighborhood function g"):
            select_order_bic(x, ads, p_max=2, family=family)

    @pytest.mark.parametrize("cols", [9, 4, 3])
    def test_var_mask_must_cover_p_max_lags(self, cols):
        x, _, _ = bic_case(3, 2, seed=27)
        with pytest.raises(ValueError, match=r"\(d, d\*p_max\) = \(3, 6\), got \(3, %d\)" % cols):
            select_order_bic(x, p_max=2, family="var", mask=np.ones((3, cols)))

    @pytest.mark.parametrize("bad", [np.nan, 0.5, -3.0])
    def test_var_mask_entries_must_be_binary(self, bad):
        x, _, _ = bic_case(3, 2, seed=32)
        mask = np.ones((3, 6))
        mask[1, 2] = bad
        with pytest.raises(ValueError, match=r"mask entry \(1, 2\) is %s, not 0 or 1" % bad):
            select_order_bic(x, p_max=2, family="var", mask=mask)
        with pytest.raises(ValueError, match=r"mask entry \(1, 2\) is %s, not 0 or 1" % bad):
            fit_var(x, 2, mask=mask)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            select_order_bic(np.zeros((2, 30)), family="arma")

    @pytest.mark.parametrize("fit", [fit_nar, fit_lnar])
    def test_fits_name_the_missing_argument(self, fit):
        x, ads, _ = bic_case(3, 2, seed=28)
        g = NeighborhoodFn.transpose()
        with pytest.raises(ValueError, match="needs the network series ads"):
            fit(x, None, [g, g], 2)
        with pytest.raises(ValueError, match="needs the neighborhood function g"):
            fit(x, ads, [g, None], 2)


class TestTheorem2Bound:
    CONSTANTS = {
        "c_lambda": 0.9,
        "c_a": 1.0,
        "c_delta_y": 2.0,
        "rho_gamma_inv": 0.5,
        "mu_y_norm": 1.0,
        "eps_norm": 2.0,
        "mu_r": 0.5,
        "c_q": 1.0,
        "c_q_prime": 1.0,
    }

    def test_vanishes_at_zero(self):
        res = eval_theorem2_bound(0.0, 4, 1, self.CONSTANTS, 1000)
        assert res.w_bound == 0.0 and res.mu_bound == 0.0 and res.feasible

    def test_probability_increases_with_n(self):
        y = 0.005  # inside the feasible region for these constants
        res1 = eval_theorem2_bound(y, 4, 1, self.CONSTANTS, 1_000_000)
        res2 = eval_theorem2_bound(y, 4, 1, self.CONSTANTS, 2_000_000)
        assert res1.feasible and res2.feasible
        assert res2.prob_lower > res1.prob_lower > 0

    def test_bound_monotone_in_y_on_feasible_range(self):
        ys = np.linspace(1e-6, 0.005, 40)
        vals = [eval_theorem2_bound(float(y), 4, 1, self.CONSTANTS, 5000) for y in ys]
        assert all(v.feasible for v in vals)
        w = [v.w_bound for v in vals]
        assert all(b > a for a, b in zip(w, w[1:]))

    def test_infeasible_denominator_flagged(self):
        res = eval_theorem2_bound(10.0, 4, 1, self.CONSTANTS, 1000)
        assert not res.feasible
        assert res.w_bound == float("inf")


class TestLnarFit:
    def test_recovers_coefficients_on_clean_data(self):
        rng = np.random.default_rng(15)
        d, n = 6, 4000
        r_idx = np.arange(1, d + 1)
        alpha = (0.5 * r_idx / d)[None, :]
        beta = (0.4 * (d - r_idx) / d)[None, :]
        g = [NeighborhoodFn.row_normalized_transpose()]
        spec = LnarSpec(1, alpha, beta, g)
        net = MarkovEdgeNetwork(np.full((d, d), 0.9), np.full((d, d), 0.2))
        ads = net.simulate(n + 300, seed=rng)
        innov = InnovationSpec.standard(d)
        x = simulate_lnar(spec, ads, innov, n=n, burn_in=300, seed=rng)
        fit = fit_lnar(x, ads.drop_first(300), g, 1)
        a_hat, b_hat = fit.alpha_beta()
        assert np.abs(a_hat - alpha).max() < 0.08
        assert np.abs(b_hat - beta).max() < 0.12


@pytest.mark.parametrize("fit", [
    lambda x, ads, g: fit_nar(x, ads, [g], 1),
    lambda x, ads, g: fit_lnar(x, ads, [g], 1),
    lambda x, ads, g: select_order_bic(x, ads, g, p_max=2, family="nar"),
], ids=["fit_nar", "fit_lnar", "select_order_bic"])
def test_network_vertex_count_must_match_the_series(fit):
    x = np.random.default_rng(3).standard_normal((4, 60))
    ads = AdjacencySeries(np.ones((59, 3, 3)))
    with pytest.raises(ValueError, match="the network has 3 vertices but the process has "
                                         "4 components"):
        fit(x, ads, NeighborhoodFn.transpose())
