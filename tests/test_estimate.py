import os
import pickle
import tracemalloc
from math import log
from unittest import mock

import hypothesis as hyp
import hypothesis.strategies as st
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
    fit_component_ls,
    fit_lnar,
    fit_nar,
    fit_var,
    select_order_bic,
    simulate_lnar,
    simulate_nar,
)
from netar import estimate, netdyn
from netar.estimate import ComponentFit, ModelFit, OrderSelection, _lnar_design, _nar_design
from netar.io import fit_to_json

from test_netdyn import example1_network_matrices, kernel_variants, zero_diag_oracle
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


def lnar_design_oracle(x, ads, g_list, p):
    """Per-target-time loop for the per-component design, one snapshot at a time."""
    d, n = x.shape
    Y = np.zeros((d, n - p, 2 * p))
    for j in range(1, p + 1):
        for row, t in enumerate(range(p - j, n - j)):
            Y[:, row, 2 * (j - 1)] = x[:, t]
            Y[:, row, 2 * (j - 1) + 1] = zero_diag_oracle(g_list[j - 1], ads[t]) @ x[:, t]
    return Y, x[:, p:]


def bic_oracle(x, ads=None, g=None, p_max=3, family="nar", mask=None):
    """Order selection with one full ``fit_*`` call per candidate order.

    The former ``select_order_bic`` body: every candidate is refitted from
    scratch on the common window t = p_max..n-1, covariances included:
    order p fits the series from time p_max - p on.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d, n = x.shape
    m = n - p_max
    table = {}
    best_p, best_val = None, None
    for p in range(1, p_max + 1):
        xs, s = x[:, p_max - p:], p_max - p
        try:
            if family == "nar":
                fit = fit_nar(xs, ads.drop_first(s), [g] * p, p)
            elif family == "lnar":
                fit = fit_lnar(xs, ads.drop_first(s), [g] * p, p)
            else:
                sub_mask = None if mask is None else np.asarray(mask)[:, : d * p]
                fit = fit_var(xs, p, mask=sub_mask)
        except EstimationError:
            table[p] = float("inf")
            continue
        val = 0.0
        degenerate = False
        for c in fit.components:
            k_r = len(c.members) + 1
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
        fit = fit_component_ls(rng.normal(size=30), rng.normal(size=(30, 2)), r=0)
        # the moments are built when first read, and raise there
        with pytest.raises(EstimationError, match="^component 1: .*asymptotic covariance"):
            fit.asymp_cov

    def test_too_few_observations(self):
        with pytest.raises(EstimationError, match="observations"):
            fit_component_ls(np.zeros(3), np.zeros((3, 5)), r=0)

    def test_index_set_length_must_match_columns(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="2 members but Y has 3 columns"):
            fit_component_ls(rng.normal(size=50), rng.normal(size=(50, 3)), r=0,
                             members=(1, 2))


G = NeighborhoodFn.transpose()


def component(r=0, k=2, **changes):
    fields = dict(r=r, members=tuple(range(k)), w=np.full(k, 0.1), mu=0.5, resid_var=1.0,
                  gamma_y0=np.eye(k), asymp_cov=np.eye(k), rss=3.0, n_obs=40)
    return ComponentFit(**{**fields, **changes})


class TestFitRules:
    """ComponentFit and ModelFit check themselves, naming the component and the field."""

    @pytest.mark.parametrize("changes, message", [
        (dict(w=np.zeros(3)), "component 2 has 3 coefficients w for 2 indices in its index_set$"),
        (dict(w=[0.1, np.nan]), "component 2 has a non-finite w$"),
        (dict(mu=np.inf), "component 2 has a non-finite mu$"),
        (dict(mu="abc"), "component 2 has a mu that is not a number$"),
        (dict(gamma_y0=np.eye(3)), "component 2 has a gamma_y0 that is not 2 x 2$"),
        (dict(asymp_cov=np.ones(3)), "component 2 has a asymp_cov that is not 2 x 2$"),
        (dict(n_obs="abc"), "component 2's n_obs must be an integer of at least 1, got 'abc'$"),
        (dict(n_obs=40.0), "component 2's n_obs must be an integer of at least 1, got 40.0$"),
    ])
    def test_component_rules(self, changes, message):
        with pytest.raises(ValueError, match=message):
            component(r=1, **changes)

    def test_component_takes_lists_and_nan_variances(self):
        c = component(k=2, w=[0.1, 0.2], gamma_y0=[[1.0, 0.0], [0.0, 1.0]],
                      resid_var=float("nan"), asymp_cov=np.full((2, 2), np.nan))
        assert c.w.shape == (2,) and c.gamma_y0.shape == (2, 2) and np.isnan(c.resid_var)

    @pytest.mark.parametrize("changes, message", [
        (dict(family="foo"), "family 'foo' is not one of nar, lnar, var$"),
        (dict(p="1"), "p must be an integer of at least 0, got '1'$"),
        (dict(p=-1), "p must be an integer of at least 0, got -1$"),
        (dict(p=True), "p must be an integer of at least 0, got True$"),
        (dict(d="3"), "d must be an integer of at least 0, got '3'$"),
        (dict(g=(G,) * 2), "g must hold p=1 neighborhood functions for a nar fit, got 2$"),
        (dict(g=None), "g must hold p=1 neighborhood functions for a nar fit, got None$"),
        (dict(family="var"), r"g must be None for a var fit"),
        (dict(components=[component(0), component(2), component(1)]),
         "component 2 is missing, repeated or out of place"),
        (dict(components=[component(0), component(1)]), "component 3 is missing"),
        (dict(components=[component(r) for r in range(4)]), "component 4 is missing"),
        (dict(components=[component(0), component(1), component(2, members=(1, 3))]),
         "component 3 has index 4, not an integer in 1..3$"),
    ])
    def test_model_rules(self, changes, message):
        fields = dict(family="nar", p=1, d=3, g=(G,), components=[component(r) for r in range(3)])
        with pytest.raises(ValueError, match=message):
            ModelFit(**{**fields, **changes})

    def test_lnar_components_hold_every_own_and_pooled_lag(self):
        comps = [component(r, k=4) for r in range(3)]
        ModelFit(family="lnar", p=2, d=3, g=(G, G), components=comps)
        comps[1] = component(1, k=3)
        with pytest.raises(ValueError, match=r"component 2's lnar index_set is not 1\.\.4$"):
            ModelFit(family="lnar", p=2, d=3, g=(G, G), components=comps)


def nar_index_sets(x, ads, g_list, p):
    return [idx for idx, _ in _nar_design(x, ads, g_list, p)]


class TestIndexSets:
    def test_zero_network_gives_empty_set(self):
        ads = AdjacencySeries(np.zeros((20, 3, 3)))
        idx = nar_index_sets(np.zeros((3, 20)), ads, [NeighborhoodFn.transpose()], 1)[0]
        assert len(idx) == 0

    def test_static_complete_network_activates_all(self):
        ads = AdjacencySeries(np.ones((20, 3, 3)))
        for r in range(3):
            idx = nar_index_sets(np.zeros((3, 20)), ads, [NeighborhoodFn.transpose()], 1)[r]
            assert idx == tuple(range(3))

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(5)
        stay, enter = example1_network_matrices()
        net = MarkovEdgeNetwork(stay, enter)
        ads = net.simulate(500, seed=rng)
        n = 500
        p = 2
        g = [NeighborhoodFn.identity(), NeighborhoodFn.identity()]
        sets = nar_index_sets(np.zeros((4, n)), ads, g, p)
        d = 4
        for r in range(d):
            brute = []
            for j in range(1, p + 1):
                for i in range(d):
                    mass = sum(abs(g[j - 1].apply(ads[t - j])[r, i]) for t in range(p, n))
                    if mass > 0:
                        brute.append(i + (j - 1) * d)
            assert sets[r] == tuple(sorted(brute))

    def test_one_based_flattening(self):
        comp = ComponentFit(r=0, members=(0, 2, 5), w=np.zeros(3), mu=0.0, resid_var=1.0,
                            gamma_y0=np.eye(3), asymp_cov=np.eye(3), rss=0.0, n_obs=10)
        fit = ModelFit(family="var", p=2, d=3, g=None, components=[
            comp, *(ComponentFit(r, (), [], 0.0, 1.0, [], [], 0.0, 10) for r in (1, 2))])
        assert fit_to_json(fit)["components"][0]["index_set"] == [1, 3, 6]


class TestRegressors:
    def test_static_complete_network_gives_lagged_values(self):
        rng = np.random.default_rng(6)
        d, n = 3, 12
        x = rng.normal(size=(d, n))
        ads = AdjacencySeries(np.ones((n, d, d)))
        g = [NeighborhoodFn.transpose()]
        idx, Y = list(_nar_design(x, ads, g, 1))[1]
        assert idx == (0, 1, 2)
        assert np.allclose(Y, x[:, :-1].T)

    def test_hand_computed_three_node_case(self):
        # weighted snapshot, p = 1, check the t = 2 row entry by entry
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        mats = np.zeros((3, 3, 3))
        mats[1] = np.array([[0.0, 0.5, 0.0], [0.2, 0.0, 0.0], [0.0, -0.3, 0.0]])
        ads = AdjacencySeries(mats)
        g = [NeighborhoodFn.transpose()]
        idx, Y = list(_nar_design(x, ads, g, 1))[1]
        # vertex 2 carries no mass into component 1
        assert idx == (0, 2)
        # row for t=2 uses G(Ad_1) = Ad_1^T, row 1: (0.5, 0, -0.3)
        expected = [0.5 * x[0, 1], -0.3 * x[2, 1]]
        assert np.allclose(Y[1], expected)

    def test_lnar_regressor_is_in_neighbor_average(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        mats = np.zeros((2, 3, 3))
        mats[0][0, 2] = 1.0  # edges into vertex 3 from 1 and 2
        mats[0][1, 2] = 1.0
        ads = AdjacencySeries(mats)
        g = [NeighborhoodFn.row_normalized_transpose()]
        Y, y = _lnar_design(x, ads, g, 1)
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
        x = rng.normal(size=(d, n))
        ads = AdjacencySeries(rng.uniform(-1, 1, (n, d, d)) * (rng.random((n, d, d)) < 0.5))
        tr, rnt = NeighborhoodFn.transpose(), NeighborhoodFn.row_normalized_transpose()
        for g_list, s in (([tr, rnt, tr], 0), ([rnt, tr, tr], 3), ([tr] * 2, 0)):
            p = len(g_list)
            xs, sub = x[:, s:], ads.drop_first(s)
            stacks = [apply_neighborhood_fn(g, sub.mats[p - j: n - s - j])
                      for j, g in enumerate(g_list, start=1)]
            for r, (idx, Y) in enumerate(_nar_design(xs, sub, g_list, p)):
                for col, flat in enumerate(idx):
                    i, j = flat % d, flat // d + 1
                    expected = stacks[j - 1][:, r, i] * xs[i, p - j: n - s - j]
                    assert np.array_equal(Y[:, col], expected), (j, s)

    @pytest.mark.parametrize("d", [1, 4, 33, 100])
    def test_lnar_design_matches_per_t_oracle(self, d):
        rng = np.random.default_rng(d)
        n = 60
        x = rng.normal(size=(d, n)) * 3.0
        ads = AdjacencySeries(rng.uniform(-1, 1, (n, d, d)) * (rng.random((n, d, d)) < 0.3))
        rnt, tr = NeighborhoodFn.row_normalized_transpose(), NeighborhoodFn.transpose()
        for g_list, s in (([rnt], 0), ([tr] * 3, 0),
                          ([NeighborhoodFn.identity()] * 2, 3), ([tr, rnt, tr], 4)):
            p = len(g_list)
            xs, sub = x[:, s:], ads.drop_first(s)
            got = _lnar_design(xs, sub, g_list, p)
            expected = lnar_design_oracle(xs, sub, g_list, p)
            assert np.array_equal(got[0], expected[0]), (g_list[0].kind, d, s)
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
            for flat in fit.components[r].members:
                assert coef[r, flat % 4] == pytest.approx(alpha[r, flat % 4], abs=1e-6)


class TestPartialFits:
    def test_unidentifiable_component_fails_the_whole_fit(self):
        # component 1 sees five regressors on five observations (unidentifiable),
        # so the fit raises although the single-edge components would fit
        rng = np.random.default_rng(71)
        d, n = 5, 6
        mats = np.zeros((n, d, d))
        mats[:, :, 0] = 1.0  # every vertex feeds vertex 1
        for r in range(1, d):
            mats[:, r - 1, r] = 1.0  # chain edges for the rest
        ads = AdjacencySeries(mats)
        x = rng.normal(size=(d, n))
        g = [NeighborhoodFn.transpose()]
        with pytest.raises(EstimationError, match="^component 1: "):
            fit_nar(x, ads, g, 1)


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
            with pytest.raises(ValueError, match="component 2, time 40"):
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

    @pytest.mark.parametrize("masked", [False, True], ids=["var", "masked_var"])
    def test_fits_do_not_depend_on_the_memory_layout(self, masked):
        # a column-major series, as a CSV reads, fits as its row-major copy does
        rng = np.random.default_rng(13)
        x = rng.normal(size=(5, 300)).cumsum(axis=1)
        mask = (rng.random((5, 10)) < 0.6).astype(float) if masked else None
        bits = [[(c.members, c.w.tobytes(), c.mu, c.resid_var, c.rss) for c in fit_var(
            layout(x), 2, mask=mask).components] for layout in (np.ascontiguousarray,
                                                                 np.asfortranarray)]
        assert bits[0] == bits[1]
        tables = [select_order_bic(layout(x), p_max=2, family="var", mask=mask).table
                  for layout in (np.ascontiguousarray, np.asfortranarray)]
        assert tables[0] == tables[1]

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
        # the order-p_max candidate and the order-p_max fit solve
        # the same equations with the same residuals: equal bits, not just close
        for seed in range(5):
            x, ads, mask = bic_case(12, p_max, seed)
            if case == "var-masked":
                kwargs = dict(family="var", mask=mask)
                fit = fit_var(x, p_max, mask=mask)
            else:
                g = NeighborhoodFn.transpose()
                kwargs = dict(ads=ads, g=g, family=case)
                fit = (fit_nar if case == "nar" else fit_lnar)(x, ads, [g] * p_max, p_max)
            m = x.shape[1] - p_max
            val = 0.0
            for c in fit.components:
                val += m * log(max(c.rss / m, 1e-300)) + (len(c.members) + 1) * log(m)
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
        s = p_max - 1  # order 1 on the common window t = p_max..n-1
        cases = (("var", x, {}, lambda: fit_var(x[:, s:], 1)),
                 ("var", near, {}, lambda: fit_var(near[:, s:], 1)),
                 ("nar", x, dict(ads=complete, g=g),
                  lambda: fit_nar(x[:, s:], complete.drop_first(s), [g], 1)),
                 ("lnar", x[:1], dict(ads=lone, g=g),
                  lambda: fit_lnar(x[:1, s:], lone.drop_first(s), [g], 1)))
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
        # every component's certificate is one eigensolve: NAR solves each component as
        # a stack of one, LNAR all five in one stack with one batched eigvalsh call
        d, p_max = 5, 3
        x, ads, _ = bic_case(d, p_max, seed=23, n=300)
        original, solved = np.linalg.eigvalsh, []

        def eigvalsh(a):
            solved.append(a.shape[:-2])
            return original(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        inv = CallCount(monkeypatch, np.linalg, "inv")
        kernel = CallCount(monkeypatch, netdyn, "apply_neighborhood_fn")
        select_order_bic(x, ads, NeighborhoodFn.transpose(), p_max=p_max, family=family)
        stacks = [(1,)] * d if family == "nar" else [(d,)]
        assert (solved, inv.calls, kernel.calls) == (stacks, 0, 1)

    def test_fits_make_one_kernel_call_per_distinct_g(self, monkeypatch):
        # the series keeps each evaluation, so a second fit on it makes none
        d, n = 4, 50
        x, ads, _ = bic_case(d, 3, seed=24, n=n)
        tr, rnt = NeighborhoodFn.transpose(), NeighborhoodFn.row_normalized_transpose()
        for fit in (fit_lnar, fit_nar):
            for g_list, distinct in (([tr] * 3, 1), ([tr, rnt, tr], 2), ([rnt], 1)):
                fresh = AdjacencySeries(ads.mats)
                kernel = CallCount(monkeypatch, netdyn, "apply_neighborhood_fn")
                fit(x, fresh, g_list, len(g_list))
                assert kernel.calls == distinct, (fit.__name__, len(g_list))
                fit(x, fresh, g_list, len(g_list))
                assert kernel.calls == distinct, (fit.__name__, len(g_list), "again")
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
            assert c.members == tuple(mem)
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
    """``fn`` with every certificate withheld, so each VAR equation is fitted
    on its own lagged columns with the ridge guard on every block."""
    with mock.patch.object(estimate, "_certified", lambda gram: None):
        return fn(*args, **kwargs)


def assert_var_fits_close(got, ref, rtol=1e-10):
    """Same index sets and jitter; w, mu, rss, resid_var and asymp_cov within
    ``rtol`` of the reference's largest entry."""
    assert [c.r for c in got.components] == [c.r for c in ref.components]
    for c, e in zip(got.components, ref.components):
        assert c.members == e.members
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
        # is fitted on its own lagged columns: the fit is the per-block fit and
        # each equation is fit_component_ls on its columns, bit for bit
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
            solo = fit_component_ls(x[c.r, p:], lagged[:, mem], c.r, members=tuple(mem))
            assert c.ridge_jitter > 0.0 and solo.members == c.members
            for name in ("w", "mu", "rss", "resid_var", "ridge_jitter", "gram_cond",
                         "gamma_y0", "asymp_cov"):
                assert np.array_equal(getattr(solo, name), getattr(c, name)), (c.r, name)
        assert_matches_bic_oracle(x, p_max=p, family="var", mask=mask)
        sel = select_order_bic(x, p_max=p, family="var", mask=mask)
        assert sel.table == per_block(select_order_bic, x, p_max=p, family="var",
                                      mask=mask).table

    def test_random_cases_match_per_block_path(self):
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
        with pytest.raises(ValueError, match=r"mask must have shape \(3, 6\), got \(3, %d\)" % cols):
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
        with pytest.raises(ValueError, match="family 'arma' is not one of nar, lnar, var$"):
            select_order_bic(np.zeros((2, 30)), family="arma")

    @pytest.mark.parametrize("fit", [fit_nar, fit_lnar])
    def test_fits_name_the_missing_argument(self, fit):
        x, ads, _ = bic_case(3, 2, seed=28)
        g = NeighborhoodFn.transpose()
        with pytest.raises(ValueError, match="needs the network series ads"):
            fit(x, None, [g, g], 2)
        with pytest.raises(ValueError, match="needs the neighborhood function g"):
            fit(x, ads, [g, None], 2)


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


@pytest.mark.parametrize("g", [None, NeighborhoodFn.transpose()], ids=["raw", "g"])
@pytest.mark.parametrize("mats, message", [
    (np.ones((20, 4, 4)), "var fit: network series too short, need at least 79 snapshots, "
                          "got 20$"),
    (np.ones((79, 3, 3)), "var fit: the network has 3 vertices but the process has 4 "
                          "components$"),
    (None, "a network-masked var needs the network series ads$"),
], ids=["short", "vertices", "none"])
def test_masked_var_checks_its_network(g, mats, message):
    # the mask comes from the network's first n - 1 snapshots, so a network that
    # cannot supply them is refused, with or without a g to apply to it
    x = np.random.default_rng(4).standard_normal((4, 80))
    ads = None if mats is None else AdjacencySeries(mats)
    with pytest.raises(ValueError, match=message):
        estimate._fit_by_bic([("var", g, True)], x, ads, 2)


def outcome_values(outcome):
    """A ``_fit_by_bic`` outcome as lists that compare bit for bit: each component's
    estimates and ``gram_cond``, and the BIC table; or the error's message."""
    if isinstance(outcome, EstimationError):
        return str(outcome)
    fit, sel = outcome
    return [fit.p, [[c.members, c.w.tolist(), c.mu, c.rss, c.gram_cond, c.ridge_jitter]
                    for c in fit.components], None if sel is None else sel.table]


class TestChunkedFitPass:
    """The fits read G from one chunked pass over the estimation snapshots; no chunk
    size changes a fit, a BIC table or a ``gram_cond``, for any G shape."""

    @pytest.mark.parametrize("chunk", [1, 7, "T"])
    def test_chunk_size_changes_no_fit(self, monkeypatch, chunk):
        rng = np.random.default_rng(71)
        d, n = 5, 60
        x = rng.normal(size=(d, n))
        on = rng.random((n - 1, d, d)) < 0.4
        weighted = rng.uniform(-1, 1, on.shape) * on
        cases = [(fn, mats) for fn, binary in kernel_variants(d, rng)
                 for mats in ([on] if binary else [on, weighted])]
        expected = [[outcome_values(o) for o in estimate._fit_by_bic(
            [("nar", fn, False), ("lnar", fn, False), ("var", fn, True)], x,
            AdjacencySeries(mats), 2)] for fn, mats in cases]
        monkeypatch.setattr(netdyn, "_snapshots_per_chunk",
                            lambda d: n - 1 if chunk == "T" else chunk)
        for (fn, mats), want in zip(cases, expected):
            got = estimate._fit_by_bic(
                [("nar", fn, False), ("lnar", fn, False), ("var", fn, True)], x,
                AdjacencySeries(mats), 2)
            assert [outcome_values(o) for o in got] == want, (fn.kind, mats.dtype)

    def test_random_g_parts_match_one_unchunked_evaluation(self):
        """``_g_parts``' stack, support and pooled series, built one part per call in
        any order and one chunk of 1, 7 or T snapshots at a time, equal what one
        unchunked evaluation of G gives, bit for bit; a new x rebuilds the pooled one."""

        def pooled(stack, x):
            zd = stack.copy()
            zd[:, np.arange(x.shape[0]), np.arange(x.shape[0])] = 0.0
            xk = x[:, : len(stack)]
            np.testing.assert_allclose((zd @ xk.T[..., None])[..., 0].T,
                                       np.einsum("tij,jt->it", zd, xk), atol=1e-12)
            return (zd @ xk.T[..., None])[..., 0].T

        @hyp.settings(max_examples=60, deadline=None, derandomize=True)
        @hyp.given(d=st.integers(1, 6), n=st.integers(2, 40), extra=st.integers(0, 3),
                   chunk=st.sampled_from([1, 7, "T"]), seed=st.integers(0, 2**16),
                   order=st.permutations(["stack", "support", "pooled"]))
        def check(d, n, extra, chunk, seed, order):
            rng = np.random.default_rng(seed)
            x, x_new = rng.normal(size=(2, d, n))
            on = rng.random((n - 1 + extra, d, d)) < 0.4
            signed = rng.uniform(-1, 1, on.shape) * on
            for fn, binary in kernel_variants(d, rng):
                for mats in (on, on * 1.0 if binary else signed):
                    stack = apply_neighborhood_fn(fn, mats[: n - 1])  # below one chunk at d <= 6
                    want = {"stack": stack, "support": (stack != 0).any(axis=0),
                            "pooled": pooled(stack, x)}
                    ads = AdjacencySeries(mats)
                    with mock.patch.object(netdyn, "_snapshots_per_chunk",
                                           lambda d: n - 1 if chunk == "T" else chunk):
                        for part in order:
                            got = ads._g_parts(fn, x, (part,))
                        for part, value in want.items():
                            assert got[part].dtype == value.dtype, (fn.kind, part)
                            assert np.array_equal(got[part], value), (fn.kind, mats.dtype, part)
                        rebuilt = ads._g_parts(fn, x_new, ("pooled",))["pooled"]
                    assert np.array_equal(rebuilt, pooled(stack, x_new)), fn.kind

        check()


def test_lnar_and_masked_var_fits_keep_no_float_g_stack():
    # LNAR reads the pooled series and the masked VAR the support of G, each
    # reduced from private chunks, so neither holds a float (n-1, d, d) evaluation
    rng = np.random.default_rng(606)
    d, n = 60, 800
    x = rng.normal(size=(d, n))
    mats = rng.random((n - 1, d, d)) < 0.05
    models = [("lnar", NeighborhoodFn.sign_poly(2), False),
              ("var", NeighborhoodFn.sign_poly(2), True)]
    estimate._fit_by_bic(models, x, AdjacencySeries(mats), 3)  # warm-up, on a series of its own
    tracemalloc.start()
    try:
        outcomes = estimate._fit_by_bic(models, x, AdjacencySeries(mats), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(isinstance(o, EstimationError) for o in outcomes)
    assert peak < (n - 1) * d * d * 8 / 2, f"peak {peak / 2**20:.1f} MiB"


def stack_case(s, k, m, p_max, seed, kinds):
    """A stack of ``s`` systems with ``k`` columns at sorted random lags below ``p_max``:
    designs (s, m, k), targets (s, m) and lags.  ``kinds[i]`` shapes system i: "plain";
    "duplicated" (column 1 repeats column 0, which forces the ridge); "near" (column 1
    is column 0 plus 1e-7 noise: no certificate, and a condition number near the limit);
    "refused" (column 0 is a balanced +-2**16, a Gram entry that ``refusing_solve``
    turns into a LinAlgError)."""
    rng = np.random.default_rng(seed)
    Y = rng.normal(size=(s, m, k)) * rng.uniform(0.5, 3.0, size=(s, 1, k))
    for i, kind in enumerate(kinds):
        if kind == "duplicated" and k >= 2:
            Y[i, :, 1] = Y[i, :, 0]
        elif kind == "near" and k >= 2:
            Y[i, :, 1] = Y[i, :, 0] + 1e-7 * rng.normal(size=m)
        elif kind == "refused" and k >= 1:
            Y[i, :, 0] = 2.0 ** 16 * rng.permutation(np.repeat([1.0, -1.0], m // 2))
    y = (Y @ rng.normal(size=k)) + rng.normal(size=(s, m))
    return Y, y, np.sort(rng.integers(0, p_max, size=k))


def refusing_solve(mode):
    """``np.linalg.solve`` that reports a singular matrix for any block whose first
    entry is above 1e9: always, or only while that entry is a whole number, as it is
    until a ridge jitter is added to it."""
    original = np.linalg.solve

    def solve(a, b):
        first = a[..., 0, 0] if a.shape[-1] else np.zeros(a.shape[:-2])
        refused = (first > 1e9) & ((mode == "always") | (first % 1.0 == 0.0))
        if refused.any():
            raise np.linalg.LinAlgError("Singular matrix")
        return original(a, b)

    return solve


def solution_bits(sols, i):
    """Everything system i of a ``_Solutions`` holds, as comparable bytes."""
    err = sols.errors[i]
    moments = None if err is not None else [a.tobytes() for a in sols.moments[i]()]
    return ([np.asarray(f[i], dtype=float).tobytes() for f in sols[:6]] + [moments] +
            [None if err is None else (type(err).__name__, str(err), err.diagnostics)])


class TestStackedSolve:
    """A stack of S systems solves each one with the bits, jitter, condition number and
    error of a stack of that system alone."""

    def test_a_stack_matches_its_systems_alone(self):
        kinds = st.sampled_from(["plain", "plain", "duplicated", "near", "refused"])

        @hyp.settings(max_examples=80, deadline=None, derandomize=True)
        @hyp.given(s=st.integers(1, 6), k=st.integers(0, 6), m=st.integers(3, 40),
                   p_max=st.integers(1, 3), seed=st.integers(0, 2**16),
                   kinds=st.lists(kinds, min_size=6, max_size=6),
                   withheld=st.booleans(), mode=st.sampled_from(["once", "always"]))
        def check(s, k, m, p_max, seed, kinds, withheld, mode):
            Y, y, lags = stack_case(s, k, 2 * m, p_max, seed, kinds[:s])
            members = [tuple(range(k))] * s
            with mock.patch.object(np.linalg, "solve", refusing_solve(mode)):
                with mock.patch.object(estimate, "_certified",
                                       (lambda gram: None) if withheld else estimate._certified):
                    _, _, whole = estimate._own_stack(range(s), members, lags, Y.copy(), y)
                    alone = [estimate._own_stack(range(i, i + 1), members[:1], lags,
                                                 Y[i: i + 1].copy(), y[i: i + 1])[2]
                             for i in range(s)]
                    for p in range(p_max + 1):
                        got = whole(p)
                        assert len(got.w) == s and got.resid.shape == (s, 2 * m)
                        for i, one in enumerate(alone):
                            assert solution_bits(got, i) == solution_bits(one(p), 0), (p, i)

        check()

    def test_every_guard_path_is_drawn(self):
        # the draws above reach the ridge, the per-block guard, the refused solve and
        # its jittered retry, and a system that fails after the jitter
        outcomes = set()
        for kind, mode in (("duplicated", "once"), ("near", "once"), ("refused", "once"),
                           ("refused", "always")):
            Y, y, lags = stack_case(3, 3, 40, 1, 5, ["plain", kind, "plain"])
            Yc = Y[1] - Y[1].mean(axis=0)
            trace = float(np.trace(Yc.T @ Yc))
            with mock.patch.object(np.linalg, "solve", refusing_solve(mode)):
                sols = estimate._own_stack(range(3), [(0, 1, 2)] * 3, lags, Y, y)[2](1)
            assert sols.errors[0] is None and sols.errors[2] is None
            # the ridge adds RIDGE_SCALE * trace / k, a refused solve RIDGE_SCALE * trace / k
            # more, or at least RIDGE_SCALE, on the diagonal
            assert sols.jitter[1] == pytest.approx(
                estimate.RIDGE_SCALE * trace / 3 if kind != "refused" else
                estimate.RIDGE_SCALE * max(trace / 3, 1.0), rel=1e-9), kind
            err = sols.errors[1]
            outcomes.add((kind, mode, None if err is None else str(err),
                          bool(sols.jitter[1] > 0), bool(np.isinf(sols.cond[1]))))
        assert outcomes == {
            ("duplicated", "once", None, True, True),
            ("near", "once", None, True, False),
            ("refused", "once", None, True, False),
            ("refused", "always", "component 2: Gram matrix singular even after ridge jitter",
             True, False)}


def per_row_corrections(x, p, mask):
    """The restricted VAR coefficients and residuals of every order, one masked row at a
    time: the formula the grouped corrections replace."""
    d, n = x.shape
    lagged = np.ascontiguousarray(np.column_stack([x[:, p - j: n - j].T
                                                   for j in range(1, p + 1)]))
    lc, tc = lagged - lagged.mean(axis=0), x[:, p:].T - x[:, p:].mean(axis=1)
    gram, cross, cut = lc.T @ lc, lc.T @ tc, mask == 0
    for q in range(1, p + 1):
        kp = d * q
        ginv = np.linalg.inv(gram[:kp, :kp])
        coef = ginv @ cross[:kp]
        for r in np.flatnonzero(cut[:, :kp].any(axis=1)):
            s = np.flatnonzero(cut[r, :kp])
            coef[:, r] -= ginv[:, s] @ np.linalg.solve(ginv[s[:, None], s], coef[s, r])
            coef[s, r] = 0.0
        yield q, [coef[np.flatnonzero(~cut[r, :kp]), r] for r in range(d)], tc - lc[:, :kp] @ coef


class TestGroupedCorrections:
    def test_grouped_corrections_match_the_per_row_formula(self):
        @hyp.settings(max_examples=60, deadline=None, derandomize=True)
        @hyp.given(d=st.integers(1, 6), p=st.integers(1, 3), seed=st.integers(0, 2**16),
                   density=st.sampled_from([0.0, 0.3, 0.7, 0.9, 1.0]),
                   rows=st.lists(st.sampled_from(["random", "zeros", "ones"]), min_size=6,
                                 max_size=6))
        def check(d, p, seed, density, rows):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(d, 120)).cumsum(axis=1) * 0.3 + rng.normal(size=(d, 120))
            mask = (rng.random((d, d * p)) < density).astype(float)
            for r, kind in enumerate(rows[:d]):
                mask[r] = {"zeros": 0.0, "ones": 1.0}.get(kind, mask[r])
            (rs, members, solve), = estimate._var_equations(x, p, mask)  # certified
            for q, w, resid in per_row_corrections(x, p, mask):
                sols = solve(q)
                assert [a.tobytes() for a in sols.w] == [a.tobytes() for a in w], q
                assert sols.resid.tobytes() == np.ascontiguousarray(resid.T).tobytes(), q

        check()


GOLDEN_FIT = os.path.join(os.path.dirname(__file__), "fixtures", "golden_fit")


def golden_case(name):
    """A fixed d=4 sample for the fit ``name`` (nar, lnar, var or masked_var): the
    series, the network and the model.  The nar sample has collinear components 1 and
    2 on a complete network, so its fits need the ridge; the masked var's network is
    sparse enough that the mask cuts coefficients."""
    rng = np.random.default_rng(2029)
    d, n = 4, 150
    x = rng.normal(size=(d, n)).cumsum(axis=1) * 0.2 + rng.normal(size=(d, n))
    ads = AdjacencySeries(rng.random((n, d, d)) < {"nar": 2.0, "masked_var": 0.01}.get(name, 0.35))
    if name == "nar":
        x[1] = 2.0 * x[0]
    model = {"nar": ("nar", NeighborhoodFn.transpose(), False),
             "lnar": ("lnar", NeighborhoodFn.row_normalized_transpose(), False),
             "var": ("var", None, False),
             "masked_var": ("var", NeighborhoodFn.transpose(), True)}[name]
    return x, ads, model


def golden_fit(name):
    """The BIC-selected fit of the golden case ``name``."""
    x, ads, model = golden_case(name)
    (fit, _), = estimate._fit_by_bic([model], x, ads, 2)
    return fit


def eager_moments(fit, x, ads):
    """Each component's gamma_y0 and asymp_cov by the formulas the fits once built
    eagerly: the ridged block over m and resid_var times its inverse, or, for a
    certified VAR, the block-inverse identity on the shared Gram."""
    d, n = x.shape
    p, m = fit.p, n - fit.p
    if fit.family == "var":
        lagged = np.ascontiguousarray(np.column_stack([x[:, p - j: n - j].T
                                                       for j in range(1, p + 1)]))
        lc = lagged - lagged.mean(axis=0)
        gram = lc.T @ lc
        ginv = np.linalg.inv(gram)
    elif fit.family == "lnar":
        designs = _lnar_design(x, ads, list(fit.g), p)[0]
    else:
        designs = [Y for _, Y in _nar_design(x, ads, list(fit.g), p)]
    for c in fit.components:
        k, f = len(c.members), np.array(c.members, dtype=int)
        if fit.family == "var":
            s = np.setdiff1d(np.arange(d * p), f)
            g_fs = ginv[f[:, None], s]
            inner = g_fs @ np.linalg.solve(ginv[s[:, None], s], g_fs.T) if s.size else 0.0
            yield gram[f[:, None], f] / m, c.resid_var * (m * (ginv[f[:, None], f] - inner))
            continue
        Yc = designs[c.r] - designs[c.r].mean(axis=0)
        block = Yc.T @ Yc
        block = block + c.ridge_jitter * np.eye(k) if c.ridge_jitter else block
        yield block / m, c.resid_var * np.linalg.inv(block / m)


class TestDeferredMoments:
    """A fit made here builds gamma_y0 and asymp_cov only when they are read."""

    @pytest.mark.parametrize("name", ["nar", "lnar", "var", "masked_var"])
    def test_moments_are_built_when_read_with_the_eager_bits(self, name, monkeypatch):
        inv = CallCount(monkeypatch, np.linalg, "inv")
        fit = golden_fit(name)
        built = inv.calls
        assert not any("gamma_y0" in vars(c) or "asymp_cov" in vars(c) for c in fit.components)
        monkeypatch.undo()
        x, ads, _ = golden_case(name)
        assert any(c.ridge_jitter > 0 for c in fit.components) == (name == "nar")
        assert any(len(c.members) < fit.d * fit.p for c in fit.components) == (
            name == "masked_var") or fit.family == "lnar"
        for c, (gamma_y0, asymp_cov) in zip(fit.components, eager_moments(fit, x, ads)):
            assert c.asymp_cov.tobytes() == asymp_cov.tobytes(), c.r
            assert c.gamma_y0.tobytes() == gamma_y0.tobytes(), c.r
        # the VAR inverts its shared Gram once per order; no fit inverts a moment
        assert built == (0 if name in ("nar", "lnar") else 3)

    @pytest.mark.parametrize("name", ["nar", "lnar", "var", "masked_var"])
    def test_fit_files_match_the_golden_fixtures(self, name, tmp_path):
        from netar.io import write_fit_json
        write_fit_json(tmp_path / "fit.json", golden_fit(name))
        with open(os.path.join(GOLDEN_FIT, f"{name}.json"), "rb") as fh:
            assert (tmp_path / "fit.json").read_bytes() == fh.read()

    @pytest.mark.parametrize("name", ["nar", "lnar", "var", "masked_var"])
    def test_a_fit_pickles_with_its_moments_unbuilt(self, name):
        fit = golden_fit(name)
        back = pickle.loads(pickle.dumps(fit))
        for c, d in zip(fit.components, back.components):
            assert "asymp_cov" not in vars(d)
            assert d.asymp_cov.tobytes() == c.asymp_cov.tobytes()
            assert d.gamma_y0.tobytes() == c.gamma_y0.tobytes()

    @pytest.mark.parametrize("name", ["nar", "lnar"])
    def test_network_fits_do_not_depend_on_the_series_layout(self, name):
        # a series read from a file is column-major; a component's target is then a
        # strided row, whose mean must sum as a contiguous row's does
        x, ads, model = golden_case(name)
        fits = [estimate._fit_by_bic([model], xs, ads, 2)[0]
                for xs in (x, np.asfortranarray(x), x[:, ::-1].copy()[:, ::-1])]
        assert outcome_values(fits[1]) == outcome_values(fits[0])
        assert outcome_values(fits[2]) == outcome_values(fits[0])

    def test_read_moments_are_checked_and_a_failed_inverse_is_an_estimation_error(self):
        with pytest.raises(ValueError, match="component 2 has a gamma_y0 that is not 2 x 2$"):
            component(r=1, gamma_y0=np.eye(3))  # arrays are checked at construction
        c = component(r=1, gamma_y0=lambda: (np.eye(3), np.eye(3)), asymp_cov=None)
        assert c.w.shape == (2,)
        with pytest.raises(ValueError, match="component 2 has a gamma_y0 that is not 2 x 2$"):
            c.gamma_y0

        def singular():
            raise np.linalg.LinAlgError("Singular matrix")

        c = component(r=1, gamma_y0=singular, asymp_cov=None, ridge_jitter=0.5)
        with pytest.raises(EstimationError, match="^component 2: Gram matrix not invertible "
                                                  "for the asymptotic covariance$") as info:
            c.std_errors
        assert info.value.diagnostics == {"k": 2, "n_obs": 40, "ridge_jitter": 0.5}
        c = component(r=1, resid_var=2.0, gamma_y0=lambda: (np.eye(2), 3.0 * np.eye(2)),
                      asymp_cov=None)
        assert np.array_equal(c.asymp_cov, 6.0 * np.eye(2)) and c.gamma_y0.shape == (2, 2)
        assert np.array_equal(c.std_errors, np.sqrt(np.full(2, 6.0) / 40))
        with pytest.raises(AttributeError):
            c.no_such_field
