import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

from netar import (
    AdjacencySeries,
    ForecastSet,
    HoldLast,
    Known,
    MarkovEdgeNetwork,
    NeighborhoodFn,
    PerEdgeMarkov,
    difference,
    forecast_h,
    forecast_network,
    integrate,
)
from netar.estimate import ComponentFit, ModelFit, fit_lnar, fit_nar, fit_var
from netar.forecast import _transition_counts

from test_model import kernel_snapshots
from test_netdyn import kernel_variants, neighborhood_oracle, zero_diag_oracle


def manual_fit(family, A_mats, mu, g=None):
    """Assemble a ModelFit with known coefficients for forecasting tests."""
    d = len(mu)
    p = len(A_mats)
    comps = []
    for r in range(d):
        members = []
        w = []
        for j, a in enumerate(A_mats):
            for i in range(d):
                if family == "var" or a[r, i] != 0.0:
                    members.append(i + j * d)
                    w.append(a[r, i])
        comps.append(ComponentFit(
            r=r, members=tuple(members),
            w=np.array(w), mu=float(mu[r]), resid_var=1.0,
            gamma_y0=np.eye(len(w)), asymp_cov=np.eye(len(w)),
            rss=0.0, n_obs=100,
        ))
    return ModelFit(family=family, p=p, d=d,
                    g=None if g is None else tuple(g), components=comps)


def manual_lnar_fit(alpha, beta, mu, g):
    """Per-component fit with known (alpha, beta); weights interleave per lag."""
    p, d = alpha.shape
    comps = [ComponentFit(
        r=r, members=tuple(range(2 * p)),
        w=np.column_stack([alpha[:, r], beta[:, r]]).ravel(), mu=float(mu[r]),
        resid_var=1.0, gamma_y0=np.eye(2 * p), asymp_cov=np.eye(2 * p), rss=0.0, n_obs=100,
    ) for r in range(d)]
    return ModelFit(family="lnar", p=p, d=d, g=tuple(g), components=comps)


def forecast_horizon_oracle(fit, x_hist, ads_hist, policy, h):
    """The horizon loop forecast_h ran before it shared the batched step:
    per-horizon modulation snapshot by snapshot, one matmul per lag."""
    d, n = x_hist.shape
    coef = fit.coefficient_matrices()
    x = np.concatenate([x_hist, np.zeros((d, h))], axis=1)
    if fit.family != "var":
        hist = ads_hist.take_first(n - 1)
        mats = np.concatenate([hist.mats, forecast_network(hist, policy, h).mats])
    for t in range(n, n + h):
        acc = fit.mu_hat()
        for j in range(1, fit.p + 1):
            if fit.family == "var":
                mod = 1.0
            elif fit.family == "nar":
                mod = neighborhood_oracle(fit.g[j - 1], mats[t - j])
            else:
                mod = np.eye(d) + zero_diag_oracle(fit.g[j - 1], mats[t - j])
            acc = acc + (coef[j - 1] * mod) @ x[:, t - j]
        x[:, t] = acc
    return x[:, n:]


def four_product_counts(mats):
    """Per-edge transition counts n11, n10, n01, n00 as four float products of a 0/1 history."""
    prev, curr = mats[:-1], mats[1:]
    return ((prev * curr).sum(axis=0), (prev * (1 - curr)).sum(axis=0),
            ((1 - prev) * curr).sum(axis=0), ((1 - prev) * (1 - curr)).sum(axis=0))


def markov_forecast_oracle(mats, alpha, h):
    """The per-edge Markov point forecasts from the four-product counts of a float history."""
    n11, n10, n01, n00 = four_product_counts(mats)
    stay = (n11 + alpha) / (n11 + n10 + 2 * alpha)
    enter = (n01 + alpha) / (n01 + n00 + 2 * alpha)
    prob, out = mats[-1], []
    for _ in range(h):
        prob = prob * stay + (1.0 - prob) * enter
        out.append((prob > 0.5).astype(float))
    return np.stack(out)


class TestBoolHistory:
    """A simulated history is a bool stack; the network forecasts and the
    forecasts that read them equal those of its float copy."""

    @staticmethod
    def history(n=60, d=4, seed=6):
        stay = np.random.default_rng(seed).uniform(0.3, 0.95, (d, d))
        return MarkovEdgeNetwork(stay, 1.0 - stay).simulate(n, seed=seed).mats

    def test_transition_counts_match_four_products(self):
        on = self.history()
        assert on.dtype == bool
        want = four_product_counts(on.astype(float))
        for history in (on, on.astype(float)):
            for got, count in zip(_transition_counts(history), want):
                assert np.array_equal(got, count)

    @pytest.mark.parametrize("alpha", [1.0, 0.3])
    def test_markov_forecasts_match_the_four_product_oracle(self, alpha):
        on = self.history()
        want = markov_forecast_oracle(on.astype(float), alpha, 6)
        for history in (on, on.astype(float)):
            got = forecast_network(AdjacencySeries(history), PerEdgeMarkov(alpha), 6)
            assert np.array_equal(got.mats, want)

    def test_forecasts_match_the_float_copy_for_every_policy(self):
        rng = np.random.default_rng(7)
        on = self.history(n=33)
        d = on.shape[-1]
        x = rng.normal(size=(d, 30))
        g = NeighborhoodFn.row_normalized_transpose()
        fit = manual_fit("nar", [rng.uniform(-0.2, 0.2, (d, d))] * 2, rng.normal(size=d), [g, g])
        for policy in (Known(AdjacencySeries(on[29:])), HoldLast(), PerEdgeMarkov()):
            got = forecast_h(fit, x, AdjacencySeries(on[:29]), policy, 4)
            float_policy = Known(AdjacencySeries(on[29:] * 1.0)) if isinstance(policy, Known) \
                else policy
            want = forecast_h(fit, x, AdjacencySeries(on[:29] * 1.0), float_policy, 4)
            assert np.array_equal(got.points, want.points), type(policy).__name__


class TestForecastNetwork:
    def test_hold_last_repeats_final_snapshot(self):
        rng = np.random.default_rng(0)
        mats = (rng.random((10, 3, 3)) < 0.5).astype(float)
        ads = AdjacencySeries(mats)
        out = forecast_network(ads, HoldLast(), 5)
        for s in range(5):
            assert np.array_equal(out[s], mats[-1])

    def test_known_passthrough(self):
        futures = AdjacencySeries(np.ones((4, 2, 2)))
        out = forecast_network(AdjacencySeries(np.zeros((3, 2, 2))), Known(futures), 3)
        assert len(out) == 3
        assert (out.mats == 1).all()

    def test_known_with_too_few_snapshots(self):
        futures = AdjacencySeries(np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="horizons"):
            forecast_network(AdjacencySeries(np.zeros((3, 2, 2))), Known(futures), 3)

    def test_constant_history_stays_on(self):
        ads = AdjacencySeries(np.ones((20, 2, 2)))
        out = forecast_network(ads, PerEdgeMarkov(laplace_alpha=1.0), 6)
        assert (out.mats == 1).all()

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            forecast_network(AdjacencySeries(np.zeros((0, 2, 2))), HoldLast(), 1)

    def test_matches_two_state_chain_power_oracle(self):
        # alternate a persistent edge so the smoothed estimate is ~0.95 stay
        rng = np.random.default_rng(1)
        n = 2000
        states = np.empty(n)
        s = 1.0
        for t in range(n):
            if rng.random() < (0.05 if s == 1.0 else 0.95):
                s = 1.0 - s
            states[t] = s
        mats = states.reshape(-1, 1, 1)
        ads = AdjacencySeries(mats)
        alpha = 1.0
        prev, curr = states[:-1], states[1:]
        n11 = (prev * curr).sum()
        n10 = (prev * (1 - curr)).sum()
        n01 = ((1 - prev) * curr).sum()
        n00 = ((1 - prev) * (1 - curr)).sum()
        stay = (n11 + alpha) / (n11 + n10 + 2 * alpha)
        enter = (n01 + alpha) / (n01 + n00 + 2 * alpha)
        # exact h-step presence probability from the 2x2 transition power
        P = np.array([[1 - enter, enter], [1 - stay, stay]])
        state_vec = np.array([1 - states[-1], states[-1]])
        out = forecast_network(ads, PerEdgeMarkov(laplace_alpha=alpha), 20)
        for h in range(1, 21):
            prob_on = (state_vec @ np.linalg.matrix_power(P, h))[1]
            assert out[h - 1][0, 0] == float(prob_on > 0.5)
        if stay > 0.55 and states[-1] == 1.0:
            assert (out.mats == 1.0).all()

    def test_freeze_first_repeats_horizon_one(self):
        rng = np.random.default_rng(2)
        mats = (rng.random((300, 2, 2)) < 0.5).astype(float)
        ads = AdjacencySeries(mats)
        frozen = forecast_network(ads, PerEdgeMarkov(freeze_first=True), 8)
        for s in range(1, 8):
            assert np.array_equal(frozen[s], frozen[0])


class TestForecastH:
    def test_zero_coefficients_forecast_mean(self):
        mu = np.array([1.5, -2.0])
        fit = manual_fit("nar", [np.zeros((2, 2))], mu, [NeighborhoodFn.transpose()])
        x = np.random.default_rng(3).normal(size=(2, 30))
        ads = AdjacencySeries(np.ones((29, 2, 2)))
        fc = forecast_h(fit, x, ads, HoldLast(), 4)
        for s in range(4):
            assert np.allclose(fc.points[:, s], mu)

    def test_known_two_step_hand_recursion(self):
        rng = np.random.default_rng(4)
        d = 3
        a = rng.uniform(-0.4, 0.4, (d, d))
        mu = rng.normal(size=d)
        g = NeighborhoodFn.transpose()
        fit = manual_fit("nar", [a], mu, [g])
        n = 10
        x = rng.normal(size=(d, n))
        hist = AdjacencySeries((rng.random((n - 1, d, d)) < 0.5).astype(float))
        fut = AdjacencySeries((rng.random((2, d, d)) < 0.5).astype(float))
        fc = forecast_h(fit, x, hist, Known(fut), 2)
        m1 = a * g.apply(fut[0])
        m2 = a * g.apply(fut[1])
        x1 = m1 @ x[:, -1] + mu
        x2 = m2 @ x1 + mu
        assert np.allclose(fc.points[:, 0], x1, atol=1e-12)
        assert np.allclose(fc.points[:, 1], x2, atol=1e-12)

    def test_known_order2_mixes_observed_and_future_snapshots(self):
        # horizon 1 of a lag-2 model pairs the first future snapshot (lag 1)
        # with the last observed one (lag 2)
        rng = np.random.default_rng(44)
        d = 2
        a1 = rng.uniform(-0.3, 0.3, (d, d))
        a2 = rng.uniform(-0.2, 0.2, (d, d))
        mu = rng.normal(size=d)
        g = NeighborhoodFn.transpose()
        fit = manual_fit("nar", [a1, a2], mu, [g, g])
        n = 12
        x = rng.normal(size=(d, n))
        hist = AdjacencySeries((rng.random((n - 1, d, d)) < 0.5).astype(float))
        fut = AdjacencySeries((rng.random((2, d, d)) < 0.5).astype(float))
        fc = forecast_h(fit, x, hist, Known(fut), 2)
        x1 = (a1 * g.apply(fut[0])) @ x[:, -1] \
            + (a2 * g.apply(hist[n - 2])) @ x[:, -2] + mu
        x2 = (a1 * g.apply(fut[1])) @ x1 \
            + (a2 * g.apply(fut[0])) @ x[:, -1] + mu
        assert np.allclose(fc.points[:, 0], x1, atol=1e-12)
        assert np.allclose(fc.points[:, 1], x2, atol=1e-12)

    def test_var_family_ignores_networks(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-0.3, 0.3, (2, 2))
        fit = manual_fit("var", [a], np.zeros(2))
        x = rng.normal(size=(2, 20))
        fc = forecast_h(fit, x, None, None, 3)
        expected = x[:, -1]
        for s in range(3):
            expected = a @ expected
            assert np.allclose(fc.points[:, s], expected)

    def test_holdlast_networks_identical_across_horizons(self):
        rng = np.random.default_rng(6)
        fit = manual_fit("nar", [rng.uniform(-0.2, 0.2, (2, 2))], np.zeros(2),
                         [NeighborhoodFn.transpose()])
        x = rng.normal(size=(2, 15))
        ads = AdjacencySeries((rng.random((14, 2, 2)) < 0.5).astype(float))
        fc = forecast_h(fit, x, ads, HoldLast(), 5)
        for s in range(1, 5):
            assert np.array_equal(fc.networks_used[s], fc.networks_used[0])

    def test_truth_produces_errors(self):
        fit = manual_fit("var", [np.zeros((2, 2))], np.ones(2))
        x = np.zeros((2, 5))
        truth = np.full((2, 3), 1.5)
        fc = forecast_h(fit, x, None, None, 3, truth=truth)
        assert np.allclose(fc.errors, 0.5)

    def test_poisoned_future_does_not_leak(self):
        # future snapshots full of sentinels; HoldLast / PerEdgeMarkov output
        # must not change when they are appended to the history the caller holds
        rng = np.random.default_rng(7)
        fit = manual_fit("nar", [rng.uniform(-0.3, 0.3, (2, 2))], np.zeros(2),
                         [NeighborhoodFn.transpose()])
        n = 30
        x = rng.normal(size=(2, n))
        clean_hist = AdjacencySeries((rng.random((n - 1, 2, 2)) < 0.5).astype(float))
        poisoned = AdjacencySeries(np.concatenate([clean_hist.mats, np.ones((4, 2, 2))]))
        for policy in (HoldLast(), PerEdgeMarkov()):
            a = forecast_h(fit, x, clean_hist, policy, 4)
            b = forecast_h(fit, x, poisoned, policy, 4)
            assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("family", ["nar", "lnar", "var"])
    def test_order_zero_fit_forecasts_its_intercepts(self, family):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 60)) + np.array([[1.0], [-2.0], [0.5]])
        ads = AdjacencySeries((rng.random((59, 3, 3)) < 0.4).astype(float))
        if family == "var":
            fit = fit_var(x, 0)
        else:
            fit = (fit_nar if family == "nar" else fit_lnar)(x, ads, [], 0)
        fc = forecast_h(fit, x, ads, HoldLast(), 3)
        assert np.array_equal(fc.points, np.repeat(fit.mu_hat()[:, None], 3, axis=1))


class TestPolicyBatch:
    """A list of policies forecasts from one fit in one pass; each ForecastSet is the one
    its policy alone gives, bit for bit, in points, errors and networks used."""

    def test_random_batches_match_per_policy_calls(self):
        @hyp.settings(max_examples=80, deadline=None, derandomize=True)
        @hyp.given(d=st.integers(1, 5), p=st.integers(0, 3), h=st.integers(1, 4),
                   family=st.sampled_from(["nar", "lnar", "var"]), weighted=st.booleans(),
                   picks=st.lists(st.integers(0, 9), min_size=3, max_size=3),
                   chosen=st.lists(st.integers(0, 4), min_size=1, max_size=4),
                   with_truth=st.booleans(), seed=st.integers(0, 2**16))
        def check(d, p, h, family, weighted, picks, chosen, with_truth, seed):
            rng = np.random.default_rng(seed)
            n = 20
            shapes = [fn for fn, binary in kernel_variants(d, rng) if not (weighted and binary)]
            g = [shapes[i % len(shapes)] for i in picks[:p]]
            on = rng.random((n - 1 + h, d, d)) < 0.4
            mats = on * rng.uniform(-1, 1, on.shape) if weighted else on
            hist = AdjacencySeries(mats[: n - 1])
            known = Known(AdjacencySeries(mats[n - 1:]))
            usable = [known, HoldLast()] if weighted else [
                known, Known(AdjacencySeries(mats[n - 1:] * 1.0)), HoldLast(),
                PerEdgeMarkov(), PerEdgeMarkov(freeze_first=True)]
            policies = [usable[i % len(usable)] for i in chosen]
            mu = rng.normal(size=d)
            if family == "lnar":
                fit = manual_lnar_fit(*rng.uniform(-1, 1, (2, p, d)), mu, g)
            else:
                fit = manual_fit(family, [rng.uniform(-1, 1, (d, d)) for _ in range(p)], mu,
                                 None if family == "var" else g)
            x = rng.normal(size=(d, n))
            truth = rng.normal(size=(d, h)) if with_truth else None
            got = forecast_h(fit, x, hist, policies, h, truth=truth)
            assert isinstance(got, list) and len(got) == len(policies)
            for policy, fc in zip(policies, got):
                want = forecast_h(fit, x, hist, policy, h, truth=truth)
                assert fc.points.shape == (d, h)
                assert fc.points.tobytes() == want.points.tobytes()
                if with_truth:
                    assert fc.errors.tobytes() == want.errors.tobytes()
                else:
                    assert fc.errors is None and want.errors is None
                if family == "var":
                    assert fc.networks_used is None and want.networks_used is None
                else:
                    assert fc.networks_used.mats.dtype == want.networks_used.mats.dtype
                    assert fc.networks_used.mats.tobytes() == want.networks_used.mats.tobytes()

        check()

    def test_a_policy_that_is_not_a_list_returns_one_forecast_set(self):
        rng = np.random.default_rng(12)
        fit = manual_fit("nar", [rng.uniform(-0.3, 0.3, (3, 3))], np.zeros(3),
                         [NeighborhoodFn.transpose()])
        x = rng.normal(size=(3, 20))
        ads = AdjacencySeries(rng.random((19, 3, 3)) < 0.5)
        alone = forecast_h(fit, x, ads, HoldLast(), 3)
        assert isinstance(alone, ForecastSet)
        for batch in ([HoldLast()], (HoldLast(),)):
            (one,) = forecast_h(fit, x, ads, batch, 3)
            assert isinstance(one, ForecastSet)
            assert np.array_equal(one.points, alone.points)
        with pytest.raises(ValueError, match="at least one network policy"):
            forecast_h(fit, x, ads, [], 3)


class TestForecastVertexCount:
    # a 4-component fit fed 3-vertex snapshots, in the history or from the policy
    fit = manual_fit("nar", [0.3 * np.eye(4)], np.zeros(4), [NeighborhoodFn.transpose()])
    x = np.random.default_rng(5).normal(size=(4, 30))

    def test_history(self):
        with pytest.raises(ValueError, match="forecast_h: the network has 3 vertices but the "
                                             "process has 4 components"):
            forecast_h(self.fit, self.x, AdjacencySeries(np.ones((29, 3, 3))), HoldLast(), 2)

    def test_policy_snapshots(self):
        futures = Known(AdjacencySeries(np.ones((2, 3, 3))))
        with pytest.raises(ValueError, match=r"forecast_h \(policy snapshots\): the network "
                                             "has 3 vertices"):
            forecast_h(self.fit, self.x, AdjacencySeries(np.ones((29, 4, 4))), futures, 2)


class TestForecastRecursionOracle:
    def test_matches_horizon_loop_oracle(self):
        # random d (1 included), p in {1, 2, 3}, every G variant, signed weights
        # and every policy; coefficients large enough that some forecasts grow
        rng = np.random.default_rng(808)
        n, h = 12, 5
        for d in (1, 2, 4, 7):
            for p in (1, 2, 3):
                for fn, needs_binary in kernel_variants(d, rng):
                    binary = (rng.random((n - 1 + h, d, d)) < 0.4).astype(float)
                    mats = binary if needs_binary else rng.uniform(-1, 1, binary.shape) * binary
                    hist = AdjacencySeries(mats[: n - 1])
                    policies = [Known(AdjacencySeries(mats[n - 1:])), HoldLast()]
                    if needs_binary:
                        policies.append(PerEdgeMarkov())
                    x = rng.normal(size=(d, n))
                    mu = rng.normal(size=d)
                    A = [rng.uniform(-1, 1, (d, d)) / p for _ in range(p)]
                    alpha, beta = rng.uniform(-1, 1, (2, p, d)) / p
                    cases = [(manual_fit("var", A, mu), [None])]
                    cases += [(fit, policies) for fit in (manual_fit("nar", A, mu, [fn] * p),
                                                          manual_lnar_fit(alpha, beta, mu, [fn] * p))]
                    for fit, fit_policies in cases:
                        for policy in fit_policies:
                            got = forecast_h(fit, x, hist, policy, h).points
                            want = forecast_horizon_oracle(fit, x, hist, policy, h)
                            assert got.shape == (d, h)
                            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    def test_shared_g_evaluates_the_window_once(self, monkeypatch):
        # [transpose] * 3: one kernel call over the last p - 1 observed snapshots
        # and the h from the policy
        seen = kernel_snapshots(monkeypatch)
        rng = np.random.default_rng(809)
        d, n, h, p = 4, 1000, 5, 3
        fit = manual_fit("nar", [np.eye(d) * 0.1] * p, np.zeros(d),
                         [NeighborhoodFn.transpose()] * p)
        hist = AdjacencySeries((rng.random((n - 1, d, d)) < 0.4).astype(float))
        forecast_h(fit, rng.normal(size=(d, n)), hist, HoldLast(), h)
        assert seen == [p - 1 + h]

    def test_a_policy_list_evaluates_its_windows_in_one_call(self, monkeypatch):
        # as above, with three policies: one kernel call over their three windows
        seen = kernel_snapshots(monkeypatch)
        rng = np.random.default_rng(810)
        d, n, h, p = 4, 1000, 5, 3
        fit = manual_fit("nar", [np.eye(d) * 0.1] * p, np.zeros(d),
                         [NeighborhoodFn.transpose()] * p)
        mats = rng.random((n - 1 + h, d, d)) < 0.4
        policies = [Known(AdjacencySeries(mats[n - 1:])), HoldLast(), PerEdgeMarkov()]
        forecast_h(fit, rng.normal(size=(d, n)), AdjacencySeries(mats[: n - 1]), policies, h)
        assert seen == [3 * (p - 1 + h)]


class TestDifferenceIntegrate:
    def test_linear_series_has_constant_growth(self):
        t = np.arange(10.0)
        y = np.vstack([2 * t + 1, -0.5 * t])
        x = difference(y)
        assert np.allclose(x[0], 2.0)
        assert np.allclose(x[1], -0.5)

    def test_integrate_true_growths_recovers_levels(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=(3, 20)).cumsum(axis=1)
        x = difference(y)
        levels = integrate(y[:, 9], x[:, 9:])
        assert np.allclose(levels, y[:, 10:], atol=1e-12)

    def test_random_walk_error_telescopes(self):
        rng = np.random.default_rng(9)
        y = rng.normal(size=(2, 30)).cumsum(axis=1) + 0.3
        growth_fc = rng.normal(size=(2, 5))
        levels = integrate(y[:, -6], growth_fc)
        true_growth = difference(y[:, -6:])
        err_levels = y[:, -5:] - levels
        err_growth_cum = np.cumsum(true_growth - growth_fc, axis=1)
        assert np.allclose(err_levels, err_growth_cum, atol=1e-12)

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            difference(np.zeros((2, 1)))
