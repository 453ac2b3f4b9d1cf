import numpy as np
import pytest

from netar import (
    FlipNetwork,
    InnovationSpec,
    NarSpec,
    NeighborhoodFn,
    closed_form_flip_acf,
    mc_autocov,
    sample_acf,
    simulate_gnlp_truncated,
    simulate_nar,
)
from netar.netdyn import AdjacencySeries


class TestSampleAcf:
    def test_constant_series_is_zero(self):
        x = np.ones((2, 100)) * 3.5
        acf = sample_acf(x, 5)
        for g in acf.gamma:
            assert (g == 0).all()

    def test_biased_divisor(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        acf = sample_acf(x, 1)
        xc = x[0] - x[0].mean()
        assert acf.gamma[0][0, 0] == pytest.approx((xc @ xc) / 4)
        assert acf.gamma[1][0, 0] == pytest.approx((xc[1:] @ xc[:-1]) / 4)

    def test_white_noise_lag1_small(self):
        n = 100_000
        x = np.random.default_rng(0).standard_normal((3, n))
        acf = sample_acf(x, 1)
        assert np.abs(acf.gamma[1]).max() < 4 / np.sqrt(n)

    def test_lag0_is_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = np.diag([1, 2, 3, 4.0]) @ rng.standard_normal((4, 50))
            acf = sample_acf(x, 3)
            eig = np.linalg.eigvalsh(acf.gamma[0])
            assert eig.min() >= -1e-10

    def test_max_lag_validation(self):
        with pytest.raises(ValueError):
            sample_acf(np.zeros((2, 10)), 10)


def flip_path_factory(mu, n=4000, persist=0.95, fast=False):
    """Path generator for the flip moving average.

    The fast variant assembles X from the simulated edge states by the
    scalar moving-average formula; its equivalence with the generic
    truncated simulator is pinned by the oracle test below.
    """
    innov = InnovationSpec(np.asarray(mu, dtype=float), np.eye(3))
    net = FlipNetwork(persist)

    def simulate_path(rng):
        if fast:
            states = net.simulate_states(n + 1, seed=rng)
            eps = innov.sample(rng, n + 1)
            x = np.empty((3, n))
            x[0] = eps[1:, 0]
            x[1] = eps[1:, 1]
            x[2] = np.where(states[:-1] == 0, eps[:-1, 0], eps[:-1, 1]) + eps[1:, 2]
            return x
        ads = net.simulate(n + 1, seed=rng)
        return simulate_gnlp_truncated([NeighborhoodFn.transpose()], ads, innov,
                                       n=n, seed=rng, burn_in=1)

    return simulate_path


def flip_first_order_expectation(parts, n, max_lag, rho_e=0.9):
    """First-order finite-n expectation of the divisor-n sample autocovariance.

    Demeaning by the sample mean biases every lag down by the long-run
    covariance over n, and the divisor-n convention scales lag h by
    (1 - h/n):  E Gamma_hat(h) ~ (1 - h/n) Gamma(h) - LRV / n.
    """
    total = parts["total"]
    lrv = total.gamma[0].copy()
    for h in range(1, len(total.gamma)):
        lrv += total.gamma[h] + total.gamma[h].T
    # geometric tail of the network-covariance part beyond the computed lags
    h_max = len(total.gamma) - 1
    lrv[2, 2] += 2 * total.gamma[h_max][2, 2] * rho_e / (1.0 - rho_e)
    return [(1.0 - h / n) * total.gamma[h] - lrv / n for h in range(max_lag + 1)]


class TestMcAutocov:
    def test_white_noise_recovers_sigma(self):
        sigma = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
        innov = InnovationSpec(np.zeros(3), sigma)

        def path(rng):
            return innov.sample(rng, 2000).T

        est = mc_autocov(path, max_lag=2, reps=200, seed=4)
        assert (np.abs(est.gamma[0] - sigma) <= 3 * est.se[0] + 1e-9).all()
        for h in (1, 2):
            assert (np.abs(est.gamma[h]) <= 3 * est.se[h] + 1e-9).all()

    def test_static_complete_network_matches_yule_walker(self):
        # constant all-ones modulation turns the model into a plain VAR(1);
        # vec(Gamma(0)) = (I - A (x) A)^{-1} vec(Sigma)
        d = 3
        a = np.array([[0.5, 0.1, 0.0], [0.0, 0.3, 0.2], [0.1, 0.0, 0.4]])
        spec = NarSpec(1, [a], [NeighborhoodFn.transpose()])
        innov = InnovationSpec.standard(d)
        ads = AdjacencySeries(np.ones((2600, d, d)))

        def path(rng):
            return simulate_nar(spec, ads, innov, n=2000, burn_in=500, seed=rng)

        est = mc_autocov(path, max_lag=1, reps=150, seed=10)
        vec_gamma0 = np.linalg.solve(np.eye(d * d) - np.kron(a, a), np.eye(d).reshape(-1))
        gamma0 = vec_gamma0.reshape(d, d)
        assert (np.abs(est.gamma[0] - gamma0) <= 3 * est.se[0] + 5e-3).all()
        gamma1 = a @ gamma0
        assert (np.abs(est.gamma[1] - gamma1) <= 3 * est.se[1] + 5e-3).all()


def test_fast_flip_factory_matches_generic_simulator():
    mu = np.array([10.0, -10.0, 0.0])
    slow = flip_path_factory(mu, n=500)(np.random.default_rng(77))
    fast = flip_path_factory(mu, n=500, fast=True)(np.random.default_rng(77))
    assert np.abs(slow - fast).max() <= 1e-12


class TestClosedFormFlip:
    def test_centered_innovations_kill_part2(self):
        parts = closed_form_flip_acf(0.95, np.zeros(3), np.eye(3), 6)
        for g in parts["part2"].gamma:
            assert (g == 0).all()

    def test_edge_covariance_scale(self):
        parts = closed_form_flip_acf(0.95, np.array([1.0, 0.0, 0.0]), np.eye(3), 8)
        for h in range(1, 9):
            # (mu1 - mu2)^2 = 1, so part2_33(h) is exactly the edge autocovariance
            assert parts["part2"].gamma[h][2, 2] == pytest.approx(0.9 ** h / 4.0)

    def test_part1_vanishes_beyond_lag_one(self):
        parts = closed_form_flip_acf(0.95, np.array([10.0, -10.0, 0.0]), np.eye(3), 8)
        for h in range(2, 9):
            assert (parts["part1"].gamma[h] == 0).all()

    def test_part2_ratio_is_exactly_rho(self):
        parts = closed_form_flip_acf(0.95, np.array([10.0, -10.0, 0.0]), np.eye(3), 8)
        for h in range(2, 9):
            ratio = parts["part2"].gamma[h][2, 2] / parts["part2"].gamma[h - 1][2, 2]
            assert ratio == pytest.approx(0.9, abs=1e-12)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="3-node"):
            closed_form_flip_acf(0.95, np.zeros(4), np.eye(4), 3)

    def test_matches_monte_carlo_within_three_ses(self):
        mu = np.array([10.0, -10.0, 0.0])
        n, reps = 30_000, 120
        parts = closed_form_flip_acf(0.95, mu, np.eye(3), 40)
        expected = flip_first_order_expectation(parts, n, 8)
        est = mc_autocov(flip_path_factory(mu, n=n, fast=True), max_lag=8,
                         reps=reps, seed=21)
        for h in range(9):
            assert (np.abs(est.gamma[h] - expected[h]) <= 3 * est.se[h] + 1e-6).all(), f"lag {h}"

    def test_centered_case_matches_monte_carlo(self):
        parts = closed_form_flip_acf(0.95, np.zeros(3), np.eye(3), 40)
        expected = flip_first_order_expectation(parts, 4000, 4)
        est = mc_autocov(flip_path_factory(np.zeros(3), fast=True), max_lag=4,
                         reps=200, seed=22)
        for h in range(5):
            assert (np.abs(est.gamma[h] - expected[h]) <= 3 * est.se[h] + 1e-6).all(), f"lag {h}"
