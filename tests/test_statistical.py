"""Monte Carlo checks of the estimation theory at desk scale.

These replicate-level tests pin the statistical behavior the solvers are
supposed to have: coefficient recovery rates on the benchmark processes
and the plug-in asymptotic variance.  All runs are seeded and
deterministic.
"""

import numpy as np
import pytest

from netar import fit_lnar, fit_nar, simulate_lnar, simulate_nar
from netar.harness import (
    example1_network,
    example1_process,
    example2_process,
)
from netar.netdyn import generate_density_matched_markov


def seeded_rng(base, i):
    return np.random.default_rng(np.random.SeedSequence(entropy=base, spawn_key=(i,)))


class TestExample1Recovery:
    def test_circulant_pattern_recovery_at_n500(self):
        # zero-constrained entries are exact zeros; estimated entries with a
        # nonzero truth land within 0.1 of (0.25, 0.7) in at least 90% of reps
        spec, innov = example1_process()
        net = example1_network()
        alpha = spec.A[0]
        reps, wins = 50, 0
        for i in range(reps):
            rng = seeded_rng(11, i)
            ads = net.simulate(900, seed=rng)
            x = simulate_nar(spec, ads, innov, n=500, burn_in=400, seed=rng)
            fit = fit_nar(x, ads.drop_first(400), list(spec.G), 1)
            coef = fit.coefficient_matrices()[0]
            estimable = np.zeros((4, 4), dtype=bool)
            ok = True
            for c in fit.components:
                for pos, flat in enumerate(c.index_set.members):
                    estimable[c.r, flat % 4] = True
                    truth = alpha[c.r, flat % 4]
                    if truth != 0.0 and abs(c.w[pos] - truth) >= 0.1:
                        ok = False
            assert (coef[~estimable] == 0).all()
            wins += ok
        assert wins >= 0.9 * reps

    def test_sup_error_below_005_at_n2000(self):
        # nonzero-coefficient recovery at the 1/sqrt(n) scale
        spec, innov = example1_process()
        net = example1_network()
        alpha = spec.A[0]
        reps, wins = 200, 0
        for i in range(reps):
            rng = seeded_rng(13, i)
            ads = net.simulate(2400, seed=rng)
            x = simulate_nar(spec, ads, innov, n=2000, burn_in=400, seed=rng)
            fit = fit_nar(x, ads.drop_first(400), list(spec.G), 1)
            err = 0.0
            for c in fit.components:
                for pos, flat in enumerate(c.index_set.members):
                    truth = alpha[c.r, flat % 4]
                    if truth != 0.0:
                        err = max(err, abs(c.w[pos] - truth))
            wins += err < 0.05
        assert wins >= 0.95 * reps


def test_plugin_asymptotic_variance_matches_replication():
    # empirical variance of sqrt(n) (w_hat - w) within 25% of the plug-in
    # covariance diagonal for at least 80% of the estimable entries
    spec, innov = example1_process()
    net = example1_network()
    alpha = spec.A[0]
    reps, n = 500, 2000
    per_entry: dict = {}
    plugin: dict = {}
    for i in range(reps):
        rng = seeded_rng(17, i)
        ads = net.simulate(n + 400, seed=rng)
        x = simulate_nar(spec, ads, innov, n=n, burn_in=400, seed=rng)
        fit = fit_nar(x, ads.drop_first(400), list(spec.G), 1)
        for c in fit.components:
            diag = np.diag(c.asymp_cov)
            for pos, flat in enumerate(c.index_set.members):
                key = (c.r, flat)
                truth = alpha[c.r, flat % 4]
                per_entry.setdefault(key, []).append(np.sqrt(n) * (c.w[pos] - truth))
                plugin.setdefault(key, []).append(diag[pos])
    hits = 0
    total = 0
    for key, scaled in per_entry.items():
        emp = float(np.var(scaled, ddof=1))
        plug = float(np.mean(plugin[key]))
        total += 1
        hits += abs(emp - plug) <= 0.25 * plug
    assert total >= 10
    assert hits >= 0.8 * total, f"only {hits}/{total} entries within 25%"


def test_lnar_oracle_one_step_floor_d10():
    # true coefficients + true network: the one-step error is the innovation
    # itself, so the per-component MSE is the mean diagonal of 5*Sigma = 5
    d = 10
    spec, innov = example2_process(d)
    net = generate_density_matched_markov(d, 5.0 / d, 0.9)
    reps = 200
    sq = np.empty(reps)
    for i in range(reps):
        rng = seeded_rng(31, i)
        ads = net.simulate(302, seed=rng)
        x = simulate_lnar(spec, ads, innov, n=2, burn_in=300, seed=rng)
        g = spec.G[0].apply(ads[300])
        np.fill_diagonal(g, 0.0)
        pred = spec.alpha[0] * x[:, 0] + spec.beta[0] * (g @ x[:, 0]) + innov.mu
        sq[i] = ((x[:, 1] - pred) ** 2).mean()
    mse = sq.mean()
    se = sq.std(ddof=1) / np.sqrt(reps)
    assert mse == pytest.approx(5.0, abs=3 * se)


def test_lnar_alpha_recovery_d33():
    # per-component own-lag coefficients at n=500 recovered within 0.1
    # uniformly over 33 components in at least 90% of replicates
    d = 33
    spec, innov = example2_process(d)
    net = generate_density_matched_markov(d, 5.0 / d, 0.9)
    reps, wins = 25, 0
    for i in range(reps):
        rng = seeded_rng(19, i)
        ads = net.simulate(800, seed=rng)
        x = simulate_lnar(spec, ads, innov, n=500, burn_in=300, seed=rng)
        fit = fit_lnar(x, ads.drop_first(300), list(spec.G), 1)
        a_hat, _ = fit.alpha_beta()
        wins += np.abs(a_hat - spec.alpha).max() < 0.1
    assert wins >= 0.9 * reps
