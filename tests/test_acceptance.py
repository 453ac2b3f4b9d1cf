"""Acceptance suite: one test per criterion, run at desk scale.

Every check prints a [PASS]/[FAIL] line with the measured values so the
suite output doubles as the acceptance report (run with ``pytest
tests/test_acceptance.py -v -s``).  One benchmark window (criterion 1's
VAR cell) is provably unattainable for its stated generating process; it
is asserted faithfully and expected to stay red, with the analytic lower
bound quoted in the failure message.
"""

import os

import numpy as np
import pytest

from netar import (
    InnovationSpec,
    LnarSpec,
    MarkovEdgeNetwork,
    NeighborhoodFn,
    closed_form_flip_acf,
    difference,
    estimate_delta_network,
    fit_lnar,
    fit_nar,
    fit_var,
    integrate,
    k_stage_neighborhood,
    mc_autocov,
    sample_acf,
    simulate_lnar,
    simulate_nar,
)
from netar.harness import (
    example1_config,
    example2_config,
    example2_process,
    ingest_panel,
    run_experiment,
    run_rolling_forecast,
)
from netar.netdyn import FlipNetwork, generate_density_matched_markov

from panel_helpers import synthetic_panel_arrays, write_panel_files
from test_model import (
    companion_recursion,
    direct_recursion,
    random_binary_ads,
    random_stationary_nar,
)
from test_estimate import literal_block_system, ols_with_intercept
from test_netdyn import bfs_stage_oracle
from test_moments import flip_first_order_expectation, flip_path_factory
from netar.estimate import fit_component_ls

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def report(criterion, name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {name}: {detail}")
    return passed


# --- criterion 1 + 2a: Table-1 replication and the optimal floor -------------

@pytest.fixture(scope="module")
def example1_run():
    cfg = example1_config(sample_sizes=(500,), replications=200, seed=733,
                          horizons=4, policies=("known",))
    return run_experiment(cfg)


def test_criterion1_nar_known_h1(example1_run):
    val = example1_run.mse[(500, "nar(known)")][0]
    ok = 0.95 <= val <= 1.15
    assert report(1, "NAR(known) h=1 in [0.95, 1.15] (reference 1.01)", ok, f"{val:.3f}")


def test_criterion1_nar_known_h4(example1_run):
    val = example1_run.mse[(500, "nar(known)")][3]
    ok = 1.05 <= val <= 1.30
    assert report(1, "NAR(known) h=4 in [1.05, 1.30] (reference 1.15)", ok, f"{val:.3f}")


def test_criterion1_lnar_known_h1(example1_run):
    val = example1_run.mse[(500, "lnar(known)")][0]
    ok = 1.50 <= val <= 1.90
    assert report(1, "LNAR(known) h=1 in [1.50, 1.90] (reference 1.69)", ok, f"{val:.3f}")


def test_criterion1_var_h1(example1_run):
    val = example1_run.mse[(500, "var")][0]
    ok = 2.2 <= val <= 3.0
    report(1, "VAR h=1 in [2.2, 3.0] (reference 2.60)", ok, f"{val:.3f}")
    assert ok, (
        f"VAR h=1 measured {val:.3f}; the window [2.2, 3.0] is unattainable for the "
        "printed generating process: the i.i.d. edge (3,2) feeding coefficient 0.7 "
        "times a component with E[X_3^2] >= 106 puts an irreducible "
        "0.1225*E[X_3^2] ~ 13 on component 2 of any linear one-step predictor, so "
        "VAR MSE >= 4.2 > 3.0 (cross-checked at n=200k: fitted VAR(1) and "
        "VAR(3) residual variances average 5.13 and 5.08). The other three "
        "cells of this table land on their reference values."
    )


def test_criterion2_optimal_floor_example1(example1_run):
    val = example1_run.mse[(500, "nar(known)")][0]
    ok = val >= 0.95
    assert report(2, "Example-1 NAR(known) h=1 >= 0.95 (noise floor 1)", ok, f"{val:.3f}")


@pytest.mark.parametrize("d", [10, 33])
def test_criterion2_lnar_floor_example2(d):
    cfg = example2_config(d=d, sample_sizes=(500,), replications=200, seed=512 + d,
                          horizons=1, include_var=False)
    rep = run_experiment(cfg)
    val = rep.mse[(500, "lnar(known)")][0]
    ok = 5.0 <= val <= 5.6
    assert report(2, f"Example-2-style LNAR(known) d={d} h=1 in [5.0, 5.6] "
                     "(noise floor 5)", ok, f"{val:.3f}")


# --- criterion 3: sqrt(n) consistency rate -----------------------------------

def test_criterion3_consistency_rate():
    from netar.harness import example1_network, example1_process

    spec, innov = example1_process()
    net = example1_network()
    alpha = spec.A[0]
    ns = [250, 500, 1000, 2000, 4000]
    reps = 100
    medians = []
    for n in ns:
        errs = []
        for i in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=23,
                                                               spawn_key=(n, i)))
            ads = net.simulate(n + 400, seed=rng)
            x = simulate_nar(spec, ads, innov, n=n, burn_in=400, seed=rng)
            fit = fit_nar(x, ads.drop_first(400), list(spec.G), 1)
            sq = 0.0
            for c in fit.components:
                for pos, flat in enumerate(c.index_set.members):
                    sq += (c.w[pos] - alpha[c.r, flat % 4]) ** 2
            errs.append(np.sqrt(sq))
        medians.append(np.median(errs))
    slope = np.polyfit(np.log(ns), np.log(medians), 1)[0]
    ok = abs(slope + 0.5) <= 0.15
    assert report(3, "log-log slope of median coefficient error vs n = -0.5 +- 0.15",
                  ok, f"slope {slope:.3f}, medians " +
                  " ".join(f"{m:.4f}" for m in medians))


# --- criterion 4: dimension-free estimation ----------------------------------

def test_criterion4_dimension_free_lnar():
    # centered innovations: the published mean pattern grows with the
    # component index, which makes network regressors d^2-times more
    # informative at d=100 and would mask the property being tested
    med = {}
    for d, reps in ((10, 40), (100, 8)):
        spec, innov_raw = example2_process(d)
        innov = InnovationSpec(np.zeros(d), innov_raw.sigma)
        net = generate_density_matched_markov(d, 5.0 / d, 0.9)
        errs = []
        for i in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=29,
                                                               spawn_key=(d, i)))
            ads = net.simulate(1300, seed=rng)
            x = simulate_lnar(spec, ads, innov, n=1000, burn_in=300, seed=rng)
            fit = fit_lnar(x, ads.drop_first(300), list(spec.G), 1)
            a_hat, b_hat = fit.alpha_beta()
            w_err = np.sqrt((a_hat - spec.alpha) ** 2 + (b_hat - spec.beta) ** 2)
            errs.extend(w_err.ravel().tolist())
        med[d] = float(np.median(errs))
    change = abs(med[100] - med[10]) / med[10]
    ok = change < 0.30
    assert report(4, "median per-component error changes < 30% from d=10 to d=100",
                  ok, f"d=10: {med[10]:.4f}, d=100: {med[100]:.4f}, change {change:.1%}")


# --- criterion 5: closed-form autocovariance oracle ---------------------------

def test_criterion5_closed_form_vs_monte_carlo():
    mu = np.array([10.0, -10.0, 0.0])
    n, reps = 30_000, 120
    parts = closed_form_flip_acf(0.95, mu, np.eye(3), 40)
    expected = flip_first_order_expectation(parts, n, 8)
    est = mc_autocov(flip_path_factory(mu, n=n, fast=True), max_lag=8, reps=reps,
                     seed=37)
    worst = 0.0
    ok = True
    for h in range(9):
        dev = np.abs(est.gamma[h] - expected[h]) / (3 * est.se[h] + 1e-9)
        worst = max(worst, float(dev.max()))
        ok = ok and (np.abs(est.gamma[h] - expected[h]) <= 3 * est.se[h] + 1e-6).all()
    assert report(5, "closed form vs Monte Carlo within 3 MC SE, h <= 8", ok,
                  f"worst deviation {worst:.2f} x (3 SE)")


def test_criterion5_component3_decay_ratio():
    x = flip_path_factory(np.array([10.0, -10.0, 0.0]), n=100_000, fast=True)(
        np.random.default_rng(41))
    acf = sample_acf(x[2], max_lag=6)
    ratios = [acf.gamma[h][0, 0] / acf.gamma[h - 1][0, 0] for h in range(2, 7)]
    ok = all(abs(r - 0.9) <= 0.05 for r in ratios)
    assert report(5, "component-3 autocovariance decay ratio 0.9 +- 0.05", ok,
                  " ".join(f"{r:.3f}" for r in ratios))


def test_criterion5_flip_edge_autocovariance():
    states = FlipNetwork(0.95).simulate_states(1_000_000, seed=43, burn_in=500)
    ind = (states == 0).astype(float)
    z = ind - ind.mean()
    n = len(z)
    devs = []
    ok = True
    for h in range(1, 11):
        cov = (z[h:] * z[:-h]).sum() / n
        dev = abs(cov - 0.9 ** h / 4.0)
        devs.append(dev)
        ok = ok and dev <= 0.005
    assert report(5, "flip edge autocovariance 0.9^h/4 +- 0.005 at n=1e6", ok,
                  f"max deviation {max(devs):.4f}")


# --- criterion 6: structural oracles ------------------------------------------

def test_criterion6_structural_oracles():
    rng = np.random.default_rng(47)
    # companion recursion == direct recursion
    worst_comp = 0.0
    for _ in range(20):
        spec = random_stationary_nar(rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)))
        ads = random_binary_ads(rng, spec.d, 50)
        eps = rng.normal(size=(50, spec.d))
        worst_comp = max(worst_comp, float(np.abs(
            direct_recursion(spec, ads, eps) - companion_recursion(spec, ads, eps)).max()))
    ok1 = worst_comp <= 1e-12

    # per-component model == its embedding
    worst_emb = 0.0
    for _ in range(20):
        d, p = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        spec = LnarSpec(p, rng.uniform(-0.3, 0.3, (p, d)) / p,
                        rng.uniform(-0.3, 0.3, (p, d)) / p,
                        [NeighborhoodFn.row_normalized_transpose()] * p)
        ads = random_binary_ads(rng, d, 40 + p)
        innov = InnovationSpec(rng.normal(size=d), np.eye(d))
        seed = int(rng.integers(1 << 31))
        xl = simulate_lnar(spec, ads, innov, n=40, burn_in=0, seed=seed)
        xn = simulate_nar(spec.to_nar(), ads, innov, n=40, burn_in=0, seed=seed,
                          allow_explosive=True)
        worst_emb = max(worst_emb, float(np.abs(xl - xn).max()))
    ok2 = worst_emb <= 1e-12

    # literal raw block system == centered solve
    worst_lit = 0.0
    for _ in range(50):
        m, k = int(rng.integers(20, 60)), int(rng.integers(1, 6))
        Y = rng.normal(size=(m, k))
        y = rng.normal(size=m) + Y @ rng.normal(size=k)
        fit = fit_component_ls(y, Y, r=0)
        mu_l, w_l = literal_block_system(Y, y)
        worst_lit = max(worst_lit, abs(fit.mu - mu_l), float(np.abs(fit.w - w_l).max()))
    ok3 = worst_lit <= 1e-10

    # static complete network == per-equation VAR least squares
    x = rng.normal(size=(3, 150))
    from netar.netdyn import AdjacencySeries
    ads_static = AdjacencySeries(np.ones((150, 3, 3)))
    nf = fit_nar(x, ads_static, [NeighborhoodFn.transpose()] * 2, 2)
    vf = fit_var(x, 2)
    worst_var = 0.0
    for r in range(3):
        worst_var = max(worst_var, float(np.abs(nf.components[r].w - vf.components[r].w).max()),
                        abs(nf.components[r].mu - vf.components[r].mu))
        mu_o, w_o = ols_with_intercept(
            np.column_stack([x[:, 2 - j:150 - j].T for j in range(1, 3)]), x[r, 2:])
        worst_var = max(worst_var, float(np.abs(vf.components[r].w - w_o).max()))
    ok4 = worst_var <= 1e-9

    # exact-stage indicator == breadth-first-search oracle
    ok5 = True
    for _ in range(200):
        d = int(rng.integers(2, 13))
        ad = (rng.random((d, d)) < rng.uniform(0.1, 0.5)).astype(float)
        k = int(rng.integers(1, 5))
        ok5 = ok5 and np.array_equal(k_stage_neighborhood(ad, k), bfs_stage_oracle(ad, k))

    # integrate after difference reproduces levels exactly
    y = rng.normal(size=(4, 30)).cumsum(axis=1)
    ok6 = bool(np.allclose(integrate(y[:, 0], difference(y)), y[:, 1:], atol=1e-12))

    details = (f"companion {worst_comp:.1e}, embedding {worst_emb:.1e}, "
               f"literal {worst_lit:.1e}, varOLS {worst_var:.1e}, "
               f"bfs {'exact' if ok5 else 'MISMATCH'}, integrate {'exact' if ok6 else 'off'}")
    assert report(6, "structural oracles (exact / 1e-10)",
                  ok1 and ok2 and ok3 and ok4 and ok5 and ok6, details)


# --- criterion 7: physical-dependence decay -----------------------------------

def test_criterion7_single_edge_coupling():
    m = MarkovEdgeNetwork(np.full((1, 1), 0.95), np.full((1, 1), 0.05))
    run = estimate_delta_network(m, q=1, max_lag=15, reps=100_000, seed=53)
    ok = abs(run.decay_ratio - 0.9) <= 0.03
    assert report(7, "single-edge coupling decay ratio 0.9 +- 0.03", ok,
                  f"{run.decay_ratio:.4f} (r2 {run.decay_r2:.4f})")


def test_criterion7_iid_network_forgets():
    m = MarkovEdgeNetwork(np.full((3, 3), 0.4), np.full((3, 3), 0.4))
    run = estimate_delta_network(m, q=1, max_lag=8, reps=5000, seed=59)
    ok = bool((run.delta[1:] == 0).all() and run.delta[0] > 0)
    assert report(7, "i.i.d. network delta(j>=1) = 0 (exact coalescence)", ok,
                  f"delta = {np.array2string(run.delta, precision=3)}")


# --- criterion 8: panel pipeline ----------------------------------------------

def test_criterion8_golden_panel_reproducible(tmp_path):
    labels, quarters, levels, raw_by_year, _, _ = synthetic_panel_arrays(7)
    levels_path, weights = write_panel_files(tmp_path, labels, quarters, levels,
                                             raw_by_year)
    panel = ingest_panel(levels_path, weights)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    run_rolling_forecast(panel, h=8, out_dir=str(out1))
    run_rolling_forecast(panel, h=8, out_dir=str(out2))
    identical = all((out1 / f).read_bytes() == (out2 / f).read_bytes()
                    for f in os.listdir(out1))
    golden = open(os.path.join(FIXTURES, "golden_panel_total.csv"), "rb").read()
    matches_golden = (out1 / "panel_total_errors.csv").read_bytes() == golden
    assert report(8, "panel run byte-reproducible and matches the golden fixture",
                  identical and matches_golden,
                  f"identical={identical}, golden={matches_golden}")


def test_criterion8_true_model_beats_var():
    wins = 0
    panels = 50
    for i in range(panels):
        labels, quarters, levels, raw_by_year, _, _ = synthetic_panel_arrays(1000 + i)
        normalized = {y: raw for y, raw in raw_by_year.items()}
        # build the panel in memory (ingestion round-trip covered elsewhere)
        from netar.harness import PanelDataset, normalize_trade_matrix
        from netar.netdyn import AdjacencySeries
        growth_mats = np.stack([normalize_trade_matrix(raw_by_year[quarters[k + 1][0]])
                                for k in range(len(quarters) - 1)])
        panel = PanelDataset(labels, quarters, levels,
                             AdjacencySeries(growth_mats), True)
        result = run_rolling_forecast(panel, methods=("var", "lnar"), h=8)
        totals = result.total_errors()
        wins += totals["lnar"][0] <= totals["var"][0]
    ok = wins >= 0.8 * panels
    assert report(8, "LNAR total squared error <= VAR on >= 80% of 50 synthetic panels",
                  ok, f"{wins}/{panels}")
