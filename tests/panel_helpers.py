"""Synthetic panel generation shared by the harness tests and acceptance run.

Builds a quarterly panel whose growth rates follow a known per-component
network model on annually-refreshed trade weights, written in the exact
file formats the ingestion pipeline reads.
"""

import csv

import numpy as np

from netar import AdjacencySeries, InnovationSpec, LnarSpec, NeighborhoodFn, simulate_lnar
from netar.harness import normalize_trade_matrix


def synthetic_panel_arrays(seed, d=24, n_years=18, alpha_level=0.25, beta_level=0.6,
                           noise_sd=0.01, mean_lo=0.001, mean_hi=0.004):
    """Levels, quarter labels, per-year raw trade matrices and the true spec.

    The growth process leans heavily on the network term, growth means are
    large relative to the noise, and the panel is wide relative to its
    length; all three give the d(2p+1)-parameter fit a real edge over a
    plain VAR with its d*p+1 coefficients per equation.
    """
    rng = np.random.default_rng(seed)
    labels = [f"E{i + 1}" for i in range(d)]
    year0 = 1990
    years = list(range(year0, year0 + n_years))
    raw_by_year = {}
    normalized = {}
    for year in years:
        raw = rng.uniform(1.0, 10.0, (d, d))
        np.fill_diagonal(raw, 0.0)
        raw_by_year[year] = raw
        normalized[year] = normalize_trade_matrix(raw)
    quarters = [(y, q) for y in years for q in (1, 2, 3, 4)]
    n_q = len(quarters)
    # growth quarter k spans levels k -> k+1, matrix of the ending quarter's year
    growth_mats = np.stack([normalized[quarters[k + 1][0]] for k in range(n_q - 1)])

    alpha = np.full((1, d), alpha_level)
    beta = np.full((1, d), beta_level)
    spec = LnarSpec(1, alpha, beta, [NeighborhoodFn.transpose()])
    means = rng.uniform(mean_lo, mean_hi, d) * rng.choice([-1.0, 1.0], d)
    innov = InnovationSpec(means, np.eye(d) * noise_sd ** 2)
    burn = 100
    ads = AdjacencySeries(np.concatenate([np.repeat(growth_mats[:1], burn, axis=0),
                                          growth_mats]))
    x = simulate_lnar(spec, ads, innov, n=n_q - 1, burn_in=burn, seed=rng)
    levels = np.concatenate([np.full((d, 1), 10.0), 10.0 + np.cumsum(x, axis=1)], axis=1)
    return labels, quarters, levels, raw_by_year, spec, innov


def write_panel_files(tmpdir, labels, quarters, levels, raw_by_year):
    """Emit levels.csv plus weights_<year>.csv files; returns their paths."""
    levels_path = tmpdir / "levels.csv"
    with open(levels_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + labels)
        for k, (y, q) in enumerate(quarters):
            w.writerow([f"{y}Q{q}"] + [format(v, ".17g") for v in levels[:, k]])
    weights = {}
    for year, raw in raw_by_year.items():
        path = tmpdir / f"weights_{year}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["entity"] + labels)
            for i, lbl in enumerate(labels):
                w.writerow([lbl] + [format(v, ".17g") for v in raw[i]])
        weights[year] = str(path)
    return str(levels_path), weights
