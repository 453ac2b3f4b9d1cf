"""Multi-step forecasting and the difference/integrate pipeline.

h-step forecasts are computed recursively: each horizon performs a
one-step forecast in which unobserved series values are replaced by the
forecasts of earlier horizons and network snapshots come from a
resolvable policy.  The forecaster never sees future truth; the Known
policy carries the future snapshots explicitly, the other policies are
functions of the observed history alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .estimate import ModelFit
from .model import LnarSpec, _check_network_cover, _nar_coefficients, _run_recursion
from .netdyn import AdjacencySeries

__all__ = [
    "Known",
    "HoldLast",
    "PerEdgeMarkov",
    "ForecastSet",
    "forecast_network",
    "forecast_h",
    "difference",
    "integrate",
    "evaluate_mse",
    "MseReport",
]


@dataclass(frozen=True)
class Known:
    """True future snapshots (Ad_n, ..., Ad_{n+h-1}) supplied by the caller."""

    futures: AdjacencySeries


@dataclass(frozen=True)
class HoldLast:
    """Repeat the last observed snapshot at every horizon."""


@dataclass(frozen=True)
class PerEdgeMarkov:
    """Per-edge two-state chains fitted to the binary history.

    Transition probabilities come from Laplace-smoothed transition counts
    (``laplace_alpha`` pseudo-counts avoid undefined rows for never-seen
    states).  The horizon-s point forecast marks an edge present iff its
    s-step presence probability exceeds 1/2.  With ``freeze_first`` the
    one-step forecast is reused for every horizon, mirroring benchmark
    setups whose network forecast is constant across horizons.
    """

    laplace_alpha: float = 1.0
    freeze_first: bool = False


NetworkForecastPolicy = Union[Known, HoldLast, PerEdgeMarkov]


def forecast_network(history: AdjacencySeries, policy: NetworkForecastPolicy,
                     h: int) -> AdjacencySeries:
    """Resolve a policy into the h snapshots the forecaster will use."""
    if h < 1:
        raise ValueError("need at least one horizon")
    if isinstance(policy, Known):
        if len(policy.futures) < h:
            raise ValueError(
                f"Known policy supplies {len(policy.futures)} snapshots but {h} horizons requested"
            )
        return policy.futures.take_first(h)
    if len(history) == 0:
        raise ValueError("cannot forecast a network from an empty history")
    if isinstance(policy, HoldLast):
        last = history[len(history) - 1]
        return AdjacencySeries(np.repeat(last[None, :, :], h, axis=0),
                               t0=history.t0 + len(history))
    if isinstance(policy, PerEdgeMarkov):
        mats = history.mats
        if not history.is_binary():
            raise ValueError("per-edge Markov forecasting requires a binary history")
        a = policy.laplace_alpha
        prev, curr = mats[:-1], mats[1:]
        n11 = (prev * curr).sum(axis=0)
        n10 = (prev * (1 - curr)).sum(axis=0)
        n01 = ((1 - prev) * curr).sum(axis=0)
        n00 = ((1 - prev) * (1 - curr)).sum(axis=0)
        stay = (n11 + a) / (n11 + n10 + 2 * a)
        enter = (n01 + a) / (n01 + n00 + 2 * a)
        prob = mats[-1].astype(float)
        out = np.empty((h, history.d, history.d))
        for s in range(h):
            prob = prob * stay + (1.0 - prob) * enter
            out[s] = (prob > 0.5).astype(float)
        if policy.freeze_first:
            out[1:] = out[0]
        return AdjacencySeries(out, t0=history.t0 + len(history))
    raise TypeError(f"unknown network forecast policy {policy!r}")


@dataclass
class ForecastSet:
    """Point forecasts for horizons 1..h plus the network snapshots used."""

    points: np.ndarray
    networks_used: Optional[AdjacencySeries]
    errors: Optional[np.ndarray] = None

    @property
    def horizons(self) -> np.ndarray:
        return np.arange(1, self.points.shape[1] + 1)


def forecast_h(fit: ModelFit, x_hist: np.ndarray, ads_hist: Optional[AdjacencySeries],
               policy: Optional[NetworkForecastPolicy], h: int,
               truth: Optional[np.ndarray] = None) -> ForecastSet:
    """Recursive h-step forecast from the end of the observed sample.

    ``x_hist`` is the (d, n) observed series; ``ads_hist`` the observed
    snapshots on the same time axis (the benchmark VAR ignores both
    network arguments).  Horizon s uses the policy snapshot s together
    with observed values and earlier forecasts.
    """
    x_hist = np.atleast_2d(np.asarray(x_hist, dtype=float))
    d, n = x_hist.shape
    if n < fit.p:
        raise ValueError(f"history of length {n} cannot feed a lag-{fit.p} forecast")
    p = fit.p
    if fit.family == "lnar":
        # the per-component family runs on its embedding into the full model
        nar = LnarSpec(p, *fit.alpha_beta(), fit.g).to_nar()
        coef, g = nar.A, nar.G
    else:
        coef, g = fit.coefficient_matrices(), fit.g
    # the recursion runs on a window of the last p observations and the h
    # horizons; the window's snapshots share its time axis
    total = p + h
    nets = None
    if fit.family == "var":
        coefs = [np.broadcast_to(a, (total, d, d)) for a in coef]
    else:
        if ads_hist is None or policy is None:
            raise ValueError("network-modulated forecasts need a history and a policy")
        _check_network_cover(ads_hist, d, n - 1, "forecast_h")
        # only the n-1 estimation-aligned snapshots are visible; anything
        # beyond them must come through the policy
        hist_use = ads_hist.take_first(n - 1)
        nets = forecast_network(hist_use, policy, h)
        _check_network_cover(nets, d, h, "forecast_h (policy snapshots)")
        mats = np.concatenate([hist_use.mats[n - p:], nets.mats], axis=0)
        coefs = _nar_coefficients(coef, g, mats)
    x = np.concatenate([x_hist[:, n - p:], np.zeros((d, h))], axis=1)
    points = _run_recursion(x, np.broadcast_to(fit.mu_hat(), (h, d)), coefs, start=p)[:, p:]
    errors = None
    if truth is not None:
        truth = np.atleast_2d(np.asarray(truth, dtype=float))
        if truth.shape != points.shape:
            raise ValueError(f"truth shape {truth.shape} does not match forecasts {points.shape}")
        errors = truth - points
    return ForecastSet(points=points, networks_used=nets, errors=errors)


def difference(y: np.ndarray) -> np.ndarray:
    """First differences along time: x_t = y_t - y_{t-1}, shape (d, n-1)."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if y.shape[1] < 2:
        raise ValueError("need at least two observations to difference")
    return y[:, 1:] - y[:, :-1]


def integrate(y_n: np.ndarray, forecasts: Union[ForecastSet, np.ndarray]) -> np.ndarray:
    """Cumulate growth forecasts back onto the last observed level.

    Returns the level forecasts y_n + cumulative sums; feeding the true
    growths reproduces the true levels exactly.
    """
    points = forecasts.points if isinstance(forecasts, ForecastSet) else np.asarray(forecasts)
    points = np.atleast_2d(points)
    y_n = np.asarray(y_n, dtype=float).reshape(-1)
    if y_n.shape[0] != points.shape[0]:
        raise ValueError("level vector and forecasts disagree on dimension")
    return y_n[:, None] + np.cumsum(points, axis=1)


@dataclass
class MseReport:
    per_horizon: np.ndarray
    per_component: np.ndarray


def evaluate_mse(truth: np.ndarray, forecasts: np.ndarray) -> MseReport:
    """Mean squared error averaged over components and replicates.

    Inputs have shape (B, d, h) (a single replicate (d, h) is promoted).
    ``per_horizon[s]`` is the replicate-and-component average of the
    squared horizon-(s+1) errors; ``per_component`` keeps the (d, h)
    breakdown.
    """
    truth = np.asarray(truth, dtype=float)
    forecasts = np.asarray(forecasts, dtype=float)
    if truth.shape != forecasts.shape:
        raise ValueError(f"shape mismatch: truth {truth.shape} vs forecasts {forecasts.shape}")
    if truth.ndim == 2:
        truth = truth[None]
        forecasts = forecasts[None]
    if truth.ndim != 3:
        raise ValueError("expected (B, d, h) error stacks")
    sq = (truth - forecasts) ** 2
    per_component = sq.mean(axis=0)
    per_horizon = per_component.mean(axis=0)
    return MseReport(per_horizon=per_horizon, per_component=per_component)
