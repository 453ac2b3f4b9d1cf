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
from typing import List, Optional, Sequence, Union

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


def _transition_counts(mats: np.ndarray):
    """Per-edge counts ``n11, n10, n01, n00`` of the transitions of a binary stack,
    ``n10`` counting present-then-absent: one product and three sums, in integers."""
    on = mats.astype(bool, copy=False)
    prev, curr = on[:-1], on[1:]
    n11 = (prev & curr).sum(axis=0)
    n10 = prev.sum(axis=0) - n11
    n01 = curr.sum(axis=0) - n11
    return n11, n10, n01, len(prev) - n11 - n10 - n01


def forecast_network(history: AdjacencySeries, policy: NetworkForecastPolicy,
                     h: int) -> AdjacencySeries:
    """Resolve a policy into the h snapshots the forecaster will use: the known
    futures or the repeated last snapshot in the history's dtype, and the per-edge
    Markov point forecasts as ``bool``."""
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
        return AdjacencySeries(np.repeat(last[None, :, :], h, axis=0))
    if isinstance(policy, PerEdgeMarkov):
        if not history.is_binary():
            raise ValueError("per-edge Markov forecasting requires a binary history")
        a = policy.laplace_alpha
        n11, n10, n01, n00 = _transition_counts(history.mats)
        stay = (n11 + a) / (n11 + n10 + 2 * a)
        enter = (n01 + a) / (n01 + n00 + 2 * a)
        prob = history.mats[-1].astype(float)
        out = np.empty((h, history.d, history.d), dtype=bool)
        for s in range(h):
            prob = prob * stay + (1.0 - prob) * enter
            np.greater(prob, 0.5, out=out[s])
        if policy.freeze_first:
            out[1:] = out[0]
        return AdjacencySeries(out)
    raise TypeError(f"unknown network forecast policy {policy!r}")


@dataclass
class ForecastSet:
    """Point forecasts for horizons 1..h plus the network snapshots used."""

    points: np.ndarray
    networks_used: Optional[AdjacencySeries]
    errors: Optional[np.ndarray] = None


def forecast_h(fit: ModelFit, x_hist: np.ndarray, ads_hist: Optional[AdjacencySeries],
               policy: Union[Optional[NetworkForecastPolicy], Sequence], h: int,
               truth: Optional[np.ndarray] = None) -> Union[ForecastSet, List[ForecastSet]]:
    """Recursive h-step forecast from the end of the observed sample.

    ``x_hist`` is the (d, n) observed series; ``ads_hist`` the observed
    snapshots on the same time axis (the benchmark VAR ignores both
    network arguments).  Horizon s uses the policy snapshot s together
    with observed values and earlier forecasts.  A list (or tuple) of P
    policies is a batch: the fit's coefficient matrices are built once, G
    is evaluated once on the P windows stacked ``(p - 1 + h, P, d, d)``,
    one ``(P, d)`` window steps through the recursion, and the result is
    one ForecastSet per policy, in order, each the one its policy alone
    gives, bit for bit.  Any other policy is a batch of one and returns
    its ForecastSet.
    """
    x_hist = np.atleast_2d(np.asarray(x_hist, dtype=float))
    d, n = x_hist.shape
    if d != fit.d:
        raise ValueError(f"history has {d} components but the fit has {fit.d}")
    if n < fit.p:
        raise ValueError(f"history of length {n} cannot feed a lag-{fit.p} forecast")
    if h < 1:
        raise ValueError("need at least one horizon")
    batched = isinstance(policy, (list, tuple))
    policies = list(policy) if batched else [policy]
    if not policies:
        raise ValueError("need at least one network policy")
    p, size = fit.p, len(policies)
    if fit.family == "lnar" and p > 0:
        # the per-component family runs on its embedding into the full model
        nar = LnarSpec(p, *fit.alpha_beta(), fit.g).to_nar()
        coef, g = nar.A, nar.G
    else:
        coef, g = fit.coefficient_matrices(), fit.g
    # the recursion runs on a window of the last p observations and the h
    # horizons; the window's snapshots share its time axis
    total = p + h
    nets = [None] * size
    if fit.family == "var":
        coefs = [np.broadcast_to(a, (total, size, d, d)) for a in coef]
    else:
        if ads_hist is None or any(pol is None for pol in policies):
            raise ValueError("network-modulated forecasts need a history and a policy")
        _check_network_cover(ads_hist, d, n - 1, "forecast_h")
        # only the n-1 estimation-aligned snapshots are visible; anything
        # beyond them must come through the policy
        hist_use = ads_hist.take_first(n - 1)
        nets = [forecast_network(hist_use, pol, h) for pol in policies]
        for used in nets:
            _check_network_cover(used, d, h, "forecast_h (policy snapshots)")
        mats = np.stack([np.concatenate([hist_use.mats[n - p:], used.mats]) for used in nets],
                        axis=1)
        coefs = _nar_coefficients(coef, g, mats)
    rows = np.zeros((total, size, d))
    rows[:p] = x_hist[:, n - p:].T[:, None]
    rows = _run_recursion(rows, np.broadcast_to(fit.mu_hat(), (h, size, d)), coefs, start=p)
    points = np.ascontiguousarray(rows[p:].transpose(1, 2, 0))
    errors = [None] * size
    if truth is not None:
        truth = np.atleast_2d(np.asarray(truth, dtype=float))
        if truth.shape != (d, h):
            raise ValueError(f"truth shape {truth.shape} does not match forecasts {(d, h)}")
        errors = truth - points
    out = [ForecastSet(points=pts, networks_used=used, errors=err)
           for pts, used, err in zip(points, nets, errors)]
    return out if batched else out[0]


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
