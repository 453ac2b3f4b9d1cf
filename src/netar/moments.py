"""Autocovariance machinery.

Sample autocovariances use the biased divisor n so that the lag-0 matrix
stays positive semidefinite.  Population autocovariances of the network
processes are approximated by Monte Carlo over independent paths; for
the three-node flip toy the exact two-part decomposition (an
innovation-driven part plus a network-covariance part) is available in
closed form and doubles as an oracle for the Monte Carlo path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

__all__ = ["AcfEstimate", "sample_acf", "mc_autocov", "closed_form_flip_acf"]


@dataclass
class AcfEstimate:
    """Autocovariance matrices Gamma(h) for h = 0..max_lag.

    Only nonnegative lags are stored; Gamma(-h) = Gamma(h)^T.  ``se``
    holds matching Monte Carlo standard errors when the estimate was
    produced by replication, else None.
    """

    lags: np.ndarray
    gamma: List[np.ndarray]
    se: Optional[List[np.ndarray]] = None

    @property
    def d(self) -> int:
        return self.gamma[0].shape[0]


def sample_acf(x: np.ndarray, max_lag: int) -> AcfEstimate:
    """Matrix-valued sample autocovariance of a (d, n) series.

    Gamma_hat(h) = (1/n) sum_t (x_{t+h} - xbar)(x_t - xbar)^T with the
    divisor n for every lag.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d, n = x.shape
    if max_lag < 0:
        raise ValueError(f"max_lag must be at least 0, got {max_lag}")
    if max_lag >= n:
        raise ValueError(f"max_lag={max_lag} must be smaller than the series length {n}")
    xc = x - x.mean(axis=1, keepdims=True)
    gammas = []
    for h in range(max_lag + 1):
        g = xc[:, h:] @ xc[:, : n - h].T / n
        gammas.append(g)
    return AcfEstimate(lags=np.arange(max_lag + 1), gamma=gammas)


def mc_autocov(simulate_path: Callable[[np.random.Generator], np.ndarray],
               max_lag: int, reps: int, seed=None) -> AcfEstimate:
    """Monte Carlo population autocovariance.

    Averages the sample autocovariance over ``reps`` independent paths
    produced by ``simulate_path(rng)``; per-entry standard errors come
    from the across-replicate variance.  Replicate generators are derived
    from the root seed as ``SeedSequence(seed, spawn_key=(i,))`` so the
    estimate does not depend on scheduling.
    """
    if reps < 2:
        raise ValueError("need at least 2 replicates for standard errors")
    root = np.random.SeedSequence(seed)
    stacks = None
    for i in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=root.entropy, spawn_key=(i,)))
        est = sample_acf(simulate_path(rng), max_lag)
        if stacks is None:
            stacks = np.empty((reps, max_lag + 1, est.d, est.d))
        stacks[i] = np.stack(est.gamma)
    mean = stacks.mean(axis=0)
    se = stacks.std(axis=0, ddof=1) / np.sqrt(reps)
    return AcfEstimate(
        lags=np.arange(max_lag + 1),
        gamma=[mean[h] for h in range(max_lag + 1)],
        se=[se[h] for h in range(max_lag + 1)],
    )


def closed_form_flip_acf(persist_prob: float, mu, sigma, max_lag: int):
    """Exact two-part autocovariance of the flip-network moving average.

    The process is X_t = Ad_{t-1}^T eps_{t-1} + eps_t on the three-node
    flip network, so its MA coefficients are B_{t,0} = I and
    B_{t,1} = Ad_{t-1}^T.  Write I1(t) for the indicator that edge (1,3)
    is active; the active-edge indicator chain has stationary probability
    1/2 and lag-h autocovariance rho_e^h / 4 with rho_e = 2 p - 1 for
    persistence p.

    Part 1 (innovation-driven, network replaced by its mean inside an
    expectation):
        h = 0:  Sigma + E[Ad^T Sigma Ad] = Sigma + e3 e3' (Sigma_11 + Sigma_22)/2
        h = 1:  E[Ad^T] Sigma           = rows of Sigma 1 and 2 averaged into row 3
        h >= 2: 0 exactly (order-1 moving average).

    Part 2 (covariance of B mu terms, nonzero only for noncentered
    innovations): Ad_t^T mu = e3 (I1 mu_1 + (1 - I1) mu_2), hence
        part2(h) = e3 e3' (mu_1 - mu_2)^2 Cov(I1(h-1), I1(-1))
                 = e3 e3' (mu_1 - mu_2)^2 rho_e^h / 4     for h >= 1
        part2(0) = e3 e3' (mu_1 - mu_2)^2 / 4.

    Returns a dict with AcfEstimates under keys "part1", "part2" and
    their sum under "total".
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if mu.shape != (3,) or sigma.shape != (3, 3):
        raise ValueError("the closed form applies to the 3-node flip configuration only")
    if not 0.0 <= persist_prob <= 1.0:
        raise ValueError("persist_prob must lie in [0, 1]")
    rho_e = 2.0 * persist_prob - 1.0
    e3 = np.zeros((3, 3))
    e3[2, 2] = 1.0

    part1 = []
    part2 = []
    for h in range(max_lag + 1):
        if h == 0:
            p1 = sigma + e3 * (sigma[0, 0] + sigma[1, 1]) / 2.0
        elif h == 1:
            ead_t = np.zeros((3, 3))
            ead_t[2, 0] = 0.5
            ead_t[2, 1] = 0.5
            p1 = ead_t @ sigma
        else:
            p1 = np.zeros((3, 3))
        part1.append(p1)
        p2 = np.zeros((3, 3))
        p2[2, 2] = (mu[0] - mu[1]) ** 2 * (rho_e ** h) / 4.0
        part2.append(p2)

    lags = np.arange(max_lag + 1)
    return {
        "part1": AcfEstimate(lags=lags, gamma=part1),
        "part2": AcfEstimate(lags=lags, gamma=part2),
        "total": AcfEstimate(lags=lags, gamma=[a + b for a, b in zip(part1, part2)]),
    }
