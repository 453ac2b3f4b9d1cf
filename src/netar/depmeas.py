"""Coupled-path estimation of physical-dependence coefficients.

Two copies of a process share their entire innovation stream except for
an independent redraw at time 0; the lag-j dependence coefficient is the
L_q distance between the copies j steps later, maximized over entries.
Networks are driven by inverse-transform uniforms (one per edge per
step), which makes the functional representation explicit: once the
coupled chains coalesce they stay identical forever under the shared
innovations.

``estimate_delta_network`` couples the network alone;
``estimate_delta_x`` couples a network-modulated series, redrawing
either the joint innovation (series noise and network uniforms) or only
the network part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import InnovationSpec, LnarSpec, NarSpec
from .netdyn import FlipNetwork, MarkovEdgeNetwork, apply_neighborhood_fn

__all__ = ["CouplingRun", "estimate_delta_network", "estimate_delta_x"]


@dataclass
class CouplingRun:
    """Estimated dependence coefficients delta_q(j) for j = 0..max_lag.

    ``raw_qth`` holds the Monte Carlo means of the q-th powers (the
    directly averaged statistic); ``delta`` their q-th roots with
    delta-method standard errors.  ``delta_total`` is the truncated lag
    sum with the last-lag value as a truncation diagnostic, and the decay
    fit is a log-linear regression of delta over the positive lags.
    """

    q: float
    lags: np.ndarray
    delta: np.ndarray
    se: np.ndarray
    raw_qth: np.ndarray
    delta_total: float
    tail_value: float
    decay_ratio: float
    decay_r2: float


def _finalize(q: float, powers: np.ndarray, reps: int) -> CouplingRun:
    mean_q = powers.mean(axis=0)
    se_q = powers.std(axis=0, ddof=1) / np.sqrt(reps)
    delta = mean_q ** (1.0 / q)
    # delta-method: d/dm m^(1/q) = m^(1/q - 1) / q
    with np.errstate(divide="ignore", invalid="ignore"):
        se = np.where(mean_q > 0, se_q * (mean_q ** (1.0 / q - 1.0)) / q, 0.0)
    lags = np.arange(powers.shape[1])
    ratio, r2 = _decay_fit(lags, delta)
    return CouplingRun(
        q=q, lags=lags, delta=delta, se=se, raw_qth=mean_q,
        delta_total=float(delta.sum()), tail_value=float(delta[-1]),
        decay_ratio=ratio, decay_r2=r2,
    )


def _decay_fit(lags: np.ndarray, delta: np.ndarray):
    """Least-squares fit of log delta on lag over the positive entries (j >= 1)."""
    mask = (lags >= 1) & (delta > 0)
    if mask.sum() < 2:
        return float("nan"), float("nan")
    xs = lags[mask].astype(float)
    ys = np.log(delta[mask])
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(((ys - fitted) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(np.exp(slope)), r2


def estimate_delta_network(model: Union[MarkovEdgeNetwork, FlipNetwork], q: float,
                           max_lag: int, reps: int, seed=None,
                           burn_in: int = 200) -> CouplingRun:
    """Network-only coupling, vectorized across replicate pairs.

    All replicates share the stepping code: a common prehistory of
    ``burn_in`` steps, one redrawn uniform set at time 0, shared uniforms
    afterwards.  For binary networks the max-entry difference is 0 or 1,
    so the averaged q-th power is exactly the probability that the copies
    differ anywhere at that lag, independent of q.
    """
    if reps < 2:
        raise ValueError("need at least 2 replicate pairs")
    if q <= 0:
        raise ValueError("q must be positive")
    rng = np.random.default_rng(seed)
    if isinstance(model, FlipNetwork):
        state = np.full(reps, model.initial, dtype=np.int8)
        for _ in range(burn_in):
            u = rng.random(reps)
            state = _flip_step_vec(model, state, u)
        ua, ub = rng.random(reps), rng.random(reps)
        sa = _flip_step_vec(model, state, ua)
        sb = _flip_step_vec(model, state, ub)
        powers = np.empty((reps, max_lag + 1))
        powers[:, 0] = (sa != sb).astype(float)
        for j in range(1, max_lag + 1):
            u = rng.random(reps)
            sa = _flip_step_vec(model, sa, u)
            sb = _flip_step_vec(model, sb, u)
            powers[:, j] = (sa != sb).astype(float)
        return _finalize(q, powers, reps)
    if isinstance(model, MarkovEdgeNetwork):
        d = model.d
        state = np.stack([model.initial_state(rng) for _ in range(reps)])
        for _ in range(burn_in):
            u = rng.random((reps, d, d))
            state = model.step(state, u)
        ua, ub = rng.random((reps, d, d)), rng.random((reps, d, d))
        sa = model.step(state, ua)
        sb = model.step(state, ub)
        powers = np.empty((reps, max_lag + 1))
        powers[:, 0] = np.abs(sa - sb).max(axis=(1, 2)) ** q
        for j in range(1, max_lag + 1):
            u = rng.random((reps, d, d))
            sa = model.step(sa, u)
            sb = model.step(sb, u)
            powers[:, j] = np.abs(sa - sb).max(axis=(1, 2)) ** q
        return _finalize(q, powers, reps)
    raise TypeError(f"unsupported network model {type(model).__name__}")


def _flip_step_vec(model: FlipNetwork, states, uniforms):
    rho = model.persist_prob
    from0 = np.where(uniforms > 1.0 - rho, 0, 1).astype(np.int8)
    from1 = np.where(uniforms > rho, 0, 1).astype(np.int8)
    return np.where(states == 0, from0, from1)


def estimate_delta_x(spec: Union[NarSpec, LnarSpec], model: Union[MarkovEdgeNetwork, FlipNetwork],
                     innov: InnovationSpec, q: float, max_lag: int, reps: int, seed=None,
                     burn_in: int = 200, mode: str = "joint") -> CouplingRun:
    """Coupling of the induced series, reported as the max over components.

    The joint innovation at each step is the pair (series noise, network
    uniforms).  ``mode="joint"`` redraws both at time 0; ``mode=
    "network_only"`` redraws just the network part (isolating how network
    randomness propagates into the series).  Replicate pairs run batched
    with a shared stepping loop.
    """
    if mode not in ("joint", "network_only"):
        raise ValueError("mode must be 'joint' or 'network_only'")
    if reps < 2:
        raise ValueError("need at least 2 replicate pairs")
    nar = spec.to_nar() if isinstance(spec, LnarSpec) else spec
    d, p = nar.d, nar.p
    if innov.d != d:
        raise ValueError("innovation dimension does not match spec")
    rng = np.random.default_rng(seed)
    # network state is carried as matrices for the Markov model and as the
    # scalar flip state otherwise
    flip = isinstance(model, FlipNetwork)
    if flip:
        net_a = np.full(reps, model.initial, dtype=np.int8)
    else:
        net_a = np.stack([model.initial_state(rng) for _ in range(reps)])

    # shared prehistory: evolve one chain, keep the last p snapshots and
    # series lags; both copies start identical at time -1
    x_lags = np.zeros((p, reps, d))
    mats_lags = np.zeros((p, reps, d, d))
    for _ in range(burn_in):
        if flip:
            u = rng.random(reps)
            net_a = _flip_step_vec(model, net_a, u)
            mat = model.state_to_matrix(net_a)
        else:
            u = rng.random((reps, d, d))
            net_a = model.step(net_a, u)
            mat = net_a
        eps = innov.sample(rng, reps)
        x_new = _batched_nar_step(nar, x_lags, mats_lags, eps)
        mats_lags = np.concatenate([mat[None], mats_lags[:-1]], axis=0)
        x_lags = np.concatenate([x_new[None], x_lags[:-1]], axis=0)

    state_a = {"x": x_lags.copy(), "m": mats_lags.copy(), "net": net_a.copy()}
    state_b = {"x": x_lags.copy(), "m": mats_lags.copy(), "net": net_a.copy()}

    powers = np.empty((reps, max_lag + 1))
    for j in range(max_lag + 1):
        if flip:
            u_shared = rng.random(reps)
        else:
            u_shared = rng.random((reps, d, d))
        eps_shared = innov.sample(rng, reps)
        if j == 0:
            u_b = rng.random(reps) if flip else rng.random((reps, d, d))
            eps_b = eps_shared if mode == "network_only" else innov.sample(rng, reps)
        else:
            u_b, eps_b = u_shared, eps_shared
        xa = _advance(nar, model, state_a, u_shared, eps_shared, flip)
        xb = _advance(nar, model, state_b, u_b, eps_b, flip)
        powers[:, j] = np.abs(xa - xb).max(axis=1) ** q
    return _finalize(q, powers, reps)


def _advance(nar: NarSpec, model, state: dict, u, eps, flip: bool) -> np.ndarray:
    if flip:
        state["net"] = _flip_step_vec(model, state["net"], u)
        mat = model.state_to_matrix(state["net"])
    else:
        state["net"] = model.step(state["net"], u)
        mat = state["net"]
    x_new = _batched_nar_step(nar, state["x"], state["m"], eps)
    state["m"] = np.concatenate([mat[None], state["m"][:-1]], axis=0)
    state["x"] = np.concatenate([x_new[None], state["x"][:-1]], axis=0)
    return x_new


def _batched_nar_step(nar: NarSpec, x_lags: np.ndarray, mats_lags: np.ndarray,
                      eps: np.ndarray) -> np.ndarray:
    """One recursion step for a batch of replicate paths.

    ``x_lags[j-1]`` holds X_{t-j} (reps, d); ``mats_lags[j-1]`` the
    snapshots Ad_{t-j} (reps, d, d).
    """
    out = eps.copy()
    for j in range(1, nar.p + 1):
        mods = apply_neighborhood_fn(nar.G[j - 1], mats_lags[j - 1])
        coef = nar.A[j - 1][None] * mods
        out = out + np.einsum("rij,rj->ri", coef, x_lags[j - 1])
    return out

