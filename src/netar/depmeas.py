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
the network part.  Both step the pair as one batch after a shared past,
``estimate_delta_x`` through ``model._run_recursion``; each step's
coefficients ``A_j * G_j`` for every lag are built once (each distinct G
evaluated once) and kept for the p steps that read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import InnovationSpec, LnarSpec, NarSpec, _nar_coefficients, _run_recursion
from .netdyn import FlipNetwork, MarkovEdgeNetwork

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


def _check_coupling(q: float, max_lag: int, reps: int, burn_in: int) -> None:
    """The arguments both coupling estimators share."""
    if reps < 2:
        raise ValueError("need at least 2 replicate pairs")
    if q <= 0:
        raise ValueError("q must be positive")
    if max_lag < 0:
        raise ValueError(f"max_lag must be at least 0, got {max_lag}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be at least 0, got {burn_in}")


def _initial_states(model, rng: np.random.Generator, reps: int) -> np.ndarray:
    """Start states of ``reps`` chains: flip states, or ``bool`` Markov snapshots drawn
    from ``rng``."""
    if isinstance(model, FlipNetwork):
        return np.full(reps, model.initial, dtype=np.int8)
    if isinstance(model, MarkovEdgeNetwork):
        return np.stack([model.initial_state(rng) for _ in range(reps)])
    raise TypeError(f"unsupported network model {type(model).__name__}")


def estimate_delta_network(model: Union[MarkovEdgeNetwork, FlipNetwork], q: float,
                           max_lag: int, reps: int, seed=None,
                           burn_in: int = 200) -> CouplingRun:
    """Network-only coupling, vectorized across replicate pairs.

    All replicates share the stepping code: a common prehistory of
    ``burn_in`` steps, one redrawn uniform set at time 0, shared uniforms
    afterwards.  The networks are binary, so the max-entry difference is 0
    or 1 and the averaged q-th power is exactly the probability that the
    copies differ anywhere at that lag, independent of q.
    """
    _check_coupling(q, max_lag, reps, burn_in)
    rng = np.random.default_rng(seed)
    state = _initial_states(model, rng, reps)
    shape = state.shape
    powers = np.empty((reps, max_lag + 1))
    for t in range(-burn_in, max_lag + 1):
        u = rng.random(shape)
        if t == 0:  # the pair splits: one batch of two copies from here on
            u = np.stack([u, rng.random(shape)])
        state = model.step(state, u)
        if t >= 0:
            powers[:, t] = (state[0] != state[1]).reshape(reps, -1).any(axis=1)
    return _finalize(q, powers, reps)


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
    _check_coupling(q, max_lag, reps, burn_in)
    nar = spec.to_nar()
    d, p = nar.d, nar.p
    if innov.d != d:
        raise ValueError("innovation dimension does not match spec")
    if model.d != d:
        raise ValueError(f"the network has {model.d} vertices but the process has {d} components")
    rng = np.random.default_rng(seed)
    # network state is carried as bool matrices for the Markov model and as the
    # scalar flip state otherwise
    net = _initial_states(model, rng, reps)
    shape = net.shape
    # ``rows`` holds X_{t-p}..X_t and ``window`` the coefficient lists of
    # Ad_{t-p}..Ad_{t-1}, oldest first; before the start both are zero
    rows = np.zeros((p + 1, 1, reps, d))
    window = [[np.zeros((d, d))] * p] * p
    powers = np.empty((reps, max_lag + 1))
    # every step draws into ``draws[0]``, time 0 also into ``draws[1]``, and a
    # Markov network steps in place in the bool ``nets``: one copy before time 0,
    # two after
    draws = np.empty((2,) + shape)
    nets = np.empty((2,) + shape, dtype=bool) if isinstance(model, MarkovEdgeNetwork) else None
    for t in range(-burn_in, max_lag + 1):
        u = rng.random(out=draws[0])
        eps = innov.sample(rng, reps)
        if t == 0:
            u = draws
            rng.random(out=draws[1])
            eps = np.stack([eps, eps if mode == "network_only" else innov.sample(rng, reps)])
            rows = np.repeat(rows, 2, axis=1)
        if nets is None:
            net = model.step(net, u)
        else:
            net = model.step(net, u, out=nets if t >= 0 else nets[0])
        _run_recursion(rows, eps[None], list(zip(*window)), start=p)
        if t < max_lag:  # the last step's snapshot is read by no step
            mat = model.state_to_matrix(net) if isinstance(model, FlipNetwork) else net
            window = window[1:] + [_nar_coefficients(nar.A, nar.G, mat)]
        if t >= 0:
            powers[:, t] = np.abs(rows[p, 0] - rows[p, 1]).max(axis=1) ** q
        rows[:-1] = rows[1:]
    return _finalize(q, powers, reps)
