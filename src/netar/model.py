"""Model specifications and process simulation.

Two autoregressive families are supported.  The full network
autoregression of order p,

    X_t = sum_j (A_j * G_j(Ad_{t-j})) X_{t-j} + eps_t      (elementwise *)

and its per-component simplification with own-lag coefficients
``alpha[j, r]`` and a single pooled network coefficient ``beta[j, r]``
per lag.  Both reduce to an order-1 recursion on the stacked state via
the companion form, which is also used for the stationarity diagnostics
and the moving-average coefficient matrices.

One recursion: every path, forecast and coupled pair is stepped by the one
time loop ``_run_recursion``, each step ``_nar_step``, ``drive + sum_j C_j x_{t-j}``;
``_nar_coefficients`` alone builds ``C_j = A_j * G_j(Ad_{t-j})``, evaluating each distinct G once.
A simulation is one batch of R paths through one time loop, ``(T, R, d)`` rows,
its coefficients built one chunk of snapshots at a time
(``netdyn._steps_per_chunk``) from each path's own series, so no whole-path
coefficient or snapshot stack exists.  A list of R Generators as the seed,
with one network series each, returns ``(R, d, n)``; any other seed is one
path, R = 1, returned as ``(d, n)``.  Each path is bit for bit the one its
Generator and series give alone.
The per-component model runs on its embedding, built only by
:meth:`LnarSpec.to_nar`: lag-j coefficient ``A_j * (I + zero-diag G_j)``.

Array convention: a simulated path ``x`` has shape ``(d, n)`` and
``x[:, t]`` is modulated by the snapshot ``ads[t - j]`` at lag ``j``, so
series and network share one time axis (the network snapshot at array
index ``t`` sits between observations ``t`` and ``t + 1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .netdyn import (_WEIGHT_TOL, AdjacencySeries, NeighborhoodFn, _generator_batch,
                     _snapshots_per_chunk, _steps_per_chunk, apply_neighborhood_fn)

__all__ = [
    "NarSpec",
    "LnarSpec",
    "InnovationSpec",
    "build_companion",
    "check_stationarity_nar",
    "check_stationarity_lnar",
    "simulate_nar",
    "simulate_lnar",
    "simulate_gnlp_truncated",
    "ma_infinity_coeffs",
]

STATIONARITY_TOL = 1e-8


def _check_order(name: str, p, least: int) -> None:
    """The one lag-order rule: an integer, not a bool, of at least ``least``."""
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {p!r}")


def _require_finite(name: str, a: np.ndarray, at: str = "") -> None:
    """Raise a ValueError naming the first non-finite entry of ``a`` (1-based), after ``at``."""
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        entry = ", ".join(str(i + 1) for i in bad[0])
        raise ValueError(f"{name} must be finite; found {a[tuple(bad[0])]} at {at}entry ({entry})")


@dataclass(frozen=True)
class NarSpec:
    """Order-p network autoregression: coefficient matrices plus one G per lag."""

    p: int
    A: tuple
    G: tuple

    def __init__(self, p: int, A: Sequence, G: Sequence[NeighborhoodFn]):
        _check_order("p", p, 1)
        A = tuple(np.asarray(a, dtype=float) for a in A)
        G = tuple(G)
        if len(A) != p or len(G) != p:
            raise ValueError(f"need exactly p={p} coefficient matrices and neighborhood functions")
        d = A[0].shape[0]
        for j, a in enumerate(A, start=1):
            if a.shape != (d, d):
                raise ValueError("all coefficient matrices must be square of common dimension")
            _require_finite("A", a, f"lag {j}, ")
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "G", G)

    @property
    def d(self) -> int:
        return self.A[0].shape[0]

    def to_nar(self) -> "NarSpec":
        """The full model is its own embedding (see :meth:`LnarSpec.to_nar`)."""
        return self


@dataclass(frozen=True)
class LnarSpec:
    """Per-component network autoregression with d(2p+1) free parameters.

    ``alpha[j, r]`` weights the component's own lag, ``beta[j, r]`` the
    pooled network regressor ``e_r' G_j(Ad_{t-j}) X_{t-j}``.  The applied
    neighborhood output has its diagonal zeroed so the own lag is never
    double counted.
    """

    p: int
    alpha: np.ndarray
    beta: np.ndarray
    G: tuple

    def __init__(self, p: int, alpha, beta, G: Sequence[NeighborhoodFn]):
        _check_order("p", p, 0)
        alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
        beta = np.atleast_2d(np.asarray(beta, dtype=float))
        if alpha.shape != beta.shape or alpha.shape[0] != p:
            raise ValueError("alpha and beta must both have shape (p, d)")
        if len(G) != p:
            raise ValueError("need one neighborhood function per lag")
        for name, coef in (("alpha", alpha), ("beta", beta)):
            for j, row in enumerate(coef, start=1):
                _require_finite(name, row, f"lag {j}, ")
        object.__setattr__(self, "p", int(p))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "G", tuple(G))

    @property
    def d(self) -> int:
        return self.alpha.shape[1]

    @property
    def c_lambda(self) -> float:
        """max_r sum_j (|alpha_{j,r}| + |beta_{j,r}|), the stationarity constant."""
        return float((np.abs(self.alpha) + np.abs(self.beta)).sum(axis=0).max())

    def coefficient_matrix(self, j: int) -> np.ndarray:
        """Lag-j coefficient matrix of the embedding into the full model.

        Row r carries alpha on the diagonal and beta everywhere else.
        """
        d = self.d
        m = np.repeat(self.beta[j][:, None], d, axis=1)
        np.fill_diagonal(m, self.alpha[j])
        return m

    def to_nar(self) -> NarSpec:
        """Exact embedding, built only here: A_j rows (alpha, beta, ..), G'_j = I + zero-diag G_j."""
        A = [self.coefficient_matrix(j) for j in range(self.p)]
        G = [NeighborhoodFn.identity_plus(g) for g in self.G]
        return NarSpec(self.p, A, G)


def _sigma_from_any(sigma, d: int) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim == 1:
        if sigma.shape[0] != d:
            raise ValueError("diagonal sigma length must match mu")
        return np.diag(sigma)
    if sigma.shape != (d, d):
        raise ValueError("sigma must be (d, d) or a length-d diagonal")
    return sigma


class InnovationSpec:
    """Gaussian innovations with mean ``mu`` and covariance ``sigma``.

    The symmetric factor of sigma is computed once (a Cholesky failure
    reports the covariance as not positive definite).  Draws are made per
    time point and per component in a fixed row-major order, so paths are
    reproducible from the seed alone.
    """

    def __init__(self, mu, sigma):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        sigma = _sigma_from_any(sigma, mu.shape[0])
        _require_finite("mu", mu)
        _require_finite("sigma", sigma)
        if not np.allclose(sigma, sigma.T, atol=1e-10):
            raise ValueError("sigma must be symmetric")
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise ValueError("sigma is not positive definite") from exc
        self.mu = mu
        self.sigma = sigma
        self._chol = chol

    @property
    def d(self) -> int:
        return self.mu.shape[0]

    @staticmethod
    def standard(d: int) -> "InnovationSpec":
        return InnovationSpec(np.zeros(d), np.eye(d))

    @staticmethod
    def banded1(mu, main, off1, scale: float = 1.0) -> "InnovationSpec":
        """Tridiagonal covariance from its main and first off-diagonal."""
        main = np.asarray(main, dtype=float)
        off1 = np.asarray(off1, dtype=float)
        sigma = np.diag(main) + np.diag(off1, 1) + np.diag(off1, -1)
        return InnovationSpec(mu, scale * sigma)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """(n, d) innovation draws, one row per time point."""
        z = rng.standard_normal((n, self.d))
        return self.mu + z @ self._chol.T


def _companion(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Companion layout of lag blocks, each ``(..., d, d)``: the blocks in the
    first block row, identities on the sub-diagonal."""
    d, p = blocks[0].shape[-1], len(blocks)
    out = np.zeros(blocks[0].shape[:-2] + (d * p, d * p))
    for j, b in enumerate(blocks):
        out[..., :d, j * d:(j + 1) * d] = b
    for j in range(p - 1):
        out[..., (j + 1) * d:(j + 2) * d, j * d:(j + 1) * d] = np.eye(d)
    return out


def build_companion(spec: Union[NarSpec, LnarSpec]) -> np.ndarray:
    """The ``(dp, dp)`` companion matrix of the spec's embedding: its elementwise
    product with the stacked modulation matrix drives the ``(dp)``-dimensional
    recursion (:func:`_companion` of the :func:`_nar_coefficients` stacks)."""
    return _companion(spec.to_nar().A)


@dataclass(frozen=True)
class NarStationarity:
    holds: bool
    rho: float


@dataclass(frozen=True)
class LnarStationarity:
    holds: bool
    c_lambda: float
    certified: bool
    rho_bound: float
    failure: str = ""  # why the check fails, for an error message; empty when it holds


def check_stationarity_nar(spec: NarSpec) -> NarStationarity:
    """Spectral-radius check on the companion matrix of elementwise |A_j|.

    The modulation matrices have entries bounded by 1 in magnitude, so
    rho < 1 for the absolute-value companion guarantees a stationary
    causal solution regardless of the network.  The boundary counts as
    failure (strict inequality, by ``STATIONARITY_TOL``).
    """
    try:
        rho = float(np.abs(np.linalg.eigvals(np.abs(build_companion(spec)))).max())
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("eigenvalue solver failed on the companion matrix") from exc
    return NarStationarity(holds=bool(rho < 1.0 - STATIONARITY_TOL), rho=rho)


def check_stationarity_lnar(spec: LnarSpec,
                            ads: Optional[AdjacencySeries] = None) -> LnarStationarity:
    """The per-component model's stationarity rule: ``c_lambda < 1``, and
    ``||zero-diag G_j(Ad)||_inf <= 1`` for every G, certified a priori
    (:meth:`NeighborhoodFn.infty_norm_certified`) or, given the snapshots
    ``ads`` a path runs on, on them (lag j reads the first ``len(ads) - j``,
    one chunk of snapshots at a time).  Then ``rho_bound = c_lambda**(1/p)``
    bounds the spectral radius of the absolute stacked coefficient matrix;
    ``failure`` says why the rule fails.
    """
    c, why = spec.c_lambda, ""
    # the first lag that uses a G reads the widest window, covering the later ones
    for j, g in enumerate(spec.G, start=1):
        if why or g.infty_norm_certified() or g in spec.G[: j - 1]:
            continue
        why = f": G_{j} ({g.kind}) has no infinity-norm certificate"
        if ads is not None:
            mats, step, norm = ads.mats[: max(len(ads) - j, 0)], _snapshots_per_chunk(ads.d), 0.0
            for s in range(0, len(mats), step):
                zero_diag = apply_neighborhood_fn(g, mats[s: s + step])
                zero_diag[..., np.arange(ads.d), np.arange(ads.d)] = 0.0
                norm = max(norm, float(np.abs(zero_diag).sum(axis=-1).max()))
            reach = f" and reaches {norm:.6g} on the supplied network"
            why = why + reach if norm > 1.0 + _WEIGHT_TOL else ""
    failure = why if c < 1.0 else f" (c_lambda={c:.6f})"
    return LnarStationarity(holds=not failure, c_lambda=c, certified=not why,
                            rho_bound=float(c ** (1.0 / spec.p)), failure=failure)


def _check_network_cover(ads: AdjacencySeries, d: int, total: int, what: str) -> None:
    """Raise unless the network has ``d`` vertices and ``total`` snapshots or more."""
    if ads.d != d:
        raise ValueError(f"{what}: the network has {ads.d} vertices but the process has "
                         f"{d} components")
    if len(ads) < total:
        raise ValueError(
            f"{what}: network series too short, need at least {total} snapshots, got {len(ads)}"
        )


def _nar_step(drive: np.ndarray, coefs: Sequence[np.ndarray],
              lags: Sequence[np.ndarray]) -> np.ndarray:
    """One step of the recursion, ``drive + sum_j coefs[j] . lags[j]``.

    Batched over leading axes: ``coefs[j]`` is ``(..., d, d)`` and
    ``lags[j]`` and ``drive`` are ``(..., d)``.  Simulation, forecasting
    and the coupling estimator all contract through this one einsum, so
    they agree bit for bit.  Without lags the result is ``drive`` itself.
    """
    out = drive
    for c, x in zip(coefs, lags):
        out = out + np.einsum("...ij,...j->...i", c, x)
    return out


def _nar_coefficients(A: Sequence[np.ndarray], G: Sequence[NeighborhoodFn],
                      mats: np.ndarray) -> List[np.ndarray]:
    """Coefficient stacks ``A_j * G_j(mats)``, one per lag, over one snapshot stack.

    The only place that forms ``A_j * G_j``.  Each distinct G is evaluated
    once; the last lag that reads an evaluation scales it in place and
    earlier lags take a product, so no two stacks share memory.
    """
    last = {g: j for j, g in enumerate(G)}
    evaluated = {g: apply_neighborhood_fn(g, mats) for g in last}
    return [np.multiply(evaluated[g], a, out=evaluated[g] if last[g] == j else None)
            for j, (a, g) in enumerate(zip(A, G))]


def _run_recursion(rows: np.ndarray, drive: np.ndarray, coefs: Sequence[Sequence[np.ndarray]],
                   start: int = 0) -> np.ndarray:
    """Fill ``rows[start:]`` in place by the order-p recursion and return ``rows``.

    The one time loop of the model.  Time-major and batched: ``rows[t]`` is
    ``(..., d)`` and ``rows[t] = drive[t - start] + sum_j coefs[j-1][t-j] .
    rows[t-j]``, broadcast over the leading axes.  Lag j's coefficients are
    indexed by the time of their snapshot, which shares the axis of
    ``rows``, and lags before row 0 are zero.
    """
    p = len(coefs)
    for t in range(start, len(rows)):
        js = range(1, min(p, t) + 1)
        rows[t] = _nar_step(drive[t - start], [coefs[j - 1][t - j] for j in js],
                            [rows[t - j] for j in js])
    return rows


def _path_length(n: int, burn_in: int) -> int:
    """Steps a simulation runs, ``burn_in + n``; neither count may be negative."""
    if min(n, burn_in) < 0:
        raise ValueError(f"n and burn_in must be at least 0, got n={n}, burn_in={burn_in}")
    return burn_in + n


def _path_batch(ads, seed, what: str):
    """The network series of a simulation, its Generators (:func:`netdyn._generator_batch`)
    and whether they are a batch: ``[ads]`` for one path, or for a list of Generators as
    ``seed`` one series of ``ads`` per Generator."""
    rngs, batched = _generator_batch(seed)
    if not batched and isinstance(ads, (list, tuple)):
        raise ValueError(f"{what}: a list of network series needs a list of Generators as seed")
    if batched and (isinstance(ads, AdjacencySeries) or len(ads) != len(rngs)):
        raise ValueError(f"{what}: a list of {len(rngs)} Generators needs as many network series")
    return list(ads) if batched else [ads], rngs, batched


def _simulate(nar: NarSpec, ads, innov: InnovationSpec, n: int, burn_in: int, seed,
              check_finite: bool, what: str) -> np.ndarray:
    """The simulation core behind both families: a batch of R paths, one path being R = 1.

    Each path draws its whole innovations first, ``innov.sample`` from its own
    Generator, into one ``(total, R, d)`` buffer that the recursion then fills row by
    row in place (it reads drive row t just before it writes row t).  Lag j reads the
    snapshots s < total - j, all inside the first total - 1.  Their coefficients are
    built one chunk of ``_steps_per_chunk(d, R)`` snapshots at a time, gathered from
    every path's series, and the chunk's rows run as a window of ``_run_recursion``:
    a chunk ending at snapshot e - 1 completes row e, and its rows also read the last
    p - 1 snapshots before it, whose coefficients carry over.  With ``check_finite``
    each window is checked as it completes.  Returns ``(R, d, n)``, or ``(d, n)`` for
    a seed that is not a batch.
    """
    if innov.d != nar.d:
        raise ValueError("innovation dimension does not match spec")
    total = _path_length(n, burn_in)
    series, rngs, batched = _path_batch(ads, seed, what)
    for path in series:
        _check_network_cover(path, nar.d, total, what)
    rows = np.empty((total, len(rngs), nar.d))
    for k, rng in enumerate(rngs):
        rows[:, k] = innov.sample(rng, total)
    last, step = max(total - 1, 0), _steps_per_chunk(nar.d, len(rngs))
    lags, done = [[] for _ in range(nar.p)], 0
    for s in range(0, max(last, 1), step):  # a path of one row reads no snapshot but runs
        e, keep = min(s + step, last), min(s, nar.p - 1)
        mats = np.stack([path.mats[s:e] for path in series], axis=1)  # time-major, like rows
        lags = [c[len(c) - keep:] + list(new)
                for c, new in zip(lags, _nar_coefficients(nar.A, nar.G, mats))]
        # the window starts at the first carried snapshot's time, so lag j reads coefficient t - j
        _run_recursion(rows[s - keep: e + 1], rows[done: e + 1], lags, start=done - s + keep)
        if check_finite:
            finite = np.isfinite(rows[done: e + 1]).reshape(e + 1 - done, -1).all(axis=-1)
            if not finite.all():
                raise FloatingPointError(f"simulation became non-finite at step "
                                         f"{done + finite.argmin()}")
        done = e + 1
    out = np.ascontiguousarray(np.moveaxis(rows[burn_in:], 0, -1))
    return out if batched else out[0]


def simulate_nar(spec: NarSpec, ads, innov: InnovationSpec,
                 n: int, burn_in: int = 500, seed=None,
                 allow_explosive: bool = False) -> np.ndarray:
    """Simulate the full model by exact recursion; returns the last n columns.

    Pre-sample values are zero and washed out by the burn-in.  The network
    series must have the spec's vertex count and cover the whole run
    (``burn_in + n`` snapshots aligned to the output axis).  ``seed`` is
    anything :func:`numpy.random.default_rng` takes; a Generator is drawn
    from in place, so a network simulated from it just before shares one
    stream with the path.  A list of R Generators with a list of R network
    series ``ads`` simulates R paths in one time loop and returns them as
    ``(R, d, n)``, each path the one its Generator and series alone give.
    Raises for non-stationary specifications unless ``allow_explosive`` is
    set, in which case every step is checked for finiteness.
    """
    if not allow_explosive:
        st = check_stationarity_nar(spec)
        if not st.holds:
            raise ValueError(
                f"spec fails the stationarity check (rho={st.rho:.6f}); "
                "pass allow_explosive=True to override"
            )
    return _simulate(spec, ads, innov, n, burn_in, seed, allow_explosive, "simulate_nar")


def simulate_lnar(spec: LnarSpec, ads, innov: InnovationSpec,
                  n: int, burn_in: int = 500, seed=None,
                  allow_explosive: bool = False) -> np.ndarray:
    """Simulate the per-component model; same contract as :func:`simulate_nar`.

    The recursion runs on the full-model embedding :meth:`LnarSpec.to_nar`.
    The stationarity check is :func:`check_stationarity_lnar` on the
    ``burn_in + n`` snapshots each path runs on, so a G without an a-priori
    infinity-norm certificate is certified on them instead.
    """
    if not allow_explosive:
        for path in _path_batch(ads, seed, "simulate_lnar")[0]:
            st = check_stationarity_lnar(spec, AdjacencySeries._checked(
                path.mats[: max(burn_in + n, 0)]))
            if not st.holds:
                raise ValueError(f"spec fails the stationarity check{st.failure}; "
                                 "pass allow_explosive=True to override")
    return _simulate(spec.to_nar(), ads, innov, n, burn_in, seed, allow_explosive,
                     "simulate_lnar")


CoefficientFn = Union[NeighborhoodFn, Callable[..., np.ndarray], None]


def simulate_gnlp_truncated(coeff_fns: Sequence[CoefficientFn], ads: AdjacencySeries,
                            innov: InnovationSpec, n: int, seed=None,
                            burn_in: int = 0) -> np.ndarray:
    """Simulate a truncated network linear (moving-average) process.

    ``coeff_fns[j-1]`` produces the lag-j coefficient matrix; it may be a
    :class:`NeighborhoodFn` (applied to the lag-j snapshot), a callable
    receiving the float snapshots ``(Ad_{t-1}, ..., Ad_{t-j})`` newest first, or
    None for a zero lag.  ``seed`` is read as by :func:`simulate_nar`.  The
    result is exact for finite-order moving averages:

        X_t = sum_j f_j(Ad_{t-1}, ..., Ad_{t-j}) eps_{t-j} + eps_t.
    """
    total = _path_length(n, burn_in)
    _check_network_cover(ads, innov.d, total, "simulate_gnlp_truncated")
    eps = innov.sample(np.random.default_rng(seed), total)
    x = eps.copy()  # time-major, like eps
    for j, fn in enumerate(coeff_fns, start=1):
        if fn is None or j >= total:
            continue
        # lag j's coefficient at time t reads Ad_{t-j}, t = j..total-1
        if isinstance(fn, NeighborhoodFn):
            b = apply_neighborhood_fn(fn, ads.mats[: total - j])
        else:
            b = np.stack([np.asarray(fn(*np.asarray(ads.mats[t - j: t][::-1], dtype=float)),
                                     dtype=float) for t in range(j, total)])
        x[j:] = _nar_step(x[j:], [b], [eps[: total - j]])
    return np.ascontiguousarray(x.T)[:, burn_in:]


def ma_infinity_coeffs(spec: Union[NarSpec, LnarSpec], ads: AdjacencySeries, t: int,
                       J: int) -> List[np.ndarray]:
    """Moving-average coefficient matrices B_{t,0..J} of the causal solution.

    ``B_{t,j}`` is the top-left d x d block of the product of the first j
    stacked coefficient-modulation matrices along the path, so that
    ``X_t = sum_j B_{t,j} eps_{t-j}``.  ``B_{t,0}`` is the identity.  Each
    coefficient is verified against the spectral-norm envelope
    ``||B_{t,j}||_2 <= || |tilde_A|^j ||_2``.
    """
    if J < 0:
        raise ValueError("J must be nonnegative")
    nar = spec.to_nar()
    d, p = nar.d, nar.p
    if t - J - p + 1 < 0:
        raise ValueError("network series does not reach back far enough for the requested truncation")
    if t > len(ads):
        raise ValueError(f"network series ends before t={t}: it has {len(ads)} snapshots")
    # factor j of the stacked product reads Ad_{t-j-s+1} in lag s's block, which is
    # entry j+s-2 of the window Ad_{t-1}, Ad_{t-2}, ..., Ad_{t-J-p+1}
    lag_coefs = _nar_coefficients(nar.A, nar.G, ads.mats[t - J - p + 1: t][::-1])
    steps = _companion([c[s: s + J] for s, c in enumerate(lag_coefs)])
    coeffs = [np.eye(d)]
    prod = np.eye(d * p)
    abs_tilde = np.abs(build_companion(nar))
    abs_pow = np.eye(d * p)
    sel = np.zeros((d * p, d))
    sel[:d, :] = np.eye(d)
    for j in range(1, J + 1):
        prod = prod @ steps[j - 1]
        coeffs.append(sel.T @ prod @ sel)
        abs_pow = abs_pow @ abs_tilde
        lhs = np.linalg.norm(coeffs[-1], 2)
        rhs = np.linalg.norm(abs_pow, 2)
        if lhs > rhs + 1e-9:
            raise AssertionError(
                f"moving-average coefficient at lag {j} violates its norm envelope "
                f"({lhs:.3e} > {rhs:.3e})"
            )
    return coeffs
