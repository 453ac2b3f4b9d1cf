"""Component-wise least-squares estimation.

Each component r of the series is regressed on its active network
regressors: entry ``i + (j-1)d`` of the lagged regressor vector is
``(e_r' G_j(Ad_{t-j}) e_i) * x_{t-j;i}``, restricted to the index set of
regressors with positive observed modulation mass.  Coefficients outside
the index set are structural zeros.  The normal equations are solved in
centered form (algebraically identical to the raw block system, which is
kept in the test suite as an oracle) with an optional ridge jitter when
the Gram matrix is numerically singular.

The same solver backs the plain VAR benchmark (optionally with a
network-induced sparsity mask) and the per-component model, whose
regressor vector is the 2p-dimensional own-lag / pooled-network pair per
lag.  One builder, :func:`_equations`, gives every family's per-component
normal equations, with columns ordered by lag so that a lower order is a
leading block.  All VAR equations restrict one shared regression of the
lagged series: when its Gram is certified, each order is solved for every
equation from one inverse, and ``gram_cond`` reports that Gram's condition
number, which bounds every block's.  Two loops consume it: the fit loop
solves each full block and adds the plug-in asymptotic covariance, and BIC
order selection, which fits every candidate order on one common window,
solves each candidate's leading block for its residual sum of squares alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import log
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import LnarSpec, _check_network_cover
from .netdyn import AdjacencySeries, NeighborhoodFn, apply_neighborhood_fn

__all__ = [
    "IndexSet",
    "ComponentFit",
    "ModelFit",
    "EstimationError",
    "index_sets",
    "build_regressors",
    "fit_component_ls",
    "fit_nar",
    "fit_lnar",
    "fit_var",
    "select_order_bic",
    "eval_theorem2_bound",
    "Theorem2Bound",
]

RIDGE_SCALE = 1e-8
_COND_LIMIT = 1e12


class EstimationError(RuntimeError):
    """Least-squares failure carrying solver diagnostics."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class IndexSet:
    """Active flattened regressor indices for one component.

    Members use the 0-based flattening ``i + j*d`` for source component i
    at lag j+1; the serialized form is 1-based.
    """

    r: int
    members: tuple

    def __len__(self) -> int:
        return len(self.members)

    def one_based(self) -> List[int]:
        return [m + 1 for m in self.members]


@dataclass
class ComponentFit:
    """One component's fit.  ``gram_cond`` is the solved block's condition number,
    or, where a certificate skipped it, the certifying Gram's: finite, and a bound on it."""
    r: int
    index_set: IndexSet
    w: np.ndarray
    mu: float
    resid_var: float
    gamma_y0: np.ndarray
    asymp_cov: np.ndarray
    rss: float
    n_obs: int
    ridge_jitter: float = 0.0
    gram_cond: float = 1.0

    @property
    def std_errors(self) -> np.ndarray:
        """Plug-in standard errors of the coefficient estimates."""
        if self.asymp_cov.size == 0:
            return np.empty(0)
        return np.sqrt(np.clip(np.diag(self.asymp_cov), 0.0, None) / self.n_obs)


@dataclass
class ModelFit:
    family: str
    p: int
    d: int
    g: Optional[tuple]
    components: List[ComponentFit]
    errors: dict = field(default_factory=dict)

    def mu_hat(self) -> np.ndarray:
        """Intercept vector; components that failed to fit show up as nan."""
        mu = np.full(self.d, np.nan)
        for c in self.components:
            mu[c.r] = c.mu
        return mu

    def coefficient_matrices(self) -> List[np.ndarray]:
        """Lag coefficient matrices with structural zeros filled in.

        The per-component family's come from :meth:`LnarSpec.coefficient_matrix`.
        Rows of failed components are nan.
        """
        if self.family == "lnar":
            spec = LnarSpec(self.p, *self.alpha_beta(), self.g)
            return [spec.coefficient_matrix(j) for j in range(self.p)]
        mats = [np.zeros((self.d, self.d)) for _ in range(self.p)]
        for r in self.errors:
            for m in mats:
                m[r] = np.nan
        for c in self.components:
            for pos, flat in enumerate(c.index_set.members):
                i, j = flat % self.d, flat // self.d
                mats[j][c.r, i] = c.w[pos]
        return mats

    def alpha_beta(self):
        """(p, d) own-lag and network coefficients; failed components are nan."""
        if self.family != "lnar":
            raise ValueError("alpha/beta decomposition only exists for the per-component family")
        alpha = np.full((self.p, self.d), np.nan)
        beta = np.full((self.p, self.d), np.nan)
        for c in self.components:
            for j in range(self.p):
                alpha[j, c.r] = c.w[2 * j]
                beta[j, c.r] = c.w[2 * j + 1]
        return alpha, beta


def _finite_series(x) -> np.ndarray:
    """The series as a (d, n) float array; a non-finite entry is a ValueError."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        r, t = np.argwhere(~np.isfinite(x))[0]
        raise ValueError(f"series has a non-finite value {x[r, t]} at component {r}, time {t}")
    return x


def _resolve_t_start(p: int, t_start: Optional[int]) -> int:
    if t_start is None:
        return p
    if t_start < p:
        raise ValueError(f"t_start={t_start} must be at least the lag order p={p}")
    return t_start


def _lag_stacks(n: int, ads: AdjacencySeries, g_list, p: int, t_start: int) -> List[np.ndarray]:
    """Per-lag stacks of modulation matrices over the estimation window.

    ``stacks[j-1][row] = G_j(Ad_{t-j})`` for target time t = t_start + row,
    computed once and shared across components.  Each distinct G is
    evaluated once, on the snapshots t_start-p..n-2 that the lags read, and
    every lag that uses it is a view into that one stack.
    """
    if len(ads) < n - 1:
        raise ValueError(
            f"network series too short for the sample: need {n - 1} snapshots, got {len(ads)}"
        )
    lo = t_start - p
    evaluated = {g: apply_neighborhood_fn(g, ads.mats[lo: n - 1]) for g in dict.fromkeys(g_list)}
    return [evaluated[g][t_start - j - lo: n - j - lo] for j, g in enumerate(g_list, start=1)]


def index_sets(n: int, ads: AdjacencySeries, g_list: Sequence[NeighborhoodFn], p: int,
               t_start: Optional[int] = None,
               stacks: Optional[List[np.ndarray]] = None) -> List[IndexSet]:
    """Active regressor indices for every component at once."""
    t_start = _resolve_t_start(p, t_start)
    if stacks is None:
        stacks = _lag_stacks(n, ads, g_list, p, t_start)
    d = ads.d
    mass = [np.abs(s).sum(axis=0) for s in stacks]
    out = []
    for r in range(d):
        members = [i + j * d for j in range(p) for i in range(d) if mass[j][r, i] > 0.0]
        out.append(IndexSet(r=r, members=tuple(sorted(members))))
    return out


def build_regressors(x: np.ndarray, ads: AdjacencySeries, g_list: Sequence[NeighborhoodFn],
                     p: int, r: int, idx: IndexSet, t_start: Optional[int] = None,
                     stacks: Optional[List[np.ndarray]] = None):
    """Regressor matrix and target for one component of the full model.

    Row for time t holds ``(e_r' G_j(Ad_{t-j}) e_i) x_{t-j;i}`` at the
    positions listed in ``idx``; targets are ``x_{t;r}`` for
    t = t_start..n-1.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d, n = x.shape
    t_start = _resolve_t_start(p, t_start)
    m = n - t_start
    if m <= 0:
        raise ValueError("estimation window is empty")
    if stacks is None:
        stacks = _lag_stacks(n, ads, g_list, p, t_start)
    k = len(idx)
    Y = np.zeros((m, k))
    for col, flat in enumerate(idx.members):
        i, j0 = flat % d, flat // d
        j = j0 + 1
        Y[:, col] = stacks[j0][:, r, i] * x[i, t_start - j: n - j]
    return Y, x[r, t_start:]


def _lnar_design(x, ads, g_list, p, t_start):
    """Shared per-component design matrices.

    Columns 2(j-1) and 2(j-1)+1 of component r are its own lag x_{t-j;r}
    and its pooled network lag, entry r of zero-diagonal G_j(Ad_{t-j}) x_{t-j}.
    The pooled series is computed once per distinct G, over every snapshot
    the lags read, and each lag slices it.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d, n = x.shape
    t_start = _resolve_t_start(p, t_start)
    lo = t_start - p
    lagged = x[:, lo: n - 1].T[..., None]
    pooled = {g: np.matmul(apply_neighborhood_fn(g, ads.mats[lo: n - 1], zero_diag=True),
                           lagged)[..., 0].T
              for g in dict.fromkeys(g_list)}
    Y = np.empty((d, n - t_start, 2 * p))
    for j, g in enumerate(g_list, start=1):
        Y[:, :, 2 * (j - 1)] = x[:, t_start - j: n - j]
        Y[:, :, 2 * (j - 1) + 1] = pooled[g][:, t_start - j - lo: n - j - lo]
    return Y, x[:, t_start:]


class _Solution(NamedTuple):
    w: np.ndarray
    mu: float
    resid: np.ndarray  # centered residuals
    jitter: float
    cond: float  # condition number of the solved block, or of the Gram certifying it
    moments: Callable[[], Tuple[np.ndarray, np.ndarray]]  # gamma_y0 and its inverse


def _certified(gram: np.ndarray) -> Optional[float]:
    """The condition number of this Gram if no principal block can trigger the ridge, else None.

    By Cauchy interlacing the eigenvalues of a principal submatrix lie in
    [lambda_min, lambda_max] of the whole, so lambda_min > 0 and a condition
    number of at most half ``_COND_LIMIT`` (a factor 2 spare for rounding)
    certify every block and bound its condition number.  A failed
    eigensolve certifies nothing.
    """
    if gram.shape[0] == 0:
        return None
    try:
        eigs = np.linalg.eigvalsh((gram + gram.T) / 2.0)
    except np.linalg.LinAlgError:
        return None
    cond = float(eigs[-1] / eigs[0]) if eigs[0] > 0.0 else float("inf")
    return cond if cond <= _COND_LIMIT / 2.0 else None


def _solve_centered(gram: np.ndarray, cross: np.ndarray, r: int, m: int,
                    cond: Optional[float] = None):
    """Solve the centered normal equations ``gram w = cross`` of component r.

    A numerically singular Gram matrix (smallest eigenvalue not positive,
    or condition number above ``_COND_LIMIT``) gets a flagged ridge jitter
    of ``RIDGE_SCALE * trace / dim``; if the solve still fails the component
    errors out with diagnostics.  A ``cond`` from :func:`_certified` on a Gram
    holding this one as a principal block skips the check.  Returns w, the
    matrix solved (jitter included), the jitter and the condition number.
    """
    k = gram.shape[0]
    if k == 0:
        return np.empty(0), gram, 0.0, 1.0
    jitter = 0.0
    if cond is None:
        try:
            eigs = np.linalg.eigvalsh((gram + gram.T) / 2.0)
        except np.linalg.LinAlgError as exc:
            raise EstimationError(
                f"component {r}: eigenvalues of the Gram matrix did not converge",
                {"k": k, "n_obs": m, "finite": bool(np.isfinite(gram).all())},
            ) from exc
        ratio = eigs[-1] / max(eigs[0], 1e-300)
        cond = float(ratio) if eigs[-1] > 0 else float("inf")
        if eigs[0] <= 0.0 or ratio > _COND_LIMIT:
            jitter = RIDGE_SCALE * float(np.trace(gram)) / k
            if jitter <= 0.0:
                jitter = RIDGE_SCALE
            gram = gram + jitter * np.eye(k)
    try:
        w = np.linalg.solve(gram, cross)
    except np.linalg.LinAlgError:
        jitter += RIDGE_SCALE * max(float(np.trace(gram)) / k, 1.0)
        gram = gram + jitter * np.eye(k)
        try:
            w = np.linalg.solve(gram, cross)
        except np.linalg.LinAlgError as exc:
            raise EstimationError(
                f"component {r}: Gram matrix singular even after ridge jitter",
                {"trace": float(np.trace(gram)), "k": k, "n_obs": m},
            ) from exc
    if not np.isfinite(w).all():
        raise EstimationError(
            f"component {r}: non-finite least-squares solution",
            {"k": k, "n_obs": m},
        )
    return w, gram, jitter, cond


class _Equations(NamedTuple):
    """Centered normal equations of one component.

    Column c holds regressor ``members[c]`` (a flat index; for LNAR a
    position in the own/pooled pairs) of lag ``lags[c] + 1``.  Lags never
    decrease, so order p is the leading block of the first
    ``k = searchsorted(lags, p)`` columns, and ``solve(p, k)`` solves it,
    skipping the ridge guard where a :func:`_certified` Gram covers every block.
    """
    r: int
    members: tuple
    lags: np.ndarray
    solve: Callable[[int, int], _Solution]


def _block_equations(r: int, members: tuple, lags: np.ndarray, gram: np.ndarray,
                     cross: np.ndarray, m: int, cond: Optional[float], fitted) -> _Equations:
    """Leading blocks of ``gram``; ``fitted(w)`` gives the intercept and residuals."""

    def solve(p, k):
        w, solved, jitter, c = _solve_centered(gram[:k, :k], cross[:k], r, m, cond)
        return _Solution(w, *fitted(w), jitter, c, lambda: (solved / m, np.linalg.inv(solved / m)))

    return _Equations(r, members, lags, solve)


def _own_equations(r: int, members: tuple, lags: np.ndarray, Y: np.ndarray,
                   y: np.ndarray) -> _Equations:
    """Equations of a component with its own design ``Y`` and target ``y``,
    certified by their own Gram."""
    ybar = float(y.mean())
    Ybar = Y.mean(axis=0)
    Yc = Y - Ybar
    yc = y - ybar
    gram = Yc.T @ Yc
    return _block_equations(r, members, lags, gram, Yc.T @ yc, y.size, _certified(gram),
                            lambda w: (ybar - float(w @ Ybar[:w.size]), yc - Yc[:, :w.size] @ w))


def _var_equations(x: np.ndarray, p: int, t_start: int, mask: Optional[np.ndarray]):
    """Equations of every VAR equation, restrictions of one shared regression.

    Column ``(j-1)d + i`` of the lagged design holds ``x_{t-j;i}``.  If the
    Gram ``lc'lc`` is certified, order q inverts its leading block G once:
    ``W = G^-1 lc'tc`` solves every equation unmasked, the mask's removed
    columns S give the restricted-least-squares correction ``W_r - G^-1[:, S]
    (G^-1[S, S])^-1 W_r[S]``, one product gives all residuals and the block-
    inverse identity the covariance.  Otherwise each equation solves its
    block ``gram[mem, mem]`` with the ridge guard.
    """
    d, n = x.shape
    if mask is not None and mask.shape != (d, d * p):
        raise ValueError(f"mask must have shape {(d, d * p)}, got {mask.shape}")
    if mask is not None and not ((mask == 0) | (mask == 1)).all():
        r, c = np.argwhere(~((mask == 0) | (mask == 1)))[0]
        raise ValueError(f"mask entry ({r}, {c}) is {mask[r, c]}, not 0 or 1")
    m = n - t_start
    lagged = np.empty((m, d * p))
    for j in range(1, p + 1):
        lagged[:, (j - 1) * d: j * d] = x[:, t_start - j: n - j].T
    lbar = lagged.mean(axis=0)
    tbar = x[:, t_start:].mean(axis=1)
    lc = lagged - lbar
    tc = x[:, t_start:].T - tbar
    gram, cross = lc.T @ lc, lc.T @ tc
    cut = np.zeros((d, d * p), dtype=bool) if mask is None else mask == 0
    cond = _certified(gram)

    @lru_cache(maxsize=None)
    def order(kp):
        ginv = np.linalg.inv(gram[:kp, :kp])
        coef = ginv @ cross[:kp]
        for r in np.flatnonzero(cut[:, :kp].any(axis=1)):
            s = np.flatnonzero(cut[r, :kp])
            coef[:, r] -= ginv[:, s] @ np.linalg.solve(ginv[s[:, None], s], coef[s, r])
            coef[s, r] = 0.0
        return ginv, coef, tc - lc[:, :kp] @ coef

    for r in range(d):
        mem = np.flatnonzero(~cut[r])
        if cond is None:
            def fitted(w, r=r, mem=mem):
                coef = np.zeros(d * p)
                coef[mem[: w.size]] = w
                return float(tbar[r]) - float(w @ lbar[mem[: w.size]]), tc[:, r] - lc @ coef

            yield _block_equations(r, tuple(mem.tolist()), mem // d, gram[np.ix_(mem, mem)],
                                   cross[mem, r], m, None, fitted)
            continue

        def solve(q, k, r=r, mem=mem):
            ginv, coef, resid = order(d * q)
            f, s = mem[:k], np.flatnonzero(cut[r, : d * q])
            w = coef[f, r]

            def moments():
                g_fs = ginv[f[:, None], s]
                inner = g_fs @ np.linalg.solve(ginv[s[:, None], s], g_fs.T) if s.size else 0.0
                return gram[f[:, None], f] / m, m * (ginv[f[:, None], f] - inner)

            return _Solution(w, float(tbar[r] - w @ lbar[f]), resid[:, r], 0.0, cond, moments)

        yield _Equations(r, tuple(mem.tolist()), mem // d, solve)


def _equations(family: str, x: np.ndarray, ads: Optional[AdjacencySeries], g_list,
               p: int, t_start: int, mask: Optional[np.ndarray]):
    """The normal equations of every component, one at a time.

    This is the one place that knows how each family builds its
    regressors; the fit loop and the order-selection loop consume it alike.
    """
    d, n = x.shape
    if family != "var" and ads is None:
        raise ValueError(f"family {family!r} needs the network series ads")
    if family != "var" and (g_list is None or any(g is None for g in g_list)):
        raise ValueError(f"family {family!r} needs the neighborhood function g")
    if family != "var":
        _check_network_cover(ads, d, n - 1, f"{family} fit")
    if n - t_start <= 0:
        raise ValueError("estimation window is empty")
    if family == "var":
        yield from _var_equations(x, p, t_start, mask)
    elif family == "lnar":
        design, targets = _lnar_design(x, ads, g_list, p, t_start)
        lags = np.arange(2 * p) // 2
        for r in range(d):
            yield _own_equations(r, tuple(range(2 * p)), lags, design[r], targets[r])
    else:
        stacks = _lag_stacks(n, ads, g_list, p, t_start)
        sets = index_sets(n, ads, g_list, p, t_start, stacks=stacks)
        for r, idx in enumerate(sets):
            Y, y = build_regressors(x, ads, g_list, p, r, idx, t_start, stacks=stacks)
            yield _own_equations(r, idx.members, np.array(idx.members, dtype=int) // d, Y, y)


def _fit_component(eq: _Equations, p: int, m: int) -> ComponentFit:
    """A returned fit on the full order-p block: residual variance and the
    plug-in asymptotic covariance ``resid_var * (gram / m)^{-1}``."""
    k = len(eq.members)
    if m < k + 1:
        raise EstimationError(
            f"component {eq.r}: {m} observations cannot identify {k} coefficients plus intercept",
            {"n_obs": m, "k": k},
        )
    sol = eq.solve(p, k)
    rss = float(sol.resid @ sol.resid)
    dof = m - k - 1
    resid_var = rss / dof if dof > 0 else float("nan")
    try:
        gamma_y0, gamma_inv = sol.moments()
    except np.linalg.LinAlgError as exc:
        raise EstimationError(
            f"component {eq.r}: Gram matrix not invertible for the asymptotic covariance",
            {"k": k, "n_obs": m, "ridge_jitter": sol.jitter},
        ) from exc
    return ComponentFit(
        r=eq.r, index_set=IndexSet(r=eq.r, members=eq.members), w=sol.w, mu=sol.mu,
        resid_var=resid_var, gamma_y0=gamma_y0, asymp_cov=resid_var * gamma_inv, rss=rss,
        n_obs=m, ridge_jitter=sol.jitter, gram_cond=sol.cond,
    )


def fit_component_ls(y: np.ndarray, Y: np.ndarray, r: int,
                     idx: Optional[IndexSet] = None) -> ComponentFit:
    """Exact least squares with intercept via centered normal equations.

    Solves Gram * w = cross with Gram = sum (Y - Ybar)(Y - Ybar)' and
    cross = sum (Y - Ybar)(y - ybar), then mu = ybar - w'Ybar.  A
    numerically singular Gram matrix gets a flagged ridge jitter of
    ``RIDGE_SCALE * trace / dim``; if that still fails the component
    errors out with diagnostics.  This is the one-component case of the
    fit loop behind :func:`fit_nar`, :func:`fit_lnar` and :func:`fit_var`.
    """
    y = np.asarray(y, dtype=float)
    Y = np.asarray(Y, dtype=float)
    m, k = Y.shape if Y.ndim == 2 else (Y.shape[0], 0)
    if m != y.shape[0]:
        raise ValueError("regressor/target length mismatch")
    if Y.ndim != 2:
        Y = np.empty((m, 0))
    members = tuple(range(k)) if idx is None else idx.members
    if len(members) != k:
        raise ValueError(f"index set has {len(members)} members but Y has {k} columns")
    # one block: the columns carry no lag order
    return _fit_component(_own_equations(r, members, np.zeros(k, dtype=int), Y, y), 1, m)


def _fit(family: str, x, ads, g_list, p: int, t_start: Optional[int],
         mask: Optional[np.ndarray], allow_partial: bool) -> ModelFit:
    """The one fit loop: every component solves its full block."""
    x = _finite_series(x)
    d, n = x.shape
    if g_list is not None and len(g_list) != p:
        raise ValueError("need one neighborhood function per lag")
    t_start = _resolve_t_start(p, t_start)
    comps: List[ComponentFit] = []
    errors = {}
    for eq in _equations(family, x, ads, g_list, p, t_start, mask):
        try:
            comps.append(_fit_component(eq, p, n - t_start))
        except EstimationError as exc:
            if not allow_partial:
                raise
            errors[eq.r] = str(exc)
    return ModelFit(family=family, p=p, d=d, g=None if g_list is None else tuple(g_list),
                    components=comps, errors=errors)


def fit_nar(x: np.ndarray, ads: AdjacencySeries, g_list: Sequence[NeighborhoodFn], p: int,
            t_start: Optional[int] = None, allow_partial: bool = False) -> ModelFit:
    """Component-wise fit of the full model over the observed index sets."""
    return _fit("nar", x, ads, g_list, p, t_start, None, allow_partial)


def fit_lnar(x: np.ndarray, ads: AdjacencySeries, g_list: Sequence[NeighborhoodFn], p: int,
             t_start: Optional[int] = None, allow_partial: bool = False) -> ModelFit:
    """Component-wise fit of the per-component model: own and pooled lags."""
    return _fit("lnar", x, ads, g_list, p, t_start, None, allow_partial)


def fit_var(x: np.ndarray, p: int, mask: Optional[np.ndarray] = None,
            t_start: Optional[int] = None, allow_partial: bool = False) -> ModelFit:
    """Per-equation VAR least squares, optionally sparsity-masked.

    ``mask`` is a binary (d, d*p) matrix; a zero entry pins the matching
    coefficient to zero (used for network-induced sparsity).  No mask is
    the unrestricted VAR; an all-zero row yields an intercept-only
    equation whose forecast is the sample mean.  Every equation restricts
    one shared set of normal equations (see :func:`_var_equations`).
    """
    mask = None if mask is None else np.asarray(mask)
    return _fit("var", x, None, None, p, t_start, mask, allow_partial)


@dataclass
class OrderSelection:
    p: int
    table: dict


def select_order_bic(x: np.ndarray, ads: Optional[AdjacencySeries] = None,
                     g: Optional[NeighborhoodFn] = None, p_max: int = 3,
                     family: str = "nar", mask: Optional[np.ndarray] = None) -> OrderSelection:
    """Order selection on a common estimation window.

    Every candidate order is fitted on the targets t = p_max..n-1 so the
    criteria compare identical observations.  BIC(p) sums per component
    ``m ln(RSS_r / m) + k_r ln m`` with m the common window length and
    k_r the coefficient count including the intercept.  Ties resolve to
    the smaller order.  There is no order-0 candidate; white noise shows
    up as order 1 with near-zero coefficients.

    The order-p regressors of a component are the leading columns of its
    order-p_max regressors (for VAR, the leading columns of its mask), so
    the p_max normal equations are built once and each candidate solves
    their leading block.  Candidates compute no covariance; the ridge
    guard is skipped when the certifying Gram certifies every block (see
    :func:`_certified`).  A candidate whose fit (near-)interpolates, which
    the criterion would reward blindly, or fails is dropped.
    """
    x = _finite_series(x)
    d, n = x.shape
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    if family not in ("nar", "lnar", "var"):
        raise ValueError(f"unknown family {family!r}")
    if family == "var" and mask is not None:
        mask = np.asarray(mask)
        if mask.shape != (d, d * p_max):
            raise ValueError(
                f"mask must have shape (d, d*p_max) = {(d, d * p_max)}, got {mask.shape}"
            )
    m = n - p_max
    orders = np.arange(1, p_max + 1)
    k = np.zeros((p_max, d), dtype=int)
    rss = [np.empty(d) for _ in orders]  # None drops the order
    for eq in _equations(family, x, ads, [g] * p_max, p_max, p_max, mask):
        if all(v is None for v in rss):
            break
        k[:, eq.r] = np.searchsorted(eq.lags, orders)
        for i, kp in enumerate(k[:, eq.r]):
            if rss[i] is None:
                continue
            if m - (kp + 1) < 5:
                rss[i] = None
                continue
            try:
                resid = eq.solve(i + 1, kp).resid
            except EstimationError:
                rss[i] = None
                continue
            rss[i][eq.r] = resid @ resid
    table = {}
    best_p, best_val = None, None
    for p in range(1, p_max + 1):
        if rss[p - 1] is None:
            table[p] = float("inf")
            continue
        val = 0.0
        for r in range(d):
            val += m * log(max(float(rss[p - 1][r]) / m, 1e-300)) + int(k[p - 1, r] + 1) * log(m)
        table[p] = val
        if best_val is None or val < best_val - 1e-12:
            best_p, best_val = p, val
    if best_p is None:
        raise EstimationError("no candidate order is identifiable on this sample")
    return OrderSelection(p=best_p, table=table)


@dataclass
class Theorem2Bound:
    w_bound: float
    mu_bound: float
    prob_lower: float
    feasible: bool


def eval_theorem2_bound(y: float, q: float, p: int, constants: dict, n: int) -> Theorem2Bound:
    """Plug-in evaluation of the nonasymptotic coefficient error bounds.

    ``constants`` supplies the model constants (keys ``c_lambda``,
    ``c_a``, ``c_delta_y``, ``rho_gamma_inv``, ``mu_y_norm``,
    ``eps_norm``, ``mu_r``) and the tail constants ``c_q``/``c_q_prime``,
    which the theory leaves unspecified.  Returns an infeasible marker
    when the denominator is not positive.  The probability lower bound is
    floored at zero (a negative value is vacuous).
    """
    c_lam = constants["c_lambda"]
    c_a = constants["c_a"]
    c_dy = constants["c_delta_y"]
    rho_inv = constants["rho_gamma_inv"]
    mu_y = constants["mu_y_norm"]
    eps_norm = constants["eps_norm"]
    mu_r = constants["mu_r"]
    c_q = constants.get("c_q", 1.0)
    c_qp = constants.get("c_q_prime", 1.0)
    if not 0.0 < c_lam < 1.0:
        raise ValueError("c_lambda must lie in (0, 1)")
    if y == 0.0:
        return Theorem2Bound(w_bound=0.0, mu_bound=0.0, prob_lower=0.0, feasible=True)
    denom = rho_inv - y * 2.0 * p * c_dy * (2.0 * c_a / (1.0 - c_lam) + 2.0 * mu_y + y * c_dy)
    if denom <= 0.0:
        return Theorem2Bound(w_bound=float("inf"), mu_bound=float("inf"),
                             prob_lower=0.0, feasible=False)
    w_bound = y * np.sqrt(2.0 * p) * c_dy * (eps_norm + c_dy * y + mu_r + mu_y) / denom
    mu_bound = (mu_y + y * c_dy) * w_bound + y * c_dy
    m = n - p
    cq_val = 1.0 - c_q * m ** (1.0 - q) * y ** (-q) - (c_qp + 2.0) * np.exp(-c_q * m * y * y)
    prob_lower = float(max(cq_val, 0.0) ** 4)
    return Theorem2Bound(w_bound=float(w_bound), mu_bound=float(mu_bound),
                         prob_lower=prob_lower, feasible=True)
