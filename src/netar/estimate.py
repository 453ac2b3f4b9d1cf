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
number, which bounds every block's; otherwise each equation is fitted on
its own lagged columns, as :func:`fit_component_ls` fits them.  Two loops
consume it: the fit loop solves each full block and adds the plug-in
asymptotic covariance, and BIC order selection, which fits every candidate
order on one common window, solves each candidate's leading block for its
residual sum of squares alone.  Network regressors read what the
:class:`AdjacencySeries` keeps of each distinct G from one chunked pass over
its snapshots: NAR the evaluations, LNAR the pooled series and the masked VAR
the support, so every fit on a series, BIC selection included, shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from math import inf, log
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import LnarSpec, _check_network_cover, _check_order
from .netdyn import AdjacencySeries, NeighborhoodFn

__all__ = [
    "ComponentFit",
    "ModelFit",
    "EstimationError",
    "fit_component_ls",
    "fit_nar",
    "fit_lnar",
    "fit_var",
    "select_order_bic",
]

FAMILIES = ("nar", "lnar", "var")
RIDGE_SCALE = 1e-8
_COND_LIMIT = 1e12


def _check_family(family) -> None:
    if family not in FAMILIES:
        raise ValueError(f"family {family!r} is not one of {', '.join(FAMILIES)}")


class EstimationError(RuntimeError):
    """Least-squares failure carrying solver diagnostics."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _floats(name: str, key: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a float array of ``shape``, or a ValueError naming the field."""
    try:
        return np.asarray(value, dtype=float).reshape(shape)
    except (TypeError, ValueError):
        what = {0: "a number", 1: "a list of numbers"}.get(len(shape), " x ".join(map(str, shape)))
        raise ValueError(f"{name} has a {key} that is not {what}") from None


@dataclass
class ComponentFit:
    """One component's fit: ``w`` holds the coefficients of its active regressors
    ``members``, 0-based flat indices ``i + j*d`` of source i at lag j+1 (for lnar,
    the own/pooled lag positions 0..2p-1).  ``gram_cond`` is the solved block's
    condition number, or, where a certificate skipped it, the certifying Gram's.
    The constructor checks the component's own rules, naming it 1-based as files do;
    ``resid_var`` and ``asymp_cov`` may be NaN, with no residual degree of freedom."""
    r: int
    members: tuple
    w: np.ndarray
    mu: float
    resid_var: float
    gamma_y0: np.ndarray
    asymp_cov: np.ndarray
    rss: float
    n_obs: int
    ridge_jitter: float = 0.0
    gram_cond: float = 1.0

    def __post_init__(self):
        name = f"component {self.r + 1}"
        _check_order(f"{name}'s n_obs", self.n_obs, 1)
        self.members = tuple(self.members)
        k = len(self.members)
        self.w = _floats(name, "w", self.w, (-1,))
        if self.w.size != k:
            raise ValueError(f"{name} has {self.w.size} coefficients w for {k} indices in its index_set")
        for key in ("gamma_y0", "asymp_cov"):
            setattr(self, key, _floats(name, key, getattr(self, key), (k, k)))
        for key in ("mu", "resid_var", "rss", "ridge_jitter", "gram_cond"):
            setattr(self, key, float(_floats(name, key, getattr(self, key), ())))
        for key in ("w", "mu"):
            if not np.isfinite(getattr(self, key)).all():
                raise ValueError(f"{name} has a non-finite {key}")

    @property
    def std_errors(self) -> np.ndarray:
        """Plug-in standard errors of the coefficient estimates."""
        if self.asymp_cov.size == 0:
            return np.empty(0)
        return np.sqrt(np.clip(np.diag(self.asymp_cov), 0.0, None) / self.n_obs)


@dataclass
class ModelFit:
    """A whole fit, as the constructor checks: family nar, lnar or var; integers p, d >= 0;
    p neighborhood functions in g, or None for var; components r = 0..d-1 once each, in
    order, their indices in 0..dp-1, and for lnar exactly 0..2p-1."""
    family: str
    p: int
    d: int
    g: Optional[tuple]
    components: List[ComponentFit]

    def __post_init__(self):
        _check_family(self.family)
        _check_order("p", self.p, 0)
        _check_order("d", self.d, 0)
        if self.family == "var" and self.g is not None:
            raise ValueError(f"g must be None for a var fit, got {self.g!r}")
        if self.family != "var" and (self.g is None or len(self.g) != self.p):
            raise ValueError(f"g must hold p={self.p} neighborhood functions for a {self.family} "
                             f"fit, got {'None' if self.g is None else len(self.g)}")
        for want, got in zip_longest(range(self.d), [c.r for c in self.components]):
            if got != want or not isinstance(got, (int, np.integer)):
                raise ValueError(f"component {(got if want is None else want) + 1} is missing, "
                                 "repeated or out of place; a fit holds components "
                                 f"1..{self.d} once each, in order")
        width = 2 * self.p if self.family == "lnar" else self.d * self.p
        for c in self.components:
            bad = [m for m in c.members
                   if not isinstance(m, (int, np.integer)) or m not in range(width)]
            if bad:
                raise ValueError(f"component {c.r + 1} has index {bad[0] + 1}, not an integer "
                                 f"in 1..{width}")
            if self.family == "lnar" and c.members != tuple(range(width)):
                raise ValueError(f"component {c.r + 1}'s lnar index_set is not 1..{width}")

    def mu_hat(self) -> np.ndarray:
        """Intercept vector."""
        return np.array([c.mu for c in self.components])

    def coefficient_matrices(self) -> List[np.ndarray]:
        """Lag coefficient matrices with structural zeros filled in.

        The per-component family's come from :meth:`LnarSpec.coefficient_matrix`.
        """
        if self.family == "lnar":
            spec = LnarSpec(self.p, *self.alpha_beta(), self.g)
            return [spec.coefficient_matrix(j) for j in range(self.p)]
        mats = [np.zeros((self.d, self.d)) for _ in range(self.p)]
        for c in self.components:
            for pos, flat in enumerate(c.members):
                i, j = flat % self.d, flat // self.d
                mats[j][c.r, i] = c.w[pos]
        return mats

    def alpha_beta(self):
        """(p, d) own-lag and network coefficients."""
        if self.family != "lnar":
            raise ValueError("alpha/beta decomposition only exists for the per-component family")
        w = np.array([c.w for c in self.components])
        return w[:, 0::2].T, w[:, 1::2].T


def _finite_series(x) -> np.ndarray:
    """The series as a (d, n) float array; a non-finite entry is a ValueError."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        r, t = np.argwhere(~np.isfinite(x))[0]
        raise ValueError(f"series has a non-finite value {x[r, t]} at component {r}, time {t}")
    return x


def _nar_design(x: np.ndarray, ads: AdjacencySeries, g_list, p: int):
    """Active indices and design of each component of the full model, for targets t = p..n-1.

    Row t - p of component r's design holds ``(e_r' G_j(Ad_{t-j}) e_i) x_{t-j;i}`` at
    the flat indices ``i + (j-1)d`` with positive modulation mass.  Each lag slices
    its G's evaluation on the snapshots 0..n-2, which the series keeps and it only reads.
    """
    d, n = x.shape
    stacks = [ads._g_parts(g, x, ["stack"])["stack"][p - j: n - j]
              for j, g in enumerate(g_list, start=1)]
    mass = [np.abs(s).sum(axis=0) for s in stacks]
    for r in range(d):
        members = [i + j * d for j in range(p) for i in range(d) if mass[j][r, i] > 0.0]
        Y = np.empty((n - p, len(members)))
        for col, flat in enumerate(members):
            i, j = flat % d, flat // d + 1
            Y[:, col] = stacks[j - 1][:, r, i] * x[i, p - j: n - j]
        yield tuple(members), Y


def _lnar_design(x, ads, g_list, p):
    """Shared per-component design matrices and targets t = p..n-1.

    Columns 2(j-1) and 2(j-1)+1 of component r are its own lag x_{t-j;r}
    and its pooled network lag, entry r of zero-diagonal G_j(Ad_{t-j}) x_{t-j}.
    Each lag slices its G's pooled series, which the series keeps.
    """
    d, n = x.shape
    Y = np.empty((d, n - p, 2 * p))
    for j, g in enumerate(g_list, start=1):
        Y[:, :, 2 * (j - 1)] = x[:, p - j: n - j]
        Y[:, :, 2 * (j - 1) + 1] = ads._g_parts(g, x, ["pooled"])["pooled"][:, p - j: n - j]
    return Y, x[:, p:]


class _Solution(NamedTuple):
    w: np.ndarray
    mu: float
    resid: np.ndarray  # centered residuals
    jitter: float
    cond: float  # condition number of the solved block, or of the Gram certifying it
    moments: Callable[[], Tuple[np.ndarray, np.ndarray]]  # gamma_y0 and its inverse


def _condition(gram: np.ndarray) -> float:
    """The condition number of a Gram matrix, inf unless it is positive definite."""
    eigs = np.linalg.eigvalsh((gram + gram.T) / 2.0)
    return float(eigs[-1] / eigs[0]) if eigs[0] > 0.0 else inf


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
        cond = _condition(gram)
    except np.linalg.LinAlgError:
        return None
    return cond if cond <= _COND_LIMIT / 2.0 else None


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


def _own_equations(r: int, members: tuple, lags: np.ndarray, Y: np.ndarray,
                   y: np.ndarray) -> _Equations:
    """Equations of a component with its own design ``Y`` and target ``y``; every
    guarded per-equation solve is built here.

    A leading block of the centered Gram that is numerically singular
    (condition number above ``_COND_LIMIT``, or inf when it is not positive
    definite) gets a flagged ridge jitter of ``RIDGE_SCALE * trace / k``; if
    the solve still fails the component errors out with diagnostics.  A
    certificate of the whole Gram skips the check for every block.
    """
    ybar, Ybar = float(y.mean()), Y.mean(axis=0)
    Yc, yc = Y - Ybar, y - ybar
    gram, cross, m = Yc.T @ Yc, Yc.T @ yc, y.size
    certified = _certified(gram)

    def solve(p, k):
        block, jitter, cond = gram[:k, :k], 0.0, (1.0 if k == 0 else certified)
        if cond is None:
            try:
                cond = _condition(block)
            except np.linalg.LinAlgError as exc:
                raise EstimationError(
                    f"component {r}: eigenvalues of the Gram matrix did not converge",
                    {"k": k, "n_obs": m, "finite": bool(np.isfinite(block).all())},
                ) from exc
            if cond > _COND_LIMIT:
                jitter = RIDGE_SCALE * float(np.trace(block)) / k
                if jitter <= 0.0:
                    jitter = RIDGE_SCALE
                block = block + jitter * np.eye(k)
        try:
            w = np.linalg.solve(block, cross[:k])
        except np.linalg.LinAlgError:
            jitter += RIDGE_SCALE * max(float(np.trace(block)) / k, 1.0)
            block = block + jitter * np.eye(k)
            try:
                w = np.linalg.solve(block, cross[:k])
            except np.linalg.LinAlgError as exc:
                raise EstimationError(
                    f"component {r}: Gram matrix singular even after ridge jitter",
                    {"trace": float(np.trace(block)), "k": k, "n_obs": m},
                ) from exc
        if not np.isfinite(w).all():
            raise EstimationError(
                f"component {r}: non-finite least-squares solution",
                {"k": k, "n_obs": m},
            )
        return _Solution(w, ybar - float(w @ Ybar[:k]), yc - Yc[:, :k] @ w, jitter, cond,
                         lambda: (block / m, np.linalg.inv(block / m)))

    return _Equations(r, members, lags, solve)


def _var_equations(x: np.ndarray, p: int, mask: Optional[np.ndarray]):
    """Equations of every VAR equation, restrictions of one shared regression.

    Column ``(j-1)d + i`` of the lagged design holds ``x_{t-j;i}``.  If the
    Gram ``lc'lc`` is certified, order q inverts its leading block G once:
    ``W = G^-1 lc'tc`` solves every equation unmasked, the mask's removed
    columns S give the restricted-least-squares correction ``W_r - G^-1[:, S]
    (G^-1[S, S])^-1 W_r[S]``, one product gives all residuals and the block-
    inverse identity the covariance.  Otherwise each equation is fitted on
    its own lagged columns by :func:`_own_equations`, as
    :func:`fit_component_ls` fits them.
    """
    d, n = x.shape
    mask = None if mask is None else np.asarray(mask)
    if mask is not None and mask.shape != (d, d * p):
        raise ValueError(f"mask must have shape {(d, d * p)}, got {mask.shape}")
    if mask is not None and not ((mask == 0) | (mask == 1)).all():
        r, c = np.argwhere(~((mask == 0) | (mask == 1)))[0]
        raise ValueError(f"mask entry ({r}, {c}) is {mask[r, c]}, not 0 or 1")
    m = n - p
    lagged = np.empty((m, d * p))
    for j in range(1, p + 1):
        lagged[:, (j - 1) * d: j * d] = x[:, p - j: n - j].T
    lbar = lagged.mean(axis=0)
    tbar = x[:, p:].mean(axis=1)
    lc = lagged - lbar
    tc = x[:, p:].T - tbar
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
            yield _own_equations(r, tuple(mem.tolist()), mem // d, lagged[:, mem], x[r, p:])
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
               p: int, mask: Optional[np.ndarray]):
    """The normal equations of every component, for the targets t = p..n-1.

    This is the one place that knows how each family builds its
    regressors, and that checks the arguments they share; the fit loop and
    the order-selection loop consume it alike.
    """
    d, n = x.shape
    _check_family(family)
    _check_order("p", p, 0)
    if g_list is not None and len(g_list) != p:
        raise ValueError("need one neighborhood function per lag")
    if family != "var" and ads is None:
        raise ValueError(f"family {family!r} needs the network series ads")
    if family != "var" and (g_list is None or any(g is None for g in g_list)):
        raise ValueError(f"family {family!r} needs the neighborhood function g")
    if family != "var":
        _check_network_cover(ads, d, n - 1, f"{family} fit")
    if n - p <= 0:
        raise ValueError("estimation window is empty")
    if family == "var":
        return _var_equations(x, p, mask)
    if family == "lnar":
        design, targets = _lnar_design(x, ads, g_list, p)
        lags = np.arange(2 * p) // 2
        return (_own_equations(r, tuple(range(2 * p)), lags, design[r], targets[r])
                for r in range(d))
    return (_own_equations(r, members, np.array(members, dtype=int) // d, Y, x[r, p:])
            for r, (members, Y) in enumerate(_nar_design(x, ads, g_list, p)))


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
        r=eq.r, members=eq.members, w=sol.w, mu=sol.mu,
        resid_var=resid_var, gamma_y0=gamma_y0, asymp_cov=resid_var * gamma_inv, rss=rss,
        n_obs=m, ridge_jitter=sol.jitter, gram_cond=sol.cond,
    )


def fit_component_ls(y: np.ndarray, Y: np.ndarray, r: int,
                     members: Optional[Sequence[int]] = None) -> ComponentFit:
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
    members = tuple(range(k)) if members is None else tuple(members)
    if len(members) != k:
        raise ValueError(f"index set has {len(members)} members but Y has {k} columns")
    # one block: the columns carry no lag order
    return _fit_component(_own_equations(r, members, np.zeros(k, dtype=int), Y, y), 1, m)


def _fit(family: str, x, ads, g_list, p: int, mask) -> ModelFit:
    """The one fit loop: every component solves its full block, or the fit raises."""
    x = _finite_series(x)
    d, n = x.shape
    comps = [_fit_component(eq, p, n - p)
             for eq in _equations(family, x, ads, g_list, p, mask)]
    return ModelFit(family=family, p=p, d=d, g=None if g_list is None else tuple(g_list),
                    components=comps)


def fit_nar(x: np.ndarray, ads: AdjacencySeries, g_list: Sequence[NeighborhoodFn],
            p: int) -> ModelFit:
    """Component-wise fit of the full model over the observed index sets."""
    return _fit("nar", x, ads, g_list, p, None)


def fit_lnar(x: np.ndarray, ads: AdjacencySeries, g_list: Sequence[NeighborhoodFn],
             p: int) -> ModelFit:
    """Component-wise fit of the per-component model: own and pooled lags."""
    return _fit("lnar", x, ads, g_list, p, None)


def fit_var(x: np.ndarray, p: int, mask: Optional[np.ndarray] = None) -> ModelFit:
    """Per-equation VAR least squares, optionally sparsity-masked.

    ``mask`` is a binary (d, d*p) matrix; a zero entry pins the matching
    coefficient to zero (used for network-induced sparsity).  No mask is
    the unrestricted VAR; an all-zero row yields an intercept-only
    equation whose forecast is the sample mean.  Every equation restricts
    one shared set of normal equations (see :func:`_var_equations`).
    """
    return _fit("var", x, None, None, p, mask)


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
    their leading block, adding its component's term to the candidate's
    BIC as the components come.  Candidates compute no covariance; the
    ridge guard is skipped when the certifying Gram certifies every block
    (see :func:`_certified`).  A candidate whose fit (near-)interpolates,
    which the criterion would reward blindly, or fails is dropped: its BIC is inf.
    """
    x = _finite_series(x)
    _check_order("p_max", p_max, 1)
    m = x.shape[1] - p_max
    table = dict.fromkeys(range(1, p_max + 1), 0.0)
    for eq in _equations(family, x, ads, [g] * p_max, p_max, mask):
        if all(v == inf for v in table.values()):
            break
        for p, kp in zip(table, np.searchsorted(eq.lags, list(table)).tolist()):
            if table[p] == inf:
                continue
            if m - (kp + 1) < 5:
                table[p] = inf
                continue
            try:
                resid = eq.solve(p, kp).resid
            except EstimationError:
                table[p] = inf
                continue
            table[p] += m * log(max(float(resid @ resid) / m, 1e-300)) + (kp + 1) * log(m)
    best_p = None
    for p, val in table.items():
        if val != inf and (best_p is None or val < table[best_p] - 1e-12):
            best_p = p
    if best_p is None:
        raise EstimationError("no candidate order is identifiable on this sample")
    return OrderSelection(p=best_p, table=table)


def _fit_by_bic(models: Sequence[Tuple[str, Optional[NeighborhoodFn], bool]], x,
                ads: Optional[AdjacencySeries], p_max: int, p: Optional[int] = None) -> list:
    """The one fit procedure of every front end, for all of a sample's models
    ``(family, g, masked)`` at once: BIC order selection on the common window unless
    ``p`` is given, then the refit at that order.  Each model gets its fit and selection
    (None for a given ``p``), or the EstimationError its fit raised.  One chunked pass
    over each distinct G first takes every part the models read, so G is evaluated once
    whatever their order.  A ``masked`` VAR keeps a coefficient where G (the raw network
    without ``g``) is non-zero at some estimation snapshot, the same support at every lag."""
    x = _finite_series(x)
    d, n = x.shape
    if any(masked for _, _, masked in models):
        if ads is None:
            raise ValueError("a network-masked var needs the network series ads")
        _check_network_cover(ads, d, n - 1, "var fit")
    for g in dict.fromkeys(g for _, g, _ in models if g is not None and ads is not None):
        families = [f for f, h, masked in models if h == g and (f != "var" or masked)]
        if families:
            _check_network_cover(ads, d, n - 1, f"{'/'.join(families)} fit")
            ads._g_parts(g, x, [{"nar": "stack", "lnar": "pooled"}.get(f, "support")
                                for f in families])
    outcomes = []
    for family, g, masked in models:
        support = None if not masked else (ads.mats[: n - 1].any(axis=0) if g is None
                                           else ads._g_parts(g, x, ["support"])["support"])

        def mask(q):
            return None if support is None else np.tile(support, (1, q))
        try:
            selection = None if p is not None else select_order_bic(x, ads, g, p_max, family,
                                                                    mask(p_max))
            q = selection.p if selection else p
            fit = fit_var(x, q, mask(q)) if family == "var" else (
                fit_nar if family == "nar" else fit_lnar)(x, ads, [g] * q, q)
            outcomes.append((fit, selection))
        except EstimationError as exc:
            outcomes.append(exc)
    return outcomes
