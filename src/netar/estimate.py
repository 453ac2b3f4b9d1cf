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
lag.  :func:`_equations` gives every family's normal equations as stacks
of same-size systems, columns ordered by lag so that a lower order is a
leading block: LNAR is one stack of d systems; NAR and the uncertified VAR,
whose components may differ in size, give each component a stack of one, built
when the loop reaches it.
:func:`_solve_stack` solves a stack's blocks in batched numpy calls, each
system with the bits of its own call and its own jitter decision.  When the
Gram of the lagged series is certified, the VAR solves each order for
every equation from one inverse, and ``gram_cond`` reports that Gram's
condition number.  The fit loop solves each full block; BIC order
selection, on one common window, solves each candidate's leading blocks
for their residual sums of squares alone.  A fit builds its plug-in
moments only when they are first read.  Network regressors read what the
:class:`AdjacencySeries` keeps of each distinct G from one chunked pass
over its snapshots (NAR the evaluations, LNAR the pooled series and the
masked VAR the support), so every fit on a series shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import namedtuple
from functools import lru_cache, partial
from itertools import zip_longest
from math import inf, isfinite, log, nan
from typing import Iterable, List, Optional, Sequence, Tuple

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
    ``resid_var`` and ``asymp_cov`` may be NaN, with no residual degree of freedom.
    ``gamma_y0`` may be a function that returns it and its inverse, as in a fit made
    here; both moments are then built and checked when first read, ``asymp_cov`` as
    ``resid_var`` times the inverse, and a failed inverse raises an EstimationError."""
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
        if callable(self.gamma_y0):
            self._moments = self.gamma_y0
            del self.gamma_y0, self.asymp_cov
        else:
            self._set_moments(self.gamma_y0, self.asymp_cov)
        for key in ("mu", "resid_var", "rss", "ridge_jitter", "gram_cond"):
            value = getattr(self, key)
            setattr(self, key, float(value if isinstance(value, float)
                                     else _floats(name, key, value, ())))
        if not np.isfinite(self.w).all():
            raise ValueError(f"{name} has a non-finite w")
        if not isfinite(self.mu):
            raise ValueError(f"{name} has a non-finite mu")

    def _set_moments(self, gamma_y0, asymp_cov):
        name, k = f"component {self.r + 1}", len(self.members)
        self.gamma_y0 = _floats(name, "gamma_y0", gamma_y0, (k, k))
        self.asymp_cov = _floats(name, "asymp_cov", asymp_cov, (k, k))

    def __getattr__(self, key):  # reached only for an attribute not yet set
        if key not in ("gamma_y0", "asymp_cov") or "_moments" not in self.__dict__:
            raise AttributeError(f"'ComponentFit' object has no attribute {key!r}")
        try:
            gamma_y0, gamma_inv = self._moments()
        except np.linalg.LinAlgError as exc:
            raise EstimationError(
                f"component {self.r + 1}: Gram matrix not invertible for the asymptotic "
                "covariance", {"k": len(self.members), "n_obs": self.n_obs,
                               "ridge_jitter": self.ridge_jitter}) from exc
        self._set_moments(gamma_y0, self.resid_var * gamma_inv)
        del self._moments
        return self.__dict__[key]

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
            idx = np.asarray(c.members)
            if idx.size and not (idx.dtype.kind in "iu" and 0 <= idx.min() <= idx.max() < width):
                bad = [m for m in c.members
                       if not isinstance(m, (int, np.integer)) or m not in range(width)]
                if bad:
                    raise ValueError(f"component {c.r + 1} has index {bad[0] + 1}, not an "
                                     f"integer in 1..{width}")
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
        mats = np.zeros((self.p, self.d, self.d))
        for c in self.components:
            flat = np.array(c.members, dtype=int)
            mats[flat // self.d, c.r, flat % self.d] = c.w
        return list(mats)

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
        raise ValueError(f"series has a non-finite value {x[r, t]} at component {r + 1}, time {t}")
    return x


def _nar_design(x: np.ndarray, ads: AdjacencySeries, g_list, p: int):
    """Active indices and design of the full model for targets t = p..n-1, per component.

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


# A stack's solutions of one order, an entry per system (w in a list, as sizes may differ);
# ``errors`` holds a failed system's EstimationError, ``moments`` its block over m and inverse.
_Solutions = namedtuple("_Solutions", "w mu resid rss jitter cond errors moments")


def _sum_sq(rows: np.ndarray) -> np.ndarray:  # with the bits of each row's own dot product
    return (rows[:, None, :] @ rows[:, :, None])[:, 0, 0]


def _condition(gram: np.ndarray) -> np.ndarray:
    """The condition numbers of a stack of Gram matrices (..., k, k), inf where one is
    not positive definite; a failed eigensolve raises LinAlgError."""
    eigs = np.linalg.eigvalsh((gram + np.swapaxes(gram, -1, -2)) / 2.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(eigs[..., 0] > 0.0, eigs[..., -1] / eigs[..., 0], inf)


def _certified(gram: np.ndarray) -> Optional[np.ndarray]:
    """The condition numbers of a stack of Grams where no principal block can trigger
    the ridge, NaN where one can; None if no Gram is certified.  By Cauchy interlacing
    the eigenvalues of a principal submatrix lie in [lambda_min, lambda_max] of the
    whole, so lambda_min > 0 and a condition number of at most half ``_COND_LIMIT`` (a
    factor 2 spare for rounding) certify every block and bound its condition number.  A
    failed eigensolve certifies nothing."""
    if gram.shape[-1] == 0:
        return None
    try:
        cond = _condition(gram)
    except np.linalg.LinAlgError:
        if gram.ndim == 2:
            return None
        cond = np.array([nan if c is None else float(c) for c in map(_certified, gram)])
    cond = np.where(cond <= _COND_LIMIT / 2.0, cond, nan)
    return None if np.isnan(cond).all() else cond


def _gram_moments(block: np.ndarray, m: int):
    return block / m, np.linalg.inv(block / m)


def _own_stack(rs: Sequence[int], members, lags: np.ndarray, Y: np.ndarray, y: np.ndarray):
    """The stack of the components ``rs``, system i with its own design ``Y[i]``
    (centered in place) and target ``y[i]``, every column at the lag ``lags`` gives."""
    y = np.ascontiguousarray(y)  # so that each row's mean sums as one row's mean does
    ybar, Ybar = y.mean(axis=1), Y.mean(axis=1)
    Yc, yc = np.subtract(Y, Ybar[:, None], out=Y), y - ybar[:, None]
    gram, cross = np.swapaxes(Yc, 1, 2) @ Yc, np.swapaxes(Yc, 1, 2) @ yc[..., None]
    c = (ybar, Ybar, Yc, yc, gram, cross, _certified(gram))
    return rs, members, lambda p: _solve_stack(rs, int(np.searchsorted(lags, p)), c)


def _solve_stack(rs: Sequence[int], k: int, c: tuple) -> _Solutions:
    """The guarded solves of a stack's leading k-blocks; every solve is made here.

    A block that is numerically singular (condition number above ``_COND_LIMIT``, or
    inf when it is not positive definite) gets a flagged ridge jitter of ``RIDGE_SCALE
    * trace / k``; if the solve still fails the system errors out with diagnostics.  A
    certificate of a system's whole Gram skips the check for its every block.  A stack
    in which a step fails solves each system as a stack of one.
    """
    ybar, Ybar, Yc, yc, gram, cross, certified = c
    s, m, name = len(rs), yc.shape[1], f"component {rs[0] + 1}"  # a stack of one's
    blocks, jitter = gram[:, :k, :k], np.zeros(s)
    cond = np.ones(s) if k == 0 else np.full(s, nan) if certified is None else certified.copy()
    guard = np.flatnonzero(np.isnan(cond))
    try:
        try:
            if guard.size:
                cond[guard] = _condition(blocks[guard])
        except np.linalg.LinAlgError as exc:
            raise EstimationError(f"{name}: eigenvalues of the Gram matrix did not converge", {
                "k": k, "n_obs": m, "finite": bool(np.isfinite(blocks).all())}) from exc
        ridge = guard[cond[guard] > _COND_LIMIT]
        blocks = blocks.copy() if ridge.size else blocks
        for i in ridge:
            jitter[i] = RIDGE_SCALE * float(np.trace(blocks[i])) / k
            jitter[i] = RIDGE_SCALE if jitter[i] <= 0.0 else jitter[i]
            blocks[i] += jitter[i] * np.eye(k)
        try:
            w = np.linalg.solve(blocks, cross[:, :k])[..., 0]
        except np.linalg.LinAlgError:
            if s > 1:
                raise
            jitter += RIDGE_SCALE * max(float(np.trace(blocks[0])) / k, 1.0)
            blocks = blocks + jitter[0] * np.eye(k)
            try:
                w = np.linalg.solve(blocks, cross[:, :k])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise EstimationError(f"{name}: Gram matrix singular even after ridge jitter", {
                    "trace": float(np.trace(blocks[0])), "k": k, "n_obs": m}) from exc
        if not np.isfinite(w).all():
            raise EstimationError(f"{name}: non-finite least-squares solution", {"k": k, "n_obs": m})
    except (np.linalg.LinAlgError, EstimationError) as exc:
        if s > 1:
            parts = [_solve_stack(rs[i: i + 1], k, [a if a is None else a[i: i + 1] for a in c])
                     for i in range(s)]
            return _Solutions(*(sum(f, []) if isinstance(f[0], list) else np.concatenate(f)
                                for f in zip(*parts)))
        return _Solutions([np.full(k, nan)], np.full(1, nan), np.full((1, m), nan),
                          np.full(1, nan), jitter, cond, [exc], [None])
    resid = yc - (Yc[:, :, :k] @ w[..., None])[..., 0]
    return _Solutions(list(w), ybar - (w[:, None] @ Ybar[:, :k, None])[:, 0, 0], resid,
                      _sum_sq(resid), jitter, cond, [None] * s,
                      [partial(_gram_moments, b, m) for b in blocks])


def _restricted_moments(gram, ginv, f, cut, m):
    """gamma_y0 of the columns f of the shared regression and its inverse, by the
    block-inverse identity, with the columns ``cut`` removed."""
    s = np.flatnonzero(cut)
    g_fs = ginv[f[:, None], s]
    inner = g_fs @ np.linalg.solve(ginv[s[:, None], s], g_fs.T) if s.size else 0.0
    return gram[f[:, None], f] / m, m * (ginv[f[:, None], f] - inner)


def _var_equations(x: np.ndarray, p: int, mask: Optional[np.ndarray]) -> Iterable[tuple]:
    """Equations of every VAR equation, restrictions of one shared regression.

    Column ``(j-1)d + i`` of the lagged design holds ``x_{t-j;i}``.  If the
    Gram ``lc'lc`` is certified, order q inverts its leading block G once:
    ``W = G^-1 lc'tc`` solves every equation unmasked, the mask's removed
    columns S give the restricted-least-squares correction ``W_r - G^-1[:, S]
    (G^-1[S, S])^-1 W_r[S]`` (one batched solve for the equations with as many),
    one product gives all residuals and the block-inverse identity the
    covariance.  Otherwise each equation is fitted on its own lagged columns.
    A series whose rows are not contiguous is read from its row-major copy, so
    the means sum in one order whatever the memory layout.
    """
    if x.strides[1] != x.itemsize:
        x = np.ascontiguousarray(x)
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
    lbar, tbar = lagged.mean(axis=0), x[:, p:].mean(axis=1)
    lc, tc = lagged - lbar, x[:, p:].T - tbar
    gram, cross = lc.T @ lc, lc.T @ tc
    cut = np.zeros((d, d * p), dtype=bool) if mask is None else mask == 0
    mems = [np.flatnonzero(~row) for row in cut]
    cond = _certified(gram)
    if cond is None:  # each equation on its own lagged columns, a stack of one
        return (_own_stack([r], [tuple(mem.tolist())], mem // d, lagged[:, mem][None],
                           x[[r], p:]) for r, mem in enumerate(mems))

    @lru_cache(maxsize=None)
    def order(kp):
        ginv = np.linalg.inv(gram[:kp, :kp])
        coef = ginv @ cross[:kp]
        sizes = cut[:, :kp].sum(axis=1)
        for size in set(sizes.tolist()) - {0}:
            rows = np.flatnonzero(sizes == size)
            s = np.nonzero(cut[rows, :kp])[1].reshape(rows.size, size)
            z = np.linalg.solve(ginv[s[:, :, None], s[:, None, :]],
                                coef[s, rows[:, None]][..., None])
            coef[:, rows] -= (ginv[:, s].transpose(1, 0, 2) @ z)[..., 0].T
            coef[s, rows[:, None]] = 0.0
        return ginv, coef, tc - lc[:, :kp] @ coef

    def solve(q):
        ginv, coef, resid = order(d * q)
        fs = [mem[: np.searchsorted(mem, d * q)] for mem in mems]
        w = [coef[f, r] for r, f in enumerate(fs)]
        mu = np.array([tbar[r] - wr @ lbar[f] for r, (wr, f) in enumerate(zip(w, fs))])
        return _Solutions(w, mu, resid.T, _sum_sq(resid.T), np.zeros(d), np.full(d, float(cond)),
                          [None] * d, [partial(_restricted_moments, gram, ginv, f, row[: d * q], m)
                                       for f, row in zip(fs, cut)])

    return [(range(d), [tuple(mem.tolist()) for mem in mems], solve)]


def _equations(family: str, x: np.ndarray, ads: Optional[AdjacencySeries], g_list,
               p: int, mask: Optional[np.ndarray]) -> Iterable[tuple]:
    """The normal equations of every component, for the targets t = p..n-1, in stacks.

    A stack ``(rs, members, solve)`` holds component ``rs[i]``'s regressors
    ``members[i]`` (flat indices; for LNAR own/pooled positions) ordered by lag, and
    ``solve(p)`` gives their order-p ``_Solutions``.  The stacks come in component
    order.  This is the one place that knows how each family builds its regressors,
    and that checks the arguments they share.
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
        return [_own_stack(range(d), [tuple(range(2 * p))] * d, np.arange(2 * p) // 2,
                           *_lnar_design(x, ads, g_list, p))]
    return (_own_stack([r], [members], np.array(members, dtype=int) // d, Y[None], x[[r], p:])
            for r, (members, Y) in enumerate(_nar_design(x, ads, g_list, p)))


def _components(stacks: Iterable[tuple], p: int, m: int) -> List[ComponentFit]:
    """The fits of the stacks' components on their full order-p blocks, in component
    order; the first component that cannot be fitted raises.  A fit builds its plug-in
    moments when they are first read (see :class:`ComponentFit`)."""
    comps = []
    for rs, members, solve in stacks:
        sols = solve(p)
        for i, (r, mem) in enumerate(zip(rs, members)):
            k = len(mem)
            if m < k + 1:
                raise EstimationError(f"component {r + 1}: {m} observations cannot identify "
                                      f"{k} coefficients plus intercept", {"n_obs": m, "k": k})
            if sols.errors[i] is not None:
                raise sols.errors[i]
            rss = float(sols.rss[i])
            resid_var = rss / (m - k - 1) if m > k + 1 else nan
            comps.append(ComponentFit(
                r=r, members=mem, w=sols.w[i], mu=sols.mu[i], resid_var=resid_var,
                gamma_y0=sols.moments[i], asymp_cov=None, rss=rss, n_obs=m,
                ridge_jitter=sols.jitter[i], gram_cond=sols.cond[i]))
    return comps


def fit_component_ls(y: np.ndarray, Y: np.ndarray, r: int,
                     members: Optional[Sequence[int]] = None) -> ComponentFit:
    """Exact least squares with intercept via centered normal equations: Gram * w = cross
    with Gram = sum (Y - Ybar)(Y - Ybar)' and cross = sum (Y - Ybar)(y - ybar), then
    mu = ybar - w'Ybar, guarded as :func:`_solve_stack` guards every solve.  This is the
    one-component case of the fit loop behind :func:`fit_nar`, :func:`fit_lnar` and
    :func:`fit_var`."""
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
    # a stack of one, with one block: the columns carry no lag order
    return _components([_own_stack([r], [members], np.zeros(k, dtype=int), np.array(Y)[None],
                                   y[None])], 1, m)[0]


def _fit(family: str, x, ads, g_list, p: int, mask) -> ModelFit:
    """The one fit loop: every component solves its full block, or the fit raises."""
    x = _finite_series(x)
    d, n = x.shape
    comps = _components(_equations(family, x, ads, g_list, p, mask), p, n - p)
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
    order-p_max regressors (for VAR, the leading columns of its mask), so the
    p_max normal equations are built once, in stacks, and each candidate solves
    their leading blocks; its BIC adds the terms in component order.  The ridge
    guard is skipped where the certifying Gram certifies every block (see
    :func:`_certified`).  A candidate whose fit (near-)interpolates, which the
    criterion would reward blindly, or fails is dropped: its BIC is inf, and it
    solves no further stack.
    """
    x = _finite_series(x)
    _check_order("p_max", p_max, 1)
    m = x.shape[1] - p_max
    table = dict.fromkeys(range(1, p_max + 1), 0.0)
    for _, _, solve in _equations(family, x, ads, [g] * p_max, p_max, mask):
        live = [p for p, val in table.items() if val != inf]
        if not live:
            break
        for p in live:
            sols = solve(p)
            for w, rss, error in zip(sols.w, sols.rss, sols.errors):
                table[p] += (inf if m - (w.size + 1) < 5 or error is not None else
                             m * log(max(float(rss) / m, 1e-300)) + (w.size + 1) * log(m))
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
