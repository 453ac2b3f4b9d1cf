"""Dynamic-network generators and neighborhood weight functions.

A dynamic network on a fixed vertex set is stored as an
:class:`AdjacencySeries`: a contiguous run of ``d x d`` edge-weight
matrices with entries in ``[-1, 1]``.  Entry ``(i, j)`` of a snapshot is
the weight of the directed edge from vertex ``i`` to vertex ``j``; a
missing edge has weight zero.

Two binary edge processes are provided (independent per-edge Markov
chains and a three-node two-edge "flip" toy chain), together with the
closed family of neighborhood functions that map a snapshot to the
coefficient-modulation matrix used by the autoregressive models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "AdjacencySeries",
    "MarkovEdgeNetwork",
    "FlipNetwork",
    "NeighborhoodFn",
    "apply_neighborhood_fn",
    "k_stage_neighborhood",
    "build_multiattribute_network",
    "generate_density_matched_markov",
]

_WEIGHT_TOL = 1e-12


def _check_weights(arr: np.ndarray, what: str) -> None:
    """Raise naming the first entry that is not finite or lies outside
    [-1, 1]; NaN fails the comparison, so it is caught."""
    ok = np.abs(arr) <= 1.0 + _WEIGHT_TOL
    if not ok.all():
        *k, i, j = np.argwhere(~ok)[0]
        at = "".join(f"snapshot {s}, " for s in k)
        raise ValueError(f"{what} must be finite and lie in [-1, 1]; found "
                         f"{arr[tuple(k) + (i, j)]} at {at}entry ({i + 1}, {j + 1})")


class AdjacencySeries:
    """Time-indexed sequence of square edge-weight matrices.

    ``mats[k]`` is the network snapshot at integer time ``t0 + k``.  The
    sequence is contiguous in time and every entry lies in ``[-1, 1]``.
    """

    __slots__ = ("mats", "t0")

    def __init__(self, mats, t0: int = 0):
        arr = np.asarray(mats, dtype=float)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected a (n, d, d) stack of square matrices, got shape {arr.shape}")
        _check_weights(arr, "edge weights")
        self.mats = arr
        self.t0 = int(t0)

    @classmethod
    def _checked(cls, mats: np.ndarray, t0: int) -> "AdjacencySeries":
        """A series over snapshots already known to be valid (views and
        concatenations of checked series), built without re-scanning them."""
        out = cls.__new__(cls)
        out.mats = mats
        out.t0 = int(t0)
        return out

    @property
    def d(self) -> int:
        return self.mats.shape[1]

    def __len__(self) -> int:
        return self.mats.shape[0]

    def __getitem__(self, k: int) -> np.ndarray:
        return self.mats[k]

    def is_binary(self) -> bool:
        return bool(np.isin(self.mats, (0.0, 1.0)).all())

    def drop_first(self, k: int) -> "AdjacencySeries":
        """Series with the first ``k`` snapshots removed (time index keeps meaning)."""
        if not 0 <= k <= len(self):
            raise ValueError(f"cannot drop {k} of {len(self)} snapshots")
        return AdjacencySeries._checked(self.mats[k:], self.t0 + k)

    def take_first(self, k: int) -> "AdjacencySeries":
        if not 0 <= k <= len(self):
            raise ValueError(f"cannot take {k} of {len(self)} snapshots")
        return AdjacencySeries._checked(self.mats[:k], self.t0)

    def extend(self, other: "AdjacencySeries") -> "AdjacencySeries":
        """Concatenate a series that continues directly after this one."""
        if other.d != self.d:
            raise ValueError("vertex count mismatch")
        return AdjacencySeries._checked(np.concatenate([self.mats, other.mats], axis=0), self.t0)


class MarkovEdgeNetwork:
    """Binary network whose edges evolve as independent two-state Markov chains.

    ``stay_prob[i, j]`` is the probability that edge ``(i, j)`` remains
    present given it was present one step earlier; ``enter_prob[i, j]``
    the probability that it appears given it was absent.

    Parameters
    ----------
    stay_prob, enter_prob : (d, d) arrays with entries in [0, 1]
    initial : (d, d) binary array, or the string ``"stationary"`` to draw
        the initial snapshot from the per-edge stationary distribution.
    """

    def __init__(self, stay_prob, enter_prob, initial: Union[str, np.ndarray] = "stationary"):
        stay = np.asarray(stay_prob, dtype=float)
        enter = np.asarray(enter_prob, dtype=float)
        if stay.shape != enter.shape or stay.ndim != 2 or stay.shape[0] != stay.shape[1]:
            raise ValueError("stay/enter probability matrices must be square and equally shaped")
        for name, m in (("stay_prob", stay), ("enter_prob", enter)):
            bad = ~((m >= 0) & (m <= 1))
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise ValueError(
                    f"{name} entries must lie in [0, 1]; found {m[i, j]} at entry ({i + 1}, {j + 1})"
                )
        if isinstance(initial, str):
            if initial != "stationary":
                raise ValueError(f"unknown initial state spec {initial!r}")
        else:
            initial = np.asarray(initial, dtype=float)
            if initial.shape != stay.shape:
                raise ValueError("initial state shape mismatch")
            if not np.isin(initial, (0.0, 1.0)).all():
                raise ValueError("initial state must be binary")
        self.stay_prob = stay
        self.enter_prob = enter
        self.initial = initial

    @property
    def d(self) -> int:
        return self.stay_prob.shape[0]

    def stationary_probs(self) -> np.ndarray:
        """Per-edge stationary presence probability enter / (enter + 1 - stay).

        Edges with ``stay = 1`` and ``enter = 0`` have no unique stationary
        law; they are reported as 0 (an absorbing edge never entered).
        """
        denom = self.enter_prob + 1.0 - self.stay_prob
        with np.errstate(invalid="ignore", divide="ignore"):
            pi = np.where(denom > 0, self.enter_prob / np.where(denom > 0, denom, 1.0), 0.0)
        return pi

    def initial_state(self, rng: np.random.Generator) -> np.ndarray:
        if isinstance(self.initial, str):
            return (rng.random((self.d, self.d)) < self.stationary_probs()).astype(float)
        return self.initial.copy()

    def step(self, state: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """One transition given per-edge uniforms; broadcasts over ``(..., d, d)``.

        Edge ``(i, j)`` is present next step iff ``uniforms[i, j] < p`` with
        ``p = stay_prob[i, j]`` when present now, else ``enter_prob[i, j]``.
        Uniforms are consumed one per edge in row-major order, so a seeded
        run is bit-reproducible.
        """
        state = np.asarray(state, dtype=float)
        if state.shape[-2:] != self.stay_prob.shape:
            raise ValueError(
                f"state shape {state.shape} does not match model dimension {self.stay_prob.shape}"
            )
        p = np.where(state == 1.0, self.stay_prob, self.enter_prob)
        return (uniforms < p).astype(float)

    def simulate(self, n: int, seed=None, burn_in: int = 0) -> AdjacencySeries:
        """Simulate ``n`` snapshots after discarding ``burn_in`` transitions.

        ``seed`` is anything :func:`numpy.random.default_rng` takes; a
        Generator is drawn from in place.
        """
        rng = np.random.default_rng(seed)
        state = self.initial_state(rng)
        draws = rng.random((burn_in + n, self.d, self.d))
        out = np.empty((n, self.d, self.d))
        for t in range(burn_in + n):
            state = self.step(state, draws[t])
            if t >= burn_in:
                out[t - burn_in] = state
        return AdjacencySeries._checked(out, 0)  # binary by construction


class FlipNetwork:
    """Three-vertex network holding exactly one of the edges (1,3), (2,3).

    The active edge persists with probability ``persist_prob`` each step.
    State 0 means edge (1,3) is present, state 1 means edge (2,3).  Given
    the step's uniform ``u``: from state 0 the next state is 0 iff
    ``u > 1 - persist_prob``; from state 1 the next state is 0 iff
    ``u > persist_prob``.
    """

    d = 3
    EDGE13 = 0
    EDGE23 = 1

    def __init__(self, persist_prob: float = 0.95, initial_state: int = EDGE13):
        if not 0.0 <= persist_prob <= 1.0:
            raise ValueError("persist_prob must lie in [0, 1]")
        if initial_state not in (0, 1):
            raise ValueError("initial_state must be 0 (edge13) or 1 (edge23)")
        self.persist_prob = float(persist_prob)
        self.initial = initial_state

    def step(self, state, u):
        """One transition given the step's uniform; broadcasts over arrays of states."""
        to13 = np.where(np.asarray(state) == self.EDGE13, u > 1.0 - self.persist_prob,
                        u > self.persist_prob)
        return np.where(to13, self.EDGE13, self.EDGE23).astype(np.int8)

    def state_to_matrix(self, states) -> np.ndarray:
        """Adjacency matrices ``(..., 3, 3)`` for a state or an array of states."""
        states = np.asarray(states)
        mats = np.zeros(states.shape + (3, 3))
        mats[..., 0, 2] = states == self.EDGE13
        mats[..., 1, 2] = states != self.EDGE13
        return mats

    def simulate(self, n: int, seed=None, burn_in: int = 0) -> AdjacencySeries:
        states = self.simulate_states(n, seed=seed, burn_in=burn_in)
        return AdjacencySeries._checked(self.state_to_matrix(states), 0)  # binary by construction

    def simulate_states(self, n: int, seed=None, burn_in: int = 0) -> np.ndarray:
        """State path (0/1 per step); lighter than full matrices for long runs.

        Both possible transitions of every step come from one broadcast
        :meth:`step`.  A step whose two transitions agree fixes the state;
        after it, each step whose transitions disagree either keeps the
        state or swaps the two states, so the path is the last fixed state
        with the parity of the swaps since applied.  ``seed`` is read as by
        :meth:`MarkovEdgeNetwork.simulate`.
        """
        u = np.random.default_rng(seed).random(burn_in + n)
        from13 = self.step(self.EDGE13, u)
        from23 = self.step(self.EDGE23, u)
        steps = np.arange(u.size)
        last_fix = np.maximum.accumulate(np.where(from13 == from23, steps, -1))
        swaps = np.cumsum(from13 > from23)
        fixed = last_fix >= 0
        start = np.where(fixed, from13[last_fix], self.initial)
        parity = (swaps - np.where(fixed, swaps[last_fix], 0)) % 2
        return (start ^ parity).astype(np.int8)[burn_in:]


def _require_binary(ad: np.ndarray, what: str) -> np.ndarray:
    ad = np.asarray(ad, dtype=float)
    if not np.isin(ad, (0.0, 1.0)).all():
        raise ValueError(f"{what} requires a binary adjacency matrix")
    return ad


def _walks_within(ad: np.ndarray, k: int) -> np.ndarray:
    """0/1 indicator of a walk of length 1..k from ``i`` to ``j`` in a binary
    snapshot or ``(..., d, d)`` stack; all zeros for ``k = 0``.

    The indicator is retaken after each product, so no entry exceeds d + 1
    and the float products are exact (raw walk counts overflow on dense
    graphs).
    """
    within = np.zeros(ad.shape)
    for _ in range(k):
        within = np.minimum(ad + within @ ad, 1.0)
    return within


def k_stage_neighborhood(ad, k: int) -> np.ndarray:
    """Indicator matrix of vertices reachable by a shortest path of length exactly k.

    Accepts one snapshot or a ``(..., d, d)`` stack.  Row ``j`` marks the
    vertices ``v`` whose shortest directed path ``v -> j`` has length ``k``
    (the transpose reverses edge direction so that rows collect
    in-neighborhoods): there is a walk of length ``k`` in ``Ad^T`` but none
    of length 1..k-1, i.e. the walks of length at most ``k`` minus those of
    length at most ``k - 1``.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    at = _require_binary(ad, "k_stage_neighborhood").swapaxes(-1, -2)
    return _walks_within(at, k) - _walks_within(at, k - 1)


def build_multiattribute_network(ad, b, c) -> np.ndarray:
    """Block enlargement [[Ad, B], [C, Ad]] for a second vertex attribute."""
    ad, b, c = (np.asarray(m, dtype=float) for m in (ad, b, c))
    if not (ad.shape == b.shape == c.shape) or ad.ndim != 2 or ad.shape[0] != ad.shape[1]:
        raise ValueError("all three blocks must be square matrices of equal dimension")
    for name, m in (("Ad", ad), ("B", b), ("C", c)):
        _check_weights(m, f"block {name} entries")
    return np.block([[ad, b], [c, ad]])


_VARIANTS = {
    "transpose",
    "transpose_of",
    "sign_poly",
    "k_stage",
    "row_normalized_transpose",
    "mask",
    "identity_plus",
}


@dataclass(frozen=True)
class NeighborhoodFn:
    """Descriptor of a neighborhood function G mapping a snapshot to a modulation matrix.

    Closed enumeration of variants:

    ``transpose``
        ``G(Ad) = Ad^T`` (influence flows along the edge direction).
    ``transpose_of``
        ``G(Ad) = inner(Ad)^T``; switches between the two influence
        concepts.  ``transpose_of(transpose)`` is the identity map.
    ``sign_poly`` (order ``k``)
        ``G(Ad) = sign(Ad + Ad^2 + ... + Ad^k)`` on binary input.
    ``k_stage`` (stage ``k``)
        the exact-shortest-path indicator :func:`k_stage_neighborhood`.
    ``row_normalized_transpose``
        ``Ad^T`` with each row divided by its sum (1/0 := 0); rows sum to
        1 or 0 exactly, so the infinity norm is at most 1.
    ``mask`` (weight matrix ``w``)
        ``G(Ad) = w * Ad`` elementwise.
    ``identity_plus`` (wrapping ``inner``)
        ``I + inner(Ad)`` with the diagonal of ``inner(Ad)`` zeroed first,
        keeping entries within [-1, 1].
    """

    kind: str
    k: Optional[int] = None
    w: Optional[tuple] = None
    inner: Optional["NeighborhoodFn"] = None

    def __post_init__(self):
        if self.kind not in _VARIANTS:
            raise ValueError(f"unknown neighborhood variant {self.kind!r}")
        if self.kind in ("sign_poly", "k_stage") and (self.k is None or self.k < 1):
            raise ValueError(f"{self.kind} requires a positive order k")
        if self.kind == "mask" and self.w is None:
            raise ValueError("mask requires a weight matrix")
        if self.kind in ("transpose_of", "identity_plus") and self.inner is None:
            raise ValueError(f"{self.kind} requires an inner descriptor")

    # --- constructors ----------------------------------------------------
    @staticmethod
    def transpose() -> "NeighborhoodFn":
        return NeighborhoodFn("transpose")

    @staticmethod
    def transpose_of(inner: "NeighborhoodFn") -> "NeighborhoodFn":
        return NeighborhoodFn("transpose_of", inner=inner)

    @staticmethod
    def identity() -> "NeighborhoodFn":
        """The identity map, expressed as the transpose of the transpose."""
        return NeighborhoodFn.transpose_of(NeighborhoodFn.transpose())

    @staticmethod
    def sign_poly(k: int) -> "NeighborhoodFn":
        return NeighborhoodFn("sign_poly", k=int(k))

    @staticmethod
    def k_stage(k: int) -> "NeighborhoodFn":
        return NeighborhoodFn("k_stage", k=int(k))

    @staticmethod
    def row_normalized_transpose() -> "NeighborhoodFn":
        return NeighborhoodFn("row_normalized_transpose")

    @staticmethod
    def mask(w) -> "NeighborhoodFn":
        w = np.asarray(w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("mask weight must be a square matrix")
        _check_weights(w, "mask weights")
        return NeighborhoodFn("mask", w=tuple(map(tuple, w.tolist())))

    @staticmethod
    def identity_plus(inner: "NeighborhoodFn") -> "NeighborhoodFn":
        return NeighborhoodFn("identity_plus", inner=inner)

    # --- behavior ---------------------------------------------------------
    @property
    def mask_matrix(self) -> Optional[np.ndarray]:
        return None if self.w is None else np.asarray(self.w, dtype=float)

    def apply(self, ad: np.ndarray) -> np.ndarray:
        return apply_neighborhood_fn(self, ad)

    def infty_norm_certified(self) -> bool:
        """Whether ``||G(.)||_inf <= 1`` holds for every admissible input.

        Only the row-normalized transpose (rows sum to at most 1 by
        construction) and masks with ``||W||_inf <= 1`` carry an a-priori
        certificate; other variants can exceed 1 on dense graphs.
        """
        if self.kind == "row_normalized_transpose":
            return True
        if self.kind == "mask":
            return float(np.abs(self.mask_matrix).sum(axis=1).max()) <= 1.0 + _WEIGHT_TOL
        return False

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.k is not None:
            doc["k"] = self.k
        if self.w is not None:
            doc["w"] = [list(row) for row in self.w]
        if self.inner is not None:
            doc["inner"] = self.inner.to_json()
        return doc

    @staticmethod
    def from_json(doc: dict) -> "NeighborhoodFn":
        inner = NeighborhoodFn.from_json(doc["inner"]) if "inner" in doc else None
        kind = doc["kind"]
        if kind == "mask":
            return NeighborhoodFn.mask(doc["w"])
        return NeighborhoodFn(kind, k=doc.get("k"), inner=inner)


def apply_neighborhood_fn(fn: NeighborhoodFn, ad, zero_diag: bool = False) -> np.ndarray:
    """Evaluate a neighborhood descriptor on a snapshot or a ``(..., d, d)`` stack.

    This is the one implementation of the modulation rule: every model,
    fit, forecast and coupling run goes through it.  The result is always
    a fresh C-contiguous array, so callers may modify it in place.  With
    ``zero_diag=True`` the diagonal of every output is zeroed (the
    per-component model's rule).
    """
    ad = np.asarray(ad, dtype=float)
    if ad.ndim < 2 or ad.shape[-1] != ad.shape[-2]:
        raise ValueError("snapshot must be a square matrix or a stack of them")
    out = _evaluate(fn, ad)
    if not out.flags.c_contiguous or np.may_share_memory(out, ad):
        out = np.array(out, order="C")
    if zero_diag:
        idx = np.arange(ad.shape[-1])
        out[..., idx, idx] = 0.0
    return out


def _evaluate(fn: NeighborhoodFn, ad: np.ndarray) -> np.ndarray:
    """Variant bodies over the trailing two axes; may return a view of ``ad``."""
    if fn.kind == "transpose":
        return ad.swapaxes(-1, -2)
    if fn.kind == "transpose_of":
        return _evaluate(fn.inner, ad).swapaxes(-1, -2)
    if fn.kind == "sign_poly":
        return _walks_within(_require_binary(ad, "sign_poly"), fn.k)
    if fn.kind == "k_stage":
        return k_stage_neighborhood(ad, fn.k)
    if fn.kind == "row_normalized_transpose":
        at = ad.swapaxes(-1, -2)
        sums = at.sum(axis=-1, keepdims=True)
        return np.divide(at, sums, out=np.zeros(at.shape), where=sums != 0)
    if fn.kind == "mask":
        w = fn.mask_matrix
        if w.shape != ad.shape[-2:]:
            raise ValueError("mask weight dimension does not match snapshot")
        return w * ad
    if fn.kind == "identity_plus":
        # I + zero-diagonal inner(Ad), in place unless inner returned a view of Ad
        out = _evaluate(fn.inner, ad)
        if np.may_share_memory(out, ad):
            out = out.copy()
        idx = np.arange(ad.shape[-1])
        out[..., idx, idx] = 1.0
        return out
    raise AssertionError(f"unhandled variant {fn.kind}")  # pragma: no cover


def generate_density_matched_markov(d: int, mean_density: float,
                                    persistence: float) -> MarkovEdgeNetwork:
    """Independent-edge Markov model with a target stationary density.

    Every edge gets the same two-state chain with stationary presence
    probability ``mean_density`` and ``stay - enter = persistence``.
    Solving ``pi = enter / (enter + 1 - stay)`` under that gap gives
    ``enter = mean_density * (1 - persistence)``.
    """
    if not 0.0 < mean_density < 1.0:
        raise ValueError("mean_density must lie strictly between 0 and 1")
    enter = mean_density * (1.0 - persistence)
    stay = enter + persistence
    if not (0.0 <= enter <= 1.0 and 0.0 <= stay <= 1.0):
        raise ValueError(
            f"density {mean_density} with persistence {persistence} leaves [0, 1]: "
            f"stay={stay}, enter={enter}"
        )
    ones = np.ones((d, d))
    return MarkovEdgeNetwork(stay * ones, enter * ones, initial="stationary")
