"""Dynamic-network generators and neighborhood weight functions.

A dynamic network on a fixed vertex set is stored as an
:class:`AdjacencySeries`: a contiguous run of ``d x d`` edge-weight
matrices with entries in ``[-1, 1]``.  Entry ``(i, j)`` of a snapshot is
the weight of the directed edge from vertex ``i`` to vertex ``j``; a
missing edge has weight zero.  A binary network is ``bool``, one byte an
entry, from every generator (states, walks, flip matrices, per-edge
forecasts) to G; weighted stacks are floats.

A walk over a whole path goes in chunks of :func:`_snapshots_per_chunk`
snapshots, about 1 MiB of float snapshots: the network draws, G's
evaluation straight into its result, the simulator's coefficients, the
per-component model's path certificate and the fits' pass over G.  G is
per snapshot and 0/1 is exact as a float, so no result depends on the chunk.
Every walk and path simulation is a batch of R replicates, one Generator
each: :func:`_generator_batch` reads every simulator's seed, and a seed that
is not a list of Generators is a batch of one.  A batch steps in time chunks
of :func:`_steps_per_chunk`, the 1 MiB chunk at R = 1 and about 32 KiB of
float snapshots above, so a batch's chunk temporaries stay small next to the
whole paths it holds.

Two binary edge processes are provided (independent per-edge Markov
chains and a three-node two-edge "flip" toy chain), together with the
closed family of neighborhood functions that map a snapshot to the
coefficient-modulation matrix used by the autoregressive models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

__all__ = [
    "AdjacencySeries",
    "MarkovEdgeNetwork",
    "FlipNetwork",
    "NeighborhoodFn",
    "apply_neighborhood_fn",
    "generate_density_matched_markov",
]

_WEIGHT_TOL = 1e-12


def _snapshots_per_chunk(d: int) -> int:
    """Snapshots in about 1 MiB of float ``(d, d)`` snapshots, at least one."""
    return max(1, 2**20 // (8 * d * d))


def _steps_per_chunk(d: int, batch: int) -> int:
    """Time steps per chunk of a walk or a path over ``batch`` replicates at once:
    :func:`_snapshots_per_chunk` for one replicate, else about 32 KiB of the batch's
    float snapshots, at least one, so that a batch's chunk temporaries (uniforms,
    coefficients and G's temporaries) stay small next to its whole-path arrays."""
    return _snapshots_per_chunk(d) if batch == 1 else max(1, 2**15 // (8 * batch * d * d))


def _generator_batch(seed) -> Tuple[list, bool]:
    """The one reading of a simulator's seed: its Generators, one replicate each, and
    whether the seed was a batch.  A nonempty list or tuple of ``numpy.random.Generator``
    is a batch; any other seed is one replicate, ``[default_rng(seed)]``."""
    if (isinstance(seed, (list, tuple)) and seed
            and all(isinstance(g, np.random.Generator) for g in seed)):
        return list(seed), True
    return [np.random.default_rng(seed)], False


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
    """Sequence of square edge-weight matrices, indexed by time.

    ``mats[t]`` is the network snapshot at time ``t``: a snapshot's time is
    its position, the same index as the series column it modulates.  Every
    entry lies in ``[-1, 1]``.  A bool stack is kept as it is, binary by its
    dtype, with no scan and no copy; any other input is stored as floats.
    A series keeps what its fits read of each distinct G, from one chunked
    pass over the estimation snapshots (:meth:`_g_parts`), so its snapshots
    are not to be written once a fit has read them.
    """

    __slots__ = ("mats", "_parts")

    def __init__(self, mats):
        is_bool = isinstance(mats, np.ndarray) and mats.dtype == bool
        arr = mats if is_bool else np.asarray(mats, dtype=float)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected a (n, d, d) stack of square matrices, got shape {arr.shape}")
        if not is_bool:
            _check_weights(arr, "edge weights")
        self.mats = arr
        self._parts = {}

    @classmethod
    def _checked(cls, mats: np.ndarray) -> "AdjacencySeries":
        """A series over snapshots already known to be valid (views of a
        checked series, binary simulator output), built without re-scanning them."""
        out = cls.__new__(cls)
        out.mats, out._parts = mats, {}
        return out

    def _g_parts(self, g: "NeighborhoodFn", x: np.ndarray, parts) -> dict:
        """What fits on the ``(d, n)`` series ``x`` read of G on the snapshots 0..n-2:
        its evaluations ``"stack"``, their ``bool`` ``"support"`` (non-zero at some
        snapshot) and the ``(d, n-1)`` ``"pooled"`` series ``zero-diag G_t x_t``.  Missing
        parts come from one pass, a chunk of :func:`_snapshots_per_chunk` at a time, and
        are kept for every fit with an equal G (by value); the pooled one with its x."""
        k, d, step = x.shape[1] - 1, self.d, _snapshots_per_chunk(self.d)
        mats, xk, kept = self.mats[:k], x[:, :k], self._parts.setdefault((g, k), {})
        if not np.array_equal(kept.get("x"), xk):
            kept.pop("pooled", None)
        shapes = {"stack": ((k, d, d), float), "support": ((d, d), bool), "pooled": ((d, k), float)}
        new = {q: np.zeros(*shapes[q]) for q in parts if q not in kept}
        for s in range(0, k if new else 0, step):
            chunk = apply_neighborhood_fn(g, mats[s: s + step])
            if "stack" in new:
                new["stack"][s: s + step] = chunk
            if "support" in new:
                new["support"] |= (chunk != 0).any(axis=0)
            if "pooled" in new:  # the chunk is private: its diagonal is zeroed in place
                chunk[:, np.arange(d), np.arange(d)] = 0.0
                new["pooled"][:, s: s + step] = (chunk @ xk[:, s: s + step].T[..., None])[..., 0].T
        if new:
            kept.update(new, x=xk.copy())
        return kept

    @property
    def d(self) -> int:
        return self.mats.shape[1]

    def __len__(self) -> int:
        return self.mats.shape[0]

    def __getitem__(self, k: int) -> np.ndarray:
        return self.mats[k]

    def is_binary(self) -> bool:
        return self.mats.dtype == bool or bool(np.isin(self.mats, (0.0, 1.0)).all())

    def drop_first(self, k: int) -> "AdjacencySeries":
        """Series with the first ``k`` snapshots removed."""
        if not 0 <= k <= len(self):
            raise ValueError(f"cannot drop {k} of {len(self)} snapshots")
        return AdjacencySeries._checked(self.mats[k:])

    def take_first(self, k: int) -> "AdjacencySeries":
        if not 0 <= k <= len(self):
            raise ValueError(f"cannot take {k} of {len(self)} snapshots")
        return AdjacencySeries._checked(self.mats[:k])


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
        """A fresh ``bool`` start snapshot: the given one, or one draw per edge
        from its stationary law."""
        if isinstance(self.initial, str):
            return rng.random((self.d, self.d)) < self.stationary_probs()
        return self.initial == 1.0

    def _decisions(self, u: np.ndarray, if_absent=None, flip=None):
        """The transition rule, both outcomes of a step at once from its uniforms: an
        absent edge is present next iff ``if_absent = u < enter``, and a present edge's
        outcome differs from that iff ``flip = (u < stay) ^ if_absent``.  The next
        state is then ``(state & flip) ^ if_absent``.  Written into the given bool
        buffers when given."""
        if_absent = np.less(u, self.enter_prob, out=if_absent)
        flip = np.logical_xor(np.less(u, self.stay_prob, out=flip), if_absent, out=flip)
        return if_absent, flip

    def step(self, state: np.ndarray, uniforms: np.ndarray, *, out=None) -> np.ndarray:
        """One transition given per-edge uniforms; broadcasts over ``(..., d, d)``.

        Edge ``(i, j)`` is present next step iff ``uniforms[i, j] < p`` with
        ``p = stay_prob[i, j]`` when present now, else ``enter_prob[i, j]``,
        computed by :meth:`_decisions`, the rule :meth:`simulate` applies to a
        chunk of draws at once.  Uniforms are consumed one per edge in row-major
        order, so a seeded run is bit-reproducible.  A state that is not ``bool``
        is read as ``state == 1.0``.  The ``bool`` result is written into ``out``
        when given, which may be ``state`` itself.
        """
        state = np.asarray(state)
        if state.shape[-2:] != self.stay_prob.shape:
            raise ValueError(
                f"state shape {state.shape} does not match model dimension {self.stay_prob.shape}"
            )
        if state.dtype != bool:
            state = state == 1.0
        if_absent, flip = self._decisions(uniforms)
        out = np.logical_and(state, flip, out=out)
        return np.logical_xor(out, if_absent, out=out)

    def simulate(self, n: int, seed=None, burn_in: int = 0):
        """Simulate ``n`` snapshots after discarding ``burn_in`` transitions; the
        series holds the ``bool`` walk itself.  ``seed`` is anything
        :func:`numpy.random.default_rng` takes; a Generator is drawn from in place.
        A list of Generators walks one network per Generator, all in one time loop,
        and returns their series in its order, each the one its Generator alone gives."""
        rngs, batched = _generator_batch(seed)
        series = [AdjacencySeries._checked(walk[burn_in + 1:])
                  for walk in self._walk(rngs, burn_in + n)]
        return series if batched else series[0]

    def _walk(self, rngs, steps: int) -> np.ndarray:
        """The boolean paths ``(len(rngs), steps + 1, d, d)``, each the initial state
        drawn from its Generator and ``steps`` transitions, each ``(state & flip) ^
        if_absent`` with the decisions of :meth:`_decisions` taken for a whole chunk of
        :func:`_steps_per_chunk` draws at once, into buffers freed on return.  Every
        Generator draws its own uniforms, in one stream through the chunks, so each
        path is that of one draw.  One time loop steps them all, time-major, so each
        step is one contiguous ``(batch, d, d)`` block; a batch's paths are then
        copied out replicate-major."""
        d, batch = self.d, len(rngs)
        walk = np.empty((steps + 1, batch, d, d), dtype=bool)
        for state, rng in zip(walk[0], rngs):
            state[...] = self.initial_state(rng)
        chunk = max(1, min(steps, _steps_per_chunk(d, batch)))
        draws = np.empty((batch, chunk, d, d))  # one contiguous run of draws a Generator
        if_absent, flip = np.empty((2, chunk, batch, d, d), dtype=bool)
        for s in range(0, steps, chunk):
            m = min(chunk, steps - s)
            for u, rng in zip(draws, rngs):
                rng.random(out=u[:m])
            a, f = self._decisions(draws[:, :m].swapaxes(0, 1), if_absent[:m], flip[:m])
            for now, nxt, f_t, a_t in zip(walk[s:], walk[s + 1:], f, a):
                np.logical_and(now, f_t, out=nxt)
                np.logical_xor(nxt, a_t, out=nxt)
        return np.ascontiguousarray(walk.swapaxes(0, 1))


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
        """``bool`` adjacency matrices ``(..., 3, 3)`` for a state or an array of states."""
        states = np.asarray(states)
        mats = np.zeros(states.shape + (3, 3), dtype=bool)
        mats[..., 0, 2] = states == self.EDGE13
        mats[..., 1, 2] = states != self.EDGE13
        return mats

    def simulate(self, n: int, seed=None, burn_in: int = 0):
        """The series of :meth:`simulate_states`; a list of Generators gives one series
        per Generator, as :meth:`MarkovEdgeNetwork.simulate` does."""
        rngs, batched = _generator_batch(seed)
        series = [AdjacencySeries._checked(self.state_to_matrix(  # binary by construction
            self.simulate_states(n, seed=rng, burn_in=burn_in))) for rng in rngs]
        return series if batched else series[0]

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
        the exact-shortest-path indicator on binary input: row ``j`` marks the
        vertices ``v`` whose shortest directed path ``v -> j`` has length ``k``,
        the walks of length at most ``k`` in ``Ad^T`` minus those of at most ``k - 1``.
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


def apply_neighborhood_fn(fn: NeighborhoodFn, ad) -> np.ndarray:
    """Evaluate a neighborhood descriptor on a snapshot or a ``(..., d, d)`` stack.

    This is the one implementation of the modulation rule: every model,
    fit, forecast and coupling run goes through it.  The result is always
    a fresh C-contiguous float array, so callers may modify it in place.
    A ``bool`` or float stack (anything else is read as floats) is evaluated one
    chunk of :func:`_snapshots_per_chunk` snapshots at a time, each variant
    reading the chunk as it is and writing its G into the chunk's slice of the
    result.  A stack that is not snapshot-major (Fortran order) is first copied
    snapshot-major, each snapshot in its own layout, so a row sum reads a snapshot
    as it would alone: the result is that of the snapshots one by one, bit for bit.
    """
    ad = np.asarray(ad)
    if ad.ndim < 2 or ad.shape[-1] != ad.shape[-2]:
        raise ValueError("snapshot must be a square matrix or a stack of them")
    binary = ad.dtype == bool
    ad = ad if binary else ad.astype(float, copy=False)
    if ad.ndim > 2 and min(map(abs, ad.strides[:-2])) < max(map(abs, ad.strides[-2:])):
        ad = (ad.swapaxes(-1, -2).copy().swapaxes(-1, -2)
              if abs(ad.strides[-2]) < abs(ad.strides[-1]) else ad.copy())
    out = np.empty(ad.shape)
    snaps, into = ad.reshape((-1,) + ad.shape[-2:]), out.reshape((-1,) + ad.shape[-2:])
    step = _snapshots_per_chunk(ad.shape[-1])
    for s in range(0, max(len(snaps), 1), step):  # an empty stack is still checked
        _evaluate(fn, snaps[s: s + step], binary, into[s: s + step])
    return out


def _evaluate(fn: NeighborhoodFn, ad: np.ndarray, binary: bool, out: np.ndarray) -> None:
    """Variant bodies over the trailing two axes: G of the chunk ``ad``, which they only
    read, into the float array ``out``; a ``binary`` (``bool``) chunk needs no scan."""
    if fn.kind in ("sign_poly", "k_stage") and not binary and not np.isin(ad, (0.0, 1.0)).all():
        raise ValueError(f"{fn.kind} requires a binary adjacency matrix")
    if fn.kind == "transpose":
        np.copyto(out, np.ascontiguousarray(ad.swapaxes(-1, -2)))
    elif fn.kind == "transpose_of":
        _evaluate(fn.inner, ad, binary, out.swapaxes(-1, -2))
    elif fn.kind == "sign_poly":
        np.copyto(out, _walks_within(ad.astype(float), fn.k))
    elif fn.kind == "k_stage":
        at = ad.swapaxes(-1, -2).astype(float)
        np.subtract(_walks_within(at, fn.k), _walks_within(at, fn.k - 1), out=out)
    elif fn.kind == "row_normalized_transpose":
        # sums off the strided view (as one snapshot alone sums); one divide of a
        # contiguous transposed copy, then every zero-sum row (signed ones too) to 0
        at = ad.swapaxes(-1, -2)
        sums = at.sum(axis=-1, keepdims=True, dtype=float)
        np.divide(np.ascontiguousarray(at), np.where(sums != 0, sums, 1.0), out=out)
        out[(sums == 0)[..., 0]] = 0.0
    elif fn.kind == "mask":
        w = fn.mask_matrix
        if w.shape != ad.shape[-2:]:
            raise ValueError("mask weight dimension does not match snapshot")
        np.multiply(w, ad, out=out)
    elif fn.kind == "identity_plus":  # I + zero-diagonal inner(Ad)
        _evaluate(fn.inner, ad, binary, out)
        out[..., np.arange(ad.shape[-1]), np.arange(ad.shape[-1])] = 1.0
    else:
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
