import itertools
import math
import tracemalloc

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

from netar import model, netdyn
from netar import (
    AdjacencySeries,
    FlipNetwork,
    MarkovEdgeNetwork,
    NeighborhoodFn,
    apply_neighborhood_fn,
    generate_density_matched_markov,
)


def k_stage(ad, k):
    """The k-stage G of ``ad`` by the kernel, as the BFS oracle tests read it."""
    return apply_neighborhood_fn(NeighborhoodFn.k_stage(k), ad)


def bfs_stage_oracle(ad, k):
    """Entry (j, v) = 1 iff the shortest directed walk v -> j has length exactly k.

    Walks of length >= 1 only, so a vertex can be its own k-stage neighbor
    through a cycle.
    """
    d = ad.shape[0]
    out = np.zeros((d, d))
    adj = [np.flatnonzero(ad[v]) for v in range(d)]
    for v in range(d):
        dist = {}
        frontier = list(adj[v])
        for u in frontier:
            dist[u] = 1
        depth = 1
        while frontier and depth < d + 1:
            depth += 1
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = depth
                        nxt.append(w)
            frontier = nxt
        for j, ln in dist.items():
            if ln == k:
                out[j, v] = 1.0
    return out


def neighborhood_oracle(fn, ad):
    """Per-snapshot G on one (d, d) matrix: the oracle for the batched kernel."""
    ad = np.asarray(ad, dtype=float)
    if fn.kind == "transpose":
        return ad.T.copy()
    if fn.kind == "transpose_of":
        return neighborhood_oracle(fn.inner, ad).T
    if fn.kind == "sign_poly":
        at = ad.astype(np.int64)
        acc = np.eye(ad.shape[0], dtype=np.int64)
        total = np.zeros_like(acc)
        for _ in range(fn.k):
            acc = acc @ at
            total += acc
        return (total > 0).astype(float)
    if fn.kind == "k_stage":
        at = ad.T.astype(np.int64)
        power = np.linalg.matrix_power(at, fn.k)
        shorter = np.zeros_like(at)
        acc = np.eye(at.shape[0], dtype=np.int64)
        for _ in range(fn.k - 1):
            acc = acc @ at
            shorter += acc
        return np.clip((power > 0).astype(np.int64) - (shorter > 0), 0, None).astype(float)
    if fn.kind == "row_normalized_transpose":
        at = ad.T
        sums = at.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(sums != 0, at / np.where(sums != 0, sums, 1.0), 0.0)
    if fn.kind == "mask":
        return fn.mask_matrix * ad
    if fn.kind == "identity_plus":
        inner = neighborhood_oracle(fn.inner, ad).copy()
        np.fill_diagonal(inner, 0.0)
        return np.eye(ad.shape[0]) + inner
    raise AssertionError(fn.kind)


def zero_diag_oracle(fn, ad):
    m = neighborhood_oracle(fn, ad).copy()
    np.fill_diagonal(m, 0.0)
    return m


def zeroed(out):
    """A copy of a kernel output with the diagonal of every matrix zeroed."""
    out, idx = out.copy(), np.arange(out.shape[-1])
    out[..., idx, idx] = 0.0
    return out


def kernel_variants(d, rng):
    """Every variant plus the identity; the flag says whether it needs binary input."""
    return [
        (NeighborhoodFn.transpose(), False),
        (NeighborhoodFn.identity(), False),
        (NeighborhoodFn.transpose_of(NeighborhoodFn.row_normalized_transpose()), False),
        (NeighborhoodFn.sign_poly(2), True),
        (NeighborhoodFn.k_stage(2), True),
        (NeighborhoodFn.row_normalized_transpose(), False),
        (NeighborhoodFn.mask(rng.uniform(-1, 1, (d, d))), False),
        (NeighborhoodFn.identity_plus(NeighborhoodFn.transpose()), False),
        (NeighborhoodFn.transpose_of(NeighborhoodFn.identity_plus(NeighborhoodFn.transpose())),
         False),
        (NeighborhoodFn.identity_plus(NeighborhoodFn.k_stage(1)), True),
    ]


def per_snapshot(oracle, fn, ad):
    """``oracle`` on each snapshot of a ``(..., d, d)`` stack, empty stacks included."""
    d = ad.shape[-1]
    return np.array([oracle(fn, a) for a in ad.reshape(-1, d, d)], dtype=float).reshape(ad.shape)


def set_chunk(monkeypatch, size):
    """Every chunked walk over a path, netdyn's and the simulator's, at ``size`` snapshots."""
    for module in (netdyn, model):
        monkeypatch.setattr(module, "_snapshots_per_chunk", lambda d: size)


def chunk_of(monkeypatch, chunk, shape):
    """G's chunk at 1, 7 or every snapshot of a stack of leading ``shape`` ("T")."""
    set_chunk(monkeypatch, max(math.prod(shape), 1) if chunk == "T" else chunk)


class TestBoolStacks:
    """A bool stack is kept as it is, and G reads it one chunk at a time into a float
    result equal to the per-snapshot oracle on its float copy, at every chunk size,
    leaving the stack as it was."""

    @pytest.mark.parametrize("chunk", [1, 7, "T"])
    @pytest.mark.parametrize("shape", [(), (0,), (20,), (3, 5)],
                             ids=["single", "empty", "stack", "4d-stack"])
    @pytest.mark.parametrize("d", [1, 4, 33])
    def test_g_on_bool_matches_its_float_copy(self, monkeypatch, d, shape, chunk):
        rng = np.random.default_rng(10 * d + len(shape))
        on = rng.random(shape + (d, d)) < 0.4
        before = on.copy()
        chunk_of(monkeypatch, chunk, shape)
        for fn, _ in kernel_variants(d, rng):
            got = apply_neighborhood_fn(fn, on)
            assert got.dtype == float and got.flags.c_contiguous
            assert np.array_equal(got, per_snapshot(neighborhood_oracle, fn, on)), fn.kind
            assert np.array_equal(on, before), f"{fn.kind} wrote into its input"

    @pytest.mark.parametrize("fn", [NeighborhoodFn.sign_poly(2), NeighborhoodFn.k_stage(2),
                                    NeighborhoodFn.identity_plus(NeighborhoodFn.k_stage(1))],
                             ids=["sign_poly", "k_stage", "identity_plus_k_stage"])
    def test_only_float_input_is_scanned_for_binary_entries(self, monkeypatch, fn):
        # a chunk converted from a bool stack is binary by its dtype
        on = np.random.default_rng(12).random((9, 5, 5)) < 0.4
        expected = per_snapshot(neighborhood_oracle, fn, on)
        scans, isin = [], np.isin
        monkeypatch.setattr(np, "isin", lambda *a, **k: scans.append(a) or isin(*a, **k))
        assert np.array_equal(apply_neighborhood_fn(fn, on), expected) and scans == []
        assert np.array_equal(apply_neighborhood_fn(fn, on * 1.0), expected) and scans
        bad = on * 1.0
        bad[4, 1, 2] = 0.5
        with pytest.raises(ValueError, match="requires a binary adjacency matrix"):
            apply_neighborhood_fn(fn, bad)

    def test_series_keeps_a_bool_stack_without_a_scan_or_a_copy(self, monkeypatch):
        on = np.random.default_rng(5).random((6, 3, 3)) < 0.5
        ads = AdjacencySeries(on)
        assert ads.mats is on
        monkeypatch.setattr(np, "isin", None)  # is_binary reads the dtype
        assert ads.is_binary()
        assert AdjacencySeries(on.astype(int)).mats.dtype == float


def nested_variants(d, rng):
    """:func:`kernel_variants` and more nestings of ``identity_plus`` and ``transpose_of``."""
    rn = NeighborhoodFn.row_normalized_transpose()
    mask = NeighborhoodFn.mask(rng.uniform(-1, 1, (d, d)))
    more = [NeighborhoodFn.transpose_of(NeighborhoodFn.identity_plus(rn)),
            NeighborhoodFn.identity_plus(NeighborhoodFn.transpose_of(mask)),
            NeighborhoodFn.transpose_of(NeighborhoodFn.transpose_of(rn)),
            NeighborhoodFn.identity_plus(NeighborhoodFn.identity_plus(rn)),
            NeighborhoodFn.transpose_of(NeighborhoodFn.sign_poly(3))]
    return kernel_variants(d, rng) + [(fn, fn.inner.kind == "sign_poly") for fn in more]


def in_layout(ad, layout):
    """``ad`` stored row-major, Fortran-ordered, or each snapshot column-major."""
    if layout == "F":
        return np.asfortranarray(ad)
    return ad.swapaxes(-1, -2).copy().swapaxes(-1, -2) if layout == "transposed" else ad.copy()


def one_by_one(fn, ad):
    """G of each ``(d, d)`` snapshot of ``ad`` on its own, a view in the stack's layout."""
    out = np.empty(ad.shape)
    for idx in np.ndindex(ad.shape[:-2]):
        out[idx] = apply_neighborhood_fn(fn, ad[idx])
    return out


def same_bits(first, *others):
    """Equal bytes, so equal values and signbits (``-0.0`` included)."""
    return all(r.tobytes() == first.tobytes() for r in others)


class TestGBitsAcrossDtypesAndLayouts:
    """G's bits do not depend on how the snapshots come: a bool stack, its float 0/1
    copy and the snapshots one by one give the same bytes, and so do a signed weighted
    stack (with -0.0 entries and zero-sum rows) and its snapshots, in C, Fortran and
    column-major-snapshot layouts, 2-D and 4-D, over several chunks.  The input is left
    as it was and the result owns its memory."""

    shapes = st.sampled_from([(), (1,), (7,), (2, 3)])

    def check(self, fn, ad, *peers):
        before = ad.tobytes()
        got = apply_neighborhood_fn(fn, ad)
        assert got.flags.owndata and got.flags.c_contiguous and got.dtype == float
        assert same_bits(got, one_by_one(fn, ad), *peers), fn
        assert ad.tobytes() == before, f"{fn.kind} wrote into its input"

    def test_bool_float_and_one_by_one(self, monkeypatch):
        @hyp.settings(max_examples=60, deadline=None, derandomize=True)
        @hyp.given(d=st.integers(1, 12), shape=self.shapes, chunk=st.integers(1, 4),
                   layout=st.sampled_from(["C", "F", "transposed"]),
                   density=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
        def run(d, shape, chunk, layout, density, seed):
            set_chunk(monkeypatch, chunk)
            rng = np.random.default_rng(seed)
            on = in_layout(rng.random(shape + (d, d)) < density, layout)
            for fn, _ in nested_variants(d, rng):
                self.check(fn, on, apply_neighborhood_fn(fn, on * 1.0))

        run()

    def test_signed_weights_and_one_by_one(self, monkeypatch):
        # from d = 8 on, a row sum may be pairwise, in an order that depends on the layout
        @hyp.settings(max_examples=60, deadline=None, derandomize=True)
        @hyp.given(d=st.integers(2, 40), shape=self.shapes, chunk=st.integers(1, 4),
                   layout=st.sampled_from(["C", "F", "transposed"]),
                   density=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
        def run(d, shape, chunk, layout, density, seed):
            set_chunk(monkeypatch, chunk)
            rng = np.random.default_rng(seed)
            # -0.0 where a negative weight meets an absent edge
            w = rng.uniform(-1, 1, shape + (d, d)) * (rng.random(shape + (d, d)) < density)
            w[..., :, 0] = 0.0  # G's row 0 sums to 0 with non-zero entries
            w[..., 0, 0], w[..., d - 1, 0] = 0.5, -0.5
            w[..., :, 1] = -0.0
            w = in_layout(w, layout)
            for fn, needs_binary in nested_variants(d, rng):
                if not needs_binary:
                    self.check(fn, w)

        run()

    @pytest.mark.parametrize("fn", [
        NeighborhoodFn.transpose(), NeighborhoodFn.identity(),
        NeighborhoodFn.row_normalized_transpose(), NeighborhoodFn.mask(np.full((33, 33), 0.5)),
        NeighborhoodFn.identity_plus(NeighborhoodFn.transpose()),
        NeighborhoodFn.transpose_of(NeighborhoodFn.row_normalized_transpose()),
    ], ids=["transpose", "identity", "row_normalized", "mask", "identity_plus", "transpose_of"])
    def test_a_bool_stack_is_evaluated_with_no_float_copy_per_chunk(self, fn):
        # sign_poly and k_stage convert to floats for their matmuls, so they are not here
        d = 33
        chunk_bytes = 8 * d * d * netdyn._snapshots_per_chunk(d)
        on = np.random.default_rng(3).random((3 * netdyn._snapshots_per_chunk(d) + 5, d, d)) < 0.3
        apply_neighborhood_fn(fn, on)  # lazy imports and first-touch allocations stay outside
        tracemalloc.start()
        out = apply_neighborhood_fn(fn, on)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < out.nbytes + chunk_bytes // 2, (peak - out.nbytes, chunk_bytes)


class TestNeighborhoodKernel:
    """The batched kernel against the per-snapshot oracle, bit for bit, on float
    stacks (weighted and signed where G allows it) of every layout, evaluated one
    chunk at a time at every chunk size."""

    @pytest.mark.parametrize("shape", [(), (0,), (1,), (7,), (2, 3)],
                             ids=["single", "empty", "one-stack", "stack", "4d-stack"])
    @pytest.mark.parametrize("d", [1, 2, 5, 33])
    def test_matches_per_snapshot_oracle(self, monkeypatch, shape, d):
        rng = np.random.default_rng(1000 * d + len(shape))
        binary = (rng.random(shape + (d, d)) < 0.4).astype(float)
        signed = rng.uniform(-1, 1, shape + (d, d)) * binary
        cases = itertools.product([1, 7, "T"], ["C", "transposed"], kernel_variants(d, rng))
        for chunk, layout, (fn, needs_binary) in cases:
            chunk_of(monkeypatch, chunk, shape)
            ad = binary if needs_binary else signed
            if layout == "transposed":  # each snapshot stored column-major, a non-contiguous view
                ad = ad.swapaxes(-1, -2).copy().swapaxes(-1, -2)
            before = ad.copy()
            out = apply_neighborhood_fn(fn, ad)
            for got, oracle in ((out, neighborhood_oracle), (zeroed(out), zero_diag_oracle)):
                expected = per_snapshot(oracle, fn, ad)
                assert got.shape == ad.shape
                assert np.array_equal(got, expected), (fn.kind, oracle.__name__, chunk, layout)
            assert out.flags.c_contiguous
            assert not np.shares_memory(out, ad)
            assert np.array_equal(ad, before), "kernel wrote into its input"

    def test_identity_zero_diag_leaves_caller_network_alone(self):
        # transpose_of(transpose) is a view of the chunk it reads, so zeroing
        # the diagonal of the result must not reach the input
        ad = np.ones((4, 3, 3))
        out = apply_neighborhood_fn(NeighborhoodFn.identity(), ad)
        out[..., np.arange(3), np.arange(3)] = 0.0
        assert (ad == 1.0).all()
        assert np.array_equal(out, np.ones((4, 3, 3)) - np.eye(3))

    def test_non_contiguous_stack(self):
        rng = np.random.default_rng(5)
        ad = rng.uniform(-1, 1, (6, 4, 4))[::2].swapaxes(-1, -2)
        fn = NeighborhoodFn.row_normalized_transpose()
        out = apply_neighborhood_fn(fn, ad)
        assert out.flags.c_contiguous
        assert np.array_equal(zeroed(out), np.stack([zero_diag_oracle(fn, a) for a in ad]))

    @pytest.mark.parametrize("layout", ["2d", "stack", "fortran"])
    def test_row_normalizer_is_the_literal_rule(self, layout):
        # divide where the row sum is not 0, else 0, signbits included, on signed
        # weights with -0.0 entries and non-zero rows that sum to 0; at d < 8
        # every summation order is the sequential one, so the sums are exact peers
        rng = np.random.default_rng(11)
        d = 6
        ad = rng.uniform(-1, 1, (9, d, d)) * (rng.random((9, d, d)) < 0.6)  # -0.0 where negative
        ad[:, :, 0] = [0.25, 0.5, 0.0, -0.75, -0.0, 0.0]  # G's row 0 sums to 0
        ad[:, :, 1] = -0.0
        ad[::2, :, 2] = [0.5, -0.5, 0.0, 0.0, 0.0, 0.0]
        ad = {"2d": ad[3], "stack": ad, "fortran": np.asfortranarray(ad)}[layout]
        before = ad.tobytes()
        out = apply_neighborhood_fn(NeighborhoodFn.row_normalized_transpose(), ad)
        expected = np.zeros((9, d, d))
        for k, snap in enumerate(ad.reshape(-1, d, d)):
            for i in range(d):
                total = sum(snap[:, i])
                for j in range(d):
                    expected[k, i, j] = snap[j, i] / total if total != 0 else 0.0
        expected = expected[: ad.size // (d * d)].reshape(ad.shape)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))
        assert np.signbit(expected).any() and (expected[..., 0, :] == 0).all()
        assert ad.tobytes() == before and not np.shares_memory(out, ad)

    def test_rejects_non_square_and_mask_mismatch(self):
        with pytest.raises(ValueError, match="square"):
            apply_neighborhood_fn(NeighborhoodFn.transpose(), np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="square"):
            apply_neighborhood_fn(NeighborhoodFn.transpose(), np.zeros(3))
        with pytest.raises(ValueError, match="mask"):
            apply_neighborhood_fn(NeighborhoodFn.mask(np.eye(2)), np.zeros((5, 3, 3)))


class TestAdjacencySeries:
    def test_rejects_out_of_range_weights(self):
        with pytest.raises(ValueError, match="\\[-1, 1\\]"):
            AdjacencySeries(np.full((2, 3, 3), 1.5))

    def test_rejects_non_finite_weights_naming_the_entry(self):
        mats = np.zeros((3, 2, 2))
        mats[2, 0, 1] = np.nan
        with pytest.raises(ValueError, match="snapshot 2, entry \\(1, 2\\)"):
            AdjacencySeries(mats)
        mats[2, 0, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            AdjacencySeries(mats)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            AdjacencySeries(np.zeros((2, 3, 4)))

    def test_views_skip_the_weight_scan(self):
        # the scan allocates an |arr| copy of the whole stack; views of a checked
        # series are valid already, so they must not allocate one
        import tracemalloc

        rng = np.random.default_rng(3)
        ads = AdjacencySeries(rng.uniform(-1, 1, (200, 40, 40)))
        stack_bytes = ads.mats.nbytes
        tracemalloc.start()
        head, tail = ads.take_first(150), ads.drop_first(50)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < stack_bytes / 20
        assert np.shares_memory(head.mats, ads.mats) and np.shares_memory(tail.mats, ads.mats)
        assert (len(head), len(tail)) == (150, 150)


class TestMarkovEdges:
    def test_simulate_skips_the_weight_scan(self):
        # the float draws come in chunks of about 1 MiB; the output is the bool
        # walk itself, binary by its dtype, so no float copy and no |arr| scan
        # exist on top.  The bound is 1.5 float stacks of the output, in bytes
        import tracemalloc

        stay, enter = np.full((40, 40), 0.9), np.full((40, 40), 0.1)
        model = MarkovEdgeNetwork(stay, enter)
        model.simulate(200, seed=4)  # numpy's lazy imports on a first seeded draw stay outside
        tracemalloc.start()
        ads = model.simulate(200, seed=4)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert ads.mats.dtype == bool
        assert peak < 1.5 * ads.mats.size * 8
        assert np.isin(ads.mats, (0.0, 1.0)).all()

    @pytest.mark.parametrize("d", [1, 4, 33, 100])
    @pytest.mark.parametrize("burn_in", [0, 6])
    @pytest.mark.parametrize("initial", ["stationary", "explicit"])
    @pytest.mark.parametrize("pinned", [None, "absorbing", "forced"])
    def test_simulate_matches_iterated_step(self, d, burn_in, initial, pinned):
        # simulate draws in chunks (13 snapshots at d=100, so 30 or 36 steps
        # span several chunks and a remainder) and steps each chunk at once;
        # iterating the literal transition over one draw of every uniform,
        # after the same initial draw, is the oracle
        rng = np.random.default_rng(d + burn_in)
        stay, enter = rng.random((d, d)), rng.random((d, d))
        if pinned:  # every other edge absorbs (stay 1, enter 0) or is forced (stay 0, enter 1)
            stay.flat[::2], enter.flat[::2] = (1.0, 0.0) if pinned == "absorbing" else (0.0, 1.0)
        start = "stationary" if initial == "stationary" else (rng.random((d, d)) < 0.5) * 1.0
        model = MarkovEdgeNetwork(stay, enter, initial=start)
        n, seed = 30, 100 + d
        ads = model.simulate(n, seed=seed, burn_in=burn_in)
        oracle_rng = np.random.default_rng(seed)
        state = model.initial_state(oracle_rng)
        assert state.dtype == bool
        path = []
        for u in oracle_rng.random((burn_in + n, d, d)):
            state = markov_step_oracle(stay, enter, state, u)
            path.append(state)
        assert np.array_equal(ads.mats, np.stack(path[burn_in:]))
        pinned_path = ads.mats.reshape(n, -1)[:, ::2]
        if pinned == "absorbing":
            assert (pinned_path == pinned_path[0]).all()
        elif pinned == "forced":  # a forced edge changes at every step
            assert (pinned_path[1:] == 1.0 - pinned_path[:-1]).all()

    @pytest.mark.parametrize("dtype", [bool, float])
    @pytest.mark.parametrize("pinned", [None, "absorbing", "forced"])
    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)], ids=["single", "stack", "4d-stack"])
    def test_step_matches_the_oracle(self, shape, pinned, dtype):
        # bool and 0/1 float states, one state against a pair of uniform stacks
        # (the coupled copies at time 0), and out= aliasing the state
        d = 5
        rng = np.random.default_rng(len(shape))
        stay, enter = rng.random((d, d)), rng.random((d, d))
        if pinned:
            stay.flat[::2], enter.flat[::2] = (1.0, 0.0) if pinned == "absorbing" else (0.0, 1.0)
        model = MarkovEdgeNetwork(stay, enter)
        state = (rng.random(shape + (d, d)) < 0.5).astype(dtype)
        u, pair = rng.random(shape + (d, d)), rng.random((2,) + shape + (d, d))
        for uniforms in (u, pair):
            got = model.step(state, uniforms)
            assert got.dtype == bool and got.shape == uniforms.shape
            assert np.array_equal(got, markov_step_oracle(stay, enter, state, uniforms))
        inplace = state.copy()
        assert model.step(inplace, u, out=inplace) is inplace
        assert np.array_equal(inplace, markov_step_oracle(stay, enter, state, u))
        nets = np.zeros((2,) + state.shape, dtype=bool)
        nets[0] = state
        assert model.step(nets[0], pair, out=nets) is nets
        assert np.array_equal(nets, markov_step_oracle(stay, enter, state, pair))

    def test_degenerate_probabilities_absorb(self):
        # stay=1, enter=0 with the edge on: persists forever
        m = MarkovEdgeNetwork(np.ones((2, 2)), np.zeros((2, 2)), initial=np.ones((2, 2)))
        rng = np.random.default_rng(0)
        state = m.initial_state(rng)
        for _ in range(50):
            state = m.step(state, rng.random((2, 2)))
        assert (state == 1.0).all()

    def test_example1_edge_frequency_matches_two_state_stationary_law(self):
        # edge (1,1): stay 0.95, enter 0.05 -> pi = 0.05 / (0.05 + 0.05) = 0.5
        stay, enter = example1_network_matrices()
        m = MarkovEdgeNetwork(stay, enter)
        ads = m.simulate(100_000, seed=7, burn_in=100)
        freq = ads.mats[:, 0, 0].mean()
        assert freq == pytest.approx(0.5, abs=0.01)

    def test_iid_edges_have_no_memory(self):
        m = MarkovEdgeNetwork(np.full((1, 1), 0.5), np.full((1, 1), 0.5))
        ads = m.simulate(100_000, seed=3)
        z = ads.mats[:, 0, 0] - 0.5
        lag1 = (z[1:] * z[:-1]).mean() / (z * z).mean()
        assert abs(lag1) < 0.01

    def test_stationary_frequency_within_three_mc_ses(self):
        stay, enter = example1_network_matrices()
        m = MarkovEdgeNetwork(stay, enter)
        n = 100_000
        ads = m.simulate(n, seed=11, burn_in=200)
        pi = m.stationary_probs()
        freq = ads.mats.mean(axis=0)
        rho = stay - enter
        # asymptotic variance of a two-state chain mean
        var = pi * (1 - pi) * (1 + rho) / np.clip(1 - rho, 1e-12, None) / n
        se = np.sqrt(var)
        active = (pi > 0) & (pi < 1)
        assert (np.abs(freq - pi)[active] <= 3 * se[active] + 1e-9).all()

    def test_step_broadcasts_over_a_stack(self):
        stay, enter = example1_network_matrices()
        m = MarkovEdgeNetwork(stay, enter)
        rng = np.random.default_rng(8)
        states = (rng.random((5, 4, 4)) < 0.5).astype(float)
        u = rng.random((5, 4, 4))
        assert np.array_equal(m.step(states, u), np.stack([m.step(s, v) for s, v in zip(states, u)]))

    def test_dimension_mismatch_rejected(self):
        m = MarkovEdgeNetwork(np.ones((2, 2)) * 0.5, np.ones((2, 2)) * 0.5)
        with pytest.raises(ValueError, match="dimension"):
            m.step(np.zeros((3, 3)), np.zeros((3, 3)))


def markov_step_oracle(stay, enter, state, u):
    """The literal Markov transition: an edge is present next iff ``u`` falls below
    its stay probability when present now, else below its enter probability."""
    return u < np.where(state == 1, stay, enter)


def flip_step_oracle(persist, state, u):
    """The scalar flip transition: from edge (1,3) stay iff u > 1 - persist,
    from edge (2,3) move to (1,3) iff u > persist."""
    if state == FlipNetwork.EDGE13:
        return FlipNetwork.EDGE13 if u > 1.0 - persist else FlipNetwork.EDGE23
    return FlipNetwork.EDGE13 if u > persist else FlipNetwork.EDGE23


class TestFlipNetwork:
    def test_step_broadcasts_over_states(self):
        rng = np.random.default_rng(17)
        net = FlipNetwork(0.7)
        states = rng.integers(0, 2, (4, 6)).astype(np.int8)
        u = rng.random((4, 6))
        out = net.step(states, u)
        assert out.dtype == np.int8
        expected = [[flip_step_oracle(0.7, s, v) for s, v in zip(rs, ru)]
                    for rs, ru in zip(states, u)]
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("persist", [0.0, 0.3, 0.5, 0.95, 1.0])
    @pytest.mark.parametrize("initial", [FlipNetwork.EDGE13, FlipNetwork.EDGE23])
    def test_states_match_sequential_chain(self, persist, initial):
        # below persist = 1/2 a step can swap the two states, above it only keep or reset
        net = FlipNetwork(persist, initial)
        for burn_in in (0, 7):
            u = np.random.default_rng(3).random(burn_in + 400)
            state, path = initial, []
            for v in u:
                state = flip_step_oracle(persist, state, v)
                path.append(state)
            states = net.simulate_states(400, seed=3, burn_in=burn_in)
            assert states.dtype == np.int8
            assert np.array_equal(states, path[burn_in:])

    def test_flip_thresholds(self):
        fn = FlipNetwork(0.95)
        assert fn.step(FlipNetwork.EDGE13, 0.5) == FlipNetwork.EDGE13
        assert fn.step(FlipNetwork.EDGE23, 0.96) == FlipNetwork.EDGE13
        assert fn.step(FlipNetwork.EDGE13, 0.04) == FlipNetwork.EDGE23
        assert fn.step(FlipNetwork.EDGE23, 0.5) == FlipNetwork.EDGE23

    def test_simulate_is_state_to_matrix_of_states(self):
        net = FlipNetwork(0.9)
        states = net.simulate_states(50, seed=4, burn_in=7)
        mats = net.simulate(50, seed=4, burn_in=7).mats
        assert np.array_equal(mats, net.state_to_matrix(states))
        assert np.array_equal(net.state_to_matrix(FlipNetwork.EDGE23),
                              np.array([[0, 0, 0], [0, 0, 1.0], [0, 0, 0]]))

    def test_simulate_skips_the_weight_scan(self):
        # the output is a bool stack, binary by construction; scanning it again
        # would allocate an |arr| copy the size of the stack.  The bound is 1.6
        # float stacks of the output, in bytes
        import tracemalloc

        tracemalloc.start()
        ads = FlipNetwork(0.9).simulate(100_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert ads.mats.dtype == bool
        assert peak < 1.6 * ads.mats.size * 8

    def test_exactly_one_edge_present(self):
        ads = FlipNetwork(0.95).simulate(500, seed=5)
        assert (ads.mats.sum(axis=(1, 2)) == 1.0).all()
        assert (ads.mats[:, 0, 2] != ads.mats[:, 1, 2]).all()

    def test_indicator_autocovariance_decays_geometrically(self):
        # Cov(ind_{t+h}, ind_t) = 0.9^h / 4 for the 0.95-persistent flip chain
        states = FlipNetwork(0.95).simulate_states(1_000_000, seed=13, burn_in=500)
        ind = (states == 0).astype(float)
        z = ind - ind.mean()
        n = len(z)
        for h in range(1, 11):
            cov = (z[h:] * z[:-h]).sum() / n
            assert cov == pytest.approx(0.9 ** h / 4.0, abs=0.005)


class TestKStage:
    def test_empty_graph(self):
        for k in (1, 2, 3):
            assert (k_stage(np.zeros((4, 4)), k) == 0).all()

    def test_chain_matches_bfs_oracle(self):
        ad = np.zeros((3, 3))
        ad[0, 1] = 1
        ad[1, 2] = 1
        got = k_stage(ad, 2)
        assert np.array_equal(got, bfs_stage_oracle(ad, 2))
        assert got[2, 0] == 1.0

    def test_matches_bfs_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            d = rng.integers(2, 13)
            ad = (rng.random((d, d)) < rng.uniform(0.05, 0.5)).astype(float)
            k = int(rng.integers(1, 5))
            assert np.array_equal(k_stage(ad, k), bfs_stage_oracle(ad, k))

    def test_stages_are_disjoint(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = rng.integers(2, 10)
            ad = (rng.random((d, d)) < 0.3).astype(float)
            mats = [k_stage(ad, k) for k in range(1, 5)]
            for a in range(4):
                for b in range(a + 1, 4):
                    assert (mats[a] * mats[b] == 0).all()

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            NeighborhoodFn.k_stage(0)


class TestNeighborhoodFns:
    def test_transpose_on_identity(self):
        assert np.array_equal(NeighborhoodFn.transpose().apply(np.eye(3)), np.eye(3))

    def test_row_normalized_transpose_hand_case(self):
        ad = np.zeros((3, 3))
        ad[0, 2] = 1.0
        ad[1, 2] = 1.0
        out = NeighborhoodFn.row_normalized_transpose().apply(ad)
        assert np.allclose(out[2], [0.5, 0.5, 0.0])
        assert np.allclose(out[:2], 0.0)

    def test_sign_poly_matches_integer_power_oracle(self):
        ad = np.zeros((3, 3))
        ad[0, 1] = 1
        ad[1, 2] = 1
        out = NeighborhoodFn.sign_poly(2).apply(ad)
        oracle = np.sign(ad.astype(np.int64) + np.linalg.matrix_power(ad.astype(np.int64), 2))
        assert np.array_equal(out, oracle)
        assert out[0, 2] == 1.0

    def test_sign_poly_random_graphs_match_power_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = rng.integers(2, 9)
            ad = (rng.random((d, d)) < 0.35).astype(np.int64)
            k = int(rng.integers(1, 4))
            total = np.zeros((d, d), dtype=np.int64)
            for i in range(1, k + 1):
                total += np.linalg.matrix_power(ad, i)
            assert np.array_equal(NeighborhoodFn.sign_poly(k).apply(ad.astype(float)),
                                  np.sign(total))

    def test_max_norm_bounded_for_all_variants(self):
        rng = np.random.default_rng(17)
        variants = [
            NeighborhoodFn.transpose(),
            NeighborhoodFn.identity(),
            NeighborhoodFn.sign_poly(2),
            NeighborhoodFn.k_stage(2),
            NeighborhoodFn.row_normalized_transpose(),
            NeighborhoodFn.identity_plus(NeighborhoodFn.k_stage(2)),
        ]
        for _ in range(100):
            d = rng.integers(2, 8)
            ad = (rng.random((d, d)) < 0.4).astype(float)
            for fn in variants:
                out = fn.apply(ad)
                assert np.abs(out).max() <= 1.0 + 1e-12
        mask = NeighborhoodFn.mask(rng.uniform(-1, 1, (5, 5)) / 5)
        weighted = rng.uniform(-1, 1, (5, 5))
        assert np.abs(mask.apply(weighted)).max() <= 1.0

    def test_row_normalized_infty_norm_exact(self):
        rng = np.random.default_rng(23)
        fn = NeighborhoodFn.row_normalized_transpose()
        for _ in range(100):
            d = rng.integers(2, 10)
            ad = (rng.random((d, d)) < 0.3).astype(float)
            rows = fn.apply(ad).sum(axis=1)
            assert ((np.abs(rows - 1.0) < 1e-12) | (np.abs(rows) < 1e-12)).all()

    def test_mask_infty_norm_certificate(self):
        w = np.ones((3, 3)) * 0.6  # row sums 1.8 > 1
        assert not NeighborhoodFn.mask(w).infty_norm_certified()
        assert NeighborhoodFn.mask(np.eye(3) * 0.9).infty_norm_certified()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5])
    def test_mask_weight_out_of_range_names_the_entry(self, bad):
        w = [[0.5, bad], [0.2, 0.1]]
        msg = r"mask weights must be finite and lie in \[-1, 1\]; found %s at entry \(1, 2\)"
        with pytest.raises(ValueError, match=msg % bad):
            NeighborhoodFn.mask(w)
        with pytest.raises(ValueError, match=msg % bad):
            NeighborhoodFn.from_json({"kind": "mask", "w": w})

    def test_descriptor_json_roundtrip(self):
        fns = [
            NeighborhoodFn.identity(),
            NeighborhoodFn.sign_poly(3),
            NeighborhoodFn.mask(np.eye(2) * 0.5),
            NeighborhoodFn.identity_plus(NeighborhoodFn.k_stage(1)),
        ]
        for fn in fns:
            assert NeighborhoodFn.from_json(fn.to_json()) == fn


class TestDensityMatchedGenerator:
    def test_solves_stationary_equations(self):
        m = generate_density_matched_markov(10, 0.5, 0.9)
        assert np.allclose(m.stay_prob, 0.95)
        assert np.allclose(m.enter_prob, 0.05)

    def test_zero_persistence_is_iid(self):
        m = generate_density_matched_markov(4, 0.3, 0.0)
        assert np.allclose(m.stay_prob, m.enter_prob)
        assert np.allclose(m.stay_prob, 0.3)

    def test_simulated_density_matches_target(self):
        m = generate_density_matched_markov(100, 0.05, 0.9)
        ads = m.simulate(10_000, seed=19, burn_in=100)
        assert ads.mats.mean() == pytest.approx(0.05, abs=0.005)

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(ValueError):
            generate_density_matched_markov(5, 1.5, 0.5)


def example1_network_matrices():
    stay = np.array([
        [0.95, 0.70, 0.99, 0.0],
        [0.0, 0.95, 0.70, 0.0],
        [0.99, 0.50, 0.95, 0.95],
        [0.30, 0.0, 0.0, 0.95],
    ])
    enter = np.array([
        [0.05, 0.10, 0.01, 0.0],
        [0.0, 0.05, 0.30, 0.0],
        [0.01, 0.50, 0.05, 0.05],
        [0.30, 0.0, 0.0, 0.05],
    ])
    return stay, enter


class TestDenseWalks:
    # on the complete graph with loops, raw walk counts 100**k overflow int64 by k = 10
    ones = np.ones((100, 100))

    def test_k_stage_beyond_one_is_empty(self):
        assert (k_stage(self.ones, 1) == 1.0).all()
        assert not k_stage(self.ones, 13).any()

    def test_sign_poly_is_all_ones(self):
        assert (apply_neighborhood_fn(NeighborhoodFn.sign_poly(12), self.ones) == 1.0).all()
