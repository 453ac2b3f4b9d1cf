import numpy as np
import pytest

from netar import (
    AdjacencySeries,
    FlipNetwork,
    InnovationSpec,
    LnarSpec,
    MarkovEdgeNetwork,
    NarSpec,
    NeighborhoodFn,
    apply_neighborhood_fn,
    build_companion,
    check_stationarity_lnar,
    check_stationarity_nar,
    ma_infinity_coeffs,
    sample_acf,
    simulate_gnlp_truncated,
    simulate_lnar,
    simulate_nar,
)
from netar import model
from netar.model import _nar_coefficients, snapshot_spectral_radii

from test_netdyn import example1_network_matrices, kernel_variants, zero_diag_oracle


def example1_alpha():
    return np.array([
        [0.25, 0.7, 0.0, 0.0],
        [0.0, 0.25, 0.7, 0.0],
        [0.0, 0.0, 0.25, 0.7],
        [0.7, 0.0, 0.0, 0.25],
    ])


def random_binary_ads(rng, d, n, density=0.4):
    return AdjacencySeries((rng.random((n, d, d)) < density).astype(float))


def random_stationary_nar(rng, d, p):
    """Random spec scaled so the absolute companion has spectral radius < 0.9."""
    A = []
    for _ in range(p):
        raw = rng.uniform(-1, 1, (d, d))
        A.append(raw)
    total = sum(np.abs(a).sum(axis=1).max() for a in A)
    A = [a * (0.85 / max(total, 1e-9)) for a in A]
    g_pool = [
        NeighborhoodFn.transpose(),
        NeighborhoodFn.identity(),
        NeighborhoodFn.sign_poly(2),
        NeighborhoodFn.k_stage(2),
        NeighborhoodFn.row_normalized_transpose(),
    ]
    G = [g_pool[rng.integers(len(g_pool))] for _ in range(p)]
    return NarSpec(p, A, G)


def direct_recursion(spec, ads, eps):
    """Literal lag-by-lag recursion, the oracle for all simulation paths.

    This is the per-step body ``simulate_nar`` ran before it shared the
    batched step: G applied snapshot by snapshot, one matmul per lag.
    """
    d, p = spec.d, spec.p
    total = eps.shape[0]
    x = np.zeros((d, total))
    for t in range(total):
        acc = eps[t].copy()
        for j in range(1, p + 1):
            if t - j < 0:
                break
            acc = acc + (spec.A[j - 1] * spec.G[j - 1].apply(ads[t - j])) @ x[:, t - j]
        x[:, t] = acc
    return x


def lnar_componentwise_recursion(spec, ads, eps):
    """The per-component model in its componentwise form,
    ``x_r = sum_j alpha_{j,r} x_{t-j;r} + beta_{j,r} (G_j x_{t-j})_r + eps_r``
    with the zero-diagonal G applied snapshot by snapshot."""
    d, p = spec.d, spec.p
    total = eps.shape[0]
    x = np.zeros((d, total))
    for t in range(total):
        acc = eps[t].copy()
        for j in range(1, p + 1):
            if t - j < 0:
                break
            xl = x[:, t - j]
            g = zero_diag_oracle(spec.G[j - 1], ads[t - j])
            acc += spec.alpha[j - 1] * xl + spec.beta[j - 1] * (g @ xl)
        x[:, t] = acc
    return x


def assemble_oracle(form, g_list, ad_lags):
    """Modulation matrix for snapshots ``(Ad_{t-1}, ..., Ad_{t-p})``, one G
    call per snapshot: the former ``CompanionForm.assemble``."""
    if len(ad_lags) != form.p:
        raise ValueError(f"need {form.p} lagged snapshots, got {len(ad_lags)}")
    d, p = form.d, form.p
    out = np.zeros((d * p, d * p))
    for j, (g, ad) in enumerate(zip(g_list, ad_lags)):
        out[:d, j * d:(j + 1) * d] = g.apply(ad)
    for j in range(p - 1):
        out[(j + 1) * d:(j + 2) * d, j * d:(j + 1) * d] = np.eye(d)
    return out


def companion_recursion(spec, ads, eps):
    form = build_companion(spec)
    d, p = form.d, form.p
    total = eps.shape[0]
    sel = np.zeros((d * p, d))
    sel[:d] = np.eye(d)
    state = np.zeros(d * p)
    out = np.zeros((d, total))
    for t in range(total):
        if t >= p:
            lags = [ads[t - s] for s in range(1, p + 1)]
            state = (form.tilde_a * assemble_oracle(form, spec.G, lags)) @ state + sel @ eps[t]
        else:
            # warm-up: fall back to the direct recursion until p lags exist
            acc = eps[t].copy()
            for j in range(1, p + 1):
                if t - j < 0:
                    break
                acc = acc + (spec.A[j - 1] * spec.G[j - 1].apply(ads[t - j])) @ out[:, t - j]
            state = np.concatenate([acc] + [out[:, max(t - s, 0)] * (t - s >= 0)
                                            for s in range(1, p)]) if p > 1 else acc
        out[:, t] = state[:d]
    return out


class TestCompanion:
    def test_p1_is_plain_coefficient(self):
        a = np.array([[0.3, 0.1], [0.0, 0.2]])
        form = build_companion(NarSpec(1, [a], [NeighborhoodFn.transpose()]))
        assert np.array_equal(form.tilde_a, a)

    def test_scalar_companion_layout(self):
        form = build_companion(NarSpec(2, [np.array([[0.5]]), np.array([[0.2]])],
                                       [NeighborhoodFn.identity()] * 2))
        assert np.allclose(form.tilde_a, [[0.5, 0.2], [1.0, 0.0]])

    def test_companion_equals_direct_recursion_on_random_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            p = int(rng.integers(1, 4))
            spec = random_stationary_nar(rng, d, p)
            n = 60
            ads = random_binary_ads(rng, d, n)
            eps = rng.normal(size=(n, d))
            direct = direct_recursion(spec, ads, eps)
            comp = companion_recursion(spec, ads, eps)
            assert np.abs(direct - comp).max() <= 1e-12

    def test_nar_spec_is_its_own_embedding(self):
        spec = NarSpec(1, [np.eye(2) * 0.3], [NeighborhoodFn.transpose()])
        assert spec.to_nar() is spec

    def test_subdiagonal_blocks_are_identity(self):
        rng = np.random.default_rng(5)
        spec = random_stationary_nar(rng, 3, 3)
        form = build_companion(spec)
        d = 3
        for j in range(2):
            block = form.tilde_a[(j + 1) * d:(j + 2) * d, j * d:(j + 1) * d]
            assert np.array_equal(block, np.eye(d))


class TestStationarity:
    def test_zero_matrix(self):
        res = check_stationarity_nar(NarSpec(1, [np.zeros((3, 3))],
                                             [NeighborhoodFn.transpose()]))
        assert res.holds and res.rho == 0.0

    def test_example1_alpha_rho(self):
        res = check_stationarity_nar(NarSpec(1, [example1_alpha()],
                                             [NeighborhoodFn.identity()]))
        assert res.holds
        assert res.rho == pytest.approx(0.95, abs=1e-10)

    def test_unit_root_fails(self):
        res = check_stationarity_nar(NarSpec(1, [np.eye(2)], [NeighborhoodFn.transpose()]))
        assert not res.holds
        assert res.rho == pytest.approx(1.0)

    def test_power_iteration_oracle_on_random_specs(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            d, p = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            spec = random_stationary_nar(rng, d, p)
            res = check_stationarity_nar(spec)
            # power iteration on the absolute companion
            m = np.zeros((d * p, d * p))
            for j, a in enumerate(spec.A):
                m[:d, j * d:(j + 1) * d] = np.abs(a)
            for j in range(p - 1):
                m[(j + 1) * d:(j + 2) * d, j * d:(j + 1) * d] = np.eye(d)
            v = np.ones(d * p)
            for _ in range(3000):
                nv = m @ v
                norm = np.linalg.norm(nv)
                if norm == 0:
                    break
                v = nv / norm
            rho_pi = float(v @ m @ v / (v @ v)) if np.linalg.norm(v) > 0 else 0.0
            assert res.rho == pytest.approx(rho_pi, abs=1e-6)


class TestLnarStationarity:
    def test_decaying_coefficient_profile(self):
        d = 10
        r = np.arange(1, d + 1)
        alpha = (0.9 * r / d)[None, :]
        beta = (0.9 * (d - r) / d)[None, :]
        spec = LnarSpec(1, alpha, beta, [NeighborhoodFn.row_normalized_transpose()])
        res = check_stationarity_lnar(spec)
        assert res.holds and res.certified
        assert res.c_lambda == pytest.approx(0.9, abs=1e-12)
        assert res.rho_bound == pytest.approx(0.9, abs=1e-12)

    def test_zero_coefficients(self):
        spec = LnarSpec(1, np.zeros((1, 3)), np.zeros((1, 3)),
                        [NeighborhoodFn.row_normalized_transpose()])
        res = check_stationarity_lnar(spec)
        assert res.holds and res.c_lambda == 0.0

    def test_boundary_excluded(self):
        alpha = np.array([[0.4, 0.2], [0.3, 0.2]])
        beta = np.array([[0.2, 0.3], [0.1, 0.3]])  # component 2 sums to exactly 1.0
        spec = LnarSpec(2, alpha, beta, [NeighborhoodFn.row_normalized_transpose()] * 2)
        res = check_stationarity_lnar(spec)
        assert res.c_lambda == pytest.approx(1.0)
        assert not res.holds

    def test_uncertified_variant_reported(self):
        spec = LnarSpec(1, np.zeros((1, 2)), np.zeros((1, 2)), [NeighborhoodFn.transpose()])
        res = check_stationarity_lnar(spec)
        assert not res.certified and not res.holds

    def test_lemma4_radius_bound_on_snapshots(self):
        # rho of the absolute stacked matrix stays below c_lambda^(1/p)
        rng = np.random.default_rng(31)
        d, p = 6, 2
        alpha = rng.uniform(0, 0.3, (p, d))
        beta = rng.uniform(0, 0.15, (p, d))
        spec = LnarSpec(p, alpha, beta, [NeighborhoodFn.row_normalized_transpose()] * p)
        res = check_stationarity_lnar(spec)
        assert res.holds
        nar = spec.to_nar()
        form = build_companion(nar)
        for _ in range(20):
            ad = (rng.random((d, d)) < 0.4).astype(float)
            stacked = np.abs(form.tilde_a * assemble_oracle(form, nar.G, [ad] * p))
            rho = np.abs(np.linalg.eigvals(stacked)).max()
            assert rho <= res.rho_bound + 1e-9


class TestSimulation:
    def test_zero_coefficients_reproduce_innovations(self):
        d, n = 3, 200
        spec = NarSpec(1, [np.zeros((d, d))], [NeighborhoodFn.transpose()])
        innov = InnovationSpec(np.arange(d, dtype=float), np.eye(d))
        ads = random_binary_ads(np.random.default_rng(1), d, n + 10)
        x = simulate_nar(spec, ads, innov, n=n, burn_in=10, seed=9)
        eps = innov.sample(np.random.default_rng(9), n + 10)
        assert np.array_equal(x, eps[10:].T)

    def test_requires_enough_network_snapshots(self):
        spec = NarSpec(1, [np.zeros((2, 2))], [NeighborhoodFn.transpose()])
        innov = InnovationSpec.standard(2)
        ads = AdjacencySeries(np.zeros((5, 2, 2)))
        with pytest.raises(ValueError, match="too short"):
            simulate_nar(spec, ads, innov, n=10, burn_in=0, seed=0)

    def test_explosive_needs_override(self):
        spec = NarSpec(1, [np.eye(2) * 1.2], [NeighborhoodFn.identity()])
        innov = InnovationSpec.standard(2)
        ads = AdjacencySeries(np.ones((30, 2, 2)))
        with pytest.raises(ValueError, match="stationarity"):
            simulate_nar(spec, ads, innov, n=20, burn_in=0, seed=0)
        x = simulate_nar(spec, ads, innov, n=20, burn_in=0, seed=0, allow_explosive=True)
        assert np.isfinite(x).all()

    def test_uncertified_explosive_lnar_needs_override(self):
        # transpose has no a-priori certificate; on a complete network the
        # zero-diagonal rows sum to 2, so the path would reach ~1e258
        spec = LnarSpec(1, np.full((1, 3), 0.9), np.full((1, 3), 0.9),
                        [NeighborhoodFn.transpose()])
        innov = InnovationSpec.standard(3)
        ads = AdjacencySeries(np.ones((600, 3, 3)))
        with pytest.raises(ValueError, match="stationarity"):
            simulate_lnar(spec, ads, innov, n=100, burn_in=500, seed=0)
        c_below_one = LnarSpec(1, np.full((1, 3), 0.3), np.full((1, 3), 0.6),
                               [NeighborhoodFn.transpose()])
        with pytest.raises(ValueError, match="reaches 2 on the supplied network"):
            simulate_lnar(c_below_one, ads, innov, n=100, burn_in=500, seed=0)
        x = simulate_lnar(c_below_one, ads, innov, n=100, burn_in=500, seed=0,
                          allow_explosive=True)
        assert np.abs(x).max() > 1e100

    def test_uncertified_g_certified_on_the_path(self):
        # transpose of column-stochastic weights: every zero-diagonal row sums to 1
        rng = np.random.default_rng(12)
        d, total = 5, 80
        raw = rng.uniform(0.1, 1.0, (total, d, d))
        raw[:, np.arange(d), np.arange(d)] = 0.0
        ads = AdjacencySeries(raw / raw.sum(axis=1, keepdims=True))
        spec = LnarSpec(1, np.full((1, d), 0.3), np.full((1, d), 0.6),
                        [NeighborhoodFn.transpose()])
        assert not check_stationarity_lnar(spec).holds
        x = simulate_lnar(spec, ads, InnovationSpec.standard(d), n=40, burn_in=40, seed=3)
        assert np.isfinite(x).all()

    def test_lnar_equals_nar_embedding(self):
        rng = np.random.default_rng(303)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            p = int(rng.integers(1, 4))
            alpha = rng.uniform(-0.4, 0.4, (p, d)) / p
            beta = rng.uniform(-0.4, 0.4, (p, d)) / p
            spec = LnarSpec(p, alpha, beta, [NeighborhoodFn.row_normalized_transpose()] * p)
            n = 40
            ads = random_binary_ads(rng, d, n + p)
            innov = InnovationSpec(rng.normal(size=d), np.eye(d))
            seed = int(rng.integers(1 << 31))
            xl = simulate_lnar(spec, ads, innov, n=n, burn_in=0, seed=seed)
            eps = innov.sample(np.random.default_rng(seed), n)
            assert np.abs(xl - lnar_componentwise_recursion(spec, ads, eps)).max() <= 1e-12
            # the embedded spec is stationary through the norm condition, not
            # the coefficient one, so the coefficient check must be overridden;
            # both runs build bitwise the same coefficients A_j * (I + zero-diag G_j)
            xn = simulate_nar(spec.to_nar(), ads, innov, n=n, burn_in=0, seed=seed,
                              allow_explosive=True)
            assert np.array_equal(xl, xn)

    def test_alpha_beta_zero_is_noise(self):
        d, n = 4, 100
        spec = LnarSpec(1, np.zeros((1, d)), np.zeros((1, d)),
                        [NeighborhoodFn.row_normalized_transpose()])
        innov = InnovationSpec.standard(d)
        ads = random_binary_ads(np.random.default_rng(2), d, n)
        x = simulate_lnar(spec, ads, innov, n=n, burn_in=0, seed=21)
        eps = innov.sample(np.random.default_rng(21), n)
        assert np.array_equal(x, eps.T)

    def test_stationary_path_variance_stabilizes(self):
        # stationarity check implies finite paths with non-growing spread
        rng = np.random.default_rng(404)
        for _ in range(5):
            spec = random_stationary_nar(rng, 4, 2)
            assert check_stationarity_nar(spec).holds
            ads = random_binary_ads(rng, 4, 10_300)
            x = simulate_nar(spec, ads, InnovationSpec.standard(4), n=10_000,
                             burn_in=300, seed=int(rng.integers(1 << 31)))
            assert np.isfinite(x).all()
            half1 = x[:, 5000:7500].var(axis=1)
            half2 = x[:, 7500:].var(axis=1)
            assert (half2 < 3 * half1 + 1.0).all()


def _oracle_case(rng, d, p, needs_binary, total):
    binary = (rng.random((total, d, d)) < 0.4).astype(float)
    ads = AdjacencySeries(binary if needs_binary else rng.uniform(-1, 1, binary.shape) * binary)
    innov = InnovationSpec(rng.normal(size=d), np.eye(d))
    # half the cases fail the stationarity checks and run with allow_explosive
    scale = float(rng.choice([0.5, 3.0])) / (d * p)
    return ads, innov, scale, int(rng.integers(1 << 31))


class TestOneRecursion:
    """Both simulators against the stepwise oracles, over random d (1 included),
    p in {1, 2, 3}, every G variant and signed weights."""

    def test_simulate_nar_matches_stepwise_oracle(self):
        rng = np.random.default_rng(606)
        burn_in, n = 5, 30
        for d in (1, 2, 3, 6):
            for p in (1, 2, 3):
                for fn, needs_binary in kernel_variants(d, rng):
                    ads, innov, scale, seed = _oracle_case(rng, d, p, needs_binary, burn_in + n)
                    spec = NarSpec(p, [rng.uniform(-1, 1, (d, d)) * scale for _ in range(p)],
                                   [fn] * p)
                    explosive = not check_stationarity_nar(spec).holds
                    x = simulate_nar(spec, ads, innov, n=n, burn_in=burn_in, seed=seed,
                                     allow_explosive=explosive)
                    eps = innov.sample(np.random.default_rng(seed), burn_in + n)
                    want = direct_recursion(spec, ads, eps)[:, burn_in:]
                    assert np.abs(x - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    def test_simulate_lnar_matches_componentwise_oracle(self):
        rng = np.random.default_rng(707)
        burn_in, n = 5, 30
        for d in (1, 2, 3, 6):
            for p in (1, 2, 3):
                for fn, needs_binary in kernel_variants(d, rng):
                    ads, innov, scale, seed = _oracle_case(rng, d, p, needs_binary, burn_in + n)
                    spec = LnarSpec(p, rng.uniform(-1, 1, (p, d)) * scale * d,
                                    rng.uniform(-1, 1, (p, d)) * scale * d, [fn] * p)
                    explosive = not (spec.c_lambda < 1.0 and fn.infty_norm_certified())
                    x = simulate_lnar(spec, ads, innov, n=n, burn_in=burn_in, seed=seed,
                                      allow_explosive=explosive)
                    eps = innov.sample(np.random.default_rng(seed), burn_in + n)
                    want = lnar_componentwise_recursion(spec, ads, eps)[:, burn_in:]
                    assert np.abs(x - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def gnlp_oracle(coeff_fns, ads, eps):
    """The time loop simulate_gnlp_truncated ran before it batched its lags:
    every lag's coefficient built and applied one time point at a time."""
    total, d = eps.shape
    x = np.zeros((d, total))
    for t in range(total):
        acc = eps[t].copy()
        for j in range(1, len(coeff_fns) + 1):
            fn = coeff_fns[j - 1]
            if fn is None or t - j < 0:
                continue
            if isinstance(fn, NeighborhoodFn):
                b = fn.apply(ads[t - j])
            else:
                lags = [ads[t - s] for s in range(1, j + 1)]
                b = np.asarray(fn(*lags), dtype=float)
            acc += b @ eps[t - j]
        x[:, t] = acc
    return x


class TestGnlp:
    @pytest.mark.parametrize("J", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_batched_lags_match_time_loop_oracle(self, J, d):
        rng = np.random.default_rng(100 * J + d)
        w = rng.uniform(-1, 1, (d, d))

        def newest_times_oldest(*lags):
            return 0.5 * lags[0].T @ (w * lags[-1])

        kinds = [None, NeighborhoodFn.transpose(), NeighborhoodFn.row_normalized_transpose(),
                 newest_times_oldest]
        for burn_in in (0, J + 2):
            n = 25
            ads = random_binary_ads(rng, d, burn_in + n)
            innov = InnovationSpec(rng.normal(size=d), np.eye(d))
            for trial in range(4):
                fns = [kinds[(trial + j) % len(kinds)] for j in range(J)]
                x = simulate_gnlp_truncated(fns, ads, innov, n=n, seed=trial, burn_in=burn_in)
                eps = innov.sample(np.random.default_rng(trial), burn_in + n)
                want = gnlp_oracle(fns, ads, eps)[:, burn_in:]
                assert x.shape == want.shape
                assert np.abs(x - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    def test_zero_coefficients(self):
        innov = InnovationSpec.standard(2)
        ads = AdjacencySeries(np.zeros((30, 2, 2)))
        x = simulate_gnlp_truncated([None], ads, innov, n=30, seed=4)
        eps = innov.sample(np.random.default_rng(4), 30)
        assert np.array_equal(x, eps.T)

    def test_flip_component3_matches_scalar_oracle(self):
        net = FlipNetwork(0.95)
        ads = net.simulate(1001, seed=8)
        innov = InnovationSpec(np.array([10.0, -10.0, 0.0]), np.eye(3))
        x = simulate_gnlp_truncated([NeighborhoodFn.transpose()], ads, innov,
                                    n=1000, seed=15, burn_in=1)
        eps = innov.sample(np.random.default_rng(15), 1001)
        # X_{t;3} = Ad_{t-1;13} eps_{t-1;1} + Ad_{t-1;23} eps_{t-1;2} + eps_{t;3}
        for t in range(1, 1001):
            expected = (ads[t - 1][0, 2] * eps[t - 1][0]
                        + ads[t - 1][1, 2] * eps[t - 1][1] + eps[t][2])
            assert x[2, t - 1] == pytest.approx(expected, abs=1e-12)
        # components 1, 2 are the innovations themselves
        assert np.array_equal(x[0], eps[1:, 0])
        assert np.array_equal(x[1], eps[1:, 1])

    def test_multi_lag_callable_coefficient(self):
        # f_2 depending on both lagged snapshots, checked against a direct sum
        rng = np.random.default_rng(66)
        d, n = 2, 50
        ads = random_binary_ads(rng, d, n + 2)
        innov = InnovationSpec.standard(d)

        def f2(ad1, ad2):
            return 0.5 * ad1.T @ ad2.T

        x = simulate_gnlp_truncated([NeighborhoodFn.transpose(), f2], ads, innov,
                                    n=n, seed=67, burn_in=2)
        eps = innov.sample(np.random.default_rng(67), n + 2)
        for k in range(n):
            t = k + 2
            expected = (ads[t - 1].T @ eps[t - 1]
                        + 0.5 * ads[t - 1].T @ ads[t - 2].T @ eps[t - 2] + eps[t])
            assert np.allclose(x[:, k], expected, atol=1e-12)

    def test_flip_components_1_2_white_noise(self):
        net = FlipNetwork(0.95)
        n = 100_000
        ads = net.simulate(n + 1, seed=33)
        innov = InnovationSpec(np.array([10.0, -10.0, 0.0]), np.eye(3))
        x = simulate_gnlp_truncated([NeighborhoodFn.transpose()], ads, innov,
                                    n=n, seed=34, burn_in=1)
        acf = sample_acf(x[:2], max_lag=5)
        se = 1.0 / np.sqrt(n)
        for h in range(1, 6):
            corr = np.diag(acf.gamma[h]) / np.diag(acf.gamma[0])
            assert (np.abs(corr) < 3 * se * 1.05 + 3e-3).all()

    def test_flip_component3_acf_ratio(self):
        net = FlipNetwork(0.95)
        n = 100_000
        ads = net.simulate(n + 1, seed=55)
        innov = InnovationSpec(np.array([10.0, -10.0, 0.0]), np.eye(3))
        x = simulate_gnlp_truncated([NeighborhoodFn.transpose()], ads, innov,
                                    n=n, seed=56, burn_in=1)
        acf = sample_acf(x[2], max_lag=6)
        ratios = [acf.gamma[h][0, 0] / acf.gamma[h - 1][0, 0] for h in range(2, 7)]
        assert np.allclose(ratios, 0.9, atol=0.05)


class TestMaInfinity:
    def test_order1_truncation_at_t_is_exact(self):
        # a zero-initialized order-1 path equals its full moving-average
        # expansion once the truncation reaches the path start
        rng = np.random.default_rng(59)
        d = 3
        a = rng.uniform(-0.4, 0.4, (d, d)) / d
        spec = NarSpec(1, [a], [NeighborhoodFn.transpose()])
        ads = random_binary_ads(rng, d, 30)
        innov = InnovationSpec(rng.normal(size=d), np.eye(d))
        seed = 61
        x = simulate_nar(spec, ads, innov, n=30, burn_in=0, seed=seed)
        eps = innov.sample(np.random.default_rng(seed), 30)
        for t in (5, 12, 25):
            coeffs = ma_infinity_coeffs(spec, ads, t=t, J=t)
            recon = sum(coeffs[j] @ eps[t - j] for j in range(t + 1))
            assert np.abs(recon - x[:, t]).max() < 1e-12

    def test_lag0_is_identity(self):
        rng = np.random.default_rng(6)
        spec = random_stationary_nar(rng, 3, 2)
        ads = random_binary_ads(rng, 3, 30)
        coeffs = ma_infinity_coeffs(spec, ads, t=25, J=0)
        assert np.array_equal(coeffs[0], np.eye(3))

    def test_nar1_products_match_direct_oracle(self):
        rng = np.random.default_rng(61)
        d = 4
        a = rng.uniform(-0.4, 0.4, (d, d)) / d
        g = NeighborhoodFn.transpose()
        spec = NarSpec(1, [a], [g])
        ads = random_binary_ads(rng, d, 40)
        t, J = 35, 6
        coeffs = ma_infinity_coeffs(spec, ads, t=t, J=J)
        prod = np.eye(d)
        for j in range(1, J + 1):
            prod = prod @ (a * g.apply(ads[t - j]))
            assert np.allclose(coeffs[j], prod, atol=1e-14)

    def test_truncated_reconstruction_obeys_geometric_tail(self):
        # reconstruction error of the J-term moving average is bounded by
        # the geometric tail of the dominating radius
        stay, enter = example1_network_matrices()
        net = MarkovEdgeNetwork(stay, enter)
        alpha = example1_alpha()
        spec = NarSpec(1, [alpha], [NeighborhoodFn.identity()])
        innov = InnovationSpec(np.array([-1.0, 4.0, -9.0, 16.0]), np.eye(4))
        rng = np.random.default_rng(71)
        n, burn = 40, 200
        ads = net.simulate(burn + n, seed=rng)
        x = simulate_nar(spec, ads, innov, n=n, burn_in=burn, seed=99)
        eps = innov.sample(np.random.default_rng(99), burn + n)
        J = 60
        rho = 0.95
        for t_rel in (20, 30):
            t_abs = burn + t_rel
            coeffs = ma_infinity_coeffs(spec, ads, t=t_abs, J=J)
            recon = sum(coeffs[j] @ eps[t_abs - j] for j in range(J + 1))
            bound = np.abs(x).max() * rho ** J / (1 - rho) + 1e-9
            assert np.abs(recon - x[:, t_rel]).max() <= bound

    def test_norm_envelope_checked(self):
        rng = np.random.default_rng(62)
        spec = random_stationary_nar(rng, 3, 2)
        ads = random_binary_ads(rng, 3, 50)
        ma_infinity_coeffs(spec, ads, t=45, J=10)


def ma_infinity_oracle(spec, ads, t, J):
    """The former ``ma_infinity_coeffs`` loop: one assembled companion per lag."""
    form = build_companion(spec)
    g_list = spec.to_nar().G if isinstance(spec, LnarSpec) else spec.G
    d, p = form.d, form.p
    coeffs = [np.eye(d)]
    prod = np.eye(d * p)
    for j in range(1, J + 1):
        snap = [ads[t - j + 1 - s] for s in range(1, p + 1)]
        prod = prod @ (form.tilde_a * assemble_oracle(form, g_list, snap))
        coeffs.append(prod[:d, :d])
    return coeffs


class TestBatchedCompanions:
    """The companion stacks built from ``_nar_coefficients`` against the
    per-snapshot ``assemble_oracle``, bit for bit."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_match_per_snapshot_assembly(self, d, p):
        from netar.model import snapshot_spectral_radii
        rng = np.random.default_rng(10 * d + p)
        nar = random_stationary_nar(rng, d, p)
        lnar = LnarSpec(p, rng.uniform(0, 0.3, (p, d)), rng.uniform(0, 0.15, (p, d)),
                        [NeighborhoodFn.row_normalized_transpose(), NeighborhoodFn.transpose(),
                         NeighborhoodFn.k_stage(2)][:p])
        ads = random_binary_ads(rng, d, 30)
        for spec in (nar, lnar):
            form = build_companion(spec)
            g_list = spec.to_nar().G if isinstance(spec, LnarSpec) else spec.G
            radii = [np.abs(np.linalg.eigvals(
                form.tilde_a * assemble_oracle(form, g_list, [ad] * p))).max() for ad in ads]
            assert np.array_equal(snapshot_spectral_radii(spec, ads), radii)
            for t, J in ((29, 0), (29, 5), (p + 9, 10), (30, 30 - p + 1)):
                got = ma_infinity_coeffs(spec, ads, t=t, J=J)
                want = ma_infinity_oracle(spec, ads, t, J)
                assert len(got) == J + 1
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (t, J)

    def test_truncation_must_lie_inside_the_series(self):
        rng = np.random.default_rng(7)
        spec = random_stationary_nar(rng, 3, 2)
        ads = random_binary_ads(rng, 3, 20)
        with pytest.raises(ValueError, match="reach back"):
            ma_infinity_coeffs(spec, ads, t=10, J=10)
        with pytest.raises(ValueError, match="ends before t=21"):
            ma_infinity_coeffs(spec, ads, t=21, J=3)


def test_snapshot_spectral_radii_diagnostic():
    # the per-snapshot check on the stacked coefficient-modulation product:
    # for a static complete network and G = transpose the radius is rho(A)
    from netar.model import snapshot_spectral_radii
    a = np.array([[0.5, 0.2], [0.0, 0.3]])
    spec = NarSpec(1, [a], [NeighborhoodFn.transpose()])
    ads = AdjacencySeries(np.ones((4, 2, 2)))
    radii = snapshot_spectral_radii(spec, ads)
    assert radii.shape == (4,)
    assert np.allclose(radii, np.abs(np.linalg.eigvals(a)).max())


def nar_coefficients_oracle(A, G, mats):
    """One kernel call per lag, scaled by that lag's coefficient matrix."""
    return [apply_neighborhood_fn(g, mats) * a for a, g in zip(A, G)]


def assert_matches_coefficient_oracle(A, G, mats):
    before = mats.copy()
    got = _nar_coefficients(A, G, mats)
    want = nar_coefficients_oracle(A, G, mats)
    assert np.array_equal(mats, before)
    assert len(got) == len(want)
    for c, w in zip(got, want):
        assert c.shape == w.shape and np.array_equal(c, w)
        assert not np.shares_memory(c, mats)
    for i in range(len(got)):
        for j in range(i):
            assert not np.shares_memory(got[i], got[j]), (i, j)


def coefficient_g_pool(d, rng):
    """Variants for the coefficient builder: a signed mask, identity_plus, and
    a second identity_plus equal to the first but built apart."""
    return [NeighborhoodFn.mask(rng.uniform(-1, 1, (d, d))),
            NeighborhoodFn.identity_plus(NeighborhoodFn.k_stage(1)),
            NeighborhoodFn.transpose(),
            NeighborhoodFn.row_normalized_transpose(),
            NeighborhoodFn.identity_plus(NeighborhoodFn.k_stage(1))]


class TestNarCoefficients:
    """``_nar_coefficients`` evaluates each distinct G once; its stacks equal
    the per-lag evaluation bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 9], ids=["empty", "one-snapshot", "stack"])
    @pytest.mark.parametrize("sharing", ["shared", "distinct", "mixed"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_matches_per_lag_oracle(self, d, p, sharing, n):
        rng = np.random.default_rng(100 * d + 10 * p + n)
        pool = coefficient_g_pool(d, rng)
        G = {"shared": [pool[0]] * p, "distinct": pool[:p],
             "mixed": [pool[1], pool[0], pool[4]][:p]}[sharing]
        A = [rng.uniform(-1, 1, (d, d)) for _ in range(p)]
        mats = (rng.random((n, d, d)) < 0.4).astype(float)
        assert_matches_coefficient_oracle(A, G, mats)

    def test_random_cases_match_per_lag_oracle(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hyp.settings(max_examples=40, deadline=None, derandomize=True)
        @hyp.given(d=st.integers(1, 5), n=st.integers(0, 4), seed=st.integers(0, 2**16),
                   picks=st.lists(st.integers(0, 4), min_size=1, max_size=4))
        def check(d, n, seed, picks):
            rng = np.random.default_rng(seed)
            pool = coefficient_g_pool(d, rng)
            A = [rng.uniform(-1, 1, (d, d)) for _ in picks]
            mats = (rng.random((n, d, d)) < 0.5).astype(float)
            assert_matches_coefficient_oracle(A, [pool[i] for i in picks], mats)

        check()


def kernel_snapshots(monkeypatch):
    """Records the snapshots of each kernel call made through the model module."""
    seen = []
    original = model.apply_neighborhood_fn

    def counted(fn, ad, *args, **kwargs):
        seen.append(int(np.prod(np.shape(ad)[:-2])))
        return original(fn, ad, *args, **kwargs)

    monkeypatch.setattr(model, "apply_neighborhood_fn", counted)
    return seen


class TestKernelWork:
    """With ``[transpose] * 3`` every consumer of the coefficient builder
    evaluates each snapshot once, in one kernel call."""

    d, p = 4, 3

    @pytest.fixture
    def calls(self, monkeypatch):
        return kernel_snapshots(monkeypatch)

    def case(self, n=1000):
        rng = np.random.default_rng(91)
        spec = NarSpec(self.p, [np.eye(self.d) * 0.1] * self.p,
                       [NeighborhoodFn.transpose()] * self.p)
        return spec, random_binary_ads(rng, self.d, n)

    def test_simulate_nar(self, calls):
        spec, ads = self.case()
        simulate_nar(spec, ads, InnovationSpec.standard(self.d), n=500, burn_in=500, seed=1)
        assert calls == [999]

    def test_simulate_lnar_certifies_each_g_once(self, calls):
        # permutation snapshots keep the uncertified transpose within norm 1
        rng = np.random.default_rng(92)
        ads = AdjacencySeries(np.stack([np.eye(self.d)[rng.permutation(self.d)]
                                        for _ in range(1000)]))
        t = NeighborhoodFn.transpose()
        spec = LnarSpec(self.p, np.full((self.p, self.d), 0.1), np.full((self.p, self.d), 0.05),
                        [t] * self.p)
        simulate_lnar(spec, ads, InnovationSpec.standard(self.d), n=500, burn_in=500, seed=1)
        # the certificate of transpose on lag 1's window, then the embedding's coefficients
        assert calls == [999, 999]

    def test_snapshot_spectral_radii(self, calls):
        spec, ads = self.case()
        snapshot_spectral_radii(spec, ads)
        assert calls == [1000]

    def test_ma_infinity_coeffs(self, calls):
        spec, ads = self.case()
        ma_infinity_coeffs(spec, ads, t=500, J=10)
        assert calls == [10 + self.p - 1]


class TestInnovationSpec:
    def test_non_psd_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            InnovationSpec(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_banded_constructor(self):
        innov = InnovationSpec.banded1(np.zeros(4), np.ones(4), 0.25 * np.ones(3), scale=5.0)
        assert innov.sigma[0, 0] == 5.0
        assert innov.sigma[0, 1] == 1.25
        assert innov.sigma[0, 2] == 0.0

    def test_sample_mean_and_cov(self):
        innov = InnovationSpec(np.array([1.0, -2.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
        draws = innov.sample(np.random.default_rng(12), 200_000)
        assert np.allclose(draws.mean(axis=0), innov.mu, atol=0.02)
        assert np.allclose(np.cov(draws.T), innov.sigma, atol=0.03)


def test_example1_sample_mean_self_consistency():
    # one long path's component means agree with the across-replicate law
    stay, enter = example1_network_matrices()
    net = MarkovEdgeNetwork(stay, enter)
    spec = NarSpec(1, [example1_alpha()], [NeighborhoodFn.identity()])
    innov = InnovationSpec(np.array([-1.0, 4.0, -9.0, 16.0]), np.eye(4))

    long_rng = np.random.default_rng(1234)
    n_long = 100_000
    ads = net.simulate(n_long + 300, seed=long_rng)
    x = simulate_nar(spec, ads, innov, n=n_long, burn_in=300, seed=long_rng)
    long_means = x.mean(axis=1)

    reps, n_rep = 200, 2000
    rep_means = np.empty((reps, 4))
    root = np.random.SeedSequence(777)
    for i in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=root.entropy, spawn_key=(i,)))
        ads_i = net.simulate(n_rep + 300, seed=rng)
        xi = simulate_nar(spec, ads_i, innov, n=n_rep, burn_in=300, seed=rng)
        rep_means[i] = xi.mean(axis=1)
    mc_mean = rep_means.mean(axis=0)
    se = rep_means.std(axis=0, ddof=1) / np.sqrt(reps)
    # the long path mean has its own (smaller) uncertainty; 3 SE of the MC mean
    # plus the long-path spread scaled by sqrt(n_rep / n_long)
    tol = 3 * se + 3 * rep_means.std(axis=0, ddof=1) * np.sqrt(n_rep / n_long) / np.sqrt(1)
    assert (np.abs(long_means - mc_mean) <= tol).all()


def _seed_cases():
    """Each simulator as ``run(**randomness)`` plus the draws it makes from one Generator."""
    markov = MarkovEdgeNetwork(np.full((3, 3), 0.8), np.full((3, 3), 0.3))
    flip = FlipNetwork(0.9)
    ads = flip.simulate(40, seed=0)
    nar = NarSpec(1, [0.3 * np.eye(3)], [NeighborhoodFn.transpose()])
    lnar = LnarSpec(1, [[0.2] * 3], [[0.3] * 3], [NeighborhoodFn.row_normalized_transpose()])
    innov = InnovationSpec.standard(3)

    def path_draws(g):
        g.standard_normal((40, 3))

    return {
        "MarkovEdgeNetwork.simulate": (
            lambda **kw: markov.simulate(20, burn_in=5, **kw).mats,
            lambda g: (g.random((3, 3)), g.random((25, 3, 3)))),
        "FlipNetwork.simulate": (
            lambda **kw: flip.simulate(20, burn_in=5, **kw).mats, lambda g: g.random(25)),
        "FlipNetwork.simulate_states": (
            lambda **kw: flip.simulate_states(20, burn_in=5, **kw), lambda g: g.random(25)),
        "simulate_nar": (
            lambda **kw: simulate_nar(nar, ads, innov, n=30, burn_in=10, **kw), path_draws),
        "simulate_lnar": (
            lambda **kw: simulate_lnar(lnar, ads, innov, n=30, burn_in=10, **kw), path_draws),
        "simulate_gnlp_truncated": (
            lambda **kw: simulate_gnlp_truncated([NeighborhoodFn.transpose()], ads, innov, n=30,
                                                 burn_in=10, **kw), path_draws),
    }


_SEED_CASES = _seed_cases()


@pytest.mark.parametrize("name", sorted(_SEED_CASES))
def test_seed_is_the_one_randomness_input(name):
    # a Generator passed as seed is continued in place: same output as its
    # integer seed, and advanced by exactly the draws the simulator made
    run, draws = _SEED_CASES[name]
    gen = np.random.default_rng(17)
    assert np.array_equal(run(seed=gen), run(seed=17))
    ref = np.random.default_rng(17)
    draws(ref)
    assert gen.bit_generator.state == ref.bit_generator.state
    with pytest.raises(TypeError):
        run(rng=np.random.default_rng(17))


class TestNetworkVertexCount:
    # a 3-vertex network under a 4-component process
    ads = FlipNetwork(0.9).simulate(60, seed=0)
    innov = InnovationSpec.standard(4)

    def test_simulate_nar(self):
        spec = NarSpec(1, [0.3 * np.eye(4)], [NeighborhoodFn.transpose()])
        with pytest.raises(ValueError, match="simulate_nar: the network has 3 vertices but "
                                             "the process has 4 components"):
            simulate_nar(spec, self.ads, self.innov, n=50, burn_in=10, seed=1)

    def test_simulate_gnlp_truncated(self):
        with pytest.raises(ValueError, match="simulate_gnlp_truncated: the network has 3 "
                                             "vertices"):
            simulate_gnlp_truncated([NeighborhoodFn.transpose()], self.ads, self.innov, n=50,
                                    seed=1)
