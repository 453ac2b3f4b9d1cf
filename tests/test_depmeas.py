import numpy as np
import pytest

from netar import (
    FlipNetwork,
    InnovationSpec,
    LnarSpec,
    MarkovEdgeNetwork,
    NarSpec,
    NeighborhoodFn,
    apply_neighborhood_fn,
    estimate_delta_network,
    estimate_delta_x,
)
from netar import depmeas, netdyn
from netar.model import _nar_step

from test_netdyn import example1_network_matrices
from test_model import example1_alpha


class TestNetworkCoupling:
    def test_deterministic_chain_has_zero_delta(self):
        m = MarkovEdgeNetwork(np.ones((2, 2)), np.zeros((2, 2)), initial=np.ones((2, 2)))
        run = estimate_delta_network(m, q=2, max_lag=6, reps=500, seed=0)
        assert (run.delta == 0).all()

    def test_single_edge_decay_ratio(self):
        # coupled chains coalesce iff the shared uniform falls outside
        # (enter, stay); survival probability per step is stay - enter = 0.9;
        # at q = 1 the estimated delta IS the difference probability
        m = MarkovEdgeNetwork(np.full((1, 1), 0.95), np.full((1, 1), 0.05))
        run = estimate_delta_network(m, q=1, max_lag=15, reps=100_000, seed=1)
        assert run.decay_ratio == pytest.approx(0.9, abs=0.03)
        assert run.raw_qth[0] > 0
        # exact geometric law for the underlying difference probability
        p0 = run.raw_qth[0]
        for j in range(1, 16):
            se = np.sqrt(run.raw_qth[j] * (1 - run.raw_qth[j]) / 100_000 + 1e-12)
            assert run.raw_qth[j] == pytest.approx(p0 * 0.9 ** j, abs=4 * se + 2e-3)

    def test_iid_network_forgets_immediately(self):
        m = MarkovEdgeNetwork(np.full((3, 3), 0.4), np.full((3, 3), 0.4))
        run = estimate_delta_network(m, q=2, max_lag=8, reps=2000, seed=2)
        assert run.delta[0] > 0
        assert (run.delta[1:] == 0).all()

    def test_flip_network_decay(self):
        run = estimate_delta_network(FlipNetwork(0.95), q=1, max_lag=12,
                                     reps=50_000, seed=3)
        # flip coupling survives with probability 0.9 each step as well
        assert run.decay_ratio == pytest.approx(0.9, abs=0.03)

    def test_q_only_rescales_binary_deltas(self):
        # binary differences make the averaged q-th power the plain
        # difference probability, identical across q under one seed
        m = MarkovEdgeNetwork(np.full((2, 2), 0.9), np.full((2, 2), 0.1))
        run1 = estimate_delta_network(m, q=1, max_lag=6, reps=5000, seed=4)
        run2 = estimate_delta_network(m, q=2, max_lag=6, reps=5000, seed=4)
        assert np.array_equal(run1.raw_qth, run2.raw_qth)
        mask = run1.raw_qth > 0
        assert (run2.delta[mask] >= run1.delta[mask] - 1e-12).all()

    def test_reps_guard(self):
        with pytest.raises(ValueError):
            estimate_delta_network(FlipNetwork(), q=2, max_lag=3, reps=1, seed=0)


class TestSeriesCoupling:
    def test_zero_coefficients_forget_after_lag_zero(self):
        d = 3
        spec = NarSpec(1, [np.zeros((d, d))], [NeighborhoodFn.transpose()])
        m = MarkovEdgeNetwork(np.full((d, d), 0.8), np.full((d, d), 0.1))
        run = estimate_delta_x(spec, m, InnovationSpec.standard(d), q=2,
                               max_lag=5, reps=1000, seed=5)
        assert run.delta[0] > 0
        assert (run.delta[1:] < 1e-12).all()

    def test_static_network_decay_matches_spectral_radius(self):
        # constant complete network, A = 0.5 I: only the time-0 noise redraw
        # propagates, scaled by A^j
        d = 3
        spec = NarSpec(1, [np.eye(d) * 0.5], [NeighborhoodFn.transpose()])
        m = MarkovEdgeNetwork(np.ones((d, d)), np.zeros((d, d)),
                              initial=np.ones((d, d)))
        run = estimate_delta_x(spec, m, InnovationSpec.standard(d), q=2,
                               max_lag=10, reps=3000, seed=6)
        assert run.decay_ratio == pytest.approx(0.5, abs=0.1)
        # exact halving per lag for this diagonal case
        for j in range(1, 11):
            assert run.delta[j] == pytest.approx(run.delta[j - 1] * 0.5, rel=1e-9)

    def test_example1_process_is_geometrically_stable(self):
        stay, enter = example1_network_matrices()
        net = MarkovEdgeNetwork(stay, enter)
        spec = NarSpec(1, [example1_alpha()], [NeighborhoodFn.identity()])
        innov = InnovationSpec(np.array([-1.0, 4.0, -9.0, 16.0]), np.eye(4))
        run = estimate_delta_x(spec, net, innov, q=2, max_lag=20, reps=4000, seed=7)
        assert np.isfinite(run.delta_total)
        assert run.decay_ratio < 1.0
        assert run.decay_r2 > 0.9
        # delta peaks at lag 1 (the redrawn network state starts to matter)
        # and then shrinks geometrically
        assert run.tail_value < run.delta.max() * 0.6

    def test_network_only_mode_keeps_shared_noise(self):
        # with zero coefficients the series is the innovations; redrawing only
        # the network cannot move it at all
        d = 2
        spec = NarSpec(1, [np.zeros((d, d))], [NeighborhoodFn.transpose()])
        m = MarkovEdgeNetwork(np.full((d, d), 0.7), np.full((d, d), 0.2))
        run = estimate_delta_x(spec, m, InnovationSpec.standard(d), q=2,
                               max_lag=4, reps=500, seed=8, mode="network_only")
        assert (run.delta == 0).all()

    def test_mode_validation(self):
        spec = NarSpec(1, [np.zeros((2, 2))], [NeighborhoodFn.transpose()])
        m = MarkovEdgeNetwork(np.full((2, 2), 0.5), np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="mode"):
            estimate_delta_x(spec, m, InnovationSpec.standard(2), q=2,
                             max_lag=2, reps=10, seed=0, mode="bogus")


def advance_oracle(nar, model, state, u, eps):
    """The stepping rule estimate_delta_x used before it kept a ring of
    modulations: every lag re-evaluates G on its stored snapshot each step.

    ``state["x"][j-1]`` holds X_{t-j} (reps, d) and ``state["m"][j-1]``
    the snapshots Ad_{t-j} (reps, d, d).
    """
    state["net"] = model.step(state["net"], u)
    mat = model.state_to_matrix(state["net"]) if isinstance(model, FlipNetwork) else state["net"]
    coefs = [apply_neighborhood_fn(g, m) * a for a, g, m in zip(nar.A, nar.G, state["m"])]
    x_new = _nar_step(eps, coefs, state["x"])
    state["m"] = np.concatenate([mat[None], state["m"][:-1]], axis=0)
    state["x"] = np.concatenate([x_new[None], state["x"][:-1]], axis=0)
    return x_new


def delta_x_oracle(spec, model, innov, q, max_lag, reps, seed, burn_in, mode):
    """estimate_delta_x driven by advance_oracle, drawing in the same order."""
    nar = spec.to_nar() if isinstance(spec, LnarSpec) else spec
    d, p = nar.d, nar.p
    rng = np.random.default_rng(seed)
    net = depmeas._initial_states(model, rng, reps)
    state_a = {"x": np.zeros((p, reps, d)), "m": np.zeros((p, reps, d, d)), "net": net}
    for _ in range(burn_in):
        u = rng.random(net.shape)
        advance_oracle(nar, model, state_a, u, innov.sample(rng, reps))
    state_b = {k: v.copy() for k, v in state_a.items()}
    powers = np.empty((reps, max_lag + 1))
    for j in range(max_lag + 1):
        u_shared = rng.random(net.shape)
        eps_shared = innov.sample(rng, reps)
        if j == 0:
            u_b = rng.random(net.shape)
            eps_b = eps_shared if mode == "network_only" else innov.sample(rng, reps)
        else:
            u_b, eps_b = u_shared, eps_shared
        xa = advance_oracle(nar, model, state_a, u_shared, eps_shared)
        xb = advance_oracle(nar, model, state_b, u_b, eps_b)
        powers[:, j] = np.abs(xa - xb).max(axis=1) ** q
    return depmeas._finalize(q, powers, reps)


def _coupling_specs(d, rng):
    t, rn = NeighborhoodFn.transpose(), NeighborhoodFn.row_normalized_transpose()
    a = [rng.uniform(-0.3, 0.3, (d, d)) / d for _ in range(3)]
    return [
        NarSpec(1, a[:1], [t]),
        NarSpec(1, a[:1], [rn]),
        NarSpec(3, a, [t] * 3),
        NarSpec(3, a, [t, rn, t]),
        LnarSpec(3, rng.uniform(-0.2, 0.2, (3, d)), rng.uniform(-0.1, 0.1, (3, d)), [rn, t, rn]),
    ]


class TestModulationRing:
    @pytest.mark.parametrize("mode", ["joint", "network_only"])
    @pytest.mark.parametrize("network", ["markov", "flip"])
    def test_matches_per_step_oracle(self, mode, network):
        rng = np.random.default_rng(31)
        if network == "flip":
            model, d = FlipNetwork(0.9), 3
        else:
            d = 4
            model = MarkovEdgeNetwork(np.full((d, d), 0.8), np.full((d, d), 0.15))
        innov = InnovationSpec(rng.normal(size=d), np.eye(d))
        for spec in _coupling_specs(d, rng):
            kwargs = dict(q=2, max_lag=6, reps=20, seed=32, burn_in=9, mode=mode)
            run = estimate_delta_x(spec, model, innov, **kwargs)
            want = delta_x_oracle(spec, model, innov, **kwargs)
            assert np.array_equal(run.delta, want.delta)
            assert np.array_equal(run.raw_qth, want.raw_qth)

    @pytest.mark.parametrize("g_list", [["t"] * 3, ["t", "rn", "t"], ["rn"]])
    def test_each_snapshot_evaluated_once_per_distinct_g(self, g_list, monkeypatch):
        fns = {"t": NeighborhoodFn.transpose(), "rn": NeighborhoodFn.row_normalized_transpose()}
        g = [fns[k] for k in g_list]
        d, reps, burn_in, max_lag = 4, 50, 100, 10
        spec = NarSpec(len(g), [np.eye(d) * 0.2] * len(g), g)
        model = MarkovEdgeNetwork(np.full((d, d), 0.8), np.full((d, d), 0.1))
        evaluated = []
        evaluate = netdyn._evaluate

        def counting(fn, ad, *rest):
            evaluated.append(int(np.prod(ad.shape[:-2])))
            return evaluate(fn, ad, *rest)

        monkeypatch.setattr(netdyn, "_evaluate", counting)
        estimate_delta_x(spec, model, InnovationSpec.standard(d), q=2, max_lag=max_lag,
                         reps=reps, seed=0, burn_in=burn_in)
        # the shared prehistory, then the coupled lags, whose two copies share
        # one evaluation per step; the last step's snapshot is read by no step
        distinct = len(set(g_list))
        assert len(evaluated) == distinct * (burn_in + max_lag)
        assert sum(evaluated) == distinct * (burn_in + 2 * max_lag) * reps
