"""Bad arguments fail at the public entry points with a ValueError that names them."""

import numpy as np
import pytest

from netar import (
    AdjacencySeries,
    FlipNetwork,
    HoldLast,
    InnovationSpec,
    LnarSpec,
    MarkovEdgeNetwork,
    NarSpec,
    NeighborhoodFn,
    estimate_delta_network,
    estimate_delta_x,
    fit_lnar,
    fit_nar,
    fit_var,
    forecast_h,
    sample_acf,
    select_order_bic,
    simulate_gnlp_truncated,
    simulate_lnar,
    simulate_nar,
)
import netar.io as nio
from netar.cli import main
from netar.harness import config_to_json, example1_config, run_experiment, validate_config

G = NeighborhoodFn.transpose()


def series(d=3, n=60, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d, n))
    ads = AdjacencySeries((rng.random((n, d, d)) < 0.5).astype(float))
    return x, ads


class TestLagOrder:
    @pytest.mark.parametrize("p", [-1, 2.5])
    def test_fits_name_a_bad_order(self, p):
        x, ads = series()
        with pytest.raises(ValueError, match=r"p must be an integer of at least 0, got %s" % p):
            fit_var(x, p)
        with pytest.raises(ValueError, match=r"p must be an integer of at least 0, got 2.5"):
            fit_nar(x, ads, [G, G], 2.5)

    def test_selection_names_a_fractional_p_max(self):
        x, ads = series()
        for kwargs in (dict(family="var"), dict(ads=ads, g=G, family="nar")):
            with pytest.raises(ValueError, match=r"p_max must be an integer of at least 1, got 2.5"):
                select_order_bic(x, p_max=2.5, **kwargs)

    def test_bool_order_is_not_an_order(self):
        x, ads = series()
        with pytest.raises(ValueError, match=r"p must be an integer of at least 0, got True"):
            fit_var(x, True)
        with pytest.raises(ValueError, match=r"p_max must be an integer of at least 1, got True"):
            select_order_bic(x, p_max=True, family="var")

    @pytest.mark.parametrize("p", [1.9, "1", True])
    def test_specs_name_a_bad_order(self, p):
        with pytest.raises(ValueError, match=r"p must be an integer of at least 1, got %r" % p):
            NarSpec(p, [np.eye(3) * 0.3], [G])
        with pytest.raises(ValueError, match=r"p must be an integer of at least 0, got %r" % p):
            LnarSpec(p, np.full((1, 3), 0.2), np.full((1, 3), 0.1), [G])

    @pytest.mark.parametrize("p", [1.9, "1", True])
    @pytest.mark.parametrize("family", ["nar", "lnar"])
    def test_model_spec_and_config_name_a_bad_order(self, family, p):
        spec = NarSpec(1, [np.eye(3) * 0.3], [G]) if family == "nar" else \
            LnarSpec(1, np.full((1, 3), 0.2), np.full((1, 3), 0.1), [G])
        doc = nio.model_spec_to_json(spec, InnovationSpec.standard(3))
        doc["p"] = p
        with pytest.raises(ValueError, match=r"p must be an integer of at least \d, got %r" % p):
            nio.model_spec_from_json(doc)
        config = config_to_json(example1_config())
        config["process"] = doc
        assert [m for m in validate_config(config) if m.startswith("process: p must be")]

    def test_intercept_only_fits_still_work(self):
        x, ads = series()
        for fit in (fit_var(x, 0), fit_nar(x, ads, [], 0), fit_lnar(x, ads, [], 0)):
            assert [c.w.size for c in fit.components] == [0, 0, 0]
            assert np.allclose(fit.mu_hat(), x.mean(axis=1))


class TestForecastInputs:
    def test_history_must_have_the_fit_components(self):
        x, ads = series(d=4)
        nar = fit_nar(x, ads, [G], 1)
        with pytest.raises(ValueError, match="history has 3 components but the fit has 4"):
            forecast_h(nar, x[:3], AdjacencySeries(ads.mats[:, :3, :3]), HoldLast(), 2)
        with pytest.raises(ValueError, match="history has 3 components but the fit has 4"):
            forecast_h(fit_var(x, 1), x[:3], None, None, 2)

    @pytest.mark.parametrize("h", [0, -1])
    def test_every_family_needs_a_horizon(self, h):
        x, ads = series()
        for fit in (fit_var(x, 1), fit_nar(x, ads, [G], 1), fit_lnar(x, ads, [G], 1)):
            with pytest.raises(ValueError, match="need at least one horizon"):
                forecast_h(fit, x, ads, HoldLast(), h)


class TestCounts:
    @pytest.mark.parametrize("n, burn_in", [(10, -5), (-5, 10)])
    def test_simulators_reject_negative_counts(self, n, burn_in):
        innov = InnovationSpec.standard(3)
        ads = AdjacencySeries(np.zeros((30, 3, 3)))
        msg = r"n and burn_in must be at least 0, got n=%d, burn_in=%d" % (n, burn_in)
        with pytest.raises(ValueError, match=msg):
            simulate_nar(NarSpec(1, [np.eye(3) * 0.2], [G]), ads, innov, n, burn_in=burn_in)
        with pytest.raises(ValueError, match=msg):
            simulate_lnar(LnarSpec(1, np.full((1, 3), 0.2), np.full((1, 3), 0.1), [G]), ads,
                          innov, n, burn_in=burn_in)
        with pytest.raises(ValueError, match=msg):
            simulate_gnlp_truncated([G], ads, innov, n, burn_in=burn_in)

    def test_acf_rejects_a_negative_lag(self, tmp_path):
        x, _ = series()
        with pytest.raises(ValueError, match="max_lag must be at least 0, got -1"):
            sample_acf(x, -1)
        path = tmp_path / "series.csv"
        rows = ["t,x1,x2,x3"] + [f"{t},{a},{b},{c}" for t, (a, b, c) in enumerate(x.T)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="max_lag must be at least 0, got -1"):
            main(["acf", "--series", str(path), "--max-lag", "-1", "--out", str(tmp_path)])


class TestThreads:
    @pytest.mark.parametrize("threads", [0, -1, 1.5])
    def test_run_experiment_names_a_thread_count_below_one(self, tmp_path, threads):
        cfg = example1_config(sample_sizes=(80,), replications=2, horizons=2)
        with pytest.raises(ValueError, match=r"^threads must be an integer of at least 1, "
                                             r"got %s$" % threads):
            run_experiment(cfg, threads=threads, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()


class TestSpecCoefficients:
    def test_nan_coefficients_are_named(self):
        a = np.eye(2) * 0.3
        a[0, 1] = np.nan
        with pytest.raises(ValueError, match=r"A must be finite; found nan at lag 2, entry \(1, 2\)"):
            NarSpec(2, [np.eye(2) * 0.1, a], [G, G])
        beta = np.full((2, 2), 0.1)
        beta[1, 0] = np.inf
        with pytest.raises(ValueError, match=r"beta must be finite; found inf at lag 2, entry \(1\)"):
            LnarSpec(2, np.full((2, 2), 0.2), beta, [G, G])

    def test_order_zero_spec_is_named(self):
        with pytest.raises(ValueError, match="p must be an integer of at least 1, got 0"):
            NarSpec(0, [], [])


class TestCouplingArguments:
    def setup_method(self):
        self.spec = NarSpec(1, [np.eye(3) * 0.3], [G])
        self.innov = InnovationSpec.standard(3)

    def test_q_must_be_positive(self):
        with pytest.raises(ValueError, match="q must be positive"):
            estimate_delta_x(self.spec, FlipNetwork(), self.innov, q=0, max_lag=3, reps=10)

    def test_max_lag_must_not_be_negative(self):
        with pytest.raises(ValueError, match="max_lag must be at least 0, got -1"):
            estimate_delta_network(FlipNetwork(), q=2, max_lag=-1, reps=10)
        with pytest.raises(ValueError, match="max_lag must be at least 0, got -1"):
            estimate_delta_x(self.spec, FlipNetwork(), self.innov, q=2, max_lag=-1, reps=10)

    def test_burn_in_must_not_be_negative(self):
        with pytest.raises(ValueError, match="burn_in must be at least 0, got -5"):
            estimate_delta_network(FlipNetwork(), q=2, max_lag=2, reps=10, burn_in=-5)
        with pytest.raises(ValueError, match="burn_in must be at least 0, got -5"):
            estimate_delta_x(self.spec, FlipNetwork(), self.innov, q=2, max_lag=2, reps=10,
                             burn_in=-5)

    def test_network_must_match_the_process(self):
        net = MarkovEdgeNetwork(np.full((2, 2), 0.9), np.full((2, 2), 0.2))
        with pytest.raises(ValueError, match="the network has 2 vertices but the process has 3"):
            estimate_delta_x(self.spec, net, self.innov, q=2, max_lag=3, reps=10)
