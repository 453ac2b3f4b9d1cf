import copy
import dataclasses
import json
import os
import re

import numpy as np
import pytest

import netar.harness as harness
import netar.io as nio
from netar import (AdjacencySeries, InnovationSpec, LnarSpec, NarSpec, NeighborhoodFn,
                   simulate_lnar, simulate_nar)
from netar.cli import main
from netar.harness import (
    CONFIG_SCHEMA,
    ExperimentConfig,
    MethodSpec,
    config_from_json,
    config_to_json,
    example1_config,
    example2_config,
    ingest_panel,
    normalize_trade_matrix,
    run_experiment,
    run_rolling_forecast,
    validate_config,
)
import netar.netdyn as netdyn
from netar.estimate import EstimationError, fit_lnar, fit_nar, fit_var, select_order_bic
from netar.forecast import difference, forecast_h, integrate
from netar.netdyn import apply_neighborhood_fn

from panel_helpers import synthetic_panel_arrays, write_panel_files
from test_estimate import outcome_values


def tiny_config(seed=5150, reps=3):
    d = 2
    spec = NarSpec(1, [np.zeros((d, d))], [NeighborhoodFn.transpose()])
    innov = InnovationSpec(np.array([1.0, -1.0]), np.eye(d))
    from netar.netdyn import MarkovEdgeNetwork
    net = MarkovEdgeNetwork(np.full((d, d), 0.8), np.full((d, d), 0.2))
    methods = [MethodSpec("nar", "known", NeighborhoodFn.transpose()),
               MethodSpec("var", "none")]
    return ExperimentConfig("tiny", net, spec, innov, (60,), 2, reps, seed,
                            methods, burn_in=30, p_max=2)


class TestRunExperiment:
    def test_degenerate_single_replicate_matches_direct_computation(self):
        # B=1, h=1, zero coefficients: the report is that replicate's
        # mean squared error, recomputable by hand from the same seed
        cfg = tiny_config(reps=1)
        cfg = ExperimentConfig(cfg.experiment, cfg.network, cfg.process, cfg.innov,
                               (60,), 1, 1, cfg.seed, cfg.methods, burn_in=30,
                               p_max=2)
        rep = run_experiment(cfg)
        res = harness._run_chunk(cfg, 0, 60, [0])[0]
        expected = (res["nar(known)"] ** 2).mean()
        assert rep.mse[(60, "nar(known)")][0] == pytest.approx(expected, abs=1e-15)

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_experiment(tiny_config(), out_dir=str(out1))
        run_experiment(tiny_config(), out_dir=str(out2))
        for name in os.listdir(out1):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, f"{name} differs between identical runs"

    def test_parallel_equals_serial(self, tmp_path):
        out1, out2 = tmp_path / "s", tmp_path / "p"
        run_experiment(tiny_config(reps=6), out_dir=str(out1))
        run_experiment(tiny_config(reps=6), threads=2, out_dir=str(out2))
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("name, config", [
        ("example1", lambda: example1_config(
            replications=8, policies=("known", "holdlast", "markov"))),
        ("example2_d10", lambda: example2_config(d=10, replications=8)),
    ])
    def test_tables_match_committed_bytes(self, name, config, tmp_path):
        # the fixtures are these runs' tables as first committed, so a change
        # that moves a printed digit fails here, not only a nondeterministic one
        run_experiment(config(), out_dir=str(tmp_path))
        golden = os.path.join(os.path.dirname(__file__), "fixtures", "golden_mse")
        for table in (f"mse_{name}.csv", f"mse_se_{name}.csv"):
            with open(os.path.join(golden, table), "rb") as fh:
                assert (tmp_path / table).read_bytes() == fh.read(), table

    def test_relative_table_var_row_is_one(self):
        rep = run_experiment(tiny_config(reps=4))
        rel = rep.relative_mse()
        assert rel["var"] == pytest.approx(1.0, abs=1e-15)

    def test_written_relative_table_formats_var_as_one(self, tmp_path):
        out = tmp_path / "r"
        run_experiment(tiny_config(), out_dir=str(out))
        text = (out / "relative_mse_tiny.csv").read_text()
        assert "var,1.00" in text

    def test_multiple_sample_sizes_produce_rows_per_n(self, tmp_path):
        cfg = tiny_config(reps=3)
        multi = ExperimentConfig(cfg.experiment, cfg.network, cfg.process, cfg.innov,
                                 (50, 80), 2, 3, cfg.seed, cfg.methods, burn_in=20,
                                 p_max=2)
        rep = run_experiment(multi, out_dir=str(tmp_path / "m"))
        assert set(rep.mse) == {(n, lbl) for n in (50, 80)
                                for lbl in rep.method_labels}
        lines = (tmp_path / "m" / "mse_tiny.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * len(rep.method_labels)
        assert lines[1].startswith("50,") and lines[3].startswith("80,")

    def test_failure_threshold_aborts(self):
        # a sample too short to identify any VAR order fails every replicate,
        # tripping the 1% abort threshold
        cfg = tiny_config(reps=4)
        starved = ExperimentConfig(cfg.experiment, cfg.network, cfg.process,
                                   cfg.innov, (10,), 1, 4, cfg.seed,
                                   [MethodSpec("var", "none")], burn_in=10, p_max=3)
        with pytest.raises(RuntimeError, match="aborting"):
            run_experiment(starved)

    def test_abort_comes_right_after_the_failing_sample_size(self, monkeypatch):
        # every replicate of n=10 fails, so the run stops before n=60 starts
        cfg = tiny_config(reps=4)
        starved = ExperimentConfig(cfg.experiment, cfg.network, cfg.process,
                                   cfg.innov, (10, 60), 1, 4, cfg.seed,
                                   [MethodSpec("var", "none")], burn_in=10, p_max=3)
        run_chunk, sizes = harness._run_chunk, []
        monkeypatch.setattr(harness, "_run_chunk", lambda cfg, i, n, reps: sizes.extend(
            [n] * len(reps)) or run_chunk(cfg, i, n, reps))
        with pytest.raises(RuntimeError, match="at n=10; aborting"):
            run_experiment(starved)
        assert sizes == [10] * 4

    def test_two_sample_sizes_give_the_same_reports_at_every_thread_count(self, tmp_path):
        cfg = dataclasses.replace(tiny_config(reps=6), sample_sizes=(50, 80))
        for threads in (1, 2):
            run_experiment(cfg, threads=threads, out_dir=str(tmp_path / str(threads)))
        names = sorted(os.listdir(tmp_path / "1"))
        assert names == sorted(os.listdir(tmp_path / "2")) and len(names) == 4
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    @pytest.mark.parametrize("threads, pools", [(1, 0), (2, 1)])
    def test_one_pool_serves_every_sample_size(self, monkeypatch, threads, pools):
        made = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        cfg = dataclasses.replace(tiny_config(reps=6), sample_sizes=(50, 80))
        rep = run_experiment(cfg, threads=threads)
        assert len(made) == pools
        assert {n for n, _ in rep.mse} == {50, 80}

    def test_masked_var_and_network_policies_in_example2(self):
        cfg = example2_config(d=8, sample_sizes=(150,), replications=3, seed=777,
                              horizons=2, policies=("known", "holdlast"),
                              include_var=True)
        rep = run_experiment(cfg)
        assert "var(masked)" in rep.method_labels
        for lbl in rep.method_labels:
            assert np.isfinite(rep.mse[(150, lbl)]).all()

    def test_markov_and_holdlast_policies_run(self):
        cfg = example1_config(sample_sizes=(120,), replications=3, seed=4242,
                              horizons=3, policies=("known", "markov", "holdlast"),
                              include_lnar=False, include_var=False)
        rep = run_experiment(cfg)
        known = rep.mse[(120, "nar(known)")]
        markov = rep.mse[(120, "nar(markov)")]
        hold = rep.mse[(120, "nar(holdlast)")]
        assert np.isfinite(known).all() and np.isfinite(markov).all()
        assert np.isfinite(hold).all()
        # estimated-network forecasts cannot beat the known-network ones on average
        assert markov.mean() >= known.mean() * 0.85


def simulate_replicate(cfg, n_index, n, rep):
    """One replicate's path and post-burn-in network, from one-path simulator calls."""
    rng = harness._replicate_seed(cfg.seed, n_index, rep)
    ads = cfg.network.simulate(cfg.burn_in + n + cfg.horizons, seed=rng)
    sim = simulate_lnar if isinstance(cfg.process, LnarSpec) else simulate_nar
    x_all = sim(cfg.process, ads, cfg.innov, n=n + cfg.horizons, burn_in=cfg.burn_in, seed=rng)
    return x_all, ads.drop_first(cfg.burn_in)


def per_method_refits(cfg, n_index, n, rep):
    """A replicate's errors with every method fitted on its own, one fit per label."""
    x_all, ads_post = simulate_replicate(cfg, n_index, n, rep)
    x_est, truth = x_all[:, :n], x_all[:, n:]
    ads_est = ads_post.take_first(n - 1)
    errors = {}
    for m in cfg.methods:
        (fit, _), = harness._fit_by_bic([(m.family, m.g, m.sparsity == "network")], x_est,
                                        ads_est, cfg.p_max)
        policy = harness._resolve_policy(m, ads_post, n, cfg.horizons)
        errors[m.label] = forecast_h(fit, x_est, ads_est, policy, cfg.horizons, truth=truth).errors
    return errors


def counted_fits(monkeypatch, fail_family=None):
    """Wrap the harness's fit, counting the models it fits and failing one family's fits."""
    calls = []
    fit = harness._fit_by_bic

    def wrapped(models, *args):
        calls.extend(family for family, _, _ in models)
        return [EstimationError(f"{fail_family} fit refused") if model[0] == fail_family
                else outcome for model, outcome in zip(models, fit(models, *args))]

    monkeypatch.setattr(harness, "_fit_by_bic", wrapped)
    return calls


def three_policy_example1():
    return example1_config(sample_sizes=(200,), replications=2, seed=9191,
                           policies=("known", "holdlast", "markov"))


class TestFitSharing:
    # a policy changes only how the future snapshots are forecast, so a
    # replicate fits each distinct (family, g, sparsity) once
    @pytest.mark.parametrize("roundtrip", [False, True])
    def test_one_fit_per_model_with_the_per_method_errors(self, roundtrip, monkeypatch):
        cfg = three_policy_example1()
        if roundtrip:  # equal g's that are not the same object
            cfg = config_from_json(config_to_json(cfg))
            assert cfg.methods[0].g is not cfg.methods[1].g
        expected = per_method_refits(cfg, 0, 200, 1)
        calls = counted_fits(monkeypatch)
        errors = harness._run_chunk(cfg, 0, 200, [1])[0]
        assert sorted(calls) == ["lnar", "nar", "var"]
        assert list(errors) == list(expected) and len(errors) == 7
        for lbl, err in expected.items():
            assert np.array_equal(errors[lbl], err), lbl

    def test_one_forecast_call_per_distinct_fit(self, monkeypatch):
        # the three policies of nar and of lnar each go to one call, the VAR's alone
        calls = []
        real = harness.forecast_h

        def counted(fit, x, ads, policies, h, truth=None):
            calls.append((fit.family, len(policies)))
            return real(fit, x, ads, policies, h, truth=truth)

        monkeypatch.setattr(harness, "forecast_h", counted)
        errors = harness._run_chunk(three_policy_example1(), 0, 200, [0])[0]
        assert sorted(calls) == [("lnar", 3), ("nar", 3), ("var", 1)]
        assert len(errors) == 7

    def test_a_failed_shared_fit_fails_every_method_sharing_it(self, monkeypatch):
        calls = counted_fits(monkeypatch, fail_family="lnar")
        errors = harness._run_chunk(three_policy_example1(), 0, 200, [0])[0]
        assert len(calls) == 3
        for lbl, err in errors.items():
            assert (err is None) == lbl.startswith("lnar("), lbl


def unshared_errors(cfg, n_index, n, rep):
    """A replicate's errors from plain BIC selections and fits, each evaluating G itself
    on a series of its own; the masked VAR keeps the coefficients whose G entry (the raw
    network's without g) is non-zero somewhere in the sample."""
    x_all, ads_post = simulate_replicate(cfg, n_index, n, rep)
    x_est, truth = x_all[:, :n], x_all[:, n:]
    ads_est = ads_post.take_first(n - 1)
    errors = {}
    for m in cfg.methods:
        if m.family == "var":
            mask = None
            if m.sparsity == "network":
                base = ads_est.mats[: n - 1] if m.g is None else apply_neighborhood_fn(
                    m.g, ads_est.mats[: n - 1])
                base = base.any(axis=0)
                mask = np.concatenate([base.astype(float)] * cfg.p_max, axis=1)
            p = select_order_bic(x_est, p_max=cfg.p_max, family="var", mask=mask).p
            fit = fit_var(x_est, p, mask=None if mask is None else mask[:, : x_est.shape[0] * p])
        else:
            p = select_order_bic(x_est, AdjacencySeries(ads_est.mats), m.g, p_max=cfg.p_max,
                                 family=m.family).p
            fit = (fit_nar if m.family == "nar" else fit_lnar)(
                x_est, AdjacencySeries(ads_est.mats), [m.g] * p, p)
        policy = harness._resolve_policy(m, ads_post, n, cfg.horizons)
        errors[m.label] = forecast_h(fit, x_est, ads_est, policy, cfg.horizons, truth=truth).errors
    return errors


def fit_side_g_calls(monkeypatch):
    """The leading size of every chunk of G the fits' pass over a series evaluates;
    simulation and forecasts call the kernel through their own module's name, so they
    are not counted.  Example 2 at d=10 and the panel (d=24) fit on fewer snapshots
    than one chunk holds, so each G is one call."""
    sizes = []
    real = apply_neighborhood_fn

    def counted(fn, ad):
        sizes.append(len(ad))
        return real(fn, ad)

    monkeypatch.setattr(netdyn, "apply_neighborhood_fn", counted)
    return sizes


def example2_d10():
    return example2_config(d=10, policies=("known", "holdlast"))


def raw_masked_example1():
    # a VAR masked by the raw network, which is sparse in example 1
    cfg = three_policy_example1()
    return dataclasses.replace(cfg, methods=[*cfg.methods, MethodSpec("var", sparsity="network")])


def reversed_example1():
    # lnar before nar on the same g: the shared G's diagonal must reach nar intact
    cfg = three_policy_example1()
    return dataclasses.replace(cfg, methods=cfg.methods[::-1])


class TestGSharing:
    # a replicate's fits read one chunked pass over each distinct method G
    @pytest.mark.parametrize("make", [example2_d10, three_policy_example1, reversed_example1,
                                      raw_masked_example1])
    def test_shared_evaluation_gives_the_unshared_errors(self, make):
        cfg = make()
        n = cfg.sample_sizes[0]
        expected = unshared_errors(cfg, 0, n, 1)
        errors = harness._run_chunk(cfg, 0, n, [1])[0]
        assert list(errors) == list(expected)
        for lbl, err in expected.items():
            assert np.array_equal(errors[lbl], err), lbl

    @pytest.mark.parametrize("order", [("lnar", "nar"), ("nar", "lnar")],
                             ids=["lnar_then_nar", "nar_then_lnar"])
    def test_nar_and_lnar_on_one_series_give_the_fresh_series_fits(self, order):
        # lnar zeroes the diagonal of its private chunks of G, so a nar fit on the same
        # series, before or after it or in the same pass, still sees G's diagonal
        rng = np.random.default_rng(8)
        x, mats = rng.normal(size=(4, 120)), (rng.random((119, 4, 4)) < 0.5) * 1.0
        g, shared, together = (NeighborhoodFn.transpose(), AdjacencySeries(mats),
                               AdjacencySeries(mats))
        assert np.diagonal(mats, axis1=1, axis2=2).any()
        fitters = {"nar": fit_nar, "lnar": fit_lnar}
        both = harness._fit_by_bic([(f, g, False) for f in order], x, together, 2, p=1)
        for family, outcome in zip(order, both):
            fresh = outcome_values((fitters[family](x, AdjacencySeries(mats), [g], 1), None))
            assert outcome_values((fitters[family](x, shared, [g], 1), None)) == fresh
            assert outcome_values(outcome) == fresh

    def test_the_fits_evaluate_g_once_over_the_estimation_snapshots(self, monkeypatch):
        # lnar BIC, lnar refit and the VAR mask once evaluated it three times
        cfg = example2_d10()
        n = cfg.sample_sizes[0]
        sizes = fit_side_g_calls(monkeypatch)
        harness._run_chunk(cfg, 0, n, [0])
        assert sizes == [n - 1]

    def test_the_panel_pipeline_evaluates_g_once(self, panel, monkeypatch):
        # var, lnar and nar fit on one series, so lnar and nar share its evaluation
        h = 8
        n_est = panel.n_quarters - 1 - h
        sizes = fit_side_g_calls(monkeypatch)
        run_rolling_forecast(panel, methods=("var", "lnar", "nar"), h=h)
        assert sizes == [n_est - 1]


# each edit of the example-1 document breaks one part; the problem must name that part
_MALFORMED = {
    "markov_network_without_stay": (lambda doc: doc["network"].pop("stay"), "network"),
    "stay_shape_against_enter": (lambda doc: doc["network"].update(stay=[[0.5]]), "network"),
    "method_as_string": (lambda doc: doc["methods"].__setitem__(1, "nar"), "methods[1]"),
    "method_with_bogus_g": (lambda doc: doc["methods"][0].update(g={"kind": "bogus"}),
                            "methods[0]"),
    "process_without_A": (lambda doc: doc["process"].pop("A"), "process"),
    "process_p2_with_one_A": (lambda doc: doc["process"].update(p=2), "process"),
    "density_matched_without_parameters": (
        lambda doc: doc.update(network={"kind": "density_matched", "d": 4}), "network"),
    "flip_persist_prob_above_one": (
        lambda doc: doc.update(network={"kind": "flip", "persist_prob": 2.0}), "network"),
    "two_entry_mu_for_d4": (lambda doc: doc["process"]["innov"].update(mu=[1.0, 2.0]),
                            "process"),
    "method_listed_twice": (lambda doc: doc["methods"].append(copy.deepcopy(doc["methods"][0])),
                            "methods[3]"),
}


class TestReplicateChunks:
    """Replicates run in chunks simulated together; no report depends on the chunk."""

    @pytest.mark.parametrize("config", [
        lambda: example1_config(replications=8, policies=("known", "holdlast", "markov")),
        lambda: example2_config(d=10, replications=8),
    ], ids=["example1", "example2_d10"])
    def test_reports_are_byte_identical_at_every_chunk_size_and_thread_count(
            self, config, tmp_path, monkeypatch):
        cfg = config()
        outputs = {}
        for size in (1, 2, cfg.replications):
            monkeypatch.setattr(harness, "_replicates_per_chunk", lambda *args: size)
            for threads in (1, 2):
                out = tmp_path / f"{size}-{threads}"
                run_experiment(cfg, threads=threads, out_dir=str(out))
                outputs[size, threads] = {name: (out / name).read_bytes()
                                          for name in sorted(os.listdir(out))}
        first = outputs[1, 1]
        assert len(first) == 4
        assert [key for key, files in outputs.items() if files != first] == []

    def test_the_chunk_rule(self):
        # T d (d + 8) path bytes a replicate within 160 KiB, at most ceil(B / threads)
        ex1 = example1_config(replications=200)
        assert [harness._replicates_per_chunk(ex1, 500, t) for t in (1, 2, 200)] == [3, 3, 1]
        assert harness._replicates_per_chunk(dataclasses.replace(ex1, replications=5), 500,
                                             2) == 3
        assert harness._replicates_per_chunk(example2_config(d=10), 500, 1) == 1
        assert harness._replicates_per_chunk(example2_config(d=100), 500, 1) == 1
        assert harness._replicates_per_chunk(tiny_config(reps=7), 60, 1) == 7

    def test_an_example1_chunk_simulates_within_one_replicates_peak(self):
        # A chunk of three runs its walk and recursion in 32 KiB time chunks, one
        # replicate in 1 MiB ones (the whole example-1 path), so the chunk's simulation
        # peak (measured 304 KiB) stays below one replicate's (324 KiB).  The margin
        # allowed is the benchmark's 10 percent bound on peak_alloc_mb.
        import tracemalloc

        cfg = example1_config(replications=200, policies=("known", "holdlast", "markov"))
        n = cfg.sample_sizes[0]
        reps = range(harness._replicates_per_chunk(cfg, n, 1))
        assert len(reps) == 3

        def simulate(seed):
            ads = cfg.network.simulate(cfg.burn_in + n + cfg.horizons, seed=seed)
            return simulate_nar(cfg.process, ads, cfg.innov, n=n + cfg.horizons,
                                burn_in=cfg.burn_in, seed=seed)

        peaks = []
        for seed in (harness._replicate_seed(cfg.seed, 0, 0),
                     [harness._replicate_seed(cfg.seed, 0, rep) for rep in reps]):
            simulate(seed)  # lazy imports and first-touch allocations stay outside
            tracemalloc.start()
            simulate(seed)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        one, chunk = peaks
        assert chunk <= 1.1 * one, (chunk, one)


class TestConfigJson:
    def test_roundtrip(self):
        cfg = example1_config(replications=5, sample_sizes=(100,))
        doc = config_to_json(cfg)
        assert validate_config(doc) == []
        back = config_from_json(doc)
        assert back.replications == 5
        assert [m.label for m in back.methods] == [m.label for m in cfg.methods]
        assert np.array_equal(back.process.A[0], cfg.process.A[0])

    def test_validation_catches_problems(self):
        doc = config_to_json(example1_config(replications=5))
        del doc["seed"]
        assert any("seed" in p for p in validate_config(doc))
        doc2 = config_to_json(example1_config(replications=5))
        doc2["methods"][0] = {"family": "nar", "policy": "bogus", "g": {"kind": "transpose"}}
        assert any("policy" in p for p in validate_config(doc2))

    @pytest.mark.parametrize("key, value, problem", [
        ("p_max", 0, "p_max must be an integer >= 1"),
        ("burn_in", -3, "burn_in must be an integer >= 0"),
        ("horizons", True, "horizons must be an integer >= 1"),
    ])
    def test_schema_bounds_are_enforced(self, key, value, problem):
        doc = config_to_json(example1_config(replications=5))
        doc[key] = value
        assert problem in validate_config(doc)
        with pytest.raises(ValueError, match=problem):
            config_from_json(doc)

    def test_method_sparsity_and_freeze_flag_are_checked(self):
        doc = config_to_json(example1_config(replications=5))
        doc["methods"][0]["sparsity"] = "dense"
        doc["methods"][1]["freeze_markov"] = "yes"
        assert validate_config(doc) == ["methods[0]: unknown sparsity 'dense'",
                                        "methods[1]: freeze_markov must be a boolean, not 'yes'"]

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_document_names_its_path(self, case):
        edit, path = _MALFORMED[case]
        doc = config_to_json(example1_config(replications=5))
        edit(doc)
        problems = validate_config(doc)
        assert any(p.startswith(path + ": ") for p in problems), problems
        with pytest.raises(ValueError, match=re.escape(path + ": ")):
            config_from_json(doc)

    @pytest.mark.parametrize("field, value, problem", [
        ("p_max", 0, "p_max must be an integer >= 1"),
        ("burn_in", -3, "burn_in must be an integer >= 0"),
        ("sample_sizes", (), "sample_sizes must be a nonempty list of integers >= 10"),
        ("sample_sizes", (3,), "sample_sizes must be a nonempty list of integers >= 10"),
    ])
    def test_config_constructor_applies_the_schema_rules(self, field, value, problem):
        with pytest.raises(ValueError, match=re.escape(problem)):
            dataclasses.replace(tiny_config(), **{field: value})

    def test_method_spec_rejects_non_boolean_freeze_flag(self):
        with pytest.raises(ValueError, match="freeze_markov must be a boolean"):
            MethodSpec("nar", "markov", NeighborhoodFn.transpose(), freeze_markov="yes")

    def test_schema_agrees_with_the_constructors(self, capsys):
        g = NeighborhoodFn.transpose()
        makers = {
            "family": lambda v: MethodSpec(v, g=None if v == "var" else g),
            # a VAR ignores its policy, so "none" is checked on the VAR
            "policy": lambda v: MethodSpec("var", v) if v == "none" else MethodSpec("nar", v, g),
            "sparsity": lambda v: MethodSpec("var", sparsity=v),
        }
        listed = CONFIG_SCHEMA["properties"]["methods"]["items"]["properties"]
        for key, make in makers.items():
            for value in listed[key]["enum"]:
                make(value)
            with pytest.raises(ValueError):
                make("unlisted")
        parameters = {"markov_edges": {"stay": [[0.5]], "enter": [[0.5]]}, "flip": {},
                      "density_matched": {"d": 4, "mean_density": 0.5, "persistence": 0.9}}
        variants = CONFIG_SCHEMA["properties"]["network"]["oneOf"]
        assert sorted(v["properties"]["kind"]["const"] for v in variants) == sorted(parameters)
        for variant in variants:
            kind = variant["properties"]["kind"]["const"]
            doc = {"kind": kind, **parameters[kind]}
            nio.network_model_from_json(doc)
            for key in variant["required"]:
                with pytest.raises(KeyError):
                    nio.network_model_from_json({k: v for k, v in doc.items() if k != key})
        with pytest.raises(ValueError, match="unknown network model kind"):
            nio.network_model_from_json({"kind": "unlisted"})
        assert main(["experiment", "--print-schema"]) == 0
        assert json.loads(capsys.readouterr().out) == CONFIG_SCHEMA

    def test_method_spec_rejects_unknown_sparsity(self):
        with pytest.raises(ValueError, match="unknown sparsity 'dense'"):
            MethodSpec("var", sparsity="dense")

    @pytest.mark.parametrize("family, sparsity, problem", [
        ("nar", "network", "sparsity 'network' applies to var only, not nar"),
        ("lnar", "network", "sparsity 'network' applies to var only, not lnar"),
        ("var", "none", "a var method reads g only with sparsity 'network'"),
    ])
    def test_method_spec_rejects_a_setting_it_would_ignore(self, family, sparsity, problem):
        with pytest.raises(ValueError, match=re.escape(problem)):
            MethodSpec(family, g=NeighborhoodFn.transpose(), sparsity=sparsity)

    def test_network_vertex_count_must_match_the_process(self):
        doc = config_to_json(example1_config(replications=5))
        doc["network"] = {"kind": "flip", "persist_prob": 0.9}
        assert validate_config(doc) == ["dimensions differ: network 3, process 4, innov 4"]

    @pytest.mark.parametrize("make, edit, problems", [
        (example1_config, lambda proc: proc["A"][0][0].__setitem__(0, 1.5),
         ["process: fails the stationarity check (rho=1.598018)"]),
        (example2_config, lambda proc: proc["alpha"][0].__setitem__(0, 0.9),
         ["process: fails the stationarity check (c_lambda=1.710000)"]),
        # c_lambda < 1 and a G without a certificate: the simulated network decides
        (example2_config, lambda proc: proc.update(G=[{"kind": "transpose"}]), []),
    ], ids=["nar-rho", "lnar-c_lambda", "lnar-uncertified-g"])
    def test_a_process_that_fails_its_stationarity_check_is_refused_at_load(
            self, make, edit, problems):
        doc = config_to_json(make(replications=5))
        edit(doc["process"])
        assert validate_config(doc) == problems
        if problems:
            with pytest.raises(ValueError, match=re.escape(problems[0])):
                config_from_json(doc)

    @pytest.mark.parametrize("policy", ["markov", "known", "holdlast", 1.5])
    def test_a_var_method_refuses_a_network_policy(self, policy):
        with pytest.raises(ValueError, match=re.escape(f"var takes network policy 'none', "
                                                       f"not {policy!r}")):
            MethodSpec("var", policy)
        doc = config_to_json(example1_config(replications=5))
        doc["methods"][-1]["policy"] = policy
        assert validate_config(doc) == [f"methods[{len(doc['methods']) - 1}]: var takes "
                                        f"network policy 'none', not {policy!r}"]

    def test_a_var_method_without_a_policy_loads_and_round_trips(self):
        doc = config_to_json(example1_config(replications=5))
        assert doc["methods"][-1] == {"family": "var", "policy": "none", "sparsity": "none",
                                      "freeze_markov": True}
        del doc["methods"][-1]["policy"]
        cfg = config_from_json(doc)
        assert cfg.methods[-1].policy == "none"
        assert config_to_json(cfg) == config_to_json(example1_config(replications=5))
        assert MethodSpec("nar", g=NeighborhoodFn.transpose()).policy == "known"

    def test_schema_lists_required_keys(self):
        assert set(CONFIG_SCHEMA["required"]) <= set(CONFIG_SCHEMA["properties"])

    @pytest.mark.parametrize("make", [example1_config, example2_config],
                             ids=["example1", "example2"])
    def test_serializer_writes_the_schema_keys(self, make):
        # a key the schema lists but config_to_json never writes, or the reverse, is dead
        cfg = make()
        doc = config_to_json(cfg)
        assert set(doc) == set(CONFIG_SCHEMA["properties"])
        listed = set(CONFIG_SCHEMA["properties"]["methods"]["items"]["properties"])
        for method, entry in zip(cfg.methods, doc["methods"], strict=True):
            # a method without a neighborhood function writes no g
            assert set(entry) == listed - ({"g"} if method.g is None else set())

    def test_a_document_naming_an_output_directory_loads_as_before(self):
        # the output directory is an argument of the run; the key is ignored
        doc = config_to_json(example1_config(replications=5))
        assert config_to_json(config_from_json({**doc, "out_dir": "from_config"})) == doc


class TestExampleConfigs:
    def test_example1_network_parameters(self):
        cfg = example1_config()
        assert cfg.network.stay_prob[0, 0] == 0.95
        assert cfg.process.A[0][0, 1] == 0.7
        assert cfg.innov.mu[3] == 16.0

    def test_example2_coefficient_sums(self):
        cfg = example2_config(d=10, replications=2)
        from netar import check_stationarity_lnar
        res = check_stationarity_lnar(cfg.process)
        assert res.holds
        assert res.c_lambda == pytest.approx(0.9)
        # network generator solves the stationary density equations
        assert np.allclose(cfg.network.stay_prob, 0.95)
        assert np.allclose(cfg.network.enter_prob, 0.05)
        # banded innovation covariance scaled by 5
        assert cfg.innov.sigma[0, 0] == 5.0
        assert cfg.innov.sigma[0, 1] == pytest.approx(1.25)


class TestPanelIngestion:
    def test_hand_computed_normalization(self):
        raw = np.array([[0.0, 2.0, 1.0], [4.0, 0.0, 3.0], [1.0, 1.0, 0.0]])
        w = normalize_trade_matrix(raw)
        mutual = raw + raw.T
        for j in range(3):
            expected = mutual[:, j] / mutual[:, j].sum()
            assert np.allclose(w[:, j], expected)

    def test_uniform_trade_gives_equal_shares(self):
        d = 5
        raw = np.ones((d, d))
        np.fill_diagonal(raw, 0.0)
        w = normalize_trade_matrix(raw)
        off = w[~np.eye(d, dtype=bool)]
        assert np.allclose(off, 1.0 / (d - 1))
        assert np.allclose(np.diag(w), 0.0)

    def test_negative_trade_rejected(self):
        raw = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="negative"):
            normalize_trade_matrix(raw)

    def test_ingest_roundtrip(self, tmp_path):
        labels, quarters, levels, raw_by_year, _, _ = synthetic_panel_arrays(0, d=4,
                                                                             n_years=13)
        levels_path, weights = write_panel_files(tmp_path, labels, quarters, levels,
                                                 raw_by_year)
        panel = ingest_panel(levels_path, weights)
        assert panel.labels == labels
        assert panel.n_quarters == len(quarters)
        assert np.allclose(panel.levels, levels)
        assert panel.rows_stochastic
        assert len(panel.mats_growth) == len(quarters) - 1
        # annual matrices repeat across the four quarters of a year
        k0 = 4  # growth quarters 4..7 all end inside the second year
        for k in range(4, 7):
            assert np.array_equal(panel.mats_growth[k], panel.mats_growth[k0])

    def test_missing_year_is_named(self, tmp_path):
        labels, quarters, levels, raw_by_year, _, _ = synthetic_panel_arrays(1, d=3,
                                                                             n_years=13)
        levels_path, weights = write_panel_files(tmp_path, labels, quarters, levels,
                                                 raw_by_year)
        missing = sorted(raw_by_year)[3]
        del weights[missing]
        with pytest.raises(ValueError, match=str(missing)):
            ingest_panel(levels_path, weights)

    def test_non_numeric_cell_rejected(self, tmp_path):
        labels, quarters, levels, raw_by_year, _, _ = synthetic_panel_arrays(2, d=3,
                                                                             n_years=13)
        levels_path, weights = write_panel_files(tmp_path, labels, quarters, levels,
                                                 raw_by_year)
        bad = tmp_path / "levels_bad.csv"
        text = open(levels_path).read().splitlines()
        parts = text[3].split(",")
        parts[1] = "n/a"
        text[3] = ",".join(parts)
        bad.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match="non-numeric"):
            ingest_panel(str(bad), weights)

    def test_non_finite_cells_rejected(self, tmp_path):
        labels, quarters, levels, raw_by_year, _, _ = synthetic_panel_arrays(2, d=3,
                                                                             n_years=13)
        levels_path, weights = write_panel_files(tmp_path, labels, quarters, levels,
                                                 raw_by_year)
        bad = tmp_path / "levels_bad.csv"
        text = open(levels_path).read().splitlines()
        parts = text[3].split(",")
        parts[2] = "nan"
        text[3] = ",".join(parts)
        bad.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match=f"non-finite level cell in quarter {parts[0]}, "
                                             f"column {labels[1]}"):
            ingest_panel(str(bad), weights)
        year = min(weights)
        text = open(weights[year]).read().splitlines()
        parts = text[2].split(",")
        parts[3] = "inf"
        text[2] = ",".join(parts)
        bad_w = tmp_path / "weights_bad.csv"
        bad_w.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match=f"year {year}, row {labels[1]}, column {labels[2]}"):
            ingest_panel(levels_path, {**weights, year: str(bad_w)})


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("panel")
    labels, quarters, levels, raw_by_year, spec, innov = synthetic_panel_arrays(7)
    levels_path, weights = write_panel_files(tmp, labels, quarters, levels, raw_by_year)
    return ingest_panel(levels_path, weights)


class TestRollingForecast:

    def test_perfect_foresight_reconstruction(self, panel):
        # integrating the realized growths reproduces the held-out levels exactly
        h = 8
        x = difference(panel.levels)
        n_est = x.shape[1] - h
        rebuilt = integrate(panel.levels[:, n_est], x[:, n_est:])
        assert np.allclose(rebuilt, panel.levels[:, n_est + 1:], atol=1e-10)

    def test_pipeline_runs_and_reports(self, panel, tmp_path):
        out = tmp_path / "tables"
        result = run_rolling_forecast(panel, methods=("var", "lnar", "nar"), h=8,
                                      out_dir=str(out))
        totals = result.total_errors()
        assert set(totals) == {"var", "lnar", "nar"}
        for sq, ab in totals.values():
            assert sq >= 0 and ab >= 0
        text = (out / "panel_total_errors.csv").read_text().splitlines()
        assert text[0] == "metric,var,lnar,nar"
        assert text[1].startswith("squared_error,")
        assert text[2].startswith("absolute_error,")
        entity = (out / "panel_entity_errors.csv").read_text().splitlines()
        assert len(entity) == 1 + panel.d
        horizon = (out / "panel_horizon_errors.csv").read_text().splitlines()
        assert len(horizon) == 1 + 8

    def test_too_short_panel_rejected(self, panel):
        short = panel
        from netar.harness import PanelDataset
        trimmed = PanelDataset(short.labels, short.quarters[:30],
                               short.levels[:, :30],
                               short.mats_growth.take_first(29),
                               short.rows_stochastic)
        with pytest.raises(ValueError, match="too short"):
            run_rolling_forecast(trimmed, h=8)

    def test_byte_reproducible(self, panel, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        run_rolling_forecast(panel, h=8, out_dir=str(out1))
        run_rolling_forecast(panel, h=8, out_dir=str(out2))
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
