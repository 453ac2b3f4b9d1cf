import copy
import dataclasses
import json
import os
import re

import numpy as np
import pytest

import netar.io as nio
from netar import InnovationSpec, NarSpec, NeighborhoodFn
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
from netar.forecast import difference, integrate

from panel_helpers import synthetic_panel_arrays, write_panel_files


def tiny_config(out_dir=None, seed=5150, reps=3):
    d = 2
    spec = NarSpec(1, [np.zeros((d, d))], [NeighborhoodFn.transpose()])
    innov = InnovationSpec(np.array([1.0, -1.0]), np.eye(d))
    from netar.netdyn import MarkovEdgeNetwork
    net = MarkovEdgeNetwork(np.full((d, d), 0.8), np.full((d, d), 0.2))
    methods = [MethodSpec("nar", "known", NeighborhoodFn.transpose()),
               MethodSpec("var", "none")]
    return ExperimentConfig("tiny", net, spec, innov, (60,), 2, reps, seed,
                            methods, burn_in=30, p_max=2, out_dir=out_dir)


class TestRunExperiment:
    def test_degenerate_single_replicate_matches_direct_computation(self):
        # B=1, h=1, zero coefficients: the report is that replicate's
        # mean squared error, recomputable by hand from the same seed
        cfg = tiny_config(reps=1)
        cfg = ExperimentConfig(cfg.experiment, cfg.network, cfg.process, cfg.innov,
                               (60,), 1, 1, cfg.seed, cfg.methods, burn_in=30,
                               p_max=2)
        rep = run_experiment(cfg)
        from netar.harness import _run_one_replicate
        res = _run_one_replicate(cfg, 0, 60, 0)
        expected = (res["nar(known)"] ** 2).mean()
        assert rep.mse[(60, "nar(known)")][0] == pytest.approx(expected, abs=1e-15)

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_experiment(tiny_config(out_dir=str(out1)))
        run_experiment(tiny_config(out_dir=str(out2)))
        for name in os.listdir(out1):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, f"{name} differs between identical runs"

    def test_parallel_equals_serial(self, tmp_path):
        out1, out2 = tmp_path / "s", tmp_path / "p"
        run_experiment(tiny_config(out_dir=str(out1), reps=6))
        run_experiment(tiny_config(out_dir=str(out2), reps=6), threads=2)
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("name, config", [
        ("example1", lambda out: example1_config(
            replications=8, policies=("known", "holdlast", "markov"), out_dir=out)),
        ("example2_d10", lambda out: example2_config(d=10, replications=8, out_dir=out)),
    ])
    def test_tables_match_committed_bytes(self, name, config, tmp_path):
        # the fixtures are these runs' tables as first committed, so a change
        # that moves a printed digit fails here, not only a nondeterministic one
        run_experiment(config(str(tmp_path)))
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
        run_experiment(tiny_config(out_dir=str(out)))
        text = (out / "relative_mse_tiny.csv").read_text()
        assert "var,1.00" in text

    def test_multiple_sample_sizes_produce_rows_per_n(self, tmp_path):
        cfg = tiny_config(reps=3)
        multi = ExperimentConfig(cfg.experiment, cfg.network, cfg.process, cfg.innov,
                                 (50, 80), 2, 3, cfg.seed, cfg.methods, burn_in=20,
                                 p_max=2, out_dir=str(tmp_path / "m"))
        rep = run_experiment(multi)
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

    def test_schema_lists_required_keys(self):
        assert set(CONFIG_SCHEMA["required"]) <= set(CONFIG_SCHEMA["properties"])


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


def test_mse_fixture_recomputation(tmp_path):
    # stored per-replicate errors reproduce the stored table to 1e-12
    from netar import evaluate_mse
    fixture = os.path.join(os.path.dirname(__file__), "fixtures", "mse_fixture.json")
    with open(fixture) as fh:
        doc = json.load(fh)
    errors = np.asarray(doc["errors"])  # (B, d, h)
    rep = evaluate_mse(errors, np.zeros_like(errors))
    assert np.abs(rep.per_horizon - np.asarray(doc["per_horizon"])).max() < 1e-12
    assert np.abs(rep.per_component - np.asarray(doc["per_component"])).max() < 1e-12
