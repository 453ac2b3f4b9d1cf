import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import netar.io as nio
from netar import AdjacencySeries, InnovationSpec, LnarSpec, NarSpec, NeighborhoodFn, simulate_nar
from netar.cli import _parse_g, main
from netar.estimate import _fit_by_bic
from netar.harness import config_to_json, example1_config, example2_config

from panel_helpers import synthetic_panel_arrays, write_panel_files


@pytest.fixture()
def model_files(tmp_path):
    spec = NarSpec(1, [np.array([[0.3, 0.2], [0.0, 0.4]])], [NeighborhoodFn.transpose()])
    innov = InnovationSpec(np.array([1.0, -1.0]), np.eye(2))
    model_path = tmp_path / "model.json"
    nio.write_model_spec(model_path, spec, innov)
    net_path = tmp_path / "network.json"
    net_path.write_text(json.dumps({
        "kind": "markov_edges",
        "stay": [[0.9, 0.9], [0.9, 0.9]],
        "enter": [[0.2, 0.2], [0.2, 0.2]],
        "initial": "stationary",
    }))
    return str(model_path), str(net_path)


def test_simulate_fit_forecast_acf_pipeline(tmp_path, model_files, capsys):
    model_path, net_path = model_files
    out = str(tmp_path / "run")
    rc = main(["simulate", "--model", model_path, "--network", net_path,
               "--n", "300", "--burn-in", "100", "--seed", "3", "--out", out])
    assert rc == 0
    series = os.path.join(out, "series.csv")
    network = os.path.join(out, "network.csv")
    assert os.path.exists(series) and os.path.exists(network)

    rc = main(["fit", "--series", series, "--ads", network, "--family", "nar",
               "--g", "transpose", "--out", out])
    assert rc == 0
    shown = capsys.readouterr().out
    assert "intercept" in shown and "BIC selected" in shown
    fit_path = os.path.join(out, "fit.json")
    assert os.path.exists(fit_path)

    rc = main(["forecast", "--fit", fit_path, "--series", series, "--ads", network,
               "--policy", "holdlast", "--h", "4", "--out", out])
    assert rc == 0
    fc_lines = open(os.path.join(out, "forecast.csv")).read().splitlines()
    assert fc_lines[0] == "h,component,point"
    assert len(fc_lines) == 1 + 2 * 4

    rc = main(["acf", "--series", series, "--max-lag", "3", "--out", out])
    assert rc == 0
    acf_lines = open(os.path.join(out, "acf.csv")).read().splitlines()
    assert acf_lines[0] == "h,i,j,gamma,se"


def _time_labels(path):
    """The distinct t labels of a CSV file, in file order."""
    with open(path) as fh:
        return list(dict.fromkeys(int(line.split(",")[0]) for line in fh.readlines()[1:]))


def test_simulate_labels_series_and_network_on_one_time_axis(tmp_path, model_files):
    model_path, net_path = model_files
    out = str(tmp_path / "run")
    rc = main(["simulate", "--model", model_path, "--network", net_path,
               "--n", "5", "--burn-in", "7", "--seed", "3", "--out", out])
    assert rc == 0
    series = _time_labels(os.path.join(out, "series.csv"))
    assert series == _time_labels(os.path.join(out, "network.csv")) == list(range(5))

    # a network file labelled from 7 is read by order and written back from 0
    mats = (np.random.default_rng(2).random((5, 2, 2)) < 0.5).astype(float)
    given = tmp_path / "given.csv"
    given.write_text("t,i,j,w\n" + "".join(f"{t + 7},{i + 1},{j + 1},{mats[t, i, j]}\n"
                                            for t in range(5) for i in range(2) for j in range(2)))
    out = str(tmp_path / "given_run")
    rc = main(["simulate", "--model", model_path, "--ads", str(given),
               "--n", "5", "--burn-in", "0", "--seed", "3", "--out", out])
    assert rc == 0
    network = os.path.join(out, "network.csv")
    assert _time_labels(network) == list(range(5))
    assert np.array_equal(nio.read_adjacency_csv(network).mats, mats)


def test_simulate_burns_in_on_a_given_network(tmp_path, model_files):
    model_path, _ = model_files
    mats = (np.random.default_rng(4).random((7, 2, 2)) < 0.5).astype(float)
    given = tmp_path / "given.csv"
    nio.write_adjacency_csv(given, AdjacencySeries(mats))
    out = str(tmp_path / "run")
    rc = main(["simulate", "--model", model_path, "--ads", str(given),
               "--n", "5", "--burn-in", "2", "--seed", "3", "--out", out])
    assert rc == 0
    spec, innov = nio.read_model_spec(model_path)
    want = simulate_nar(spec, AdjacencySeries(mats), innov, n=5, burn_in=2, seed=3)
    assert np.array_equal(nio.read_series_csv(os.path.join(out, "series.csv")), want)
    assert np.array_equal(nio.read_adjacency_csv(os.path.join(out, "network.csv")).mats,
                          mats[2:])


def test_simulate_writes_a_bool_network_as_its_float_copy(tmp_path, model_files):
    # the simulated network is a bool stack; both files are those of its float copy
    model_path, net_path = model_files
    out = str(tmp_path / "run")
    assert main(["simulate", "--model", model_path, "--network", net_path,
                 "--n", "20", "--burn-in", "4", "--seed", "3", "--out", out]) == 0
    spec, innov = nio.read_model_spec(model_path)
    rng = np.random.default_rng(3)
    with open(net_path) as fh:
        on = nio.network_model_from_json(json.load(fh)).simulate(24, seed=rng)
    assert on.mats.dtype == bool
    copy = AdjacencySeries(on.mats.astype(float))
    nio.write_series_csv(tmp_path / "series.csv",
                         simulate_nar(spec, copy, innov, n=20, burn_in=4, seed=rng))
    nio.write_adjacency_csv(tmp_path / "network.csv", copy.drop_first(4))
    for name in ("series.csv", "network.csv"):
        assert (tmp_path / name).read_bytes() == open(os.path.join(out, name), "rb").read()


@pytest.mark.parametrize("source", [[], ["--network", "net.json", "--ads", "net.csv"]],
                         ids=["neither", "both"])
def test_simulate_takes_exactly_one_network_source(tmp_path, model_files, source, capsys):
    model_path, _ = model_files
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", model_path, *source, "--n", "5",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "usage: netar simulate" in capsys.readouterr().err


def test_simulate_and_fit_lnar_model(tmp_path, model_files):
    _, net_path = model_files
    spec = LnarSpec(1, np.full((1, 2), 0.3), np.full((1, 2), 0.4),
                    [NeighborhoodFn.row_normalized_transpose()])
    innov = InnovationSpec(np.zeros(2), np.eye(2))
    model_path = tmp_path / "lnar.json"
    nio.write_model_spec(model_path, spec, innov)
    out = str(tmp_path / "run")
    rc = main(["simulate", "--model", str(model_path), "--network", net_path,
               "--n", "250", "--seed", "8", "--out", out])
    assert rc == 0
    rc = main(["fit", "--series", os.path.join(out, "series.csv"),
               "--ads", os.path.join(out, "network.csv"), "--family", "lnar",
               "--g", "rownorm", "--p", "1", "--out", out])
    assert rc == 0
    fit = nio.read_fit_json(os.path.join(out, "fit.json"))
    a_hat, b_hat = fit.alpha_beta()
    assert np.abs(a_hat - 0.3).max() < 0.2
    assert np.abs(b_hat - 0.4).max() < 0.3


def test_fit_selection_and_refit_read_one_g_evaluation(tmp_path, model_files, monkeypatch):
    import netar.netdyn as netdyn

    model_path, net_path = model_files
    out = str(tmp_path / "run")
    assert main(["simulate", "--model", model_path, "--network", net_path,
                 "--n", "200", "--seed", "4", "--out", out]) == 0
    calls = []
    real = netdyn.apply_neighborhood_fn
    monkeypatch.setattr(netdyn, "apply_neighborhood_fn",
                        lambda fn, ad: calls.append(len(ad)) or real(fn, ad))
    assert main(["fit", "--series", os.path.join(out, "series.csv"),
                 "--ads", os.path.join(out, "network.csv"), "--family", "lnar",
                 "--g", "rownorm", "--out", out]) == 0
    assert calls == [199]


@pytest.fixture()
def simulated(tmp_path, model_files):
    """A simulated series and its network, as files."""
    model_path, net_path = model_files
    out = str(tmp_path / "sim")
    assert main(["simulate", "--model", model_path, "--network", net_path,
                 "--n", "200", "--seed", "5", "--out", out]) == 0
    return os.path.join(out, "series.csv"), os.path.join(out, "network.csv")


FIT_G = {"nar": "transpose", "lnar": "rownorm", "var": None}


def run_fit(tmp_path, simulated, family, *extra):
    """``netar fit`` of one family on the simulated files: its output directory and stdout."""
    series, network = simulated
    out = str(tmp_path / family)
    g = [] if FIT_G[family] is None else ["--g", FIT_G[family]]
    assert main(["fit", "--series", series, "--ads", network, "--family", family, *g,
                 *extra, "--out", out]) == 0
    return out


@pytest.mark.parametrize("family", ["nar", "lnar", "var"])
def test_fit_prints_the_plug_in_standard_errors(tmp_path, simulated, family, capsys):
    out = run_fit(tmp_path, simulated, family)
    shown = capsys.readouterr().out.splitlines()
    table = shown[shown.index(next(ln for ln in shown if ln.split()[:1] == ["comp"])) + 1: -1]
    printed = [float(ln.split()[-1]) for ln in table if "intercept" not in ln]
    with open(os.path.join(out, "fit.json")) as fh:
        comps = json.load(fh)["components"]
    expected = np.concatenate([
        np.sqrt(np.clip(np.diag(np.asarray(c["asymp_cov"], dtype=float)), 0.0, None)
                / c["n_obs"]) for c in comps])
    assert len(printed) == expected.size > 0
    np.testing.assert_allclose(printed, expected, rtol=0, atol=5.01e-6)


@pytest.mark.parametrize("p", [None, 2], ids=["bic", "given"])
@pytest.mark.parametrize("family", ["nar", "lnar", "var"])
def test_fit_command_runs_the_one_fit_procedure(tmp_path, simulated, family, p, capsys):
    out = run_fit(tmp_path, simulated, family, *([] if p is None else ["--p", str(p)]))
    shown = capsys.readouterr().out
    series, network = simulated
    g = None if FIT_G[family] is None else _parse_g(FIT_G[family])
    (fit, sel), = _fit_by_bic([(family, g, False)], nio.read_series_csv(series),
                              nio.read_adjacency(network), 3, p=p)
    nio.write_fit_json(tmp_path / "direct.json", fit)
    assert (tmp_path / "direct.json").read_bytes() == open(os.path.join(out, "fit.json"),
                                                         "rb").read()
    bic = [ln for ln in shown.splitlines() if ln.startswith("BIC selected")]
    if p is None:
        assert sel.p == fit.p
        assert bic == [f"BIC selected p={sel.p} "
                       + " ".join(f"p{q}={v:.2f}" for q, v in sel.table.items())]
    else:
        assert sel is None and bic == [] and fit.p == p


def test_fit_rejects_g_for_var(tmp_path, simulated):
    # netar fit has no network-masked var, so a g for it would be silently ignored
    series, network = simulated
    with pytest.raises(SystemExit, match="--g"):
        main(["fit", "--series", series, "--ads", network, "--family", "var",
              "--g", "sign_poly:2", "--p", "1", "--out", str(tmp_path / "var")])
    assert not (tmp_path / "var" / "fit.json").exists()


def test_forecast_known_policy_and_truth(tmp_path, model_files):
    model_path, net_path = model_files
    out = str(tmp_path / "run")
    main(["simulate", "--model", model_path, "--network", net_path,
          "--n", "200", "--seed", "5", "--out", out])
    series = os.path.join(out, "series.csv")
    network = os.path.join(out, "network.csv")
    main(["fit", "--series", series, "--ads", network, "--family", "var",
          "--p", "1", "--out", out])
    # reuse the last two snapshots as a stand-in "future" network file
    ads = nio.read_adjacency(network)
    future = ads.drop_first(len(ads) - 2)
    fut_path = os.path.join(out, "future.csv")
    nio.write_adjacency_csv(fut_path, future)
    truth_path = os.path.join(out, "truth.csv")
    nio.write_series_csv(truth_path, np.zeros((2, 2)))
    rc = main(["forecast", "--fit", os.path.join(out, "fit.json"), "--series", series,
               "--ads", network, "--policy", f"known:{fut_path}", "--h", "2",
               "--truth", truth_path, "--out", out])
    assert rc == 0
    lines = open(os.path.join(out, "forecast.csv")).read().splitlines()
    assert lines[0] == "h,component,point,truth,error"


def test_depmeas_command(tmp_path, model_files, capsys):
    model_path, net_path = model_files
    out = str(tmp_path / "dm")
    rc = main(["depmeas", "--network", net_path, "--q", "1", "--max-lag", "6",
               "--reps", "500", "--seed", "11", "--out", out])
    assert rc == 0
    assert "decay_ratio" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "delta.csv"))
    decay = json.load(open(os.path.join(out, "decay.json")))
    assert decay["q"] == 1.0

    rc = main(["depmeas", "--network", net_path, "--process", model_path,
               "--q", "2", "--max-lag", "4", "--reps", "200", "--seed", "12",
               "--out", out])
    assert rc == 0


def test_experiment_command(tmp_path, capsys):
    cfg = example1_config(sample_sizes=(80,), replications=2, horizons=2, seed=9)
    cfg_path = tmp_path / "exp.json"
    # a document naming its own output directory still loads; --out decides
    cfg_path.write_text(json.dumps({**config_to_json(cfg), "out_dir": str(tmp_path / "doc")}))
    out = str(tmp_path / "exp_out")
    rc = main(["experiment", "--config", str(cfg_path), "--out", out])
    assert rc == 0
    shown = capsys.readouterr().out
    assert "nar(known)" in shown
    assert shown.endswith(f"reports written to {out}\n")
    assert os.path.exists(os.path.join(out, "mse_example1.csv"))
    assert not (tmp_path / "doc").exists()

    rc = main(["experiment", "--print-schema"])
    assert rc == 0
    assert "sample_sizes" in capsys.readouterr().out


def test_panel_command(tmp_path, capsys):
    labels, quarters, levels, raw_by_year, _, _ = synthetic_panel_arrays(21, d=4,
                                                                         n_years=13)
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    levels_path, weights = write_panel_files(data_dir, labels, quarters, levels,
                                             raw_by_year)
    out = str(tmp_path / "panel_out")
    rc = main(["panel", "--levels", levels_path, "--weights-dir", str(data_dir),
               "--h", "4", "--methods", "var,lnar", "--out", out])
    assert rc == 0
    shown = capsys.readouterr().out
    assert "method,total_squared,total_absolute,order" in shown
    assert os.path.exists(os.path.join(out, "panel_total_errors.csv"))


@pytest.mark.parametrize("family, argv, message", [
    ("nar", [], "nar/lnar fitting needs --g$"),
    ("lnar", [], "nar/lnar fitting needs --g$"),
    ("var", ["--pmax", "0"], "--pmax must be at least 1, got 0$"),
    ("var", ["--p", "-1"], "--p must be at least 0, got -1$"),
], ids=["nar-without-g", "lnar-without-g", "pmax", "p"])
def test_fit_flag_errors_name_the_flag(tmp_path, simulated, family, argv, message):
    series, network = simulated
    with pytest.raises(SystemExit, match=message):
        main(["fit", "--series", series, "--ads", network, "--family", family, *argv,
              "--out", str(tmp_path / "fit")])
    assert not (tmp_path / "fit" / "fit.json").exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_experiment_threads_below_one_exit_naming_the_flag(tmp_path, threads):
    # checked before the config is read: the config file does not exist
    with pytest.raises(SystemExit, match=f"^--threads must be at least 1, got {threads}$"):
        main(["experiment", "--config", str(tmp_path / "absent.json"), "--threads", threads,
              "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_experiment_with_an_invalid_config_exits_with_its_problems(tmp_path):
    doc = config_to_json(example1_config(sample_sizes=(80,), replications=2, horizons=2))
    doc.update(horizons=0, p_max="3")
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "exp_out"
    with pytest.raises(SystemExit, match=r"^invalid experiment config: horizons must be an "
                                         r"integer >= 1; p_max must be an integer >= 1$"):
        main(["experiment", "--config", str(cfg_path), "--out", str(out)])
    assert not out.exists()


def non_stationary_nar(doc):
    doc["process"]["A"][0][0][0] = 1.5


def dense_lnar_with_an_uncertified_g(doc):
    # c_lambda = 0.9 < 1 passes at load; zero-diag G = Ad^T has rows summing to
    # about 4 on this dense network, so the check on the simulated network fails
    doc["process"]["G"] = [{"kind": "transpose"}]


@pytest.mark.parametrize("make, edit, message", [
    (example1_config, non_stationary_nar,
     r"invalid experiment config: process: fails the stationarity check \(rho=1.598018\)"),
    (lambda **kw: example2_config(d=6, **kw), dense_lnar_with_an_uncertified_g,
     r"spec fails the stationarity check: G_1 \(transpose\) has no infinity-norm "
     r"certificate and reaches \d+ on the supplied network; .*"),
], ids=["at-load", "on-the-simulated-network"])
def test_experiment_with_a_non_stationary_process_exits_with_one_line(tmp_path, make, edit,
                                                                        message):
    doc = config_to_json(make(sample_sizes=(80,), replications=2, horizons=2))
    edit(doc)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "exp_out"
    with pytest.raises(SystemExit, match=f"^{message}$"):
        main(["experiment", "--config", str(cfg_path), "--out", str(out)])
    assert not out.exists()


def test_experiment_that_a_method_aborts_exits_with_one_line(tmp_path):
    doc = config_to_json(example1_config(sample_sizes=(10,), replications=4))
    doc.update(burn_in=10, methods=[{"family": "var"}])  # too short for any var fit
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "exp_out"
    with pytest.raises(SystemExit, match=r"^method var failed on 4 of 4 replicates at n=10; "
                                         r"aborting \(threshold 1%\)$") as exc:
        main(["experiment", "--config", str(cfg_path), "--out", str(out)])
    assert exc.value.code != 0
    assert not out.exists()


def explosive_model(tmp_path):
    """A 2-component NAR whose own coefficient of component 1 is 1.5."""
    path = tmp_path / "explosive.json"
    nio.write_model_spec(path, NarSpec(1, [np.array([[1.5, 0.2], [0.0, 0.4]])],
                                       [NeighborhoodFn.transpose()]),
                         InnovationSpec(np.array([1.0, -1.0]), np.eye(2)))
    return str(path)


def three_vertex_network(tmp_path):
    path = tmp_path / "network3.json"
    path.write_text(json.dumps({"kind": "markov_edges", "stay": [[0.9] * 3] * 3,
                                "enter": [[0.2] * 3] * 3, "initial": "stationary"}))
    return str(path)


@pytest.mark.parametrize("command, message", [
    (["simulate", "--model", "{explosive}", "--network", "{network}", "--n", "10"],
     r"spec fails the stationarity check \(rho=1.500000\); .*"),
    (["simulate", "--model", "{model}", "--network", "{network3}", "--n", "10"],
     "simulate_nar: the network has 3 vertices but the process has 2 components"),
    (["depmeas", "--network", "{network}", "--reps", "1"], "--reps must be at least 2, got 1"),
    (["depmeas", "--network", "{network}", "--q", "0"], "--q must be positive, got 0.0"),
    (["depmeas", "--network", "{network}", "--q", "nan"], "--q must be positive, got nan"),
    (["depmeas", "--network", "{network}", "--max-lag", "-1"],
     "--max-lag must be at least 0, got -1"),
    (["depmeas", "--network", "{network3}", "--process", "{model}", "--reps", "10"],
     "the network has 3 vertices but the process has 2 components"),
], ids=["simulate-non-stationary", "simulate-network-size", "depmeas-reps", "depmeas-q",
        "depmeas-q-nan", "depmeas-max-lag", "depmeas-network-size"])
def test_simulate_and_depmeas_bad_input_exits_with_one_line(tmp_path, model_files, command,
                                                             message):
    model_path, net_path = model_files
    paths = dict(model=model_path, network=net_path,
                 explosive=explosive_model(tmp_path),
                 network3=three_vertex_network(tmp_path))
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=f"^{message}$"):
        main([arg.format(**paths) for arg in command] + ["--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["experiment", "--config", "{path}"],
    ["fit", "--series", "{path}", "--family", "var"],
    ["simulate", "--model", "{path}", "--ads", "{path}", "--n", "10"],
], ids=["experiment-config", "fit-series", "simulate-model"])
def test_a_missing_input_file_exits_with_one_line_naming_it(tmp_path, command):
    path = str(tmp_path / "absent.json")
    with pytest.raises(SystemExit, match=f"^{re.escape(path)}: No such file or directory$"):
        main([arg.format(path=path) for arg in command] + ["--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command", [
    ["experiment", "--config", "{path}"],
    ["simulate", "--model", "{path}", "--ads", "{path}", "--n", "10"],
    ["depmeas", "--network", "{path}"],
], ids=["experiment-config", "simulate-model", "depmeas-network"])
def test_a_truncated_json_input_exits_with_one_line_naming_it(tmp_path, command):
    doc = json.dumps(config_to_json(example1_config(sample_sizes=(80,), replications=2)))
    path = tmp_path / "truncated.json"
    path.write_text(doc[: len(doc) // 2])
    with pytest.raises(SystemExit, match=f"^{re.escape(str(path))}: not valid JSON "
                                         r"\(.* at line \d+, column \d+\)$"):
        main([arg.format(path=path) for arg in command] + ["--out", str(tmp_path / "out")])


NO_MASKED_ARRAYS = """
import json, os, sys
import numpy as np
import netar.io as nio
from netar import InnovationSpec, NarSpec, NeighborhoodFn
from netar.cli import main
from netar.harness import config_to_json, example1_config, example2_config

out = sys.argv[1]
for name, cfg in (("ex1", example1_config(sample_sizes=(80,), replications=2, horizons=2,
                                          policies=("known", "holdlast", "markov"))),
                  ("ex2", example2_config(d=6, sample_sizes=(80,), replications=2,
                                          horizons=2))):
    path = os.path.join(out, name + ".json")
    with open(path, "w") as fh:
        json.dump(config_to_json(cfg), fh)
    assert main(["experiment", "--config", path, "--out", os.path.join(out, name)]) == 0
spec = NarSpec(1, [np.array([[0.3, 0.2], [0.0, 0.4]])], [NeighborhoodFn.transpose()])
nio.write_model_spec(os.path.join(out, "model.json"), spec,
                     InnovationSpec(np.array([1.0, -1.0]), np.eye(2)))
with open(os.path.join(out, "network.json"), "w") as fh:
    json.dump({"kind": "markov_edges", "stay": [[0.9, 0.9], [0.9, 0.9]],
               "enter": [[0.2, 0.2], [0.2, 0.2]], "initial": "stationary"}, fh)
sim = os.path.join(out, "sim")
assert main(["simulate", "--model", os.path.join(out, "model.json"), "--network",
             os.path.join(out, "network.json"), "--n", "120", "--seed", "2", "--out", sim]) == 0
for family, g in (("nar", ["--g", "transpose"]), ("lnar", ["--g", "rownorm"]), ("var", [])):
    assert main(["fit", "--series", os.path.join(sim, "series.csv"), "--ads",
                 os.path.join(sim, "network.csv"), "--family", family, *g, "--out",
                 os.path.join(out, family)]) == 0
print("numpy.ma" in sys.modules)
"""


def test_experiments_and_fits_import_no_masked_arrays(tmp_path):
    # benchmarks measure the first call's peak allocation, which counts every module
    # imported on the way: numpy.ma, which np.unique imports lazily, adds about 1 MB
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
