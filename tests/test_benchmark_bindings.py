"""The benchmark tracer still finds every layer it times.

``perfbench/spans.py`` wraps netar functions and methods by name, so
renaming or deleting one of them breaks the tracer or leaves that layer's
counts at zero.
This runs the tracer, read from ``perfbench/`` as it is, over a tiny
experiment and a tiny coupling run, requires every layer count to be
non-zero, and requires every binding to be the original again afterwards.
It also runs them twice, each under its own traced call, as the benchmark
does: the layer counts and every output file must repeat, so no state that
outlives a call (a cache, say) changes what a call does or counts.
"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np

import netar.io as nio
from netar import InnovationSpec, MarkovEdgeNetwork, NarSpec, NeighborhoodFn
from netar.cli import main
from netar.harness import config_to_json, example1_config

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
LAYER_COUNTS = ("netdyn.g_apply.calls", "netdyn.network.calls", "model.simulate.calls",
                "estimate.bic.calls", "estimate.fit.calls", "forecast.calls",
                "depmeas.coupling.steps")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every function and class attribute of netar's modules, by identity."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "netar" or name.startswith("netar.")):
            continue
        for attr, value in vars(mod).items():
            found[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for meth, fn in vars(value).items():
                    found[(name, f"{attr}.{meth}")] = fn
    return found


def _tiny_runs(tmp_path, seed):
    """A function that runs the tiny experiment and coupling run of ``seed`` into a given
    directory."""
    cfg = example1_config(sample_sizes=(60,), replications=2, seed=seed,
                          policies=("known", "markov"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_to_json(cfg)))
    network = tmp_path / "network.json"
    network.write_text(json.dumps(nio.network_model_to_json(
        MarkovEdgeNetwork(np.full((2, 2), 0.9), np.full((2, 2), 0.2)))))
    process = tmp_path / "process.json"
    nio.write_model_spec(process, NarSpec(1, [np.array([[0.3, 0.2], [0.1, 0.4]])],
                                          [NeighborhoodFn.transpose()]),
                         InnovationSpec(np.zeros(2), np.eye(2)))

    def run(out):
        assert main(["experiment", "--config", str(config), "--out", str(out / "ex")]) == 0
        assert main(["depmeas", "--network", str(network), "--process", str(process),
                     "--max-lag", "3", "--reps", "20", "--seed", str(seed),
                     "--out", str(out / "dep")]) == 0

    return run


def test_tracer_counts_every_layer_and_restores_the_originals(tmp_path):
    run = _tiny_runs(tmp_path, 5)
    before = _bindings()
    tracer = _load_spans().Tracer()
    with tracer.traced_call():
        run(tmp_path)
    assert [k for k in LAYER_COUNTS if not tracer.counts[k]] == []
    after = _bindings()
    assert sorted(f"{m}.{a}" for m, a in before if after.get((m, a)) is not before[(m, a)]) == []


def test_traced_calls_repeat_their_counts_and_outputs(tmp_path):
    # a seed no other test runs, so the first call here is the process's first on its inputs
    run = _tiny_runs(tmp_path, 6)
    tracer, counts, outputs = _load_spans().Tracer(), [], []
    for call in ("first", "second"):
        with tracer.traced_call():
            run(tmp_path / call)
        counts.append(dict(tracer.counts))
        outputs.append({str(f.relative_to(tmp_path / call)): f.read_bytes()
                        for f in sorted((tmp_path / call).rglob("*")) if f.is_file()})
    assert counts[0] == counts[1] and counts[0]["netdyn.g_apply.calls"]
    assert outputs[0] == outputs[1] and len(outputs[0]) > 2
