"""The benchmark's workloads: how each writes its inputs, calls netar, and
what counts as one replicate and one operation.

Every workload drives netar through its user entry point, ``netar.cli.main``,
with input files written here from the public serializers.  The workload
seed reaches the program only through those files (the experiment config's
``seed``) or through the CLI's ``--seed`` flag (depmeas, whose inputs carry
no seed).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import yardstick

# Seed whose outputs are stored under reference/<workload>/; any other seed is
# checked by byte-identity between repeated calls within the run.
DEFAULT_SEED = 1

EX1_REPS = 6
EX2_D = 100
EX2_REPS = 2
COUPLING_D = 33
COUPLING_PAIRS = 500
COUPLING_MAX_LAG = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # write_inputs(in_dir, seed) -> (argv for netar.cli.main without --threads and
    # --out, facts about one replicate that the layer metrics need)
    write_inputs: Callable[[str, int], Tuple[List[str], dict]]
    replicates: int  # replicates (coupled pairs) per call
    reference_files: Tuple[str, ...]  # outputs compared against reference/<name>/
    yardstick: Callable[[], Callable[[], object]]  # builds the run's reference kernel
    experiment: str = ""  # report_<experiment>.json holds the failure map; "" for depmeas

    def operations(self, facts: dict) -> int:
        """Operations per call: (replicate, method) fits, or coupling lags."""
        if self.experiment:
            return self.replicates * facts["methods"]
        return COUPLING_MAX_LAG + 1

    def failed_operations(self, out_dir: str) -> int:
        """Failed operations of one completed call, read from its outputs."""
        if self.experiment:
            with open(os.path.join(out_dir, f"report_{self.experiment}.json")) as fh:
                return sum(int(v) for v in json.load(fh)["failures"].values())
        with open(os.path.join(out_dir, "delta.csv")) as fh:
            rows = list(fh)[1:]
        return sum(1 for row in rows if not math.isfinite(float(row.split(",")[1])))


def _dump(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _distinct_g(cfg) -> int:
    """Distinct neighborhood functions a replicate of ``cfg`` evaluates."""
    gs = {json.dumps(g.to_json(), sort_keys=True) for g in cfg.process.G}
    gs |= {json.dumps(m.g.to_json(), sort_keys=True) for m in cfg.methods if m.g is not None}
    return len(gs)


def _experiment_inputs(cfg, in_dir: str) -> Tuple[List[str], dict]:
    from netar.harness import config_to_json

    path = os.path.join(in_dir, "config.json")
    _dump(path, config_to_json(cfg))
    n = max(cfg.sample_sizes)
    facts = {
        "methods": len(cfg.methods),
        "distinct_g": _distinct_g(cfg),
        "path_snapshots": cfg.burn_in + n + cfg.horizons,
    }
    return ["experiment", "--config", path], facts


def ex1_inputs(in_dir: str, seed: int, replications: int = EX1_REPS):
    from netar.harness import example1_config

    cfg = example1_config(sample_sizes=(500,), replications=replications, seed=seed,
                          horizons=4, policies=("known", "holdlast", "markov"))
    return _experiment_inputs(cfg, in_dir)


def _ex2_inputs(in_dir: str, seed: int):
    from netar.harness import example2_config

    cfg = example2_config(d=EX2_D, sample_sizes=(500,), replications=EX2_REPS, seed=seed)
    return _experiment_inputs(cfg, in_dir)


def _coupling_inputs(in_dir: str, seed: int):
    from netar.harness import example2_process
    from netar.io import model_spec_to_json, network_model_to_json
    from netar.netdyn import generate_density_matched_markov

    spec, innov = example2_process(COUPLING_D)
    network = generate_density_matched_markov(COUPLING_D, 5.0 / COUPLING_D, 0.9)
    net_path = os.path.join(in_dir, "network.json")
    proc_path = os.path.join(in_dir, "process.json")
    _dump(net_path, network_model_to_json(network))
    _dump(proc_path, model_spec_to_json(spec, innov))
    argv = ["depmeas", "--network", net_path, "--process", proc_path, "--q", "2",
            "--max-lag", str(COUPLING_MAX_LAG), "--reps", str(COUPLING_PAIRS),
            "--seed", str(seed)]
    return argv, {"distinct_g": 0, "path_snapshots": 0}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="ex1-table",
        why="d=4 example-1 table with all three forecast policies: per-snapshot Python "
            "overhead in G application and design loops dominates",
        write_inputs=ex1_inputs,
        replicates=EX1_REPS,
        reference_files=("mse_example1.csv", "mse_se_example1.csv"),
        yardstick=yardstick.small_matrix_loop,
        experiment="example1",
    ),
    Workload(
        name="ex2-d100",
        why="d=100 example-2 LNAR plus network-masked VAR: per-component least squares "
            "on ~300-column Gram matrices dominates",
        write_inputs=_ex2_inputs,
        replicates=EX2_REPS,
        reference_files=(f"mse_example2_d{EX2_D}.csv", f"mse_se_example2_d{EX2_D}.csv"),
        yardstick=yardstick.gram_solves,
        experiment=f"example2_d{EX2_D}",
    ),
    Workload(
        name="coupling-d33",
        why="depmeas coupling at d=33 over 500 pairs: batched numpy throughput in "
            "depmeas' own recursion, no per-snapshot Python loop",
        write_inputs=_coupling_inputs,
        replicates=COUPLING_PAIRS,
        reference_files=("delta.csv", "decay.json"),
        yardstick=yardstick.batched_steps,
    ),
)}
