"""Config-driven Monte Carlo benchmark runner and the panel pipeline.

An experiment simulates a dynamic network together with its attribute
process, fits each configured method on the first n observations (lag
order chosen by BIC), forecasts h steps ahead under the method's network
policy, and accumulates mean squared errors per (method, n, horizon)
over B replicates.  Replicate seeds derive from the root seed as
``SeedSequence(seed, spawn_key=(n_index, replicate))``, so reports are
byte-identical independent of scheduling; per-replicate fit failures are
dropped and counted, and a failure rate above 1 percent aborts the run.
Replicates are simulated in chunks: one network walk and one path recursion
step every replicate of a chunk, as many as a byte budget on their
whole-path arrays allows (three at example 1, one at d >= 10); each is then
fitted and forecast on its own.  No report depends on the chunk size.
The output directory is an argument of the run, not part of its config.

The panel pipeline ingests quarterly levels plus annual weight matrices,
models the first differences with hold-last network forecasts, and
integrates the growth forecasts back to levels.
"""

from __future__ import annotations

import contextlib
import numbers
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import io as nio
from .estimate import FAMILIES, EstimationError, _check_family, _fit_by_bic
from .forecast import HoldLast, Known, PerEdgeMarkov, difference, forecast_h, integrate
from .model import (InnovationSpec, LnarSpec, NarSpec, _check_order, check_stationarity_lnar,
                    check_stationarity_nar, simulate_lnar, simulate_nar)
from .netdyn import (
    AdjacencySeries,
    FlipNetwork,
    MarkovEdgeNetwork,
    NeighborhoodFn,
    generate_density_matched_markov,
)

__all__ = [
    "MethodSpec",
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "example1_config",
    "example2_config",
    "validate_config",
    "config_from_json",
    "config_to_json",
    "CONFIG_SCHEMA",
    "PanelDataset",
    "ingest_panel",
    "run_rolling_forecast",
    "write_experiment_reports",
]

FAILURE_ABORT_RATE = 0.01
# whole-path bytes a chunk of replicates may hold together (see _replicates_per_chunk)
_CHUNK_PATH_BYTES = 160 * 2**10
_MIN_PANEL_QUARTERS = 40


class ExperimentAborted(RuntimeError):
    """A method failed on more than ``FAILURE_ABORT_RATE`` of a sample size's replicates."""


@dataclass(frozen=True)
class MethodSpec:
    """One estimation/forecasting method in an experiment.

    ``policy`` is one of ``known`` (the default), ``holdlast``, ``markov`` for
    the network-modulated families and ``none`` (the only one) for the benchmark
    VAR.  ``sparsity="network"`` masks VAR coefficients whose modulation mass
    is zero over the sample.
    """

    family: str
    policy: Optional[str] = None
    g: Optional[NeighborhoodFn] = None
    sparsity: str = "none"
    freeze_markov: bool = True

    def __post_init__(self):
        _check_family(self.family)
        policies = ("none",) if self.family == "var" else ("known", "holdlast", "markov")
        object.__setattr__(self, "policy", policies[0] if self.policy is None else self.policy)
        if self.policy not in policies:
            raise ValueError(f"{self.family} takes network policy "
                             f"{' or '.join(map(repr, policies))}, not {self.policy!r}")
        if self.family != "var" and self.g is None:
            raise ValueError(f"{self.family} methods need a neighborhood function")
        if self.sparsity not in ("none", "network"):
            raise ValueError(f"unknown sparsity {self.sparsity!r}")
        if not isinstance(self.freeze_markov, bool):
            raise ValueError(f"freeze_markov must be a boolean, not {self.freeze_markov!r}")
        # settings the method would ignore
        if self.family != "var" and self.sparsity == "network":
            raise ValueError(f"sparsity 'network' applies to var only, not {self.family}")
        if self.family == "var" and self.g is not None and self.sparsity != "network":
            raise ValueError("a var method reads g only with sparsity 'network'")

    @property
    def label(self) -> str:
        if self.family == "var":
            return "var" if self.sparsity == "none" else "var(masked)"
        return f"{self.family}({self.policy})"


@dataclass
class ExperimentConfig:
    experiment: str
    network: Union[MarkovEdgeNetwork, FlipNetwork]
    process: Union[NarSpec, LnarSpec]
    innov: InnovationSpec
    sample_sizes: Sequence[int]
    horizons: int
    replications: int
    seed: int
    methods: Sequence[MethodSpec]
    burn_in: int = 500
    p_max: int = 3

    def __post_init__(self):
        problems = _schema_problems(vars(self))
        if not problems:  # methods is then a nonempty list
            labels = [m.label for m in self.methods]
            problems = [f"methods[{i}]: label {lbl!r} repeats methods[{labels.index(lbl)}]"
                        for i, lbl in enumerate(labels) if labels.index(lbl) < i]
            dims = {"network": self.network.d, "process": self.process.d, "innov": self.innov.d}
            if len(set(dims.values())) > 1:
                problems.append("dimensions differ: "
                                + ", ".join(f"{k} {v}" for k, v in dims.items()))
            # what load can decide: NAR's check, and c_lambda < 1 for LNAR, whose G
            # without a certificate is checked on the simulated network at run time
            nar = isinstance(self.process, NarSpec)
            st = (check_stationarity_nar if nar else check_stationarity_lnar)(self.process)
            if not (st.holds if nar else st.c_lambda < 1.0):
                why = f" (rho={st.rho:.6f})" if nar else st.failure
                problems.append(f"process: fails the stationarity check{why}")
        if problems:
            raise ValueError("; ".join(problems))


CONFIG_SCHEMA = {
    "type": "object",
    "required": ["experiment", "network", "process", "sample_sizes", "horizons",
                 "replications", "seed", "methods"],
    "properties": {
        "experiment": {"type": "string"},
        "network": {"oneOf": [
            {"properties": {"kind": {"const": "markov_edges"},
                            "stay": {"type": "array"}, "enter": {"type": "array"},
                            "initial": {}}, "required": ["kind", "stay", "enter"]},
            {"properties": {"kind": {"const": "flip"},
                            "persist_prob": {"type": "number"}}, "required": ["kind"]},
            {"properties": {"kind": {"const": "density_matched"}, "d": {"type": "integer"},
                            "mean_density": {"type": "number"},
                            "persistence": {"type": "number"}},
             "required": ["kind", "d", "mean_density", "persistence"]},
        ]},
        "process": {"description": "model spec document: type nar|lnar, p, A|alpha+beta, G, innov"},
        "sample_sizes": {"type": "array", "items": {"type": "integer", "minimum": 10}},
        "horizons": {"type": "integer", "minimum": 1},
        "replications": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "burn_in": {"type": "integer", "minimum": 0},
        "p_max": {"type": "integer", "minimum": 1},
        "methods": {"type": "array", "items": {
            "properties": {
                "family": {"enum": list(FAMILIES)},
                "policy": {"enum": ["known", "holdlast", "markov", "none"]},
                "g": {"description": "neighborhood descriptor"},
                "sparsity": {"enum": ["none", "network"]},
                "freeze_markov": {"type": "boolean"},
            },
            "required": ["family"],
        }},
    },
}


def _fits(value, rule: dict) -> bool:
    """Whether ``value`` has the schema type of ``rule`` and reaches its minimum."""
    kind = rule.get("type")
    if kind == "array":
        return (isinstance(value, (list, tuple)) and len(value) > 0
                and all(_fits(v, rule["items"]) for v in value))
    if kind == "integer":
        return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                and value >= rule.get("minimum", value))
    return kind != "string" or isinstance(value, str)


def _describe(rule: dict, many: bool = False) -> str:
    """The schema's wording of ``rule``, e.g. ``an integer >= 1``."""
    if rule["type"] == "array":
        item = rule["items"]
        return "a nonempty list" + (f" of {_describe(item, True)}" if "type" in item else "")
    noun = {"string": ("a string", "strings"), "integer": ("an integer", "integers")}
    return noun[rule["type"]][many] + (f" >= {rule['minimum']}" if "minimum" in rule else "")


def _schema_problems(values: dict) -> List[str]:
    """CONFIG_SCHEMA's types and minimums, checked on the keys present in ``values``."""
    return [f"{key} must be {_describe(rule)}"
            for key, rule in CONFIG_SCHEMA["properties"].items()
            if key in values and not _fits(values[key], rule)]


def _method_from_json(doc: dict) -> MethodSpec:
    """A method entry: MethodSpec's fields, with ``g`` as a neighborhood descriptor."""
    fields = {**doc}  # a non-object entry raises "'str' object is not a mapping"
    g = fields.pop("g", None)
    return MethodSpec(**fields, g=None if g is None else NeighborhoodFn.from_json(g))


def _build(doc) -> Tuple[Optional[ExperimentConfig], List[str]]:
    """Build a config document in one walk, each part by its typed constructor.

    What a constructor raises on malformed input becomes a problem under the
    path of its part (``network``, ``process``, ``methods[i]``); the config
    is returned only when there is no problem.
    """
    if not isinstance(doc, dict):
        return None, [f"a config is an object, not {type(doc).__name__}"]
    problems = [f"missing required key {k!r}" for k in CONFIG_SCHEMA["required"] if k not in doc]
    if problems:
        return None, problems
    problems = _schema_problems(doc)

    def build(path, make, part):
        try:
            return make(part)
        except KeyError as exc:
            problems.append(f"{path}: missing key {exc}")
        except (IndexError, OverflowError, TypeError, ValueError) as exc:
            problems.append(f"{path}: {exc}")

    network = build("network", nio.network_model_from_json, doc["network"])
    process = build("process", nio.model_spec_from_json, doc["process"])
    methods = doc["methods"] if isinstance(doc["methods"], list) else []
    methods = [build(f"methods[{i}]", _method_from_json, m) for i, m in enumerate(methods)]
    if problems:
        return None, problems
    fields = {k: v for k, v in doc.items() if k in CONFIG_SCHEMA["properties"]}
    try:
        return ExperimentConfig(**{**fields, "network": network, "process": process[0],
                                   "innov": process[1], "methods": methods}), []
    except ValueError as exc:
        return None, [str(exc)]


def validate_config(doc: dict) -> List[str]:
    """Every problem of a config document, each naming its path; empty when valid."""
    return _build(doc)[1]


def config_from_json(doc: dict) -> ExperimentConfig:
    cfg, problems = _build(doc)
    if problems:
        raise ValueError("invalid experiment config: " + "; ".join(problems))
    return cfg


def config_to_json(cfg: ExperimentConfig) -> dict:
    return {
        "experiment": cfg.experiment,
        "network": nio.network_model_to_json(cfg.network),
        "process": nio.model_spec_to_json(cfg.process, cfg.innov),
        "sample_sizes": list(cfg.sample_sizes),
        "horizons": cfg.horizons,
        "replications": cfg.replications,
        "seed": cfg.seed,
        "burn_in": cfg.burn_in,
        "p_max": cfg.p_max,
        "methods": [{"family": m.family, "policy": m.policy, "sparsity": m.sparsity,
                     "freeze_markov": m.freeze_markov,
                     **({} if m.g is None else {"g": m.g.to_json()})} for m in cfg.methods],
    }


def _replicate_seed(root_seed: int, n_index: int, rep: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(n_index, rep))
    return np.random.default_rng(ss)


def _resolve_policy(method: MethodSpec, ads_post: AdjacencySeries, n: int, h: int):
    if method.family == "var":
        return None
    if method.policy == "known":
        return Known(ads_post.drop_first(n - 1).take_first(h))
    if method.policy == "holdlast":
        return HoldLast()
    return PerEdgeMarkov(laplace_alpha=1.0, freeze_first=method.freeze_markov)


def _replicates_per_chunk(cfg: ExperimentConfig, n: int, threads: int) -> int:
    """Replicates of sample size ``n`` that one chunk simulates together.

    A chunk's simulation holds every replicate's whole-path arrays: the bool walk of
    ``T = burn_in + n + h`` snapshots and the float path, ``T d (d + 8)`` bytes a
    replicate (its fits then hold only the post-burn-in snapshots).  As many
    replicates as fit in ``_CHUNK_PATH_BYTES`` share a chunk, at least one and at
    most ``ceil(B / threads)``, so every worker gets one.
    """
    d, steps = cfg.process.d, cfg.burn_in + n + cfg.horizons
    fit = _CHUNK_PATH_BYTES // (steps * d * (d + 8))
    return max(1, min(fit, -(-cfg.replications // threads)))


def _run_chunk(cfg: ExperimentConfig, n_index: int, n: int, reps: Sequence[int]):
    """Simulate the replicates ``reps`` of sample size ``n`` together, then run every
    method on each of them (:func:`_replicate_errors`); returns one result per
    replicate, in ``reps`` order.

    Every replicate draws from its own ``_replicate_seed(seed, n_index, rep)``: its
    network's initial state and walk, then its path's innovations.  One network walk
    and one path recursion step the whole chunk, and each path is the one its
    Generator alone gives, so no result depends on the chunk.  The fits keep a copy
    of each replicate's post-burn-in snapshots, not the chunk's walk.
    """
    h = cfg.horizons
    rngs = [_replicate_seed(cfg.seed, n_index, rep) for rep in reps]
    networks = cfg.network.simulate(cfg.burn_in + n + h, seed=rngs)
    sim = simulate_lnar if isinstance(cfg.process, LnarSpec) else simulate_nar
    paths = sim(cfg.process, networks, cfg.innov, n=n + h, burn_in=cfg.burn_in, seed=rngs)
    posts = [AdjacencySeries._checked(ads.mats[cfg.burn_in:].copy()) for ads in networks]
    del networks
    return [_replicate_errors(cfg, n, x_all, ads) for x_all, ads in zip(paths, posts)]


def _replicate_errors(cfg: ExperimentConfig, n: int, x_all: np.ndarray,
                      ads_post: AdjacencySeries) -> Dict[str, Optional[np.ndarray]]:
    """Run every method on one simulated path: fit on its first n observations and
    forecast its last h.

    A fit depends only on the method's family, g and sparsity, never on its network
    policy, so the replicate fits each distinct model once, all in one ``_fit_by_bic``
    call that evaluates each distinct G once (compared by value: JSON gives equal,
    distinct g's), and forecasts the policies of every method sharing a fit in one
    ``forecast_h`` call.  Returns a dict mapping method label -> (d, h) forecast-error
    matrix, or None for a method whose fit failed on this path.
    """
    h = cfg.horizons
    x_est, truth = x_all[:, :n], x_all[:, n:]
    ads_est = ads_post.take_first(n - 1)
    sharing: Dict[tuple, List[MethodSpec]] = {}
    for m in cfg.methods:
        sharing.setdefault((m.family, m.g, m.sparsity == "network"), []).append(m)
    errors: Dict[str, Optional[np.ndarray]] = {}
    for methods, out in zip(sharing.values(),
                            _fit_by_bic(list(sharing), x_est, ads_est, cfg.p_max)):
        if isinstance(out, EstimationError):  # fails every method sharing it
            errors.update(dict.fromkeys(m.label for m in methods))
            continue
        policies = [_resolve_policy(m, ads_post, n, h) for m in methods]
        for m, fc in zip(methods, forecast_h(out[0], x_est, ads_est, policies, h, truth=truth)):
            errors[m.label] = fc.errors
    return {m.label: errors[m.label] for m in cfg.methods}


@dataclass
class ExperimentReport:
    experiment: str
    horizons: int
    sample_sizes: List[int]
    method_labels: List[str]
    mse: Dict[Tuple[int, str], np.ndarray]
    se: Dict[Tuple[int, str], np.ndarray]
    failures: Dict[Tuple[int, str], int]
    replications: int
    seed: int

    def relative_mse(self) -> Dict[str, float]:
        """Each method's MSE averaged over n and h, relative to the VAR row."""
        base = next((lbl for lbl in self.method_labels if lbl.startswith("var")), None)
        if base is None:
            raise ValueError("relative table needs a var method as basing point")
        return {lbl: float(np.concatenate([self.mse[(n, lbl)] / self.mse[(n, base)]
                                           for n in self.sample_sizes]).mean())
                for lbl in self.method_labels}


def run_experiment(cfg: ExperimentConfig, threads: int = 1,
                   out_dir: Optional[str] = None) -> ExperimentReport:
    """Run every sample size's B replicates and tabulate each method's MSE and its SE.

    Each sample size's replicates run in chunks of consecutive replicates
    (:func:`_replicates_per_chunk`), each chunk simulated together by :func:`_run_chunk`.
    With ``threads > 1`` one pool of that many worker processes serves every sample
    size, a chunk a task; otherwise the chunks run in this process.  A replicate seeds
    itself from (seed, n index, replicate), so the report is byte-identical for every
    ``threads`` and every chunk size.  Each sample size's replicates finish before the
    next size starts, and a method that fails on more than 1 percent of them aborts the
    run there.  With ``out_dir`` the reports are written to that directory (see
    :func:`write_experiment_reports`).
    """
    _check_order("threads", threads, 1)
    h, b = cfg.horizons, cfg.replications
    labels = [m.label for m in cfg.methods]
    mse: Dict[Tuple[int, str], np.ndarray] = {}
    se: Dict[Tuple[int, str], np.ndarray] = {}
    failures: Dict[Tuple[int, str], int] = {}
    with ProcessPoolExecutor(threads) if threads > 1 else contextlib.nullcontext() as pool:
        run = map if pool is None else pool.map
        for n_index, n in enumerate(cfg.sample_sizes):
            size = _replicates_per_chunk(cfg, n, threads)
            chunks = [range(s, min(s + size, b)) for s in range(0, b, size)]
            k = len(chunks)
            results = [res for chunk in run(_run_chunk, [cfg] * k, [n_index] * k, [n] * k,
                                            chunks) for res in chunk]
            for lbl in labels:
                errs = [res[lbl] for res in results if res[lbl] is not None]
                failures[(n, lbl)] = fails = b - len(errs)
                if fails > FAILURE_ABORT_RATE * b:
                    raise ExperimentAborted(f"method {lbl} failed on {fails} of {b} replicates "
                                            f"at n={n}; aborting (threshold "
                                            f"{FAILURE_ABORT_RATE:.0%})")
                # per-replicate component average of the squared errors, (B_ok, h)
                rep_means = (np.stack(errs) ** 2).mean(axis=1)
                mse[(n, lbl)] = rep_means.mean(axis=0)
                se[(n, lbl)] = (rep_means.std(axis=0, ddof=1) / np.sqrt(len(errs))
                                if len(errs) > 1 else np.full(h, np.nan))
    report = ExperimentReport(experiment=cfg.experiment, horizons=h,
                              sample_sizes=list(cfg.sample_sizes), method_labels=labels,
                              mse=mse, se=se, failures=failures, replications=b, seed=cfg.seed)
    if out_dir:
        write_experiment_reports(cfg, report, out_dir)
    return report


def _table_fmt(x: float) -> str:
    return format(float(x), ".6g")


def write_experiment_reports(cfg: ExperimentConfig, report: ExperimentReport,
                             out_dir: str) -> None:
    """Write the wide MSE table, its SE table, the relative table and a run summary to
    ``out_dir``; the summary echoes the config, so the files do not depend on ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    cols = ",".join(f"h={s}" for s in range(1, report.horizons + 1))
    for stem, table in (("mse", report.mse), ("mse_se", report.se)):
        with nio.atomic_open(os.path.join(out_dir, f"{stem}_{report.experiment}.csv")) as fh:
            fh.write(f"n,method,{cols}\n")
            for n in report.sample_sizes:
                for lbl in report.method_labels:
                    row = ",".join(_table_fmt(v) for v in table[(n, lbl)])
                    fh.write(f"{n},{lbl},{row}\n")
    try:
        rel = report.relative_mse()
        with nio.atomic_open(os.path.join(out_dir, f"relative_mse_{report.experiment}.csv")) as fh:
            fh.write("method,rel_mse\n")
            for lbl in report.method_labels:
                fh.write(f"{lbl},{format(rel[lbl], '.2f')}\n")
    except ValueError:
        pass
    nio._write_json(os.path.join(out_dir, f"report_{report.experiment}.json"), {
        "experiment": report.experiment,
        "seed": report.seed,
        "replications": report.replications,
        "sample_sizes": report.sample_sizes,
        "failures": {f"{n}/{lbl}": c for (n, lbl), c in report.failures.items()},
        "config": config_to_json(cfg),
    })


# --- canonical experiment configurations -------------------------------------

def example1_network() -> MarkovEdgeNetwork:
    """Four-vertex benchmark network: independent persistent edge chains."""
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
    return MarkovEdgeNetwork(stay, enter, initial="stationary")


def example1_process():
    """Order-1 circulant benchmark process on the four-vertex network, G = transpose."""
    alpha = np.array([
        [0.25, 0.7, 0.0, 0.0],
        [0.0, 0.25, 0.7, 0.0],
        [0.0, 0.0, 0.25, 0.7],
        [0.7, 0.0, 0.0, 0.25],
    ])
    spec = NarSpec(1, [alpha], [NeighborhoodFn.transpose()])
    innov = InnovationSpec(np.array([-1.0, 4.0, -9.0, 16.0]), np.eye(4))
    return spec, innov


def example1_config(sample_sizes=(500,), replications: int = 200, seed: int = 20240,
                    horizons: int = 4, policies=("known",), include_var: bool = True,
                    include_lnar: bool = True) -> ExperimentConfig:
    spec, innov = example1_process()
    g = spec.G[0]
    methods = []
    for policy in policies:
        methods.append(MethodSpec(family="nar", policy=policy, g=g))
        if include_lnar:
            methods.append(MethodSpec(family="lnar", policy=policy, g=g))
    if include_var:
        methods.append(MethodSpec(family="var", policy="none"))
    return ExperimentConfig(
        experiment="example1", network=example1_network(), process=spec, innov=innov,
        sample_sizes=sample_sizes, horizons=horizons, replications=replications,
        seed=seed, methods=methods, burn_in=500, p_max=3,
    )


def example2_process(d: int):
    """High-dimensional per-component process with in-neighbor averaging."""
    r = np.arange(1, d + 1)
    alpha = (0.9 * r / d)[None, :]
    beta = (0.9 * (d - r) / d)[None, :]
    g = NeighborhoodFn.row_normalized_transpose()
    spec = LnarSpec(1, alpha, beta, [g])
    mu = r * (-1.0) ** r
    off = 0.25 * (-1.0) ** (np.arange(1, d) + 1)
    innov = InnovationSpec.banded1(mu, np.ones(d), off, scale=5.0)
    return spec, innov


def example2_config(d: int = 10, sample_sizes=(500,), replications: int = 200,
                    seed: int = 20242, horizons: int = 4, policies=("known",),
                    include_var: bool = True) -> ExperimentConfig:
    """Density-matched substitute network (mean density 5/d, persistence 0.9)."""
    spec, innov = example2_process(d)
    g = spec.G[0]
    methods = [MethodSpec(family="lnar", policy=policy, g=g) for policy in policies]
    if include_var:
        methods.append(MethodSpec(family="var", policy="none", g=g, sparsity="network"))
    network = generate_density_matched_markov(d, 5.0 / d, 0.9)
    return ExperimentConfig(
        experiment=f"example2_d{d}", network=network, process=spec, innov=innov,
        sample_sizes=sample_sizes, horizons=horizons, replications=replications,
        seed=seed, methods=methods, burn_in=300, p_max=3,
    )


# --- panel pipeline -----------------------------------------------------------

_QUARTER_RE = re.compile(r"^(\d{4})Q([1-4])$")


def _parse_quarter(label: str) -> Tuple[int, int]:
    m = _QUARTER_RE.match(label.strip())
    if not m:
        raise ValueError(f"cannot parse quarter label {label!r} (expected YYYYQq)")
    return int(m.group(1)), int(m.group(2))


def _next_quarter(q: Tuple[int, int]) -> Tuple[int, int]:
    y, k = q
    return (y, k + 1) if k < 4 else (y + 1, 1)


@dataclass
class PanelDataset:
    """Quarterly attribute levels plus annual trade-weight networks.

    ``levels[:, t]`` belongs to ``quarters[t]``; ``mats_growth`` holds one
    normalized weight matrix per growth quarter (annual matrices repeated
    over their four quarters).  ``rows_stochastic`` records whether every
    applied modulation row sums to one (or zero for isolated entities).
    """

    labels: List[str]
    quarters: List[Tuple[int, int]]
    levels: np.ndarray
    mats_growth: AdjacencySeries
    rows_stochastic: bool

    @property
    def d(self) -> int:
        return self.levels.shape[0]

    @property
    def n_quarters(self) -> int:
        return self.levels.shape[1]


def normalize_trade_matrix(raw: np.ndarray) -> np.ndarray:
    """Weight from i to j: mutual trade of (i, j) over j's total mutual trade.

    The raw matrix holds directed flows; mutual trade symmetrizes it.
    Column sums of the result are 1, or 0 for an entity without any trade
    (1/0 is taken as 0).
    """
    raw = np.asarray(raw, dtype=float)
    if (raw < 0).any():
        raise ValueError("negative trade volumes")
    if np.abs(np.diag(raw)).max() > 0:
        raise ValueError("self-trade entries must be zero")
    mutual = raw + raw.T
    totals = mutual.sum(axis=0, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(totals > 0, mutual / np.where(totals > 0, totals, 1.0), 0.0)


def ingest_panel(levels_path, weights_by_year: Dict[int, str]) -> PanelDataset:
    """Load a quarterly levels CSV plus one raw trade-matrix CSV per year.

    Levels header: ``t,<label>,...`` with t like ``1980Q1`` and contiguous
    quarters.  Weight files carry a header row of entity labels and one
    labeled row per entity.  Every year touched by the level quarters must
    have a matrix; gaps are a hard error naming the missing year.
    """
    header, stamps, cells = nio._read_table(levels_path, "level", "quarter {}")
    if header[0] != "t":
        raise ValueError("levels CSV must start with a 't' column")
    labels = header[1:]
    quarters = [_parse_quarter(q) for q in stamps]
    if len(quarters) < 2:
        raise ValueError("need at least two quarters of levels")
    for a, b in zip(quarters, quarters[1:]):
        if b != _next_quarter(a):
            raise ValueError(f"quarters not contiguous around {a[0]}Q{a[1]}")

    years_needed = sorted({y for (y, _) in quarters})
    missing = [y for y in years_needed if y not in weights_by_year]
    if missing:
        raise ValueError(f"missing trade matrix for year {missing[0]}")
    normalized = {}
    for year in years_needed:
        header, row_labels, raw = nio._read_table(weights_by_year[year], "trade",
                                                  f"year {year}, row {{}}")
        if header[1:] != labels:
            raise ValueError(f"weight matrix {year}: entity labels do not match levels")
        if row_labels != labels:
            raise ValueError(f"weight matrix {year}: row labels do not match levels")
        normalized[year] = normalize_trade_matrix(raw)

    # growth quarter k spans levels k -> k+1 and uses the matrix of the
    # year of its ending quarter, annual matrices repeated quarterly
    growth_mats = np.stack([normalized[quarters[k + 1][0]]
                            for k in range(len(quarters) - 1)])
    mats = AdjacencySeries(growth_mats)
    colsums = growth_mats.sum(axis=1)
    rows_stochastic = bool(((np.abs(colsums - 1.0) < 1e-9) | (np.abs(colsums) < 1e-9)).all())
    return PanelDataset(labels=labels, quarters=quarters, levels=cells.T,
                        mats_growth=mats, rows_stochastic=rows_stochastic)


@dataclass
class PanelForecastResult:
    labels: List[str]
    methods: List[str]
    horizons: int
    level_forecasts: Dict[str, np.ndarray]
    level_truth: np.ndarray
    errors: Dict[str, np.ndarray]
    orders: Dict[str, int]

    def total_errors(self) -> Dict[str, Tuple[float, float]]:
        """(sum of squared errors, sum of absolute errors) per method."""
        out = {}
        for m in self.methods:
            e = self.errors[m]
            out[m] = (float((e ** 2).sum()), float(np.abs(e).sum()))
        return out


def run_rolling_forecast(panel: PanelDataset, methods=("var", "lnar", "nar"), h: int = 8,
                         p_max: int = 3, out_dir: Optional[str] = None) -> PanelForecastResult:
    """Difference, fit with BIC, forecast h steps with hold-last networks,
    integrate back to levels, and tabulate squared/absolute errors.

    The last h quarters are held out as truth; the estimation sample is
    everything before them, at least 40 quarters.
    """
    n_q = panel.n_quarters
    if n_q - h < _MIN_PANEL_QUARTERS:
        raise ValueError(
            f"panel too short: {n_q - h} estimation quarters, need {_MIN_PANEL_QUARTERS}"
        )
    x = difference(panel.levels)
    n_est = x.shape[1] - h
    x_est = x[:, :n_est]
    ads_est = panel.mats_growth.take_first(n_est - 1)
    origin_level = panel.levels[:, n_est]
    truth_levels = panel.levels[:, n_est + 1: n_est + 1 + h]
    g = NeighborhoodFn.transpose()

    forecasts, errors, orders = {}, {}, {}
    outcomes = _fit_by_bic([(name, g, False) for name in methods], x_est, ads_est, p_max)
    for name, outcome in zip(methods, outcomes):
        if isinstance(outcome, EstimationError):
            raise outcome
        fit = outcome[0]
        forecasts[name] = integrate(origin_level, forecast_h(fit, x_est, ads_est, HoldLast(), h))
        errors[name] = truth_levels - forecasts[name]
        orders[name] = fit.p
    result = PanelForecastResult(
        labels=panel.labels, methods=list(methods), horizons=h,
        level_forecasts=forecasts, level_truth=truth_levels, errors=errors,
        orders=orders,
    )
    if out_dir:
        write_panel_reports(result, out_dir)
    return result


def write_panel_reports(result: PanelForecastResult, out_dir) -> None:
    """Total, per-entity and per-horizon error tables (squared and absolute)."""
    os.makedirs(out_dir, exist_ok=True)
    methods = result.methods
    with nio.atomic_open(os.path.join(out_dir, "panel_total_errors.csv")) as fh:
        fh.write("metric," + ",".join(methods) + "\n")
        totals = result.total_errors()
        fh.write("squared_error," + ",".join(_table_fmt(totals[m][0]) for m in methods) + "\n")
        fh.write("absolute_error," + ",".join(_table_fmt(totals[m][1]) for m in methods) + "\n")
    head = ",".join([f"sq_{m}" for m in methods] + [f"abs_{m}" for m in methods])
    errors = result.errors
    for stem, first, rows in (
            ("entity", "entity", [(label, [errors[m][i] for m in methods])
                                  for i, label in enumerate(result.labels)]),
            ("horizon", "h", [(s + 1, [errors[m][:, s] for m in methods])
                              for s in range(result.horizons)])):
        with nio.atomic_open(os.path.join(out_dir, f"panel_{stem}_errors.csv")) as fh:
            fh.write(f"{first},{head}\n")
            for key, errs in rows:
                cells = [(e ** 2).sum() for e in errs] + [np.abs(e).sum() for e in errs]
                fh.write(f"{key}," + ",".join(_table_fmt(v) for v in cells) + "\n")
