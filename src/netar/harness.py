"""Config-driven Monte Carlo benchmark runner and the panel pipeline.

An experiment simulates a dynamic network together with its attribute
process, fits each configured method on the first n observations (lag
order chosen by BIC), forecasts h steps ahead under the method's network
policy, and accumulates mean squared errors per (method, n, horizon)
over B replicates.  Replicate seeds derive from the root seed as
``SeedSequence(seed, spawn_key=(n_index, replicate))``, so reports are
byte-identical independent of scheduling; per-replicate fit failures are
dropped and counted, and a failure rate above 1 percent aborts the run.

The panel pipeline ingests quarterly levels plus annual weight matrices,
models the first differences with hold-last network forecasts, and
integrates the growth forecasts back to levels.
"""

from __future__ import annotations

import numbers
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import io as nio
from .estimate import EstimationError, fit_lnar, fit_nar, fit_var, select_order_bic
from .forecast import HoldLast, Known, PerEdgeMarkov, difference, forecast_h, integrate
from .model import InnovationSpec, LnarSpec, NarSpec, simulate_lnar, simulate_nar
from .netdyn import (
    AdjacencySeries,
    FlipNetwork,
    MarkovEdgeNetwork,
    NeighborhoodFn,
    apply_neighborhood_fn,
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
_MIN_PANEL_QUARTERS = 40


@dataclass(frozen=True)
class MethodSpec:
    """One estimation/forecasting method in an experiment.

    ``policy`` is one of ``known``, ``holdlast``, ``markov`` for the
    network-modulated families and ``none`` for the benchmark VAR.
    ``sparsity="network"`` masks VAR coefficients whose modulation mass
    is zero over the sample.
    """

    family: str
    policy: str = "known"
    g: Optional[NeighborhoodFn] = None
    sparsity: str = "none"
    freeze_markov: bool = True

    def __post_init__(self):
        if self.family not in ("nar", "lnar", "var"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "var":
            object.__setattr__(self, "policy", "none")
        elif self.policy not in ("known", "holdlast", "markov"):
            raise ValueError(f"unknown network policy {self.policy!r}")
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
    out_dir: Optional[str] = None

    def __post_init__(self):
        problems = _schema_problems({k: v for k, v in vars(self).items()
                                     if v is not None or k != "out_dir"})
        if not problems:  # methods is then a nonempty list
            labels = [m.label for m in self.methods]
            problems = [f"methods[{i}]: label {lbl!r} repeats methods[{labels.index(lbl)}]"
                        for i, lbl in enumerate(labels) if labels.index(lbl) < i]
            dims = {"network": self.network.d, "process": self.process.d, "innov": self.innov.d}
            if len(set(dims.values())) > 1:
                problems.append("dimensions differ: "
                                + ", ".join(f"{k} {v}" for k, v in dims.items()))
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
        "out_dir": {"type": "string"},
        "methods": {"type": "array", "items": {
            "properties": {
                "family": {"enum": ["nar", "lnar", "var"]},
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
    doc = {
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
    if cfg.out_dir:
        doc["out_dir"] = cfg.out_dir
    return doc


def _replicate_seed(root_seed: int, n_index: int, rep: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(n_index, rep))
    return np.random.default_rng(ss)


def _simulate_replicate(cfg: ExperimentConfig, n: int, rng: np.random.Generator):
    total = cfg.burn_in + n + cfg.horizons
    ads = cfg.network.simulate(total, seed=rng)
    sim = simulate_lnar if isinstance(cfg.process, LnarSpec) else simulate_nar
    x = sim(cfg.process, ads, cfg.innov, n=n + cfg.horizons, burn_in=cfg.burn_in, seed=rng)
    return x, ads.drop_first(cfg.burn_in)


def _fit_with_bic(method: MethodSpec, x_est, ads_est, p_max: int):
    if method.family == "var":
        mask = None
        if method.sparsity == "network":
            snaps = ads_est.mats[: x_est.shape[1] - 1]
            # one expression, so the modulation stack is freed before BIC runs
            base = (snaps if method.g is None else apply_neighborhood_fn(method.g, snaps)).any(axis=0)
            mask = np.concatenate([base.astype(float)] * p_max, axis=1)
        sel = select_order_bic(x_est, p_max=p_max, family="var", mask=mask)
        sub = None if mask is None else mask[:, : x_est.shape[0] * sel.p]
        return fit_var(x_est, sel.p, mask=sub), sel
    sel = select_order_bic(x_est, ads_est, method.g, p_max=p_max, family=method.family)
    if method.family == "nar":
        return fit_nar(x_est, ads_est, [method.g] * sel.p, sel.p), sel
    return fit_lnar(x_est, ads_est, [method.g] * sel.p, sel.p), sel


def _resolve_policy(method: MethodSpec, ads_post: AdjacencySeries, n: int, h: int):
    if method.family == "var":
        return None
    if method.policy == "known":
        future = AdjacencySeries(ads_post.mats[n - 1: n - 1 + h],
                                 t0=ads_post.t0 + n - 1)
        return Known(future)
    if method.policy == "holdlast":
        return HoldLast()
    return PerEdgeMarkov(laplace_alpha=1.0, freeze_first=method.freeze_markov)


def _run_one_replicate(cfg: ExperimentConfig, n_index: int, n: int, rep: int):
    """Simulate one path and run every method on it.

    Returns a dict mapping method label -> (d, h) forecast-error matrix,
    or None for a method whose fit failed on this path.
    """
    rng = _replicate_seed(cfg.seed, n_index, rep)
    h = cfg.horizons
    x_all, ads_post = _simulate_replicate(cfg, n, rng)
    x_est, truth = x_all[:, :n], x_all[:, n:]
    ads_est = ads_post.take_first(n - 1)
    errors: Dict[str, Optional[np.ndarray]] = {}
    for method in cfg.methods:
        try:
            fit, _ = _fit_with_bic(method, x_est, ads_est, cfg.p_max)
            policy = _resolve_policy(method, ads_post, n, h)
            fc = forecast_h(fit, x_est, ads_est, policy, h, truth=truth)
            errors[method.label] = fc.errors
        except EstimationError:
            errors[method.label] = None
    return errors


def _replicate_worker(args):
    return _run_one_replicate(*args)


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


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    h = cfg.horizons
    labels = [m.label for m in cfg.methods]
    mse: Dict[Tuple[int, str], np.ndarray] = {}
    se: Dict[Tuple[int, str], np.ndarray] = {}
    failures: Dict[Tuple[int, str], int] = {}
    for n_index, n in enumerate(cfg.sample_sizes):
        args = [(cfg, n_index, n, rep) for rep in range(cfg.replications)]
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(_replicate_worker, args, chunksize=8))
        else:
            results = [_run_one_replicate(*a) for a in args]
        for lbl in labels:
            errs = [res[lbl] for res in results if res[lbl] is not None]
            failures[(n, lbl)] = fails = len(results) - len(errs)
            if fails > FAILURE_ABORT_RATE * cfg.replications:
                raise RuntimeError(
                    f"method {lbl} failed on {fails} of {cfg.replications} "
                    f"replicates at n={n}; aborting (threshold {FAILURE_ABORT_RATE:.0%})"
                )
            stack = np.stack(errs)  # (B_ok, d, h)
            sq = stack ** 2
            rep_means = sq.mean(axis=1)  # per-replicate component average, (B_ok, h)
            mse[(n, lbl)] = rep_means.mean(axis=0)
            if rep_means.shape[0] > 1:
                se[(n, lbl)] = rep_means.std(axis=0, ddof=1) / np.sqrt(rep_means.shape[0])
            else:
                se[(n, lbl)] = np.full(h, np.nan)
    report = ExperimentReport(
        experiment=cfg.experiment, horizons=h, sample_sizes=list(cfg.sample_sizes),
        method_labels=labels, mse=mse, se=se, failures=failures,
        replications=cfg.replications, seed=cfg.seed,
    )
    if cfg.out_dir:
        write_experiment_reports(cfg, report)
    return report


def _table_fmt(x: float) -> str:
    return format(float(x), ".6g")


def write_experiment_reports(cfg: ExperimentConfig, report: ExperimentReport) -> None:
    """Emit the wide MSE table, the relative table and a run summary."""
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    cols = ",".join(f"h={s}" for s in range(1, report.horizons + 1))
    for stem, table in (("mse", report.mse), ("mse_se", report.se)):
        with nio.atomic_open(os.path.join(out, f"{stem}_{report.experiment}.csv")) as fh:
            fh.write(f"n,method,{cols}\n")
            for n in report.sample_sizes:
                for lbl in report.method_labels:
                    row = ",".join(_table_fmt(v) for v in table[(n, lbl)])
                    fh.write(f"{n},{lbl},{row}\n")
    try:
        rel = report.relative_mse()
        rel_path = os.path.join(out, f"relative_mse_{report.experiment}.csv")
        with nio.atomic_open(rel_path) as fh:
            fh.write("method,rel_mse\n")
            for lbl in report.method_labels:
                fh.write(f"{lbl},{format(rel[lbl], '.2f')}\n")
    except ValueError:
        pass
    summary_path = os.path.join(out, f"report_{report.experiment}.json")
    config_echo = config_to_json(cfg)
    config_echo.pop("out_dir", None)  # location must not break byte-identity
    nio._write_json(summary_path, {
        "experiment": report.experiment,
        "seed": report.seed,
        "replications": report.replications,
        "sample_sizes": report.sample_sizes,
        "failures": {f"{n}/{lbl}": c for (n, lbl), c in report.failures.items()},
        "config": config_echo,
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
                    include_lnar: bool = True, out_dir=None) -> ExperimentConfig:
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
        seed=seed, methods=methods, burn_in=500, p_max=3, out_dir=out_dir,
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
                    include_var: bool = True, out_dir=None) -> ExperimentConfig:
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
        seed=seed, methods=methods, burn_in=300, p_max=3, out_dir=out_dir,
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
    n_growth = x.shape[1]
    n_est = n_growth - h
    x_est = x[:, :n_est]
    ads_est = panel.mats_growth.take_first(n_est - 1)
    origin_level = panel.levels[:, n_est]
    truth_levels = panel.levels[:, n_est + 1: n_est + 1 + h]
    g = NeighborhoodFn.transpose()

    forecasts = {}
    errors = {}
    orders = {}
    for name in methods:
        method = MethodSpec(family=name, policy="holdlast", g=None if name == "var" else g)
        fit, sel = _fit_with_bic(method, x_est, ads_est, p_max)
        fc = forecast_h(fit, x_est, ads_est, HoldLast(), h)
        levels_fc = integrate(origin_level, fc)
        forecasts[name] = levels_fc
        errors[name] = truth_levels - levels_fc
        orders[name] = sel.p
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
