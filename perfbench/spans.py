"""Layer spans recorded from outside the program.

While a :class:`Tracer` is installed, the public functions of each netar
module are replaced by wrappers that record a span (name, start, end,
parent span, run id) and the layer's work counts.  A name bound by
``from .estimate import fit_nar`` lives in several module namespaces, so a
wrapper is installed on every ``netar`` module that holds the original
object; otherwise calls made from the harness or the CLI would go unseen.

Spans are kept in one flat array in memory and written out by :meth:`save`.
A layer's self time is its spans' duration minus the time covered by their
child spans.  Tracing is only meaningful at ``--threads 1``: spans recorded
in pool workers would be lost.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import sys
import time
from array import array
from collections import Counter
from typing import Dict, List

import numpy as np

G_APPLY = "netdyn.g_apply"
NETWORK = "netdyn.network"
SIMULATE = "model.simulate"
INNOV = "model.innov_sample"
BIC = "estimate.bic"
FIT = "estimate.fit"
LS = "estimate.ls"
FORECAST = "forecast"
FORECAST_NET = "forecast.network"
COUPLING = "depmeas.coupling"
HARNESS = "harness.run"
IO_WRITE = "io.write"
CLI = "cli"

SPAN_NAMES = (G_APPLY, NETWORK, SIMULATE, INNOV, BIC, FIT, LS, FORECAST, FORECAST_NET,
              COUPLING, HARNESS, IO_WRITE, CLI)

# Counts that must repeat exactly between two traced calls on the same inputs.
COUNT_KEYS = ("netdyn.g_apply.calls", "netdyn.g_apply.snapshots", "netdyn.network.calls",
              "model.simulate.calls", "model.simulate.steps", "estimate.bic.calls",
              "estimate.fit.calls", "estimate.fit.used", "estimate.ls.calls",
              "estimate.ls.max_k", "estimate.ls.ridge", "estimate.ls.errors",
              "forecast.calls", "depmeas.coupling.steps", "io.write.bytes")


def _arg(fn, args, kwargs, name):
    """Value of parameter ``name`` in a call of ``fn``, defaults included."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


class Tracer:
    """Span and count recorder; install it around the calls to trace."""

    def __init__(self):
        # one row of six doubles per closed span: id, parent id, name, run, start, end;
        # ids count spans in the order they open
        self.records = array("d")
        self._stack: List[int] = []
        self._next_id = 0
        self._name_ids = {n: i for i, n in enumerate(SPAN_NAMES)}
        self._run_id = -1
        self._g_depth = 0
        self._g_tally = [0, 0]  # G calls and snapshots, kept apart from counts for speed
        self._live_fits: set = set()
        self.counts: Counter = Counter()
        self._patches: list = []

    # --- spans -------------------------------------------------------------
    def _span(self, fn, name: str, before=None, after=None, on_error=None):
        """Wrap ``fn`` so each call records a span and updates counts."""
        name_id = self._name_ids[name]
        stack, record = self._stack, self.records.extend
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    on_error()
                raise
            finally:
                t1 = perf()
                stack.pop()
                record((sid, parent, name_id, self._run_id, t0, t1))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _g_wrapper(self, fn):
        """G application, counted at the outermost call only: ``transpose_of``
        and ``identity_plus`` recurse, and ``NeighborhoodFn.apply`` calls
        ``apply_neighborhood_fn``.  Both take the snapshot second; a
        ``(..., d, d)`` stack counts as its leading size.  This is the
        hottest wrapper, so it records its span inline."""
        name_id = self._name_ids[G_APPLY]
        tally = self._g_tally
        stack, record = self._stack, self.records.extend
        perf = time.perf_counter
        ndarray = np.ndarray

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._g_depth:
                return fn(*args, **kwargs)
            ad = args[1] if len(args) > 1 else kwargs["ad"]
            shape = ad.shape if type(ad) is ndarray else np.shape(ad)
            tally[0] += 1
            tally[1] += 1 if len(shape) == 2 else math.prod(shape[:-2])
            self._g_depth = 1
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self._g_depth = 0
                record((sid, parent, name_id, self._run_id, t0, t1))

        return wrapper

    def _bytes_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        @contextlib.contextmanager
        def wrapper(path, *args, **kwargs):
            with fn(path, *args, **kwargs) as fh:
                yield fh
            counts["io.write.bytes"] += os.path.getsize(path)

        return wrapper

    # --- installation --------------------------------------------------------
    def _replacements(self):
        from netar import cli, depmeas, estimate, forecast, harness, io, model, netdyn

        counts = self.counts

        def count(key, amount=lambda a, k: 1):
            def hook(args, kwargs, *_):
                counts[key] += amount(args, kwargs)
            return hook

        def sim_steps(fn):
            return lambda a, k: _arg(fn, a, k, "n") + _arg(fn, a, k, "burn_in")

        def fit_done(args, kwargs, result):
            counts["estimate.fit.calls"] += 1
            self._live_fits.add(id(result))

        def ls_start(args, kwargs):
            counts["estimate.ls.calls"] += 1
            shape = np.shape(args[1] if len(args) > 1 else kwargs["Y"])
            k = shape[1] if len(shape) == 2 else 0
            counts["estimate.ls.max_k"] = max(counts["estimate.ls.max_k"], k)

        def ls_done(args, kwargs, result):
            if result.ridge_jitter > 0:
                counts["estimate.ls.ridge"] += 1

        def ls_error():
            counts["estimate.ls.errors"] += 1

        def forecast_start(args, kwargs):
            counts["forecast.calls"] += 1
            fit = args[0] if args else kwargs["fit"]
            if id(fit) in self._live_fits:
                self._live_fits.discard(id(fit))
                counts["estimate.fit.used"] += 1

        def coupling_steps(args, kwargs, fn=depmeas.estimate_delta_x):
            return _arg(fn, args, kwargs, "burn_in") + _arg(fn, args, kwargs, "max_lag") + 1

        functions = [
            (netdyn.apply_neighborhood_fn, self._g_wrapper(netdyn.apply_neighborhood_fn)),
            (model.simulate_nar, self._span(model.simulate_nar, SIMULATE,
                                            count("model.simulate.calls"),
                                            count("model.simulate.steps",
                                                  sim_steps(model.simulate_nar)))),
            (model.simulate_lnar, self._span(model.simulate_lnar, SIMULATE,
                                             count("model.simulate.calls"),
                                             count("model.simulate.steps",
                                                   sim_steps(model.simulate_lnar)))),
            (estimate.select_order_bic, self._span(estimate.select_order_bic, BIC,
                                                   count("estimate.bic.calls"))),
            (estimate.fit_component_ls,
             self._span(estimate.fit_component_ls, LS, ls_start, ls_done, ls_error)),
            (forecast.forecast_h, self._span(forecast.forecast_h, FORECAST, forecast_start)),
            (forecast.forecast_network, self._span(forecast.forecast_network, FORECAST_NET)),
            (depmeas.estimate_delta_x, self._span(depmeas.estimate_delta_x, COUPLING,
                                                  count("depmeas.coupling.steps",
                                                        coupling_steps))),
            (harness.run_experiment, self._span(harness.run_experiment, HARNESS)),
            (harness.write_experiment_reports,
             self._span(harness.write_experiment_reports, IO_WRITE)),
            (io.write_coupling_csv, self._span(io.write_coupling_csv, IO_WRITE)),
            (io.write_decay_json, self._span(io.write_decay_json, IO_WRITE)),
            (io.atomic_open, self._bytes_wrapper(io.atomic_open)),
            (cli.main, self._span(cli.main, CLI)),
        ]
        for fn in (estimate.fit_nar, estimate.fit_lnar, estimate.fit_var):
            functions.append((fn, self._span(fn, FIT, after=fit_done)))
        methods = [
            (netdyn.NeighborhoodFn, "apply", self._g_wrapper(netdyn.NeighborhoodFn.apply)),
            (model.InnovationSpec, "sample", self._span(model.InnovationSpec.sample, INNOV)),
        ]
        for cls in (netdyn.MarkovEdgeNetwork, netdyn.FlipNetwork):
            methods.append((cls, "simulate", self._span(cls.simulate, NETWORK,
                                                         count("netdyn.network.calls"))))
        return functions, methods

    def install(self) -> None:
        """Replace every binding of the traced functions in netar's modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions, methods = self._replacements()
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "netar" or n.startswith("netar."))]
        for orig, wrapper in functions:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        for cls, attr, wrapper in methods:
            self._patches.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    @contextlib.contextmanager
    def traced_call(self):
        """Trace one call as a new run; yields nothing, counts go to ``self.counts``."""
        self._run_id += 1
        self.counts.clear()
        self._g_tally[:] = [0, 0]
        self._live_fits.clear()
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.counts["netdyn.g_apply.calls"] += self._g_tally[0]
            self.counts["netdyn.g_apply.snapshots"] += self._g_tally[1]

    # --- results -------------------------------------------------------------
    def _table(self) -> np.ndarray:
        return np.frombuffer(self.records, dtype=np.float64).reshape(-1, 6)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name over every recorded span."""
        rows = self._table()
        ids = rows[:, 0].astype(np.int64)
        parent = rows[:, 1].astype(np.int64)
        dur = rows[:, 5] - rows[:, 4]
        child = np.zeros(self._next_id)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = np.bincount(rows[:, 2].astype(np.int64), weights=dur - child[ids],
                          minlength=len(SPAN_NAMES))
        return {n: float(own[i]) for i, n in enumerate(SPAN_NAMES)}

    def save(self, path: str) -> None:
        """Write every span: id, parent id (-1 for none), name index, run id,
        start and end in seconds, plus the name table."""
        rows = self._table()
        np.savez_compressed(path, names=np.array(SPAN_NAMES), id=rows[:, 0].astype(np.int64),
                            parent=rows[:, 1].astype(np.int64), name=rows[:, 2].astype(np.int32),
                            run=rows[:, 3].astype(np.int32), start=rows[:, 4], end=rows[:, 5])


def layer_metrics(tracer: Tracer, totals: Counter, replicates: int, facts: dict,
                  overhead: float) -> Dict[str, dict]:
    """Per-replicate layer metrics from a tracer and its summed counts.

    ``totals`` holds the counts summed over every traced call, and
    ``replicates`` the replicates those calls ran.  A layer that does not run
    on the workload reports 0.
    """
    own = tracer.self_times()
    per = 1.0 / replicates if replicates else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    snapshots = totals["netdyn.g_apply.snapshots"]
    useful_g = facts["distinct_g"] * facts["path_snapshots"] * replicates
    values = {
        "netdyn.g_apply.calls": (totals["netdyn.g_apply.calls"] * per, "count"),
        "netdyn.g_apply.snapshots": (snapshots * per, "count"),
        "netdyn.g_apply.self_s": (own[G_APPLY] * per, "s"),
        "netdyn.g_apply.useful_ratio": (ratio(useful_g, snapshots), "ratio"),
        "netdyn.network.calls": (totals["netdyn.network.calls"] * per, "count"),
        "netdyn.network.self_s": (own[NETWORK] * per, "s"),
        "model.simulate.calls": (totals["model.simulate.calls"] * per, "count"),
        "model.simulate.steps": (totals["model.simulate.steps"] * per, "count"),
        "model.simulate.self_s": (own[SIMULATE] * per, "s"),
        "model.innov_sample.self_s": (own[INNOV] * per, "s"),
        "estimate.bic.calls": (totals["estimate.bic.calls"] * per, "count"),
        "estimate.bic.self_s": (own[BIC] * per, "s"),
        "estimate.fit.calls": (totals["estimate.fit.calls"] * per, "count"),
        "estimate.fit.self_s": (own[FIT] * per, "s"),
        "estimate.fit.useful_ratio": (ratio(totals["estimate.fit.used"],
                                            totals["estimate.fit.calls"]), "ratio"),
        "estimate.ls.calls": (totals["estimate.ls.calls"] * per, "count"),
        "estimate.ls.self_s": (own[LS] * per, "s"),
        "estimate.ls.max_k": (totals["estimate.ls.max_k"], "count"),
        "estimate.ls.ridge": (totals["estimate.ls.ridge"] * per, "count"),
        "estimate.ls.errors": (totals["estimate.ls.errors"] * per, "count"),
        "forecast.calls": (totals["forecast.calls"] * per, "count"),
        "forecast.self_s": (own[FORECAST] * per, "s"),
        "forecast.network.self_s": (own[FORECAST_NET] * per, "s"),
        "depmeas.coupling.steps": (totals["depmeas.coupling.steps"] * per, "count"),
        "depmeas.coupling.self_s": (own[COUPLING] * per, "s"),
        "harness.run.self_s": (own[HARNESS] * per, "s"),
        "io.write.self_s": (own[IO_WRITE] * per, "s"),
        "io.write.bytes": (totals["io.write.bytes"] * per, "bytes"),
        "cli.self_s": (own[CLI] * per, "s"),
        "trace_overhead": (overhead, "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


def layer_ranking(metrics: Dict[str, dict]) -> List[str]:
    """Layer self-time names, largest first (for the notes and the self-test)."""
    times = {k: m["value"] for k, m in metrics.items() if k.endswith(".self_s")}
    return sorted(times, key=times.get, reverse=True)
