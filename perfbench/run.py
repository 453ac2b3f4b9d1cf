#!/usr/bin/env python3
"""netar benchmark: Monte Carlo replicates per second, end to end and per layer.

Run one workload from the repository root:

    python3 perfbench/run.py --workload ex1-table --seed 3 --seconds 20 --trace 0

Every call goes through ``netar.cli.main`` in this process, on input files
the benchmark writes from the seed.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced calls and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --self-test           # untimed checks
    python3 perfbench/run.py --record-reference    # rewrite reference/ outputs

See README.md in this directory for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

from envinfo import environment, pin_environment
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference")

SETUP_PAIRS = 9
# A fresh interpreter that imports numpy: the yardstick for set-up time.  Its
# CPU time on the machine the benchmark was tuned on, in quiet phases, was
# about 0.1 s; setup_s is expressed in seconds of that machine.
REFERENCE_START = "import numpy; print('ready', flush=True)"
NOMINAL_START_S = 0.1
MIN_TIMED_CALLS = 3
SELF_TEST_THREADS_REPS = 16


def _import_netar():
    """Import netar from this checkout's ``src``; never from anywhere else."""
    sys.path.insert(0, SRC)
    import netar
    import netar.cli

    where = os.path.dirname(os.path.abspath(netar.__file__))
    if where != os.path.join(SRC, "netar"):
        raise SystemExit(f"netar imported from {where}, not from {SRC}")
    return netar.cli


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _read_outputs(out_dir: str) -> dict:
    return {name: _read_bytes(os.path.join(out_dir, name)) for name in sorted(os.listdir(out_dir))}


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Run:
    """One benchmark run of a workload at a seed: calls, checks and accounting."""

    def __init__(self, workload, seed: int, base: str, check_reference: bool = True):
        self.wl = workload
        self.seed = seed
        self.in_dir = _fresh_dir(os.path.join(base, "in"))
        self.out_dir = os.path.join(base, "out")
        self.cli = _import_netar()
        self.argv, self.facts = workload.write_inputs(self.in_dir, seed)
        self.ops = workload.operations(self.facts)
        self.reference = None
        if check_reference and seed == DEFAULT_SEED:
            ref_dir = os.path.join(REFERENCE, workload.name)
            self.reference = {name: _read_bytes(os.path.join(ref_dir, name))
                              for name in workload.reference_files}
        self.first_outputs = None
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.mismatch = False

    def call(self):
        """One timed call; returns its wall time, or None when it raised.

        A call that raises, or whose outputs fail the check, counts all of
        its operations as failed; the run goes on either way.
        """
        _fresh_dir(self.out_dir)
        self.attempted += self.ops
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink):
                t0 = time.perf_counter()
                self.cli.main(self.argv + ["--threads", "1", "--out", self.out_dir])
                elapsed = time.perf_counter() - t0
        except (Exception, SystemExit) as exc:  # recorded and counted, never fatal
            self.failed += self.ops
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        problem = self._check()
        if problem:
            self.mismatch = True
            self.failed += self.ops
            self.errors.append(problem)
        else:
            self.failed += self.wl.failed_operations(self.out_dir)
        return elapsed

    def _check(self):
        outputs = _read_outputs(self.out_dir)
        missing = [n for n in self.wl.reference_files if n not in outputs]
        if missing:
            return f"outputs missing: {missing}"
        if self.reference is not None:
            for name, want in self.reference.items():
                if outputs[name] != want:
                    return f"{name} differs from reference/{self.wl.name}/{name}"
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            diff = sorted(n for n in set(outputs) | set(self.first_outputs)
                          if outputs.get(n) != self.first_outputs.get(n))
            return f"outputs not byte-identical across calls of seed {self.seed}: {diff}"
        return None


def _child_cpu_s(argv) -> float:
    """CPU seconds, user plus system, of one child process run to its end.

    The child must print ``ready`` and exit with code 0.  CPU time leaves out
    the time the host takes the VM's cores away (steal), which wall time counts.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        out = proc.stdout.read()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0 or out.strip() != "ready":
        raise RuntimeError(f"child {argv[1:3]} failed with code {proc.returncode}")
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def _setup_pair(workload: str, seed: int, directory: str):
    """CPU seconds of one set-up child and of one reference start just after it.

    The set-up child imports numpy, ``netar`` and ``netar.cli`` in a fresh
    interpreter and writes the workload's inputs.  The reference start is a
    fresh interpreter that imports numpy only, so no change to the program can
    change it.
    """
    _fresh_dir(directory)
    setup = _child_cpu_s([sys.executable, os.path.abspath(__file__), "--setup-only",
                          "--workload", workload, "--seed", str(seed), "--dir", directory])
    start = _child_cpu_s([sys.executable, "-c", REFERENCE_START])
    return setup, start


def _setup_child(workload: str, seed: int, directory: str) -> int:
    import numpy  # noqa: F401  (part of what set-up pays for)

    _import_netar()
    WORKLOADS[workload].write_inputs(directory, seed)
    print("ready", flush=True)
    return 0


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    from spans import COUNT_KEYS, Tracer, layer_metrics, layer_ranking

    wl = WORKLOADS[name]
    base = os.path.join(OUT, name, f"seed{seed}")
    os.makedirs(base, exist_ok=True)
    setup = [] if trace else [_setup_pair(name, seed, os.path.join(base, "setup"))
                              for _ in range(SETUP_PAIRS)]
    run = Run(wl, seed, base)
    # Warm-up: lazy imports and first-touch allocations; checked, not timed.  Its
    # peak traced allocation is the memory metric: peak RSS (kept in the record)
    # moved by up to 20% between runs of one seed, with the machine's huge-page
    # state and the allocator's fragmentation.
    tracemalloc.start()
    run.call()
    peak_alloc = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tracer = Tracer() if trace else None
    kernel = wl.yardstick()
    kernel()
    plain, traced, per_call_counts = [], [], []  # wall times of calls that completed
    kernel_s = []  # reference kernel time before each completed untraced call
    calls = Counter()
    totals: Counter = Counter()
    deadline = time.perf_counter() + seconds
    while True:
        enough = (calls["traced"] >= 2 and calls["plain"] >= 2 if trace
                  else calls["plain"] >= MIN_TIMED_CALLS)
        if enough and time.perf_counter() >= deadline:
            break
        if trace and calls["plain"] > calls["traced"]:
            calls["traced"] += 1
            with tracer.traced_call():
                elapsed = run.call()
            if elapsed is not None:  # a call that raised stopped part way
                counts = {k: tracer.counts[k] for k in COUNT_KEYS}
                per_call_counts.append(counts)
                for k, v in counts.items():
                    totals[k] = max(totals[k], v) if k.endswith("max_k") else totals[k] + v
            sink = traced
        else:
            calls["plain"] += 1
            t0 = time.perf_counter()
            kernel()
            ref = time.perf_counter() - t0
            elapsed = run.call()
            sink = plain
            if elapsed is not None:
                kernel_s.append(ref)
        if elapsed is not None:
            sink.append(elapsed)

    def rate(times):
        """Replicates completed per second of calls.  Load from other processes on
        the machine comes in phases of many seconds, which a per-call median
        follows; the mean rate over the whole run averages them."""
        return wl.replicates * len(times) / sum(times) if times else 0.0

    correct = not run.mismatch and bool(plain)
    if trace:
        if any(c != per_call_counts[0] for c in per_call_counts):
            correct = False
            run.errors.append("layer counts differ between traced calls on identical inputs")
        overhead = 1.0 - rate(traced) / rate(plain) if traced and plain else 0.0
        metrics = layer_metrics(tracer, totals, wl.replicates * len(per_call_counts),
                                run.facts, overhead)
        tracer.save(os.path.join(base, "spans.npz"))
        with open(os.path.join(base, "counts.json"), "w") as fh:
            json.dump(per_call_counts, fh, indent=1)
        details = {"ranking": layer_ranking(metrics), "traced_call_s": traced}
    else:
        # replicates completed per reference-kernel run's worth of call time
        reps_per_ref = wl.replicates * sum(kernel_s) / sum(plain) if plain else 0.0
        metrics = {
            "reps_per_ref": {"value": reps_per_ref, "unit": "1/ref"},
            # set-up CPU time in reference starts, scaled to seconds of the tuning machine
            "setup_s": {"value": NOMINAL_START_S * statistics.median(a / b for a, b in setup),
                        "unit": "s"},
            "peak_alloc_mb": {"value": peak_alloc / 2**20, "unit": "MB"},
            "ok_frac": {"value": 1.0 - run.failed / run.attempted, "unit": "ratio"},
        }
        details = {"setup_cpu_s": [a for a, _ in setup],
                   "reference_start_cpu_s": [b for _, b in setup],
                   "kernel_s": kernel_s, "reps_per_s": rate(plain),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(ROOT), "call_s": plain, "errors": run.errors,
              **details, "result": result}
    with open(os.path.join(base, f"result_trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("environment " + json.dumps(record["environment"]))
    if not trace:
        print(f"reps_per_s {rate(plain)!r}")
    if run.errors:
        print("errors " + json.dumps(run.errors[:20]))
    return result


def record_reference(names) -> int:
    for name in names:
        wl = WORKLOADS[name]
        run = Run(wl, DEFAULT_SEED, os.path.join(OUT, name, "record"), check_reference=False)
        if run.call() is None or run.mismatch:
            print(f"{name}: call failed: {run.errors}", file=sys.stderr)
            return 1
        dest = _fresh_dir(os.path.join(REFERENCE, name))
        for f in wl.reference_files:
            shutil.copy(os.path.join(run.out_dir, f), os.path.join(dest, f))
        print(f"{name}: recorded {', '.join(wl.reference_files)}")
    return 0


def self_test() -> int:
    """Untimed checks: references, count repetition, --threads byte-identity,
    and refusal to run without the program's source."""
    from workloads import ex1_inputs

    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    cli = _import_netar()
    base = _fresh_dir(os.path.join(OUT, "self-test"))
    argv, _ = ex1_inputs(_fresh_dir(os.path.join(base, "in")), DEFAULT_SEED,
                          replications=SELF_TEST_THREADS_REPS)
    outs = []
    for threads in ("1", "2"):
        out = _fresh_dir(os.path.join(base, f"threads{threads}"))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv + ["--threads", threads, "--out", out])
        outs.append(_read_outputs(out))
    check(outs[0] == outs[1] and len(outs[0]) == 4,
          f"ex1 (B={SELF_TEST_THREADS_REPS}) reports byte-identical at --threads 1 and 2")

    for name in WORKLOADS:
        with contextlib.redirect_stdout(io.StringIO()):
            result = measure(name, DEFAULT_SEED, 0.0, trace=True)
        record = _read_bytes(os.path.join(OUT, name, f"seed{DEFAULT_SEED}", "result_trace1.json"))
        ranking = json.loads(record)["ranking"]
        check(result["correct"] and result["failed"] == 0,
              f"{name}: matches reference, counts repeat across traced calls "
              f"(largest self time: {', '.join(ranking[:3])})")

    bare = _fresh_dir(os.path.join(base, "bare"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ex1-table",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    check(proc.returncode != 0 and not proc.stdout,
          "refuses to run, printing no result, without the program's source")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", dest="self_test")
    parser.add_argument("--record-reference", action="store_true", dest="record_reference")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only",
                        help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "netar", "__init__.py")):
        print(f"no netar source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_only:
        return _setup_child(args.workload, args.seed, args.dir)
    if args.self_test:
        return self_test()
    if args.record_reference:
        return record_reference([args.workload] if args.workload else list(WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    pin_environment()  # before anything imports numpy
    sys.exit(main())
