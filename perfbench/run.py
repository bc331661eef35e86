"""circle6 benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # each workload in a fresh process

Run from the repository root; the library is imported from ./src.

``--trace 0`` sets up SETUP_REPS times (fresh import of circle6, input
generation, files, warm-up; the median is ``setup_s``), then calls the
workload's operation back to back for ``--seconds`` seconds and at least
MIN_OPS times, on a fresh pass of inputs each time one is used up. Every
output is checked by an oracle that does not use circle6 (see oracle.py).

``--trace 1`` runs pass 0 twice untraced and twice traced (see tracing.py),
checks that all four give the same outputs and both traced passes the same
call counts, and
reports the per-layer metrics; the spans go to perfbench/_out/.

The last stdout line is the JSON result; lines before it list every metric
with its unit plus the environment. The exit code is 1 when any output is
wrong, 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

SETUP_REPS = 5
MIN_OPS = 1000          # the p99 then has at least 10 samples beyond it
MAX_MISMATCHES = 5


def import_circle6():
    """Fresh import of the package from ./src, dropping any earlier one."""
    for name in [m for m in sys.modules if m == "circle6" or m.startswith("circle6.")]:
        del sys.modules[name]
    c6 = importlib.import_module("circle6")
    importlib.import_module("circle6.cli")
    if Path(c6.__file__).resolve().parent != ROOT / "src" / "circle6":
        raise ImportError(f"circle6 was imported from {c6.__file__}, not from {ROOT / 'src'}")
    return c6


def attempt(wl, c6, op):
    try:
        return "answer", wl.run(op)
    except c6.CapExceeded:
        return "refused", None
    except Exception as exc:  # counted in error_frac; the run goes on
        return "error", type(exc).__name__


def setup_once(workload_cls, seed):
    t0 = time.perf_counter()
    c6 = import_circle6()
    wl = workload_cls(c6, seed, OUT)
    first = wl.make_pass(0)
    for op in wl.warmup_ops():
        attempt(wl, c6, op)
    return time.perf_counter() - t0, c6, wl, first


class Tally:
    """Outcome counts, oracle mismatches and a digest of every output."""

    def __init__(self):
        self.outcomes = {"answer": 0, "refused": 0, "error": 0}
        self.mismatches: list[str] = []
        self.n_mismatch = 0
        self.hash = hashlib.sha256()
        self.cli_bytes = 0

    def add(self, wl, op, outcome, value):
        self.outcomes[outcome] += 1
        # an op that raised is counted in error_frac; only wrong answers and
        # wrong refusals fail the run
        problem = None if outcome == "error" else wl.check(op, outcome, value)
        if problem is not None:
            self.n_mismatch += 1
            if len(self.mismatches) < MAX_MISMATCHES:
                self.mismatches.append(f"{op.origin}: {problem}")
        self.hash.update(repr((outcome, value)).encode())
        if wl.name == "cli_batch" and outcome == "answer":
            self.cli_bytes += len(value[1].encode())

    @property
    def attempted(self):
        return sum(self.outcomes.values())


def run_pass(wl, c6, ops, tally, tracer=None, stop=None):
    """Run ops in order, checking outputs afterwards; return the latencies.
    ``stop(t, n)`` ends the pass early once it returns true."""
    lat, results = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        outcome, value = attempt(wl, c6, op)
        t1 = time.perf_counter()
        lat.append(t1 - t0)
        results.append((op, outcome, value))
        if stop is not None and stop(t1, len(lat)):
            break
    for op, outcome, value in results:
        tally.add(wl, op, outcome, value)
    return lat


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure(wl, c6, first, seconds):
    """Closed loop, one client, until ``seconds`` have passed and MIN_OPS
    ops are done. Throughput is ops over the summed op time: the host's
    speed drifts over seconds, and the mean over the whole run varied
    less between runs than a median over passes."""
    tally, lat = Tally(), []
    ops, index = first, 0
    gc.collect()
    deadline = time.perf_counter() + seconds

    def stop(t, n):
        return t >= deadline and len(lat) + n >= MIN_OPS

    while True:
        lat += run_pass(wl, c6, ops, tally, stop=stop)
        if stop(time.perf_counter(), 0):
            break
        index += 1
        ops = wl.make_pass(index)
    lat.sort()
    n = tally.attempted
    metrics = {
        "ops_per_s": n / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p99_ms": 1000 * percentile(lat, 0.99),
        "answered_frac": tally.outcomes["answer"] / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "latency_samples": (len(lat), "count"),
        "error_frac": (tally.outcomes["error"] / n, "fraction"),
        "refused_frac": (tally.outcomes["refused"] / n, "fraction"),
    }
    return tally, metrics, extra


def trace_run(wl, c6, seed):
    # pass 0 four times, untraced-traced-traced-untraced, each on fresh objects
    untraced, traced = [], []
    for mode in "UTTU":
        ops, tally = wl.make_pass(0), Tally()
        if mode == "U":
            untraced.append((sum(run_pass(wl, c6, ops, tally)), tally))
            continue
        tracer = tracing.Tracer()
        with tracer.installed():
            traced.append((sum(run_pass(wl, c6, ops, tally, tracer=tracer)), tally, tracer, ops))

    (_, tally, tracer, ops), (_, tally2, tracer2, _) = traced
    if tracing.counts(tracer.spans) != tracing.counts(tracer2.spans):
        tally.n_mismatch += 1
        tally.mismatches.append("two traced passes of one seed gave different call counts")
    if len({t.hash.digest() for _, t in untraced} | {t[1].hash.digest() for t in traced}) != 1:
        tally.n_mismatch += 1
        tally.mismatches.append("passes of one seed gave different outputs")
    values = tracing.layer_metrics(tracer.spans, [op.origin for op in ops], tally.cli_bytes)
    # traced vs untraced ops_per_s over the same inputs
    values["trace.overhead_frac"] = 1 - sum(u[0] for u in untraced) / sum(t[0] for t in traced)
    values["multigraph.deep_chain_errors"] = deep_chain_probe(c6) if wl.name == "sum_graph" else 0
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{seed}.jsonl.gz")
    return tally, values


def deep_chain_probe(c6):
    """1 when pairing 600 summed copies of standard_sphere(1, 1) raises
    something other than CapExceeded (today: RecursionError), else 0.
    Kept out of the measured ops so that their failure count stays 0."""
    data = c6.standard_sphere(1, 1)
    for _ in range(599):
        data = c6.kustarev_sum(data, None, c6.standard_sphere(1, 1), None).data
    try:
        c6.build_multigraphs(data)
    except c6.CapExceeded:
        pass
    except Exception:
        return 1
    return 0


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside
    a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(), "seed": seed,
            "commit": git_commit()}


def run_one(args, spec):
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    setups, wl = [], None
    try:
        for _ in range(SETUP_REPS):
            if wl is not None:
                wl.close()
            elapsed, c6, wl, first = setup_once(WORKLOADS[args.workload], args.seed)
            setups.append(elapsed)
        if args.trace:
            tally, values = trace_run(wl, c6, args.seed)
            extra = {}
        else:
            tally, values, extra = measure(wl, c6, first, args.seconds)
            values["setup_s"] = statistics.median(setups)
    finally:
        if wl is not None:
            wl.close()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    shown = {name: (values[name], unit) for name, unit in units.items()}

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"environment {json.dumps(environment(args.seed), sort_keys=True)}")
    for name, (value, unit) in {**shown, **extra}.items():
        print(f"{name:58s} {value:14.6g} {unit}")
    print(f"{'output_digest':58s} {tally.hash.hexdigest()[:16]}")
    for problem in tally.mismatches:
        print(f"MISMATCH {problem}", file=sys.stderr)
    correct = tally.n_mismatch == 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.outcomes["error"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process, so set-up and memory are its own."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        code = code or proc.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "circle6" / "__init__.py").is_file():
        print(f"no circle6 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
