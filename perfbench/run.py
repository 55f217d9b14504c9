"""ribbonchar verification benchmark.

Usage, from the root of a ribbonchar checkout:

    python3 perfbench/run.py --workload level1|kostka|fibers --seed N \
        --seconds S --trace 0|1

A run measures whole passes over the workload's checks (see workloads.py)
until S seconds have gone, and at least MIN_PASSES of them.  Each pass is a
fresh single-threaded interpreter (worker.py) that runs one check at a time,
so the program's memo caches start cold, as they do for a CLI user.  The
seed fixes the order of the checks in every pass.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics:

    setup_s        interpreter launch until ribbonchar.cli is imported and
                   the worker is ready for its first check; median over the
                   passes' launches and SETUP_PROBES extra launches per pass
    wall_s         time spent in the pass's cli.main calls; median over passes
    cpu_s          process CPU time of the same calls; median over passes
    check_p50_ms   median over the checks of each check's latency, which is
                   its median over the passes
    check_tail_ms  the same latencies at the highest percentile with at least
                   TAIL_BEYOND checks beyond it (percentile on stderr)
    peak_rss_mb    peak resident set of a pass's process; median over passes

Times are rescaled to a fixed CPU speed (see REFERENCE_S and
worker.SpeedSampler): the vCPUs of a shared virtual machine change speed by
up to a factor of two within seconds, which no number of repetitions
averages out.  The raw wall time is printed on stderr beside them.

With ``--trace 1`` the run alternates untraced and traced passes and reports
the per-layer metrics of spans.py (medians over the traced passes) plus
``trace_overhead``, traced wall time over untraced wall time.

Every check's output is verified (see ``workloads.failures``) against the
digests in digests.json; ``failed`` counts the checks that did not pass.
A human-readable table, with ``fail_ratio``, goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from worker import time_reference

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
SETUP_PROBES = 2  # extra launches after each pass, timed for setup_s only
TAIL_BEYOND = 10
RUN_LIMIT_S = 170.0
# Times are reported at the CPU speed at which worker.reference_work() takes
# REFERENCE_S: measured time * REFERENCE_S / reference time measured beside it.
REFERENCE_S = 0.00037
CLOSURE_MARGIN = 1e-3  # allowed |trace.closure_error|, as a share of the wall time

UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "check_p50_ms": "ms",
         "check_tail_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def tail_rank(count, beyond=TAIL_BEYOND):
    """(percentile, 0-based index into the sorted samples) of the highest
    nearest-rank percentile that has at least ``beyond`` samples above it."""
    if count <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {count}")
    return 100.0 * (count - beyond) / count, count - beyond - 1


def tail(samples, beyond=TAIL_BEYOND):
    _pct, idx = tail_rank(len(samples), beyond)
    return sorted(samples)[idx]


class Worker:
    """One worker process; ``setup_s`` is launch-to-ready by this clock,
    rescaled by the reference timings taken just before and after."""

    def __init__(self, src, *flags):
        env = dict(os.environ, PYTHONHASHSEED="0")
        before = time_reference()
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-s", str(HERE / "worker.py"), str(src), *flags],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        ready = self.proc.stdout.readline()
        raw = perf_counter() - t0
        self.setup_s = raw * REFERENCE_S / ((before + time_reference()) / 2)
        if ready.strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise BenchError("worker failed to import ribbonchar.cli")

    def finish(self, payload, timeout):
        try:
            out, _ = self.proc.communicate(payload, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("worker exceeded the run's time limit") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return out


class Run:
    """Everything one benchmark run measured."""

    def __init__(self, checks):
        self.checks = checks
        self.setups = []
        self.passes = []  # untraced: {"wall_s", "cpu_s", "raw_wall_s", "peak_rss_mb"}
        self.traced = []  # (wall_s, per-layer summary)
        self.latency = {c.key: [] for c in checks}  # untraced, per check
        self.failed = {}  # check key -> first reason seen
        self.failed_total = 0
        self.attempted = 0

    def add_pass(self, order, result, digests, traced):
        records = result["records"]
        self.attempted += len(order)
        bad = workloads.failures(order, records, digests)
        self.failed_total += len(bad)
        for key, why in bad.items():
            self.failed.setdefault(key, why)
        scaled = [REFERENCE_S / r["ref"] for r in records]
        wall = sum(r["latency"] * f for r, f in zip(records, scaled))
        if traced:
            # per-layer times get the pass's mean speed correction
            scale = wall / sum(r["latency"] for r in records)
            self.traced.append((wall, {k: v * scale if k.endswith("_s") else v
                                       for k, v in result["trace"].items()}))
            return
        for check, r, f in zip(order, records, scaled):
            self.latency[check.key].append(r["latency"] * f)
        self.passes.append({
            "wall_s": wall,
            "cpu_s": sum(r["cpu"] * f for r, f in zip(records, scaled)),
            "raw_wall_s": sum(r["latency"] for r in records),
            "peak_rss_mb": result["peak_rss_mb"],
        })

    def end_to_end(self):
        out = {k: statistics.median(p[k] for p in self.passes) for k in self.passes[0]}
        per_check = [statistics.median(v) for v in self.latency.values()]
        out["check_p50_ms"] = 1000 * statistics.median(per_check)
        out["check_tail_ms"] = 1000 * tail(per_check)
        out["setup_s"] = statistics.median(self.setups)
        return out

    def per_layer(self, untraced_wall):
        summaries = [t for _wall, t in self.traced]
        out = {k: statistics.median(t[k] for t in summaries) for k in summaries[0]}
        out["trace_overhead"] = (statistics.median(w for w, _t in self.traced)
                                 / untraced_wall)
        return out

    def trace_adds_up(self):
        return all(not t["trace.nesting_errors"]
                   and abs(t["trace.closure_error"]) <= CLOSURE_MARGIN
                   for _wall, t in self.traced)


def measure(args, src):
    deadline = perf_counter() + RUN_LIMIT_S
    run = Run(workloads.WORKLOADS[args.workload]())
    digests = json.loads((HERE / "digests.json").read_text())

    Worker(src, "--probe").finish("", 30)  # unmeasured: fills caches on disk
    orders = workloads.pass_orders(run.checks, args.seed)
    t0 = perf_counter()
    while True:
        traced = bool(args.trace) and len(run.passes) > len(run.traced)
        order = next(orders)
        worker = Worker(src, *(["--trace"] if traced else []))
        out = worker.finish(json.dumps([[c.argv, c.field] for c in order]),
                            max(deadline - perf_counter(), 1.0))
        run.setups.append(worker.setup_s)
        run.add_pass(order, json.loads(out.splitlines()[-1]), digests, traced)
        for _ in range(SETUP_PROBES):
            probe = Worker(src, "--probe")
            probe.finish("", 30)
            run.setups.append(probe.setup_s)
        if perf_counter() - t0 >= args.seconds and (
                run.traced if args.trace else len(run.passes) >= MIN_PASSES):
            return run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", "_ratio", ".closure_error", "_overhead")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "ribbonchar" / "cli.py").is_file():
        print(f"error: no ribbonchar sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    # One vCPU for the benchmark and its workers: a pass never migrates
    # between vCPUs whose speeds differ, and the reference timings of the
    # parent and of a worker see the same vCPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = perf_counter()
    try:
        run = measure(args, src)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    e2e = run.end_to_end()
    correct = not run.failed
    if args.trace:
        if not run.trace_adds_up():
            correct = False
            print("error: traced self times do not add up to the wall time",
                  file=sys.stderr)
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in run.per_layer(e2e["wall_s"]).items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in UNITS.items()}

    log = sys.stderr
    pct, _ = tail_rank(len(run.checks))
    print(f"workload {args.workload}: {len(run.checks)} checks per pass, "
          f"{len(run.passes)} untraced + {len(run.traced)} traced passes, "
          f"{len(run.setups)} launches, {perf_counter() - started:.1f} s", file=log)
    for k, unit in UNITS.items():
        print(f"  {k:16s} {e2e[k]:12.6g} {unit}", file=log)
    print(f"  {'raw wall_s':16s} {e2e['raw_wall_s']:12.6g} s   (as measured, not rescaled)",
          file=log)
    print(f"  {'fail_ratio':16s} {run.failed_total / run.attempted:12.6g} ratio"
          f"   (check_tail_ms is p{pct:.4g} of {len(run.checks)})", file=log)
    for key, why in sorted(run.failed.items())[:20]:
        print(f"  FAILED {key}: {why}", file=log)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed_total, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
