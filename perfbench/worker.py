"""One measured pass: a fresh interpreter that runs a list of CLI checks.

Usage: python3 worker.py SRC_DIR [--probe] [--trace]

The worker imports ``ribbonchar.cli`` from SRC_DIR, prints ``ready`` and
(unless ``--probe``) reads the pass from stdin as JSON: a list of
``[argv, field]`` pairs.  It runs each check through ``cli.main(argv)`` with
stdout captured, then prints one JSON line with a record per check, the
process's peak resident set and, with ``--trace``, the per-layer summary.

Only the ``cli.main`` call is timed.  The output of each check is digested
right after its call, outside the timed span, so that no check output is
kept alive and the peak resident set stays that of the program.
"""
from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter, process_time

SAMPLE_EVERY_S = 0.006


def canonical(doc):
    """JSON text of ``doc`` with every ``wall_time_ms`` removed, keys sorted."""
    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if k != "wall_time_ms"}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    return json.dumps(strip(doc), sort_keys=True, separators=(",", ":"))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _Counter:
    __slots__ = ("total", "count")

    def add(self, value):
        self.total += value
        self.count += 1
        return self.count


_COUNTER = _Counter()  # made once: an instance is an object the collector tracks


def reference_work(n=700):
    """A fixed interpreter-bound loop, timed to gauge the CPU's current speed.

    On a shared virtual machine the speed of a vCPU drifts by a factor of
    two within seconds, and the program and this loop slow down together,
    so check times are rescaled by the loop time measured beside them.  The
    loop mixes method calls, slot updates, dict updates and big-integer
    arithmetic like the program does, which keeps the time ratio between
    the two steadier than a bare integer loop would.  It allocates no
    object that the collector tracks, so it does not move its schedule.
    """
    acc = _COUNTER
    acc.total = acc.count = 0
    d = dict.fromkeys(range(64), 0)
    big = 3 ** 40
    s = 0
    for i in range(n):
        k = acc.add(i) & 63
        d[k] += i
        s = (s * 31 + big) % 1_000_000_007
        if isinstance(s, int) and s & 1:
            s ^= d[k]
    return s


def time_reference():
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


class SpeedSampler:
    """Times ``reference_work()`` on entry, on exit and every ``every``
    seconds from a SIGALRM handler, so that the speed is also sampled inside
    long checks.  ``on_sample(duration)`` learns of each sample."""

    def __init__(self, every, on_sample=None):
        self.every = every
        self.on_sample = on_sample
        self.starts, self.durations = [], []
        self._old_handler = None

    def sample(self, *_signal_args):
        t0 = perf_counter()
        reference_work()
        took = perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(took)
        if self.on_sample is not None:
            self.on_sample(took)

    def __enter__(self):
        self.sample()
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.sample()

    def during(self, a, b):
        """(sampling time spent inside [a, b), reference time for [a, b)):
        the mean of the samples taken inside, else of the two around it."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        if hi > lo:
            inside = self.durations[lo:hi]
            return sum(inside), sum(inside) / len(inside)
        near = self.durations[max(lo - 1, 0):lo + 1]
        return 0.0, sum(near) / len(near)


def run_checks(checks, cli, on_sample=None):
    """Run ``checks`` (``[argv, field]`` pairs) through ``cli.main`` in order;
    one record each.  ``cli.main`` is looked up per call, so a traced or
    patched entry point is the one measured.

    A record's ``latency`` and ``cpu`` leave out the speed samples taken
    during the check; ``ref`` is the reference time that applies to it.
    """
    records, spans = [], []
    with SpeedSampler(SAMPLE_EVERY_S, on_sample) as speed:
        for argv, field in checks:
            out, err = io.StringIO(), io.StringIO()
            error = None
            c0 = process_time()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(list(argv))
            except Exception as exc:  # a failing check is counted, not fatal
                code, error = None, f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            c1 = process_time()
            spans.append((t0, t1, c1 - c0))
            text = out.getvalue()
            rec = {"code": code, "error": error, "bytes": len(text.encode()),
                   "digest": None, "equal": None, "payload": None}
            if error is None:
                try:
                    doc = json.loads(text)
                except ValueError:
                    rec["error"] = "output is not JSON: " + (err.getvalue() or text)[:200]
                else:
                    rec["digest"] = digest(canonical(doc))
                    rec["equal"] = doc.get("equal")
                    if field is not None and field in doc:
                        rec["payload"] = digest(canonical(doc[field]))
            records.append(rec)
    for rec, (t0, t1, cpu) in zip(records, spans):
        stolen, rec["ref"] = speed.during(t0, t1)
        rec["latency"] = t1 - t0 - stolen
        rec["cpu"] = cpu - stolen
    return records


def load_program(src):
    """Import ``ribbonchar.cli`` from ``src`` and no other place."""
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import ribbonchar.cli

    where = Path(ribbonchar.cli.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"ribbonchar was imported from {where}, not from {src}")
    return ribbonchar.cli


def main(argv):
    src, flags = argv[0], set(argv[1:])
    cli = load_program(src)
    print("ready", flush=True)
    if "--probe" in flags:
        return 0
    checks = json.loads(sys.stdin.read())
    tracer = None
    if "--trace" in flags:
        from spans import Tracer  # beside this file, on sys.path[0]

        tracer = Tracer()
        tracer.install()
    records = run_checks(checks, cli, tracer.pause if tracer else None)
    result = {"records": records,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary(sum(r["latency"] for r in records),
                                         sum(r["bytes"] for r in records))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
