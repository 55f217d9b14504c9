"""The benchmark's workloads: fixed sets of CLI identity checks.

A check is one ``ribbonchar`` command line, run in-process through
``ribbonchar.cli.main(argv)``.  Each workload is a fixed set of checks; the
seed only decides the order in which a pass runs them, which decides what the
program's memo caches already hold when each check starts.

Checks that compute the same character by different methods share a group
key; the benchmark requires every output in a group to carry the same value.
"""
from __future__ import annotations

import random

# Why each workload exists, in one line each (mirrored in BENCHMARK.json).
WHY = {
    "level1": "level-1 lattice-vs-strip identities (verify djkmo, twisted verify); "
    "strip enumeration in characters and memoised strip Schur dominate",
    "kostka": "Kostka-Foulkes strip formula vs extraction oracle; tableaux+shapes "
    "enumeration dominates, nothing memoised, polyring idle",
    "fibers": "spectral side: fibers, Schur enum/jt/strip and twisted enum/fiber/det "
    "on many small inputs; spread over spectra, twisted, tableaux, polyring, cli",
}


class Check:
    """One CLI call.  ``group`` names its cross-method group, ``field`` the
    output key whose value must agree across that group."""

    __slots__ = ("argv", "group", "field")

    def __init__(self, argv, group=None, field=None):
        self.argv = tuple(str(a) for a in argv)
        self.group = group
        self.field = field

    @property
    def key(self):
        return " ".join(self.argv)


def _compositions(total, maxpart):
    """Ordered tuples of parts in 1..maxpart summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(1, min(maxpart, total) + 1):
        for rest in _compositions(total - first, maxpart):
            yield (first,) + rest


def _partitions(total, max_length):
    """Partitions of total with at most max_length parts, as tuples."""
    def grow(rest, cap, acc):
        if rest == 0:
            yield tuple(acc)
            return
        if len(acc) == max_length:
            return
        for p in range(min(rest, cap), 0, -1):
            yield from grow(rest - p, p, acc + [p])

    return grow(total, total, [])


def _strip_shape(blocks):
    """outer/inner of the border strip whose i-th column from the right has
    blocks[i] cells, as ``BorderStrip.realize`` builds it.  It is computed
    here so that the check list never depends on the program under test."""
    r = len(blocks)
    psum = [0]
    for m in blocks:
        psum.append(psum[-1] + m)
    lam_c = [psum[r + 1 - i] - r + i for i in range(1, r + 1)]
    mu_c = [psum[r - i] - r + i for i in range(1, r + 1)]

    def conj(parts):
        parts = [p for p in parts if p > 0]
        return [sum(1 for p in parts if p >= j) for j in range(1, (max(parts) if parts else 0) + 1)]

    def fmt(parts):
        return ",".join(map(str, parts)) if parts else "0"

    return f"{fmt(conj(lam_c))}/{fmt(conj(mu_c))}"


def level1():
    checks = []
    orders = {2: (4, 8, 12, 14), 3: (2, 4, 6, 8), 4: (2, 4, 6), 5: (1, 3, 5)}
    for n, ords in orders.items():
        for order in ords:
            for k in range(n):
                checks.append(Check(["verify", "djkmo", "--n", n, "--k", k, "--order", order]))
    for n, ords in {1: (4, 8, 12), 2: (3, 6, 9), 3: (3, 5, 7)}.items():
        for order in ords:
            checks.append(Check(["twisted", "verify", "--n", n, "--order", order]))
    return checks


def kostka():
    # Partitions of 8 into four parts are left out: those five checks alone
    # take longer than all the others together.
    checks = []
    for size in range(2, 9):
        for lam in _partitions(size, 4 if size < 8 else 3):
            for m in range(len(lam), 5):
                checks.append(Check(["kostka", "--lambda", ",".join(map(str, lam)), "--n", m]))
    return checks


def fibers():
    checks = []
    for n, N in ((2, 14), (3, 10)):
        checks.append(Check(["verify", "polychronakos", "--n", n, "--N", N]))
        checks.append(Check(["verify", "rogers", "--n", n, "--N", N]))
    # Spectrum points: block lists of a fixed size whose last block is not n.
    for n, size in ((2, 9), (3, 8)):
        for blocks in _compositions(size, n):
            if blocks[-1] == n:
                continue
            h = ",".join(map(str, blocks))
            group = f"fiber n={n} h={h}"
            checks.append(Check(["fiber", "--n", n, "--h", h], group, "character"))
            shape = _strip_shape(blocks)
            for method in ("enum", "jt", "strip"):
                checks.append(Check(
                    ["schur", "--shape", shape, "--n", n, "--method", method],
                    group, "polynomial"))
    for n, top in ((1, 7), (2, 5)):
        for size in range(top + 1):
            for blocks in _compositions(size, 3):
                h = ",".join(map(str, blocks))
                group = f"twisted n={n} h={h}"
                for method in ("enum", "fiber", "det"):
                    checks.append(Check(
                        ["twisted", "schur", "--n", n, "--h", h, "--method", method],
                        group, "polynomial"))
    return checks


WORKLOADS = {"level1": level1, "kostka": kostka, "fibers": fibers}


def pass_orders(checks, seed):
    """Endless stream of check orders for successive passes of one run."""
    rng = random.Random(seed)
    while True:
        yield rng.sample(checks, len(checks))


# Commands whose output carries an ``equal`` verdict that must be true.
_VERDICT = {"verify", "kostka"}


def failures(checks, records, digests):
    """{check key: reason} for every check of a pass that failed.

    A check fails when it raises, exits non-zero, reports ``equal: false``,
    disagrees with the other methods of its group, or prints JSON whose
    digest differs from the one recorded for it.
    """
    bad = {}
    groups = {}
    for check, rec in zip(checks, records):
        key = check.key
        if rec["error"] is not None:
            bad[key] = rec["error"]
        elif rec["code"] != 0:
            bad[key] = f"exit code {rec['code']}"
        elif (check.argv[0] in _VERDICT or check.argv[:2] == ("twisted", "verify")) \
                and rec["equal"] is not True:
            bad[key] = "equal is not true"
        elif digests.get(key) != rec["digest"]:
            bad[key] = "output differs from the recorded digest"
        if check.group is not None:
            groups.setdefault(check.group, []).append((key, rec["payload"]))
    for members in groups.values():
        values = {payload for _key, payload in members}
        if len(values) > 1 or None in values:
            for key, _payload in members:
                bad.setdefault(key, "methods of its group disagree")
    return bad
