"""Record the digest of every benchmark check's output into digests.json.

Usage, from the root of a ribbonchar checkout whose outputs are trusted:

    python3 perfbench/record_digests.py

Runs every check of every workload once, in-process, and refuses to write
if any check raises, exits non-zero, reports a mismatch or disagrees with
the other methods of its group.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from worker import load_program, run_checks

HERE = Path(__file__).resolve().parent


def main():
    cli = load_program(Path.cwd() / "src")
    digests = {}
    problems = {}
    for name, build in workloads.WORKLOADS.items():
        checks = build()
        records = run_checks([[c.argv, c.field] for c in checks], cli)
        recorded = {c.key: r["digest"] for c, r in zip(checks, records)}
        problems.update(workloads.failures(checks, records, recorded))
        digests.update(recorded)
        print(f"{name}: {len(checks)} checks", file=sys.stderr)
    if problems:
        for key, why in sorted(problems.items()):
            print(f"FAILED {key}: {why}", file=sys.stderr)
        return 1
    (HERE / "digests.json").write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
