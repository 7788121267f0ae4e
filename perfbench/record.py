"""Record every metric of every workload, end to end and per layer, in one file.

    python3 perfbench/record.py --seed 1 --seconds 25 --out perfbench/baseline.json

Each workload runs twice through ``run.py``, with ``--trace 0`` and
``--trace 1``.  The file keeps both JSON result lines, the readable table
lines (failures, tail percentile, probe verdict), the Python version, the
git revision when there is one, and the CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH.parent,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    record = {"python": platform.python_version(), "git_revision": git_revision(),
              "nproc": len(os.sched_getaffinity(0)), "seed": args.seed, "seconds": args.seconds,
              "workloads": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            entry = record["workloads"].setdefault(workload, {})
            entry["trace" if trace else "end_to_end"] = result
            entry.setdefault("notes", []).extend(
                line.strip() for line in lines[:-1]
                if line.split() and line.split()[0] not in result["metrics"])
            print(f"{workload} trace={trace}: done", file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
