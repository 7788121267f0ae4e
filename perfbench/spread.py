"""Run every workload over several seeds and record the end-to-end spread.

    python3 perfbench/spread.py --seeds 201-210 --rounds 2 --out perfbench/spread.json

For each round and workload, ``run.py --trace 0`` runs once per seed.  Per
metric the file gives the quartile spread - the distance between the first
and third quartile of ``statistics.quantiles(values, n=4)``, over the
median - and the median; with two rounds or more, also how much worse the
last round's median is than the first's, as a share of the first.  The JSON
result line of every run is kept, so the figures can be recomputed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from record import git_revision
from run import WORKLOADS

BENCH = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(results: list[dict], better: dict) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"median": median, "spread": (q3 - q1) / median,
                     "better": better[name]}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("201-210"))
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record = {"python": platform.python_version(), "git_revision": git_revision(),
              "nproc": len(os.sched_getaffinity(0)), "seconds": seconds,
              "seeds": args.seeds, "bounds": bounds, "workloads": {}}
    for workload in args.workloads:
        rounds = []
        for k in range(args.rounds):
            results = []
            for seed in args.seeds:
                results.append(run_once(workload, seed, seconds))
                if not results[-1]["correct"]:
                    print(f"{workload} seed {seed}: incorrect", file=sys.stderr)
            rounds.append({"results": results, "summary": summary(results, better)})
            for name, s in rounds[-1]["summary"].items():
                print(f"{workload:<12} round {k + 1} {name:<12} median {s['median']:<12.6g}"
                      f" spread {s['spread']:.4f} (bound {bounds[name]})", file=sys.stderr)
        entry = {"rounds": rounds}
        if len(rounds) > 1:
            first, last = rounds[0]["summary"], rounds[-1]["summary"]
            entry["drift"] = {
                name: (last[name]["median"] / first[name]["median"] - 1)
                * (1 if better[name] == "lower" else -1)
                for name in first}
        record["workloads"][workload] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
