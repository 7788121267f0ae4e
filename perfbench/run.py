"""Run one workload of the portraits benchmark and print its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh interpreter (``workload.py``) with a fixed
``PYTHONHASHSEED``.  Set-up - interpreter start, imports, input loading and
warm-up - is timed from this process: several set-up-only children plus the
measured child, reported as the median.  The measured child runs whole
passes over the workload's operations for about ``--seconds`` and checks
every output.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of alternating traced and untraced passes.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("census", "enumerate", "long-period", "cli")
SETUP_ONLY_RUNS = 6
CHILD_TIMEOUT_S = 170

# Traced functions reported per layer: calls and self time, or self time only.
CALLS_AND_SELF = [
    "rotation.enumerate_rotation_sets", "rotation.generate_rotation_set",
    "portrait.validate_portrait", "portrait.unlinked", "portrait.separates",
    "builder.build_regions", "builder.assemble_tree", "builder.vertex_dynamics",
    "builder.construct_tree",
]
SELF_ONLY = [
    "portrait.Portrait.create", "portrait.enumerate_portraits",
    "tree.classify_vertices", "tree.check_tree_axioms", "tree.check_degree_angle",
    "tree.check_julia_normalization", "tree.check_expanding",
    "recovery.recover_portrait", "recovery.boundary_walk",
    "report.analyze", "report.render_report", "report.report_data",
    "render.render_svg", "fileio.parse_portrait", "fileio.format_portrait",
]


def fail(message: str) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def tail_rank(n: int) -> tuple[int, int]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    With fewer than 20 samples that percentile would lie below the median,
    so the slowest sample (reported as percentile 100) stands in for it.
    """
    pct = math.floor(100 - 1000 / n) if n else 0
    if pct < 50:
        return 100, n
    return pct, max(1, math.ceil(pct * n / 100))


def start_child(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    return proc, start


def wait_ready(proc: subprocess.Popen, start: float) -> float:
    """Contention-corrected seconds from starting the child to its ``ready``:
    the elapsed time less the child's reference runs, over their slowdown."""
    ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    elapsed = perf_counter() - start
    word, *numbers = line.split() or [""]
    if word != "ready":
        proc.kill()
        proc.wait()
        fail(f"workload child failed during set-up (exit {proc.poll()})")
    slowdown, reference_s = map(float, numbers)
    return (elapsed - reference_s) / slowdown


def setup_only(args) -> float:
    proc, start = start_child(args, setup_only=True)
    try:
        ready = wait_ready(proc, start)
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        proc.kill()
        proc.wait()
    return ready


def measure(args) -> tuple[list[float], dict]:
    """Set-up times (before and after the measured child, so that they
    sample more of the host's load) and the measured child's result."""
    setups = [setup_only(args) for _ in range(SETUP_ONLY_RUNS // 2)]
    proc, start = start_child(args, setup_only=False)
    try:
        setups.append(wait_ready(proc, start))
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        proc.kill()
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"workload child exited with {proc.returncode}")
    setups += [setup_only(args) for _ in range(SETUP_ONLY_RUNS - SETUP_ONLY_RUNS // 2)]
    return setups, json.loads(lines[-1])


def pass_stats(passes: list[dict]) -> dict:
    """Wall time, median and tail latency of each pass; medians over passes.

    Times are the contention-corrected seconds of ``meter.py``;
    ``raw_wall_s`` sums the uncorrected ones.  Taking each statistic within
    a pass keeps it independent of how many passes fit in the run.
    """
    walls, raws, p50s, tails, units = [], [], [], [], 0
    for p in passes:
        times = sorted(r[0] for r in p["records"])
        pct, rank = tail_rank(len(times))
        walls.append(sum(times))
        raws.append(sum(r[1] for r in p["records"]))
        p50s.append(statistics.median(times))
        tails.append(times[rank - 1])
        units += sum(r[2] for r in p["records"])
    return {"wall_s": statistics.median(walls), "raw_wall_s": statistics.median(raws),
            "ops_per_s": units / sum(walls),
            "op_p50_ms": 1000 * statistics.median(p50s),
            "op_tail_ms": 1000 * statistics.median(tails),
            "tail_pct": pct, "samples": len(times), "passes": len(passes)}


def layer_metrics(result: dict, traced: list[dict], untraced: list[dict]) -> dict:
    totals = result["layers"]
    n = len(traced)

    def calls(name):
        return totals.get(name, [0])[0] / n

    def self_s(name):
        return totals.get(name, [0, 0.0])[1] / n

    def ratio(name):
        c, _, truthy, _ = totals.get(name, [0, 0.0, 0, 0])
        return truthy / c if c else 0.0

    ops = len(traced[0]["records"])
    m = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["rotation.classify_rotation_set.calls"] = (calls("rotation.classify_rotation_set"), "count")
    m["rotation.classify_rotation_set.hit_ratio"] = (ratio("rotation.classify_rotation_set"), "ratio")
    m["rotation.errors"] = (sum(v[3] for k, v in totals.items()
                                if k.startswith("rotation.")) / n, "count")
    m["portrait.validate_portrait.calls_per_op"] = (calls("portrait.validate_portrait") / ops, "count")
    m["portrait.unlinked.true_ratio"] = (ratio("portrait.unlinked"), "ratio")
    m["cli.interpreter_ms"] = (result["cli"]["interpreter_ms"], "ms")
    m["cli.import_ms"] = (result["cli"]["import_ms"], "ms")
    m["trace.overhead_ratio"] = (pass_stats(traced)["wall_s"] / pass_stats(untraced)["wall_s"],
                                 "ratio")
    probe = result.get("probe")
    m["probe.rejected"] = (int(probe is not None and not probe["accepted"]), "count")
    return m


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "portraits" / "__init__.py").is_file():
        fail(f"no program to measure: {ROOT / 'src' / 'portraits'} is missing")

    setups, result = measure(args)
    passes = result["passes"]
    records = [r for p in passes for r in p["records"]]
    failures = [r[3] for r in records if r[3] is not None]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    stats = pass_stats(untraced)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)} untraced"
          f" + {len(traced)} traced  ops/pass {stats['samples']}")
    for message in sorted(set(failures))[:10]:
        print(f"  FAILED: {message}")
    print(f"  fail_ratio {len(failures) / len(records):.6g} ({len(failures)}/{len(records)})")
    print(f"  tail percentile p{stats['tail_pct']} of {stats['samples']} operations per pass;"
          f" uncorrected wall {stats['raw_wall_s']:.4g} s")
    meter = result["meter"]
    print(f"  reference: fastest {meter['floor_ms']:.4g} ms, median {meter['median_ms']:.4g} ms"
          f" over {meter['samples']} runs")
    probe = result.get("probe")
    if probe is not None:
        verdict = "accepted" if probe["accepted"] else f"REJECTED: {probe['error']}"
        print(f"  probe degree-{probe.get('degree')} period-{probe.get('period')}"
              f" portrait: {verdict}")

    if args.trace:
        metrics = layer_metrics(result, traced, untraced)
    else:
        metrics = {
            "wall_s": (stats["wall_s"], "s"),
            "ops_per_s": (stats["ops_per_s"], "1/s"),
            "op_p50_ms": (stats["op_p50_ms"], "ms"),
            "op_tail_ms": (stats["op_tail_ms"], "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
