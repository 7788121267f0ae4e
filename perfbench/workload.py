"""One run of one workload, in a fresh interpreter started by ``run.py``.

The process builds its inputs from the seed, warms up, prints ``ready``,
then runs whole passes over its operations until the next pass would end
after ``--seconds``, and prints one JSON line of raw measurements.  Every
operation's output is checked; a check that fails, or an exception, marks
the operation failed.  With ``--setup-only`` it exits after ``ready``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PROBE_TIMEOUT_S = 60
CLI_TIMEOUT_S = 60

sys.path.insert(0, str(SRC))
import portraits  # noqa: E402

import inputs  # noqa: E402
from meter import Meter  # noqa: E402
from run import WORKLOADS  # noqa: E402
from spans import Tracer  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["PYTHONHASHSEED"] = "0"
    return env


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- operations

def build_outputs(text: str):
    """parse -> validate -> analyze -> text report, JSON report, SVG.

    Functions are looked up on their modules at call time, so a traced pass
    goes through the tracer's wrappers.  The JSON is serialised as the
    command line writes it, so census and cli share golden digests.
    """
    p = portraits.fileio.parse_portrait(text)
    result = portraits.portrait.validate_portrait(p)
    if not result.ok:
        raise ValueError(f"valid input rejected by the validator: {result.codes}")
    an = portraits.report.analyze(p)
    report = portraits.report.render_report(an)
    data = json.dumps(portraits.report.report_data(an), indent=2) + "\n"
    svg = portraits.render.render_svg(an.ct, an.regions)
    return an, (report, data, svg)


def check_analysis(an, text: str) -> list[str]:
    """Facts the paper fixes, checked with the benchmark's own arithmetic."""
    d, sets = inputs.parse_sets(text)
    fixed = {Fraction(i, d - 1) for i in range(d - 1)}
    ell = sum(len(s) for s in sets if not fixed & set(s))
    problems = []
    if not an.all_ok:
        problems.append("analysis is not all_ok")
    if inputs.portrait_text(an.recovered.degree, an.recovered.sets) != text:
        problems.append("recovered portrait differs from the input")
    if an.fixed_points != d:
        problems.append(f"fixed_points {an.fixed_points} != degree {d}")
    if len(an.regions) != ell + d - len(sets):
        problems.append(f"{len(an.regions)} regions, l + d - k = {ell + d - len(sets)}")
    return problems


class Workload:
    """Inputs, warm-up and one pass of operations for one workload."""

    def __init__(self, name: str, seed: int, tracer: Tracer | None, meter: Meter):
        self.name, self.seed, self.tracer, self.meter = name, seed, tracer, meter
        self.armed = False
        self.golden = json.loads((inputs.DATA / "golden.json").read_text(encoding="utf-8"))
        getattr(self, "_setup_" + name.replace("-", "_"))()

    # Each pass returns one record per operation:
    # ((start, end), units completed correctly, error text or None).

    def timed(self, fn):
        """Run one operation between meter samples; (span, value, error)."""
        self.meter.sample()
        if self.armed:
            self.meter.arm()
        start = perf_counter()
        try:
            value, error = fn(), None
        except Exception as exc:  # an operation that raises counts as failed
            value, error = None, f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        if self.armed:
            self.meter.disarm()
        return (start, end), value, error

    def _setup_census(self) -> None:
        self.items = inputs.seeded_order(inputs.census_inputs(), self.seed, "census")
        warm = {}
        for item in self.items:
            warm.setdefault(item["census"], item)
        for item in warm.values():
            self._census_op(item)

    def _census_op(self, item):
        span, value, error = self.timed(lambda: build_outputs(item["text"]))
        if error is None:
            an, outputs = value
            problems = check_analysis(an, item["text"])
            if [sha(o) for o in outputs] != self.golden["census"][item["index"]]:
                problems.append("output bytes differ from the golden digests")
            error = "; ".join(problems) or None
        return span, int(error is None), error

    def _pass_census(self):
        return [self._census_op(item) for item in self.items]

    def _setup_enumerate(self) -> None:
        self.items = inputs.seeded_order(list(inputs.ENUMERATIONS), self.seed, "enumerate")
        portraits.portrait.enumerate_portraits(2, 4)

    def _pass_enumerate(self):
        records = []
        for d, p in self.items:
            span, found, error = self.timed(lambda: portraits.portrait.enumerate_portraits(d, p))
            if error is None:
                expected = inputs.ENUMERATION_COUNTS[(d, p)]
                listing = "".join(inputs.portrait_text(q.degree, q.sets) for q in found)
                if len(found) != expected:
                    error = f"({d},{p}) emitted {len(found)} portraits, expected {expected}"
                elif sha(listing) != self.golden["enumerate"][f"{d},{p}"]:
                    error = f"({d},{p}) portrait list differs from the golden digest"
            records.append((span, len(found) if error is None else 0, error))
        return records

    def _setup_long_period(self) -> None:
        self.items = inputs.long_period_inputs(self.seed)
        self._long_period_op(min(self.items, key=lambda it: (it["degree"], it["period"])))

    def _long_period_op(self, item):
        span, value, error = self.timed(lambda: build_outputs(item["text"]))
        if error is None:
            an, (_, data, _) = value
            problems = check_analysis(an, item["text"])
            rotating = [s for s in json.loads(data)["sets"] if s["shift"]]
            if [(s["shift"], s["cardinality"]) for s in rotating] != [
                    (item["shift"], item["period"])]:
                problems.append(f"report shows rotating sets {rotating}")
            error = "; ".join(problems) or None
        return span, int(error is None), error

    def _pass_long_period(self):
        return [self._long_period_op(item) for item in self.items]

    def _setup_cli(self) -> None:
        census = inputs.census_inputs()
        self.items = inputs.cli_inputs(self.seed, census)
        self.dir = OUT / f"cli-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        for k, item in enumerate(self.items):
            item["path"] = self.dir / f"portrait-{k}.txt"
            item["path"].write_text(item["text"], encoding="utf-8")
        self.outputs = [self.dir / name for name in ("report.txt", "report.json", "tree.svg")]
        self.env = child_env()
        self._cli_op(0, self.items[0], traced=False)

    def _cli_op(self, k: int, item, traced: bool):
        for path in self.outputs:
            path.unlink(missing_ok=True)
        args = ["build", str(item["path"]), "--report", str(self.outputs[0]),
                "--json", str(self.outputs[1]), "--svg", str(self.outputs[2])]
        spans = OUT / "trace-cli" / f"op-{k}.json"
        head = ([sys.executable, str(BENCH / "spans.py"), str(spans)] if traced
                else [sys.executable, "-m", "portraits.cli"])
        span, proc, error = self.timed(lambda: subprocess.run(
            head + args, cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S))
        if error is None:
            error = self._check_cli(item, proc)
        if traced and spans.exists():
            self.tracer.merge(json.loads(spans.read_text(encoding="utf-8"))["totals"])
        return span, int(error is None), error

    def _check_cli(self, item, proc) -> str | None:
        if not item["valid"]:
            if proc.returncode != 1 or not any(
                    line.startswith("P1:") for line in proc.stdout.splitlines()):
                return f"mutated input: exit {proc.returncode}, stdout {proc.stdout!r}"
            if any(path.exists() for path in self.outputs):
                return "mutated input still wrote output files"
            return None
        if proc.returncode != 0 or proc.stdout:
            return f"exit {proc.returncode}, stdout {proc.stdout[:200]!r}, stderr {proc.stderr[-200:]!r}"
        digests = [sha(path.read_text(encoding="utf-8")) if path.exists() else None
                   for path in self.outputs]
        if digests != self.golden["census"][item["index"]]:
            return "output files differ from the golden digests"
        return None

    def _pass_cli(self, traced: bool):
        return [self._cli_op(k, item, traced) for k, item in enumerate(self.items)]

    def run_pass(self, traced: bool):
        """One pass; the meter's timer runs inside untraced in-process
        operations only, so that it adds nothing to any traced span."""
        if self.name == "cli":
            return self._pass_cli(traced)
        run = getattr(self, "_pass_" + self.name.replace("-", "_"))
        if not traced:
            self.armed = True
            try:
                return run()
            finally:
                self.armed = False
        self.tracer.install()
        try:
            return run()
        finally:
            self.tracer.uninstall()

    def close(self) -> None:
        if self.name == "cli":
            shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------- the run

def run_probe() -> dict:
    """Build the degree-46 probe portrait in a child process, time-bounded."""
    cmd = [sys.executable, str(Path(__file__)), "--probe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"accepted": False, "error": f"timed out after {PROBE_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"accepted": False, "error": f"probe exit {proc.returncode}: {proc.stderr[-300:]}"}
    return json.loads(lines[-1])


def probe_main() -> None:
    item = inputs.probe_input()
    start = perf_counter()
    try:
        an, _ = build_outputs(item["text"])
        error = "; ".join(check_analysis(an, item["text"])) or None
    except Exception as exc:  # the verdict is the point of the probe
        error = f"{type(exc).__name__}: {exc}"
    print(json.dumps({"accepted": error is None, "error": error,
                      "seconds": perf_counter() - start,
                      "degree": item["degree"], "period": item["period"]}))


def startup_ms(code: str, repeats: int = 5) -> float:
    """Median wall time of ``python -c code`` in the benchmark's child env."""
    env, samples = child_env(), []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        samples.append(perf_counter() - start)
    return 1000 * statistics.median(samples)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if args.probe:
        probe_main()
        return

    tracer = Tracer() if args.trace else None
    meter = Meter()
    meter.sample()
    work = Workload(args.workload, args.seed, tracer, meter)
    meter.sample()
    # run.py divides its set-up time, less the reference runs, by the slowdown
    print(f"ready {meter.slowdown(meter.times)!r} {sum(meter.times)!r}", flush=True)
    if args.setup_only:
        work.close()
        return

    passes = []
    start = perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            began = perf_counter()
            records = work.run_pass(traced)
            took = perf_counter() - began
            passes.append({"traced": traced, "records": records})
            kinds = {p["traced"] for p in passes}
            if (perf_counter() - start + took > args.seconds
                    and len(kinds) == 1 + args.trace):
                break
    finally:
        work.close()
    meter.sample()
    for p in passes:
        seconds = meter.corrected([r[0] for r in p["records"]])
        p["records"] = [(s, end - start, units, error) for s, ((start, end), units, error)
                        in zip(seconds, p["records"])]

    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    times = sorted(meter.times)
    result = {"passes": passes,
              "meter": {"samples": len(times), "floor_ms": 1000 * times[0],
                        "median_ms": 1000 * times[len(times) // 2]},
              "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
              "probe": run_probe() if args.workload == "long-period" else None}
    if tracer is not None:
        result["layers"] = tracer.totals
        interpreter = startup_ms("pass")
        result["cli"] = {"interpreter_ms": interpreter,
                         "import_ms": startup_ms("import portraits.cli") - interpreter}
        if args.workload != "cli":
            tracer.dump(OUT / f"trace-{args.workload}.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
