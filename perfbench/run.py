"""The ambigseq benchmark: cold-process mine/run/analyze cycles, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition is a new interpreter (``child.py``) with a new output
directory, because ``mining._matching_generators`` is an in-process cache: a
loop inside one process would time a warm cache that no ``ambigseq``
invocation ever gets. Repetitions run one at a time until ``--seconds`` is
spent (at least ``MIN_REPS``, so that a median can drop one outlier), and
every end-to-end metric is their median. ``setup_s`` is short and noisy, so
set-up-only children add samples of it until there are ``SETUP_SAMPLES``;
it is the median of those. With
``--trace 1`` the run is two traced repetitions and,
time permitting, an untraced one to measure the tracing overhead; the
metrics are then the per-layer ones.

Every output is checked against ``expected.json`` (see ``Run.check_rep``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any check
failed. A repetition that crashes or times out ends the run: it still prints
the object, with the lost repetition's planned queries counted as failed and
every metric null. ``README.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC_PACKAGE = ROOT / "src" / "ambigseq"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

# oracle_anchor is the ROADMAP's digest-anchored campaign. One cold
# repetition took 25-46 s on a 2-vCPU VM, too long for the benchmark's time
# budget, so it is not in BENCHMARK.json; run it by hand to check that digest.
# mine_wide is not in BENCHMARK.json either: its time follows the host's
# speed too closely to pass the benchmark's spread bound (see README.md).
MIN_REPS = {"analyze_10x": 3, "oracle_cycle": 3, "http_sim": 3, "mine_wide": 3, "oracle_anchor": 1}
SETUP_SAMPLES = 12
# A run must end within 180 s; building the analyze_10x fixture is exempt.
RUN_BUDGET_S = 170.0
FIXTURE_TIMEOUT_S = 600.0

ORACLE_METRICS = (
    "explanation_accuracy",
    "completion_accuracy",
    "valid_fraction",
    "cross_context_consistency",
)
# Counts that must repeat exactly between the two traced repetitions.
EXACT_COUNTS = (
    "funcspace.evaluate_calls",
    "mining.match_calls",
    "prompting.build_calls",
    "backends.complete_calls",
    "campaign.lines_written",
)
# End-to-end metrics that only some workloads have; printed, not in the JSON.
STAGE_UNITS = {
    "mine_s": "s",
    "run_s": "s",
    "resume_s": "s",
    "analyze_s": "s",
    "queries_per_s": "q/s",
    "cpu_ms_per_query": "ms",
}


class ChildFailed(RuntimeError):
    pass


def source_digest() -> str:
    """Content hash of the program under test, so cached inputs follow it."""
    h = hashlib.sha256()
    for path in sorted(SRC_PACKAGE.rglob("*.py")):
        h.update(str(path.relative_to(SRC_PACKAGE)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def spawn(args: list[str], report: Path, timeout: float) -> tuple[float, dict]:
    """Run child.py in a new interpreter; (spawn time, its report)."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise ChildFailed(f"child {args[:2]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return started, json.loads(report.read_text())


class Run:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.expected = json.loads((HERE / "expected.json").read_text())[workload]
        self.work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.input_dir: Path | None = None
        self.n = 0
        self.reps: list[dict] = []
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    # -- children -----------------------------------------------------------

    def _child(
        self, mode: str, extra: tuple[str, ...] = (), copy_inputs: bool = True
    ) -> tuple[float, dict]:
        self.n += 1
        out = self.work / f"{mode}{self.n}"
        out.mkdir(parents=True)
        if copy_inputs and self.input_dir is not None:
            for f in self.input_dir.iterdir():
                shutil.copyfile(f, out / f.name)
        report = self.work / f"report{self.n}.json"
        args = [mode, self.workload, str(self.seed), str(out), str(report), *extra]
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise ChildFailed(f"no time left in the {RUN_BUDGET_S:.0f} s run budget")
        try:
            started, result = spawn(args, report, timeout)
        finally:
            shutil.rmtree(out)
        return started, result

    def rep(self, trace_file: Path | None = None) -> dict:
        started, report = self._child("rep", (str(trace_file),) if trace_file else ())
        self.setups.append(report["ready"] - started)
        self.reps.append(report)
        return report

    def setup_only(self) -> None:
        started, report = self._child("setup", copy_inputs=False)
        self.setups.append(report["ready"] - started)

    def prepare_inputs(self) -> None:
        """analyze_10x resumes and analyzes a finished 10x results file; the
        oracle campaign it is made from is run once per source tree and cached."""
        if self.workload != "analyze_10x":
            return
        cache = HERE / ".cache" / f"analyze_10x-{source_digest()}"
        cache.parent.mkdir(parents=True, exist_ok=True)
        self.input_dir = self.work / "input"
        self.input_dir.mkdir(parents=True)
        report = self.work / "fixture.json"
        args = ["fixture", str(self.seed), str(cache), str(self.input_dir), str(report)]
        _, result = spawn(args, report, FIXTURE_TIMEOUT_S)
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        got, want = result["results"]["body"], self.expected["bodies"]["results"]
        self.gate("fixture records digest", got == want, got)
        if got != want:
            shutil.rmtree(cache)  # never reuse a cache that failed its check

    def measure(self) -> None:
        start = time.perf_counter()
        while len(self.reps) < MIN_REPS[self.workload] or (
            (time.perf_counter() - start) * (len(self.reps) + 1) / len(self.reps) <= self.seconds
        ):
            self.rep()
        while len(self.setups) < SETUP_SAMPLES:
            self.setup_only()

    def traced(self) -> tuple[list[dict], dict | None]:
        traces = HERE / "traces"
        start = time.perf_counter()
        traced = [
            self.rep(traces / f"{self.workload}-seed{self.seed}-{i}.jsonl") for i in (1, 2)
        ]
        per_rep = (time.perf_counter() - start) / 2
        fits = time.perf_counter() + 1.5 * per_rep < self.deadline
        return traced, self.rep() if fits else None

    # -- checks -------------------------------------------------------------

    def gate(self, name: str, ok: bool, detail: object = "", weight: int = 1) -> None:
        """Count ``weight`` attempted operations, all of them failed unless ``ok``."""
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.failures.append(f"{name}: {detail}")

    def check_rep(self, r: dict) -> None:
        exp, d = self.expected, r["digests"]
        if "queries" in exp:
            # each planned query is an attempted operation; an aborted
            # campaign fails the ones it never reached
            done = r["queried"] + r["skipped"]
            self.attempted += done
            self.gate(
                "campaign completed its plan",
                not r["failed"] and done == exp["queries"],
                r["error"],
                weight=max(1, exp["queries"] - done),
            )
        if self.workload == "analyze_10x":
            self.gate("resume queried nothing", r["queried"] == 0, r["queried"])
        if "logprob_fallbacks" in exp:
            got = r["logprob_fallbacks"]
            self.gate("logprob fallbacks noted", got == exp["logprob_fallbacks"], got)
        for n, want in exp.get("counts", {}).items():
            self.gate(f"L{n} ambiguous/unambiguous counts", r["counts"][n] == want, r["counts"][n])
        for key, want in exp.get("bodies", {}).items():
            self.gate(f"{key} digest without header", d[key]["body"] == want, d[key]["body"])
        if self.seed == 0:
            for key, want in exp.get("seed0", {}).items():
                got = d[key]["full"] if isinstance(d[key], dict) else d[key]
                self.gate(f"{key} digest at seed 0", got == want, got)
        if exp.get("oracle"):
            for n, agg in r["aggregate"].items():
                for key in ORACLE_METRICS:
                    ok = agg is not None and agg[key] == 100.0
                    self.gate(f"L{n} oracle {key} is 100%", ok, agg and agg[key])

    def check_repeats(self, reps: list[dict]) -> None:
        for key in sorted(reps[0]["digests"]):
            values = {json.dumps(r["digests"][key]) for r in reps}
            self.gate(f"{key} digest repeats", len(values) == 1, values)


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def end_to_end(reps: list[dict], setups: list[float]) -> dict[str, float | None]:
    """Medians over repetitions; None for a stage the workload does not run."""

    def med(values):
        values = [v for v in values if v is not None]
        return median(values) if values else None

    stage = {
        key: med(r["stages"].get(key) for r in reps)
        for key in ("mine_s", "run_s", "resume_s", "analyze_s")
    }
    queried = [r for r in reps if r.get("queried")]
    return {
        "setup_s": median(setups),
        **stage,
        "cycle_s": med(r["cycle_s"] for r in reps),
        "cycle_cpu_s": med(r["cycle_cpu_s"] for r in reps),
        "queries_per_s": med(r["queried"] / r["stages"]["run_s"] for r in queried),
        "cpu_ms_per_query": med(1e3 * r["cpu"]["run_s"] / r["queried"] for r in queried),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
    }


def traced_metrics(run: Run, traced: list[dict], plain: dict | None) -> dict:
    """Per-layer metrics of the traced repetitions; counts must repeat exactly."""
    a, b = (t["per_layer"] for t in traced)
    for key in EXACT_COUNTS:
        run.gate(f"{key} repeats between traced runs", a[key] == b[key], (a[key], b[key]))
    metrics = {
        key: a[key] if a[key] == b[key] or None in (a[key], b[key]) else median((a[key], b[key]))
        for key in a
    }
    if plain is None:
        print("tracing overhead: not measured, no time left for an untraced repetition")
    else:
        overhead = median(t["cycle_s"] for t in traced) - plain["cycle_s"]
        print(f"tracing overhead (traced cycle_s - untraced cycle_s): {overhead:.6g} s")
    print(f"  {'layer':<12} {'spans':>9} {'total_ms':>12} {'self_ms':>12}")
    for layer, row in sorted(traced[0]["layers"].items()):
        print(f"  {layer:<12} {row['calls']:>9} {row['total_ms']:>12.3f} {row['self_ms']:>12.3f}")
    for key, value in metrics.items():
        print(f"  {key:<34} {fmt(value):>14}")
    print(f"spans written to {HERE / 'traces'}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MIN_REPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_PACKAGE / "__init__.py").is_file():
        print(f"no ambigseq sources at {SRC_PACKAGE}; run from a full checkout", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK_FILE.read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    units.update(STAGE_UNITS)
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    run = Run(args.workload, args.seed, args.seconds)
    aborted = None
    try:
        run.prepare_inputs()
        if args.trace:
            traced, plain = run.traced()
        else:
            run.measure()
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        aborted = str(exc).strip().splitlines()[-1]
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    reps = run.reps
    for r in reps:
        run.check_rep(r)
    if len(reps) > 1:
        run.check_repeats(reps)

    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}")
    if aborted is not None:
        # the lost repetition fails all the queries it planned
        run.gate("repetition completed", False, aborted, weight=run.expected.get("queries", 1))
        metrics = dict.fromkeys(wanted)
    elif args.trace:
        metrics = traced_metrics(run, traced, plain)
    else:
        metrics = end_to_end(reps, run.setups)
        print("  cycle_s per repetition: " + " ".join(fmt(r["cycle_s"]) for r in reps))
        print("  medians over the repetitions:")
        for name, value in metrics.items():
            print(f"  {name:<20} {fmt(value):>12} {units[name]}")
    print(f"  {'failed_ratio':<20} {fmt(run.failed / run.attempted):>12} "
          f"({run.failed} of {run.attempted} operations)")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")

    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in wanted},
            }
        )
    )
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
