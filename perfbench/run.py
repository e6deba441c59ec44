"""Benchmark of the plansynth pipeline, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload chain-games --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --fast          # every workload, small, all checks

One process, one thread, closed loop: each operation is the command a user
runs (``plansynth synthesize|plan|verify PROBLEM [--out FILE]``), called
in-process through ``plansynth.cli.main`` with its output captured, on files
written during set-up.  The run repeats whole passes over the workload's
problems until ``--seconds`` of timed work are done, checks the first
pass's answers with the independent checks in ``checks.py`` and later
passes for identical answers, and prints one JSON object as its last line.
It exits 1 if a check fails and 2 if it cannot run at all.
"""

from __future__ import annotations

import os
import sys

# Hashing of formula nodes decides set orders inside the compiler; a fixed
# hash seed makes the work of each operation the same from run to run.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED="0"))

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("ltlf-synth", "fond-plan", "chain-games", "parity-games")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples the tail percentile leaves above it
MIN_PASSES = 2  # so that every problem's time is a mean of at least two

sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import tracing  # noqa: E402
from checks import strategy_rows  # noqa: E402
from common import VERIFY_ACCEPT, VERIFY_RAISES, VERIFY_UNSUPPORTED  # noqa: E402


def generator(workload: str):
    """``generate(seed, outdir, fast)`` of the workload's module."""
    return importlib.import_module(workload.replace("-", "_")).generate


def set_up(workload: str, seed: int, outdir: str, fast: bool):
    """Import the package, then generate and write the workload's inputs."""
    import plansynth  # noqa: F401

    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    return generator(workload)(seed, outdir, fast)


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that only set up."""
    times = []
    for k in range(1 if args.fast else SETUP_REPEATS):
        outdir = os.path.join(OUT, f"setup-{os.getpid()}-{k}")
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", outdir,
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.fast:
            cmd.append("--fast")
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        times.append(time.perf_counter() - start)
        shutil.rmtree(outdir, ignore_errors=True)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
    return statistics.median(times)


def call(argv: list[str]):
    """One user command through cli.main: (seconds, exit code, output, raised)."""
    from plansynth import cli

    buf = io.StringIO()
    raised = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except RecursionError as exc:
            # Without its traceback: that holds the frames of the failed call
            # in a cycle with this one, to be freed only when the cyclic
            # collector next runs, so peak_rss_mb would depend on when it did.
            code, raised = None, exc.with_traceback(None)
    return time.perf_counter() - start, code, buf.getvalue(), raised


def status_of(output: str) -> str | None:
    for line in output.splitlines():
        if line.startswith("status: "):
            return line[len("status: "):]
    return None


def digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Run:
    """Timed passes over one workload's cases, with their outcomes."""

    def __init__(self, cases, tracer=None):
        self.cases = cases
        self.tracer = tracer
        self.solve_times = {c.name: [] for c in cases}
        self.verify_times = {c.name: [] for c in cases}
        self.first = {}  # name -> (status, strategy digest)
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.timed = 0.0

    def op(self, argv):
        if self.tracer is None:
            return call(argv)
        self.tracer.active = True
        try:
            with self.tracer.span("cli.main"):
                return call(argv)
        finally:
            self.tracer.active = False

    def one_pass(self) -> None:
        for case in self.cases:
            if case.command == "verify":
                if self.passes == 0:
                    error = case.check(None, case.strategy)
                    if error:
                        self.errors.append(f"{case.name}: {error}")
                self.verify(case, case.strategy)
                continue
            strategy = case.problem + ".strategy"
            if os.path.exists(strategy):
                os.remove(strategy)
            self.attempted += 1
            seconds, code, output, raised = self.op([case.command, case.problem, "--out", strategy])
            self.timed += seconds
            self.solve_times[case.name].append(seconds)
            status = status_of(output)
            if raised is not None or status is None:
                self.failed += 1
                self.errors.append(f"{case.name}: {case.command} failed: {raised or output!r}")
                continue
            outcome = (status, digest(strategy))
            if self.passes == 0:
                self.first[case.name] = outcome
                error = case.check(status, strategy)
                if error:
                    self.errors.append(f"{case.name}: {error}")
            elif outcome != self.first.get(case.name):
                self.errors.append(f"{case.name}: answer differs from the first pass")
            if status == "realizable":
                self.verify(case, strategy)
        self.passes += 1

    def verify(self, case, strategy) -> None:
        self.attempted += 1
        seconds, code, output, raised = self.op(["verify", case.problem, strategy])
        self.timed += seconds
        self.verify_times[case.name].append(seconds)
        if raised is not None:
            self.failed += 1
            if case.verify != VERIFY_RAISES:
                self.errors.append(f"{case.name}: verify raised {raised!r}")
        elif case.verify == VERIFY_ACCEPT and (code != 0 or "ACCEPT" not in output):
            self.errors.append(f"{case.name}: verify did not accept: {output!r}")
        elif case.verify == VERIFY_UNSUPPORTED and (code != 4 or "unsupported" not in output):
            self.errors.append(f"{case.name}: verify of an infinite-trace strategy: {output!r}")


def total_strategy_rows(cases, run: Run) -> int:
    """Rows of the strategies the program wrote, not of those given to it."""
    return sum(strategy_rows(c.problem + ".strategy") for c in cases
               if run.first.get(c.name, ("",))[0] == "realizable")


def end_to_end(run: Run, setup_s: float, rows: int) -> dict:
    # A problem's time is its mean over the passes, which spread over the
    # whole run: the machine's speed moves in phases of seconds, and a mean
    # weighs them by their length where a median of the passes would jump
    # from one phase's speed to the other's.
    per_problem = sorted(statistics.fmean(t) for t in run.solve_times.values() if t)
    verifies = [statistics.fmean(t) for t in run.verify_times.values() if t]
    tail_index = max(0, len(per_problem) - 1 - TAIL_BEYOND)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (setup_s, "s"),
        "verdict_s.p50": (statistics.median(per_problem), "s"),
        "verdict_s.tail": (per_problem[tail_index], "s"),
        "throughput_pps": (len(per_problem) / sum(per_problem), "problems/s"),
        "verify_s.p50": (statistics.median(verifies) if verifies else 0.0, "s"),
        "peak_rss_mb": (rss, "MB"),
        "strategy_rows": (rows, "rows"),
    }


def run_workload(args) -> int:
    setup_s = measure_setup(args)
    min_passes = 1 if args.fast else MIN_PASSES
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        cases = set_up(args.workload, args.seed, workdir, args.fast)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        run = Run(cases, tracer)
        # Whole passes only; past MIN_PASSES, none that would end after --seconds.
        while run.passes < min_passes or run.timed * (run.passes + 1) / run.passes <= args.seconds:
            run.one_pass()
        rows = total_strategy_rows(cases, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(run, setup_s, rows)
    statuses = [s for s, _ in run.first.values()]
    solved = sum(c.command != "verify" for c in cases)
    given = f" and {len(cases) - solved} given strategies" if solved < len(cases) else ""
    print(f"# {args.workload} seed {args.seed}: {solved} problems{given} x {run.passes} passes, "
          + ", ".join(f"{statuses.count(s)} {s}" for s in sorted(set(statuses))))
    for error in run.errors:
        print(f"# {error}")
    if tracer is not None:
        print("# traced end-to-end: " + json.dumps({k: v for k, (v, _) in e2e.items()}))
        values = tracer.layer_metrics(run.passes)
        metrics = {m: {"value": values[m], "unit": u} for m, u in tracing.per_layer_names()}
    else:
        metrics = {m: {"value": v, "unit": u} for m, (v, u) in e2e.items()}
    correct = not run.errors
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stem = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(dict(result, solve_times=run.solve_times, verify_times=run.verify_times,
                       errors=run.errors), handle, indent=1)
    if tracer is not None:
        tracer.dump(stem + ".spans.jsonl")
    print(json.dumps(result))
    return 0 if correct else 1


def run_fast(args) -> int:
    """Every workload at small sizes, each in a fresh interpreter."""
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--fast",
                   "--seed", str(args.seed), "--seconds", "0", "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            print(f"{workload} trace {trace}: exit {done.returncode}")
            for line in lines[:-1]:
                print(f"  {line}")
            if done.returncode != 0:
                bad += 1
                print(done.stderr)
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true", help="small sizes, one pass")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "plansynth", "cli.py")):
        print(f"error: no plansynth sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        set_up(args.workload, args.seed, args.setup_only, args.fast)
        return 0
    if args.workload is None:
        if not args.fast:
            parser.error("--workload is required unless --fast")
        return run_fast(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
