#!/usr/bin/env python3
"""fracground benchmark: one caller, a closed loop of ops, every result checked.

    python3 perfbench/run.py --workload solve-log2d --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 0 --trace 1

Each op starts when the previous one returns, on the interpreter's one
thread; BLAS thread pools get one thread, so the matrix-vector product in
model.F does not compete with other processes for the host's few CPUs.

--trace 0 times untraced ops and prints the ``end_to_end`` metrics of
BENCHMARK.json.  --trace 1 alternates untraced and traced ops (at least one
untraced and two traced), prints the ``per_layer`` metrics, writes the spans
to ``.perfbench/`` and checks the harness itself: every named metric is
present, counts repeat exactly across traced ops of the same seed, every
span lies inside its parent without overlapping its siblings, and library
spans cover all but 3% of each traced op's wall time.  With --seconds 0
that is the self-check.  ``--workload all`` runs each workload in its own
process.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 7
# Program seeds per run: op i of a run with --seed s uses seed
# SEEDS_PER_RUN * s + i % SEEDS_PER_RUN, so each run samples several initial
# states (sweep-cli does up to 14% more work on some seeds than on others).
# A traced run uses SEEDS_PER_RUN * s alone, so its counts must repeat.
SEEDS_PER_RUN = 4
MIN_TIMED_OPS = 3
# op_s.tail is this percentile of the timed ops, interpolated, whatever
# their number: a run holds 3-5 sweep-cli ops or 11-30 solves.
TAIL_PERCENTILE = 90
# Largest share of a traced op's wall time that no library span may cover.
UNCOVERED_TOL = 0.03
# Printed but not declared in BENCHMARK.json.  End-to-end metrics there must
# never be 0, and failed_frac is 0 on a passing run (ok_frac is declared in
# its place).  A declared time must be a measurement that changes from run
# to run, and these self times are exactly 0 on the solve workloads, which
# never enter experiments or cli.  Declared counts and ratios may be 0.
UNDECLARED_UNITS = {
    "failed_frac": "ratio",
    "experiments.self_s": "s",
    "cli.parse_config.self_s": "s",
    "cli.run.self_s": "s",
}
TRACE_ONLY = ("experiments.self_s", "cli.parse_config.self_s", "cli.run.self_s")


def single_thread_blas() -> None:
    """One thread per native thread pool; call before numpy loads.

    Set-up probes inherit it.  The products are small (4096 x 96 at most),
    and on two shared CPUs a second thread made solve-log2d about 8% slower.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def git_commit():
    """HEAD of the checkout; None when it is not a git work tree or git is missing.

    The .git check keeps git from searching the directories above the checkout.
    """
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int, program_seeds) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "program_seeds": program_seeds,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "commit": git_commit(),
    }


def probe_setup(name: str) -> float:
    """setup_s of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), name],
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Attempted and failed ops; each failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, op, index=None, tracer=None) -> tuple:
        """Run one op (traced when a tracer is given); returns (seconds, extras).

        Only op.run() is timed; the correctness gate runs after the clock stops.
        """
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = op.run() if tracer is None else tracer.run_op(index, op.run)
            seconds = time.perf_counter() - t0
        except Exception:
            seconds = time.perf_counter() - t0
            self._fail([traceback.format_exc()])
            return seconds, {}
        finally:
            if tracer is not None:
                tracer.uninstall()
        try:
            problems, extras = op.check(result)
        except Exception:
            problems, extras = [traceback.format_exc()], {}
        if problems:
            self._fail(problems)
        return seconds, extras

    def _fail(self, problems) -> None:
        self.failed += 1
        for text in problems:
            print(f"op {self.attempted - 1} failed: {text}", file=sys.stderr)


def tail(samples) -> tuple:
    """(TAIL_PERCENTILE-th percentile, samples above it), linearly interpolated."""
    value = statistics.quantiles(samples, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(1 for x in samples if x > value)


def measure_end_to_end(name, op, seconds, tally) -> tuple:
    setup = [probe_setup(name) for _ in range(SETUP_PROBES)]
    if op.warmup:
        tally.run(op)
    times = []
    ok_before = tally.attempted - tally.failed
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_TIMED_OPS or time.perf_counter() < deadline:
        times.append(tally.run(op)[0])
    ok = tally.attempted - tally.failed - ok_before
    n = len(times)
    tail_value, above = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setup),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_value,
        "ok_frac": ok / n,
        "failed_frac": (n - ok) / n,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "op_s.p50": f"n={n}",
        "op_s.tail": f"p{TAIL_PERCENTILE}, {above} of n={n} above",
        "failed_frac": f"{n - ok} of n={n} ops failed",
        "ok_frac": f"{ok} of n={n} ops passed the gate",
        "peak_rss_mb": "this process",
    }
    return values, notes


def measure_per_layer(name, seed, op, seconds, tally, per_layer_names, env) -> tuple:
    from tracer import OP_SPAN, Tracer, check_nesting, summarize

    if op.warmup:
        tally.run(op)
    tracer = Tracer()
    untraced, traced, extras = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or not untraced or time.perf_counter() < deadline:
        if len(untraced) <= len(traced):
            untraced.append(tally.run(op)[0])
        else:
            seconds_, extra = tally.run(op, len(traced), tracer)
            traced.append(seconds_)
            extras.append(extra)

    check_nesting(tracer.spans)
    per_op = summarize(tracer.spans, tracer.names)
    for k, (wall, extra) in enumerate(zip(traced, extras)):
        per_op[k].update(extra)
        uncovered = per_op[k][f"{OP_SPAN}.self_s"]
        if uncovered > UNCOVERED_TOL * wall:
            raise RuntimeError(
                f"traced op {k}: library spans leave {uncovered:.6f} s of "
                f"its {wall:.6f} s wall time uncovered"
            )
    names = list(per_layer_names) + list(TRACE_ONLY)
    missing = [m for m in names if m not in per_op[0] and m != "trace.overhead_frac"]
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {missing}")

    values, unrepeated = {}, []
    for metric in names:
        if metric == "trace.overhead_frac":
            base = statistics.median(untraced)
            values[metric] = (statistics.median(traced) - base) / base
        elif metric.endswith("self_s"):
            values[metric] = statistics.median(per_op[k][metric] for k in per_op)
        else:
            seen = {per_op[k][metric] for k in per_op}
            if len(seen) > 1:
                unrepeated.append(f"{metric}: {sorted(seen)}")
            values[metric] = per_op[0][metric]
    for line in unrepeated:
        print(f"count differs across traced ops: {line}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    dump = {"workload": name, "env": env, "untraced_s": untraced, "traced_s": traced}
    dump.update(tracer.dump())
    with gzip.open(OUT / f"trace-{name}-seed{seed}.json.gz", "wt", compresslevel=1) as fh:
        json.dump(dump, fh)
    notes = {m: f"{len(traced)} traced ops" for m in values}
    notes["trace.overhead_frac"] = f"{len(traced)} traced vs {len(untraced)} untraced ops"
    return values, notes, not unrepeated


def run_all(args, spec) -> int:
    """Each workload in its own process (peak RSS is per process); combined last line."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for workload in spec["workloads"]:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{workload['name']}/{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not (SRC / "fracground" / "__init__.py").is_file():
        print(f"error: no fracground sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    plan = json.loads((HERE / "plan.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")

    single_thread_blas()
    sys.path.insert(0, str(SRC))
    import workloads

    first = SEEDS_PER_RUN * args.seed
    program_seeds = [first] if args.trace else list(range(first, first + SEEDS_PER_RUN))
    env = environment(args.seed, program_seeds)
    print(f"{args.workload} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        problem = workloads.setup(args.workload)
        op = workloads.make_op(
            args.workload, problem, program_seeds, plan["references"][args.workload], Path(workdir)
        )
        if args.trace:
            declared = spec["per_layer"]
            values, notes, repeated = measure_per_layer(
                args.workload, args.seed, op, args.seconds, tally,
                [m["name"] for m in declared], env,
            )
        else:
            declared = spec["end_to_end"]
            values, notes = measure_end_to_end(args.workload, op, args.seconds, tally)
            repeated = True

    units = {m["name"]: m["unit"] for m in declared}
    for metric, value in values.items():
        unit = units.get(metric) or UNDECLARED_UNITS[metric]
        print(f"  {metric:<36} {value!r:>24} {unit:<6} ({notes[metric]})")
    result = {
        "correct": tally.failed == 0 and repeated,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
