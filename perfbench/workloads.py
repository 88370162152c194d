"""The benchmark's workloads: problem set-up, one op each, and its correctness gate.

An op is one ``solve_ground_state`` call (``solve-log2d``, ``solve-power3d``)
or one in-process ``fracground.cli.run(["sweep", ...])`` call
(``sweep-cli``).  Seeds reach the program only as ``SolverOptions.seed``
(the CLI's ``--seed``), which jitters the initial state; the problems
themselves are fixed.  An op object cycles through the program seeds it
is given, one per op.  Library entry points are looked
up on their modules at call time so that the tracer's wrappers see them.

``fracground`` must be importable before this module is imported.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import shutil
from pathlib import Path

from fracground import (
    NonlinearitySpec,
    ProblemSpec,
    ScalarFunctionSpec,
    SolverOptions,
    make_grid,
)

MAX_ITERS = 6000
# The ROADMAP's agreement bound for levels, and the bound on the relative
# ray-constraint residual of a converged solve.
REL_TOL = 1.0e-10
RESIDUAL_TOL = 1.0e-10
# SolverOptions.tol_residual of a workload's solves, where it departs from
# the solver's default of 1e-8.  On solve-power3d the energy-decrease line
# search stops resolving progress once the gradient residual is near 1e-8:
# about a third of seeds end there at 1.3e-8 to 4.4e-8 as stalled, not
# converged, after twice the time of a converging solve.  At 1e-7 every
# seed tried converges, after 28-29 iterations.
TOL_RESIDUAL = {"solve-power3d": 1.0e-7}

SWEEP_CONFIG = """\
# criterion-08 problem: the second component pays the higher potential
dim = 2
n = 64
L = 8.0
s1 = 0.5
s2 = 0.5
V1.kind = constant
V1.base = 1.0
V2.kind = constant
V2.base = 1.5
coupling.kind = constant
coupling.base = 1.0
nl1.kind = log_power
nl1.gamma = 1.0
nl2.kind = log_power
nl2.gamma = 1.0
solver.max_iters = {max_iters}
sweep.scales = {scales}
"""


def _constant(value: float) -> ScalarFunctionSpec:
    return ScalarFunctionSpec(kind="constant", base_constant=value)


def _coupled_problem(dim, n, s, nl) -> ProblemSpec:
    return ProblemSpec(
        grid=make_grid(dim, n, 8.0),
        s1=s,
        s2=s,
        V1=_constant(1.0),
        V2=_constant(1.5),
        coupling=_constant(0.5),
        nl1=nl,
        nl2=nl,
    )


def sweep_config_text() -> str:
    # Scale d * sqrt(1.5) makes the relative coupling size
    # |lambda| / sqrt(V1 V2) = d * sqrt(1.5) * 1.0 / sqrt(1.5) equal to d.
    scales = ",".join(repr(d * math.sqrt(1.5)) for d in (0.2, 0.4, 0.6, 0.8))
    return SWEEP_CONFIG.format(max_iters=MAX_ITERS, scales=scales)


def build_problem(name: str) -> ProblemSpec:
    if name == "solve-log2d":
        return _coupled_problem(2, 64, 0.5, NonlinearitySpec(kind="log_power", gamma=1.0))
    if name == "solve-power3d":
        return _coupled_problem(3, 32, 0.8, NonlinearitySpec(kind="pure_power", p=4.0))
    if name == "sweep-cli":
        cli = importlib.import_module("fracground.cli")
        return cli.parse_config(sweep_config_text()).problem
    raise ValueError(f"unknown workload {name!r}")


def setup(name: str) -> ProblemSpec:
    """Build the workload's problem and pass validation once.

    This is what ``setup_s`` times in a fresh process; it also fills the
    grid's and the problem's cached fields.
    """
    problem = build_problem(name)
    model = importlib.import_module("fracground.model")
    report = model.validate_assumptions(problem)
    if not report.all_passed:
        raise RuntimeError(f"{name}: problem fails validation\n{report.render()}")
    return problem


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _level_problems(label, values, references) -> list:
    if len(values) != len(references):
        return [f"{label}: {len(values)} levels, expected {len(references)}"]
    return [
        f"{label}[{k}] = {v!r} differs from {r!r} by {_rel_err(v, r):.3g} relative"
        for k, (v, r) in enumerate(zip(values, references))
        if not _rel_err(v, r) <= REL_TOL
    ]


class SolveOp:
    """One cold solve of a fixed problem; the level is checked against its reference."""

    warmup = True

    def __init__(self, problem: ProblemSpec, seeds, reference: dict, tol_residual: float):
        self.problem = problem
        self.opts = [
            SolverOptions(max_iters=MAX_ITERS, seed=s, tol_residual=tol_residual) for s in seeds
        ]
        self.level = reference["level"]
        self._runs = 0

    def run(self):
        opts = self.opts[self._runs % len(self.opts)]
        self._runs += 1
        solver = importlib.import_module("fracground.solver")
        return opts.seed, solver.solve_ground_state(self.problem, opts=opts)

    def check(self, result) -> tuple:
        seed, report = result
        problems = []
        if not report.converged:
            problems.append(
                f"did not converge after {report.iterations} iterations "
                f"(stalled={report.stalled}, gradient residual {report.gradient_residual:.3g})"
            )
        if not report.nehari_residual <= RESIDUAL_TOL:
            problems.append(f"nehari_residual {report.nehari_residual:.3g} > {RESIDUAL_TOL}")
        problems += _level_problems("level", [report.level], [self.level])
        return [f"seed {seed}: {p}" for p in problems], {}


class SweepOp:
    """One ``fracground sweep`` run in process, stdout captured.

    Its checks read what a user reads: the exit code, ``sweep.csv`` and the
    scalar levels printed by the command.  No warm-up op: every op parses
    the config again and so builds a fresh grid and problem.
    """

    warmup = False

    def __init__(self, seeds, reference: dict, workdir: Path):
        self.seeds = list(seeds)
        self.workdir = workdir
        self.config = workdir / "sweep.cfg"
        self.config.write_text(sweep_config_text(), encoding="ascii")
        self.csv_levels = reference["csv_levels"]
        self.scalar_levels = reference["scalar_levels"]
        self._runs = 0

    def run(self):
        out = self.workdir / f"out-{self._runs}"
        seed = self.seeds[self._runs % len(self.seeds)]
        self._runs += 1
        argv = ["sweep", "--config", str(self.config), "--out", str(out), "--seed", str(seed)]
        cli = importlib.import_module("fracground.cli")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.run(argv)
        return seed, code, stdout.getvalue(), out

    def check(self, result) -> tuple:
        seed, code, text, out = result
        try:
            if code != 0:
                return [f"seed {seed}: exit code {code}"], {}
            written = sum(p.stat().st_size for p in out.iterdir())
            problems = self._check_outputs(text, out / "sweep.csv")
            return [f"seed {seed}: {p}" for p in problems], {"cli.bytes_written": written}
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_outputs(self, text: str, csv_path: Path) -> list:
        lines = csv_path.read_text(encoding="ascii").splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        levels = [float(r["level"]) for r in rows]
        problems = []
        for r in rows:
            if r["converged"] != "true":
                problems.append(f"scale {r['scale']}: not converged")
            if not float(r["residual"]) <= RESIDUAL_TOL:
                problems.append(f"scale {r['scale']}: residual {r['residual']} > {RESIDUAL_TOL}")
        if not all(b < a for a, b in zip(levels, levels[1:])):
            problems.append(f"levels not strictly decreasing: {levels}")
        problems += _level_problems("csv level", levels, self.csv_levels)
        scalar = [
            float(v)
            for line in text.splitlines()
            if line.startswith("scalar_levels = ")
            for v in line.partition("=")[2].split(",")
        ]
        problems += _level_problems("scalar level", scalar, self.scalar_levels)
        return problems


def make_op(name: str, problem: ProblemSpec, seeds, reference: dict, workdir: Path):
    if name == "sweep-cli":
        return SweepOp(seeds, reference, workdir)
    tol = TOL_RESIDUAL.get(name, SolverOptions.tol_residual)
    return SolveOp(problem, seeds, reference, tol)
