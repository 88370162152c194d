"""Parameter studies: coupling sweeps, periodic comparison, decoupling limit.

These drive the single-problem solver across families of problems and
summarize the levels.  CSV output uses 17 significant digits so values
round-trip through text exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import StatePair
from .grid import Field, lp_norm, integrate
from .model import ProblemSpec, _perturbation_sign
from .solver import (
    SolveReport,
    SolverOptions,
    solve_ground_state,
    solve_scalar_ground_state,
    solve_with_restarts,
)

__all__ = [
    "SweepRow",
    "SweepReport",
    "CompareReport",
    "LimitReport",
    "PerturbationSignViolation",
    "lambda_sweep",
    "compare_periodic_limit",
    "decoupling_limit",
    "write_sweep_csv",
    "render_rows_csv",
]

CSV_HEADER = "scale,level,residual,u_mass,v_mass,converged"

# Scalar levels closer than this are treated as a tie in the decoupling
# limit; the surviving component is then not asserted.
TIE_TOLERANCE = 1.0e-6
# Warm-started and cold-started levels at the smallest scale differing by
# more than this flag a possible branch switch.
BRANCH_TOLERANCE = 1.0e-6


class PerturbationSignViolation(ValueError):
    """A declared perturbation orders the weights the wrong way somewhere."""


@dataclass(frozen=True)
class SweepRow:
    lambda_scale: float
    level: float
    nehari_residual: float
    u_mass: float
    v_mass: float
    converged: bool


@dataclass(frozen=True)
class SweepReport:
    rows: tuple
    monotone_decreasing: bool
    limit_level: float
    scalar_levels: tuple


@dataclass(frozen=True)
class CompareReport:
    level_periodic: float
    level_perturbed: float
    margin: float
    ordering_holds: bool
    converged_periodic: bool
    converged_perturbed: bool
    restarts: int

    @property
    def gap(self) -> float:
        return self.level_periodic - self.level_perturbed


@dataclass(frozen=True)
class LimitReport:
    rows: tuple
    scalar_levels: tuple
    tie: bool
    survivor: int | None
    vanishing_mass_ratio: float | None
    survivor_distance: float | None
    level_gaps: tuple
    branch_discrepancy: float
    branch_switch_flagged: bool
    mass_bounded: bool


def _masses(report: SolveReport) -> tuple:
    u, v = report.state.u, report.state.v
    return (
        integrate(Field(u.grid, u.values**2)),
        integrate(Field(v.grid, v.values**2)),
    )


def _row(scale: float, report: SolveReport) -> SweepRow:
    u_mass, v_mass = _masses(report)
    return SweepRow(
        lambda_scale=scale,
        level=report.level,
        nehari_residual=report.nehari_residual,
        u_mass=u_mass,
        v_mass=v_mass,
        converged=report.converged,
    )


def _scalar_levels(problem: ProblemSpec, opts: SolverOptions) -> tuple:
    c1 = solve_scalar_ground_state(1, problem, opts=opts)
    c2 = solve_scalar_ground_state(2, problem, opts=opts)
    return (c1, c2)


def lambda_sweep(
    problem: ProblemSpec,
    scales,
    opts: SolverOptions | None = None,
) -> SweepReport:
    """Solve across coupling scales, warm-starting from stronger coupling.

    Scales must be strictly increasing and non-negative; each scaled
    coupling must keep the relative size below 1.  Solving proceeds in
    descending order so each solve starts from the previous branch.
    """
    opts = opts or SolverOptions()
    scales = [float(s) for s in scales]
    if len(scales) == 0:
        raise ValueError("need at least one scale")
    if any(s < 0.0 for s in scales):
        raise ValueError("scales must be non-negative")
    if any(b <= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly increasing")
    for s in scales:
        d = problem.with_coupling_scale(s).delta_eff
        if d >= 1.0:
            raise ValueError(
                f"scale {s} pushes the relative coupling size to {d:.6g} >= 1"
            )

    rep1, rep2 = _scalar_levels(problem, opts)

    rows_desc = []
    warm: StatePair | None = None
    for s in reversed(scales):
        scaled = problem.with_coupling_scale(s)
        report = solve_ground_state(scaled, init=warm, opts=opts)
        warm = report.state
        rows_desc.append(_row(s, report))
    rows = tuple(reversed(rows_desc))

    conv_levels = [r.level for r in rows if r.converged]
    monotone = all(b < a for a, b in zip(conv_levels, conv_levels[1:]))
    return SweepReport(
        rows=rows,
        monotone_decreasing=monotone,
        limit_level=min(rep1.level, rep2.level),
        scalar_levels=(rep1.level, rep2.level),
    )


def compare_periodic_limit(
    problem: ProblemSpec,
    opts: SolverOptions | None = None,
    restarts: int = 1,
) -> CompareReport:
    """Ground-state level of the perturbed system vs its periodic reference.

    Lowered potentials and raised coupling must push the level strictly
    down; ordering_holds records whether the computed gap clears a margin
    of max(1e-8, 1e-4 * periodic level).
    """
    opts = opts or SolverOptions()
    for name, spec, lowers in (
        ("V1", problem.V1, True),
        ("V2", problem.V2, True),
        ("coupling", problem.coupling, False),
    ):
        _, wrong_way, detail = _perturbation_sign(spec, problem.grid, lowers)
        if wrong_way:
            raise PerturbationSignViolation(f"{name}: {detail}")
    periodic = solve_with_restarts(
        problem.with_periodic_reference(True), opts=opts, restarts=restarts
    )
    perturbed = solve_with_restarts(
        problem.with_periodic_reference(False), opts=opts, restarts=restarts
    )
    margin = max(1.0e-8, 1.0e-4 * abs(periodic.level))
    return CompareReport(
        level_periodic=periodic.level,
        level_perturbed=perturbed.level,
        margin=margin,
        ordering_holds=bool(perturbed.level < periodic.level - margin),
        converged_periodic=periodic.converged,
        converged_perturbed=perturbed.converged,
        restarts=restarts,
    )


def decoupling_limit(
    problem: ProblemSpec,
    scales,
    opts: SolverOptions | None = None,
) -> LimitReport:
    """Degeneration along a coupling sequence decreasing to zero.

    Tracks levels and component masses down the sequence (warm-started),
    compares against the two scalar levels, and cross-checks the smallest
    scale with a cold start to expose branch switching.
    """
    opts = opts or SolverOptions()
    scales = [float(s) for s in scales]
    if len(scales) == 0:
        raise ValueError("need at least one scale")
    if any(s <= 0.0 for s in scales):
        raise ValueError("scales must be strictly positive")
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly decreasing")

    rep1, rep2 = _scalar_levels(problem, opts)
    c1, c2 = rep1.level, rep2.level
    tie = abs(c1 - c2) < TIE_TOLERANCE
    survivor = None if tie else (1 if c1 < c2 else 2)

    rows = []
    reports = []
    warm: StatePair | None = None
    for s in scales:
        scaled = problem.with_coupling_scale(s)
        report = solve_ground_state(scaled, init=warm, opts=opts)
        warm = report.state
        rows.append(_row(s, report))
        reports.append(report)

    cold = solve_ground_state(problem.with_coupling_scale(scales[-1]), opts=opts)
    branch_discrepancy = abs(cold.level - rows[-1].level)

    last = rows[-1]
    vanishing = None
    distance = None
    if survivor is not None:
        if survivor == 1:
            vanishing = last.v_mass / last.u_mass if last.u_mass > 0 else np.inf
            scalar_field = rep1.state.u
            final_field = reports[-1].state.u
        else:
            vanishing = last.u_mass / last.v_mass if last.v_mass > 0 else np.inf
            scalar_field = rep2.state.v
            final_field = reports[-1].state.v
        diff = Field(scalar_field.grid, final_field.values - scalar_field.values)
        distance = lp_norm(diff, 2.0) / lp_norm(scalar_field, 2.0)

    c_min = min(c1, c2)
    gaps = tuple(abs(r.level - c_min) for r in rows)
    total0 = rows[0].u_mass + rows[0].v_mass
    mass_bounded = all(r.u_mass + r.v_mass <= 10.0 * total0 for r in rows)

    return LimitReport(
        rows=tuple(rows),
        scalar_levels=(c1, c2),
        tie=tie,
        survivor=survivor,
        vanishing_mass_ratio=vanishing,
        survivor_distance=distance,
        level_gaps=gaps,
        branch_discrepancy=branch_discrepancy,
        branch_switch_flagged=bool(branch_discrepancy > BRANCH_TOLERANCE),
        mass_bounded=mass_bounded,
    )


def render_rows_csv(rows) -> str:
    """CSV text for sweep-style rows; floats carry 17 significant digits."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.lambda_scale:.17g},{r.level:.17g},{r.nehari_residual:.17g},"
            f"{r.u_mass:.17g},{r.v_mass:.17g},{str(r.converged).lower()}"
        )
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(render_rows_csv(rows))
