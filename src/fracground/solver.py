"""Ground-state computation by projected descent on the ray constraint.

Each iterate is kept on the natural constraint set (nehari_value = 0) by a
one-dimensional projection along its own ray.  With Q the pair's quadratic
form and N(t) = int f1(tu) tu + f2(tv) tv, the scale t solves N(t)/t^2 = Q;
N(t)/t^2 is strictly increasing for admissible nonlinearities, so the root
is unique.  Pure powers of one exponent give it in closed form; otherwise a
safeguarded Newton iteration on ln(N(t)/t^2) against ln t finds it in a
few evaluations on the positive samples.  Each evaluation takes f once for
N and NonlinearitySpec.dnq, the closed form of f'(x)x - f(x), once for the
slope int dnq(x) x / N; for log_power with gamma = 1 that closed form needs
no logarithm.  A pure power takes a whole exponent up to 8 by
multiplication.

A pair is one stacked (2, *grid.shape) array (energy.StatePair), so each
pass covers both components in one call: one transform each way (numpy.fft
through grid._rfftn and grid._irfftn), one evaluation of f or dnq per
distinct nonlinearity, one dot product per inner product.
The ground states are positive and f vanishes on t <= 0, so the trials and
a two-level solve's prolonged start are clipped at 0, and only
nehari_project refuses a pair with no positive part (NotInEPlus).  A trial
costs no transform: only a pair carries one (StatePair.spectrum), and the
preconditioned gradient carries the half spectra it was transformed back
from, so a trial state - eta grad carries the state's spectrum minus eta
times the gradient's, unless the clip changed it.  The projection's Q (one
pass of batched Parseval dot products) is kept on the trial and carried
times t^2 onto the projected pair, whose energy reads it, and the projected
pair carries t times the trial's spectrum for its gradient.  An accepted
step costs the 2 transforms of that gradient, and each projection 1
quadratic-form pass.  On a large grid the descent holds one complex
buffer in which each inverse transform runs its complex passes
(grid._irfftn, _WORK_BYTES).  On every grid, a pair positive everywhere
projects, and takes its energy, with no gather (StatePair._positive).
A state is checked for finite values once, where it enters; a trial
that overflows has a non-finite Q, so its projection fails and the line
search backtracks.

The outer iteration steps against the preconditioned gradient, projects
the trial pair and accepts it once its energy is strictly lower,
backtracking otherwise.  The preconditioner inverts, mode by mode, the
coupled linear part with mean weights, [[|xi|^(2 s1) + mean(V1),
-mean(lambda)], [-mean(lambda), |xi|^(2 s2) + mean(V2)]] (the coupled
form of Antoine, Levitt and Tang, J. Comput. Phys. 343, 2017), with its
diagonal shifted by the nonlinearity's least slope c_i = f_i'(min u_i)
at the accepted state (ProblemSpec._shifted_preconditioner).  That is
their nonlinear term in the one form that never over-corrects: f' is
increasing, so f_i'(u_i) >= c_i everywhere.  Each shift is scaled down
until every mode keeps 10% of its diagonal entries and determinant, the
zero mode under its own factor.  Near a constant ground state the
shifted block is nearly the Hessian's linear part, so the slow linear
tail of the unshifted descent disappears.  A shift below 2% of the
lowest nonzero mode's diagonal is not applied: a localized state's least
values lie in its tail, and its descent runs exactly as with the linear
part alone.  The block costs no transform beyond the gradient's own, and
since it sees the coupling, solves near the coupling bound delta -> 1
stay short.  Each line search starts from the short Barzilai-Borwein step
of the last accepted iteration, which tracks the curvature along the
path; the first iteration starts from the step _FIRST_STEP.  In L^2 it
is <s,y>/<y,y> (s the change of the pair, y that of its preconditioned
gradient).  A gradient mixed by a shifted block keeps the residual
spectra it mixed (energy._gradient), and once both gradients of a step
were mixed by shifted blocks the step is measured in the block's own
metric on those spectra (_shifted_bb_step).  Convergence requires both
energy stagnation and a small residual of the gradient preconditioned by
the unshifted block (energy.gradient), which the kept spectra give by
Parseval without a transform, and only where a test reads it.  Near a
minimizer the energy is flat to within its own rounding, so there a
first trial is also accepted when it raises the energy by no more than
that rounding and lowers the residual.

A cold solve (no starting pair given) on n >= 64 points per axis is
nested iteration one level deep, after the cascadic scheme of Bornemann
and Deuflhard (Numer. Math. 75, 1996): it first solves the same problem
on n/2 points in the same box, from the same seeded start, then
zero-pads that state's spectrum onto n and descends from it there.  The
coarse minimizer is nearly the fine one, so most iterations run on a
quarter (in 2-D) of the points, and the level gap |E_n - E_n/2| / |E_n|
is reported as a resolution certificate.  One level only: coarser
grids under-resolve the start and measured slower.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dc_field

import numpy as np

from .energy import (
    EnergyBreakdown,
    StatePair,
    _gradient,
    _mix,
    _nonlinear_pairing,
    _quadratic_parts,
    coupled_quadratic,
    energy,
    l2_norm_pair,
)
from .grid import Field, Grid, _RuleError, _check_which, _check_whole, _irfftn, _is_number, _rfftn
from .model import ProblemSpec, ValidationFailed, gaussian_bump, validate_assumptions

__all__ = [
    "SolverOptions",
    "SolveReport",
    "DiagnosticsReport",
    "NotInEPlus",
    "BracketFailure",
    "nehari_project",
    "default_initial_state",
    "solve_ground_state",
    "solve_scalar_ground_state",
    "solve_with_restarts",
    "mountain_pass_diagnostics",
]

# The first iteration's trial step, and the step where the Barzilai-Borwein
# step is undefined: the preconditioner inverts the linear part (exactly for
# constant weights), so a unit step is the natural first guess.
_FIRST_STEP = 1.0
# Each failed trial multiplies the step by this factor; halving leaves at
# most 47 trials before the step floor below.
_BACKTRACK_FACTOR = 0.5
# Line search gives up once its step has shrunk by this factor from its
# first trial.
_STEP_FLOOR = 1.0e-14
# A Barzilai-Borwein first trial is kept within three decades either side
# of _FIRST_STEP.
_BB_MIN = 1.0e-3
_BB_MAX = 1.0e3
# A solve converges once the last accepted step lowered the energy by less
# than this relative amount and the residual is below tol_residual; it lies
# far above the energy's rounding (_ENERGY_ROUNDING_ULPS), so a converging
# descent reaches it.
_TOL_ENERGY = 1.0e-10
# Energies closer than this many ulps of the energy's largest terms are not
# resolved: the quadratic forms and nonlinear integrals each carry a few
# ulps of rounding, and on the constraint set they cancel to several times
# less than their size.
_ENERGY_ROUNDING_ULPS = 16.0
# A descent whose half spectrum takes at least this many bytes (glibc's
# default mmap threshold) runs every inverse transform's complex passes in
# one buffer it holds.  numpy gives each pass a fresh array: a smaller one
# comes back from the allocator's free lists, and there the buffer's extra
# numpy call costs more than it saves; a larger one is faulted in afresh.
_WORK_BYTES = 1 << 17
# The ray scale is sought in [2^-60, 2^60]; outside it the projection fails.
_MAX_DOUBLINGS = 60
_T_MAX = 2.0**_MAX_DOUBLINGS
_LOG_T_MAX = _MAX_DOUBLINGS * np.log(2.0)
# Newton on the ray stops after a step of at most this relative size (the
# error left after it is of order its square), or fails after so many
# evaluations; bisection alone needs about 36 to cross the whole range.
_NEWTON_RELSTEP = 1.0e-9
_NEWTON_ITERS = 100
# A cold solve starts one grid level down while that level keeps at least
# this many points per axis; coarser levels under-resolve the start they
# hand on.
_COARSE_MIN_N = 32
_NO_ROOT_BELOW = "no sign change along the ray below t = 2^60"
_NO_ROOT_ABOVE = "no sign change along the ray above t = 2^-60"


class NotInEPlus(ValueError):
    """Both components lack a positive part; no ray crosses the manifold."""


class BracketFailure(RuntimeError):
    """Projection could not bracket a sign change along the ray."""


@dataclass(frozen=True)
class SolverOptions:
    """What a caller sets for a solve: ``max_iters``, the outer iteration
    budget (a whole number >= 1); ``tol_residual``, the relative
    preconditioned gradient residual a converged solve stays below
    (positive); and ``seed``, the start's random seed (a whole number
    >= 0).  The line search's constants (first step, backtrack factor,
    Barzilai-Borwein bounds, energy tolerance) live in solver.py."""

    max_iters: int = 5000
    tol_residual: float = 1.0e-8
    seed: int = 0

    def __post_init__(self):
        tol = self.tol_residual
        if not (_is_number(tol, (float, np.floating)) and tol > 0):
            raise _RuleError("tol_residual", f"tol_residual must be positive, got {tol!r}")
        _check_whole(self.max_iters, "max_iters", 1)
        _check_whole(self.seed, "seed", 0)


@dataclass
class SolveReport:
    """Outcome of one ground-state solve.

    ``iterations`` counts the outer iterations; after a coarse level (see
    ``_cold_solve``) it counts those of both levels plus 1 for the step
    between them, and ``t_history`` holds the coarse ray scales followed
    by the fine ones, so it always has iterations + 1 entries.
    ``resolution_gap`` is |E_n - E_n/2| / |E_n| between the fine level and
    the coarse one, or None when no coarse level ran.
    ``gradient_residual`` is |g| / |state| for g the state's gradient
    preconditioned by the unshifted block, energy.gradient(state, problem,
    preconditioned=True), whatever block the descent stepped with.
    """

    state: StatePair
    level: float
    nehari_residual: float
    gradient_residual: float
    iterations: int
    positive_fraction_u: float
    positive_fraction_v: float
    converged: bool
    t_history: list = dc_field(default_factory=list)
    stalled: bool = False
    restarts: int = 1
    resolution_gap: float | None = None

    def summary(self) -> str:
        lines = [
            f"level = {self.level!r}",
            f"nehari_residual = {self.nehari_residual:.6e}",
            f"gradient_residual = {self.gradient_residual:.6e}",
            f"iterations = {self.iterations}",
        ]
        if self.resolution_gap is not None:
            lines.append(f"resolution_gap = {self.resolution_gap:.6e}")
        lines += [
            f"positive_fraction_u = {self.positive_fraction_u:.6f}",
            f"positive_fraction_v = {self.positive_fraction_v:.6f}",
            f"converged = {self.converged}",
            f"stalled = {self.stalled}",
            f"restarts = {self.restarts}",
        ]
        return "\n".join(lines)


def _require_valid(problem: ProblemSpec) -> None:
    report = validate_assumptions(problem)
    if not report.all_passed:
        names = ", ".join(c.name for c in report.failures())
        raise ValidationFailed(f"validation failed: {names}")


def nehari_project(state: StatePair, problem: ProblemSpec) -> tuple:
    """Scale a pair onto the constraint set.

    Returns (t0, scaled_state) with nehari_value(scaled_state) ~ 0.  t0 is
    the unique root of N(t)/t^2 = Q (see the module docstring): in closed
    form when every component with a positive part is a pure power of one
    exponent p, t0 = (Q / int(u+^p + v+^p))^(1/(p-2)); otherwise by
    safeguarded Newton from t = 1.  Raises NotInEPlus without a positive
    part and BracketFailure when Q <= 0 or no root lies in [2^-60, 2^60].
    """
    x, k = state._positive()
    if not x.size:
        raise NotInEPlus("state has no positive part in either component")
    Q = coupled_quadratic(state, problem)
    if not 0.0 < Q < np.inf:
        raise BracketFailure(
            f"coupled quadratic form is {Q:.3g}; no projection exists"
        )
    t0 = _ray_scale(x, k, problem, Q)
    return t0, state.scaled(t0)


def _ray_scale(x: np.ndarray, k: int, problem: ProblemSpec, Q: float) -> float:
    """The root t of N(t)/t^2 = Q > 0 over a pair's positive entries x, not empty.

    f vanishes on t <= 0, so only x (StatePair._positive; its first k
    entries are u's) enters N, and each evaluation takes f and dnq once per
    distinct nonlinearity (ProblemSpec._nonlinearity).  Newton works on
    h(ln t) = ln(N(t) / (t^2 Q)), whose slope is
    t^3 (N/t^2)' / N = int dnq(x) x / int f(x) x  over x = t u, t v, with
    dnq(x) = f'(x) x - f(x) (NonlinearitySpec.dnq):
    for a pure power h is linear, so one step lands on the root.  The
    evaluated points keep a bracket lo < root < hi; a step that leaves it,
    or that h cannot give (N underflows or overflows), goes instead to the
    unevaluated end of the range, or bisects ln t once both ends are known.
    """
    dV = problem.grid.cell_volume
    present = [nl for nl, size in ((problem.nl1, k), (problem.nl2, x.size - k)) if size]
    exponents = {nl.p if nl.kind == "pure_power" else None for nl in present}

    def pairing(name: str, y: np.ndarray) -> float:
        # int nl(y) y over both components, one dot product
        return float(np.vdot(problem._nonlinearity(name, y, k), y))

    if len(exponents) == 1 and None not in exponents:
        p = exponents.pop()
        with np.errstate(over="ignore"):
            S = dV * pairing("f", x)
        # S underflows to 0 (or overflows) only far outside the range; the
        # range is checked on ln t, since t itself may lie beyond the floats
        ratio = Q / S if S > 0.0 else np.inf
        log_t = np.log(ratio) / (p - 2.0) if ratio > 0.0 else -np.inf
        if log_t > _LOG_T_MAX:
            raise BracketFailure(_NO_ROOT_BELOW)
        if log_t < -_LOG_T_MAX:
            raise BracketFailure(_NO_ROOT_ABOVE)
        return ratio ** (1.0 / (p - 2.0))

    def log_ratio(t: float) -> tuple:
        # h = ln(N(t) / (t^2 Q)) and its slope in ln t; the slope is nan
        # where N underflows or overflows and h is -inf or +inf
        y = t * x
        with np.errstate(over="ignore", invalid="ignore"):
            N = pairing("f", y)
            D = pairing("dnq", y)
        ratio = dV * N / Q / t / t
        if ratio == 0.0 or ratio == np.inf:
            return (-np.inf if ratio == 0.0 else np.inf), np.nan
        return float(np.log(ratio)), D / N

    lo, hi = 1.0 / _T_MAX, _T_MAX
    lo_known = hi_known = False
    t = 1.0
    for _ in range(_NEWTON_ITERS):
        h, slope = log_ratio(t)
        if h == 0.0:
            return t
        if h < 0.0:
            if t >= _T_MAX:
                raise BracketFailure(_NO_ROOT_BELOW)
            lo, lo_known = t, True
        else:
            if t <= 1.0 / _T_MAX:
                raise BracketFailure(_NO_ROOT_ABOVE)
            hi, hi_known = t, True
        step = -h / slope if 0.0 < slope < np.inf else np.nan
        t_new = t * np.exp(min(max(step, -200.0), 200.0))  # nan stays nan
        if abs(t_new - t) <= _NEWTON_RELSTEP * t:
            # at the root the bracket may have shrunk below this step
            return float(t_new)
        if not lo < t_new < hi:
            t_new = hi if not hi_known else lo if not lo_known else np.sqrt(lo * hi)
        t = float(t_new)
    raise BracketFailure(f"Newton on the ray did not settle in {_NEWTON_ITERS} steps")


def _jittered_bump(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """A centered unit bump of width L/8, each sample scaled by 1 + 0.05 N(0, 1)."""
    bump = gaussian_bump(grid, 0.125 * grid.box_length)
    return bump * (1.0 + 0.05 * rng.standard_normal(grid.shape))


def default_initial_state(problem: ProblemSpec, rng: np.random.Generator) -> StatePair:
    """Centered unit-amplitude bumps on both components, jittered by the rng."""
    g = problem.grid
    u = _jittered_bump(g, rng)
    v = _jittered_bump(g, rng)
    return StatePair(Field(g, u), Field(g, v))


def _positive_fraction(values: np.ndarray) -> float:
    support = np.abs(values) > 1.0e-12
    if not np.any(support):
        return 1.0
    return float(np.count_nonzero(values[support] > 0.0) / np.count_nonzero(support))


def _finish_report(
    state: StatePair,
    parts: EnergyBreakdown,
    grad: StatePair,
    problem: ProblemSpec,
    iterations: int,
    converged: bool,
    stalled: bool,
    t_history: list,
) -> SolveReport:
    """The report of the accepted pair ``state``, read from its energy
    breakdown ``parts`` and descent gradient ``grad``."""
    Q = parts.quad_u + parts.quad_v - parts.coupling_term
    nres = abs(Q - _nonlinear_pairing(state, problem)) / Q if Q > 0.0 else np.inf
    return SolveReport(
        state=state,
        level=parts.total,
        nehari_residual=nres,
        gradient_residual=_residual(grad, state, problem),
        iterations=iterations,
        positive_fraction_u=_positive_fraction(state.u.values),
        positive_fraction_v=_positive_fraction(state.v.values),
        converged=converged,
        t_history=t_history,
        stalled=stalled,
    )


def solve_ground_state(
    problem: ProblemSpec,
    init: StatePair | None = None,
    opts: SolverOptions | None = None,
) -> SolveReport:
    """Minimize the energy over the constraint set from one starting pair.

    Without ``init`` the solve is cold: it starts from
    ``default_initial_state`` and, on grids of 64 points per axis or more,
    first solves the same problem on half as many (see ``_cold_solve``).
    A given ``init`` is descended from on this grid alone.
    """
    opts = opts or SolverOptions()
    _require_valid(problem)
    if init is not None:
        return _descend(problem, init, opts, opts.max_iters)
    return _cold_solve(
        problem,
        opts,
        default_initial_state,
        lambda init, max_iters: _descend(problem, init, opts, max_iters),
    )


def _cold_solve(problem: ProblemSpec, opts: SolverOptions, start, finish) -> SolveReport:
    """A solve from ``start(problem, rng)``, drawn with the seed's generator;
    ``finish(init, max_iters)`` descends from ``init`` on the problem's grid.

    With n points per axis, n/2 >= _COARSE_MIN_N and max_iters >= 3, the
    start is drawn on the coarse problem (n/2 points, same box) instead and
    descended from there with max_iters - 2 iterations at most.  Its state is
    prolonged onto n (``_prolong``), clipped at 0 where it dips below, and
    finished with what the coarse level left.  The report counts the
    iterations of both levels plus 1 for the step between them, lists both
    levels' ray scales, and gives |E_n - E_n/2| / |E_n| as resolution_gap.
    """
    g = problem.grid
    rng = np.random.default_rng(opts.seed)
    if g.n_per_axis // 2 < _COARSE_MIN_N or opts.max_iters < 3:
        return finish(start(problem, rng), opts.max_iters)
    coarse_problem = problem._coarse
    coarse = _descend(coarse_problem, start(coarse_problem, rng), opts, opts.max_iters - 2)

    values = _prolong(coarse.state, g)
    np.maximum(values, 0.0, out=values)
    fine = finish(StatePair._stacked(g, values), opts.max_iters - coarse.iterations - 1)
    return dataclasses.replace(
        fine,
        iterations=coarse.iterations + 1 + fine.iterations,
        t_history=coarse.t_history + fine.t_history,
        resolution_gap=abs(fine.level - coarse.level) / abs(fine.level),
    )


def _prolong(coarse: StatePair, grid: Grid) -> np.ndarray:
    """The trigonometric interpolant of both rows of a coarse pair at once,
    sampled on ``grid``, which has twice as many points per axis on the
    same box.

    The coarse half spectrum is zero-padded and scaled by the ratio of the
    point counts.  Each coarse Nyquist coefficient is split evenly between
    the modes +n_c/2 and -n_c/2 (on the halved last axis, -n_c/2 is the
    conjugate partner that irfftn supplies), so the interpolant takes the
    coarse samples exactly at the shared points and keeps the mean.
    """
    nc, n, dim = coarse.grid.n_per_axis, grid.n_per_axis, grid.dim
    h = nc // 2
    spec = coarse.spectrum
    # the grid axes follow the pair's axis of rows
    for axis in range(1, dim + 1):
        last = axis == dim
        src = np.moveaxis(spec, axis, 0)
        out = np.zeros((n // 2 + 1 if last else n,) + src.shape[1:], dtype=complex)
        out[:h] = src[:h]
        out[h] = 0.5 * src[h]
        if not last:
            out[n - h] = 0.5 * src[h]
            out[n - h + 1:] = src[h + 1:]
        spec = np.moveaxis(out, 0, axis)
    return _irfftn(spec * (n / nc) ** dim, grid)


def _descend(
    problem: ProblemSpec, init: StatePair, opts: SolverOptions, max_iters: int
) -> SolveReport:
    """Projected descent from ``init`` on the problem's own grid, with at
    most ``max_iters`` outer iterations; the problem is taken as validated.
    An ``init`` without a positive part raises NotInEPlus (nehari_project)."""
    t0, state = nehari_project(init, problem)
    t_history = [t0]
    parts = energy(state, problem)
    E = parts.total
    spectrum = state.spectrum
    work = np.empty_like(spectrum) if spectrum.nbytes >= _WORK_BYTES else None
    grad = _descent_gradient(state, problem, work)
    # s and y of the Barzilai-Borwein step, written in place each iteration
    steps = np.empty((2,) + state.values.shape)
    last_decrease = np.inf
    eta0 = _FIRST_STEP
    converged = False
    stalled = False
    iterations = 0

    for _ in range(max_iters):
        if last_decrease < _TOL_ENERGY and _residual(grad, state, problem) < opts.tol_residual:
            converged = True
            break

        eta = eta0
        accepted = False
        cand_grad = None
        while eta >= _STEP_FLOOR * eta0:
            try:
                # an overflowing trial has a non-finite Q, so its projection
                # fails and the step shrinks, without a warning
                with np.errstate(over="ignore", invalid="ignore"):
                    pair = _trial(state, grad, eta)
                    t0, cand = nehari_project(pair, problem)
            except (NotInEPlus, BracketFailure):
                eta *= _BACKTRACK_FACTOR
                continue
            trial = energy(cand, problem)
            Ec = trial.total
            if Ec < E:
                accepted = True
                break
            if eta == eta0 and Ec <= E + _energy_rounding(trial):
                # the energy cannot resolve this step; the residual can
                cand_grad = _descent_gradient(cand, problem, work)
                if _residual(cand_grad, cand, problem) < _residual(grad, state, problem):
                    accepted = True
                    break
                cand_grad = None
            eta *= _BACKTRACK_FACTOR

        if not accepted:
            # No step lowers the energy, nor the first trial the residual;
            # the energy is stationary to machine precision, so the
            # residual alone decides.
            if _residual(grad, state, problem) < opts.tol_residual:
                converged = True
            else:
                stalled = True
            break

        last_decrease = (E - Ec) / max(abs(E), abs(Ec), 1.0e-300)
        if cand_grad is None:
            cand_grad = _descent_gradient(cand, problem, work)
        if grad._unmixed is None or cand_grad._unmixed is None:
            np.subtract(cand.values, state.values, out=steps[0])
            np.subtract(cand_grad.values, grad.values, out=steps[1])
            eta0 = _bb_step(steps[0], steps[1])
        else:
            eta0 = _shifted_bb_step(state, grad, cand, cand_grad)
        state, parts, E, grad = cand, trial, Ec, cand_grad
        iterations += 1
        t_history.append(t0)

    return _finish_report(state, parts, grad, problem, iterations, converged, stalled, t_history)


def _trial(state: StatePair, grad: StatePair, eta: float) -> StatePair:
    """The trial pair state - eta grad, clipped at 0, which keeps the
    trials where f vanishes out of the nonlinear terms.  The pass that
    decides the clip takes each row's least value, which the trial keeps
    (StatePair._row_min; 0 where the clip acted).  A trial the clip leaves
    alone carries the state's spectrum minus eta times the gradient's, so
    it takes no transform; a trial the clip changes carries none, and its
    projection takes it over both rows in one call."""
    values = eta * grad.values
    np.subtract(state.values, values, out=values)
    low = values.reshape(2, -1).min(axis=1)
    if low.min() < 0.0:
        np.maximum(values, 0.0, out=values)
        np.maximum(low, 0.0, out=low)
        spectrum = None
    else:
        spectrum = eta * grad.spectrum
        np.subtract(state.spectrum, spectrum, out=spectrum)
    return StatePair._stacked(state.grid, values, spectrum, tuple(low.tolist()))


def _descent_gradient(state: StatePair, problem: ProblemSpec, work=None) -> StatePair:
    """The state's gradient preconditioned by the block shifted by the
    nonlinearity's slope at the least value of each row
    (ProblemSpec._shifted_preconditioner), refreshed at every state the
    descent accepts.  Mixed by a shifted block, the pair keeps the residual
    spectra it mixed as ``_unmixed`` (energy._gradient).  ``work`` holds the
    inverse transform's complex passes (grid._irfftn)."""
    return _gradient(state, problem, problem._shifted_preconditioner(*state._row_min), work)


def _residual(grad: StatePair, state: StatePair, problem: ProblemSpec) -> float:
    """Relative size of the state's gradient preconditioned by the unshifted
    block (energy.gradient with preconditioned=True), taken on first use and
    kept on the state's descent gradient ``grad``.

    Where the descent's block was the unshifted one, that is |grad| /
    |state|.  Otherwise grad's kept residual spectra (``_unmixed``) are
    mixed by the unshifted block, and the norm follows by Parseval from the
    half spectrum, with no transform.  The cache pays: a solve-log2d solve
    reads the residual 5 times and computes it 3 times.
    """
    cached = grad.__dict__.get("_residual")
    if cached is not None:
        return cached
    if grad._unmixed is None:
        norm = l2_norm_pair(grad)
    else:
        plain = _mix(problem._preconditioner, grad._unmixed.copy())
        norm = float(np.sqrt(_spectral_dot(plain, plain, state.grid)))
    grad.__dict__["_residual"] = out = norm / l2_norm_pair(state)
    return out


def _spectral_dot(a: np.ndarray, b: np.ndarray, grid: Grid) -> float:
    """The L^2 x L^2 inner product of the real pairs whose half spectra
    (``rfftn`` over the grid axes) are a and b, by Parseval: the last axis's
    modes other than 0 and n/2 stand for conjugate pairs and count twice."""
    x, y = a.view(np.float64), b.view(np.float64)  # real, imaginary interleaved
    edges = np.vdot(x[..., :2], y[..., :2]) + np.vdot(x[..., -2:], y[..., -2:])
    return float(grid.cell_volume / grid.npoints * (2.0 * np.vdot(x, y) - edges))


def _bb_step(s: np.ndarray, y: np.ndarray) -> float:
    """First trial step of the next line search: the short Barzilai-Borwein
    step <s,y>/<y,y>, with s the change of the accepted pair and y that of
    its preconditioned gradient (stacked (2, ...) arrays, so the inner
    products run over both components), kept within [_BB_MIN, _BB_MAX].
    Without positive curvature along s (<s,y> <= 0 or y = 0) it is
    _FIRST_STEP."""
    return _bb_ratio(float(np.vdot(s, y)), float(np.vdot(y, y)))


def _shifted_bb_step(
    state: StatePair, grad: StatePair, cand: StatePair, cand_grad: StatePair
) -> float:
    """``_bb_step`` after a step where both gradients' blocks were shifted:
    <s,r>/<g,r> with s the change of the pair, g that of its descent
    gradient and r that of the residual spectra each gradient kept
    (``_unmixed``).  With one fixed block P this is the short step
    <s,r>/<r,Pr> in P's own metric; measured in L^2 instead, as
    ``_bb_step`` is, the change of the gradient along modes that a nearly
    singular shifted block amplifies dominates <y,y> and shrinks the step to
    a crawl.  The inner products are taken on the carried spectra
    (``_spectral_dot``), with no transform."""
    g = state.grid
    r = cand_grad._unmixed - grad._unmixed
    sr = _spectral_dot(cand.spectrum - state.spectrum, r, g)
    return _bb_ratio(sr, _spectral_dot(cand_grad.spectrum - grad.spectrum, r, g))


def _bb_ratio(sy: float, yy: float) -> float:
    """sy / yy kept within [_BB_MIN, _BB_MAX], or _FIRST_STEP unless both are
    positive."""
    if not (sy > 0.0 and yy > 0.0):
        return _FIRST_STEP
    return min(max(sy / yy, _BB_MIN), _BB_MAX)


def _energy_rounding(parts: EnergyBreakdown) -> float:
    scale = 0.5 * (abs(parts.quad_u) + abs(parts.quad_v) + abs(parts.coupling_term))
    scale += abs(parts.F1_integral) + abs(parts.F2_integral)
    return _ENERGY_ROUNDING_ULPS * np.finfo(float).eps * scale


def solve_scalar_ground_state(
    which: int,
    problem: ProblemSpec,
    opts: SolverOptions | None = None,
) -> SolveReport:
    """Ground state of one component alone (coupling off, other component 0).

    The solve is cold and starts from one jittered bump, the first
    component of ``default_initial_state`` for the same seed, with the
    other component 0.  Like a cold ``solve_ground_state`` it starts one
    grid level down when the grid allows (see ``_cold_solve``); the fine
    level is then a ``solve_ground_state`` from the prolonged pair, whose
    report the returned one extends by the coarse level.
    """
    _check_which(which, "which")
    opts = opts or SolverOptions()
    problem0 = problem.with_coupling_scale(0.0)
    _require_valid(problem0)

    def start(p: ProblemSpec, rng: np.random.Generator) -> StatePair:
        g = p.grid
        active = Field(g, _jittered_bump(g, rng))
        zero = Field(g, np.zeros(g.shape))
        return StatePair(active, zero) if which == 1 else StatePair(zero, active)

    def finish(init: StatePair, max_iters: int) -> SolveReport:
        return solve_ground_state(
            problem0, init=init, opts=dataclasses.replace(opts, max_iters=max_iters)
        )

    return _cold_solve(problem0, opts, start, finish)


def solve_with_restarts(
    problem: ProblemSpec,
    opts: SolverOptions | None = None,
    restarts: int = 1,
) -> SolveReport:
    """Run several seeds and keep the lowest converged level."""
    return _best_of(
        lambda o: solve_ground_state(problem, opts=o), opts or SolverOptions(), restarts
    )


def _best_of(solve, opts: SolverOptions, restarts: int) -> SolveReport:
    """Call solve(options) with seeds opts.seed + k for k < restarts; keep
    the first report with the lowest converged level (any converged one
    beats every unconverged one)."""
    _check_whole(restarts, "restarts", 1)
    best = None
    for k in range(restarts):
        rep = solve(dataclasses.replace(opts, seed=opts.seed + k))
        if best is None or (rep.converged, -rep.level) > (best.converged, -best.level):
            best = rep
    return dataclasses.replace(best, restarts=restarts)


def _smooth_random_field(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """Band-limited noise: white samples filtered by a Gaussian in frequency."""
    noise = rng.standard_normal(grid.shape)
    scale = (grid.box_length / 16.0) ** 2
    filt = np.exp(-scale * grid.sq_wavenumber())
    return _irfftn(filt * _rfftn(noise, grid), grid)


@dataclass
class DiagnosticsReport:
    """Sampled mountain-pass geometry along spheres and one ray."""

    radii: np.ndarray
    min_energy_per_radius: np.ndarray
    small_sphere_witnessed: bool
    witness_radius: float | None
    negative_ray_witnessed: bool
    t_negative: float | None
    ray_max: float
    ray_argmax: float
    level_consistent: bool | None
    level_gap: float | None

    @property
    def geometry_witnessed(self) -> bool:
        return self.small_sphere_witnessed and self.negative_ray_witnessed

    def summary(self) -> str:
        lines = ["radius   min energy over directions"]
        for r, e in zip(self.radii, self.min_energy_per_radius):
            lines.append(f"{r:9.3e}  {e: .6e}")
        lines.append(f"small_sphere_witnessed = {self.small_sphere_witnessed}"
                     f" (radius {self.witness_radius})")
        lines.append(f"negative_ray_witnessed = {self.negative_ray_witnessed}"
                     f" (t {self.t_negative})")
        lines.append(f"ray_max = {self.ray_max!r} at t = {self.ray_argmax!r}")
        if self.level_consistent is not None:
            lines.append(f"level_consistent = {self.level_consistent}"
                         f" (gap {self.level_gap:.3e})")
        return "\n".join(lines)


def mountain_pass_diagnostics(
    problem: ProblemSpec,
    probe: StatePair,
    opts: SolverOptions | None = None,
    reference_level: float | None = None,
) -> DiagnosticsReport:
    """Witness the two geometric conditions by sampling.

    (a) On spheres of several radii in the product norm the energy should be
    strictly positive for small radius; (b) along the probe ray the energy
    should turn negative for large t.  The ray maximum (the projected
    energy) upper-bounds the min-max level along this ray; at a converged
    ground state it reproduces the level with t close to 1.
    """
    opts = opts or SolverOptions()
    _require_valid(problem)
    t0, projected = nehari_project(probe, problem)
    g = problem.grid
    rng = np.random.default_rng(opts.seed)

    directions = []
    for _ in range(32):
        du = _smooth_random_field(g, rng)
        dv = _smooth_random_field(g, rng)
        pair = StatePair(Field(g, du), Field(g, dv))
        quad_u, quad_v, _ = _quadratic_parts(pair, problem)
        norm = np.sqrt(quad_u + quad_v)
        directions.append(pair.scaled(1.0 / norm))

    radii = np.geomspace(1.0e-4, 1.0, 9)
    mins = np.empty_like(radii)
    for i, rho in enumerate(radii):
        mins[i] = min(
            energy(d.scaled(rho), problem).total for d in directions
        )
    witnessed = bool(np.any(mins > 0.0))
    witness_radius = float(radii[np.argmax(mins > 0.0)]) if witnessed else None

    t = 1.0
    t_negative = None
    for _ in range(_MAX_DOUBLINGS + 1):
        if energy(probe.scaled(t), problem).total < 0.0:
            t_negative = t
            break
        t *= 2.0

    ray_max = energy(projected, problem).total
    level_consistent = None
    level_gap = None
    if reference_level is not None:
        level_gap = ray_max - reference_level
        level_consistent = bool(
            ray_max >= reference_level - max(1.0e-8, 1.0e-8 * abs(reference_level))
        )

    return DiagnosticsReport(
        radii=radii,
        min_energy_per_radius=mins,
        small_sphere_witnessed=witnessed,
        witness_radius=witness_radius,
        negative_ray_witnessed=t_negative is not None,
        t_negative=t_negative,
        ray_max=ray_max,
        ray_argmax=t0,
        level_consistent=level_consistent,
        level_gap=level_gap,
    )
