"""Constraint projection, the descent solver, and geometry diagnostics."""

import dataclasses
import sys

import numpy as np
import pytest

from fracground import (
    BracketFailure,
    Field,
    Grid,
    NonlinearitySpec,
    NotInEPlus,
    SolverOptions,
    StatePair,
    ValidationFailed,
    coupled_quadratic,
    energy,
    gradient,
    integrate,
    l2_norm_pair,
    make_grid,
    mountain_pass_diagnostics,
    nehari_project,
    nehari_value,
    solve_ground_state,
    solve_scalar_ground_state,
    solve_with_restarts,
    validate_assumptions,
)
from fracground import solver
from helpers import constant_problem, count_ladder_evaluations, smooth_pair
from test_acceptance import perturbed_problem


FAST = SolverOptions(max_iters=4000)


# ---------------------------------------------------------------------------
# projection onto the constraint set


def test_projection_zeroes_the_constraint():
    prob = constant_problem()
    for seed in range(5):
        state = smooth_pair(prob, seed)
        t0, proj = nehari_project(state, prob)
        assert t0 > 0.0
        q = coupled_quadratic(proj, prob)
        assert abs(nehari_value(proj, prob)) <= 1e-10 * q


def test_projection_is_ray_maximum():
    prob = constant_problem()
    state = smooth_pair(prob, 1)
    _, proj = nehari_project(state, prob)
    ref = energy(proj, prob).total
    for t in np.concatenate([np.linspace(0.1, 0.997, 12), np.linspace(1.003, 10.0, 12)]):
        assert energy(proj.scaled(t), prob).total < ref


def test_projection_idempotent():
    prob = constant_problem()
    state = smooth_pair(prob, 2)
    _, proj = nehari_project(state, prob)
    t1, again = nehari_project(proj, prob)
    assert t1 == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(again.u.values, proj.u.values, rtol=0, atol=1e-10)


def test_projection_closed_form_quartic():
    # for the quartic nonlinearity the projected scale solves
    # t^2 = Q / int((u+)^4 + (v+)^4) in closed form
    prob = constant_problem(nl_kind="pure_power", p=4.0, s=0.8, lam=0.3)
    for seed in range(5):
        state = smooth_pair(prob, seed)
        q = coupled_quadratic(state, prob)
        g = prob.grid
        quartic = integrate(Field(g, np.maximum(state.u.values, 0.0) ** 4)) + integrate(
            Field(g, np.maximum(state.v.values, 0.0) ** 4)
        )
        expected = np.sqrt(q / quartic)
        t0, _ = nehari_project(state, prob)
        assert t0 == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize(
    "call",
    [
        lambda prob, bad: nehari_project(bad, prob),
        lambda prob, bad: solve_ground_state(prob, init=bad, opts=FAST),
        lambda prob, bad: mountain_pass_diagnostics(prob, probe=bad, opts=FAST),
    ],
    ids=["nehari_project", "solve_init", "diagnostics_probe"],
)
def test_a_pair_without_a_positive_part_is_not_in_e_plus(call):
    # every entry point refuses the pair in the one projection it calls
    prob = constant_problem()
    g = prob.grid
    bad = StatePair(Field(g, -np.ones(g.shape)), Field(g, np.zeros(g.shape)))
    with pytest.raises(NotInEPlus):
        call(prob, bad)


def test_projection_fails_when_quadratic_form_degenerate():
    # coupling above the geometric mean of the potentials makes the
    # quadratic form negative along u = v, so no projected scale exists
    prob = constant_problem(v1=1.0, v2=1.0, lam=1.2)
    g = prob.grid
    state = smooth_pair(prob, 0)
    same = StatePair(state.u, state.u)
    assert coupled_quadratic(same, prob) < 0.0
    with pytest.raises(BracketFailure):
        nehari_project(same, prob)


LOG1 = NonlinearitySpec(kind="log_power", gamma=1.0)
QUARTIC = NonlinearitySpec(kind="pure_power", p=4.0)
CUBIC = NonlinearitySpec(kind="pure_power", p=3.0)


def _spike_state(prob, amplitude, both):
    """Zero pair except for one sample of u (and of v) at the amplitude."""
    g = prob.grid
    u = np.zeros(g.shape)
    v = np.zeros(g.shape)
    u[3, 5] = amplitude
    if both:
        v[7, 2] = amplitude
    return StatePair(Field(g, u), Field(g, v))


@pytest.mark.parametrize(
    "amplitude,end", [(1e-100, r"below t = 2\^60"), (1e150, r"above t = 2\^-60")]
)
@pytest.mark.parametrize(
    "nl1,nl2,both",
    [(QUARTIC, QUARTIC, False), (LOG1, LOG1, False), (LOG1, CUBIC, True)],
    ids=["pure_power-closed_form", "log_power-newton", "mixed-newton"],
)
def test_projection_fails_typed_without_sign_change(nl1, nl2, both, amplitude, end):
    # Q > 0, but the ray's root lies far outside [2^-60, 2^60], near
    # 1 / amplitude: at 1e-100 int f(tu) tu underflows to 0 at t = 1, at
    # 1e150 it overflows
    prob = dataclasses.replace(constant_problem(), nl1=nl1, nl2=nl2)
    state = _spike_state(prob, amplitude, both)
    assert 0.0 < coupled_quadratic(state, prob) < np.inf
    with pytest.raises(BracketFailure, match=end):
        nehari_project(state, prob)


@pytest.mark.parametrize(
    "v,lam,end", [(10.0, 0.5, r"below t = 2\^60"), (0.01, 0.005, r"above t = 2\^-60")]
)
def test_closed_form_projection_fails_typed_beyond_the_float_range(v, lam, end):
    # with p - 2 = 0.001 the closed-form root (Q / S)^1000 of a constant
    # pair lies beyond the float range (Q / S = 9.5) or below it (0.005);
    # the first once escaped as a bare OverflowError
    nl = NonlinearitySpec(kind="pure_power", p=2.001)
    prob = dataclasses.replace(constant_problem(v1=v, v2=v, lam=lam), nl1=nl, nl2=nl)
    g = prob.grid
    ones = Field(g, np.ones(g.shape))
    with pytest.raises(BracketFailure, match=end):
        nehari_project(StatePair(ones, ones), prob)


def test_projection_newton_needs_few_evaluations(monkeypatch):
    # from the initial bump (t ~ 10) and along a solve (t ~ 1)
    prob = constant_problem()
    evaluations, f_calls = [], []
    dnq, f = NonlinearitySpec.dnq, NonlinearitySpec.f

    def counted(self, t):
        evaluations[-1] += 1
        return dnq(self, t)

    projecting = [False]

    def counted_f(self, t):
        if projecting[0]:
            f_calls[-1] += 1
        return f(self, t)

    project = solver.nehari_project

    def tally(*args, **kwargs):
        evaluations.append(0)
        f_calls.append(0)
        projecting[0] = True
        try:
            return project(*args, **kwargs)
        finally:
            projecting[0] = False

    monkeypatch.setattr(NonlinearitySpec, "dnq", counted)
    monkeypatch.setattr(NonlinearitySpec, "f", counted_f)
    monkeypatch.setattr(solver, "nehari_project", tally)
    rep = solve_ground_state(prob, opts=FAST)
    assert rep.converged
    # both components share the nonlinearity, so each evaluation takes one
    # call of f and one of dnq
    assert f_calls == evaluations
    per_projection = np.array(evaluations)
    assert per_projection.min() >= 1
    assert per_projection.max() <= 8
    assert per_projection.mean() <= 4


def _nonlinearities():
    from hypothesis import strategies as st

    return st.one_of(
        st.sampled_from([1.0, 1.5, 3.0]).map(
            lambda g: NonlinearitySpec(kind="log_power", gamma=g)
        ),
        st.floats(2.5, 4.0).map(lambda p: NonlinearitySpec(kind="pure_power", p=p)),
    )


def test_projection_properties():
    # residual and scale covariance t(c x) c = t(x) for log_power, pure
    # powers of unequal exponents (Newton), equal ones (closed form) and
    # mixed pairs, on positive and sign-changing pairs over six decades of c
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(
        max_examples=60, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(
        nl1=_nonlinearities(),
        nl2=_nonlinearities(),
        seed=st.integers(0, 2**16),
        positive=st.booleans(),
        log_c=st.floats(-3.0, 3.0),
    )
    def check(nl1, nl2, seed, positive, log_c):
        prob = dataclasses.replace(constant_problem(n=16), nl1=nl1, nl2=nl2)
        x = smooth_pair(prob, seed, positive=positive)
        c = 10.0**log_c
        t, proj = nehari_project(x, prob)
        assert abs(nehari_value(proj, prob)) <= 1e-12 * coupled_quadratic(proj, prob)
        tc, proj_c = nehari_project(x.scaled(c), prob)
        assert abs(nehari_value(proj_c, prob)) <= 1e-12 * coupled_quadratic(proj_c, prob)
        assert abs(tc * c - t) <= 1e-12 * t

    check()


@pytest.mark.parametrize("nl", [LOG1, QUARTIC], ids=["log_power", "pure_power"])
def test_line_search_energy_from_scaled_pieces(nl):
    # a projected pair carries t0 times its trial's spectra and t0^2 times
    # the quadratic parts the projection computed, so its energy takes no
    # transform and no quadratic form; it must agree with a pair built
    # afresh from the same values, with nothing cached
    prob = dataclasses.replace(constant_problem(s=0.8), nl1=nl, nl2=nl)
    g = prob.grid
    for seed in range(4):
        trial = smooth_pair(prob, seed, positive=seed % 2 == 0).scaled(0.3 + seed)
        _, cand = nehari_project(trial, prob)
        assert "_quad" in cand.__dict__
        parts = energy(cand, prob)
        fresh = energy(StatePair(Field(g, cand.u.values), Field(g, cand.v.values)), prob)
        assert abs(parts.total - fresh.total) <= 1e-14 * abs(fresh.total)
        scale = fresh.quad_u + fresh.quad_v
        for name in ("quad_u", "quad_v", "coupling_term"):
            assert abs(getattr(parts, name) - getattr(fresh, name)) <= 1e-13 * scale
        assert parts.F1_integral == fresh.F1_integral
        assert parts.F2_integral == fresh.F2_integral


def test_solve_computes_each_gradient_once(monkeypatch):
    # the flat-step fallback's gradient of an accepted candidate is reused
    # by the next iteration and by the report; an unreachable tolerance
    # drives the solve into that fallback
    seen = []
    flat_checks = []
    grad = solver._descent_gradient
    rounding = solver._energy_rounding

    def recorded(state, problem):
        seen.append(state.u.values)
        return grad(state, problem)

    def counted(parts):
        flat_checks.append(1)
        return rounding(parts)

    monkeypatch.setattr(solver, "_descent_gradient", recorded)
    monkeypatch.setattr(solver, "_energy_rounding", counted)
    opts = SolverOptions(max_iters=4000, tol_residual=1e-300)
    rep = solve_ground_state(constant_problem(n=16), opts=opts)
    assert rep.stalled
    assert flat_checks
    assert len({id(a) for a in seen}) == len(seen)
    assert len(seen) >= rep.iterations + 1


def test_solve_takes_one_energy_per_projected_pair(monkeypatch):
    # the start and every trial that projects get one breakdown each; the
    # report reads the accepted pair's instead of taking another
    projected, energies = [], []
    project, breakdown = solver.nehari_project, solver.energy

    def counted_project(state, problem):
        out = project(state, problem)
        projected.append(1)
        return out

    def counted_energy(state, problem):
        energies.append(1)
        return breakdown(state, problem)

    monkeypatch.setattr(solver, "nehari_project", counted_project)
    monkeypatch.setattr(solver, "energy", counted_energy)
    prob = constant_problem(n=16)
    rep = solve_ground_state(prob, opts=FAST)
    assert rep.converged and rep.iterations > 0
    assert len(energies) == len(projected)
    assert rep.level == breakdown(rep.state, prob).total


def test_one_problem_samples_the_ladder_once(monkeypatch):
    # the report is kept on the problem and the ladder's witnesses on its
    # nonlinearity (one instance for both components here), so auditing,
    # solving, restarting and the diagnostics sample the ladder once
    ladder = count_ladder_evaluations(monkeypatch)
    prob = constant_problem(n=16)
    assert prob.nl1 is prob.nl2
    audits = [validate_assumptions(prob), validate_assumptions(prob)]
    rep = solve_ground_state(prob, opts=FAST)
    solve_with_restarts(prob, opts=FAST, restarts=2)
    mountain_pass_diagnostics(prob, rep.state, opts=FAST)
    assert ladder == [prob.nl1]
    assert audits[0] is audits[1] is validate_assumptions(prob)


@pytest.mark.parametrize(
    "build",
    [
        lambda: constant_problem(dim=3, n=16, s=0.8, nl_kind="pure_power", p=4.0),
        constant_problem,
    ],
    ids=["pure_power_3d", "log_power_2d"],
)
def test_solve_takes_two_transforms_per_iteration_and_one_form_per_projection(
    build, monkeypatch
):
    # a trial the clip leaves alone carries its spectrum from the state's
    # and the gradient's, and a projected pair carries its quadratic parts,
    # so an accepted step costs the 2 transforms of the preconditioned
    # gradient (one each way over both components), a projection one
    # quadratic-form pass over its trial, and an energy one call of F
    energy_module = sys.modules["fracground.energy"]
    counts = {"transform": 0, "pass": 0, "project": 0, "energy": 0, "F": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    for name in ("rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counting("transform", getattr(np.fft, name)))
    monkeypatch.setattr(
        energy_module, "_quadratic_pass", counting("pass", energy_module._quadratic_pass)
    )
    monkeypatch.setattr(solver, "nehari_project", counting("project", solver.nehari_project))
    monkeypatch.setattr(solver, "energy", counting("energy", solver.energy))
    monkeypatch.setattr(NonlinearitySpec, "F", counting("F", NonlinearitySpec.F))
    rep = solve_ground_state(build())
    assert rep.converged and rep.iterations > 0
    # at least the 2 of each accepted step's gradient: a count that misses
    # the transforms fails here
    assert 2 * rep.iterations <= counts["transform"] <= 2 * rep.iterations + 3
    assert counts["pass"] == counts["project"]
    assert counts["F"] == counts["energy"]


def test_unclipped_trial_carries_its_transform(monkeypatch):
    # state - eta * gradient carries the state's spectrum minus eta times
    # the gradient's; a trial the clip changes carries none and takes no
    # transform until its spectrum is asked for, then one over both rows
    prob = constant_problem(s=0.8)
    state = smooth_pair(prob, 1)
    grad = gradient(state, prob, preconditioned=True)

    def carries_its_transform(trial, rows=(0, 1)):
        fresh = np.fft.rfftn(trial.values, axes=(1, 2))
        return "spectrum" in trial.__dict__ and all(
            np.max(np.abs(trial.spectrum[i] - fresh[i])) <= 1e-13 * np.max(np.abs(fresh[i]))
            for i in rows
        )

    short = solver._trial(state, grad, 1e-3)
    assert short.values.min() > 0.0
    assert np.array_equal(short.values, state.values - 1e-3 * grad.values)
    assert carries_its_transform(short)
    # a step along v alone that turns v negative somewhere: the clip
    # changes row 1 only
    eta = 1e3
    along_v = StatePair(Field(prob.grid, np.zeros(prob.grid.shape)), grad.v)
    along_v.spectrum  # taken before the count starts
    assert (state.values[1] - eta * grad.values[1]).min() < 0.0
    transforms = []
    rfftn = np.fft.rfftn

    def counted(*args, **kwargs):
        transforms.append(np.shape(args[0]))
        return rfftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", counted)
    one_row = solver._trial(state, along_v, eta)
    assert np.array_equal(one_row.values[0], state.values[0])
    assert one_row.values[1].min() == 0.0
    assert transforms == [] and "spectrum" not in one_row.__dict__
    taken = one_row.spectrum
    assert transforms == [(2,) + prob.grid.shape]
    assert np.array_equal(taken, rfftn(one_row.values, axes=(1, 2)))
    assert carries_its_transform(one_row)


def test_cold_solve_reaches_the_clip_and_converges_sooner(monkeypatch):
    # with weak coupling, a start whose rows swing through their mean in
    # opposite phase has a line-search trial that turns negative somewhere;
    # the clip (a trial it changes carries no spectrum) keeps it in the
    # positive cone, where f vanishes, and the solve stays within the
    # bound a cold solve of this problem once needed (36 iterations).  No
    # cold solve of this problem reaches the clip: the slope-shifted
    # descent keeps its trials positive.
    clipped = []
    trial = solver._trial

    def counted(state, grad, eta):
        pair = trial(state, grad, eta)
        clipped.append("spectrum" not in pair.__dict__)
        return pair

    monkeypatch.setattr(solver, "_trial", counted)
    prob = constant_problem(lam=0.01)
    g = prob.grid
    wave = np.cos(2.0 * np.pi * g.coordinates()[0] / g.box_length)
    init = StatePair(Field(g, 1.01 + wave), Field(g, 0.5 * (1.01 - wave)))
    rep = solve_ground_state(prob, init=init, opts=FAST)
    assert sum(clipped) >= 1
    assert rep.converged and rep.iterations <= 40
    assert rep.state.values.min() >= 0.0


@pytest.mark.parametrize("build", [constant_problem, perturbed_problem])
def test_cold_solve_without_the_clip_reaches_the_clipped_level(build, monkeypatch):
    # on these problems no trial turns negative, so the clip changes none
    # and a descent whose trials are never clipped reaches the same level
    prob = build()
    trial = solver._trial
    clipped = []

    def counted(state, grad, eta):
        pair = trial(state, grad, eta)
        clipped.append("spectrum" not in pair.__dict__)
        return pair

    def unclipped(state, grad, eta):
        return StatePair._stacked(
            state.grid,
            state.values - eta * grad.values,
            state.spectrum - eta * grad.spectrum,
        )

    monkeypatch.setattr(solver, "_trial", counted)
    with_clip = solve_ground_state(prob, opts=FAST)
    monkeypatch.setattr(solver, "_trial", unclipped)
    free = solve_ground_state(prob, opts=FAST)
    assert clipped and sum(clipped) == 0
    assert with_clip.converged and free.converged
    assert abs(free.level - with_clip.level) <= 1e-10 * abs(with_clip.level)


# ---------------------------------------------------------------------------
# the solver


def test_solve_refuses_invalid_problem():
    prob = constant_problem(v1=1.0, v2=1.0, lam=1.2)
    with pytest.raises(ValidationFailed):
        solve_ground_state(prob, opts=FAST)


@pytest.fixture(scope="module")
def baseline_report():
    return solve_ground_state(constant_problem(), opts=FAST)


def test_solve_baseline_converges(baseline_report):
    rep = baseline_report
    assert rep.converged
    assert not rep.stalled
    assert rep.iterations > 0
    assert rep.gradient_residual < FAST.tol_residual
    assert rep.nehari_residual < 1e-8


def test_solve_report_level_matches_state(baseline_report):
    rep = baseline_report
    prob = constant_problem()
    assert rep.level == pytest.approx(energy(rep.state, prob).total, rel=1e-12)
    assert rep.level > 0.0


def test_solve_respects_positivity(baseline_report):
    rep = baseline_report
    assert rep.state.u.values.min() >= -1e-12
    assert rep.state.v.values.min() >= -1e-12
    assert rep.positive_fraction_u == 1.0
    assert rep.positive_fraction_v == 1.0


def test_solve_tracks_projection_history(baseline_report):
    rep = baseline_report
    assert len(rep.t_history) == rep.iterations + 1
    assert all(t > 0 for t in rep.t_history)
    text = rep.summary()
    assert "level" in text and "converged = True" in text


def test_solve_symmetric_problem_gives_symmetric_pair():
    prob = constant_problem(v1=1.0, v2=1.0, lam=0.5)
    rep = solve_ground_state(prob, opts=FAST)
    assert rep.converged
    diff = np.linalg.norm(rep.state.u.values - rep.state.v.values)
    norm = np.linalg.norm(rep.state.u.values)
    assert diff / norm < 1e-4


def test_solve_zero_coupling_recovers_scalar_level():
    prob = constant_problem(lam=0.0)
    rep = solve_ground_state(prob, opts=FAST)
    s1 = solve_scalar_ground_state(1, prob, opts=FAST)
    s2 = solve_scalar_ground_state(2, prob, opts=FAST)
    assert rep.converged and s1.converged and s2.converged
    target = min(s1.level, s2.level)
    assert rep.level == pytest.approx(target, rel=1e-6)


def test_solver_deterministic():
    prob = constant_problem()
    a = solve_ground_state(prob, opts=FAST)
    b = solve_ground_state(prob, opts=FAST)
    assert a.level == b.level
    assert a.iterations == b.iterations
    assert np.array_equal(a.state.u.values, b.state.u.values)
    assert np.array_equal(a.state.v.values, b.state.v.values)


def test_solve_not_converged_when_starved():
    rep = solve_ground_state(constant_problem(), opts=SolverOptions(max_iters=3))
    assert not rep.converged


@pytest.mark.parametrize("first_step", [1e300, 1e308])
def test_overflowing_trials_are_failed_trials(monkeypatch, first_step):
    # trials this long overflow; each has a non-finite quadratic form, so
    # its projection fails and the line search backtracks, silently (the
    # suite turns RuntimeWarning into an error), until it gives up
    monkeypatch.setattr(solver, "_FIRST_STEP", first_step)
    rep = solve_ground_state(constant_problem())
    assert rep.stalled and not rep.converged and rep.iterations == 0
    assert np.isfinite(rep.level)
    assert np.isfinite(rep.nehari_residual) and np.isfinite(rep.gradient_residual)


def test_solve_reports_stall_on_unreachable_tolerance():
    opts = SolverOptions(max_iters=4000, tol_residual=1e-300)
    rep = solve_ground_state(constant_problem(n=16), opts=opts)
    assert not rep.converged
    assert rep.stalled


def test_scalar_solver_leaves_other_component_zero():
    prob = constant_problem()
    rep1 = solve_scalar_ground_state(1, prob, opts=FAST)
    assert rep1.converged
    assert np.all(rep1.state.v.values == 0.0)
    assert rep1.state.u.values.max() > 0.0
    rep2 = solve_scalar_ground_state(2, prob, opts=FAST)
    assert rep2.converged
    assert np.all(rep2.state.u.values == 0.0)
    with pytest.raises(ValueError):
        solve_scalar_ground_state(3, prob, opts=FAST)


def test_scalar_levels_order_with_potential():
    # the component with the larger potential pays more, so its scalar
    # level is strictly higher
    prob = constant_problem(v1=1.0, v2=1.5)
    s1 = solve_scalar_ground_state(1, prob, opts=FAST)
    s2 = solve_scalar_ground_state(2, prob, opts=FAST)
    assert s1.converged and s2.converged
    assert s1.level < s2.level


def test_restarts_keep_best_level():
    prob = constant_problem()
    single = solve_ground_state(prob, opts=FAST)
    multi = solve_with_restarts(prob, opts=FAST, restarts=3)
    assert multi.restarts == 3
    assert multi.converged
    assert multi.level <= single.level + 1e-12 * abs(single.level)
    with pytest.raises(ValueError):
        solve_with_restarts(prob, opts=FAST, restarts=0)
    with pytest.raises(ValueError, match="restarts"):
        solve_with_restarts(prob, opts=FAST, restarts=True)


def test_warm_start_accepted():
    prob = constant_problem()
    cold = solve_ground_state(prob, opts=FAST)
    warm = solve_ground_state(prob, init=cold.state, opts=FAST)
    assert warm.converged
    assert warm.iterations <= cold.iterations
    assert warm.level == pytest.approx(cold.level, rel=1e-10)


# ---------------------------------------------------------------------------
# the Barzilai-Borwein first trial step


def test_bb_step_falls_back_and_clips():
    step = solver._bb_step
    # stacked (2, ...) arrays, one row per component
    s = np.array([[1.0, 0.0], [0.5, 0.0]])

    def y(*rows):
        return np.array(rows)

    # no positive curvature along s, or no change of the gradient
    assert step(s, y([-1.0, 0.0], [0.0, 0.0])) == solver._FIRST_STEP
    assert step(s, y([0.0, 3.0], [0.0, 0.0])) == solver._FIRST_STEP
    assert step(s, np.zeros((2, 2))) == solver._FIRST_STEP
    # inner products sum over both components: <s,y> = 1.5, <y,y> = 2
    assert step(s, y([1.0, 0.0], [1.0, 0.0])) == 0.75
    assert step(s, y([0.0, 0.0], [1.0, 0.0])) == 0.5
    # kept within [1e-3, 1e3]
    assert step(s, y([1e6, 0.0], [0.0, 0.0])) == 1.0e-3
    assert step(s, y([1e-6, 0.0], [0.0, 0.0])) == 1.0e3


def test_bb_step_at_least_halves_the_outer_iterations():
    # a fixed first trial step of 1 took 106 iterations on this problem
    rep = solve_ground_state(constant_problem())
    assert rep.converged
    assert rep.iterations <= 53


@pytest.mark.parametrize("seed", [6, 7, 8])
def test_power3d_converges_at_default_tolerance(seed):
    # the 3-D quartic problem of the benchmark; these seeds once stalled
    # just above a residual of 1e-8, and a fixed first step of 1 needed 31
    # iterations for each of them
    prob = constant_problem(dim=3, n=32, s=0.8, nl_kind="pure_power", p=4.0)
    rep = solve_ground_state(prob, opts=SolverOptions(max_iters=6000, seed=seed))
    assert rep.converged and not rep.stalled
    assert rep.gradient_residual < 1e-8
    assert rep.iterations < 31


@pytest.mark.parametrize(
    "n,L,max_iters,level",
    [(64, 8.0, 18, 0.03863480045947743), (128, 32.0, 40, 0.6181568073516686)],
)
def test_block_preconditioner_keeps_near_bound_cold_solves_short(n, L, max_iters, level):
    # delta = 0.9: the coupling-blind diagonal preconditioner took 30 and
    # 71 iterations on these cold solves; the levels are the ones it found
    prob = constant_problem(n=n, L=L, lam=0.9 * np.sqrt(1.5))
    rep = solve_ground_state(prob)
    assert rep.converged
    assert rep.iterations <= max_iters
    assert rep.level == pytest.approx(level, rel=1e-10)


# ---------------------------------------------------------------------------
# the slope-shifted preconditioner


@pytest.mark.parametrize(
    "seed,level",
    [(0, 10.078659125798627), (1, 10.078659125798652), (2, 10.078659125798627),
     (3, 10.078659125798648)],
)
def test_shifted_block_shortens_the_cold_constant_solve(seed, level):
    # the 2-D n=64 log_power problem whose ground state is a constant pair;
    # preconditioned by the linear part alone the cold solve took 30-35
    # iterations on these seeds, and the levels are the ones it found
    rep = solve_ground_state(constant_problem(n=64), opts=SolverOptions(seed=seed))
    assert rep.converged
    assert rep.iterations <= 24
    assert rep.level == pytest.approx(level, rel=1e-10)


@pytest.mark.parametrize(
    "which,max_iters,level", [(1, 24, 24.25486056151152), (2, 34, 127.75557246972915)]
)
def test_shifted_block_shortens_the_scalar_solves(which, max_iters, level):
    # the scalar solves of the coupling sweep's problem; the first
    # component's state is constant, the second's localized.  Preconditioned
    # by the linear part alone they took 36-43 and 40-44 iterations on
    # seeds 0-2
    prob = constant_problem(n=64, lam=1.0)
    for seed in range(3):
        rep = solve_scalar_ground_state(which, prob, opts=SolverOptions(seed=seed))
        assert rep.converged
        assert rep.iterations <= max_iters
        assert rep.level == pytest.approx(level, rel=1e-10)


def test_localized_state_keeps_the_unshifted_block(monkeypatch):
    # a localized pure_power state has its least values in its tail, where
    # the slope is negligible, so every gradient of the descent mixes by
    # the problem's cached preconditioner itself
    prob = constant_problem(s=0.8, nl_kind="pure_power", p=4.0)
    blocks = []
    mix = solver._gradient

    def recorded(state, problem, block):
        blocks.append(block)
        return mix(state, problem, block)

    monkeypatch.setattr(solver, "_gradient", recorded)
    rep = solve_ground_state(prob, opts=FAST)
    assert rep.converged
    assert rep.state.values.min() < 1e-2 * rep.state.values.max()
    assert blocks and all(block is prob._preconditioner for block in blocks)


@pytest.mark.parametrize(
    "build,shifted",
    [
        (lambda: constant_problem(n=64), True),
        (lambda: dataclasses.replace(constant_problem(s=0.4, lam=-0.6), s2=0.9), True),
        (perturbed_problem, True),
        (lambda: constant_problem(s=0.8, nl_kind="pure_power", p=4.0), False),
    ],
    ids=["constant_state", "unequal_orders", "perturbed", "localized"],
)
@pytest.mark.parametrize("max_iters", [4, 4000])
def test_gradient_residual_is_the_unshifted_preconditioned_gradient(build, shifted, max_iters):
    # the convergence test and the report measure the gradient
    # preconditioned by the unshifted block, whatever block the descent
    # mixed by at the reported state: mid-solve and converged
    prob = build()
    rep = solve_ground_state(prob, opts=SolverOptions(max_iters=max_iters))
    assert (solver._descent_gradient(rep.state, prob)._shifts is not None) == shifted
    plain = gradient(rep.state, prob, preconditioned=True)
    want = l2_norm_pair(plain) / l2_norm_pair(rep.state)
    assert abs(rep.gradient_residual - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# geometry diagnostics


@pytest.fixture(scope="module")
def diagnosed():
    prob = constant_problem()
    rep = solve_ground_state(prob, opts=FAST)
    diag = mountain_pass_diagnostics(prob, rep.state, opts=FAST, reference_level=rep.level)
    return rep, diag


def test_diagnostics_witness_geometry(diagnosed):
    _, diag = diagnosed
    assert diag.small_sphere_witnessed
    assert diag.geometry_witnessed
    assert diag.radii[0] == pytest.approx(1e-4, rel=1e-12)
    assert np.all(diag.min_energy_per_radius > 0.0)
    assert diag.witness_radius == pytest.approx(1e-4, rel=1e-12)


def test_diagnostics_witness_negative_ray(diagnosed):
    _, diag = diagnosed
    assert diag.negative_ray_witnessed
    assert diag.t_negative is not None
    assert diag.t_negative > 1.0


def test_diagnostics_ray_maximum_is_level(diagnosed):
    rep, diag = diagnosed
    assert diag.ray_max == pytest.approx(rep.level, rel=1e-8)
    assert diag.ray_argmax == pytest.approx(1.0, abs=1e-6)
    assert diag.level_consistent
    assert diag.level_gap is not None and diag.level_gap < 1e-8 * rep.level


def test_diagnostics_flag_inconsistent_reference(diagnosed):
    rep, _ = diagnosed
    prob = constant_problem()
    diag = mountain_pass_diagnostics(
        prob, rep.state, opts=FAST, reference_level=rep.level * 2.0
    )
    assert not diag.level_consistent


def test_diagnostics_summary_renders(diagnosed):
    _, diag = diagnosed
    text = diag.summary()
    assert "small_sphere_witnessed = True" in text
    assert "ray_max" in text


# ---------------------------------------------------------------------------
# options and starts


@pytest.mark.parametrize(
    "field,value",
    [
        ("max_iters", 0),
        ("max_iters", 2.5),
        ("max_iters", True),  # bool is an int, but no iteration budget
        ("seed", -1),
        ("seed", False),
        ("tol_residual", float("nan")),
    ],
)
def test_solver_options_reject_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        SolverOptions(**{field: value})


def test_scalar_start_is_one_component_of_the_default_start(monkeypatch):
    # both starts draw the same jittered bump from the seed's generator
    prob = constant_problem()
    starts = []
    monkeypatch.setattr(
        solver, "solve_ground_state", lambda problem, init, opts: starts.append(init)
    )
    for which in (1, 2):
        solve_scalar_ground_state(which, prob, opts=SolverOptions(seed=3))
    ref = solver.default_initial_state(prob, np.random.default_rng(3)).u.values
    assert np.array_equal(starts[0].u.values, ref) and not starts[0].v.values.any()
    assert np.array_equal(starts[1].v.values, ref) and not starts[1].u.values.any()


# ---------------------------------------------------------------------------
# the two-level cold start


def _localized_problem():
    # 2-D, n=128, L=32: the constant weights give a localized minimizer
    return constant_problem(n=128, L=32.0)


@pytest.mark.parametrize("build", [perturbed_problem, _localized_problem])
def test_cold_solve_agrees_with_a_fine_only_solve(build):
    prob = build()
    opts = SolverOptions(max_iters=6000)
    cold = solve_ground_state(prob, opts=opts)
    bump = solver.default_initial_state(prob, np.random.default_rng(opts.seed))
    fine = solve_ground_state(prob, init=bump, opts=opts)
    assert cold.converged and fine.converged
    assert cold.resolution_gap is not None and fine.resolution_gap is None
    assert abs(cold.level - fine.level) <= 1e-10 * abs(fine.level)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 16)])
def test_prolongation_interpolates_the_coarse_samples(dim, n):
    coarse, fine = make_grid(dim, n, 8.0), make_grid(dim, 2 * n, 8.0)
    rng = np.random.default_rng(dim)
    # white noise carries every coarse mode, the Nyquist modes included;
    # the second row, the first negated, checks that rows stay apart
    u = Field(coarse, rng.standard_normal(coarse.shape))
    values = solver._prolong(StatePair(u, Field(coarse, -u.values)), fine)
    assert values.shape == (2,) + fine.shape
    every_other = (slice(None, None, 2),) * dim
    assert np.max(np.abs(values[0][every_other] - u.values)) <= 1e-13
    assert np.max(np.abs(values[1] + values[0])) <= 1e-13
    assert np.mean(values[0]) == pytest.approx(np.mean(u.values), abs=1e-13)
    # a fine field without modes at or above n/2 is its own interpolant
    x = fine.coordinates()
    smooth = np.exp(sum(np.cos(2.0 * np.pi * k * xi / 8.0) for k, xi in enumerate(x, 1)) / 4.0)
    below = fine.sq_wavenumber() < (np.pi * n / 8.0) ** 2
    smooth = np.fft.irfftn(np.fft.rfftn(smooth) * below, s=fine.shape, axes=range(dim))
    sampled = Field(coarse, smooth[every_other])
    prolonged = solver._prolong(StatePair(sampled, sampled), fine)
    assert np.max(np.abs(prolonged - smooth)) <= 1e-13


def test_only_cold_solves_from_64_points_build_a_coarse_grid(monkeypatch):
    small, large = constant_problem(n=32), constant_problem(n=64)
    bump = solver.default_initial_state(large, np.random.default_rng(0))
    built = []
    post_init = Grid.__post_init__

    def counted(self):
        built.append(self.n_per_axis)
        post_init(self)

    monkeypatch.setattr(Grid, "__post_init__", counted)
    assert solve_ground_state(small, opts=FAST).converged
    assert solve_ground_state(large, init=bump, opts=FAST).converged
    assert built == []
    # the coarse problem is kept on the fine one
    for _ in range(2):
        assert solve_ground_state(large, opts=FAST).converged
    assert built == [32]


@pytest.mark.parametrize("max_iters", [3, 6000])
def test_two_level_solve_counts_both_levels_within_max_iters(max_iters):
    rep = solve_ground_state(constant_problem(n=64), opts=SolverOptions(max_iters=max_iters))
    assert rep.resolution_gap is not None
    assert len(rep.t_history) == rep.iterations + 1
    assert rep.iterations <= max_iters
    assert rep.converged == (max_iters == 6000)
    if max_iters == 3:
        # a coarse iteration, the step to the fine grid and a fine iteration
        assert rep.iterations == 3


def test_resolution_gap_is_set_only_when_a_coarse_level_ran():
    rep = solve_ground_state(constant_problem(n=32), opts=FAST)
    assert rep.resolution_gap is None
    assert "resolution_gap" not in rep.summary()
    rep = solve_ground_state(perturbed_problem(), opts=FAST)
    assert rep.converged
    assert np.isfinite(rep.resolution_gap) and 0.0 <= rep.resolution_gap < 1e-3
    assert f"resolution_gap = {rep.resolution_gap:.6e}" in rep.summary().splitlines()


def test_scalar_solve_starts_one_level_down_from_one_component(monkeypatch):
    prob = constant_problem(n=64)
    descents, fine_starts = [], []
    descend, fine_solve = solver._descend, solver.solve_ground_state

    def recorded_descend(problem, init, opts, max_iters):
        descents.append(init)
        return descend(problem, init, opts, max_iters)

    def recorded_solve(problem, init, opts):
        fine_starts.append(init)
        return fine_solve(problem, init=init, opts=opts)

    monkeypatch.setattr(solver, "_descend", recorded_descend)
    monkeypatch.setattr(solver, "solve_ground_state", recorded_solve)
    bump = solver.default_initial_state(prob._coarse, np.random.default_rng(3)).u.values
    for which in (1, 2):
        rep = solve_scalar_ground_state(which, prob, opts=SolverOptions(seed=3))
        assert rep.converged and rep.resolution_gap is not None
        assert len(rep.t_history) == rep.iterations + 1
    # each coarse start is the one-component bump on 32 points
    coarse = [d for d in descents if d.grid.n_per_axis == 32]
    assert len(coarse) == 2
    assert np.array_equal(coarse[0].u.values, bump) and not coarse[0].v.values.any()
    assert np.array_equal(coarse[1].v.values, bump) and not coarse[1].u.values.any()
    # and each fine start the prolonged coarse state, its partner still 0
    assert [s.grid.n_per_axis for s in fine_starts] == [64, 64]
    assert fine_starts[0].u.values.min() > 0.0 and not fine_starts[0].v.values.any()
    assert fine_starts[1].v.values.min() > 0.0 and not fine_starts[1].u.values.any()
