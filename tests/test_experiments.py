"""Coupling sweeps, periodic-reference comparison, and the decoupling limit."""

import dataclasses

import numpy as np
import pytest

from fracground import (
    NonlinearitySpec,
    PerturbationSignViolation,
    ProblemSpec,
    ScalarFunctionSpec,
    SolverOptions,
    SweepRow,
    ValidationFailed,
    compare_periodic_limit,
    decoupling_limit,
    lambda_sweep,
    make_grid,
    solve_with_restarts,
    validate_assumptions,
    write_sweep_csv,
)
from fracground.experiments import CSV_HEADER, render_rows_csv
from fracground.grid import _RuleError
from helpers import constant_problem, constant_spec, count_ladder_evaluations


FAST = SolverOptions(max_iters=4000)


def perturbed_problem(n=32):
    """Trig potentials with a lowered well and a raised coupling bump."""
    g = make_grid(2, n, 8.0)
    nl = NonlinearitySpec(kind="log_power", gamma=1.0)
    return ProblemSpec(
        grid=g,
        s1=0.5,
        s2=0.5,
        V1=ScalarFunctionSpec(
            kind="periodic_plus_perturbation",
            base_constant=1.0,
            trig_amplitude=0.2,
            trig_periods=(1, 1),
            perturbation_amplitude=-0.2,
            perturbation_width=0.5,
        ),
        V2=ScalarFunctionSpec(
            kind="periodic_trig",
            base_constant=1.2,
            trig_amplitude=0.2,
            trig_periods=(1, 2),
        ),
        coupling=ScalarFunctionSpec(
            kind="periodic_plus_perturbation",
            base_constant=0.4,
            perturbation_amplitude=0.15,
            perturbation_width=0.5,
        ),
        nl1=nl,
        nl2=nl,
    )


# ---------------------------------------------------------------------------
# coupling sweep


def test_sweep_levels_decrease_with_coupling():
    prob = constant_problem(v1=1.0, v2=1.5, lam=1.0)
    report = lambda_sweep(prob, (0.2, 0.5, 0.8), opts=FAST)
    assert [r.lambda_scale for r in report.rows] == [0.2, 0.5, 0.8]
    assert all(r.converged for r in report.rows)
    levels = [r.level for r in report.rows]
    assert levels[0] > levels[1] > levels[2]
    assert report.monotone_decreasing
    assert report.limit_level == min(report.scalar_levels)
    assert all(r.nehari_residual < 1e-8 for r in report.rows)
    assert all(r.u_mass > 0 and r.v_mass > 0 for r in report.rows)


def test_sweep_zero_scale_matches_scalar_level():
    prob = constant_problem(v1=1.0, v2=1.5, lam=1.0)
    report = lambda_sweep(prob, (0.0, 0.5), opts=FAST)
    assert report.rows[0].level == pytest.approx(report.limit_level, rel=1e-6)


def test_sweep_samples_each_nonlinearity_once(monkeypatch):
    # every scaled problem and both scalar problems share the two
    # nonlinearity instances, which keep their ladder witnesses; two equal
    # instances, as a parsed config has, are sampled once each
    ladder = count_ladder_evaluations(monkeypatch)
    prob = constant_problem(n=16, v1=1.0, v2=1.5, lam=1.0)
    prob = dataclasses.replace(prob, nl2=NonlinearitySpec(kind="log_power", gamma=1.0))
    report = lambda_sweep(prob, (0.2, 0.4, 0.6, 0.8), opts=FAST)
    assert all(r.converged for r in report.rows)
    assert len(ladder) <= 2


def test_sweep_rejects_bad_scales():
    prob = constant_problem(v1=1.0, v2=1.5, lam=1.0)
    with pytest.raises(ValueError):
        lambda_sweep(prob, (), opts=FAST)
    with pytest.raises(ValueError):
        lambda_sweep(prob, (-0.1, 0.5), opts=FAST)
    with pytest.raises(ValueError):
        lambda_sweep(prob, (0.5, 0.2), opts=FAST)
    with pytest.raises(ValueError, match=">= 1"):
        lambda_sweep(prob, (0.5, 1.3), opts=FAST)


@pytest.mark.parametrize(
    "driver, scales",
    [(lambda_sweep, [0.1, float("inf")]), (decoupling_limit, [float("inf"), 0.1])],
)
def test_non_finite_scales_are_refused_as_scales(driver, scales):
    # refused with the other scale rules, before the coupling is scaled
    prob = constant_problem(v1=1.0, v2=1.5, lam=1.0)
    with pytest.raises(_RuleError, match="finite") as exc:
        driver(prob, scales, opts=FAST)
    assert exc.value.field == "scales"


@pytest.mark.parametrize("restarts", [2.5, float("nan"), "2", 0])
@pytest.mark.parametrize("driver", [solve_with_restarts, compare_periodic_limit])
def test_restarts_must_be_a_whole_number_at_least_one(driver, restarts):
    with pytest.raises(_RuleError) as exc:
        driver(constant_problem(), opts=FAST, restarts=restarts)
    assert exc.value.field == "restarts"


# ---------------------------------------------------------------------------
# periodic reference comparison


def test_compare_perturbed_below_periodic():
    prob = perturbed_problem()
    assert validate_assumptions(prob).all_passed
    report = compare_periodic_limit(prob, opts=FAST, restarts=2)
    assert report.converged_periodic and report.converged_perturbed
    assert report.level_perturbed < report.level_periodic
    assert report.gap > report.margin
    assert report.ordering_holds
    assert report.restarts == 2


def test_compare_degenerate_without_perturbations():
    # with no declared perturbation the two solves see identical weights
    prob = constant_problem()
    report = compare_periodic_limit(prob, opts=FAST)
    assert abs(report.gap) < 1e-10
    assert not report.ordering_holds


def test_compare_rejects_wrong_sign_perturbations():
    prob = perturbed_problem()
    raised = dataclasses.replace(
        prob,
        V1=ScalarFunctionSpec(
            kind="periodic_plus_perturbation",
            base_constant=1.0,
            perturbation_amplitude=0.2,
            perturbation_width=0.5,
        ),
    )
    with pytest.raises(PerturbationSignViolation):
        compare_periodic_limit(raised, opts=FAST)
    lowered = dataclasses.replace(
        prob,
        coupling=ScalarFunctionSpec(
            kind="periodic_plus_perturbation",
            base_constant=0.4,
            perturbation_amplitude=-0.15,
            perturbation_width=0.5,
        ),
    )
    with pytest.raises(PerturbationSignViolation):
        compare_periodic_limit(lowered, opts=FAST)


# ---------------------------------------------------------------------------
# decoupling limit


def test_decoupling_limit_survivor_and_vanishing_component():
    prob = constant_problem(v1=1.0, v2=1.5, lam=1.0)
    report = decoupling_limit(prob, (0.4, 0.1, 0.02), opts=FAST)
    assert not report.tie
    assert report.survivor == 1
    c1, c2 = report.scalar_levels
    assert c1 < c2
    assert report.vanishing_mass_ratio is not None
    assert report.vanishing_mass_ratio < 0.05
    assert report.survivor_distance is not None
    assert report.survivor_distance < 0.1
    gaps = report.level_gaps
    assert gaps[0] > gaps[1] > gaps[2]
    assert not report.branch_switch_flagged
    assert report.mass_bounded


def test_decoupling_limit_tie_between_equal_components():
    prob = constant_problem(v1=1.0, v2=1.0, lam=1.0)
    report = decoupling_limit(prob, (0.4, 0.1), opts=FAST)
    assert report.tie
    assert report.survivor is None
    assert report.vanishing_mass_ratio is None
    assert report.survivor_distance is None
    assert report.mass_bounded


def test_decoupling_limit_rejects_bad_scales():
    prob = constant_problem(v1=1.0, v2=1.5, lam=1.0)
    with pytest.raises(ValueError):
        decoupling_limit(prob, (), opts=FAST)
    with pytest.raises(ValueError):
        decoupling_limit(prob, (0.1, 0.4), opts=FAST)
    with pytest.raises(ValueError):
        decoupling_limit(prob, (0.4, 0.0), opts=FAST)


def test_decoupling_limit_checks_the_coupling_bound_before_solving(monkeypatch):
    from fracground import experiments

    calls = []
    real = experiments.solve_scalar_ground_state

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve_scalar_ground_state", counting)
    prob = constant_problem(v1=1.0, v2=1.5, lam=1.0)
    with pytest.raises(ValueError, match=">= 1"):
        decoupling_limit(prob, (1.3, 0.5), opts=FAST)
    assert calls == []


# ---------------------------------------------------------------------------
# CSV output


def test_csv_rendering_frozen_format():
    rows = [
        SweepRow(
            lambda_scale=1.0 / 3.0,
            level=2.0 / 3.0,
            nehari_residual=1e-11,
            u_mass=1.0,
            v_mass=0.25,
            converged=True,
        ),
        SweepRow(
            lambda_scale=0.05,
            level=21.5,
            nehari_residual=3.2e-12,
            u_mass=0.125,
            v_mass=1.0,
            converged=False,
        ),
    ]
    text = render_rows_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == "scale,level,residual,u_mass,v_mass,converged"
    assert lines[1] == (
        "0.33333333333333331,0.66666666666666663,9.9999999999999994e-12,1,0.25,true"
    )
    assert lines[2] == (
        "0.050000000000000003,21.5,3.2000000000000001e-12,0.125,1,false"
    )
    assert text.endswith("\n")


def test_csv_floats_round_trip_exactly():
    rows = [
        SweepRow(
            lambda_scale=np.pi / 7,
            level=-np.e * 3,
            nehari_residual=2.2250738585072014e-308,
            u_mass=1.7976931348623157e308,
            v_mass=5e-324,
            converged=True,
        )
    ]
    line = render_rows_csv(rows).splitlines()[1]
    parts = line.split(",")
    assert float(parts[0]) == np.pi / 7
    assert float(parts[1]) == -np.e * 3
    assert float(parts[2]) == 2.2250738585072014e-308
    assert float(parts[3]) == 1.7976931348623157e308
    assert float(parts[4]) == 5e-324
    assert parts[5] == "true"


def test_write_sweep_csv(tmp_path):
    rows = [
        SweepRow(
            lambda_scale=0.5,
            level=1.25,
            nehari_residual=1e-12,
            u_mass=2.0,
            v_mass=3.0,
            converged=True,
        )
    ]
    path = tmp_path / "rows.csv"
    write_sweep_csv(rows, path)
    text = path.read_text(encoding="ascii")
    assert text.splitlines()[0] == CSV_HEADER
    assert text.endswith("\n")


def test_sign_violation_carries_the_validators_detail():
    # the comparison refuses a wrong-way perturbation with the validator's
    # own finding for that weight
    lowered = dataclasses.replace(
        perturbed_problem(),
        coupling=ScalarFunctionSpec(
            kind="periodic_plus_perturbation",
            base_constant=0.4,
            perturbation_amplitude=-0.15,
            perturbation_width=0.5,
        ),
    )
    checks = {c.name: c for c in validate_assumptions(lowered).checks}
    finding = checks["coupling_perturbation_raises"]
    assert not finding.passed
    with pytest.raises(PerturbationSignViolation) as info:
        compare_periodic_limit(lowered, opts=FAST)
    assert str(info.value) == "coupling: " + finding.detail.split(";")[0]


def test_non_strict_perturbation_is_not_a_sign_violation():
    # a bump so narrow that it underflows to zero away from the center is
    # not strict, so validation fails, but it moves no weight the wrong way
    narrow = dataclasses.replace(
        perturbed_problem(),
        V1=ScalarFunctionSpec(
            kind="periodic_plus_perturbation",
            base_constant=1.0,
            perturbation_amplitude=-0.2,
            perturbation_width=0.05,
        ),
    )
    checks = {c.name: c for c in validate_assumptions(narrow).checks}
    assert "V1: ordering not strict" in checks["potential_perturbations_lower"].detail
    with pytest.raises(ValidationFailed):
        compare_periodic_limit(narrow, opts=FAST)
