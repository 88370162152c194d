"""Nonlinearities, sampled weights, problem specs, and hypothesis checks."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from fracground import (
    NonlinearitySpec,
    ProblemSpec,
    ScalarFunctionSpec,
    make_grid,
    nonlinearity_eval,
    sample_function,
    validate_assumptions,
)
from fracground import model
from fracground.model import gaussian_bump, perturbation_values
from helpers import constant_problem, constant_spec
from test_acceptance import perturbed_problem


# ---------------------------------------------------------------------------
# nonlinearity point values


def test_log_power_values_at_one():
    nl = NonlinearitySpec(kind="log_power", gamma=1.0)
    f, F, nq = nonlinearity_eval(nl, 1.0)
    assert f == pytest.approx(np.log(2.0), abs=1e-15)
    assert F == pytest.approx(0.25, abs=1e-15)
    assert nq == pytest.approx(np.log(2.0) - 0.5, abs=1e-15)


def test_pure_power_values():
    nl = NonlinearitySpec(kind="pure_power", p=4.0)
    f, F, nq = nonlinearity_eval(nl, 2.0)
    assert f == 8.0
    assert F == 4.0
    assert nq == 8.0
    nl3 = NonlinearitySpec(kind="pure_power", p=3.0)
    f, F, nq = nonlinearity_eval(nl3, 2.0)
    assert f == pytest.approx(4.0, rel=1e-15)
    assert F == pytest.approx(8.0 / 3.0, rel=1e-15)
    assert nq == pytest.approx(8.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("kind,kw", [("log_power", {"gamma": 2.0}), ("pure_power", {"p": 4.0})])
def test_nonlinearity_vanishes_on_nonpositive_input(kind, kw):
    nl = NonlinearitySpec(kind=kind, **kw)
    for t in (0.0, -0.5, -100.0):
        assert nonlinearity_eval(nl, t) == (0.0, 0.0, 0.0)
    arr = np.array([-1.0, 0.0, 1.0])
    assert np.all(nl.f(arr)[:2] == 0.0)
    assert nl.f(arr)[2] > 0.0


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0, 3.0])
def test_log_power_primitive_matches_adaptive_quadrature(gamma):
    # independent oracle: adaptive quadrature of the defining integral
    nl = NonlinearitySpec(kind="log_power", gamma=gamma)
    for t in (1e-4, 1e-2, 0.5, 1.0, 3.0, 20.0, 500.0):
        expected, err = quad(
            lambda x: x * np.log1p(x) ** gamma,
            0.0,
            t,
            limit=200,
            epsabs=1e-13 * t,
            epsrel=1e-12,
        )
        # agreement within the target tolerance or the oracle's own
        # reported uncertainty, whichever is larger
        assert abs(nl.F(t) - expected) <= max(1e-10 * expected, 2.0 * err)


@pytest.mark.parametrize(
    "kind,kw",
    [
        ("log_power", {"gamma": 1.0}),
        ("log_power", {"gamma": 2.5}),
        ("pure_power", {"p": 3.5}),
    ],
)
def test_primitive_derivative_is_f(kind, kw):
    nl = NonlinearitySpec(kind=kind, **kw)
    for t in (0.01, 0.1, 1.0, 10.0, 100.0):
        h = 1e-5 * t
        fd = (nl.F(t + h) - nl.F(t - h)) / (2.0 * h)
        assert fd == pytest.approx(nl.f(t), rel=1e-6)


@pytest.mark.parametrize(
    "kind,kw",
    [
        ("log_power", {"gamma": 1.0}),
        ("log_power", {"gamma": 2.0}),
        ("pure_power", {"p": 3.0}),
        ("pure_power", {"p": 4.0}),
    ],
)
def test_nonquadratic_part_positive_and_increasing(kind, kw):
    nl = NonlinearitySpec(kind=kind, **kw)
    t = np.geomspace(1e-4, 1e4, 1000)
    nq = nl.nq(t)
    assert np.all(nq > 0.0)
    assert np.all(np.diff(nq) > 0.0)
    ratio = nl.f(t) / t
    assert np.all(np.diff(ratio) > 0.0)


def test_nonquadratic_identity():
    # nq must equal f(t) t - 2 F(t) for both families
    t = np.geomspace(1e-3, 1e3, 50)
    for nl in (
        NonlinearitySpec(kind="log_power", gamma=1.0),
        NonlinearitySpec(kind="log_power", gamma=2.0),
        NonlinearitySpec(kind="pure_power", p=4.0),
    ):
        direct = nl.nq(t)
        combined = nl.f(t) * t - 2.0 * nl.F(t)
        assert np.max(np.abs(direct - combined)) <= 1e-12 * np.max(np.abs(direct))


def _both_sides(W0):
    """Arguments t around t0 = e^W0 - 1 whose W = ln(1+t) falls on both sides of W0."""
    t0 = float(np.expm1(W0))
    ts = [t0 * (1.0 - 1e-9), np.nextafter(t0, 0.0), t0,
          np.nextafter(t0, np.inf), t0 * (1.0 + 1e-9)]
    W = np.log1p(ts)
    assert np.any(W <= W0) and np.any(W > W0)
    return ts


@pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0, 1.5, 2.7])
def test_log_power_matches_high_precision_reference(gamma):
    # F and nq against the defining integral and f t - 2F evaluated in 40
    # digits, over the whole range and on both sides of the table's bound
    # (where the polynomial hands over to the term-by-term series), to
    # within 1e-14, and far out, where the rounding of W grows, to within
    # 1e-13
    mp = pytest.importorskip("mpmath")
    from fracground.model import _TABLE_W

    nl = NonlinearitySpec(kind="log_power", gamma=gamma)
    ts = list(np.geomspace(1e-10, 1e6, 33)) + _both_sides(_TABLE_W)
    far = [1e40, 1e80]
    with mp.workdps(40):
        for t in ts + far:
            tol = 1e-13 if t in far else 1e-14
            # F(t) = t^2 L^gamma int_0^1 s (ln(1+ts)/L)^gamma ds, L = ln(1+t),
            # so the quadrature sees an integrand of order one at every t
            tm = mp.mpf(float(t))
            L = mp.log1p(tm)
            scaled, err = mp.quad(
                lambda s: s * (mp.log1p(tm * s) / L) ** gamma,
                [0] + [x / tm for x in (1, 1e2, 1e4) if x < tm] + [1],
                error=True,
            )
            assert err <= 1e-25
            F_ref = tm * tm * L**gamma * scaled
            nq_ref = tm * tm * L**gamma - 2 * F_ref
            assert abs(nl.F(t) - F_ref) <= tol * F_ref, t
            assert abs(nl.nq(t) - nq_ref) <= tol * nq_ref, t


HIGH_PRECISION_NONLINEARITIES = pytest.mark.parametrize(
    "nl",
    [NonlinearitySpec(kind="log_power", gamma=g) for g in (1.0, 1.5, 2.0, 3.0)]
    + [NonlinearitySpec(kind="pure_power", p=p) for p in (2.5, 3.0, 4.0, 6.0)],
    ids=lambda nl: f"{nl.kind}-{nl.gamma if nl.kind == 'log_power' else nl.p}",
)


def _mp_f(mp, nl):
    """f of nl in mpmath arithmetic."""
    if nl.kind == "log_power":
        return lambda x: x * mp.log1p(x) ** nl.gamma
    return lambda x: x ** (nl.p - 1)


@HIGH_PRECISION_NONLINEARITIES
def test_dnq_matches_high_precision_derivative(nl):
    # dnq(t) = f'(t) t - f(t), the Newton slope's integrand, against the
    # 40-digit derivative of f
    mp = pytest.importorskip("mpmath")
    f = _mp_f(mp, nl)
    ts = np.geomspace(1e-8, 1e6, 29)
    with mp.workdps(40):
        for t in ts:
            tm = mp.mpf(float(t))
            ref = mp.diff(f, tm) * tm - f(tm)
            assert abs(nl.dnq(t) - ref) <= 1e-13 * abs(ref), t
    assert np.allclose(nl.dnq(ts), [nl.dnq(t) for t in ts], rtol=1e-15, atol=0.0)
    assert nl.dnq(0.0) == 0.0 and nl.dnq(-2.0) == 0.0


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0, 2.5, 3.7])
def test_pure_power_matches_high_precision_reference(p):
    # f, F, nq and dnq against 40-digit powers to within 4 eps = 2^-50
    # relative (at most 2 ulp): a whole exponent is taken by repeated
    # squaring, whose relative error for t^k is at most (k - 1)/2 ulp, plus
    # half an ulp per coefficient and product; a non-whole one by ``**``.
    # All vanish on t <= 0.
    mp = pytest.importorskip("mpmath")
    nl = NonlinearitySpec(kind="pure_power", p=p)
    ts = np.geomspace(1e-10, 1e6, 41)
    tol = 4.0 * np.finfo(float).eps
    with mp.workdps(40):
        pm = mp.mpf(p)
        refs = {
            nl.f: lambda t: t ** (pm - 1),
            nl.F: lambda t: t**pm / pm,
            nl.nq: lambda t: (1 - 2 / pm) * t**pm,
            nl.dnq: lambda t: (pm - 2) * t ** (pm - 1),
        }
        for fn, ref in refs.items():
            values = fn(ts)
            for t, value in zip(ts, values):
                exact = ref(mp.mpf(float(t)))
                assert abs(value - exact) <= tol * exact, (fn.__name__, t)
            assert np.array_equal(fn(np.array([0.0, -0.0, -1e-300, -2.0, -1e300])), np.zeros(5))
            assert fn(0.0) == 0.0 and fn(-3.0) == 0.0


@pytest.mark.parametrize("gamma", [1.5, 2.0, 4.0, 1.0e300])
def test_log_power_entries_do_not_depend_on_their_neighbours(gamma):
    # F(a)[i] and nq(a)[i] equal, bit for bit, the values for a[i:i+1]
    # alone, on arrays that mix the table, the term-by-term series and
    # non-finite entries (at gamma = 1e300 the table ends at W = 1, beyond
    # which the series overflows)
    from fracground.model import _TABLE_W

    nl = NonlinearitySpec(kind="log_power", gamma=gamma)
    W = np.concatenate([[0.0, 1e-12], np.linspace(0.05, 3.2, 64), [5.0, 12.0, 40.0]])
    t = np.concatenate([np.expm1(W), _both_sides(_TABLE_W), [1e40, np.inf]])
    with np.errstate(over="ignore", invalid="ignore"):
        for method in (nl.F, nl.nq):
            whole = method(t)
            alone = np.array([method(t[i:i + 1])[0] for i in range(t.size)])
            assert whole.tobytes() == alone.tobytes()
            assert whole[::-1].tobytes() == method(t[::-1]).tobytes()


@pytest.mark.parametrize("c", [1.0, 2.0])
@pytest.mark.parametrize("b", [0.0, 0.5, 1.0, 2.0, 3.0, 10.0, 1e3, 1e6, 1e12])
def test_log_power_table_tail_is_below_half_an_ulp(b, c):
    # the terms the table leaves out sum to below 2^-55 of the series at
    # its largest argument, and so below half an ulp at every smaller one
    mp = pytest.importorskip("mpmath")
    from fracground.model import _TABLE_TERMS, _TABLE_W

    with mp.workdps(40):
        def term(k):
            return (1 - c * mp.mpf(2) ** -k) * (2 * mp.mpf(_TABLE_W)) ** k / (
                mp.factorial(k) * (k + b + 1))

        kept = mp.fsum(term(k) for k in range(1, _TABLE_TERMS + 1))
        tail = mp.fsum(term(k) for k in range(_TABLE_TERMS + 1, _TABLE_TERMS + 80))
        assert tail < mp.mpf(2) ** -55 * kept


def test_nonlinearity_spec_validation():
    with pytest.raises(ValueError, match="gamma"):
        NonlinearitySpec(kind="log_power", gamma=0.5)
    with pytest.raises(ValueError, match="p > 2"):
        NonlinearitySpec(kind="pure_power", p=2.0)
    for p in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="p > 2") as excinfo:
            NonlinearitySpec(kind="pure_power", p=p)
        assert excinfo.value.field == "p"
    with pytest.raises(ValueError, match="kind"):
        NonlinearitySpec(kind="cubic")


# ---------------------------------------------------------------------------
# sampled weights


def test_sample_constant():
    g = make_grid(2, 16, 8.0)
    f = sample_function(constant_spec(1.5), g)
    assert np.all(f.values == 1.5)


def test_sample_trig_range():
    g = make_grid(2, 32, 8.0)
    spec = ScalarFunctionSpec(
        kind="periodic_trig", base_constant=2.0, trig_amplitude=1.0, trig_periods=(1, 2)
    )
    f = sample_function(spec, g)
    assert f.values.min() == pytest.approx(1.0, abs=1e-12)
    assert f.values.max() == pytest.approx(3.0, abs=1e-12)
    # value at the origin is base + amplitude
    assert f.values[0, 0] == pytest.approx(3.0, abs=1e-14)


def test_sample_trig_requires_whole_periods():
    g = make_grid(1, 32, 2.0 * np.pi)
    spec = ScalarFunctionSpec(
        kind="periodic_trig", base_constant=1.0, trig_amplitude=0.5, trig_periods=(1,)
    )
    with pytest.raises(ValueError, match="whole number"):
        sample_function(dataclasses.replace(spec, perturbation_amplitude=0.0), g)


def test_sample_perturbation_center_value():
    g = make_grid(2, 32, 8.0)
    spec = ScalarFunctionSpec(
        kind="periodic_plus_perturbation",
        base_constant=1.0,
        trig_amplitude=0.0,
        trig_periods=(1, 1),
        perturbation_amplitude=-0.25,
        perturbation_width=0.5,
    )
    full = sample_function(spec, g)
    bare = sample_function(dataclasses.replace(spec, perturbation_amplitude=0.0), g)
    center = g.n_per_axis // 2
    assert full.values[center, center] == pytest.approx(0.75, abs=1e-14)
    assert np.all(bare.values == 1.0)


def test_perturbation_values_helper():
    g = make_grid(2, 32, 8.0)
    spec = ScalarFunctionSpec(
        kind="periodic_plus_perturbation",
        base_constant=1.0,
        perturbation_amplitude=-0.25,
        perturbation_width=0.5,
    )
    pert = perturbation_values(spec, g)
    assert pert is not None
    assert np.all(pert < 0.0)
    center = g.n_per_axis // 2
    assert pert[center, center] == pytest.approx(-0.25, abs=1e-15)
    # no declared perturbation means no array at all
    assert perturbation_values(constant_spec(1.0), g) is None
    flat = dataclasses.replace(spec, perturbation_amplitude=0.0)
    assert perturbation_values(flat, g) is None


def test_gaussian_bump_shape():
    g = make_grid(1, 64, 8.0)
    bump = gaussian_bump(g, 0.5)
    x = g.axis_coordinates()
    expected = np.exp(-(((x - 4.0) / 0.5) ** 2))
    assert np.max(np.abs(bump - expected)) <= 1e-15


def test_scaled_spec_scales_all_amplitudes():
    spec = ScalarFunctionSpec(
        kind="periodic_plus_perturbation",
        base_constant=2.0,
        trig_amplitude=0.4,
        trig_periods=(1, 1),
        perturbation_amplitude=0.3,
        perturbation_width=0.5,
    )
    half = spec.scaled(0.5)
    assert half.base_constant == 1.0
    assert half.trig_amplitude == 0.2
    assert half.perturbation_amplitude == 0.15
    assert half.perturbation_width == 0.5


def test_function_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        ScalarFunctionSpec(kind="exotic")
    with pytest.raises(ValueError):
        ScalarFunctionSpec(kind="constant", trig_amplitude=0.5)
    with pytest.raises(ValueError):
        ScalarFunctionSpec(kind="periodic_trig", base_constant=1.0, perturbation_amplitude=0.1)
    with pytest.raises(ValueError):
        ScalarFunctionSpec(
            kind="periodic_trig", base_constant=1.0, trig_amplitude=0.1, trig_periods=(0,)
        )


@pytest.mark.parametrize(
    "periods", [(1.5, 2), 2.5, (1, float("nan")), "12"], ids=["1.5,2", "2.5", "1,nan", "text"]
)
def test_trig_periods_that_are_not_whole_are_refused(periods):
    # a fractional period would be truncated; the rule names its field
    with pytest.raises(ValueError, match="trig_periods") as err:
        ScalarFunctionSpec(kind="periodic_trig", trig_amplitude=0.1, trig_periods=periods)
    assert err.value.field == "trig_periods"


def test_whole_trig_periods_are_kept_as_integers():
    # a single number is one period for every axis
    for periods, kept in (((1.0, 2), (1, 2)), (2, (2,)), (3.0, (3,)), (np.int64(2), (2,))):
        spec = ScalarFunctionSpec(kind="periodic_trig", trig_amplitude=0.1, trig_periods=periods)
        assert spec.trig_periods == kept
        assert all(type(m) is int for m in spec.trig_periods)


# ---------------------------------------------------------------------------
# problem specs


def test_problem_spec_rejects_bad_orders():
    with pytest.raises(ValueError, match="s1"):
        constant_problem(s=0.0)
    with pytest.raises(ValueError, match="s1"):
        constant_problem(s=1.5)


def test_delta_eff_constant_weights():
    prob = constant_problem(v1=1.0, v2=1.0, lam=0.5)
    assert prob.delta_eff == pytest.approx(0.5, rel=1e-14)
    prob2 = constant_problem(v1=4.0, v2=1.0, lam=1.0)
    assert prob2.delta_eff == pytest.approx(0.5, rel=1e-14)


def test_with_coupling_scale_scales_delta():
    prob = constant_problem(v1=1.0, v2=1.0, lam=0.5)
    assert prob.with_coupling_scale(0.4).delta_eff == pytest.approx(0.2, rel=1e-12)
    assert prob.with_coupling_scale(0.0).delta_eff == 0.0


def test_delta_eff_degenerate_potential_is_infinite():
    prob = constant_problem(v1=0.0, v2=1.0, lam=0.5)
    assert prob.delta_eff == np.inf


def test_subcritical_bound():
    prob = constant_problem(dim=2, s=0.5)
    assert prob.subcritical_bound(0.5) == pytest.approx(4.0, rel=1e-14)
    assert prob.subcritical_bound(0.8) == pytest.approx(10.0, rel=1e-12)
    assert prob.subcritical_bound(1.0) == np.inf
    prob3 = constant_problem(dim=3, n=8, s=1.0)
    assert prob3.subcritical_bound(1.0) == pytest.approx(6.0, rel=1e-14)


def test_periodic_reference_switch():
    spec = ScalarFunctionSpec(
        kind="periodic_plus_perturbation",
        base_constant=1.0,
        perturbation_amplitude=-0.2,
        perturbation_width=0.5,
    )
    base = constant_problem()
    prob = dataclasses.replace(base, V1=spec)
    full = prob
    ref = prob.without_perturbations()
    center = tuple([base.grid.n_per_axis // 2] * 2)
    assert full.V1_field.values[center] == pytest.approx(0.8, abs=1e-14)
    assert ref.V1_field.values[center] == pytest.approx(1.0, abs=1e-14)


def test_without_perturbations_is_the_periodic_view_of_the_audit():
    # a problem with no perturbation is its own periodic limit, caches and all
    flat = constant_problem()
    assert flat.without_perturbations() is flat
    # the reference's perturbed view is the original's periodic one
    prob = perturbed_problem()
    ref = prob.without_perturbations()
    assert all(
        getattr(ref, w).perturbation_amplitude == 0.0 for w in ("V1", "V2", "coupling")
    )
    assert ref.without_perturbations() is ref
    mine, theirs = validate_assumptions(prob).constants, validate_assumptions(ref).constants
    assert theirs["V_0"] == mine["V_p"]
    assert theirs["delta_perturbed"] == mine["delta_periodic"]


def test_periodic_reference_is_one_problem_sampled_by_the_audit(monkeypatch):
    # the periodic limit is derived once per problem, so the weights the
    # perturbed problem's audit samples on it are the ones its own audit
    # and a solve of it (compare_periodic_limit) read: none is sampled again
    prob = perturbed_problem()
    assert validate_assumptions(prob).all_passed
    ref = prob.without_perturbations()
    assert ref is prob.without_perturbations() and ref is not prob
    assert {"V1_field", "V2_field", "coupling_field"} <= ref.__dict__.keys()
    sampled = []
    sample = model.sample_function

    def counted(spec, grid):
        sampled.append(spec)
        return sample(spec, grid)

    monkeypatch.setattr(model, "sample_function", counted)
    assert validate_assumptions(prob.without_perturbations()).all_passed
    assert sampled == []


# ---------------------------------------------------------------------------
# hypothesis validation


def test_validator_passes_constant_baseline():
    report = validate_assumptions(constant_problem())
    assert report.all_passed
    assert report.failures() == []
    assert report.constants["delta_eff"] == pytest.approx(0.5 / np.sqrt(1.5), rel=1e-12)
    text = report.render()
    assert "[PASS]" in text and "[FAIL]" not in text


def test_scaled_problem_takes_its_own_audit():
    # the report is cached per problem: a scaled copy of a passing problem
    # is audited afresh, and fails when its coupling breaks delta < 1
    prob = constant_problem()
    assert validate_assumptions(prob).all_passed
    scaled = prob.with_coupling_scale(3.0)
    assert [c.name for c in validate_assumptions(scaled).failures()] == [
        "periodic_coupling_small",
        "coupling_perturbation_raises",
        "coupling_size_effective",
    ]
    assert validate_assumptions(prob).all_passed


def test_report_constants_cannot_be_changed_by_a_caller():
    prob = constant_problem()
    report = validate_assumptions(prob)
    with pytest.raises(TypeError):
        report.constants["delta_eff"] = 0.0
    assert validate_assumptions(prob).constants["delta_eff"] == prob.delta_eff


def test_validator_fitted_exponents_pure_power():
    # nq(t) = t^4 / 2 exactly, so the fitted exponent is 4 and the
    # witnessed constant is 1/2
    report = validate_assumptions(constant_problem(nl_kind="pure_power", p=4.0, s=0.8))
    assert report.all_passed
    assert report.constants["alpha_nl1"] == pytest.approx(4.0, abs=1e-9)
    assert report.constants["a2_nl1"] == pytest.approx(0.5, rel=1e-9)


def test_validator_flags_large_coupling():
    report = validate_assumptions(constant_problem(v1=1.0, v2=1.0, lam=1.0))
    assert not report.all_passed
    names = [c.name for c in report.failures()]
    assert "coupling_size_effective" in names
    assert report.constants["delta_eff"] == pytest.approx(1.0, rel=1e-14)
    assert "[FAIL]" in report.render()


def test_validator_flags_critical_growth():
    # in two dimensions the quartic power sits exactly at the critical
    # exponent for order one half, and below it for order 0.8
    bad = validate_assumptions(constant_problem(nl_kind="pure_power", p=4.0, s=0.5))
    names = [c.name for c in bad.failures()]
    assert "growth_subcritical_nl1" in names
    assert "growth_subcritical_nl2" in names
    good = validate_assumptions(constant_problem(nl_kind="pure_power", p=4.0, s=0.8))
    assert good.all_passed


def test_validator_flags_wrong_sign_perturbations():
    base = constant_problem()
    raised_potential = dataclasses.replace(
        base,
        V1=ScalarFunctionSpec(
            kind="periodic_plus_perturbation",
            base_constant=1.0,
            perturbation_amplitude=0.2,
            perturbation_width=0.5,
        ),
    )
    rep = validate_assumptions(raised_potential)
    assert "potential_perturbations_lower" in [c.name for c in rep.failures()]

    lowered_coupling = dataclasses.replace(
        base,
        coupling=ScalarFunctionSpec(
            kind="periodic_plus_perturbation",
            base_constant=0.5,
            perturbation_amplitude=-0.2,
            perturbation_width=0.5,
        ),
    )
    rep = validate_assumptions(lowered_coupling)
    assert "coupling_perturbation_raises" in [c.name for c in rep.failures()]


def test_validator_flags_slow_perturbation_decay():
    base = constant_problem()
    wide = dataclasses.replace(
        base,
        V1=ScalarFunctionSpec(
            kind="periodic_plus_perturbation",
            base_constant=1.0,
            perturbation_amplitude=-0.2,
            perturbation_width=4.0,
        ),
    )
    rep = validate_assumptions(wide)
    assert "perturbation_decay" in [c.name for c in rep.failures()]

    narrow = dataclasses.replace(
        base,
        V1=ScalarFunctionSpec(
            kind="periodic_plus_perturbation",
            base_constant=1.0,
            perturbation_amplitude=-0.2,
            perturbation_width=0.5,
        ),
    )
    assert validate_assumptions(narrow).all_passed


def test_validator_flags_nonpositive_potential():
    rep = validate_assumptions(constant_problem(v1=-1.0, v2=1.0, lam=0.1))
    names = [c.name for c in rep.failures()]
    assert "periodic_potentials_positive" in names
    assert rep.constants["V_p"] == -1.0


def test_validator_log_power_exponents():
    report = validate_assumptions(constant_problem())
    alpha = report.constants["alpha_nl1"]
    assert 1.5 < alpha < 3.0
    assert report.constants["alpha_threshold"] == pytest.approx(0.5, rel=1e-12)
    assert report.constants["p_nl1"] == 2.5


@pytest.mark.parametrize("gamma", [float("inf"), float("nan")])
def test_log_power_gamma_must_be_finite(gamma):
    # an infinite or undefined exponent would break the series for F
    with pytest.raises(ValueError, match="gamma"):
        NonlinearitySpec(kind="log_power", gamma=gamma)


def test_log_power_series_ends_on_overflow():
    # W^(gamma+1) overflows above W = 1, so the first term of the nq series
    # is 0 * inf; entries below W = 1 keep their (tiny) values
    nl = NonlinearitySpec(kind="log_power", gamma=1.0e300)
    t = np.array([0.0, 0.5, 2.0])
    with np.errstate(over="ignore", invalid="ignore"):
        nq = nl.nq(t)
        F = nl.F(t)
    assert nq[0] == 0.0 and nq[1] == 0.0 and np.isnan(nq[2])
    assert F[0] == 0.0 and F[1] == 0.0 and F[2] == np.inf


def test_log_power_integrals_return_at_once_on_empty_input(monkeypatch):
    # a scalar solve's zero partner has no positive entries: F and nq of an
    # empty array run no Horner step
    from fracground import model

    calls = []
    table = model._log_power_table

    def counted(*args):
        calls.append(1)
        return table(*args)

    monkeypatch.setattr(model, "_log_power_table", counted)
    nl = NonlinearitySpec(kind="log_power", gamma=1.5)
    for evaluate in (nl.F, nl.nq):
        out = evaluate(np.array([]))
        assert out.shape == (0,)
    assert calls == []
    assert nl.F(np.array([0.5])) > 0.0
    assert calls == [1]


@pytest.mark.parametrize("kind", ["constant", "periodic_trig", "periodic_plus_perturbation"])
def test_perturbation_width_must_be_positive_for_every_kind(kind):
    with pytest.raises(ValueError, match="perturbation_width"):
        ScalarFunctionSpec(kind=kind, perturbation_width=0.0)
