"""The coupled energy functional, its gradient, and the ray constraint."""

import dataclasses
import sys

import numpy as np
import pytest

from fracground import (
    Field,
    GridMismatch,
    NonlinearitySpec,
    ProblemSpec,
    ScalarFunctionSpec,
    StatePair,
    ValidationFailed,
    coupled_quadratic,
    energy,
    gradient,
    l2_norm_pair,
    make_grid,
    nehari_project,
    nehari_value,
    validate_assumptions,
)
from helpers import constant_problem, constant_spec, full_symbol, smooth_pair
from test_acceptance import perturbed_problem


def _trig_fixture(n=64):
    """One-dimensional pair with exactly computable energy terms.

    On [0, 2 pi) with u = 2 + cos(2x), v = 1 + 0.5 sin(x), unit potentials,
    constant coupling 1/4, quartic nonlinearity, and order one half, every
    term of the energy is a trigonometric polynomial, so grid sums equal the
    exact integrals:

        quad_u = 2 pi + 9 pi          quad_v = 0.25 pi + 2.25 pi
        coupling term = 2 pi          F integrals = 14.1875 pi, 0.88671875 pi
        total = 5.75 pi - 15.07421875 pi = -9.32421875 pi
    """
    g = make_grid(1, n, 2.0 * np.pi)
    x = g.axis_coordinates()
    prob = ProblemSpec(
        grid=g,
        s1=0.5,
        s2=0.5,
        V1=constant_spec(1.0),
        V2=constant_spec(1.0),
        coupling=constant_spec(0.25),
        nl1=NonlinearitySpec(kind="pure_power", p=4.0),
        nl2=NonlinearitySpec(kind="pure_power", p=4.0),
    )
    state = StatePair(
        u=Field(g, 2.0 + np.cos(2.0 * x)),
        v=Field(g, 1.0 + 0.5 * np.sin(x)),
    )
    return prob, state


@pytest.mark.parametrize("n", [32, 64, 256])
def test_energy_trig_fixture_value(n):
    prob, state = _trig_fixture(n)
    bd = energy(state, prob)
    assert bd.quad_u == pytest.approx(11.0 * np.pi, rel=1e-13)
    assert bd.quad_v == pytest.approx(2.5 * np.pi, rel=1e-13)
    assert bd.coupling_term == pytest.approx(2.0 * np.pi, rel=1e-13)
    assert bd.F1_integral == pytest.approx(14.1875 * np.pi, rel=1e-13)
    assert bd.F2_integral == pytest.approx(0.88671875 * np.pi, rel=1e-13)
    assert bd.total == pytest.approx(-9.32421875 * np.pi, rel=1e-12)


def test_nehari_value_trig_fixture():
    # Q = 11.5 pi while int f(u)u + f(v)v = (56.75 + 3.546875) pi
    prob, state = _trig_fixture()
    expected = (11.5 - 56.75 - 3.546875) * np.pi
    assert nehari_value(state, prob) == pytest.approx(expected, rel=1e-12)
    assert coupled_quadratic(state, prob) == pytest.approx(11.5 * np.pi, rel=1e-13)


def test_energy_breakdown_identity():
    prob = constant_problem()
    for seed in range(4):
        state = smooth_pair(prob, seed)
        bd = energy(state, prob)
        recombined = (
            0.5 * (bd.quad_u + bd.quad_v - bd.coupling_term)
            - bd.F1_integral
            - bd.F2_integral
        )
        assert bd.total == pytest.approx(recombined, rel=1e-12)
        assert coupled_quadratic(state, prob) == pytest.approx(
            bd.quad_u + bd.quad_v - bd.coupling_term, rel=1e-12
        )


def test_zero_state_has_zero_energy():
    prob = constant_problem()
    g = prob.grid
    zero = StatePair(Field(g, np.zeros(g.shape)), Field(g, np.zeros(g.shape)))
    bd = energy(zero, prob)
    assert bd.total == 0.0
    assert bd.quad_u == 0.0
    assert bd.F1_integral == 0.0


def test_single_component_state_decouples():
    prob = constant_problem()
    g = prob.grid
    rng = np.random.default_rng(2)
    u = np.abs(rng.standard_normal(g.shape)) + 0.1
    state = StatePair(Field(g, u), Field(g, np.zeros(g.shape)))
    bd = energy(state, prob)
    assert bd.quad_v == 0.0
    assert bd.coupling_term == 0.0
    assert bd.F2_integral == 0.0


def test_negative_parts_do_not_feed_nonlinearity():
    prob = constant_problem()
    g = prob.grid
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(g.shape)
    assert np.any(vals < 0.0)
    mixed = StatePair(Field(g, vals), Field(g, -np.abs(vals)))
    clipped = StatePair(
        Field(g, np.maximum(vals, 0.0)), Field(g, np.zeros(g.shape))
    )
    assert energy(mixed, prob).F1_integral == pytest.approx(
        energy(clipped, prob).F1_integral, rel=1e-14
    )
    assert energy(mixed, prob).F2_integral == 0.0


@pytest.mark.parametrize("nl_kind,seed", [("log_power", 0), ("pure_power", 1)])
def test_gradient_matches_finite_differences(nl_kind, seed):
    prob = constant_problem(nl_kind=nl_kind)
    state = smooth_pair(prob, seed)
    direction = smooth_pair(prob, seed + 100, positive=False)
    g = prob.grid

    grad = gradient(state, prob)
    pairing = g.cell_volume * (
        np.sum(grad.u.values * direction.u.values)
        + np.sum(grad.v.values * direction.v.values)
    )

    eps = 1e-5
    def shifted(sign):
        return StatePair(
            Field(g, state.u.values + sign * eps * direction.u.values),
            Field(g, state.v.values + sign * eps * direction.v.values),
        )

    fd = (energy(shifted(+1), prob).total - energy(shifted(-1), prob).total) / (
        2.0 * eps
    )
    assert fd == pytest.approx(pairing, rel=1e-6)


def test_gradient_matches_direct_assembly():
    from fracground import apply_frac_laplacian

    prob = constant_problem()
    state = smooth_pair(prob, 9)
    grad = gradient(state, prob)

    lam = prob.coupling_field.values
    expect_u = (
        apply_frac_laplacian(state.u, prob.s1).values
        + prob.V1_field.values * state.u.values
        - prob.nl1.f(state.u.values)
        - lam * state.v.values
    )
    expect_v = (
        apply_frac_laplacian(state.v, prob.s2).values
        + prob.V2_field.values * state.v.values
        - prob.nl2.f(state.v.values)
        - lam * state.u.values
    )
    scale = np.max(np.abs(expect_u)) + np.max(np.abs(expect_v))
    assert np.max(np.abs(grad.u.values - expect_u)) <= 1e-12 * scale
    assert np.max(np.abs(grad.v.values - expect_v)) <= 1e-12 * scale


def test_preconditioned_gradient_is_descentlike():
    # the preconditioner is positive definite, so the preconditioned
    # gradient must stay in the same half space as the plain one
    prob = constant_problem()
    for seed in range(3):
        state = smooth_pair(prob, seed)
        plain = gradient(state, prob)
        pre = gradient(state, prob, preconditioned=True)
        g = prob.grid
        inner = g.cell_volume * (
            np.sum(plain.u.values * pre.u.values)
            + np.sum(plain.v.values * pre.v.values)
        )
        assert inner > 0.0
        assert l2_norm_pair(pre) > 0.0


def test_nehari_value_is_ray_derivative():
    prob = constant_problem()
    state = smooth_pair(prob, 4)
    eps = 1e-6
    up = energy(state.scaled(1.0 + eps), prob).total
    down = energy(state.scaled(1.0 - eps), prob).total
    fd = (up - down) / (2.0 * eps)
    assert fd == pytest.approx(nehari_value(state, prob), rel=1e-6)


@pytest.mark.parametrize("delta", [0.3, 0.6, 0.9])
def test_quadratic_form_coercive(delta):
    prob = constant_problem(v1=1.0, v2=1.0, lam=delta)
    assert prob.delta_eff == pytest.approx(delta, rel=1e-14)
    from fracground import hs_quadratic_form

    for seed in range(20):
        state = smooth_pair(prob, seed, positive=False)
        q = coupled_quadratic(state, prob)
        norm_sq = hs_quadratic_form(
            state.u, prob.s1, prob.V1_field
        ) + hs_quadratic_form(state.v, prob.s2, prob.V2_field)
        assert q >= (1.0 - delta) * norm_sq - 1e-10 * norm_sq


def test_scaled_pair_properties():
    # a scaled pair carries t times the spectra already taken: its quadratic
    # form is t^2 times the original's, and its energy equals that of a pair
    # built afresh from the same values
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(
        max_examples=60, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(
        seed=st.integers(0, 2**16),
        log_t=st.floats(-3.0, 3.0),
        s=st.floats(0.1, 1.0),
        nl_kind=st.sampled_from(["log_power", "pure_power"]),
        positive=st.booleans(),
    )
    def check(seed, log_t, s, nl_kind, positive):
        prob = constant_problem(n=16, s=s, nl_kind=nl_kind, gamma=1.5, p=3.0)
        g = prob.grid
        t = 10.0**log_t
        x = smooth_pair(prob, seed, positive=positive)
        Q = coupled_quadratic(x, prob)
        scaled = x.scaled(t)
        assert abs(coupled_quadratic(scaled, prob) - t * t * Q) <= 1e-13 * t * t * Q
        parts = energy(scaled, prob)
        fresh = energy(StatePair(Field(g, scaled.u.values), Field(g, scaled.v.values)), prob)
        size = 0.5 * (fresh.quad_u + fresh.quad_v + abs(fresh.coupling_term))
        size += abs(fresh.F1_integral) + abs(fresh.F2_integral)
        assert abs(parts.total - fresh.total) <= 1e-13 * size

    check()


def _identity_check(test):
    """Run test(prob, x) over seeds, ray scales x = t * (a smooth positive
    pair), orders and nonlinearities."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(
        max_examples=60, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(
        seed=st.integers(0, 2**16),
        log_t=st.floats(-2.0, 2.0),
        s=st.floats(0.1, 1.0),
        nl_kind=st.sampled_from(["log_power", "pure_power"]),
    )
    def check(seed, log_t, s, nl_kind):
        prob = constant_problem(n=16, s=s, nl_kind=nl_kind, gamma=1.5, p=3.0)
        test(prob, smooth_pair(prob, seed).scaled(10.0**log_t))

    check()


def test_energy_breakdown_identity_property():
    # the total is the displayed combination of the parts, and
    # coupled_quadratic is their quadratic part
    def test(prob, x):
        bd = energy(x, prob)
        Q = bd.quad_u + bd.quad_v - bd.coupling_term
        F = bd.F1_integral + bd.F2_integral
        assert abs(bd.total - (0.5 * Q - F)) <= 1e-12 * (0.5 * Q + F)
        assert abs(coupled_quadratic(x, prob) - Q) <= 1e-12 * Q

    _identity_check(test)


def test_nehari_value_is_ray_derivative_property():
    # the central difference of t -> I(t x) at t = 1 is nehari_value(x),
    # which ties F to f; on these pairs it agrees to about 1e-10 of the
    # size of the terms
    def test(prob, x):
        eps = 1e-6
        up = energy(x.scaled(1.0 + eps), prob).total
        down = energy(x.scaled(1.0 - eps), prob).total
        Q = coupled_quadratic(x, prob)
        nv = nehari_value(x, prob)
        size = Q + (Q - nv)
        assert abs((up - down) / (2.0 * eps) - nv) <= 1e-8 * size

    _identity_check(test)


def test_energy_translation_invariance():
    # rolling the state by a full period of every weight leaves the
    # energy unchanged; sampled trig weights make this exact resampling
    g = make_grid(2, 32, 8.0)
    trig = ScalarFunctionSpec(
        kind="periodic_trig", base_constant=1.5, trig_amplitude=0.3, trig_periods=(2, 1)
    )
    prob = ProblemSpec(
        grid=g,
        s1=0.5,
        s2=0.5,
        V1=trig,
        V2=trig,
        coupling=constant_spec(0.4),
        nl1=NonlinearitySpec(kind="log_power", gamma=1.0),
        nl2=NonlinearitySpec(kind="log_power", gamma=1.0),
    )
    state = smooth_pair(prob, 8)
    shift = (g.n_per_axis // 2, g.n_per_axis)  # one period along each axis
    rolled = StatePair(
        Field(g, np.roll(state.u.values, shift, axis=(0, 1))),
        Field(g, np.roll(state.v.values, shift, axis=(0, 1))),
    )
    e0 = energy(state, prob).total
    e1 = energy(rolled, prob).total
    assert e1 == pytest.approx(e0, rel=1e-10)


def test_state_pair_helpers():
    prob = constant_problem()
    g = prob.grid
    ones = StatePair(Field(g, np.ones(g.shape)), Field(g, np.ones(g.shape)))
    doubled = ones.scaled(2.0)
    assert np.all(doubled.u.values == 2.0)


def test_grid_mismatch_rejected():
    prob = constant_problem(n=32)
    other = make_grid(2, 16, 8.0)
    state = StatePair(Field(other, np.ones(other.shape)), Field(other, np.ones(other.shape)))
    with pytest.raises(GridMismatch):
        energy(state, prob)
    with pytest.raises(GridMismatch):
        StatePair(
            Field(prob.grid, np.ones(prob.grid.shape)),
            Field(other, np.ones(other.shape)),
        )


def test_energy_respects_periodic_reference_flag():
    base = constant_problem()
    pert = dataclasses.replace(
        base,
        V1=ScalarFunctionSpec(
            kind="periodic_plus_perturbation",
            base_constant=1.0,
            perturbation_amplitude=-0.2,
            perturbation_width=0.5,
        ),
    )
    state = smooth_pair(pert, 5)
    full = energy(state, pert).total
    ref = energy(state, pert.without_perturbations()).total
    # the lowered potential strictly lowers the quadratic part for any
    # state that is nonzero near the center
    assert full < ref


def test_gradient_takes_the_mean_potentials_once_per_problem(monkeypatch):
    # the preconditioner, the inverse of the block [[|xi|^(2 s1) + mean(V1),
    # -mean(lambda)], [-mean(lambda), |xi|^(2 s2) + mean(V2)]], is kept on
    # the problem, so neither the mean potentials nor the mean coupling are
    # taken again
    prob = constant_problem(n=16)
    state = smooth_pair(prob, 0)
    calls = []
    mean, mean_coupling = ProblemSpec.mean_potential, ProblemSpec.mean_coupling

    def counted(self, which):
        calls.append(which)
        return mean(self, which)

    def counted_coupling(self):
        calls.append("coupling")
        return mean_coupling(self)

    monkeypatch.setattr(ProblemSpec, "mean_potential", counted)
    monkeypatch.setattr(ProblemSpec, "mean_coupling", counted_coupling)
    first = gradient(state, prob, preconditioned=True)
    taken = len(calls)
    assert calls.count("coupling") == 1
    again = gradient(state, prob, preconditioned=True)
    assert len(calls) == taken
    assert np.array_equal(first.u.values, again.u.values)
    assert np.array_equal(first.v.values, again.v.values)


@pytest.mark.parametrize("preconditioned", [False, True])
@pytest.mark.parametrize(
    "dim,n,s,kind", [(1, 64, 0.3, "log_power"), (2, 32, 0.5, "log_power"), (3, 16, 0.8, "pure_power")]
)
def test_gradient_real_transform_matches_complex_reference(dim, n, s, kind, preconditioned):
    # the real-transform gradient, with the preconditioner mixed into the
    # operator's inverse transforms, against the complex formula with an
    # explicit 2x2 solve per mode
    prob = constant_problem(dim=dim, n=n, s=s, nl_kind=kind)
    state = smooth_pair(prob, 3, positive=False)
    lam = prob.coupling_field.values
    sym = full_symbol(prob.grid, s)
    refs = [
        np.fft.ifftn(sym * np.fft.fftn(w)).real + V * w - nl.f(w) - lam * other
        for w, other, V, nl in (
            (state.u.values, state.v.values, prob.V1_field.values, prob.nl1),
            (state.v.values, state.u.values, prob.V2_field.values, prob.nl2),
        )
    ]
    if preconditioned:
        block = np.empty(sym.shape + (2, 2))
        block[..., 0, 0] = sym + np.mean(prob.V1_field.values)
        block[..., 1, 1] = sym + np.mean(prob.V2_field.values)
        block[..., 0, 1] = block[..., 1, 0] = -np.mean(lam)
        rhs = np.stack([np.fft.fftn(r) for r in refs], axis=-1)[..., None]
        solved = np.linalg.solve(block.astype(complex), rhs)[..., 0]
        refs = [np.fft.ifftn(solved[..., i]).real for i in range(2)]
    out = gradient(state, prob, preconditioned=preconditioned)
    for got, ref in zip((out.u.values, out.v.values), refs):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "problem",
    [
        perturbed_problem(),
        perturbed_problem().without_perturbations(),
        constant_problem(lam=0.99 * np.sqrt(1.5)),
    ],
    ids=["perturbed", "periodic_reference", "constant_delta_0.99"],
)
def test_block_preconditioner_is_positive_definite_under_the_audit(problem):
    # |mean(lambda)| <= delta sqrt(mean(V1) mean(V2)) by Cauchy-Schwarz, so
    # ab - mean(lambda)^2 >= (1 - delta^2) ab on every mode
    assert validate_assumptions(problem).all_passed
    delta = problem.delta_eff
    a = problem.grid.symbol(problem.s1) + np.mean(problem.V1_field.values)
    b = problem.grid.symbol(problem.s2) + np.mean(problem.V2_field.values)
    lam = np.mean(problem.coupling_field.values)
    det = a * b - lam**2
    assert np.all(det >= (1.0 - delta**2) * a * b * (1.0 - 1e-12))
    assert np.min(det) > 0.0
    p11, p12, p22 = problem._preconditioner
    for got, want in ((p11, b / det), (p12, lam / det), (p22, a / det)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.min(p11) > 0.0 and np.min(p11 * p22 - p12**2) > 0.0


@pytest.mark.parametrize("dim,n,s1,s2", [(1, 64, 0.3, 0.7), (2, 32, 0.5, 0.8), (3, 16, 0.9, 0.4)])
def test_block_preconditioner_inverts_the_constant_weight_linear_part(dim, n, s1, s2):
    # with constant weights the block is the linear part itself, so applying
    # [[|xi|^(2 s1) + V1, -lambda], [-lambda, |xi|^(2 s2) + V2]] to the
    # preconditioned gradient gives back the plain one
    prob = dataclasses.replace(constant_problem(dim=dim, n=n, s=s1, lam=0.9), s2=s2)
    state = smooth_pair(prob, 5)
    plain = gradient(state, prob)
    pre = gradient(state, prob, preconditioned=True)
    lam = 0.9
    hu, hv = np.fft.fftn(pre.u.values), np.fft.fftn(pre.v.values)
    back_u = np.fft.ifftn((full_symbol(prob.grid, s1) + 1.0) * hu - lam * hv).real
    back_v = np.fft.ifftn((full_symbol(prob.grid, s2) + 1.5) * hv - lam * hu).real
    scale = max(np.max(np.abs(plain.u.values)), np.max(np.abs(plain.v.values)))
    assert np.max(np.abs(back_u - plain.u.values)) <= 1e-13 * scale
    assert np.max(np.abs(back_v - plain.v.values)) <= 1e-13 * scale


def test_shifted_block_keeps_its_margins_on_every_mode():
    # over the orders, the coupling and the row minima m1, m2 >= 0: the
    # descent's preconditioner inverts, mode by mode, a block [[A, -l],
    # [-l, B]] with A = a - k1 and B = b - k2, one pair of shifts (k1, k2)
    # on the zero mode and one on every other mode, each between 0 and the
    # slope; every mode keeps at least 10% of a, of b and of ab - l^2.  A
    # negligible shift leaves the unshifted preconditioner itself
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(
        max_examples=80, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(
        s1=st.floats(0.1, 1.0),
        s2=st.floats(0.1, 1.0),
        delta=st.floats(-0.99, 0.99),
        m1=st.one_of(st.just(0.0), st.floats(0.0, 1.0e3)),
        m2=st.one_of(st.just(0.0), st.floats(0.0, 1.0e3)),
        nl_kind=st.sampled_from(["log_power", "pure_power"]),
    )
    def check(s1, s2, delta, m1, m2, nl_kind):
        base = constant_problem(
            dim=2, n=16, s=s1, lam=delta * np.sqrt(1.5), nl_kind=nl_kind, gamma=1.5, p=3.0
        )
        prob = dataclasses.replace(base, s2=s2)
        block = prob._shifted_preconditioner(m1, m2)
        a = prob.grid.symbol(s1) + 1.0
        b = prob.grid.symbol(s2) + 1.5
        lam = delta * np.sqrt(1.5)
        c1, c2 = prob.nl1._slope(m1), prob.nl2._slope(m2)
        negligible = c1 < 0.02 * a.flat[1] and c2 < 0.02 * b.flat[1]
        assert (block is prob._preconditioner) == negligible
        if negligible:
            return
        # the block the preconditioner inverts
        p11, p12, p22 = block
        det = p11 * p22 - p12 * p12
        A, B, coupling = p22 / det, p11 / det, p12 / det
        assert np.allclose(coupling, lam, rtol=1e-12, atol=1e-12)
        keep = 0.1 * (1.0 - 1e-12)
        assert np.all(A >= keep * a) and np.all(B >= keep * b)
        assert np.all(A * B - lam * lam >= keep * (a * b - lam * lam))
        # each shift is theta times the slope at the row's least value, one
        # theta on the zero mode and one on every other mode
        for full, shifted, c in ((a, A, c1), (b, B, c2)):
            shift = (full - shifted).ravel()
            tol = 1e-12 * full.ravel()
            assert np.all(shift >= -tol) and np.all(shift <= c + tol)
            assert np.all(np.abs(shift[1:] - shift[1]) <= tol[1:] + 1e-12 * c)

    check()


@pytest.mark.parametrize(
    "problem,check",
    [
        (constant_problem(v1=0.0), "periodic_potentials_positive"),
        (constant_problem(lam=2.0), "coupling_size_effective"),
    ],
    ids=["V1_zero", "lambda_2"],
)
def test_preconditioner_not_positive_definite_is_refused_typed(problem, check):
    # V1 = 0 leaves the zero mode without a positive diagonal; lambda = 2
    # against V = (1, 1.5) (delta_eff = 1.63) makes the block indefinite
    assert check in {c.name for c in validate_assumptions(problem).failures()}
    state = smooth_pair(problem, 1)
    with pytest.raises(ValidationFailed, match=check):
        gradient(state, problem, preconditioned=True)
    # the plain gradient needs no preconditioner
    assert np.all(np.isfinite(gradient(state, problem).u.values))


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
def test_preconditioned_gradient_carries_its_transform(dim, n):
    # the output pair keeps the mixed half spectra it was transformed back
    # from, each row of which must be the transform of that row's values up
    # to rounding; unequal orders and a nonzero mean coupling mix the two
    # components.  The pair carries the transform, its rows none.
    prob = dataclasses.replace(constant_problem(dim=dim, n=n, s=0.4), s2=0.9)
    assert prob.mean_coupling() != 0.0
    grad = gradient(smooth_pair(prob, 3), prob, preconditioned=True)
    assert "spectrum" in grad.__dict__
    for i in (0, 1):
        fresh = np.fft.rfftn(grad.values[i])
        assert np.max(np.abs(grad.spectrum[i] - fresh)) <= 1e-13 * np.max(np.abs(fresh))
    assert "spectrum" not in grad.u.__dict__ and "spectrum" not in grad.v.__dict__
    plain = gradient(smooth_pair(prob, 3), prob)
    assert "spectrum" not in plain.__dict__


def test_quadratic_parts_are_kept_for_their_own_problem(monkeypatch):
    # a pair keeps the parts of the problem (by identity) they were computed
    # for and carries them through scaled(); another problem, even one
    # derived from it, computes its own, in one pass over both components
    energy_module = sys.modules["fracground.energy"]
    calls = []
    quadratic_pass = energy_module._quadratic_pass

    def counted(state, problem):
        calls.append(1)
        return quadratic_pass(state, problem)

    monkeypatch.setattr(energy_module, "_quadratic_pass", counted)
    prob = constant_problem()
    state = smooth_pair(prob, 0)
    Q = coupled_quadratic(state, prob)
    assert len(calls) == 1
    assert coupled_quadratic(state.scaled(3.0), prob) == pytest.approx(9.0 * Q, rel=1e-15)
    assert len(calls) == 1
    other = prob.with_coupling_scale(0.0)
    scaled = state.scaled(3.0)
    Q_other = coupled_quadratic(scaled, other)
    assert len(calls) == 2
    g = prob.grid
    fresh = StatePair(Field(g, scaled.u.values), Field(g, scaled.v.values))
    assert Q_other == pytest.approx(coupled_quadratic(fresh, other), rel=1e-14)
    assert Q_other > 9.0 * Q


# ---------------------------------------------------------------------------
# the stacked pair against a per-component reference


def _per_component_reference(state, prob):
    """Energy terms, both gradients and the ray scale of a pair, built one
    component at a time from hs_quadratic_form, the NonlinearitySpec
    methods and numpy's transform of each field."""
    from scipy.optimize import brentq

    from fracground import hs_quadratic_form

    g, dV = prob.grid, prob.grid.cell_volume
    u, v = np.array(state.u.values), np.array(state.v.values)
    lam = prob.coupling_field.values
    quad_u = hs_quadratic_form(Field(g, u), prob.s1, prob.V1_field)
    quad_v = hs_quadratic_form(Field(g, v), prob.s2, prob.V2_field)
    coupling_term = 2.0 * dV * float(np.sum(lam * u * v))
    F1 = dV * float(np.sum(prob.nl1.F(u)))
    F2 = dV * float(np.sum(prob.nl2.F(v)))
    breakdown = {
        "quad_u": quad_u,
        "quad_v": quad_v,
        "coupling_term": coupling_term,
        "F1_integral": F1,
        "F2_integral": F2,
        "total": 0.5 * (quad_u + quad_v - coupling_term) - F1 - F2,
    }

    axes = tuple(range(g.dim))
    sym1, sym2 = g.symbol(prob.s1), g.symbol(prob.s2)
    hat_u, hat_v = np.fft.rfftn(u, axes=axes), np.fft.rfftn(v, axes=axes)
    local_u = prob.V1_field.values * u - prob.nl1.f(u) - lam * v
    local_v = prob.V2_field.values * v - prob.nl2.f(v) - lam * u

    def back(spec):
        return np.fft.irfftn(spec, s=g.shape, axes=axes)

    plain = (back(sym1 * hat_u) + local_u, back(sym2 * hat_v) + local_v)
    r1 = sym1 * hat_u + np.fft.rfftn(local_u, axes=axes)
    r2 = sym2 * hat_v + np.fft.rfftn(local_v, axes=axes)
    a = sym1 + prob.mean_potential(1)
    b = sym2 + prob.mean_potential(2)
    m = prob.mean_coupling()
    det = a * b - m * m
    pre = (back((b * r1 + m * r2) / det), back((m * r1 + a * r2) / det))

    Q = quad_u + quad_v - coupling_term

    def log_ratio(log_t):
        t = np.exp(log_t)
        N = np.sum(prob.nl1.f(t * u) * t * u) + np.sum(prob.nl2.f(t * v) * t * v)
        return np.log(dV * N / (t * t * Q))

    lo, hi = -1.0, 1.0
    while log_ratio(lo) > 0.0:
        lo *= 2.0
    while log_ratio(hi) < 0.0:
        hi *= 2.0
    t = np.exp(brentq(log_ratio, lo, hi, xtol=1e-300, rtol=1e-15))
    return breakdown, plain, pre, t


def _parity_cases():
    mixed = dataclasses.replace(
        constant_problem(s=0.4),
        s2=0.9,
        nl1=NonlinearitySpec(kind="log_power", gamma=1.5),
        nl2=NonlinearitySpec(kind="pure_power", p=3.0),
    )
    g = mixed.grid
    positive = smooth_pair(mixed, 4)
    zero = Field(g, np.zeros(g.shape))
    return {
        "mixed_positive": (mixed, positive),
        "mixed_zero_partner": (mixed, StatePair(positive.u, zero)),
        "mixed_sign_changing": (mixed, smooth_pair(mixed, 5, positive=False)),
        "shared_sign_changing": (constant_problem(), smooth_pair(constant_problem(), 6, positive=False)),
        "shared_zero_partner": (constant_problem(), StatePair(zero, smooth_pair(mixed, 7).v)),
    }


@pytest.mark.parametrize("case", list(_parity_cases()))
def test_stacked_pair_matches_a_per_component_reference(case):
    # the stacked passes (one transform each way, one call of f, F or dnq
    # per distinct nonlinearity, batched dot products) against each
    # component computed alone: log_power gamma = 1.5 against pure_power
    # p = 3 with s1 != s2, a zero partner, and sign-changing entries
    prob, state = _parity_cases()[case]
    breakdown, plain, pre, t_ref = _per_component_reference(state, prob)
    parts = energy(state, prob)
    scale = abs(breakdown["quad_u"]) + abs(breakdown["quad_v"])
    for name, value in breakdown.items():
        assert abs(getattr(parts, name) - value) <= 1e-13 * max(abs(value), scale), name
    for got, want in ((gradient(state, prob), plain), (gradient(state, prob, True), pre)):
        norm = max(np.max(np.abs(want[0])), np.max(np.abs(want[1])))
        assert np.max(np.abs(got.u.values - want[0])) <= 1e-13 * norm
        assert np.max(np.abs(got.v.values - want[1])) <= 1e-13 * norm
    t, _ = nehari_project(state, prob)
    assert abs(t - t_ref) <= 1e-13 * t_ref


def test_equal_nonlinearities_share_one_evaluation_and_solve_alike(monkeypatch):
    # nonlinearities are grouped by equality: a problem whose nl2 equals nl1
    # but is a distinct object takes one call of f per pass and solves
    # bitwise as the problem holding one object for both
    from fracground import solve_ground_state

    shared = constant_problem()
    distinct = dataclasses.replace(shared, nl2=NonlinearitySpec(kind="log_power", gamma=1.0))
    assert distinct.nl1 == distinct.nl2 and distinct.nl1 is not distinct.nl2
    calls = []
    f = NonlinearitySpec.f

    def counted(self, t):
        calls.append(np.shape(t))
        return f(self, t)

    monkeypatch.setattr(NonlinearitySpec, "f", counted)
    gradient(smooth_pair(distinct, 0), distinct)
    assert calls == [(2,) + distinct.grid.shape]
    monkeypatch.undo()
    one, two = solve_ground_state(shared), solve_ground_state(distinct)
    assert one.converged and two.iterations == one.iterations
    assert two.level == one.level
    assert np.array_equal(two.state.values, one.state.values)


def test_equality_of_the_nonlinearities_is_decided_once_per_problem(monkeypatch):
    # _nonlinearity runs several times per iteration; it compares nl1 and
    # nl2 on its first call only
    x = np.linspace(0.1, 2.0, 10)
    compared = []
    eq = NonlinearitySpec.__eq__

    def counted(self, other):
        compared.append(1)
        return eq(self, other)

    monkeypatch.setattr(NonlinearitySpec, "__eq__", counted)
    for prob in (constant_problem(), _parity_cases()["mixed_positive"][0]):
        compared.clear()
        first = prob._nonlinearity("f", x, 4)
        assert len(compared) == 1
        for _ in range(3):
            assert np.array_equal(prob._nonlinearity("f", x, 4), first)
        assert len(compared) == 1


@pytest.mark.parametrize("case", ["mixed_positive", "mixed_zero_partner", "shared_sign_changing"])
def test_a_projected_pair_takes_its_positive_entries_at_each_energy(case, monkeypatch):
    # energy takes a pair's positive part from StatePair._positive alone and
    # removes nothing the pair keeps: a projected pair positive everywhere
    # hands F its own flat read-only values, any other is gathered, once
    # per energy, and both energies agree
    prob, state = _parity_cases()[case]
    _, projected = nehari_project(state, prob)
    kept = dict(projected.__dict__)
    gathers, taken = [], []
    positive, nonlinearity = StatePair._positive, ProblemSpec._nonlinearity

    def counted(self):
        gathers.append(1)
        return positive(self)

    def recorded(self, name, x, split):
        if name == "F":
            taken.append(x)
        return nonlinearity(self, name, x, split)

    monkeypatch.setattr(StatePair, "_positive", counted)
    monkeypatch.setattr(ProblemSpec, "_nonlinearity", recorded)
    first = energy(projected, prob)
    assert all(projected.__dict__.get(key) is value for key, value in kept.items())
    everywhere = min(projected._row_min) > 0.0
    assert everywhere == (case == "mixed_positive")
    (x,) = taken
    assert gathers == [1] and np.shares_memory(x, projected.values) == everywhere
    assert x.flags.writeable != everywhere
    assert np.array_equal(x, projected.values[projected.values > 0.0])
    again = energy(projected, prob)
    assert gathers == [1, 1] and again == first


def test_a_trial_takes_its_row_minima_from_the_pass_that_builds_it():
    # solver._trial hands the row minima of its clipping pass to the pair
    # it builds, bit for bit each row's least value, whether the clip acted
    # (no spectrum carried) or not (the spectrum carried)
    solver = sys.modules["fracground.solver"]
    prob, state = _parity_cases()["mixed_positive"]
    g = prob.grid
    along_v = StatePair(Field(g, np.zeros(g.shape)),
                        Field(g, np.full(g.shape, state.v.values.mean())))
    for grad, clipped in ((state.scaled(0.5), False), (along_v, True)):
        trial = solver._trial(state, grad, 1.0)
        assert "_row_min" in trial.__dict__ and ("spectrum" in trial.__dict__) != clipped
        assert trial._row_min == tuple(trial.values.reshape(2, -1).min(axis=1).tolist())
        assert (trial._row_min[1] == 0.0) == clipped


def test_a_positive_pair_hands_its_flat_values_as_its_positive_entries():
    # both row minima positive: the positive entries are all the values, in
    # row-major order as the gather takes them, viewed read-only, and the
    # energy's sums over them are bitwise the gather's
    prob, state = _parity_cases()["mixed_positive"]
    assert min(state._row_min) > 0.0
    x, k = state._positive()
    mask = state.values > 0.0
    assert not x.flags.writeable and np.shares_memory(x, state.values)
    assert np.array_equal(x, state.values[mask]) and k == np.count_nonzero(mask[0])
    Fx = prob._nonlinearity("F", state.values[mask], k)
    parts = energy(state, prob)
    dV = prob.grid.cell_volume
    assert parts.F1_integral == dV * float(Fx[:k].sum())
    assert parts.F2_integral == dV * float(Fx[k:].sum())


def test_a_zero_row_or_a_clipped_trial_gathers_its_positive_entries():
    # a row with a zero minimum (a scalar solve's start, a trial the clip
    # changed) is masked: the gather is a fresh array of the positive
    # entries alone
    solver = sys.modules["fracground.solver"]
    prob, zero_row = _parity_cases()["mixed_zero_partner"]
    state = _parity_cases()["mixed_positive"][1]
    # a step along v by its mean turns v negative somewhere, and the clip
    # sets those entries to 0
    along_v = StatePair(Field(prob.grid, np.zeros(prob.grid.shape)),
                        Field(prob.grid, np.full(prob.grid.shape, state.v.values.mean())))
    clipped = solver._trial(state, along_v, 1.0)
    assert clipped._row_min[0] > 0.0 and clipped._row_min[1] == 0.0
    for pair in (zero_row, clipped):
        x, k = pair._positive()
        mask = pair.values > 0.0
        assert x.flags.writeable and not np.shares_memory(x, pair.values)
        assert np.array_equal(x, pair.values[mask]) and k == np.count_nonzero(mask[0])
        assert x.size < pair.values.size


@pytest.mark.parametrize("shape", [(32, 32), (64, 64), (128, 128), (32, 32, 32)])
def test_pair_transform_equals_each_component_transform(shape):
    # one rfftn over the grid axes of the stacked pair, and one irfftn back,
    # give bitwise what each component's own transform over those axes gives
    g = make_grid(len(shape), shape[0], 8.0)
    rng = np.random.default_rng(len(shape) + shape[0])
    state = StatePair(Field(g, rng.standard_normal(shape)), Field(g, rng.standard_normal(shape)))
    spectrum = state.spectrum
    assert spectrum.shape == (2,) + g.symbol(0.5).shape
    back = sys.modules["fracground.grid"]._irfftn(spectrum, g)
    for i, w in enumerate((state.u, state.v)):
        assert np.array_equal(spectrum[i], np.fft.rfftn(w.values))
        assert np.array_equal(back[i], np.fft.irfftn(spectrum[i], s=shape, axes=range(len(shape))))
