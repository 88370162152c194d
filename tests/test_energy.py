"""The coupled energy functional, its gradient, and the ray constraint."""

import dataclasses

import numpy as np
import pytest

from fracground import (
    Field,
    GridMismatch,
    NonlinearitySpec,
    ProblemSpec,
    ScalarFunctionSpec,
    StatePair,
    coupled_quadratic,
    energy,
    gradient,
    l2_norm_pair,
    make_grid,
    nehari_value,
)
from helpers import constant_problem, constant_spec, full_symbol, smooth_pair


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
    assert ones.has_positive_part()
    neg = StatePair(Field(g, -np.ones(g.shape)), Field(g, np.zeros(g.shape)))
    assert not neg.has_positive_part()


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
    full = energy(state, pert.with_periodic_reference(False)).total
    ref = energy(state, pert.with_periodic_reference(True)).total
    # the lowered potential strictly lowers the quadratic part for any
    # state that is nonzero near the center
    assert full < ref


def test_gradient_takes_the_mean_potentials_once_per_problem(monkeypatch):
    # the preconditioner |xi|^(2si) + mean(Vi) is kept on the problem
    prob = constant_problem(n=16)
    state = smooth_pair(prob, 0)
    calls = []
    mean = ProblemSpec.mean_potential

    def counted(self, which):
        calls.append(which)
        return mean(self, which)

    monkeypatch.setattr(ProblemSpec, "mean_potential", counted)
    first = gradient(state, prob, preconditioned=True)
    taken = len(calls)
    again = gradient(state, prob, preconditioned=True)
    assert len(calls) == taken
    assert np.array_equal(first.u.values, again.u.values)
    assert np.array_equal(first.v.values, again.v.values)


@pytest.mark.parametrize("preconditioned", [False, True])
@pytest.mark.parametrize(
    "dim,n,s,kind", [(1, 64, 0.3, "log_power"), (2, 32, 0.5, "log_power"), (3, 16, 0.8, "pure_power")]
)
def test_gradient_real_transform_matches_complex_reference(dim, n, s, kind, preconditioned):
    # the real-transform gradient, with the preconditioner folded into the
    # operator's inverse transform, against the two-stage complex formula
    prob = constant_problem(dim=dim, n=n, s=s, nl_kind=kind)
    state = smooth_pair(prob, 3, positive=False)
    lam = prob.coupling_field.values
    for w, other, V, nl, which, got in (
        (state.u.values, state.v.values, prob.V1_field.values, prob.nl1, 1, "u"),
        (state.v.values, state.u.values, prob.V2_field.values, prob.nl2, 2, "v"),
    ):
        sym = full_symbol(prob.grid, s)
        ref = np.fft.ifftn(sym * np.fft.fftn(w)).real + V * w - nl.f(w) - lam * other
        if preconditioned:
            ref = np.fft.ifftn(np.fft.fftn(ref) / (sym + prob.mean_potential(which))).real
        out = getattr(gradient(state, prob, preconditioned=preconditioned), got).values
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
