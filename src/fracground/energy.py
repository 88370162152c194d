"""Energy functional, gradient, and the ray constraint for coupled pairs.

For a pair (u, v) the functional is

    I(u, v) = 1/2 * (Q1(u) + Q2(v) - 2 int lambda u v) - int F1(u) - int F2(v)

where Qi(w) = int |(-Lap)^(si/2) w|^2 + Vi w^2 is the component quadratic
form.  Its derivative pairs a test pair (phi, psi) with

    G_u = (-Lap)^{s1} u + V1 u - f1(u) - lambda v
    G_v = (-Lap)^{s2} v + V2 v - f2(v) - lambda u.

nehari_value(u, v) = <I'(u,v), (u,v)> is the constraint whose zero set is
the natural manifold for ground-state minimization; it also equals the
derivative of t -> I(t u, t v) at t = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .grid import Field, GridMismatch, hs_quadratic_form
from .model import ProblemSpec

__all__ = [
    "StatePair",
    "EnergyBreakdown",
    "energy",
    "gradient",
    "coupled_quadratic",
    "nehari_value",
    "l2_norm_pair",
    "DEFAULT_NEHARI_TOL",
]

# Default relative tolerance on |nehari_value| vs the coupled quadratic form.
DEFAULT_NEHARI_TOL = 1.0e-10


@dataclass(frozen=True)
class StatePair:
    """A candidate pair (u, v) on a common grid."""

    u: Field
    v: Field

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise GridMismatch("u and v live on different grids")

    @property
    def grid(self):
        return self.u.grid

    def scaled(self, t: float) -> "StatePair":
        """t times the pair; spectra already taken are scaled along, so the
        scaled pair's quadratic form costs no transform."""
        return StatePair(self.u.scaled(t), self.v.scaled(t))

    def has_positive_part(self) -> bool:
        return bool(
            np.max(self.u.values, initial=-np.inf) > 0.0
            or np.max(self.v.values, initial=-np.inf) > 0.0
        )


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy terms; total is defined by the displayed combination."""

    quad_u: float
    quad_v: float
    coupling_term: float
    F1_integral: float
    F2_integral: float
    total: float


def _check_state(state: StatePair, problem: ProblemSpec) -> None:
    if state.grid != problem.grid:
        raise GridMismatch("state and problem live on different grids")


def _quadratic_parts(state: StatePair, problem: ProblemSpec) -> tuple:
    """(Q1(u), Q2(v), 2 int lambda u v).  Q1 and Q2 read the components'
    cached spectra, so only a component whose transform was never taken
    costs one here."""
    dV = problem.grid.cell_volume
    u, v = state.u.values, state.v.values
    return (
        hs_quadratic_form(state.u, problem.s1, problem.V1_field),
        hs_quadratic_form(state.v, problem.s2, problem.V2_field),
        2.0 * dV * float(np.sum(problem.coupling_field.values * u * v)),
    )


def _nonlinear_pairing(state: StatePair, problem: ProblemSpec) -> float:
    """int f1(u) u + f2(v) v."""
    u, v = state.u.values, state.v.values
    return problem.grid.cell_volume * float(
        np.sum(problem.nl1.f(u) * u) + np.sum(problem.nl2.f(v) * v)
    )


def energy(state: StatePair, problem: ProblemSpec) -> EnergyBreakdown:
    """Evaluate the functional and its term-by-term breakdown."""
    _check_state(state, problem)
    dV = problem.grid.cell_volume
    quad_u, quad_v, coupling_term = _quadratic_parts(state, problem)
    # F vanishes on t <= 0, so only the positive entries are evaluated
    u, v = state.u.values, state.v.values
    F1_integral = dV * float(np.sum(problem.nl1.F(u[u > 0.0])))
    F2_integral = dV * float(np.sum(problem.nl2.F(v[v > 0.0])))
    total = 0.5 * (quad_u + quad_v - coupling_term) - F1_integral - F2_integral
    return EnergyBreakdown(quad_u, quad_v, coupling_term, F1_integral, F2_integral, total)


def coupled_quadratic(state: StatePair, problem: ProblemSpec) -> float:
    """Q(u, v) = Q1(u) + Q2(v) - 2 int lambda u v."""
    _check_state(state, problem)
    quad_u, quad_v, coupling_term = _quadratic_parts(state, problem)
    return quad_u + quad_v - coupling_term


def nehari_value(state: StatePair, problem: ProblemSpec) -> float:
    """<I'(u,v), (u,v)>: the ray-constraint residual."""
    return coupled_quadratic(state, problem) - _nonlinear_pairing(state, problem)


def gradient(
    state: StatePair, problem: ProblemSpec, preconditioned: bool = False
) -> StatePair:
    """L^2 gradient pair, optionally preconditioned.

    The preconditioner divides Fourier coefficients by |xi|^(2si) + mean(Vi),
    a positive symbol that tames the stiffness of the fractional operator
    without changing the set of stationary points; the problem keeps it
    (ProblemSpec._preconditioner).  It is applied in the same inverse
    transform as the operator.  Beyond the component's cached spectrum a
    preconditioned component costs two transforms, a plain one one.
    """
    _check_state(state, problem)
    g = problem.grid
    lam = problem.coupling_field.values
    out = []
    for i, w, other, s, V, nl in (
        (0, state.u, state.v.values, problem.s1, problem.V1_field, problem.nl1),
        (1, state.v, state.u.values, problem.s2, problem.V2_field, problem.nl2),
    ):
        sym = g.symbol(s)
        local = V.values * w.values - nl.f(w.values) - lam * other
        if preconditioned:
            spectrum = sym * w.spectrum + sfft.rfftn(local)
            gw = sfft.irfftn(spectrum / problem._preconditioner[i], s=g.shape)
        else:
            gw = sfft.irfftn(sym * w.spectrum, s=g.shape) + local
        out.append(Field(g, gw))
    return StatePair(*out)


def l2_norm_pair(state: StatePair) -> float:
    """L^2 x L^2 norm of the pair."""
    dV = state.grid.cell_volume
    return float(
        np.sqrt(dV * (np.sum(state.u.values**2) + np.sum(state.v.values**2)))
    )
