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

from .grid import Field, GridMismatch, _with_spectrum, hs_quadratic_form
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
    """A candidate pair (u, v) on a common grid.  The pair keeps the
    quadratic parts of the last problem they were computed for (see
    ``_quadratic_parts``)."""

    u: Field
    v: Field

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise GridMismatch("u and v live on different grids")

    @property
    def grid(self):
        return self.u.grid

    def scaled(self, t: float) -> "StatePair":
        """t times the pair; spectra already taken are scaled along by t and
        quadratic parts already computed by t^2, so the scaled pair's
        quadratic form costs no transform, and known parts are not computed
        again."""
        out = StatePair(self.u.scaled(t), self.v.scaled(t))
        if "_quad" in self.__dict__:
            problem, parts = self._quad
            out.__dict__["_quad"] = (problem, tuple(t * t * q for q in parts))
        return out

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
    """(Q1(u), Q2(v), 2 int lambda u v), computed once per pair and problem.

    The parts are kept on the pair for the problem (by identity) they were
    computed for; another problem, such as ``with_coupling_scale`` of it,
    computes its own.  Q1 and Q2 read the components' spectra, so only a
    component whose transform was neither taken nor carried costs one here.
    """
    cached = state.__dict__.get("_quad")
    if cached is not None and cached[0] is problem:
        return cached[1]
    dV = problem.grid.cell_volume
    u, v = state.u.values, state.v.values
    parts = (
        hs_quadratic_form(state.u, problem.s1, problem.V1_field),
        hs_quadratic_form(state.v, problem.s2, problem.V2_field),
        2.0 * dV * float(np.vdot(problem.coupling_field.values, u * v)),
    )
    state.__dict__["_quad"] = (problem, parts)
    return parts


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

    The preconditioner applies, mode by mode, the inverse of the coupled
    block [[|xi|^(2 s1) + mean(V1), -mean(lambda)], [-mean(lambda),
    |xi|^(2 s2) + mean(V2)]]: both components' residual spectra are formed
    first and then mixed by the problem's three cached arrays
    (ProblemSpec._preconditioner) before the inverse transforms.  The block
    is positive definite, so the stationary points are unchanged; it tames
    the stiffness of the fractional operators and, for constant weights,
    inverts the linear part exactly, coupling included.  Beyond the
    component's spectrum a preconditioned component costs two transforms,
    a plain one one.  Each preconditioned output Field carries the mixed
    half spectrum it was transformed back from, so a step along it forms
    its trial's spectrum without a transform (see solver._descend).
    """
    _check_state(state, problem)
    g = problem.grid
    lam = problem.coupling_field.values
    parts = []
    for w, other, s, V, nl in (
        (state.u, state.v.values, problem.s1, problem.V1_field, problem.nl1),
        (state.v, state.u.values, problem.s2, problem.V2_field, problem.nl2),
    ):
        sym = g.symbol(s)
        local = V.values * w.values - nl.f(w.values) - lam * other
        if preconditioned:
            parts.append(sym * w.spectrum + sfft.rfftn(local))
        else:
            parts.append(sfft.irfftn(sym * w.spectrum, s=g.shape) + local)
    if preconditioned:
        r1, r2 = parts
        p11, p12, p22 = problem._preconditioner
        mixed = (p11 * r1 + p12 * r2, p12 * r1 + p22 * r2)
        return StatePair(
            *(_with_spectrum(g, sfft.irfftn(m, s=g.shape), m) for m in mixed)
        )
    return StatePair(Field(g, parts[0]), Field(g, parts[1]))


def l2_norm_pair(state: StatePair) -> float:
    """L^2 x L^2 norm of the pair."""
    dV = state.grid.cell_volume
    return float(
        np.sqrt(dV * (np.sum(state.u.values**2) + np.sum(state.v.values**2)))
    )
