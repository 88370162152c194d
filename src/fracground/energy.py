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

A pair is held as one stacked (2, *grid.shape) array, so each pass over it
covers both components in one call: one transform each way over the grid
axes (grid._rfftn and grid._irfftn, numpy.fft's real pair), one dot
product per inner product (batched over the rows where EnergyBreakdown
needs each component's part), and one evaluation of f, F or dnq per
distinct nonlinearity (ProblemSpec._nonlinearity).  The pair
is the one carrier of a transform: its spectrum is taken once, over both
rows, or carried from the pairs it was formed from; its rows and other
Fields carry none.  A state's values are checked for finiteness once, as
Fields where it enters, not on pairs formed from pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Field, GridMismatch, _irfftn, _rfftn
from .model import ProblemSpec

__all__ = [
    "StatePair",
    "EnergyBreakdown",
    "energy",
    "gradient",
    "coupled_quadratic",
    "nehari_value",
    "l2_norm_pair",
]


class StatePair:
    """A candidate pair (u, v) on a common grid, held as one read-only,
    C-contiguous array ``values`` of shape (2, *grid.shape) whose rows are
    u and v.

    ``StatePair(u, v)`` takes two Fields, which have checked their values
    for finiteness, and copies them into the stacked array.  ``u`` and
    ``v`` are Fields that view the rows.  The pair is the one carrier of a
    transform: ``spectrum``, shape (2, *half spectrum), is one ``rfftn``
    over the grid axes, taken on first use or carried from the pairs this
    one was formed from (``scaled``, ``_stacked``), and then equal to it
    up to rounding; the rows carry none, nor does a line-search trial that
    the clip at 0 changed (solver._trial).  solver.nehari_project refuses a
    pair with no positive part.  The pair keeps the quadratic parts of the
    last problem they were computed for (see ``_quadratic_parts``).
    """

    def __init__(self, u: Field, v: Field):
        if u.grid != v.grid:
            raise GridMismatch("u and v live on different grids")
        self.grid = u.grid
        values = np.stack((u.values, v.values))
        values.flags.writeable = False
        self.values = values

    @classmethod
    def _stacked(cls, grid, values: np.ndarray, spectrum=None) -> "StatePair":
        """The pair whose rows are the C-contiguous (2, *grid.shape) array
        ``values``, which the caller hands over; a ``spectrum`` formed from
        spectra the caller holds is carried as its transform and must equal
        ``rfftn`` of the values up to rounding.  The values are not checked
        for finiteness: Field checks a state where it enters, and a trial
        that overflows fails in solver.nehari_project (Q is not finite)."""
        if values.shape != (2,) + grid.shape:
            raise GridMismatch(f"pair shape {values.shape} does not match grid shape {grid.shape}")
        values.flags.writeable = False
        out = cls.__new__(cls)
        out.grid, out.values = grid, values
        if spectrum is not None:
            out.__dict__["spectrum"] = spectrum
        return out

    @cached_property
    def spectrum(self) -> np.ndarray:
        """``rfftn`` of both rows, one call over the last grid.dim axes."""
        return _rfftn(self.values, self.grid)

    @cached_property
    def _row_min(self) -> tuple:
        """The least value of each row, two floats: one pass over the pair on
        first use, or carried from the pair this one was scaled from
        (``scaled``) or set by the line-search pass that formed it
        (solver._trial)."""
        return tuple(self.values.reshape(2, -1).min(axis=1).tolist())

    @cached_property
    def u(self) -> Field:
        return Field(self.grid, self.values[0])

    @cached_property
    def v(self) -> Field:
        return Field(self.grid, self.values[1])

    def _positive(self) -> tuple:
        """(x, k): the positive entries of ``values`` in row-major order, one
        gather over both rows, of which the first k are u's.  Taken afresh on
        each call; only a projected pair holds one, handed over by
        solver.nehari_project until its first ``energy`` takes it."""
        mask = self.values > 0.0
        return self.values[mask], int(np.count_nonzero(mask[0]))

    def scaled(self, t: float) -> "StatePair":
        """t times the pair; a spectrum already taken or carried is scaled
        along by t and quadratic parts already computed by t^2, so the
        scaled pair's quadratic form costs no transform, and known parts
        are not computed again.  Row minima already taken are scaled along
        by t > 0: rounding is monotone, so t times the least value is the
        least of the scaled values, bit for bit."""
        spectrum = t * self.spectrum if "spectrum" in self.__dict__ else None
        out = StatePair._stacked(self.grid, t * self.values, spectrum)
        if "_quad" in self.__dict__:
            problem, parts = self._quad
            out.__dict__["_quad"] = (problem, tuple(t * t * q for q in parts))
        if "_row_min" in self.__dict__ and t > 0.0:
            out.__dict__["_row_min"] = tuple(t * m for m in self._row_min)
        return out


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
    """(Q1(u), Q2(v), 2 int lambda u v), computed once per pair and problem
    (``_quadratic_pass``).

    The parts are kept on the pair for the problem (by identity) they were
    computed for; another problem, such as ``with_coupling_scale`` of it,
    computes its own.
    """
    cached = state.__dict__.get("_quad")
    if cached is not None and cached[0] is problem:
        return cached[1]
    parts = _quadratic_pass(state, problem)
    state.__dict__["_quad"] = (problem, parts)
    return parts


def _quadratic_pass(state: StatePair, problem: ProblemSpec) -> tuple:
    """One pass over the pair for its quadratic parts.  The kinetic terms are
    one batched dot product of the squared real and imaginary parts of its
    spectrum (taken or carried; only a pair whose transform is neither costs
    one here) with the problem's Parseval weights, the potential terms one
    of V with the squared values, each row's as ``hs_quadratic_form``
    computes it; the coupling term is one dot product."""
    dV = problem.grid.cell_volume
    w = state.values
    x = state.spectrum.view(np.float64).reshape(2, -1)
    kinetic = _row_dots(problem._parseval_weights, x * x)
    potential = _row_dots(problem._potentials.reshape(2, -1), (w * w).reshape(2, -1))
    return (
        dV * float(kinetic[0] + potential[0]),
        dV * float(kinetic[1] + potential[1]),
        2.0 * dV * float(np.vdot(problem.coupling_field.values, w[0] * w[1])),
    )


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of a with the same row of b, both of
    shape (2, m): one batched matrix product, equal to np.vdot row by row."""
    return np.matmul(a[:, None, :], b[:, :, None]).ravel()


def _nonlinear_pairing(state: StatePair, problem: ProblemSpec) -> float:
    """int f1(u) u + f2(v) v."""
    w = state.values
    return problem.grid.cell_volume * float(np.vdot(problem._nonlinearity("f", w, 1), w))


def energy(state: StatePair, problem: ProblemSpec) -> EnergyBreakdown:
    """Evaluate the functional and its term-by-term breakdown."""
    _check_state(state, problem)
    dV = problem.grid.cell_volume
    quad_u, quad_v, coupling_term = _quadratic_parts(state, problem)
    # F vanishes on t <= 0, so only the positive entries are evaluated; a
    # projected pair's first energy takes the gather its projection made
    x, k = state.__dict__.pop("_gathered", None) or state._positive()
    Fx = problem._nonlinearity("F", x, k)
    F1_integral = dV * float(Fx[:k].sum())
    F2_integral = dV * float(Fx[k:].sum())
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
    (ProblemSpec._preconditioner) before the inverse transform.  The block
    is positive definite, so the stationary points are unchanged; it tames
    the stiffness of the fractional operators and, for constant weights,
    inverts the linear part exactly, coupling included.  Beyond the pair's
    spectrum the preconditioned gradient costs two transforms, one each
    way over both components, and the plain one one.  The preconditioned
    pair carries the mixed half spectra it was transformed back from, so a
    step along it forms its trial's spectrum without a transform.  The
    descent mixes by a block shifted by the nonlinearity's slope instead
    (ProblemSpec._shifted_preconditioner, solver._descent_gradient); this
    function keeps the unshifted one.
    """
    return _gradient(state, problem, problem._preconditioner if preconditioned else None)


def _gradient(state: StatePair, problem: ProblemSpec, block) -> StatePair:
    """The L^2 gradient pair, or with ``block``, three real arrays on the
    half spectrum (p11, p12, p22), the pair whose spectra are the residual
    spectra mixed by the symmetric per-mode block [[p11, p12], [p12, p22]]
    (``_mix``); that pair carries the mixed spectra."""
    _check_state(state, problem)
    g = problem.grid
    w = state.values
    lam = problem.coupling_field.values
    local = problem._potentials * w
    term = problem._nonlinearity("f", w, 1)
    local -= term
    local -= np.multiply(lam, w[::-1], out=term)  # lambda times the other row
    del term
    r = problem._symbols * state.spectrum
    if block is None:
        plain = _irfftn(r, g)
        plain += local
        return StatePair._stacked(g, plain)
    r += _rfftn(local, g)
    del local
    _mix(block, r)
    return StatePair._stacked(g, _irfftn(r, g), r)


def _mix(block: tuple, r: np.ndarray) -> np.ndarray:
    """r, a pair of half spectra (2, *half), mixed in place by the symmetric
    per-mode block (p11, p12, p22): (p11 r0 + p12 r1, p12 r0 + p22 r1)."""
    p11, p12, p22 = block
    cross = p12 * r[1]
    r[1] *= p22
    r[1] += p12 * r[0]
    r[0] *= p11
    r[0] += cross
    return r


def _linear_part(problem: ProblemSpec, shifts, x: np.ndarray) -> np.ndarray:
    """The shifted linear part, per mode [[a - k1, -l], [-l, b - k2]],
    applied to a pair of half spectra x; a new array.  a, b and l are those
    of ProblemSpec._preconditioner and (k1, k2) the mode's shifts as
    ProblemSpec._shifted_preconditioner gives them (the zero mode's first,
    then every other mode's; None for none).  It is the inverse of the
    block that the descent mixes by, so it maps a descent gradient's
    spectra back to the residual spectra they were mixed from."""
    v1, v2, lam = problem._mean_weights
    (j1, j2), (k1, k2) = shifts or ((0.0, 0.0), (0.0, 0.0))
    out = problem._symbols * x
    out += np.reshape((v1 - k1, v2 - k2), (2,) + (1,) * problem.grid.dim) * x
    out -= lam * x[::-1]
    out.reshape(2, -1)[:, 0] += (k1 - j1, k2 - j2) * x.reshape(2, -1)[:, 0]
    return out


def l2_norm_pair(state: StatePair) -> float:
    """L^2 x L^2 norm of the pair."""
    w = state.values
    return float(np.sqrt(state.grid.cell_volume * np.vdot(w, w)))
