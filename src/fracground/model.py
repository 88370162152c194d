"""Problem data: potentials, coupling, nonlinearities, and their hypotheses.

A coupled problem consists of two fractional orders, two potentials, a
coupling weight, and one superlinear nonlinearity per component.  Potentials
and coupling are built from a small catalogue of scalar functions on the box
(constants, products of 1-periodic cosines, and the same plus a centered
Gaussian perturbation).  The validator samples every structural hypothesis
the variational theory needs (positivity, relative coupling size, ordering
of perturbed versus periodic weights, superlinearity, subcritical growth,
monotone nonquadraticity) and reports findings without throwing; solvers
refuse to run on a failing report.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .grid import Field, Grid, _RuleError, _check_order, _is_number, _no_bool

__all__ = [
    "ScalarFunctionSpec",
    "NonlinearitySpec",
    "ProblemSpec",
    "CheckResult",
    "ValidationReport",
    "ValidationFailed",
    "sample_function",
    "nonlinearity_eval",
    "validate_assumptions",
    "perturbation_values",
    "LOG_POWER_GROWTH_EXPONENT",
]

FUNCTION_KINDS = ("constant", "periodic_trig", "periodic_plus_perturbation")
NONLINEARITY_KINDS = ("log_power", "pure_power")

# Stand-in growth exponent for the logarithmic nonlinearity: it grows more
# slowly than any power above 2, so subcriticality is checked against
# p = 2 + 1/2.
LOG_POWER_GROWTH_EXPONENT = 2.5

# Sampling ladder for pointwise hypothesis checks.
LADDER_LO = 1.0e-4
LADDER_HI = 1.0e4
LADDER_POINTS = 1000

# Surrogate thresholds for the asymptotic hypotheses on f(t)/t.
SUPERLINEAR_T_SMALL = 1.0e-8
SUPERLINEAR_SMALL_BOUND = 1.0e-4
SUPERLINEAR_T_LARGE = 1.0e8
SUPERLINEAR_LARGE_BOUND = 5.0

# A perturbation counts as localized if its magnitude is below this outside
# the centered ball of radius L/4.
DECAY_THRESHOLD = 1.0e-6

# The ProblemSpec fields that are weights (ScalarFunctionSpec).
_WEIGHTS = ("V1", "V2", "coupling")


class ValidationFailed(RuntimeError):
    """A solver refused to run on a problem whose validation report fails."""


@dataclass(frozen=True)
class ScalarFunctionSpec:
    """Scalar function on the box: constant, periodic, or perturbed periodic.

    The periodic part is base_constant + trig_amplitude * prod_i
    cos(2*pi*m_i*x_i) with integer periods m_i per axis (1-periodic in each
    coordinate, so the box length must be a whole number of periods).  The
    perturbation is a Gaussian bump exp(-|x - c|^2 / width^2) centered at
    the box center, scaled by perturbation_amplitude.
    """

    kind: str
    base_constant: float = 0.0
    trig_amplitude: float = 0.0
    trig_periods: tuple = (1,)
    perturbation_amplitude: float = 0.0
    perturbation_width: float = 1.0

    def __post_init__(self):
        if self.kind not in FUNCTION_KINDS:
            raise _RuleError("kind", f"unknown scalar function kind {self.kind!r}")
        # one number: one for all axes; dtype=object keeps each entry as given
        periods = np.atleast_1d(np.asarray(self.trig_periods, dtype=object)).tolist()
        if not all(_is_number(m, (numbers.Real,)) and m >= 1 and m % 1 == 0 for m in periods):
            msg = f"trig_periods must be whole numbers >= 1, got {self.trig_periods!r}"
            raise _RuleError("trig_periods", msg)
        object.__setattr__(self, "trig_periods", tuple(int(m) for m in periods))
        for name in ("base_constant", "trig_amplitude", "perturbation_amplitude"):
            if not np.isfinite(_no_bool(getattr(self, name), name)):
                raise _RuleError(name, f"{name} must be finite, got {getattr(self, name)}")
        if self.kind == "constant" and self.trig_amplitude != 0.0:
            raise _RuleError("trig_amplitude", "constant kind admits no trig part")
        if not self.has_perturbation and self.perturbation_amplitude != 0.0:
            raise _RuleError(
                "perturbation_amplitude", f"{self.kind} kind admits no perturbation part"
            )
        if not 0.0 < _no_bool(self.perturbation_width, "perturbation_width") < np.inf:
            raise _RuleError(
                "perturbation_width", "perturbation_width must be positive and finite"
            )

    @property
    def has_perturbation(self) -> bool:
        return self.kind == "periodic_plus_perturbation"

    def scaled(self, factor: float) -> "ScalarFunctionSpec":
        """Pointwise multiple of this function (scales every amplitude)."""
        return dataclasses.replace(
            self,
            base_constant=factor * self.base_constant,
            trig_amplitude=factor * self.trig_amplitude,
            perturbation_amplitude=factor * self.perturbation_amplitude,
        )


def _axis_periods(spec: ScalarFunctionSpec, grid: Grid, name: str = "spec") -> tuple:
    """The trig period of a periodic kind along each axis of ``grid``, none
    for a constant kind.  The box must hold a whole number of unit periods
    (else a _RuleError names ``grid.box_length``), and ``trig_periods``
    give one period for all axes or one per axis (else ``<name>.trig_periods``)."""
    if spec.kind == "constant":
        return ()
    L, m = grid.box_length, spec.trig_periods
    if abs(L - round(L)) > 1.0e-9 * max(1.0, abs(L)) or round(L) < 1:
        msg = f"periodic kinds need a whole number of unit periods per box, got box_length={L}"
        raise _RuleError("grid.box_length", msg)
    if len(m) not in (1, grid.dim):
        msg = f"trig_periods has {len(m)} entries for a {grid.dim}-dimensional grid"
        raise _RuleError(f"{name}.trig_periods", msg)
    return m * grid.dim if len(m) == 1 else m


def sample_function(spec: ScalarFunctionSpec, grid: Grid) -> Field:
    """Sample a scalar function spec on a grid, its perturbation included.

    The periodic part alone is the sample of the spec with
    perturbation_amplitude 0 (see ProblemSpec.without_perturbations).
    """
    if spec.kind == "constant":
        return Field(grid, np.full(grid.shape, spec.base_constant))
    periods = _axis_periods(spec, grid)
    vals = np.full(grid.shape, spec.base_constant)
    if spec.trig_amplitude != 0.0:
        trig = np.ones(grid.shape)
        coords = grid.coordinates()
        for m, x in zip(periods, coords):
            trig = trig * np.cos(2.0 * np.pi * m * x)
        vals = vals + spec.trig_amplitude * trig
    if spec.has_perturbation and spec.perturbation_amplitude != 0.0:
        vals = vals + spec.perturbation_amplitude * gaussian_bump(
            grid, spec.perturbation_width
        )
    return Field(grid, vals)


def _sq_radius(grid: Grid) -> np.ndarray:
    """|x - center|^2 on the grid, the center at L/2 on every axis."""
    c = 0.5 * grid.box_length
    return sum((x - c) ** 2 for x in grid.coordinates())


def gaussian_bump(grid: Grid, width: float, amplitude: float = 1.0) -> np.ndarray:
    """exp(-|x - center|^2 / width^2) sampled on the grid."""
    return amplitude * np.exp(-_sq_radius(grid) / width**2)


def perturbation_values(spec: ScalarFunctionSpec, grid: Grid):
    """The analytic perturbation part alone, or None if the kind has none.

    Sign and decay checks must use this rather than a difference of sampled
    fields: far from the center the bump drops below the rounding of the
    periodic part and a sampled difference would cancel to exact zero.
    """
    if not spec.has_perturbation or spec.perturbation_amplitude == 0.0:
        return None
    return gaussian_bump(grid, spec.perturbation_width, spec.perturbation_amplitude)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Superlinear nonlinearity f with primitive F, nq(t) = f(t)t - 2F(t)
    and its derivative dnq(t) = f'(t)t - f(t).

    kinds:
      log_power   f(t) = t * ln(1+t)^gamma for t > 0, gamma >= 1
      pure_power  f(t) = t^(p-1) for t > 0, finite p > 2
    Both vanish identically on t <= 0.  The audit's samples of f on its
    ladder are taken once per instance (``_ladder_witnesses``).
    """

    kind: str
    gamma: float = 1.0
    p: float = 4.0

    def __post_init__(self):
        if self.kind not in NONLINEARITY_KINDS:
            raise _RuleError("kind", f"unknown nonlinearity kind {self.kind!r}")
        for name in ("gamma", "p"):
            _no_bool(getattr(self, name), name)
        if self.kind == "log_power" and not 1.0 <= self.gamma < np.inf:
            raise _RuleError("gamma", f"log_power needs a finite gamma >= 1, got {self.gamma}")
        if self.kind == "pure_power" and not 2.0 < self.p < np.inf:
            raise _RuleError("p", f"pure_power needs a finite p > 2, got {self.p}")

    @property
    def growth_exponent(self) -> float:
        """Exponent used in growth and subcriticality checks."""
        if self.kind == "pure_power":
            return self.p
        return LOG_POWER_GROWTH_EXPONENT

    @cached_property
    def _ladder_witnesses(self) -> tuple:
        """What the audit samples of f alone: (f(t)/t at SUPERLINEAR_T_SMALL
        and at SUPERLINEAR_T_LARGE, whether f is superlinear at 0 and at
        infinity, a1, the fitted alpha, a2, nq > 0, f(t)/t increasing, nq
        increasing), the last six on the log-spaced ladder.  Every problem
        built from a problem by dataclasses.replace shares this instance."""
        ladder = np.geomspace(LADDER_LO, LADDER_HI, LADDER_POINTS)
        decades = np.array([1.0e2, 1.0e4, 1.0e6, SUPERLINEAR_T_LARGE])
        small = self.f(SUPERLINEAR_T_SMALL) / SUPERLINEAR_T_SMALL
        ratios = self.f(decades) / decades
        grows = bool(np.all(np.diff(ratios) > 0.0)) and ratios[-1] > SUPERLINEAR_LARGE_BOUND
        fvals, nqv = self.f(ladder), self.nq(ladder)
        a1 = float(np.max(fvals / (1.0 + ladder ** (self.growth_exponent - 1.0))))
        positive = bool(np.all(nqv > 0.0))
        alpha, a2 = float("nan"), 0.0
        if positive:
            alpha = float(np.polyfit(np.log(ladder), np.log(nqv), 1)[0])
            a2 = float(np.min(nqv / ladder**alpha))
        return (
            small, ratios[-1], small < SUPERLINEAR_SMALL_BOUND and grows, a1, alpha, a2, positive,
            bool(np.all(np.diff(fvals / ladder) > 0.0)), bool(np.all(np.diff(nqv) > 0.0)),
        )

    def f(self, t):
        """Pointwise nonlinearity; accepts scalars or arrays."""
        t = np.asarray(t, dtype=np.float64)
        pos = np.maximum(t, 0.0)
        if self.kind == "pure_power":
            out = _power(pos, self.p - 1.0)
        else:
            out = np.log1p(pos)
            out **= self.gamma
            out *= pos
        return out if out.ndim else float(out)

    def dnq(self, t):
        """Derivative of nq: f'(t)t - f(t) = t^2 (f(t)/t)'; accepts scalars
        or arrays, 0 on t <= 0.

        log_power: gamma t^2 ln(1+t)^(gamma-1) / (1+t), which takes no
        logarithm at gamma = 1; pure_power: (p-2) t^(p-1).
        """
        t = np.asarray(t, dtype=np.float64)
        pos = np.maximum(t, 0.0)
        if self.kind == "pure_power":
            out = _power(pos, self.p - 1.0)
            out *= self.p - 2.0
        else:
            out = pos / (1.0 + pos)
            out *= pos
            if self.gamma != 1.0:
                out = out * (self.gamma * np.log1p(pos) ** (self.gamma - 1.0))
        return out if out.ndim else float(out)

    def _slope(self, t: float) -> float:
        """f'(t) = (dnq(t) + f(t)) / t at a scalar t > 0, in closed form, and 0
        on t <= 0.  f' is increasing, so f'(t) bounds f' from below on
        [t, inf).

        log_power: ln(1+t)^gamma + gamma t ln(1+t)^(gamma-1) / (1+t);
        pure_power: (p-1) t^(p-2).
        """
        if not t > 0.0:
            return 0.0
        if self.kind == "pure_power":
            return (self.p - 1.0) * t ** (self.p - 2.0)
        w = math.log1p(t)
        return w**self.gamma + self.gamma * t * w ** (self.gamma - 1.0) / (1.0 + t)

    def F(self, t):
        """Primitive of f vanishing at 0."""
        t = np.asarray(t, dtype=np.float64)
        pos = np.maximum(t, 0.0)
        if self.kind == "pure_power":
            out = _power(pos, self.p)
            out /= self.p
        else:
            out = _log_power_integral(pos, self.gamma, 1.0)
        return out if out.ndim else float(out)

    def nq(self, t):
        """Nonquadraticity f(t)t - 2F(t); positive and increasing on (0,inf).

        log_power does not subtract: integration by parts gives
        nq(t) = gamma int_0^W (e^w - 1)^2 w^(gamma-1) dw with W = ln(1+t),
        the integral of a positive function, evaluated like F (see
        _log_power_integral) to within 1e-14 relative.
        """
        t = np.asarray(t, dtype=np.float64)
        pos = np.maximum(t, 0.0)
        if self.kind == "pure_power":
            out = _power(pos, self.p)
            out *= 1.0 - 2.0 / self.p
        else:
            out = self.gamma * _log_power_integral(pos, self.gamma, 2.0)
        return out if out.ndim else float(out)


# Whole exponents up to this one are taken by multiplication (_power).
_WHOLE_POWER_MAX = 8


def _power(x: np.ndarray, k: float) -> np.ndarray:
    """x**k for x >= 0.  x must be the caller's own temporary: a whole k
    overwrites it, and the result is often x itself.  A whole k in
    [2, _WHOLE_POWER_MAX] is taken by repeated squaring, in at most four
    products that together cost about a third of ``**`` and make at most
    one more array of x's size; the relative error is at most (k - 1) / 2
    ulp.  Every other k takes ``**``."""
    if not (k == int(k) and 2 <= k <= _WHOLE_POWER_MAX):
        return x**k
    n, square, out = int(k), x, None
    while True:
        if n & 1:
            if out is None:
                out = square
            else:
                out *= square
        n >>= 1
        if not n:
            return out
        if square is out:
            square = square * square
        else:
            square *= square


def _log_power_integral(t: np.ndarray, gamma: float, c: float) -> np.ndarray:
    """int_0^W (e^{2w} - c e^w + c - 1) w^b dw, W = ln(1+t), b = gamma + 1 - c.

    c = 1 gives F(t): substitute tau = e^w - 1 in int_0^t tau ln(1+tau)^gamma.
    c = 2 gives nq(t) / gamma.  The integrand is positive and so is every term
    of its power series in W, so the series loses no digits.  Each entry's own
    W alone chooses how the series is summed:

    - W up to the table bound (_TABLE_W, lower only where W^(b+1) nears
      overflow): as one cached polynomial (_log_power_table);
    - any larger finite W: term by term until it has converged
      (_log_power_series).

    When every entry lies in the table's range, the usual case, the table
    takes the whole array without masks; an empty array returns at once.
    Both paths agree with a high-precision reference to within 1e-14
    relative over t in
    [1e-10, 1e6] for gamma in {1, 1.5, 2, 2.7, 3}, and to within 1e-13 at
    t = 1e40 and 1e80, where the rounding of W dominates.  Non-finite t
    passes through (inf stays inf, nan stays nan).
    """
    W = np.asarray(np.log1p(t))
    if not W.size:
        return W
    b = gamma + 1.0 - c
    bound, coeffs = _series_table(b, c)
    if np.max(W, initial=0.0) <= bound:  # false on nan
        return _log_power_table(W, b, coeffs)
    out = W.copy()
    finite = np.isfinite(W)
    table = finite & (W <= bound)
    series = finite & ~table
    out[table] = _log_power_table(W[table], b, coeffs)
    out[series] = _log_power_series(W[series], b, c)
    return out


# Largest W summed by the cached polynomial of the log_power series.  The
# polynomial's degree is fixed, so a larger bound costs more terms for every
# entry, also for the small W that most entries have.
_TABLE_W = 2.5
# Terms of that polynomial: at W = _TABLE_W the tail after 34 terms is below
# 2^-55 of the sum for every b >= 0 (the weights 1/(k+b+1) flatten as b
# grows, and b -> inf is the worst case), so it is below half an ulp for
# every W in the table's range.
_TABLE_TERMS = 34
# The table takes W only while W^(b+1) <= e^700, so that its product with
# W P(W) < e^(2W) <= e^5 stays finite.
_TABLE_LOG_POWER_MAX = 700.0


@lru_cache(maxsize=None)
def _series_table(b: float, c: float) -> tuple:
    """(bound, a): the table's largest W and the coefficients a_1..a_K of P.

    a_k = (1 - c 2^-k) 2^k / (k! (k+b+1)), so the series of
    _log_power_series is W^(b+2) P(W) with P(W) = sum_k a_k W^(k-1).
    """
    bound = min(_TABLE_W, math.exp(_TABLE_LOG_POWER_MAX / (b + 1.0)))
    coeffs = np.array([
        (1.0 - c * 0.5**k) * (2.0**k / math.factorial(k)) / (k + b + 1.0)
        for k in range(1, _TABLE_TERMS + 1)
    ])
    return bound, coeffs


def _log_power_table(W: np.ndarray, b: float, coeffs: np.ndarray) -> np.ndarray:
    """W^(b+2) P(W) for 0 <= W <= the table bound, P summed by Horner's rule.

    Every coefficient and every W is nonnegative, so each Horner step loses
    no digits.  The degree is fixed and every step is elementwise, so each
    result depends only on its own argument.
    """
    total = np.full_like(W, coeffs[-1])
    for a in coeffs[-2::-1]:
        total *= W
        total += a
    total *= W
    total *= W ** (b + 1.0)
    return total


def _log_power_series(W: np.ndarray, b: float, c: float) -> np.ndarray:
    """sum_{k>=1} (2^k - c) W^(k+b+1) / (k! (k+b+1)) for finite W >= 0.

    The path of _log_power_integral for finite W beyond the table's range:
    W above _TABLE_W, and W whose W^(b+1) nears overflow.  Term k is
    (1 - c 2^-k) / (k+b+1) times the running product (2W)^k W^(b+1) / k!,
    which overflows (and the sum is inf) only within about sqrt(W) of the
    sum itself.  Terms are added until the last one is below 2^-55 of the
    running sum and the ratio of successive terms (at most 3W/(k+1) from
    k = 2 on) is below 1/2, so the tail is below half an ulp.  An entry that
    has converged is not changed by the terms added for larger entries, so
    each result depends only on its own argument.
    """
    power = W ** (b + 1.0)  # (2W)^k W^(b+1) / k! at k = 0
    twice_W = 2.0 * W
    total = np.zeros_like(W)
    k_min = max(2.0, 6.0 * float(np.max(W, initial=0.0)))
    k = 0
    while True:
        k += 1
        power *= twice_W
        power /= k
        term = ((1.0 - c * 0.5**k) / (k + b + 1.0)) * power
        total += term
        # a nan term (0 * inf, once W^(b+1) overflows) or an inf one ends it
        if k >= k_min and not np.any(term > 2.0**-55 * total):
            return total


def nonlinearity_eval(nl: NonlinearitySpec, t: float) -> tuple:
    """(f(t), F(t), nq(t)) at a scalar argument."""
    return (nl.f(t), nl.F(t), nl.nq(t))


@dataclass(frozen=True)
class ProblemSpec:
    """A linearly coupled system of two fractional components on one grid.

    The energy sees the weights as named, perturbations included; the
    periodic limit of the problem is ``without_perturbations()``.  Periodic
    weights must fit the grid (see _axis_periods) on construction.  Sampled
    weights, the hypothesis audit, the gradient's preconditioner (the
    per-mode inverse of the coupled linear part with mean weights), the
    periodic limit, the coarse problem of a cold solve and the
    per-component inputs stacked along a first axis of length 2, as a
    StatePair holds its components, are derived once, on first use, and
    cached on the instance.  It is the one
    owner of arrays that depend on the orders s1, s2 (multiplier symbols,
    Parseval weights, preconditioner); the grid computes them per call.
    """

    grid: Grid
    s1: float
    s2: float
    V1: ScalarFunctionSpec
    V2: ScalarFunctionSpec
    coupling: ScalarFunctionSpec
    nl1: NonlinearitySpec
    nl2: NonlinearitySpec

    def __post_init__(self):
        _check_order(self.s1, "s1")
        _check_order(self.s2, "s2")
        for name in _WEIGHTS:
            _axis_periods(getattr(self, name), self.grid, name)

    @cached_property
    def _report(self) -> "ValidationReport":
        """What validate_assumptions returns."""
        return _audit(self)

    @cached_property
    def _preconditioner(self) -> tuple:
        """The per-mode inverse of the linear part with mean weights, as
        three real arrays on the half spectrum: (b, l, a) / (ab - l^2).

        Each mode's block is [[a, -l], [-l, b]] with a = |xi|^(2 s1) +
        mean(V1), b = |xi|^(2 s2) + mean(V2) and l = mean(coupling), so its
        inverse maps the pair of residual spectra (r1, r2) to
        ((b r1 + l r2), (l r1 + a r2)) / (ab - l^2).  For constant weights
        it is the exact inverse of the linear part.  Under the audit it is
        positive definite: |l| <= delta mean(sqrt(V1 V2)) <= delta
        sqrt(mean(V1) mean(V2)) by Cauchy-Schwarz, so ab - l^2 >=
        (1 - delta^2) ab > 0.  A block that is not positive definite on some
        mode raises ValidationFailed naming the hypothesis it breaks.  The
        descent steps with this block shifted by the nonlinearity's slope
        (``_shifted_preconditioner``); energy.gradient and the residual a
        solve reports use it as it is.
        """
        v1, v2, lam = self._mean_weights
        a = self._symbols[0] + v1
        b = self._symbols[1] + v2
        if not (np.min(a) > 0.0 and np.min(b) > 0.0):  # false on nan
            raise ValidationFailed(
                f"preconditioner not positive definite: mean potentials {v1:.6g}, "
                f"{v2:.6g} must be positive (potential positivity: "
                "periodic_potentials_positive, potential_perturbations_lower)"
            )
        det = a * b - lam * lam
        if not np.min(det) > 0.0:
            raise ValidationFailed(
                f"preconditioner not positive definite: mean coupling {lam:.6g} "
                "squared reaches the product of the mean potentials on some mode "
                "(relative coupling size: coupling_size_effective, "
                f"delta_eff = {self.delta_eff:.6g})"
            )
        return b / det, lam / det, a / det

    def _shifted_preconditioner(self, m1: float, m2: float) -> tuple:
        """The descent's preconditioner at a state whose rows have the least
        values m1 and m2, laid out as ``_preconditioner``.

        With c_i = f_i'(m_i) (NonlinearitySpec._slope; 0 where m_i <= 0),
        f_i'(u_i) >= c_i at every point, so the linear part shifted by
        -c_i still dominates the linear part of the Hessian, |xi|^(2 s_i) +
        V_i - f_i'(u_i).  Each mode's block [[a, -l], [-l, b]] becomes
        [[a - theta c1, -l], [-l, b - theta c2]], with theta_0 on the zero
        mode and theta_1 on every other mode: each the largest theta in
        [0, 1] that keeps _SHIFT_KEEP of a, of b and of ab - l^2 at its
        binding mode (``_shift_factor``).  That is the zero mode for
        theta_0, and for theta_1 the lowest nonzero mode (the half
        spectrum's second entry), because a and b grow with |xi| and the
        margins with them.

        A shift below _SHIFT_NEGLIGIBLE of a and of b at the lowest nonzero
        mode, as at a localized state whose least values lie in its tail,
        is not applied: the block is ``_preconditioner`` itself, and a block
        that is not is a shifted one.
        """
        block = self._preconditioner  # refuses a block that is not positive definite
        c1, c2 = self.nl1._slope(m1), self.nl2._slope(m2)
        v1, v2, lam = self._mean_weights
        a1 = self._symbols[0].flat[1] + v1
        b1 = self._symbols[1].flat[1] + v2
        if c1 < _SHIFT_NEGLIGIBLE * a1 and c2 < _SHIFT_NEGLIGIBLE * b1:
            return block
        theta0 = _shift_factor(v1, v2, lam, c1, c2)
        theta1 = _shift_factor(a1, b1, lam, c1, c2)
        a = self._symbols[0] + (v1 - theta1 * c1)
        b = self._symbols[1] + (v2 - theta1 * c2)
        a.flat[0] = v1 - theta0 * c1
        b.flat[0] = v2 - theta0 * c2
        det = a * b - lam * lam
        return b / det, lam / det, a / det

    @cached_property
    def _mean_weights(self) -> tuple:
        """(mean(V1), mean(V2), mean(coupling)), the weights of the
        preconditioner's block."""
        return self.mean_potential(1), self.mean_potential(2), self.mean_coupling()

    @cached_property
    def _potentials(self) -> np.ndarray:
        """(V1, V2) sampled, shape (2, *grid.shape)."""
        return np.stack((self.V1_field.values, self.V2_field.values))

    @cached_property
    def _symbols(self) -> np.ndarray:
        """(|xi|^(2 s1), |xi|^(2 s2)) on the half spectrum, shape (2, *half)."""
        return np.stack((self.grid.symbol(self.s1), self.grid.symbol(self.s2)))

    @cached_property
    def _parseval_weights(self) -> np.ndarray:
        """Grid.parseval_weight of s1 and of s2, one row each."""
        g = self.grid
        return np.stack((g.parseval_weight(self.s1), g.parseval_weight(self.s2)))

    def _nonlinearity(self, name: str, x: np.ndarray, split: int) -> np.ndarray:
        """The NonlinearitySpec method ``name`` ("f", "F" or "dnq") of each
        component on x, whose entries before ``split`` along its first axis
        are u's and the rest v's (the rows of a stacked pair, split = 1, or
        a pair's gathered positive entries).  Nonlinearities are grouped by
        equality, not identity, decided once per problem: equal ones take
        one call over all of x, others one call each."""
        if self._shared_nonlinearity:
            return getattr(self.nl1, name)(x)
        out = np.empty_like(x)
        out[:split] = getattr(self.nl1, name)(x[:split])
        out[split:] = getattr(self.nl2, name)(x[split:])
        return out

    @cached_property
    def _shared_nonlinearity(self) -> bool:
        """Whether nl1 == nl2, so that one call of ``_nonlinearity`` covers
        both components."""
        return self.nl1 == self.nl2

    @cached_property
    def _coarse(self) -> "ProblemSpec":
        """This problem on half as many points per axis in the same box, the
        first level of a cold solve.  Its points are every other point of
        this grid, so this problem's audit covers it."""
        g = self.grid
        return dataclasses.replace(self, grid=Grid(g.dim, g.n_per_axis // 2, g.box_length))

    @cached_property
    def V1_field(self) -> Field:
        return sample_function(self.V1, self.grid)

    @cached_property
    def V2_field(self) -> Field:
        return sample_function(self.V2, self.grid)

    @cached_property
    def coupling_field(self) -> Field:
        return sample_function(self.coupling, self.grid)

    @cached_property
    def delta_eff(self) -> float:
        """max |lambda| / sqrt(V1 V2) over the grid for the effective weights."""
        prod = self.V1_field.values * self.V2_field.values
        if np.min(prod) <= 0.0:
            return np.inf
        return float(np.max(np.abs(self.coupling_field.values) / np.sqrt(prod)))

    def mean_potential(self, which: int) -> float:
        field = self.V1_field if which == 1 else self.V2_field
        return float(np.mean(field.values))

    def mean_coupling(self) -> float:
        return float(np.mean(self.coupling_field.values))

    def with_coupling_scale(self, factor: float) -> "ProblemSpec":
        return dataclasses.replace(self, coupling=self.coupling.scaled(factor))

    def without_perturbations(self) -> "ProblemSpec":
        """The periodic limit: this problem with every weight's
        perturbation_amplitude 0; itself, with its cached fields, when no
        weight has a perturbation.  One instance per problem, so the fields
        the audit samples on it, and its own audit, are taken once."""
        if all(getattr(self, w).perturbation_amplitude == 0.0 for w in _WEIGHTS):
            # not cached: a problem holding itself would be freed only by
            # the cycle collector, arrays and all
            return self
        return self._periodic

    @cached_property
    def _periodic(self) -> "ProblemSpec":
        """``without_perturbations`` of a problem with a perturbation."""
        periodic = {
            w: dataclasses.replace(getattr(self, w), perturbation_amplitude=0.0) for w in _WEIGHTS
        }
        return dataclasses.replace(self, **periodic)

    def subcritical_bound(self, s: float) -> float:
        """Critical exponent 2N/(N-2s) for this grid dimension, inf if N <= 2s."""
        N = self.grid.dim
        if N <= 2.0 * s:
            return np.inf
        return 2.0 * N / (N - 2.0 * s)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple
    constants: MappingProxyType

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def render(self) -> str:
        lines = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(f"[{tag}] {c.name}: {c.detail}")
        lines.append("witnessed constants:")
        for key in sorted(self.constants):
            lines.append(f"  {key} = {self.constants[key]:.6g}")
        lines.append(f"overall: {'pass' if self.all_passed else 'fail'}")
        return "\n".join(lines)


# The shifted preconditioner keeps at least this share of each diagonal
# entry and of the determinant of the unshifted block, on every mode.
_SHIFT_KEEP = 0.1
# A slope shift below this share of both diagonal entries at the lowest
# nonzero mode is not applied.
_SHIFT_NEGLIGIBLE = 0.02


def _shift_factor(a: float, b: float, lam: float, c1: float, c2: float) -> float:
    """The largest theta in [0, 1] with a - theta c1 >= k a, b - theta c2 >=
    k b and (a - theta c1)(b - theta c2) - lam^2 >= k (ab - lam^2), for
    k = _SHIFT_KEEP, a, b > 0, ab > lam^2 and c1, c2 >= 0.

    While both diagonal bounds hold, the determinant's margin decreases in
    theta, so its bound is the smaller root of c1 c2 theta^2 - (a c2 + b c1)
    theta + (1 - k)(ab - lam^2), taken in the form 2C / (B + sqrt(B^2 -
    4AC)) that loses no digits and holds for c1 c2 = 0 too.
    """
    room = 1.0 - _SHIFT_KEEP
    theta = 1.0
    if c1 > 0.0:
        theta = min(theta, room * a / c1)
    if c2 > 0.0:
        theta = min(theta, room * b / c2)
    B = a * c2 + b * c1
    if B > 0.0:
        C = room * (a * b - lam * lam)
        theta = min(theta, 2.0 * C / (B + math.sqrt(B * B - 4.0 * c1 * c2 * C)))
    return theta


def _perturbation_sign(spec: ScalarFunctionSpec, grid: Grid, lowers: bool) -> tuple:
    """(ok, wrong_way, detail): does the perturbation of ``spec`` move its
    weight strictly the required way at every grid point?

    Potentials must be lowered (``lowers``), the coupling raised.  wrong_way
    marks a perturbation that moves the weight the other way somewhere; one
    that only fails to be strict (zero at some point) is not ok either.  No
    perturbation is ok.
    """
    pert = perturbation_values(spec, grid)
    if pert is None:
        return True, False, "no perturbation"
    gain = -pert if lowers else pert
    if np.any(gain < 0.0):
        what = "raises the potential" if lowers else "lowers the coupling"
        return False, True, f"perturbation {what} somewhere"
    if not np.all(gain > 0.0):
        return False, False, "ordering not strict at some grid point"
    way = "lowered" if lowers else "raised"
    return True, False, f"strictly {way}, max gap {np.max(gain):.3g}"


def validate_assumptions(problem: ProblemSpec) -> ValidationReport:
    """Sample every structural hypothesis and report, without throwing.

    The report is taken once per problem and kept on it, with read-only
    constants, so the solvers and experiments that check it again reuse it.
    """
    return problem._report


def _audit(problem: ProblemSpec) -> ValidationReport:
    checks = []
    constants = {}
    grid = problem.grid
    N = grid.dim

    def check(name: str, passed: bool, detail: str) -> None:
        checks.append(CheckResult(name, passed, detail))

    periodic = problem.without_perturbations()

    # Periodic potentials bounded below by a positive constant.
    v_p = min(float(np.min(V.values)) for V in (periodic.V1_field, periodic.V2_field))
    constants["V_p"] = v_p
    check(
        "periodic_potentials_positive",
        v_p > 0.0,
        f"min over grid of both periodic potentials = {v_p:.6g}",
    )

    # Relative coupling size for the periodic pair.
    delta_p = periodic.delta_eff
    constants["delta_periodic"] = delta_p
    check(
        "periodic_coupling_small",
        delta_p < 1.0,
        f"max |coupling|/sqrt(V1 V2) over periodic weights = {delta_p:.6g}",
    )

    # Perturbed potentials sit strictly below the periodic ones and stay
    # positive.  Exact equality (zero perturbation) is degenerate but not a
    # sign violation.
    v_0 = min(float(np.min(V.values)) for V in (problem.V1_field, problem.V2_field))
    constants["V_0"] = v_0
    signs = [
        (name, _perturbation_sign(spec, grid, lowers=True))
        for name, spec in (("V1", problem.V1), ("V2", problem.V2))
    ]
    check(
        "potential_perturbations_lower",
        all(ok for _, (ok, _, _) in signs) and v_0 > 0.0,
        "; ".join(f"{name}: {detail}" for name, (_, _, detail) in signs)
        + f"; min perturbed potential = {v_0:.6g}",
    )

    # Perturbed coupling sits at or above the periodic one; strict where a
    # perturbation is declared.  Its size is coupling_size_effective's.
    coup_ok, _, cdetail = _perturbation_sign(problem.coupling, grid, lowers=False)
    check("coupling_perturbation_raises", coup_ok, cdetail)

    # Perturbations must be localized: negligible outside the centered ball
    # of radius L/4 (finite-measure superlevel sets, sampled surrogate).
    decay_ok = True
    decay_details = []
    outside = _sq_radius(grid) > (0.25 * grid.box_length) ** 2
    for name, spec in (
        ("V1", problem.V1),
        ("V2", problem.V2),
        ("coupling", problem.coupling),
    ):
        pert = perturbation_values(spec, grid)
        if pert is None or not np.any(outside):
            continue
        tail = float(np.max(np.abs(pert)[outside]))
        if tail >= DECAY_THRESHOLD:
            decay_ok = False
            decay_details.append(f"{name}: tail {tail:.3g} >= {DECAY_THRESHOLD}")
    check(
        "perturbation_decay",
        decay_ok,
        "; ".join(decay_details) if decay_details else
        f"all perturbations below {DECAY_THRESHOLD} outside radius L/4",
    )

    # Effective relative coupling size for the system the energy solves.
    constants["delta_eff"] = problem.delta_eff
    check(
        "coupling_size_effective",
        problem.delta_eff < 1.0,
        f"delta_eff = {problem.delta_eff:.6g} (must be < 1)",
    )

    # Nonlinearity hypotheses on a log-spaced ladder: the witnesses of f
    # alone come from the nonlinearity, the bound from (s, N).
    for idx, nl, s_i in ((1, problem.nl1, problem.s1), (2, problem.nl2, problem.s2)):
        small, large, superlinear, a1, alpha, a2, positive, f_up, nq_up = nl._ladder_witnesses
        check(
            f"superlinear_nl{idx}",
            superlinear,
            f"f(t)/t at {SUPERLINEAR_T_SMALL:g} is {small:.3g}; "
            f"at {SUPERLINEAR_T_LARGE:g} is {large:.3g}",
        )

        p_i = nl.growth_exponent
        bound = problem.subcritical_bound(s_i)
        constants[f"a1_nl{idx}"] = a1
        constants[f"p_nl{idx}"] = p_i
        check(
            f"growth_subcritical_nl{idx}",
            np.isfinite(a1) and p_i < bound,
            f"witnessed a1 = {a1:.6g} at growth exponent {p_i:g}, critical bound {bound:.6g}",
        )

        constants[f"alpha_nl{idx}"] = alpha
        constants[f"a2_nl{idx}"] = a2
        check(
            f"nonquadratic_nl{idx}",
            positive and a2 > 0.0,
            f"nq > 0 on ladder: {positive}; fitted alpha = {alpha:.4g}, witnessed a2 = {a2:.4g}",
        )
        check(f"ratio_monotone_nl{idx}", f_up, "f(t)/t strictly increasing on ladder")
        check(f"nq_monotone_nl{idx}", nq_up, "f(t)t - 2F(t) strictly increasing on ladder")

    # Nonquadraticity exponent large enough relative to dimension and growth.
    p0 = max(problem.nl1.growth_exponent, problem.nl2.growth_exponent)
    alpha_min = min(constants["alpha_nl1"], constants["alpha_nl2"])
    threshold = 0.5 * N * (p0 - 2.0)
    constants["p0"] = p0
    constants["alpha_threshold"] = threshold
    check(
        "nonquadraticity_exponent",
        bool(alpha_min > threshold),
        f"min fitted alpha = {alpha_min:.4g} vs N(p0-2)/2 = {threshold:.4g}",
    )

    return ValidationReport(tuple(checks), MappingProxyType(constants))
