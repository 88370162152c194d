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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Field, Grid, _RuleError, _check_order

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
        periods = self.trig_periods
        if isinstance(periods, (int, np.integer)):
            periods = (int(periods),)
        object.__setattr__(self, "trig_periods", tuple(int(m) for m in periods))
        if any(m < 1 for m in self.trig_periods):
            raise _RuleError("trig_periods", "trig_periods must be positive integers")
        if self.kind == "constant" and self.trig_amplitude != 0.0:
            raise _RuleError("trig_amplitude", "constant kind admits no trig part")
        if not self.has_perturbation and self.perturbation_amplitude != 0.0:
            raise _RuleError(
                "perturbation_amplitude", f"{self.kind} kind admits no perturbation part"
            )
        if not self.perturbation_width > 0.0:
            raise _RuleError("perturbation_width", "perturbation_width must be positive")

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


def _axis_periods(spec: ScalarFunctionSpec, dim: int) -> tuple:
    m = spec.trig_periods
    if len(m) == 1:
        return m * dim
    if len(m) != dim:
        raise ValueError(
            f"trig_periods has {len(m)} entries for a {dim}-dimensional grid"
        )
    return m


def sample_function(
    spec: ScalarFunctionSpec, grid: Grid, include_perturbation: bool = True
) -> Field:
    """Sample a scalar function spec on a grid.

    include_perturbation=False drops the Gaussian part, yielding the
    periodic reference function.
    """
    if spec.kind == "constant":
        return Field(grid, np.full(grid.shape, spec.base_constant))
    L = grid.box_length
    if abs(L - round(L)) > 1.0e-9 * max(1.0, abs(L)) or round(L) < 1:
        raise ValueError(
            f"periodic kinds need a whole number of unit periods per box, "
            f"got box_length={L}"
        )
    vals = np.full(grid.shape, spec.base_constant)
    if spec.trig_amplitude != 0.0:
        trig = np.ones(grid.shape)
        coords = grid.coordinates()
        for m, x in zip(_axis_periods(spec, grid.dim), coords):
            trig = trig * np.cos(2.0 * np.pi * m * x)
        vals = vals + spec.trig_amplitude * trig
    if spec.has_perturbation and include_perturbation and spec.perturbation_amplitude != 0.0:
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
    """Superlinear nonlinearity f with derivative df, primitive F and
    nq(t) = f(t)t - 2F(t).

    kinds:
      log_power   f(t) = t * ln(1+t)^gamma for t > 0, gamma >= 1
      pure_power  f(t) = t^(p-1) for t > 0, p > 2
    Both vanish identically on t <= 0.
    """

    kind: str
    gamma: float = 1.0
    p: float = 4.0

    def __post_init__(self):
        if self.kind not in NONLINEARITY_KINDS:
            raise _RuleError("kind", f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == "log_power" and not 1.0 <= self.gamma < np.inf:
            raise _RuleError("gamma", f"log_power needs a finite gamma >= 1, got {self.gamma}")
        if self.kind == "pure_power" and not self.p > 2.0:
            raise _RuleError("p", f"pure_power needs p > 2, got {self.p}")

    @property
    def growth_exponent(self) -> float:
        """Exponent used in growth and subcriticality checks."""
        if self.kind == "pure_power":
            return self.p
        return LOG_POWER_GROWTH_EXPONENT

    def f(self, t):
        """Pointwise nonlinearity; accepts scalars or arrays."""
        t = np.asarray(t, dtype=np.float64)
        pos = np.maximum(t, 0.0)
        if self.kind == "pure_power":
            out = pos ** (self.p - 1.0)
        else:
            out = pos * np.log1p(pos) ** self.gamma
        return out if out.ndim else float(out)

    def df(self, t):
        """Derivative f'(t); accepts scalars or arrays, 0 on t <= 0.

        log_power: ln(1+t)^gamma + gamma t ln(1+t)^(gamma-1) / (1+t), a sum
        of nonnegative terms, so it loses no digits.
        """
        t = np.asarray(t, dtype=np.float64)
        pos = np.maximum(t, 0.0)
        if self.kind == "pure_power":
            out = (self.p - 1.0) * pos ** (self.p - 2.0)
        else:
            L = np.log1p(pos)
            out = L**self.gamma + self.gamma * pos * L ** (self.gamma - 1.0) / (1.0 + pos)
        return out if out.ndim else float(out)

    def F(self, t):
        """Primitive of f vanishing at 0."""
        t = np.asarray(t, dtype=np.float64)
        pos = np.maximum(t, 0.0)
        if self.kind == "pure_power":
            out = pos**self.p / self.p
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
            out = (1.0 - 2.0 / self.p) * pos**self.p
        else:
            out = self.gamma * _log_power_integral(pos, self.gamma, 2.0)
        return out if out.ndim else float(out)


def _closed_form_switch(gamma: float) -> float:
    """W = ln(1+t) above which the log_power integrals use their closed forms.

    Only integer gamma has closed forms.  Below this switch they lose digits
    to cancellation (for gamma = 3, 40 ulps at W = 0.75 and 300 at W = 0.5);
    from it on they stay within 5 ulps (checked up to gamma = 12).  Returns
    inf for non-integer gamma.
    """
    return 1.0 + 0.5 * gamma if float(gamma).is_integer() else np.inf


def _log_power_integral(t: np.ndarray, gamma: float, c: float) -> np.ndarray:
    """int_0^W (e^{2w} - c e^w + c - 1) w^b dw, W = ln(1+t), b = gamma + 1 - c.

    c = 1 gives F(t): substitute tau = e^w - 1 in int_0^t tau ln(1+tau)^gamma.
    c = 2 gives nq(t) / gamma.  The integrand is positive and so is every term
    of its power series in W, so the series (_log_power_series) loses no
    digits; above _closed_form_switch(gamma) integer gamma uses the
    closed form instead (_log_power_closed).  Both agree with a
    high-precision reference to within 1e-14 relative over t in [1e-10, 1e6]
    for gamma in {1, 1.5, 2, 3}; the rounding of W dominates for large t.
    Non-finite t passes through (inf stays inf, nan stays nan).
    """
    W = np.asarray(np.log1p(t))
    out = W.copy()
    b = gamma + 1.0 - c
    finite = np.isfinite(W)
    series = finite & (W <= _closed_form_switch(gamma))
    closed = finite & ~series
    out[series] = _log_power_series(W[series], b, c)
    if np.any(closed):
        out[closed] = _log_power_closed(t[closed], W[closed], int(b), c)
    return out


def _log_power_series(W: np.ndarray, b: float, c: float) -> np.ndarray:
    """sum_{k>=1} (2^k - c) W^(k+b+1) / (k! (k+b+1)) for finite W >= 0.

    Terms are added until the last one is below 2^-55 of the running sum
    and the ratio of successive terms (at most 3W/(k+1) from k = 2 on) is
    below 1/2, so the tail is below half an ulp.  An entry that has
    converged is not changed by the terms added for larger entries, so each
    result depends only on its own argument.
    """
    power = W ** (b + 1.0)  # W^(k+b+1) / k! at k = 0
    total = np.zeros_like(W)
    k_min = max(2.0, 6.0 * float(np.max(W, initial=0.0)))
    k = 0
    while True:
        k += 1
        power = power * W / k
        term = ((2.0**k - c) / (k + b + 1.0)) * power
        total += term
        if k >= k_min and np.all(term <= 2.0**-55 * total):
            return total


def _log_power_closed(t: np.ndarray, W: np.ndarray, m: int, c: float) -> np.ndarray:
    """The integral of _log_power_integral for integer b = m >= 0, W = ln(1+t).

    Repeated integration by parts gives
    int_0^W e^{aw} w^m dw = m!/a^(m+1) (e^{aW} S_m(aW) - (-1)^m) with
    S_m(x) = sum_{j<=m} (-1)^(m-j) x^j / j!; e^W is taken as 1 + t.
    """
    u = 1.0 + t
    fm = math.factorial(m)
    out = fm * (u * u * _alternating_exp_sum(m, 2.0 * W) / 2.0 ** (m + 1)
                - c * u * _alternating_exp_sum(m, W))
    out = out + (-1) ** m * fm * (c - 2.0 ** (-m - 1))
    return out + (c - 1.0) * W ** (m + 1) / (m + 1)


def _alternating_exp_sum(m: int, x: np.ndarray) -> np.ndarray:
    """S_m(x) = sum_{j=0}^m (-1)^(m-j) x^j / j!."""
    total = np.zeros_like(x)
    power = np.ones_like(x)
    for j in range(m + 1):
        total = total + (-1) ** (m - j) * power
        power = power * x / (j + 1)
    return total


def nonlinearity_eval(nl: NonlinearitySpec, t: float) -> tuple:
    """(f(t), F(t), nq(t)) at a scalar argument."""
    return (nl.f(t), nl.F(t), nl.nq(t))


@dataclass(frozen=True)
class ProblemSpec:
    """A linearly coupled system of two fractional components on one grid.

    periodic_reference selects which pair of weights the energy sees: the
    full (possibly perturbed) potentials and coupling, or their periodic
    parts only.  Sampled weights are cached on the instance.
    """

    grid: Grid
    s1: float
    s2: float
    V1: ScalarFunctionSpec
    V2: ScalarFunctionSpec
    coupling: ScalarFunctionSpec
    nl1: NonlinearitySpec
    nl2: NonlinearitySpec
    periodic_reference: bool = False

    def __post_init__(self):
        _check_order(self.s1, "s1")
        _check_order(self.s2, "s2")

    @cached_property
    def V1_field(self) -> Field:
        return sample_function(self.V1, self.grid, not self.periodic_reference)

    @cached_property
    def V2_field(self) -> Field:
        return sample_function(self.V2, self.grid, not self.periodic_reference)

    @cached_property
    def coupling_field(self) -> Field:
        return sample_function(self.coupling, self.grid, not self.periodic_reference)

    @cached_property
    def delta_eff(self) -> float:
        """max |lambda| / sqrt(V1 V2) over the grid for the effective weights."""
        return _delta_of(self.coupling_field, self.V1_field, self.V2_field)

    def mean_potential(self, which: int) -> float:
        field = self.V1_field if which == 1 else self.V2_field
        return float(np.mean(field.values))

    def with_coupling_scale(self, factor: float) -> "ProblemSpec":
        return dataclasses.replace(self, coupling=self.coupling.scaled(factor))

    def with_periodic_reference(self, flag: bool) -> "ProblemSpec":
        return dataclasses.replace(self, periodic_reference=bool(flag))

    def subcritical_bound(self, s: float) -> float:
        """Critical exponent 2N/(N-2s) for this grid dimension, inf if N <= 2s."""
        N = self.grid.dim
        if N <= 2.0 * s:
            return np.inf
        return 2.0 * N / (N - 2.0 * s)


def _delta_of(coupling: Field, V1: Field, V2: Field) -> float:
    prod = V1.values * V2.values
    if np.min(prod) <= 0.0:
        return np.inf
    return float(np.max(np.abs(coupling.values) / np.sqrt(prod)))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple
    constants: dict

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


def _ladder() -> np.ndarray:
    return np.geomspace(LADDER_LO, LADDER_HI, LADDER_POINTS)


def validate_assumptions(problem: ProblemSpec) -> ValidationReport:
    """Sample every structural hypothesis and report, without throwing."""
    checks = []
    constants = {}
    grid = problem.grid
    N = grid.dim

    V1p = sample_function(problem.V1, grid, include_perturbation=False)
    V2p = sample_function(problem.V2, grid, include_perturbation=False)
    lam_p = sample_function(problem.coupling, grid, include_perturbation=False)
    V1e = sample_function(problem.V1, grid, include_perturbation=True)
    V2e = sample_function(problem.V2, grid, include_perturbation=True)
    lam_e = sample_function(problem.coupling, grid, include_perturbation=True)

    # Periodic potentials bounded below by a positive constant.
    v_p = min(float(np.min(V1p.values)), float(np.min(V2p.values)))
    constants["V_p"] = v_p
    checks.append(
        CheckResult(
            "periodic_potentials_positive",
            v_p > 0.0,
            f"min over grid of both periodic potentials = {v_p:.6g}",
        )
    )

    # Relative coupling size for the periodic pair.
    delta_p = _delta_of(lam_p, V1p, V2p)
    constants["delta_periodic"] = delta_p
    checks.append(
        CheckResult(
            "periodic_coupling_small",
            delta_p < 1.0,
            f"max |coupling|/sqrt(V1 V2) over periodic weights = {delta_p:.6g}",
        )
    )

    # Perturbed potentials sit strictly below the periodic ones and stay
    # positive.  Exact equality (zero perturbation) is degenerate but not a
    # sign violation.
    v_0 = min(float(np.min(V1e.values)), float(np.min(V2e.values)))
    constants["V_0"] = v_0
    signs = [
        (name, _perturbation_sign(spec, grid, lowers=True))
        for name, spec in (("V1", problem.V1), ("V2", problem.V2))
    ]
    checks.append(
        CheckResult(
            "potential_perturbations_lower",
            all(ok for _, (ok, _, _) in signs) and v_0 > 0.0,
            "; ".join(f"{name}: {detail}" for name, (_, _, detail) in signs)
            + f"; min perturbed potential = {v_0:.6g}",
        )
    )

    # Perturbed coupling sits at or above the periodic one; strict where a
    # perturbation is declared.  Size bound via the pointwise delta.
    delta_e = _delta_of(lam_e, V1e, V2e)
    constants["delta_perturbed"] = delta_e
    coup_ok, _, cdetail = _perturbation_sign(problem.coupling, grid, lowers=False)
    checks.append(
        CheckResult(
            "coupling_perturbation_raises",
            coup_ok and delta_e < 1.0,
            cdetail + f"; max |coupling|/sqrt(V1 V2) perturbed = {delta_e:.6g}",
        )
    )

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
    checks.append(
        CheckResult(
            "perturbation_decay",
            decay_ok,
            "; ".join(decay_details) if decay_details else
            f"all perturbations below {DECAY_THRESHOLD} outside radius L/4",
        )
    )

    # Effective relative coupling size for the system the energy solves.
    constants["delta_eff"] = problem.delta_eff
    checks.append(
        CheckResult(
            "coupling_size_effective",
            problem.delta_eff < 1.0,
            f"delta_eff = {problem.delta_eff:.6g} (must be < 1)",
        )
    )

    # Nonlinearity hypotheses on a log-spaced ladder.
    ladder = _ladder()
    for idx, nl in ((1, problem.nl1), (2, problem.nl2)):
        s_i = problem.s1 if idx == 1 else problem.s2
        ratio_small = nl.f(SUPERLINEAR_T_SMALL) / SUPERLINEAR_T_SMALL
        decades = np.array([1.0e2, 1.0e4, 1.0e6, SUPERLINEAR_T_LARGE])
        ratios_large = nl.f(decades) / decades
        grows = bool(np.all(np.diff(ratios_large) > 0.0)) and ratios_large[-1] > SUPERLINEAR_LARGE_BOUND
        checks.append(
            CheckResult(
                f"superlinear_nl{idx}",
                ratio_small < SUPERLINEAR_SMALL_BOUND and grows,
                f"f(t)/t at {SUPERLINEAR_T_SMALL:g} is {ratio_small:.3g}; "
                f"at {SUPERLINEAR_T_LARGE:g} is {ratios_large[-1]:.3g}",
            )
        )

        p_i = nl.growth_exponent
        fvals = nl.f(ladder)
        a1 = float(np.max(fvals / (1.0 + ladder ** (p_i - 1.0))))
        bound = problem.subcritical_bound(s_i)
        constants[f"a1_nl{idx}"] = a1
        constants[f"p_nl{idx}"] = p_i
        checks.append(
            CheckResult(
                f"growth_subcritical_nl{idx}",
                np.isfinite(a1) and p_i < bound,
                f"witnessed a1 = {a1:.6g} at growth exponent {p_i:g}, "
                f"critical bound {bound:.6g}",
            )
        )

        nqv = nl.nq(ladder)
        positive = bool(np.all(nqv > 0.0))
        if positive:
            alpha = float(np.polyfit(np.log(ladder), np.log(nqv), 1)[0])
            a2 = float(np.min(nqv / ladder**alpha))
        else:
            alpha, a2 = float("nan"), 0.0
        constants[f"alpha_nl{idx}"] = alpha
        constants[f"a2_nl{idx}"] = a2
        checks.append(
            CheckResult(
                f"nonquadratic_nl{idx}",
                positive and a2 > 0.0,
                f"nq > 0 on ladder: {positive}; fitted alpha = {alpha:.4g}, "
                f"witnessed a2 = {a2:.4g}",
            )
        )

        fratio = fvals / ladder
        checks.append(
            CheckResult(
                f"ratio_monotone_nl{idx}",
                bool(np.all(np.diff(fratio) > 0.0)),
                "f(t)/t strictly increasing on ladder",
            )
        )
        checks.append(
            CheckResult(
                f"nq_monotone_nl{idx}",
                bool(np.all(np.diff(nqv) > 0.0)),
                "f(t)t - 2F(t) strictly increasing on ladder",
            )
        )

    # Nonquadraticity exponent large enough relative to dimension and growth.
    p0 = max(problem.nl1.growth_exponent, problem.nl2.growth_exponent)
    alpha_min = min(constants["alpha_nl1"], constants["alpha_nl2"])
    threshold = 0.5 * N * (p0 - 2.0)
    constants["p0"] = p0
    constants["alpha_threshold"] = threshold
    checks.append(
        CheckResult(
            "nonquadraticity_exponent",
            bool(alpha_min > threshold),
            f"min fitted alpha = {alpha_min:.4g} vs N(p0-2)/2 = {threshold:.4g}",
        )
    )

    return ValidationReport(tuple(checks), constants)
