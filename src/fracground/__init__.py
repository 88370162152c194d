"""Positive ground states of linearly coupled fractional systems.

The library discretizes coupled fractional Schrodinger systems on periodic
boxes, validates the structural hypotheses of the underlying variational
theory, and computes least-energy states by projected descent on the
natural ray constraint.  Experiments reproduce the qualitative behaviour of
the energy level as the linear coupling varies: comparison against the
periodic reference, monotone decrease in the coupling, and degeneration to
a single-component ground state as the coupling vanishes.
"""

from .grid import (
    Field,
    FieldFormatError,
    Grid,
    GridMismatch,
    apply_frac_laplacian,
    hs_quadratic_form,
    integrate,
    lp_norm,
    make_grid,
    read_field,
    write_field,
)
from .model import (
    CheckResult,
    NonlinearitySpec,
    ProblemSpec,
    ScalarFunctionSpec,
    ValidationFailed,
    ValidationReport,
    nonlinearity_eval,
    sample_function,
    validate_assumptions,
)
from .energy import (
    EnergyBreakdown,
    StatePair,
    coupled_quadratic,
    energy,
    gradient,
    l2_norm_pair,
    nehari_value,
)
from .solver import (
    BracketFailure,
    DiagnosticsReport,
    NotInEPlus,
    SolveReport,
    SolverOptions,
    default_initial_state,
    mountain_pass_diagnostics,
    nehari_project,
    solve_ground_state,
    solve_scalar_ground_state,
    solve_with_restarts,
)
from .experiments import (
    CompareReport,
    LimitReport,
    PerturbationSignViolation,
    SweepReport,
    SweepRow,
    compare_periodic_limit,
    lambda_sweep,
    decoupling_limit,
    write_sweep_csv,
)
from .cli import ConfigError, ParsedConfig, parse_config, render_config

__version__ = "0.1.0"
