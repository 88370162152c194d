"""Command-line front end: flat key=value configs, subcommands, exit codes.

Config files are plain text, one `key = value` per line, `#` comments and
blank lines allowed.  Unknown keys, bad types, and out-of-range values are
hard errors that name the key and the offending line.  Exit codes: 0 on
success, 1 on validation failure (including config errors), 2 on
non-convergence, 3 on I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

from .experiments import (
    _check_scales,
    compare_periodic_limit,
    lambda_sweep,
    decoupling_limit,
    write_sweep_csv,
)
from .grid import Grid, _RuleError, write_field
from .model import (
    NonlinearitySpec,
    ProblemSpec,
    ScalarFunctionSpec,
    ValidationFailed,
    validate_assumptions,
)
from .solver import (
    BracketFailure,
    SolverOptions,
    _best_of,
    _check_restarts,
    _check_which,
    mountain_pass_diagnostics,
    solve_ground_state,
    solve_scalar_ground_state,
    solve_with_restarts,
)

__all__ = [
    "ConfigError",
    "ParsedConfig",
    "parse_config",
    "render_config",
    "run",
    "main",
]

SUBCOMMANDS = (
    "check",
    "solve",
    "solve-scalar",
    "sweep",
    "compare-periodic",
    "limit",
    "diagnose",
)
# The subcommands whose solves --restarts repeats.
_RESTARTABLE = ("solve", "solve-scalar", "compare-periodic")


class ConfigError(ValueError):
    """Config text violates the schema; message names key and line."""


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int_list(text: str) -> tuple:
    return tuple(int(part.strip()) for part in text.split(","))


def _parse_float_list(text: str) -> tuple:
    return tuple(float(part.strip()) for part in text.split(","))


@dataclass(frozen=True)
class ParsedConfig:
    problem: ProblemSpec
    options: SolverOptions
    sweep_scales: tuple = (0.2, 0.4, 0.6, 0.8)
    limit_scales: tuple = (0.5, 0.25, 0.1, 0.05, 0.01)
    scalar_which: int = 1

    def __post_init__(self):
        _check_which(self.scalar_which, "scalar_which")
        _check_scales(self.sweep_scales, "sweep_scales", increasing=True)
        _check_scales(self.limit_scales, "limit_scales", increasing=False)


# The owner of each config key: the type that holds its field, enforces its
# rules and gives its default.
_OWNERS = {
    "grid": Grid,
    "problem": ProblemSpec,
    "V1": ScalarFunctionSpec,
    "V2": ScalarFunctionSpec,
    "coupling": ScalarFunctionSpec,
    "nl1": NonlinearitySpec,
    "nl2": NonlinearitySpec,
    "solver": SolverOptions,
    "config": ParsedConfig,
}

_FUNCTION_KEYS = (
    ("kind", "kind", str),
    ("base", "base_constant", float),
    ("trig_amplitude", "trig_amplitude", float),
    ("trig_periods", "trig_periods", _parse_int_list),
    ("perturbation_amplitude", "perturbation_amplitude", float),
    ("perturbation_width", "perturbation_width", float),
)

# key -> (owner, field, parser), in the order render_config writes them.
_KEYS = {
    "dim": ("grid", "dim", int),
    "n": ("grid", "n_per_axis", int),
    "L": ("grid", "box_length", float),
    "s1": ("problem", "s1", float),
    "s2": ("problem", "s2", float),
    "periodic_reference": ("problem", "periodic_reference", _parse_bool),
    **{
        f"{owner}.{suffix}": (owner, field, parse)
        for owner in ("V1", "V2", "coupling")
        for suffix, field, parse in _FUNCTION_KEYS
    },
    **{
        f"{owner}.{field}": (owner, field, parse)
        for owner in ("nl1", "nl2")
        for field, parse in (("kind", str), ("gamma", float), ("p", float))
    },
    **{
        f"solver.{field}": ("solver", field, parse)
        for field, parse in (
            ("max_iters", int),
            ("step_init", float),
            ("backtrack_factor", float),
            ("tol_energy", float),
            ("tol_residual", float),
            ("seed", int),
            ("positivity_clip", _parse_bool),
        )
    },
    "sweep.scales": ("config", "sweep_scales", _parse_float_list),
    "limit.scales": ("config", "limit_scales", _parse_float_list),
    "scalar.which": ("config", "scalar_which", int),
}
_KEY_OF = {(owner, field): key for key, (owner, field, _) in _KEYS.items()}


def _required(owner: str, field: str) -> bool:
    return not any(
        f.name == field and f.default is not dataclasses.MISSING
        for f in dataclasses.fields(_OWNERS[owner])
    )


def _parse_pairs(text: str) -> dict:
    """key -> (raw value, line number); duplicate and malformed lines error."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} "
                f"(first set on line {pairs[key][1]})"
            )
        pairs[key] = (value, lineno)
    return pairs


def _build(pairs: dict) -> ParsedConfig:
    """Parse each given key, then build every owner from its given fields
    (the owner's defaults fill the rest); a broken rule names its key."""

    def where(key: str) -> str:
        lineno = pairs[key][1]
        return f"line {lineno}" if lineno > 0 else "override"

    fields = {owner: {} for owner in _OWNERS}
    for key, (raw, _) in pairs.items():
        if key not in _KEYS:
            raise ConfigError(f"{where(key)}: unknown key {key!r}")
        owner, field, parse = _KEYS[key]
        try:
            fields[owner][field] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{where(key)}: key {key!r}: {exc}") from exc
    for key, (owner, field, _) in _KEYS.items():
        if field not in fields[owner] and _required(owner, field):
            raise ConfigError(f"missing required key {key!r}")

    def make(owner: str, build, **parts):
        try:
            return build(**parts, **fields[owner])
        except _RuleError as exc:
            # a rule across owners names its field "<owner>.<field>"
            inner, _, field = exc.field.rpartition(".")
            key = _KEY_OF[inner or owner, field]
            raise ConfigError(f"{where(key)}: key {key!r}: {exc}") from exc

    problem = make(
        "problem",
        ProblemSpec,
        grid=make("grid", Grid),
        **{w: make(w, ScalarFunctionSpec) for w in ("V1", "V2", "coupling")},
        **{nl: make(nl, NonlinearitySpec) for nl in ("nl1", "nl2")},
    )
    options = make("solver", SolverOptions)
    return make("config", ParsedConfig, problem=problem, options=options)


def parse_config(text: str, overrides=()) -> ParsedConfig:
    """Parse config text, then apply `key=value` override strings, then build."""
    pairs = _parse_pairs(text)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, value = item.partition("=")
        pairs[key.strip()] = (value.strip(), 0)
    return _build(pairs)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def render_config(cfg: ParsedConfig) -> str:
    """Emit the full explicit config; parse_config(render_config(c)) == c."""
    p = cfg.problem
    owners = {
        "grid": p.grid,
        "problem": p,
        "V1": p.V1,
        "V2": p.V2,
        "coupling": p.coupling,
        "nl1": p.nl1,
        "nl2": p.nl2,
        "solver": cfg.options,
        "config": cfg,
    }
    return "".join(
        f"{key} = {_fmt(getattr(owners[owner], field))}\n"
        for key, (owner, field, _) in _KEYS.items()
    )


def _sweep_rows_text(rows) -> str:
    lines = ["scale       level           converged"]
    for r in rows:
        lines.append(f"{r.lambda_scale:<11.6g} {r.level:< 15.10g} {r.converged}")
    return "\n".join(lines)


def _dispatch(args, cfg: ParsedConfig, out_dir: Path) -> int:
    """Run one subcommand and write its outputs.

    Each branch only computes the report ``text`` and whether it succeeded
    (``ok``), plus the solved ``state`` pair (solve, solve-scalar, diagnose)
    or the sweep ``rows`` (sweep, limit) where it has them.  One tail then
    writes ``report.txt`` (the text and a newline), ``sweep.csv`` from the
    rows and ``u.field``/``v.field`` from the pair, prints the text, and
    returns 0 on success; a failure is exit 1 for ``check`` (an assumption
    fails) and exit 2 for every other subcommand (no convergence).
    """
    problem, opts = cfg.problem, cfg.options
    command = args.command
    state = rows = None

    if command == "check":
        report = validate_assumptions(problem)
        text, ok = report.render(), report.all_passed
    elif command == "solve":
        rep = solve_with_restarts(problem, opts=opts, restarts=args.restarts)
        text, ok, state = rep.summary(), rep.converged, rep.state
    elif command == "solve-scalar":
        best = _best_of(
            lambda o: solve_scalar_ground_state(cfg.scalar_which, problem, opts=o),
            opts,
            args.restarts,
        )
        text = f"component = {cfg.scalar_which}\n" + best.summary()
        ok, state = best.converged, best.state
    elif command == "sweep":
        report = lambda_sweep(problem, cfg.sweep_scales, opts=opts)
        rows = report.rows
        text = (
            _sweep_rows_text(rows)
            + f"\nmonotone_decreasing = {report.monotone_decreasing}"
            + f"\nscalar_levels = {report.scalar_levels[0]!r}, {report.scalar_levels[1]!r}"
            + f"\nlimit_level = {report.limit_level!r}"
        )
        ok = all(r.converged for r in rows)
    elif command == "compare-periodic":
        rep = compare_periodic_limit(problem, opts=opts, restarts=args.restarts)
        ok = rep.converged_periodic and rep.converged_perturbed
        text = (
            f"level_periodic  = {rep.level_periodic!r}\n"
            f"level_perturbed = {rep.level_perturbed!r}\n"
            f"gap = {rep.gap!r} (margin {rep.margin!r})\n"
            f"ordering_holds = {rep.ordering_holds}\n"
            f"converged = {ok}"
        )
    elif command == "limit":
        report = decoupling_limit(problem, cfg.limit_scales, opts=opts)
        rows = report.rows
        text = (
            _sweep_rows_text(rows)
            + f"\nscalar_levels = {report.scalar_levels[0]!r}, {report.scalar_levels[1]!r}"
            + f"\ntie = {report.tie}\nsurvivor = {report.survivor}"
            + f"\nvanishing_mass_ratio = {report.vanishing_mass_ratio}"
            + f"\nsurvivor_distance = {report.survivor_distance}"
            + f"\nbranch_switch_flagged = {report.branch_switch_flagged}"
            + f"\nmass_bounded = {report.mass_bounded}"
        )
        ok = all(r.converged for r in rows)
    elif command == "diagnose":
        rep = solve_ground_state(problem, opts=opts)
        diag = mountain_pass_diagnostics(
            problem, rep.state, opts=opts, reference_level=rep.level
        )
        text = rep.summary() + "\n" + diag.summary()
        ok, state = rep.converged, rep.state
    else:
        raise AssertionError(f"unhandled command {command!r}")

    (out_dir / "report.txt").write_text(text + "\n", encoding="ascii")
    if rows is not None:
        write_sweep_csv(rows, out_dir / "sweep.csv")
    if state is not None:
        write_field(state.u, out_dir / "u.field")
        write_field(state.v, out_dir / "v.field")
    print(text)
    return 0 if ok else 1 if command == "check" else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracground",
        description="Ground states of linearly coupled fractional systems "
        "on periodic boxes.",
        epilog="exit codes: 0 success, 1 validation failure, "
        "2 non-convergence, 3 I/O error",
    )
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to a key=value config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override solver.seed")
    parser.add_argument("--restarts", type=int, default=1, help="independent restarts")
    return parser


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3

    try:
        cfg = parse_config(text, overrides=args.overrides)
        if args.seed is not None:
            cfg = dataclasses.replace(
                cfg, options=dataclasses.replace(cfg.options, seed=args.seed)
            )
        _check_restarts(args.restarts, "--restarts")
        if args.restarts != 1 and args.command not in _RESTARTABLE:
            only = ", ".join(_RESTARTABLE)
            raise _RuleError("restarts", f"{args.command} takes no --restarts (only {only} do)")
    except (ConfigError, _RuleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 3

    try:
        return _dispatch(args, cfg, out_dir)
    except (ValidationFailed, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BracketFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
