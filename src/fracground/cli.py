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

from .energy import StatePair
from .experiments import (
    PerturbationSignViolation,
    compare_periodic_limit,
    lambda_sweep,
    decoupling_limit,
    write_sweep_csv,
)
from .grid import Grid, _RuleError, make_grid, write_field
from .model import (
    NonlinearitySpec,
    ProblemSpec,
    ScalarFunctionSpec,
    ValidationFailed,
    validate_assumptions,
)
from .solver import (
    BracketFailure,
    NotInEPlus,
    SolverOptions,
    _best_of,
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


# The owner of each config key: the type that holds its field, enforces its
# rules and gives its default ("grid" fields are make_grid's arguments).
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
            key = _KEY_OF[owner, exc.field]
            raise ConfigError(f"{where(key)}: key {key!r}: {exc}") from exc

    problem = make(
        "problem",
        ProblemSpec,
        grid=make("grid", make_grid),
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


def _write_report(out_dir: Path, text: str) -> None:
    (out_dir / "report.txt").write_text(text, encoding="ascii")


def _write_state(out_dir: Path, state: StatePair) -> None:
    write_field(state.u, out_dir / "u.field")
    write_field(state.v, out_dir / "v.field")


def _sweep_rows_text(rows) -> str:
    lines = ["scale       level           converged"]
    for r in rows:
        lines.append(f"{r.lambda_scale:<11.6g} {r.level:< 15.10g} {r.converged}")
    return "\n".join(lines)


def _dispatch(args, cfg: ParsedConfig, out_dir: Path) -> int:
    problem, opts = cfg.problem, cfg.options
    command = args.command

    if command == "check":
        report = validate_assumptions(problem)
        text = report.render()
        _write_report(out_dir, text + "\n")
        print(text)
        return 0 if report.all_passed else 1

    if command == "solve":
        rep = solve_with_restarts(problem, opts=opts, restarts=args.restarts)
        _write_report(out_dir, rep.summary() + "\n")
        _write_state(out_dir, rep.state)
        print(rep.summary())
        return 0 if rep.converged else 2

    if command == "solve-scalar":
        best = _best_of(
            lambda o: solve_scalar_ground_state(cfg.scalar_which, problem, opts=o),
            opts,
            args.restarts,
        )
        text = f"component = {cfg.scalar_which}\n" + best.summary()
        _write_report(out_dir, text + "\n")
        _write_state(out_dir, best.state)
        print(text)
        return 0 if best.converged else 2

    if command == "sweep":
        report = lambda_sweep(problem, cfg.sweep_scales, opts=opts)
        write_sweep_csv(report.rows, out_dir / "sweep.csv")
        text = (
            _sweep_rows_text(report.rows)
            + f"\nmonotone_decreasing = {report.monotone_decreasing}"
            + f"\nscalar_levels = {report.scalar_levels[0]!r}, {report.scalar_levels[1]!r}"
            + f"\nlimit_level = {report.limit_level!r}"
        )
        _write_report(out_dir, text + "\n")
        print(text)
        return 0 if all(r.converged for r in report.rows) else 2

    if command == "compare-periodic":
        rep = compare_periodic_limit(problem, opts=opts, restarts=args.restarts)
        text = (
            f"level_periodic  = {rep.level_periodic!r}\n"
            f"level_perturbed = {rep.level_perturbed!r}\n"
            f"gap = {rep.gap!r} (margin {rep.margin!r})\n"
            f"ordering_holds = {rep.ordering_holds}\n"
            f"converged = {rep.converged_periodic and rep.converged_perturbed}"
        )
        _write_report(out_dir, text + "\n")
        print(text)
        return 0 if (rep.converged_periodic and rep.converged_perturbed) else 2

    if command == "limit":
        report = decoupling_limit(problem, cfg.limit_scales, opts=opts)
        write_sweep_csv(report.rows, out_dir / "sweep.csv")
        text = (
            _sweep_rows_text(report.rows)
            + f"\nscalar_levels = {report.scalar_levels[0]!r}, {report.scalar_levels[1]!r}"
            + f"\ntie = {report.tie}\nsurvivor = {report.survivor}"
            + f"\nvanishing_mass_ratio = {report.vanishing_mass_ratio}"
            + f"\nsurvivor_distance = {report.survivor_distance}"
            + f"\nbranch_switch_flagged = {report.branch_switch_flagged}"
            + f"\nmass_bounded = {report.mass_bounded}"
        )
        _write_report(out_dir, text + "\n")
        print(text)
        return 0 if all(r.converged for r in report.rows) else 2

    if command == "diagnose":
        rep = solve_ground_state(problem, opts=opts)
        diag = mountain_pass_diagnostics(
            problem, rep.state, opts=opts, reference_level=rep.level
        )
        text = rep.summary() + "\n" + diag.summary()
        _write_report(out_dir, text + "\n")
        _write_state(out_dir, rep.state)
        print(text)
        return 0 if rep.converged else 2

    raise AssertionError(f"unhandled command {command!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracground",
        description="Ground states of linearly coupled fractional systems "
        "on periodic boxes.",
        epilog="exit codes: 0 success, 1 validation failure, "
        "2 non-convergence, 3 I/O error",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to a key=value config")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        sp.add_argument("--seed", type=int, default=None, help="override solver.seed")
        sp.add_argument("--restarts", type=int, default=1, help="independent restarts")
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
        if args.restarts < 1:
            raise ConfigError("--restarts must be >= 1")
    except ConfigError as exc:
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
    except (ValidationFailed, NotInEPlus, PerturbationSignViolation, ValueError) as exc:
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
