"""Config parsing, rendering, subcommands, and exit codes."""

import dataclasses
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracground import (
    ConfigError,
    Field,
    NonlinearitySpec,
    ParsedConfig,
    ScalarFunctionSpec,
    SolverOptions,
    apply_frac_laplacian,
    parse_config,
    read_field,
    render_config,
    solve_scalar_ground_state,
)
from fracground import cli, solver
from fracground.cli import run
from fracground.grid import _RuleError


BASE_CONFIG = """\
# quick two-component system on a small grid
dim = 2
n = 32
L = 8.0
s1 = 0.5
s2 = 0.5

V1.kind = constant
V1.base = 1.0
V2.kind = constant
V2.base = 1.5
coupling.kind = constant
coupling.base = 0.5

nl1.kind = log_power
nl1.gamma = 1.0
nl2.kind = log_power
nl2.gamma = 1.0

solver.max_iters = 4000
"""


def write_config(tmp_path, text=BASE_CONFIG, name="problem.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return path


TESTS = Path(__file__).resolve().parent

# A cold library solve and a CLI solve, then the names of the loaded scipy
# modules; run in a fresh interpreter, so only what they import is loaded.
NO_SCIPY_SCRIPT = """\
import sys

from fracground import solve_ground_state
from fracground.cli import run
from fracground.grid import _RuleError
from helpers import constant_problem

assert solve_ground_state(constant_problem()).converged
assert run(["solve", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


# ---------------------------------------------------------------------------
# parsing


def test_parse_base_config():
    cfg = parse_config(BASE_CONFIG)
    p = cfg.problem
    assert p.grid.dim == 2
    assert p.grid.n_per_axis == 32
    assert p.grid.box_length == 8.0
    assert p.s1 == 0.5
    assert p.V2.base_constant == 1.5
    assert p.nl1.kind == "log_power"
    assert cfg.options.max_iters == 4000
    # untouched keys fall back to documented defaults
    assert cfg.options.tol_residual == 1e-8
    assert cfg.options.seed == 0
    assert cfg.sweep_scales == (0.2, 0.4, 0.6, 0.8)
    assert cfg.limit_scales == (0.5, 0.25, 0.1, 0.05, 0.01)
    assert cfg.scalar_which == 1


def test_parse_reports_unknown_key_with_line():
    text = BASE_CONFIG + "solver.stepsize = 0.1\n"
    lineno = len(text.splitlines())
    with pytest.raises(ConfigError, match=f"line {lineno}.*solver.stepsize"):
        parse_config(text)


def test_parse_reports_bad_grid_size_with_line():
    text = BASE_CONFIG.replace("n = 32", "n = 48")
    with pytest.raises(ConfigError, match="line 3.*power of two"):
        parse_config(text)


def test_parse_reports_bad_value_type():
    text = BASE_CONFIG.replace("s1 = 0.5", "s1 = half")
    with pytest.raises(ConfigError, match="line 5.*'s1'"):
        parse_config(text)


def test_parse_rejects_duplicate_key():
    text = BASE_CONFIG + "dim = 3\n"
    with pytest.raises(ConfigError, match="duplicate key 'dim'"):
        parse_config(text)


def test_parse_requires_mandatory_keys():
    text = "\n".join(
        line for line in BASE_CONFIG.splitlines() if not line.startswith("dim")
    )
    with pytest.raises(ConfigError, match="missing required key 'dim'"):
        parse_config(text)


def test_parse_rejects_malformed_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("this is not a key value pair")


def test_parse_applies_overrides():
    cfg = parse_config(BASE_CONFIG, overrides=["solver.seed=7", "n=16"])
    assert cfg.options.seed == 7
    assert cfg.problem.grid.n_per_axis == 16
    with pytest.raises(ConfigError, match="override"):
        parse_config(BASE_CONFIG, overrides=["solver.seed"])
    with pytest.raises(ConfigError, match="override.*power of two"):
        parse_config(BASE_CONFIG, overrides=["n=48"])


def test_parse_rejects_out_of_range_order():
    text = BASE_CONFIG.replace("s1 = 0.5", "s1 = 1.5")
    with pytest.raises(ConfigError, match="'s1'"):
        parse_config(text)


def test_render_config_round_trips():
    cfg = parse_config(BASE_CONFIG)
    text = render_config(cfg)
    again = parse_config(text)
    assert again == cfg
    # overrides survive a round trip too
    cfg2 = parse_config(
        BASE_CONFIG,
        overrides=["coupling.kind=periodic_plus_perturbation",
                   "coupling.perturbation_amplitude=0.1",
                   "sweep.scales=0.1,0.3"],
    )
    assert parse_config(render_config(cfg2)) == cfg2


def test_numpy_floats_survive_a_round_trip():
    # a numpy float is a float, but its repr names its type
    cfg = dataclasses.replace(
        parse_config(BASE_CONFIG),
        options=SolverOptions(tol_residual=np.float64(1e-8)),
        sweep_scales=tuple(d * np.sqrt(1.5) for d in (0.2, 0.4, 0.6, 0.8)),
    )
    text = render_config(cfg)
    assert "np." not in text
    again = parse_config(text)
    assert again == cfg
    assert again.options.tol_residual == 1e-8
    assert again.sweep_scales == tuple(float(d * np.sqrt(1.5)) for d in (0.2, 0.4, 0.6, 0.8))


@pytest.mark.parametrize("which", [True, 2.0])
def test_config_refuses_a_component_it_cannot_render(which):
    # a config that builds must parse back from its rendering, and "True"
    # or "2.0" is no int to the parser (SolverOptions likewise refuses
    # tol_residual=True)
    with pytest.raises(ValueError, match="scalar_which must be 1 or 2"):
        dataclasses.replace(parse_config(BASE_CONFIG), scalar_which=which)


def _set(path, field, value=True):
    """A builder of the config part at ``path`` with ``field`` set to value."""

    def build(cfg):
        for name in path:
            cfg = getattr(cfg, name)
        return dataclasses.replace(cfg, **{field: value})

    return field, build


def _order_s(cfg):
    grid = cfg.problem.grid
    return apply_frac_laplacian(Field(grid, np.ones(grid.shape)), True)


_V1_NUMBERS = ("base_constant", "trig_amplitude", "perturbation_amplitude", "perturbation_width")


@pytest.mark.parametrize(
    "field,build",
    [
        *[_set(("problem", "grid"), f) for f in ("dim", "n_per_axis", "box_length")],
        *[_set(("problem",), f) for f in ("s1", "s2")],
        ("s", _order_s),
        *[_set(("problem", "V1"), f) for f in _V1_NUMBERS],
        _set(("problem", "V1"), "trig_periods", (1, True)),
        *[_set(("problem", "nl1"), f) for f in ("gamma", "p")],
        _set((), "sweep_scales", (0.1, True)),
        _set((), "limit_scales", (0.5, True)),
    ],
)
def test_a_bool_is_no_number_to_any_owner(field, build):
    # True == 1, but a config holding it renders as "True", which
    # parse_config refuses: every numeric field refuses a bool by name
    with pytest.raises(_RuleError, match=field) as caught:
        build(parse_config(BASE_CONFIG))
    assert caught.value.field == field


# ---------------------------------------------------------------------------
# subcommands and exit codes


def test_check_command_passes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = run(["check", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = (out / "report.txt").read_text(encoding="ascii")
    assert "[PASS]" in report and "[FAIL]" not in report
    assert "[PASS]" in capsys.readouterr().out


@pytest.mark.parametrize("n, shown", [(32, False), (64, True)])
def test_solve_report_shows_the_resolution_gap_when_a_coarse_level_ran(tmp_path, n, shown):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = run(["solve", "--config", str(cfg), "--out", str(out), "--set", f"n={n}"])
    assert code == 0
    report = (out / "report.txt").read_text(encoding="ascii")
    assert ("\nresolution_gap = " in report) == shown


def test_solves_load_no_scipy(tmp_path):
    # the runtime needs numpy alone: transforms are numpy.fft's
    cfg = write_config(tmp_path)
    path = os.pathsep.join((str(TESTS.parent / "src"), str(TESTS)))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(cfg), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_check_command_flags_bad_problem(tmp_path):
    text = BASE_CONFIG.replace("coupling.base = 0.5", "coupling.base = 1.5")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    code = run(["check", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert "[FAIL]" in (out / "report.txt").read_text(encoding="ascii")


def test_solve_command_writes_state(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = run(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = (out / "report.txt").read_text(encoding="ascii")
    assert "converged = True" in report
    u = read_field(out / "u.field")
    v = read_field(out / "v.field")
    assert u.grid.n_per_axis == 32
    assert u.grid == v.grid
    assert u.values.min() >= -1e-12
    assert not (out / "sweep.csv").exists()


def test_solve_command_reports_nonconvergence(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = run(
        ["solve", "--config", str(cfg), "--out", str(out),
         "--set", "solver.max_iters=3"]
    )
    assert code == 2
    assert "converged = False" in (out / "report.txt").read_text(encoding="ascii")


@pytest.mark.parametrize("first_step", ["1e300", "1e308"])
def test_overflowing_first_step_stalls_without_warnings(tmp_path, capfd, monkeypatch, first_step):
    # every trial of the first line search overflows: each is a failed
    # trial, so the solve stalls (exit 2) and nothing leaks to stderr
    monkeypatch.setattr(solver, "_FIRST_STEP", float(first_step))
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = run(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "stalled = True" in (out / "report.txt").read_text(encoding="ascii")
    err = capfd.readouterr().err
    assert "RuntimeWarning" not in err and "non-finite" not in err


def test_solve_command_deterministic_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
    assert (out1 / "u.field").read_bytes() == (out2 / "u.field").read_bytes()
    assert (out1 / "v.field").read_bytes() == (out2 / "v.field").read_bytes()


def test_seed_flag_changes_start_not_level(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["solve", "--config", str(cfg), "--out", str(out2), "--seed", "5"]) == 0
    def level_of(d):
        for line in (d / "report.txt").read_text().splitlines():
            if line.startswith("level = "):
                return float(line.split("=")[1])
        raise AssertionError("no level line")
    assert level_of(out1) == pytest.approx(level_of(out2), rel=1e-6)


def test_solve_scalar_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = run(
        ["solve-scalar", "--config", str(cfg), "--out", str(out),
         "--set", "scalar.which=2"]
    )
    assert code == 0
    report = (out / "report.txt").read_text(encoding="ascii")
    assert "component = 2" in report
    u = read_field(out / "u.field")
    assert np.all(u.values == 0.0)
    v = read_field(out / "v.field")
    assert v.values.max() > 0.0


def test_sweep_command_writes_csv(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = run(
        ["sweep", "--config", str(cfg), "--out", str(out),
         "--set", "sweep.scales=0.3,0.8"]
    )
    assert code == 0
    csv = (out / "sweep.csv").read_text(encoding="ascii").splitlines()
    assert csv[0] == "scale,level,residual,u_mass,v_mass,converged"
    assert len(csv) == 3
    assert csv[1].startswith("0.2999999999999999") or csv[1].startswith("0.3,")
    report = (out / "report.txt").read_text(encoding="ascii")
    assert "monotone_decreasing = True" in report


def test_sweep_command_rejects_bad_scales(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = run(
        ["sweep", "--config", str(cfg), "--out", str(out),
         "--set", "sweep.scales=0.8,0.3"]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_limit_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = run(
        ["limit", "--config", str(cfg), "--out", str(out),
         "--set", "limit.scales=0.4,0.1"]
    )
    assert code == 0
    report = (out / "report.txt").read_text(encoding="ascii")
    assert "survivor = 1" in report
    assert "branch_switch_flagged = False" in report
    assert (out / "sweep.csv").exists()


def test_diagnose_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = run(["diagnose", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = (out / "report.txt").read_text(encoding="ascii")
    assert "small_sphere_witnessed = True" in report
    assert "negative_ray_witnessed = True" in report
    assert "level_consistent = True" in report


def test_compare_periodic_command(tmp_path):
    text = BASE_CONFIG.replace(
        "V1.kind = constant\nV1.base = 1.0",
        "V1.kind = periodic_plus_perturbation\nV1.base = 1.0\n"
        "V1.perturbation_amplitude = -0.2\nV1.perturbation_width = 0.5",
    )
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    code = run(["compare-periodic", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = (out / "report.txt").read_text(encoding="ascii")
    assert "ordering_holds = True" in report


def test_missing_config_gives_io_exit(tmp_path, capsys):
    code = run(["solve", "--config", str(tmp_path / "nope.cfg")])
    assert code == 3
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_config_gives_config_exit(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "bogus.key = 1\n")
    code = run(["check", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


def test_readme_names_exactly_the_solver_keys():
    # solver.py is the module's file name, not a key
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\bsolver\.\w+", readme)) - {"solver.py"}
    assert named == {key for key in cli._KEYS if key.startswith("solver.")}


@pytest.mark.parametrize(
    "key",
    [
        "solver.positivity_clip", "solver.step_init", "solver.backtrack_factor",
        "solver.tol_energy", "periodic_reference",
    ],
)
def test_the_clip_has_no_config_key(tmp_path, capsys, key):
    # the clip at 0 always applies, so it has no switch; the line search's
    # first step, backtrack factor and energy tolerance are constants; a
    # periodic problem is written with zero perturbation amplitudes
    cfg = write_config(tmp_path, BASE_CONFIG + f"{key} = 1\n")
    code = run(["check", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"unknown key '{key}'" in capsys.readouterr().err


def test_restarts_flag_validated(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = run(
        ["solve", "--config", str(cfg), "--out", str(tmp_path / "out"),
         "--restarts", "0"]
    )
    assert code == 1
    assert "restarts" in capsys.readouterr().err


def test_seed_flag_validated_under_its_own_name(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = run(
        ["solve", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "-1"]
    )
    assert code == 1
    assert "--seed must be >= 0" in capsys.readouterr().err


def level_of(report_text):
    for line in report_text.splitlines():
        if line.startswith("level = "):
            return float(line.split("=")[1])
    raise AssertionError("no level line")


def test_solve_scalar_restarts_keep_the_lowest_level(tmp_path):
    # three iterations leave each seed at its own level, none converged
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = run(
        ["solve-scalar", "--config", str(cfg), "--out", str(out),
         "--seed", "3", "--restarts", "2", "--set", "solver.max_iters=3"]
    )
    assert code == 2
    report = (out / "report.txt").read_text(encoding="ascii")
    assert "restarts = 2" in report
    problem = parse_config(BASE_CONFIG).problem
    levels = [
        solve_scalar_ground_state(
            1, problem, opts=SolverOptions(max_iters=3, seed=seed)
        ).level
        for seed in (3, 4)
    ]
    assert levels[0] != levels[1]
    assert level_of(report) == min(levels)


# ---------------------------------------------------------------------------
# input rules: every key is checked by the type that owns its field


REQUIRED_ONLY = """\
dim = 1
n = 16
L = 4.0
s1 = 0.5
s2 = 0.8
V1.kind = constant
V2.kind = periodic_trig
coupling.kind = periodic_plus_perturbation
nl1.kind = log_power
nl2.kind = pure_power
"""


def test_required_keys_alone_take_the_owners_defaults():
    cfg = parse_config(REQUIRED_ONLY)
    p = cfg.problem
    assert cfg.options == SolverOptions()
    assert p.nl1 == NonlinearitySpec("log_power")
    assert p.nl2 == NonlinearitySpec("pure_power")
    assert p.V1 == ScalarFunctionSpec("constant")
    assert p.V2 == ScalarFunctionSpec("periodic_trig")
    assert p.coupling == ScalarFunctionSpec("periodic_plus_perturbation")
    assert cfg == ParsedConfig(p, SolverOptions())


@pytest.mark.parametrize(
    "override",
    [
        "dim=4", "n=48", "n=4", "L=0", "L=-1", "L=inf", "L=nan", "L=1e400",
        "L=1e-200", "L=1e-154",
        "s1=1.5", "s2=0", "s2=nan",
        "V1.kind=bogus", "V1.trig_amplitude=0.5", "V1.trig_periods=0",
        "V2.trig_periods=1,-2", "V1.perturbation_amplitude=0.1",
        "coupling.perturbation_width=-1", "coupling.perturbation_width=0",
        "nl1.kind=cubic", "nl1.gamma=0.5", "nl2.gamma=nan", "nl2.gamma=inf",
        "solver.max_iters=0", "solver.tol_residual=nan",
        "scalar.which=3",
        "V1.base=inf", "coupling.base=nan", "coupling.perturbation_width=inf",
        "nl1.kind=pure_power nl1.p=inf",
        "solver.seed=-1",
        "sweep.scales=0.5,0.2", "sweep.scales=-0.1,0.2", "sweep.scales=nan",
        "limit.scales=0.1,0.5", "limit.scales=0.5,0", "limit.scales=nan",
        "sweep.scales=0.1,inf", "limit.scales=inf,0.1",
        "V1.kind=periodic_trig V1.trig_amplitude=0.1 L=8.5",
        "V1.kind=periodic_trig V1.trig_amplitude=0.1 V1.trig_periods=1,2,3",
    ],
)
def test_out_of_range_override_names_its_key(override):
    # space-separated overrides apply in order; the last one breaks a rule
    overrides = override.split()
    key = overrides[-1].partition("=")[0]
    with pytest.raises(ConfigError, match=f"^override: key '{re.escape(key)}'"):
        parse_config(BASE_CONFIG, overrides=overrides)


def test_rule_broken_in_the_file_names_key_and_line():
    text = BASE_CONFIG + "nl2.kind = pure_power\nnl2.p = 2.0\n"
    text = text.replace("nl2.kind = log_power\n", "")
    lineno = len(text.splitlines())
    with pytest.raises(ConfigError, match=f"^line {lineno}: key 'nl2.p': .*p > 2"):
        parse_config(text)


@pytest.mark.parametrize("value", ["inf", "1e400", "1e200"])
def test_infinite_box_length_is_a_config_error(tmp_path, capsys, value):
    cfg = write_config(tmp_path)
    code = run(
        ["check", "--config", str(cfg), "--out", str(tmp_path / "out"),
         "--set", f"L={value}"]
    )
    assert code == 1
    assert "key 'L'" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_huge_log_power_exponent_fails_validation(tmp_path, capsys):
    # ln(1+t)^gamma overflows for t > e - 1 and the series for F and nq
    # meets 0 * inf; validation must still end
    cfg = write_config(tmp_path)
    code = run(
        ["check", "--config", str(cfg), "--out", str(tmp_path / "out"),
         "--set", "nl1.gamma=1e300"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "[FAIL] nonquadratic_nl1" in out and "overall: fail" in out


def test_restarts_flag_message(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = run(
        ["check", "--config", str(cfg), "--out", str(tmp_path / "out"),
         "--restarts", "-1"]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: --restarts must be >= 1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["check", "sweep", "limit", "diagnose"])
def test_restarts_refused_where_nothing_restarts(tmp_path, capsys, command):
    cfg = write_config(tmp_path)
    code = run(
        [command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--restarts", "2"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "--restarts" in err
    assert all(name in err for name in ("solve", "solve-scalar", "compare-periodic"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, override", [("sweep", "sweep.scales=0.5,0.2"), ("limit", "limit.scales=0.1,0.5")]
)
def test_misordered_scales_name_their_key_before_any_output(tmp_path, capsys, command, override):
    cfg = write_config(tmp_path)
    code = run(
        [command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--set", override]
    )
    assert code == 1
    key = override.partition("=")[0]
    assert capsys.readouterr().err.startswith(f"error: override: key '{key}': scales must")
    assert not (tmp_path / "out").exists()


def test_module_entry_point_runs_the_cli(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    monkeypatch.setattr(
        "sys.argv", ["fracground", "check", "--config", str(cfg), "--out", str(tmp_path / "out")]
    )
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("fracground", run_name="__main__")
    assert exc.value.code == 0
    assert "overall: pass" in capsys.readouterr().out


DEGENERATE_VALUES = ["inf", "nan", "-1", "0", "1e400", "", "abc", "-inf", "1,x"]


def test_degenerate_single_key_overrides(tmp_path):
    # any one key set to a degenerate value either parses or is a
    # ConfigError, and `check` exits 0 or 1 without raising; no value here
    # is a valid large n, which would allocate a huge grid
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cfg = write_config(tmp_path)
    keys = [line.partition(" =")[0] for line in
            render_config(parse_config(BASE_CONFIG)).splitlines()]

    @hypothesis.settings(
        max_examples=150, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(
        key=st.sampled_from(keys),
        value=st.sampled_from(DEGENERATE_VALUES) | st.text("xyz.,-e ", max_size=4),
    )
    def check(key, value):
        override = f"{key}={value}"
        try:
            parse_config(BASE_CONFIG, overrides=[override])
        except ConfigError:
            pass
        argv = ["check", "--config", str(cfg), "--out", str(tmp_path / "out"),
                "--set", override]
        assert run(argv) in (0, 1)

    check()


@pytest.mark.parametrize(
    "command",
    ["check", "solve", "solve-scalar", "sweep", "compare-periodic", "limit", "diagnose"],
)
def test_every_subcommand_keeps_the_output_contract(tmp_path, capsys, command):
    # stdout is report.txt; states and rows go only where the command has them
    small = ["--set", "n=16", "--set", "sweep.scales=0.3,0.8", "--set", "limit.scales=0.4,0.1"]
    expected = {"report.txt"}
    if command in ("solve", "solve-scalar", "diagnose"):
        expected |= {"u.field", "v.field"}
    if command in ("sweep", "limit"):
        expected |= {"sweep.csv"}
    failing = ["--set", "coupling.base=1.5"] if command == "check" else ["--set", "solver.max_iters=1"]
    cfg = write_config(tmp_path)
    for extra, code in ((small, 0), (small + failing, 1 if command == "check" else 2)):
        out = tmp_path / f"out-{code}"
        assert run([command, "--config", str(cfg), "--out", str(out), *extra]) == code
        assert capsys.readouterr().out == (out / "report.txt").read_text(encoding="ascii")
        assert {p.name for p in out.iterdir()} == expected
