"""Config parsing, rendering, subcommands, and exit codes."""

import re

import numpy as np
import pytest

from fracground import (
    ConfigError,
    NonlinearitySpec,
    ParsedConfig,
    ScalarFunctionSpec,
    SolverOptions,
    parse_config,
    read_field,
    render_config,
    solve_scalar_ground_state,
)
from fracground.cli import run


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
                   "sweep.scales=0.1,0.3",
                   "solver.positivity_clip=false"],
    )
    assert parse_config(render_config(cfg2)) == cfg2


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


def test_restarts_flag_validated(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = run(
        ["solve", "--config", str(cfg), "--out", str(tmp_path / "out"),
         "--restarts", "0"]
    )
    assert code == 1
    assert "restarts" in capsys.readouterr().err


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
    assert p.periodic_reference is False
    assert cfg == ParsedConfig(p, SolverOptions())


@pytest.mark.parametrize(
    "override",
    [
        "dim=4", "n=48", "n=4", "L=0", "L=-1", "L=inf", "L=nan", "L=1e400",
        "s1=1.5", "s2=0", "s2=nan",
        "V1.kind=bogus", "V1.trig_amplitude=0.5", "V1.trig_periods=0",
        "V2.trig_periods=1,-2", "V1.perturbation_amplitude=0.1",
        "coupling.perturbation_width=-1", "coupling.perturbation_width=0",
        "nl1.kind=cubic", "nl1.gamma=0.5", "nl2.gamma=nan", "nl2.gamma=inf",
        "solver.max_iters=0", "solver.step_init=0", "solver.backtrack_factor=1.0",
        "solver.backtrack_factor=0", "solver.tol_energy=-1", "solver.tol_residual=nan",
        "scalar.which=3",
    ],
)
def test_out_of_range_override_names_its_key(override):
    key = override.partition("=")[0]
    with pytest.raises(ConfigError, match=f"^override: key '{re.escape(key)}'"):
        parse_config(BASE_CONFIG, overrides=[override])


def test_rule_broken_in_the_file_names_key_and_line():
    text = BASE_CONFIG + "nl2.kind = pure_power\nnl2.p = 2.0\n"
    text = text.replace("nl2.kind = log_power\n", "")
    lineno = len(text.splitlines())
    with pytest.raises(ConfigError, match=f"^line {lineno}: key 'nl2.p': .*p > 2"):
        parse_config(text)


@pytest.mark.parametrize("value", ["inf", "1e400"])
def test_infinite_box_length_is_a_config_error(tmp_path, capsys, value):
    cfg = write_config(tmp_path)
    code = run(
        ["check", "--config", str(cfg), "--out", str(tmp_path / "out"),
         "--set", f"L={value}"]
    )
    assert code == 1
    assert "key 'L'" in capsys.readouterr().err


def test_backtrack_factor_one_is_refused_before_solving(tmp_path, capsys):
    # with factor 1 the line search never shrinks its step and the solve hangs
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = run(
        ["solve", "--config", str(cfg), "--out", str(out),
         "--set", "solver.backtrack_factor=1.0"]
    )
    assert code == 1
    assert "key 'solver.backtrack_factor'" in capsys.readouterr().err
    assert not (out / "report.txt").exists()


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
