import errno
import importlib.util
import os
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import chbsim.cli as cli
import chbsim.stepper as stepper
from chbsim.cli import main
from chbsim.config import ConfigError, parse_config, serialize
from chbsim.elliptic import SolverFailure
from chbsim.grid import Grid, VectorField2, divergence
from chbsim.materials import MaterialModel
from chbsim.rhs import SimState, pressure
from chbsim.stepper import BUNDLE_WINDOWS

BASE = """
grid.nx = 10
grid.ny = 10
eps = 0.3
stepper.dt = 1e-3
stepper.t_end = 4e-3   # four windows
init.preset = spinodal-noise
init.amplitude = 0.01
init.seed = 3
"""


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg["grid.nx"] == 32
    assert cfg["rho"] == 0
    assert cfg["stepper.formulation"] == "theta"
    cfg.validate()


# serialize(parse_config("")): every key with its default.  The material
# and stepper entries are read off MaterialModel and StepperConfig, so a
# changed field name, type or default there shows up here.
DEFAULT_CONFIG = """\
a0 = 0.5
a1 = 0.0
eps = 0.25
grid.bottom = dirichlet
grid.left = dirichlet
grid.lx = 1.0
grid.ly = 1.0
grid.nx = 32
grid.ny = 32
grid.right = neumann
grid.top = neumann
init.amplitude = 0.01
init.phi0 = 0.0
init.preset = interface
init.seed = 0
init.theta0 = 0.0
k0 = 1.0
k1 = 0.0
lam_a = 1.0
lam_b = 1.0
lam_nu_a = 1.0
lam_nu_b = 1.0
m0 = 1.0
m1 = 0.0
modulus0 = 1.0
modulus1 = 0.0
mu_a = 1.0
mu_b = 1.0
mu_nu_a = 1.0
mu_nu_b = 1.0
output.dir = out
output.stride = 1
psi_scale = 1.0
rho = 0
source.amplitude = 0.0
source.fx = 0.0
source.fy = 0.0
source.preset = zero
source.width = 0.1
source.x0 = 0.5
source.y0 = 0.5
stepper.dt = 0.001
stepper.formulation = theta
stepper.max_picard = 40
stepper.max_shrinks = 10
stepper.shrink_factor = 0.5
stepper.t_end = 0.01
stepper.tol_lin = 1e-10
stepper.tol_picard = 1e-09
tau0 = 0.0
tau1 = 0.0
"""


def test_default_configuration_is_pinned():
    assert serialize(parse_config("")) == DEFAULT_CONFIG


def test_visco_regime_flag():
    cfg = parse_config("rho = 1")
    assert cfg["rho"] == 1
    assert cfg.material().rho == 1


def test_rejection_names_positivity_assumption():
    with pytest.raises(ConfigError, match="mobility must be positive"):
        parse_config("m0 = -1")


@pytest.mark.parametrize("setting", [
    "max_picard = 0", "max_shrinks = -1", "tol_picard = -1", "tol_picard = 0",
    "tol_lin = 0"])
def test_out_of_range_stepper_setting_names_its_field(setting):
    with pytest.raises(ConfigError, match=setting.split()[0]):
        parse_config(f"stepper.{setting}")


@pytest.mark.parametrize("setting, message", [
    ("stepper.dt = 0", "dt must be positive and t_end nonnegative"),
    ("stepper.t_end = -1e-3", "dt must be positive and t_end nonnegative"),
    ("stepper.shrink_factor = 0", r"shrink_factor must lie in \(0, 1\)"),
    ("stepper.shrink_factor = 1", r"shrink_factor must lie in \(0, 1\)"),
    ("stepper.formulation = mixed", "unknown formulation 'mixed'"),
    ("output.stride = 0", "output.stride must be >= 1")])
def test_invalid_setting_arrives_as_a_config_error(setting, message):
    """The rejections of StepperConfig and RunConfig.validate reach the
    caller of parse_config as a ConfigError with their message."""
    with pytest.raises(ConfigError, match=message):
        parse_config(setting)


@pytest.mark.parametrize("setting", [
    "stepper.t_end = nan", "stepper.dt = nan", "stepper.t_end = inf",
    "grid.lx = nan", "eps = nan", "m0 = nan"])
def test_non_finite_value_is_rejected_naming_its_key(setting):
    key = setting.split()[0]
    with pytest.raises(ConfigError, match=f"'{key}' must be finite"):
        parse_config(setting)


def test_every_material_key_reaches_its_field():
    """A distinct value for every material key arrives in the MaterialModel
    field of that name (the Biot modulus keys are spelled modulus0/1)."""
    names = [f.name for f in fields(MaterialModel)]
    want = {name: 1.0 + 0.125 * k for k, name in enumerate(names, start=1)}
    want["rho"] = 1
    keys = {"M0": "modulus0", "M1": "modulus1"}
    text = "\n".join(f"{keys.get(name, name)} = {value!r}" for name, value in want.items())
    material = parse_config(text).material()
    assert {name: getattr(material, name) for name in names} == want


def test_unknown_key_and_type_mismatch():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("grd.nx = 4")
    with pytest.raises(ConfigError, match="type mismatch"):
        parse_config("grid.nx = four")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("grid.nx 4")


@pytest.mark.parametrize("key", ["stepper.max_lin", "stepper.refresh_linearization"])
def test_removed_stepper_key_is_rejected_naming_it(key):
    """Neither key is a setting: a config that sets one is rejected by
    name, not silently ignored."""
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(f"{key} = 1")


def test_comments_and_overrides():
    cfg = parse_config("# a comment\ngrid.nx = 12  # trailing\n",
                       overrides=["grid.ny = 14"])
    assert cfg["grid.nx"] == 12 and cfg["grid.ny"] == 14


def test_config_round_trips_bit_identically():
    cfg = parse_config(BASE)
    text = serialize(cfg)
    cfg2 = parse_config(text)
    assert cfg2 == cfg
    assert serialize(cfg2) == text


def test_initial_presets():
    cfg = parse_config("init.preset = constant\ninit.phi0 = 0.25")
    g = cfg.grid()
    phi, theta = cfg.initial_fields(g)
    assert np.allclose(phi, 0.25) and np.allclose(theta, 0.0)
    cfg_i = parse_config("init.preset = interface\neps = 0.1")
    phi, _ = cfg_i.initial_fields(g)
    assert phi.min() < -0.9 and phi.max() > 0.9
    cfg_n = parse_config("init.preset = spinodal-noise\ninit.seed = 5")
    a, _ = cfg_n.initial_fields(g)
    b, _ = cfg_n.initial_fields(g)
    assert np.array_equal(a, b)     # deterministic in the seed
    with pytest.raises(ConfigError, match="init.preset"):
        parse_config("init.preset = bogus")


def test_source_presets():
    g = parse_config("").grid()
    s = parse_config("source.preset = fluid_gaussian\nsource.amplitude = 2.0").sources()
    vals = s.fluid_at(g, 0.0)
    # the peak falls between nodes, so the nodal max undershoots slightly
    assert vals.max() == pytest.approx(2.0, rel=0.05)
    s0 = parse_config("").sources()
    assert s0.fluid_at(g, 0.0) is None
    with pytest.raises(ConfigError, match="source.preset"):
        parse_config("source.preset = bogus")


def _write(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


def test_cli_run_outputs(tmp_path):
    cfg_path = _write(tmp_path, BASE + "output.stride = 2\n")
    out = str(tmp_path / "out")
    assert main(["--config", cfg_path, "--out", out]) == 0
    files = sorted(os.listdir(out))
    assert "config.echo" in files and "diagnostics.csv" in files
    snaps = [f for f in files if f.endswith(".vtk")]
    assert snaps == ["snapshot_00000.vtk", "snapshot_00002.vtk",
                     "snapshot_00004.vtk"]
    lines = (tmp_path / "out" / "diagnostics.csv").read_text().strip().splitlines()
    assert lines[0].startswith("t,E_total")
    assert len(lines) == 1 + 1 + 4     # header + initial + 4 windows
    head = (tmp_path / "out" / "snapshot_00000.vtk").read_text().splitlines()
    assert head[0] == "# vtk DataFile Version 3.0"
    assert "DATASET STRUCTURED_POINTS" in head
    assert any(l.startswith("SCALARS phi") for l in head)
    assert any(l.startswith("SCALARS u_mag") for l in head)


# A source preset with its overrides, and the check on the last row of
# diagnostics.csv that it loads its field: a phase source raises mass_phi
# (1.256e-4 in both regimes), and a body force alone loads the mechanics
# (E_elastic 2.880e-3 at rho = 0, 4.738e-8 at rho = 1).
SOURCE_PRESET_RUNS = {
    "phase_gaussian": (["source.amplitude=1"], lambda row: row["mass_phi"] > 1e-5),
    "body_constant": (["source.fx=0.3", "source.fy=-0.2"], lambda row: row["E_elastic"] != 0.0),
}


@pytest.mark.parametrize("rho", [0, 1])
@pytest.mark.parametrize("preset", sorted(SOURCE_PRESET_RUNS))
def test_cli_source_preset_loads_its_field(tmp_path, preset, rho):
    """Two 8x8 windows with a phase or body source write the header, the
    initial row and one row per window, and the last row shows the load."""
    overrides, loaded = SOURCE_PRESET_RUNS[preset]
    args = ["--config", _write(tmp_path, ""), "--out", str(tmp_path / "out")]
    for override in ["grid.nx=8", "grid.ny=8", "stepper.t_end=0.002", f"rho={rho}",
                     f"source.preset={preset}"] + overrides:
        args += ["--override", override]
    assert main(args) == 0
    lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 4
    row = dict(zip(lines[0].split(","), map(float, lines[-1].split(","))))
    assert loaded(row), row


def test_cli_zero_window_run(tmp_path):
    cfg_path = _write(tmp_path, "grid.nx = 8\ngrid.ny = 8\nstepper.t_end = 0.0\n")
    out = str(tmp_path / "out0")
    assert main(["--config", cfg_path, "--out", out]) == 0
    lines = (tmp_path / "out0" / "diagnostics.csv").read_text().strip().splitlines()
    assert len(lines) == 2              # header + initial row only


@pytest.mark.parametrize("overrides", [[], ["stepper.formulation=pressure"], ["rho=1"]],
                         ids=["theta", "pressure", "visco"])
def test_cli_determinism_byte_identical(tmp_path, overrides):
    """Two runs of one config write the same files with the same bytes, in
    each regime, over 2 BUNDLE_WINDOWS + 1 windows: enough to rebuild the
    bundle twice and to fill the predictor's history."""
    windows = 2 * BUNDLE_WINDOWS + 1
    args = ["--config", _write(tmp_path, BASE + "output.stride = 3\n"),
            "--override", f"stepper.t_end={windows * 1e-3!r}"]
    for override in overrides:
        args += ["--override", override]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    assert len((out_a / "diagnostics.csv").read_text().splitlines()) == 2 + windows
    assert len([n for n in names if n.endswith(".vtk")]) == 1 + -(-windows // 3)
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def _bench_make_config():
    """make_config of the benchmark (bench/run_bench.py), as the workloads
    write their configs."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "run_bench.py")
    spec = importlib.util.spec_from_file_location("run_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_config


@pytest.mark.parametrize("workload", ["spinodal-qs-32", "spinodal-visco-32"])
def test_cli_starts_windows_from_predicted_states(tmp_path, workload):
    """Each window starts its Picard iteration from an extrapolation of
    the last accepted states (stepper.Run.step).  The 200-window spinodal
    runs of acceptance criterion 05, made by the benchmark's make_config
    at seed 1 with t_end = 0.2, take 1090 (rho = 0) and 1009 (rho = 1)
    Picard iterates when every window starts from its start state, and
    423 and 428 from the predictions.  Each run writes the header, the
    initial row and 200 window rows, and its picard_iters must sum to less
    than 600, so a predictor that silently starts every window from x_n
    fails."""
    text = _bench_make_config()(workload, 1, t_end=0.2)[0]
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path, text), "--out", str(out)]) == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 202
    assert lines[0].split(",")[7] == "picard_iters"
    assert sum(int(line.split(",")[7]) for line in lines[1:]) < 600


# Eight-by-eight run whose first window cannot converge in one Picard
# iterate at any of its three dt values.
FAILING = "grid.nx = 8\ngrid.ny = 8\nstepper.max_picard = 1\nstepper.max_shrinks = 2\n"


def test_failed_run_reports_each_attempt(tmp_path, capsys):
    """A run that fails exits 1 and prints, after the line naming the
    window, one line per attempt: its dt, iterate count and last
    residual."""
    assert main(["--config", _write(tmp_path, FAILING), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == ("run failed at window 1: window at t = 0 failed after 2 dt shrinks "
                        "(dt tried: 0.001, 0.0005, 0.00025)")
    assert len(lines) == 4
    for k, (line, dt) in enumerate(zip(lines[1:], ["0.001", "0.0005", "0.00025"]), start=1):
        assert re.fullmatch(rf"  attempt {k}: dt = {re.escape(dt)}, 1 iterates, "
                            r"last residual \d\.\d{3}e[-+]\d\d", line), line


def test_failed_run_reports_each_attempt_error(tmp_path, capsys, monkeypatch):
    """An attempt ended by a failed linear solve, before its first
    residual, reports no residual and the solver's message."""
    def failing(*args):
        raise SolverFailure("injected failure", [])

    monkeypatch.setattr(stepper, "linear_substep_phi", failing)
    assert main(["--config", _write(tmp_path, FAILING), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("run failed at window 1: ")
    assert lines[1:] == [f"  attempt {k}: dt = {dt}, 0 iterates, last residual none, "
                         "error: injected failure"
                         for k, dt in enumerate(["0.001", "0.0005", "0.00025"], start=1)]


def test_killed_run_keeps_the_windows_it_completed(tmp_path, monkeypatch):
    """Rows and snapshots are written as windows are accepted: a run
    interrupted in its third window leaves a prefix of the full run's
    diagnostics.csv and the snapshots of the windows before."""
    cfg_path = _write(tmp_path, BASE)
    full = str(tmp_path / "full")
    assert main(["--config", cfg_path, "--out", full]) == 0
    picard_window = stepper.picard_window
    calls = []

    def interrupted(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return picard_window(*args, **kwargs)

    monkeypatch.setattr(stepper, "picard_window", interrupted)
    cut = str(tmp_path / "cut")
    with pytest.raises(KeyboardInterrupt):
        main(["--config", cfg_path, "--out", cut])
    got = (tmp_path / "cut" / "diagnostics.csv").read_bytes()
    assert (tmp_path / "full" / "diagnostics.csv").read_bytes().startswith(got)
    assert len(got.decode().splitlines()) == 1 + 3     # header + initial + 2 windows
    snaps = sorted(f for f in os.listdir(cut) if f.endswith(".vtk"))
    assert snaps == [f"snapshot_{i:05d}.vtk" for i in range(3)]
    for name in snaps:
        assert (tmp_path / "cut" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def test_cli_error_exit_codes(tmp_path):
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 2
    bad = _write(tmp_path, "m0 = -1\n")
    assert main(["--config", bad]) == 2


def test_cli_override_and_echo(tmp_path):
    cfg_path = _write(tmp_path, BASE)
    out = str(tmp_path / "ov")
    assert main(["--config", cfg_path, "--out", out,
                 "--override", "stepper.t_end = 1e-3"]) == 0
    echo = (tmp_path / "ov" / "config.echo").read_text()
    assert "stepper.t_end = 0.001" in echo


def test_cli_oracle_mode(tmp_path, capsys):
    cfg_path = _write(tmp_path, "grid.nx = 8\ngrid.ny = 8\n")
    assert main(["--config", cfg_path, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "oracle: PASS" in out


def test_cli_mms_mode_reports_every_study(tmp_path, capsys, monkeypatch):
    """--mms prints the heat, elasticity and coupled orders, and fails
    when a coupled order falls below 0.9."""
    coupled = {"orders": {regime: {"phi": [1.2, 1.1], "theta": [0.95, 0.97],
                                   "u_x": [1.0, 1.0]}
                          for regime in ("theta", "pressure", "visco")},
               "time_order": 0.95}
    studies = {"heat": {"time_order": 1.0, "space_order": 2.0},
               "elasticity": {"space_order": 2.0}, "coupled": coupled}
    monkeypatch.setattr(cli, "convergence_study", lambda preset: studies[preset])
    cfg_path = _write(tmp_path, "")
    assert main(["--config", cfg_path, "--mms"]) == 0
    out = capsys.readouterr().out
    assert "coupled pressure: time order phi 1.10, theta 0.95, u_x 1.00" in out
    assert "mms: PASS" in out
    coupled["time_order"] = 0.85
    assert main(["--config", cfg_path, "--mms"]) == 1
    assert "mms: FAIL" in capsys.readouterr().out


def _reference_vtk_text(grid, material, state):
    """The snapshot text formatted value by value."""
    p = pressure(material, state.phi, state.theta, divergence(state.u))
    columns = [("phi", state.phi), ("theta", state.theta), ("p", p),
              ("u_mag", np.hypot(state.u.ux, state.u.uy)), ("u_x", state.u.ux),
              ("u_y", state.u.uy)]
    lines = ["# vtk DataFile Version 3.0", f"chbsim snapshot t={state.t:.12e}", "ASCII",
             "DATASET STRUCTURED_POINTS", f"DIMENSIONS {grid.nx} {grid.ny} 1",
             "ORIGIN 0 0 0", f"SPACING {grid.hx:.12e} {grid.hy:.12e} 1",
             f"POINT_DATA {grid.n_nodes}"]
    for name, data in columns:
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{v:.12e}" for v in np.asarray(data).ravel())
    return "\n".join(lines) + "\n"


def test_vtk_snapshot_bytes_match_the_per_value_formatter(tmp_path):
    """A snapshot of a random state, with signed zeros, non-finite and
    extreme values among its fields, has the bytes of the per-value
    formatter."""
    g = Grid(7, 5, 1.3, 0.7)
    m = MaterialModel()
    rng = np.random.default_rng(21)
    phi, theta, ux, uy = (rng.standard_normal(g.n_nodes)
                          * 10.0**rng.integers(-300, 300, g.n_nodes) for _ in range(4))
    phi[:4] = [-0.0, np.nan, np.inf, -np.inf]
    theta[:2] = [0.0, 5e-324]
    state = SimState(g, phi, theta, VectorField2(g, ux, uy), 0.0123)
    path = tmp_path / "snap.vtk"
    cli.write_vtk_snapshot(str(path), g, m, state)
    assert path.read_bytes() == _reference_vtk_text(g, m, state).encode()


def _per_value(values):
    return "".join(f"{v:.12e}\n" for v in np.asarray(values, dtype=np.float64).ravel())


@settings(deadline=None, max_examples=200)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 40)),
              elements=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)))
def test_format_e12_matches_the_per_value_formatter(blocks):
    """Every finite double, subnormals and signed zeros among them, reads
    as "%.12e" writes it, and each row of the array gets its own text."""
    assert cli.format_e12(blocks) == [_per_value(row) for row in blocks]


def _adversarial_values(kind):
    rng = np.random.default_rng(29)
    p10 = np.array([float(f"1e{k}") for k in range(-300, 300)])
    if kind == "near-ties":
        # a 5 in the 14th significant digit: rint of a scaled value that
        # errs by a few ulps lands on either side of the tie
        return np.array([float(f"{s}{k}.{j:012d}5e{p}") for s, k, j, p in zip(
            rng.choice(["", "-"], 3000), rng.integers(1, 10, 3000),
            rng.integers(0, 10**12, 3000), rng.integers(-110, 110, 3000))])
    if kind == "carries":
        # 9.9999999999995e{p} rounds up to 1.000000000000e{p + 1}
        nines = np.array([float(f"9.9999999999995e{p}") for p in range(-120, 120)])
        return np.concatenate([nines, -nines, np.nextafter(nines, 0),
                               np.nextafter(nines, np.inf)])
    if kind == "powers-of-ten":
        return np.concatenate([p10, -p10, np.nextafter(p10, 0), np.nextafter(p10, np.inf)])
    if kind == "three-digit-exponents":
        return np.concatenate([
            rng.standard_normal(500) * 10.0 ** rng.integers(-320, -99, 500),
            rng.standard_normal(500) * 10.0 ** rng.integers(100, 308, 500),
            [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]])
    if kind == "integers":
        ints = np.concatenate([np.arange(-1000, 1001), rng.integers(-10**15, 10**15, 2000),
                               10 ** np.arange(16), 2 ** np.arange(50, 54)])
        return np.concatenate([ints, rng.integers(1, 2**30, 2000)
                               / 2.0 ** rng.integers(1, 60, 2000)]).astype(np.float64)
    # zeros and non-finite values among ordinary ones
    values = rng.standard_normal(60)
    values[::6], values[1::6], values[2::6] = 0.0, -0.0, np.nan
    values[3::6], values[4::6] = np.inf, -np.inf
    return values


@pytest.mark.parametrize("kind", ["near-ties", "carries", "powers-of-ten",
                                  "three-digit-exponents", "integers", "zeros-and-non-finite"])
def test_format_e12_matches_on_adversarial_values(kind):
    """Near-ties, decade carries, powers of ten and their neighbours,
    three-digit exponents, exact integers, dyadic fractions, signed zeros
    and non-finite values read as "%.12e" writes them."""
    values = _adversarial_values(kind)
    assert cli.format_e12([values, values[::-1]]) == [_per_value(values),
                                                      _per_value(values[::-1])]


@pytest.mark.parametrize("rho", [0, 1], ids=["quasi-static", "visco"])
def test_run_snapshots_match_the_per_value_formatter(tmp_path, monkeypatch, rho):
    """Each snapshot that a 12x12 run writes has the bytes of the
    per-value formatter, exact zeros of u at the Dirichlet nodes included."""
    write, zeros = cli.write_vtk_snapshot, []

    def checked(path, grid, material, state):
        write(path, grid, material, state)
        with open(path, "rb") as fh:
            assert fh.read() == _reference_vtk_text(grid, material, state).encode()
        assert state.t == 0 or (np.count_nonzero(state.u.ux) and np.count_nonzero(state.u.uy))
        zeros.append(min(np.count_nonzero(state.u.ux == 0), np.count_nonzero(state.u.uy == 0)))

    monkeypatch.setattr(cli, "write_vtk_snapshot", checked)
    text = BASE.replace("10\n", "12\n") + f"rho = {rho}\ntau1 = 0.05\noutput.stride = 1\n"
    assert main(["--config", _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 0
    assert len(zeros) == 5 and min(zeros) >= 23     # 23 Dirichlet nodes on a 12x12 grid


@pytest.mark.parametrize("error", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
                                   KeyboardInterrupt()], ids=["full-disk", "interrupt"])
def test_failed_snapshot_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys, error):
    """A snapshot write that fails partway leaves neither that snapshot nor
    its temporary file behind.  A full disk ends the run with a message
    naming the snapshot; an interrupt propagates."""
    written = []

    class Failing:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            written.append(os.path.getsize(self.fh.name))
            raise error

    def failing_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return Failing(fh) if "snapshot_00002" in path else fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    out = tmp_path / "out"
    args = ["--config", _write(tmp_path, BASE + "output.stride = 1\n"), "--out", str(out)]
    if isinstance(error, OSError):
        assert main(args) == 2
        snapshot = os.path.join(str(out), "snapshot_00002.vtk")
        assert capsys.readouterr().err == (f"failed to write snapshot '{snapshot}': "
                                           f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    else:
        with pytest.raises(KeyboardInterrupt):
            main(args)
    assert written and written[0] > 0
    assert sorted(os.listdir(out)) == ["config.echo", "diagnostics.csv",
                                       "snapshot_00000.vtk", "snapshot_00001.vtk"]
