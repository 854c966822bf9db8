import os
from dataclasses import fields

import numpy as np
import pytest

import chbsim.stepper as stepper
from chbsim.cli import main
from chbsim.config import ConfigError, parse_config, serialize
from chbsim.materials import MaterialModel

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


def test_cli_zero_window_run(tmp_path):
    cfg_path = _write(tmp_path, "grid.nx = 8\ngrid.ny = 8\nstepper.t_end = 0.0\n")
    out = str(tmp_path / "out0")
    assert main(["--config", cfg_path, "--out", out]) == 0
    lines = (tmp_path / "out0" / "diagnostics.csv").read_text().strip().splitlines()
    assert len(lines) == 2              # header + initial row only


def test_cli_determinism_byte_identical(tmp_path):
    cfg_path = _write(tmp_path, BASE)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["--config", cfg_path, "--out", out_a]) == 0
    assert main(["--config", cfg_path, "--out", out_b]) == 0
    for name in ("diagnostics.csv", "config.echo", "snapshot_00004.vtk"):
        fa = (tmp_path / "a" / name).read_bytes()
        fb = (tmp_path / "b" / name).read_bytes()
        assert fa == fb


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
