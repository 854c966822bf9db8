"""Flat key = value run configuration with defaults and round-tripping.

The grammar is line oriented: ``key = value`` with ``#`` comments, keys
are dot-separated lowercase identifiers.  Every key has a default, so an
empty file is a valid configuration; unknown keys are rejected to catch
typos.  ``serialize`` emits the resolved configuration in a canonical
order so that parse -> serialize -> parse is bit-identical.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, DIRICHLET, NEUMANN
from .materials import MaterialModel
from .rhs import SourceSpec
from .stepper import StepperConfig, THETA_FORM, PRESSURE_FORM

INIT_PRESETS = ("constant", "interface", "spinodal-noise")
SOURCE_PRESETS = ("zero", "fluid_gaussian", "phase_gaussian", "body_constant")

# key -> (type tag, default).  Type tags: int, float, str.
_SCHEMA = {
    "grid.nx": ("int", 32),
    "grid.ny": ("int", 32),
    "grid.lx": ("float", 1.0),
    "grid.ly": ("float", 1.0),
    "grid.left": ("str", DIRICHLET),
    "grid.right": ("str", NEUMANN),
    "grid.bottom": ("str", DIRICHLET),
    "grid.top": ("str", NEUMANN),
    "eps": ("float", 0.25),
    "rho": ("int", 0),
    "m0": ("float", 1.0),
    "m1": ("float", 0.0),
    "k0": ("float", 1.0),
    "k1": ("float", 0.0),
    "modulus0": ("float", 1.0),
    "modulus1": ("float", 0.0),
    "a0": ("float", 0.5),
    "a1": ("float", 0.0),
    "psi_scale": ("float", 1.0),
    "lam_a": ("float", 1.0),
    "lam_b": ("float", 1.0),
    "mu_a": ("float", 1.0),
    "mu_b": ("float", 1.0),
    "lam_nu_a": ("float", 1.0),
    "lam_nu_b": ("float", 1.0),
    "mu_nu_a": ("float", 1.0),
    "mu_nu_b": ("float", 1.0),
    "tau0": ("float", 0.0),
    "tau1": ("float", 0.0),
    "stepper.dt": ("float", 1e-3),
    "stepper.t_end": ("float", 1e-2),
    "stepper.tol_picard": ("float", 1e-9),
    "stepper.max_picard": ("int", 40),
    "stepper.shrink_factor": ("float", 0.5),
    "stepper.max_shrinks": ("int", 10),
    # No solve reads tol_lin.  It is kept only because bench/run_bench.py
    # writes stepper.tol_lin into every config, and parse_config rejects
    # unknown keys.
    "stepper.tol_lin": ("float", 1e-10),
    "stepper.formulation": ("str", THETA_FORM),
    "init.preset": ("str", "interface"),
    "init.phi0": ("float", 0.0),
    "init.theta0": ("float", 0.0),
    "init.amplitude": ("float", 0.01),
    "init.seed": ("int", 0),
    "source.preset": ("str", "zero"),
    "source.amplitude": ("float", 0.0),
    "source.x0": ("float", 0.5),
    "source.y0": ("float", 0.5),
    "source.width": ("float", 0.1),
    "source.fx": ("float", 0.0),
    "source.fy": ("float", 0.0),
    "output.dir": ("str", "out"),
    "output.stride": ("int", 1),
}

# undotted key -> MaterialModel field; only the Biot modulus is renamed
_MATERIAL_KEYS = {key: {"modulus0": "M0", "modulus1": "M1"}.get(key, key)
                  for key in _SCHEMA if "." not in key}


class ConfigError(ValueError):
    pass


def _convert(key, kind, raw):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind != "float":
            return raw
        value = float(raw)
    except ValueError:
        raise ConfigError(f"type mismatch for '{key}': expected {kind}, got '{raw}'")
    if not np.isfinite(value):
        raise ConfigError(f"'{key}' must be finite, got '{raw}'")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (every key has a value)."""

    values: tuple  # sorted (key, value) pairs

    def __getitem__(self, key):
        for k, v in self.values:
            if k == key:
                return v
        raise KeyError(key)

    def as_dict(self):
        return dict(self.values)

    def grid(self):
        d = self.as_dict()
        tags = {e: d[f"grid.{e}"] for e in ("left", "right", "bottom", "top")}
        return Grid(d["grid.nx"], d["grid.ny"], d["grid.lx"], d["grid.ly"], tags)

    def material(self):
        d = self.as_dict()
        kwargs = {attr: d[key] for key, attr in _MATERIAL_KEYS.items()}
        return MaterialModel(**kwargs)

    def stepper(self):
        d = self.as_dict()
        return StepperConfig(
            dt=d["stepper.dt"], t_end=d["stepper.t_end"],
            tol_picard=d["stepper.tol_picard"], max_picard=d["stepper.max_picard"],
            shrink_factor=d["stepper.shrink_factor"], max_shrinks=d["stepper.max_shrinks"],
            tol_lin=d["stepper.tol_lin"], formulation=d["stepper.formulation"])

    def initial_fields(self, grid):
        """Deterministic initial (phi, theta) from the preset."""
        d = self.as_dict()
        preset = d["init.preset"]
        x, y = grid.coords()
        theta = np.full(grid.n_nodes, d["init.theta0"])
        if preset == "constant":
            phi = np.full(grid.n_nodes, d["init.phi0"])
        elif preset == "interface":
            # tanh profile across a vertical mid-domain interface
            eps = d["eps"]
            phi = np.tanh((x - 0.5 * d["grid.lx"]) / (np.sqrt(2.0) * eps))
        elif preset == "spinodal-noise":
            rng = np.random.default_rng(d["init.seed"])
            phi = d["init.phi0"] + d["init.amplitude"] * rng.standard_normal(grid.n_nodes)
        else:
            raise ConfigError(f"unknown init.preset '{preset}' "
                              f"(choose from {INIT_PRESETS})")
        return phi, theta

    def sources(self):
        d = self.as_dict()
        preset = d["source.preset"]
        if preset == "zero":
            return SourceSpec()
        amp, x0, y0 = d["source.amplitude"], d["source.x0"], d["source.y0"]
        width = d["source.width"]

        def gaussian(x, y, t):
            return amp * np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / (2.0 * width ** 2))

        if preset == "fluid_gaussian":
            return SourceSpec(s_fluid=gaussian)
        if preset == "phase_gaussian":
            return SourceSpec(s_phase=gaussian)
        if preset == "body_constant":
            fx, fy = d["source.fx"], d["source.fy"]
            return SourceSpec(body=lambda x, y, t: (np.full_like(x, fx),
                                                    np.full_like(x, fy)))
        raise ConfigError(f"unknown source.preset '{preset}' "
                          f"(choose from {SOURCE_PRESETS})")

    def validate(self):
        """Build all derived objects, surfacing invariant violations."""
        self.grid()
        self.material()
        self.stepper()
        d = self.as_dict()
        if d["init.preset"] not in INIT_PRESETS:
            raise ConfigError(f"unknown init.preset '{d['init.preset']}' "
                              f"(choose from {INIT_PRESETS})")
        if d["source.preset"] not in SOURCE_PRESETS:
            raise ConfigError(f"unknown source.preset '{d['source.preset']}' "
                              f"(choose from {SOURCE_PRESETS})")
        if d["output.stride"] < 1:
            raise ConfigError("output.stride must be >= 1")
        return self


def _format_value(kind, value):
    if kind == "float":
        return repr(float(value))
    return str(value)


def parse_config(text, overrides=()):
    """Parse key = value text into a RunConfig with defaults applied."""
    values = {k: default for k, (_, default) in _SCHEMA.items()}
    lines = list(text.splitlines())
    for extra in overrides:
        lines.append(extra)
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{stripped}'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key '{key}'")
        kind, _ = _SCHEMA[key]
        values[key] = _convert(key, kind, raw)
    cfg = RunConfig(tuple(sorted(values.items())))
    try:
        cfg.validate()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc))
    return cfg


def serialize(cfg):
    """Canonical text form; parse(serialize(cfg)) round-trips exactly."""
    lines = []
    for key in sorted(_SCHEMA):
        kind, _ = _SCHEMA[key]
        lines.append(f"{key} = {_format_value(kind, cfg[key])}")
    return "\n".join(lines) + "\n"
