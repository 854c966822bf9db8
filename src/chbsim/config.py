"""Flat key = value run configuration with defaults and round-tripping.

The grammar is line oriented: ``key = value`` with ``#`` comments, keys
are dot-separated lowercase identifiers.  Every key has a default, so an
empty file is a valid configuration; unknown keys are rejected to catch
typos.  ``serialize`` emits the resolved configuration in a canonical
order so that parse -> serialize -> parse is bit-identical.

The undotted material keys are MaterialModel's fields and the
``stepper.*`` keys StepperConfig's, read off the dataclasses with their
types and defaults, except that M0, M1 are spelled ``modulus0``,
``modulus1`` and that ``eps`` and ``a0`` default to 0.25 and 0.5.
"""

from dataclasses import dataclass, fields

import numpy as np

from .grid import Grid, DIRICHLET, NEUMANN
from .materials import MaterialModel
from .rhs import SourceSpec
from .stepper import StepperConfig

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

# MaterialModel field -> its config key, where the two differ
_MATERIAL_KEY_NAMES = {"M0": "modulus0", "M1": "modulus1"}
# config key -> its default, where it differs from MaterialModel's
_MATERIAL_DEFAULTS = {"eps": 0.25, "a0": 0.5}

_MATERIAL_KEYS = {}   # undotted key -> MaterialModel field
for _f in fields(MaterialModel):
    _key = _MATERIAL_KEY_NAMES.get(_f.name, _f.name)
    _MATERIAL_KEYS[_key] = _f.name
    _SCHEMA[_key] = (_f.type.__name__, _MATERIAL_DEFAULTS.get(_key, _f.default))
for _f in fields(StepperConfig):
    _SCHEMA[f"stepper.{_f.name}"] = (_f.type.__name__, _f.default)


def _constant_phase(d, grid):
    return np.full(grid.n_nodes, d["init.phi0"])


def _interface_phase(d, grid):
    """tanh profile across a vertical mid-domain interface."""
    x, _ = grid.coords()
    return np.tanh((x - 0.5 * d["grid.lx"]) / (np.sqrt(2.0) * d["eps"]))


def _noise_phase(d, grid):
    rng = np.random.default_rng(d["init.seed"])
    return d["init.phi0"] + d["init.amplitude"] * rng.standard_normal(grid.n_nodes)


def _gaussian(d):
    amp, x0, y0 = d["source.amplitude"], d["source.x0"], d["source.y0"]
    width = d["source.width"]

    def gaussian(x, y, t):
        return amp * np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / (2.0 * width ** 2))
    return gaussian


def _no_source(d):
    return SourceSpec()


def _fluid_gaussian(d):
    return SourceSpec(s_fluid=_gaussian(d))


def _phase_gaussian(d):
    return SourceSpec(s_phase=_gaussian(d))


def _body_constant(d):
    fx, fy = d["source.fx"], d["source.fy"]
    return SourceSpec(body=lambda x, y, t: (np.full_like(x, fx), np.full_like(x, fy)))


# preset -> builder of the initial phase field, (d, grid) -> phi
_INITIAL_PHASES = {"constant": _constant_phase, "interface": _interface_phase,
                   "spinodal-noise": _noise_phase}
# preset -> builder of the SourceSpec, d -> sources
_SOURCES = {"zero": _no_source, "fluid_gaussian": _fluid_gaussian,
            "phase_gaussian": _phase_gaussian, "body_constant": _body_constant}
INIT_PRESETS = tuple(_INITIAL_PHASES)
SOURCE_PRESETS = tuple(_SOURCES)


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
        return MaterialModel(**{attr: d[key] for key, attr in _MATERIAL_KEYS.items()})

    def stepper(self):
        d = self.as_dict()
        return StepperConfig(**{f.name: d[f"stepper.{f.name}"] for f in fields(StepperConfig)})

    def initial_fields(self, grid):
        """Deterministic initial (phi, theta) from the preset."""
        d = self.as_dict()
        phi = _INITIAL_PHASES[d["init.preset"]](d, grid)
        return phi, np.full(grid.n_nodes, d["init.theta0"])

    def sources(self):
        d = self.as_dict()
        return _SOURCES[d["source.preset"]](d)

    def validate(self):
        """Build all derived objects, surfacing invariant violations."""
        self.grid()
        self.material()
        self.stepper()
        d = self.as_dict()
        for family, presets in (("init", INIT_PRESETS), ("source", SOURCE_PRESETS)):
            preset = d[f"{family}.preset"]
            if preset not in presets:
                raise ConfigError(f"unknown {family}.preset '{preset}' (choose from {presets})")
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
    lines = text.splitlines() + list(overrides)
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
