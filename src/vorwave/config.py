"""Run configuration: one strict JSON document drives every subcommand.

It describes the wave problem only: g, L, m, the vorticity, the grid, the
number of continuation steps and the output directory. The audit's
tolerances and the continuation's step controls are library constants,
so no config can move a verdict. Unknown keys are rejected at every
nesting level on purpose: a tolerated typo, `Steps` for `steps` say,
would silently run with a default, invisible in the output. The vorticity
and the grid are built once on loading, so a config is valid or invalid
whatever the subcommand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ConfigError, InputError
from .grid import StripGrid
from .vorticity import VorticityFunction

_TOP_KEYS = {"g", "L", "m", "vorticity", "grid", "continuation", "outdir"}
_GRID_KEYS = {"Nq", "Np", "stretching"}
_CONT_KEYS = {"steps"}
# gravity when a config gives no "g", and for `gerstner` run without one
DEFAULT_G = 9.81


def _check_keys(data, allowed, where):
    if not isinstance(data, dict):
        raise ConfigError("%s must be a JSON object" % where)
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError("unknown key(s) %s in %s; allowed: %s"
                          % (", ".join(unknown), where,
                             ", ".join(sorted(allowed))))


def _number(data, key, where, default=None, *, positive=True,
            nonnegative=False):
    if key not in data:
        return default
    val = data[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError("%s.%s must be a number, got %r"
                          % (where, key, val))
    val = float(val)
    if val != val or val in (float("inf"), float("-inf")):
        raise ConfigError("%s.%s must be finite" % (where, key))
    if positive and not val > 0.0:
        raise ConfigError("%s.%s must be positive, got %r"
                          % (where, key, val))
    if nonnegative and val < 0.0:
        raise ConfigError("%s.%s must be nonnegative, got %r"
                          % (where, key, val))
    return val


def _integer(data, key, where, default):
    if key not in data:
        return default
    val = data[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError("%s.%s must be an integer, got %r"
                          % (where, key, val))
    if val < 1:
        raise ConfigError("%s.%s must be at least 1, got %r"
                          % (where, key, val))
    return val


@dataclass(frozen=True)
class GridConfig:
    Nq: int = 64
    Np: int = 48
    stretching: float = 0.5


@dataclass(frozen=True)
class ContinuationConfig:
    steps: int = 25


@dataclass(frozen=True)
class RunConfig:
    L: float
    m: float
    vorticity: dict
    g: float = DEFAULT_G
    grid: GridConfig = field(default_factory=GridConfig)
    continuation: ContinuationConfig = field(
        default_factory=ContinuationConfig)
    outdir: str | None = None
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError("cannot read config %s: %s" % (path, exc))
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("config %s is not valid JSON: %s"
                              % (path, exc))
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data):
        _check_keys(data, _TOP_KEYS, "config")
        for req in ("L", "m", "vorticity"):
            if req not in data:
                raise ConfigError("config is missing required key %r" % req)

        grid_raw = data.get("grid", {})
        _check_keys(grid_raw, _GRID_KEYS, "config.grid")
        grid = GridConfig(
            Nq=_integer(grid_raw, "Nq", "config.grid", GridConfig.Nq),
            Np=_integer(grid_raw, "Np", "config.grid", GridConfig.Np),
            # 0 is a uniform p-grid; StripGrid checks the upper bound
            stretching=_number(grid_raw, "stretching", "config.grid",
                               GridConfig.stretching, positive=False,
                               nonnegative=True))

        cont_raw = data.get("continuation", {})
        _check_keys(cont_raw, _CONT_KEYS, "config.continuation")
        cont = ContinuationConfig(
            steps=_integer(cont_raw, "steps", "config.continuation",
                           ContinuationConfig.steps))

        outdir = data.get("outdir")
        if outdir is not None and not isinstance(outdir, str):
            raise ConfigError("config.outdir must be a string")

        cfg = cls(
            L=_number(data, "L", "config"),
            m=_number(data, "m", "config"),
            vorticity=data["vorticity"],
            g=_number(data, "g", "config", DEFAULT_G),
            grid=grid, continuation=cont,
            outdir=outdir, raw=data)
        # fail fast on a bad vorticity fragment or grid
        cfg.build_vorticity()
        cfg.build_grid()
        return cfg

    def build_vorticity(self):
        try:
            return VorticityFunction(self.vorticity, self.m)
        except InputError as exc:
            raise ConfigError("config.vorticity: %s" % exc)

    def build_grid(self):
        try:
            return StripGrid(self.L, self.m, self.grid.Nq, self.grid.Np,
                             self.grid.stretching)
        except InputError as exc:
            raise ConfigError("config.grid: %s" % exc)
