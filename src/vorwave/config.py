"""Run configuration: one strict JSON document drives every subcommand.

It describes the wave problem only: g, L, m, the vorticity, the grid, the
number of continuation steps and the output directory. The audit's
tolerances and the continuation's step controls are library constants,
so no config can move a verdict. Unknown keys are rejected at every
nesting level on purpose: a tolerated typo, `Steps` for `steps` say,
would silently run with a default, invisible in the output. The
VorticityFunction and the StripGrid are built once, on loading, to check
them, and the config keeps them: `build_vorticity()` and `build_grid()`
return those objects, so a config is valid or invalid whatever the
subcommand, and every stage of a run shares one of each.
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


def _number(data, key, where, default=None, *, positive=True):
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
class RunConfig:
    L: float
    m: float
    g: float
    steps: int
    outdir: str | None
    raw: dict = field(repr=False)
    _grid: StripGrid = field(repr=False)
    _vf: VorticityFunction = field(repr=False)

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
        nq = _integer(grid_raw, "Nq", "config.grid", 64)
        npts = _integer(grid_raw, "Np", "config.grid", 48)
        # 0 is a uniform p-grid; StripGrid checks the range [0, 0.9]
        stretching = _number(grid_raw, "stretching", "config.grid", 0.5,
                             positive=False)

        cont_raw = data.get("continuation", {})
        _check_keys(cont_raw, _CONT_KEYS, "config.continuation")
        steps = _integer(cont_raw, "steps", "config.continuation", 25)

        outdir = data.get("outdir")
        if outdir is not None and not isinstance(outdir, str):
            raise ConfigError("config.outdir must be a string")

        L = _number(data, "L", "config")
        m = _number(data, "m", "config")
        g = _number(data, "g", "config", DEFAULT_G)
        try:
            vf = VorticityFunction(data["vorticity"], m)
        except InputError as exc:
            raise ConfigError("config.vorticity: %s" % exc)
        try:
            grid = StripGrid(L, m, nq, npts, stretching)
        except InputError as exc:
            raise ConfigError("config.grid: %s" % exc)
        return cls(L=L, m=m, g=g, steps=steps, outdir=outdir, raw=data,
                   _grid=grid, _vf=vf)

    def build_vorticity(self):
        """The VorticityFunction checked on loading."""
        return self._vf

    def build_grid(self):
        """The StripGrid checked on loading."""
        return self._grid
