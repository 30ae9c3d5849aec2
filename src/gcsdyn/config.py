"""Run-configuration ingestion, validation, and echoing.

Configs are JSON with flat key-value sections. Unknown keys anywhere are
rejected, the parameters of the other model kind included. What can be
checked from the config alone (model parameters, grid size, a potential
finite on the grid, a bounded classical orbit, the propagation settings) is
checked at load time. Packet coverage needs the trajectory: evolve_feedback
checks it before its first step, and `gcsdyn verify` reports it as
grid_coverage. The effective configuration, with all defaults materialized,
is echoed into the output directory; re-running from the echo reproduces the
outputs byte for byte.
"""

import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classical import classical_energy, classical_period
from .displacement import ClassicalPoint
from .errors import ConfigError, EscapeError, GcsdynError, PropagationError
from .grids import Grid
from .models import PotentialModel, potential_value, suggest_grid
from .propagation import PropagatorConfig, _step_count
from .tolerances import Tolerances

OUTPUT_DIR_ENV = "GCSDYN_OUTPUT_DIR"

_SECTIONS = ("model", "grid", "initial", "propagation", "output", "tolerances")
# model kind -> its parameters, in the order they are read; each defaults to 1
_MODEL_PARAMS = {
    "harmonic": ("omega", "mass", "hbar"),
    "morse": ("a", "mass", "hbar"),
}


def _field_names(cls) -> tuple:
    return tuple(f.name for f in dataclasses.fields(cls))


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run setup."""

    model: PotentialModel
    grid: Grid
    initial_point: ClassicalPoint
    propagation: PropagatorConfig
    T: float
    output_dir: Path
    emit_fields: bool
    emit_plots: bool
    tolerances: Tolerances


def _section(raw, name, allowed) -> dict:
    """raw[name] (empty when absent), checked to be a mapping whose keys
    are all in allowed."""
    sec = raw.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    unknown = set(sec) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {', '.join(sorted(unknown))}")
    return sec


def _number(mapping, key, default, where, kind=float):
    val = mapping.get(key, default)
    # json accepts null, NaN and Infinity; the abs() test fails on NaN too
    if (
        isinstance(val, bool)
        or not isinstance(val, (int, float))
        or not abs(val) <= sys.float_info.max
    ):
        raise ConfigError(f"{where}.{key} must be a finite number, got {val!r}")
    if kind is int:
        if int(val) != val:
            raise ConfigError(f"{where}.{key} must be an integer, got {val!r}")
        return int(val)
    return float(val)


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> RunConfig:
    raw = _section({"config": raw}, "config", _SECTIONS)

    kind = _section(raw, "model", _field_names(PotentialModel)).get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_PARAMS:
        raise ConfigError(f"model.kind must be 'harmonic' or 'morse', got {kind!r}")
    msec = _section(raw, "model", ("kind", *_MODEL_PARAMS[kind]))
    params = {k: _number(msec, k, 1.0, "model") for k in _MODEL_PARAMS[kind]}
    try:
        model = PotentialModel(kind=kind, **params)
    except GcsdynError as exc:
        raise ConfigError(f"invalid model: {exc}") from exc

    isec = _section(raw, "initial", ("Q0", "P0"))
    q0 = _number(isec, "Q0", 0.0, "initial")
    p0 = _number(isec, "P0", 0.0, "initial")

    try:
        period = classical_period(model, classical_energy(model, q0, p0))
    except EscapeError as exc:
        raise ConfigError(f"invalid initial point: {exc}") from exc

    gsec = _section(raw, "grid", _field_names(Grid))
    try:
        if gsec:
            missing = set(_field_names(Grid)) - set(gsec)
            if missing:
                raise ConfigError(
                    f"grid section needs all of x_min, x_max, n; missing "
                    f"{', '.join(sorted(missing))}"
                )
            grid = Grid(
                _number(gsec, "x_min", None, "grid"),
                _number(gsec, "x_max", None, "grid"),
                _number(gsec, "n", None, "grid", kind=int),
            )
        else:
            reach = 1.5 * max(abs(q0), model.dq)
            grid = suggest_grid(model, q_reach_min=-reach, q_reach_max=reach)
    except GcsdynError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc
    with np.errstate(over="ignore"):
        v_max = potential_value(model, grid.points).max()
    if not v_max < np.inf:
        raise ConfigError(f"invalid model: the potential of {model} is not finite "
                          f"on {grid}")

    psec = _section(raw, "propagation", (*_field_names(PropagatorConfig), "T"))
    T = _number(psec, "T", period, "propagation")
    if T <= 0.0:
        raise ConfigError(f"propagation.T must be positive, got {T!r}")
    dt = _number(psec, "dt", T / 5000.0, "propagation")
    scheme = psec.get("scheme", "split-step")
    mode = psec.get("mode", "feedback")
    stride = _number(psec, "snapshot_stride", 10, "propagation", kind=int)
    try:
        prop = PropagatorConfig(dt=dt, scheme=scheme, mode=mode, snapshot_stride=stride)
    except PropagationError as exc:
        raise ConfigError(f"invalid propagation: {exc}") from exc
    if dt > T:
        raise ConfigError("propagation.dt exceeds the horizon T")
    try:
        _step_count(T, dt)
    except PropagationError as exc:
        raise ConfigError(f"invalid propagation.T and propagation.dt: {exc}") from exc

    osec = _section(raw, "output", ("directory", "emit_fields", "emit_plots"))
    directory = osec.get("directory", "out")
    if not isinstance(directory, str):
        raise ConfigError("output.directory must be a string")
    directory = os.environ.get(OUTPUT_DIR_ENV, directory)
    emit_fields = osec.get("emit_fields", False)
    emit_plots = osec.get("emit_plots", False)
    if not isinstance(emit_fields, bool) or not isinstance(emit_plots, bool):
        raise ConfigError("output.emit_fields and output.emit_plots must be booleans")

    tsec = _section(raw, "tolerances", _field_names(Tolerances))
    tol = Tolerances(**{k: _number(tsec, k, None, "tolerances") for k in tsec})
    for k, v in dataclasses.asdict(tol).items():
        if not v > 0.0:
            raise ConfigError(f"tolerances.{k} must be positive, got {v!r}")

    return RunConfig(
        model=model,
        grid=grid,
        initial_point=ClassicalPoint(Q=q0, P=p0),
        propagation=prop,
        T=T,
        output_dir=Path(directory),
        emit_fields=emit_fields,
        emit_plots=emit_plots,
        tolerances=tol,
    )


def effective_dict(cfg: RunConfig) -> dict:
    """The configuration with every default materialized."""
    model = dataclasses.asdict(cfg.model)
    return {
        "model": {k: v for k, v in model.items() if v is not None},
        "grid": dataclasses.asdict(cfg.grid),
        "initial": {"Q0": cfg.initial_point.Q, "P0": cfg.initial_point.P},
        "propagation": {**dataclasses.asdict(cfg.propagation), "T": cfg.T},
        "output": {
            "directory": str(cfg.output_dir),
            "emit_fields": cfg.emit_fields,
            "emit_plots": cfg.emit_plots,
        },
        "tolerances": dataclasses.asdict(cfg.tolerances),
    }


def echo_config(cfg: RunConfig, outdir: Path) -> Path:
    """Write the effective configuration next to the run outputs.

    Raises ConfigError when the output directory cannot be made or written.
    """
    target = outdir / "effective_config.json"
    text = json.dumps(effective_dict(cfg), indent=2, sort_keys=True) + "\n"
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write to output directory {outdir}: {exc}") from exc
    return target
