"""Run-configuration ingestion, validation, and echoing.

Configs are JSON with flat key-value sections. Unknown keys anywhere are
rejected; every module precondition that can be checked before running
(model parameters, grid size, bounded classical orbit, packet coverage) is
checked at load time. The effective configuration, with all defaults
materialized, is echoed into the output directory; re-running from the echo
reproduces the outputs byte for byte.
"""

import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .classical import classical_period, v_class
from .displacement import ClassicalPoint
from .errors import ConfigError, GcsdynError, PropagationError
from .grids import Grid
from .models import PotentialModel, suggest_grid
from .propagation import PropagatorConfig
from .tolerances import DEFAULT_TOLERANCES, Tolerances

OUTPUT_DIR_ENV = "GCSDYN_OUTPUT_DIR"

_SECTIONS = ("model", "grid", "initial", "propagation", "output", "tolerances")
_MODEL_KEYS = {"kind", "mass", "hbar", "omega", "a", "lam"}
_GRID_KEYS = {"x_min", "x_max", "n"}
_INITIAL_KEYS = {"Q0", "P0"}
_PROP_KEYS = {"dt", "T", "scheme", "mode", "snapshot_stride"}
_OUTPUT_KEYS = {"directory", "emit_fields", "emit_plots"}
_TOL_KEYS = {f.name for f in dataclasses.fields(Tolerances)}


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run setup."""

    model: PotentialModel
    grid: Grid
    q0_init: float
    p0_init: float
    propagation: PropagatorConfig
    T: float
    output_dir: Path
    emit_fields: bool
    emit_plots: bool
    tolerances: Tolerances

    @property
    def initial_point(self) -> ClassicalPoint:
        return ClassicalPoint(Q=self.q0_init, P=self.p0_init, t=0.0)


def _require_mapping(obj, name):
    if not isinstance(obj, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return obj


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(sorted(unknown))}"
        )


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
    _require_mapping(raw, "config")
    _reject_unknown(raw, _SECTIONS, "config")

    msec = _require_mapping(raw.get("model", {}), "model")
    _reject_unknown(msec, _MODEL_KEYS, "model")
    kind = msec.get("kind")
    if kind not in ("harmonic", "morse"):
        raise ConfigError(f"model.kind must be 'harmonic' or 'morse', got {kind!r}")
    try:
        if kind == "harmonic":
            model = PotentialModel.harmonic(
                omega=_number(msec, "omega", 1.0, "model"),
                mass=_number(msec, "mass", 1.0, "model"),
                hbar=_number(msec, "hbar", 1.0, "model"),
            )
        else:
            model = PotentialModel.morse(
                a=_number(msec, "a", 1.0, "model"),
                lam=_number(msec, "lam", 1.0, "model"),
                mass=_number(msec, "mass", 1.0, "model"),
                hbar=_number(msec, "hbar", 1.0, "model"),
            )
    except GcsdynError as exc:
        raise ConfigError(f"invalid model: {exc}") from exc

    isec = _require_mapping(raw.get("initial", {}), "initial")
    _reject_unknown(isec, _INITIAL_KEYS, "initial")
    q0 = _number(isec, "Q0", 0.0, "initial")
    p0 = _number(isec, "P0", 0.0, "initial")

    e_cl = p0 * p0 / (2.0 * model.mass) + float(v_class(model, q0))
    if model.kind == "morse" and e_cl >= model.well_depth:
        raise ConfigError(
            f"initial point is unbounded: E_cl = {e_cl:g} >= U0 = "
            f"{model.well_depth:g}"
        )

    gsec = _require_mapping(raw.get("grid", {}), "grid")
    _reject_unknown(gsec, _GRID_KEYS, "grid")
    try:
        if gsec:
            missing = _GRID_KEYS - set(gsec)
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

    psec = _require_mapping(raw.get("propagation", {}), "propagation")
    _reject_unknown(psec, _PROP_KEYS, "propagation")
    period = classical_period(model, max(e_cl, 0.0))
    T = _number(psec, "T", period, "propagation")
    dt = _number(psec, "dt", T / 5000.0, "propagation")
    scheme = psec.get("scheme", "crank-nicolson")
    mode = psec.get("mode", "feedback")
    stride = _number(psec, "snapshot_stride", 10, "propagation", kind=int)
    try:
        prop = PropagatorConfig(dt=dt, scheme=scheme, mode=mode, snapshot_stride=stride)
    except PropagationError as exc:
        raise ConfigError(f"invalid propagation: {exc}") from exc
    if T <= 0.0:
        raise ConfigError("propagation.T must be positive")
    if dt > T:
        raise ConfigError("propagation.dt exceeds the horizon T")

    osec = _require_mapping(raw.get("output", {}), "output")
    _reject_unknown(osec, _OUTPUT_KEYS, "output")
    directory = osec.get("directory", "out")
    if not isinstance(directory, str):
        raise ConfigError("output.directory must be a string")
    directory = os.environ.get(OUTPUT_DIR_ENV, directory)
    emit_fields = osec.get("emit_fields", False)
    emit_plots = osec.get("emit_plots", False)
    if not isinstance(emit_fields, bool) or not isinstance(emit_plots, bool):
        raise ConfigError("output.emit_fields and output.emit_plots must be booleans")

    tsec = _require_mapping(raw.get("tolerances", {}), "tolerances")
    _reject_unknown(tsec, _TOL_KEYS, "tolerances")
    tol = DEFAULT_TOLERANCES.replacing(
        **{k: _number(tsec, k, None, "tolerances") for k in tsec}
    )

    return RunConfig(
        model=model,
        grid=grid,
        q0_init=q0,
        p0_init=p0,
        propagation=prop,
        T=T,
        output_dir=Path(directory),
        emit_fields=emit_fields,
        emit_plots=emit_plots,
        tolerances=tol,
    )


def effective_dict(cfg: RunConfig) -> dict:
    """The configuration with every default materialized."""
    model = {"kind": cfg.model.kind, "mass": cfg.model.mass, "hbar": cfg.model.hbar}
    if cfg.model.kind == "harmonic":
        model["omega"] = cfg.model.omega
    else:
        model["a"] = cfg.model.a
        model["lam"] = cfg.model.lam
    return {
        "model": model,
        "grid": {"x_min": cfg.grid.x_min, "x_max": cfg.grid.x_max, "n": cfg.grid.n},
        "initial": {"Q0": cfg.q0_init, "P0": cfg.p0_init},
        "propagation": {
            "dt": cfg.propagation.dt,
            "T": cfg.T,
            "scheme": cfg.propagation.scheme,
            "mode": cfg.propagation.mode,
            "snapshot_stride": cfg.propagation.snapshot_stride,
        },
        "output": {
            "directory": str(cfg.output_dir),
            "emit_fields": cfg.emit_fields,
            "emit_plots": cfg.emit_plots,
        },
        "tolerances": dataclasses.asdict(cfg.tolerances),
    }


def echo_config(cfg: RunConfig, outdir: Path) -> Path:
    """Write the effective configuration next to the run outputs."""
    outdir.mkdir(parents=True, exist_ok=True)
    target = outdir / "effective_config.json"
    target.write_text(json.dumps(effective_dict(cfg), indent=2, sort_keys=True) + "\n")
    return target
