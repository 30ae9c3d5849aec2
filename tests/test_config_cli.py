import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcsdyn import (
    ClassicalPoint,
    ConfigError,
    PropagatorConfig,
    UnitarityError,
    errors,
    evolve_static,
    gcs_from_model,
    load_config,
    potential_value,
    suggest_grid,
)
from gcsdyn import cli, propagation
from gcsdyn.cli import main
from gcsdyn.config import OUTPUT_DIR_ENV, config_from_dict, echo_config
from gcsdyn.output import write_plot_data

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "model": {"kind": "morse", "a": 1.0},
        "initial": {"Q0": 0.0, "P0": 0.3},
        "propagation": {
            "T": 7.0,
            "dt": 0.0035,
            "scheme": "split-step",
            "mode": "feedback",
            "snapshot_stride": 200,
        },
        "output": {"directory": str(tmp_path / "out")},
    }
    for key, val in overrides.items():
        if val is None:
            cfg.pop(key, None)
        elif isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_defaults_applied(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps({"model": {"kind": "harmonic"}}))
    cfg = load_config(path)
    assert cfg.model.omega == 1.0
    assert cfg.propagation.scheme == "split-step"
    assert cfg.propagation.mode == "feedback"
    assert cfg.T == pytest.approx(2.0 * np.pi)
    assert cfg.grid.n == 2048


def test_unknown_keys_rejected(tmp_path):
    for kind, section, key in (
        ("morse", None, "experiment"),
        ("morse", "model", "depth"),
        ("morse", "propagation", "steps"),
        ("morse", "output", "format"),
        ("morse", "grid", "dx"),
        ("morse", "initial", "Q"),
        ("morse", "tolerances", "phase_floor"),  # a numerical floor, not a knob
        ("harmonic", "model", "a"),  # a parameter of the other kind
    ):
        raw = {"model": {"kind": kind}}
        if section is None:
            raw["experiment"] = {}
        else:
            raw.setdefault(section, {})[key] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=key):
            load_config(path)


# every key a config may hold, by section (None: the top level)
_KNOWN_KEYS = {
    None: ("model", "grid", "initial", "propagation", "output", "tolerances"),
    "grid": ("x_min", "x_max", "n"),
    "initial": ("Q0", "P0"),
    "propagation": ("T", "dt", "scheme", "mode", "snapshot_stride"),
    "output": ("directory", "emit_fields", "emit_plots"),
    "tolerances": ("boundary_mass", "unitarity_drift"),
}
_MODEL_KEYS = {"harmonic": ("kind", "omega", "mass", "hbar"),
               "morse": ("kind", "a", "mass", "hbar")}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(_MODEL_KEYS)),
       st.sampled_from([None, "model", *sorted(k for k in _KNOWN_KEYS if k)]),
       st.one_of(st.text(min_size=1, max_size=12),
                 st.sampled_from(["a", "omega", "lam", "dx", "Q", "phase_floor"])))
def test_generated_unknown_keys_are_rejected_by_name(kind, section, key):
    # in every section of an otherwise valid config, a key it does not
    # hold (a parameter of the other model kind included) is a ConfigError
    # that names it
    known = _MODEL_KEYS[kind] if section == "model" else _KNOWN_KEYS[section]
    assume(key not in known)
    raw = {"model": {"kind": kind}}
    if section is None:
        raw[key] = {}
    else:
        raw.setdefault(section, {})[key] = 1
    with pytest.raises(ConfigError, match=re.escape(key)):
        config_from_dict(raw)


@pytest.mark.parametrize("name", [
    "morse_feedback", "harmonic_feedback", "morse_static_twin", None,
])
def test_echo_loads_back_to_the_same_config(name, tmp_path, monkeypatch):
    # load -> echo -> load is the identity; None is a defaulted harmonic config
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    if name is None:
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps({"model": {"kind": "harmonic"}}))
    else:
        path = CONFIGS / f"{name}.json"
    cfg = load_config(path)
    assert load_config(echo_config(cfg, tmp_path / "echo")) == cfg


_NUMBER = st.floats(0.5, 2.0)


@st.composite
def _valid_configs(draw):
    # a valid config of either model kind, scheme and mode, with any
    # stride; every other entry is either drawn or left to its default
    kind = draw(st.sampled_from(sorted(_MODEL_KEYS)))
    names = ("omega", "mass", "hbar") if kind == "harmonic" else ("a", "mass", "hbar")
    params = {k: draw(_NUMBER) for k in names if draw(st.booleans())}
    raw = {"model": {"kind": kind, **params}}
    # a Morse orbit stays bound: |a Q0| <= 0.3 and P0^2 / 2m <= U0 / 4
    a, m, hbar = (params.get(k, 1.0) for k in ("a", "mass", "hbar"))
    q0, u = draw(st.floats(-0.3, 0.3)), draw(st.floats(-1.0, 1.0))
    raw["initial"] = {"Q0": q0 / a, "P0": 0.5 * u * hbar * a}
    if draw(st.booleans()):
        raw["grid"] = {"x_min": draw(st.floats(-30.0, -5.0)),
                       "x_max": draw(st.floats(5.0, 60.0)),
                       "n": draw(st.integers(16, 4096))}
    T = draw(st.floats(0.1, 50.0))
    raw["propagation"] = {
        "T": T,
        "dt": T / draw(st.integers(1, 100_000)),
        "scheme": draw(st.sampled_from(sorted(propagation.SCHEMES))),
        "mode": draw(st.sampled_from(sorted(propagation.MODES))),
        "snapshot_stride": draw(st.integers(1, 10**6)),
    }
    raw["output"] = {"directory": draw(st.sampled_from(["out", "runs/a b", "ü"])),
                     "emit_fields": draw(st.booleans()),
                     "emit_plots": draw(st.booleans())}
    if draw(st.booleans()):
        raw["tolerances"] = {"boundary_mass": draw(st.floats(1e-12, 1e-4)),
                             "unitarity_drift": draw(st.floats(1e-12, 1e-4))}
    return raw


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_valid_configs())
def test_generated_configs_echo_back_to_themselves(tmp_path_factory, raw):
    # load -> echo -> load is the identity over the config space
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(OUTPUT_DIR_ENV, raising=False)
        cfg = load_config(path)
        echoed = echo_config(cfg, path.parent / "echo")
        assert load_config(echoed) == cfg


def _csvs(directory):
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*.csv"))}


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(_valid_configs(), st.integers(1, 50))
def test_generated_configs_rerun_byte_for_byte(tmp_path_factory, raw, steps):
    # a run of at most 50 steps, rerun from its echoed config, writes every
    # CSV again byte for byte; a config whose run stops with an error (a
    # coverage or unitarity alarm) leaves no echo to rerun and is not counted
    raw["propagation"]["T"] = steps * raw["propagation"]["dt"]
    base = tmp_path_factory.mktemp("rerun")
    raw["output"]["directory"] = str(base / "first")
    path = base / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(OUTPUT_DIR_ENV, raising=False)
        assume(main(["run", "--config", str(path)]) == 0)
        echoed = json.loads((base / "first" / "effective_config.json").read_text())
        echoed["output"]["directory"] = str(base / "second")
        path.write_text(json.dumps(echoed))
        assert main(["run", "--config", str(path)]) == 0
    first = _csvs(base / "first")
    assert len(first) >= 2  # diagnostics and trajectory at least
    assert _csvs(base / "second") == first


def test_preconditions_checked_at_load(tmp_path):
    with pytest.raises(ConfigError):
        config_from_dict({"model": {"kind": "morse", "a": -2.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"model": {"kind": "morse", "lam": 2.0}})
    with pytest.raises(ConfigError):
        config_from_dict(
            {"model": {"kind": "morse"}, "initial": {"Q0": 0.0, "P0": 5.0}}
        )  # unbounded orbit
    with pytest.raises(ConfigError):
        config_from_dict(
            {"model": {"kind": "morse"}, "grid": {"x_min": -8.0, "x_max": 25.0}}
        )  # incomplete grid section
    with pytest.raises(ConfigError):
        config_from_dict(
            {"model": {"kind": "morse"}, "propagation": {"dt": -0.1}}
        )


@pytest.mark.parametrize("value", [None, float("nan"), float("inf")],
                         ids=["null", "NaN", "Infinity"])
@pytest.mark.parametrize("section, key", [
    ("model", "a"), ("initial", "Q0"), ("grid", "n"), ("propagation", "dt"),
])
def test_null_and_non_finite_numbers_rejected(section, key, value, tmp_path, capsys):
    overrides = {"grid": {"x_min": -9.0, "x_max": 25.0, "n": 2048}}
    overrides.setdefault(section, {})[key] = value
    path = _write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(path)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("config error: ")
    assert err.endswith(f"{section}.{key} must be a finite number, got {value!r}")


@pytest.mark.parametrize("section, key, value", [
    pytest.param("tolerances", "unitarity_drift", -1, id="unitarity_drift--1"),
    pytest.param("tolerances", "boundary_mass", 0, id="boundary_mass-0"),
    pytest.param("tolerances", "boundary_mass", -1e-8, id="boundary_mass--1e-08"),
    pytest.param("propagation", "T", -1, id="T--1"),
    pytest.param("propagation", "T", 0, id="T-0"),
])
def test_non_positive_tolerances_rejected(section, key, value, tmp_path, capsys):
    # a propagation section of T alone: the default dt, T / 5000, is not
    # positive either, and the error must name T
    path = _write_config(tmp_path, propagation=None)
    raw = json.loads(path.read_text())
    raw[section] = {key: value}
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err == f"config error: {section}.{key} must be positive, got {float(value)!r}"
    assert not (tmp_path / "out").exists()


def test_crank_nicolson_config_exits_2_naming_split_step(tmp_path, capsys):
    path = _write_config(tmp_path, propagation={"scheme": "crank-nicolson"})
    assert main(["run", "--config", str(path)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("config error: ") and "'split-step'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("T, dt", [(1e300, 1e-300), (1e20, 1e-3)],
                         ids=["ratio_not_finite", "beyond_physical_memory"])
def test_step_count_out_of_reach_exits_2(T, dt, tmp_path, capsys):
    # T / dt overflows, or asks for more orbit and coefficient bytes than
    # the machine has: a config error naming both keys, with no traceback
    path = _write_config(tmp_path, propagation={"T": T, "dt": dt})
    assert main(["run", "--config", str(path)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("config error: invalid propagation.T and propagation.dt: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
def test_grid_beyond_physical_memory_exits_2(tmp_path, capsys):
    # 10**15 points are refused before any array is allocated
    path = _write_config(tmp_path, grid={"x_min": -9.0, "x_max": 25.0, "n": 10**15})
    assert main(["run", "--config", str(path)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("config error: invalid grid: ")
    assert "physical memory" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("raw, prefix", [
    ({"model": {"kind": "harmonic", "omega": 1e200}}, "invalid model: "),
    ({"model": {"kind": "harmonic", "omega": 1e-200}}, "invalid model: "),
    ({"model": {"kind": "morse", "a": 1e200}}, "invalid model: "),
    # U0 = 5e299: V overflows on the default grid's inner wall
    ({"model": {"kind": "morse", "mass": 1e-300}},
     "invalid model: the potential of PotentialModel(kind='morse', mass=1e-300, "
     "hbar=1.0, omega=None, a=1.0) is not finite on Grid(x_min=-10.913860541076232, "
     "x_max=23.7149848732941, n=2048)"),
    ({"model": {"kind": "harmonic"}, "initial": {"P0": 1e200}},
     "invalid initial point: "),
    ({"model": {"kind": "harmonic"},
      "grid": {"x_min": -1.7e308, "x_max": 1.7e308, "n": 1024}}, "invalid grid: "),
], ids=["omega_overflows", "omega_underflows", "morse_a_overflows",
        "morse_potential_overflows", "orbit_energy_overflows",
        "grid_length_overflows"])
def test_out_of_range_scales_exit_2(raw, prefix, command, tmp_path, capsys):
    # a model scale (energy scale, spread, m omega0^2), a potential on the
    # grid, an orbit energy or a grid length that overflows or vanishes is a
    # config error with one stderr line, before any warning or arithmetic
    # error
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**raw, "output": {"directory": str(tmp_path / "out")}}))
    assert main([command, "--config", str(path)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("config error: " + prefix)
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", [{"kind": "morse", "mass": 1e300},
                                   {"kind": "harmonic", "omega": 1e100}],
                         ids=["heavy_morse", "stiff_harmonic"])
def test_extreme_finite_scales_run_and_verify(model, tmp_path, capsys):
    # mass 1e300: 2 U0 / m = 1e-600 underflows, while omega0 = hbar a^2 / m
    # = 1e-300 gives a finite default horizon (one period). omega 1e100: the
    # stationary residual in energy units read 1.57e89; divided by the
    # energy scale it reads 1.6e-11, as the Morse one reads 4.9e-11
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": model,
                                "output": {"directory": str(tmp_path / "out")}}))
    assert main(["run", "--config", str(path)]) == 0
    assert main(["verify", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = dict(r.split(",", 1) for r in out.splitlines() if "," in r)
    assert float(rows["stationary_residual"].split(",")[0]) <= 1e-9


def test_morse_lam_key_exits_2(tmp_path, capsys):
    # the Morse depth index is no parameter: a config that names it, such
    # as the echo of an older version, fails at load naming the key
    path = _write_config(tmp_path, model={"lam": 1.0})
    assert main(["run", "--config", str(path)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err == "config error: unknown key(s) in model: lam"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, via_env", [("run", False), ("extract-vclass", True)])
def test_root_output_directory_exits_2(command, via_env, tmp_path, capsys,
                                       monkeypatch):
    # a filesystem root has no name, so no sibling can stage the outputs:
    # refused before anything is written, by the config or the environment
    if via_env:
        path = _write_config(tmp_path)
        monkeypatch.setenv(OUTPUT_DIR_ENV, "/")
    else:
        path = _write_config(tmp_path, output={"directory": "/"})
    assert main([command, "--config", str(path)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err == "config error: output directory / has no name; name one below it"


def test_malformed_json_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2


def test_run_writes_outputs_and_is_deterministic(tmp_path):
    path = _write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    outdir = tmp_path / "out"
    diag = (outdir / "diagnostics.csv").read_bytes()
    traj = (outdir / "trajectory.csv").read_bytes()
    header = diag.decode().splitlines()[0]
    assert header == (
        "t,norm,q_mean,p_mean,dq2,overlap,ehrenfest_residual,hjm_residual,"
        "boundary_mass,l2_distance"
    )
    assert traj.decode().splitlines()[0] == "t,Q,P,dPdt,E_cl"

    # rerun from the echoed effective config into a second directory
    echoed = json.loads((outdir / "effective_config.json").read_text())
    echoed["output"]["directory"] = str(tmp_path / "out2")
    path2 = tmp_path / "echo.json"
    path2.write_text(json.dumps(echoed))
    assert main(["run", "--config", str(path2)]) == 0
    assert (tmp_path / "out2" / "diagnostics.csv").read_bytes() == diag
    assert (tmp_path / "out2" / "trajectory.csv").read_bytes() == traj


_MAIN = "import sys; from gcsdyn.cli import main; sys.exit(main(sys.argv[1:]))"

_LISTING_SCIPY = """
def scipy_modules():
    return " ".join(sorted(m for m, mod in sys.modules.items()
                           if mod is not None and m.partition(".")[0] == "scipy"))
"""

_RUN_LISTING_SCIPY = """
import sys
if sys.argv[1] == "no-scipy":
    sys.modules["scipy"] = None  # any scipy import now raises ImportError
from gcsdyn.cli import main
""" + _LISTING_SCIPY + """
for path in sys.argv[2:]:
    assert main(["run", "--config", path]) == 0
    assert main(["verify", "--config", path]) == 0
print(scipy_modules())
"""

_COMMAND_LISTING_SCIPY = """
import sys
from gcsdyn.cli import main
""" + _LISTING_SCIPY + """
assert main(sys.argv[1:]) == 0
print(scipy_modules())
"""


def _run_shortened(tmp_path, scipy, names):
    """Run and verify shortened copies of shipped configs, every output on,
    in a fresh interpreter (other tests import scipy); return the scipy
    modules it loaded."""
    paths = []
    for name in names:
        raw = json.loads((CONFIGS / f"{name}.json").read_text())
        raw["propagation"]["T"] = 40 * raw["propagation"]["dt"]
        raw["propagation"]["snapshot_stride"] = 20
        raw["output"] = {"directory": str(tmp_path / name), "emit_fields": True,
                         "emit_plots": True}
        paths.append(str(tmp_path / f"{name}.json"))
        Path(paths[-1]).write_text(json.dumps(raw))
    done = subprocess.run([sys.executable, "-c", _RUN_LISTING_SCIPY, scipy, *paths],
                          env=_subprocess_env(), capture_output=True, text=True,
                          check=True)
    return done.stdout.splitlines()[-1].split()


def _subprocess_env(**extra):
    """The environment with this checkout's gcsdyn first on PYTHONPATH."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_feedback_csvs_independent_of_blas_threads(tmp_path):
    # the feedback step's potential is one BLAS product per step; a shortened
    # morse_feedback run writes the same bytes with one BLAS thread or two.
    # With OpenBLAS on x86-64 a second thread does not speed up a 4 x 2048
    # product (the shipped one is 4 x 768), and 4 x n products that it does
    # split gave the same bits under 1 and 2 threads up to n = 1048576. So
    # this guards only against a future BLAS build that splits the product
    # differently.
    raw = json.loads((CONFIGS / "morse_feedback.json").read_text())
    raw["propagation"]["T"] = 200 * raw["propagation"]["dt"]
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        raw["output"]["directory"] = str(out)
        path = tmp_path / f"threads{threads}.json"
        path.write_text(json.dumps(raw))
        subprocess.run([sys.executable, "-c", _MAIN, "run", "--config", str(path)],
                       env=_subprocess_env(OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, check=True)
        written.append({p.relative_to(out): p.read_bytes()
                        for p in sorted(out.rglob("*.csv"))})
    assert len(written[0]) == 6  # diagnostics, trajectory and 4 plot CSVs
    assert written[0] == written[1]


_SHIPPED = ("morse_feedback", "morse_static_twin", "harmonic_feedback")


def test_run_loads_no_spline_module(tmp_path):
    # with scipy installed, no shipped config's run or verify loads any
    # scipy module
    assert _run_shortened(tmp_path, "scipy", _SHIPPED) == []
    for name in _SHIPPED:
        assert (tmp_path / name / "diagnostics.csv").exists()
        assert (tmp_path / name / "fields" / "0000.csv").exists()


@pytest.mark.parametrize("command", ["verify", "extract-vclass"])
@pytest.mark.parametrize("name", ["morse_feedback", "harmonic_feedback"])
def test_fitted_slope_loads_no_spline_module(command, name, tmp_path):
    # both commands read linear_coefficient, a dot with polynomial weights:
    # in a fresh interpreter neither loads any scipy module
    done = subprocess.run(
        [sys.executable, "-c", _COMMAND_LISTING_SCIPY, command, "--config",
         str(CONFIGS / f"{name}.json")],
        env=_subprocess_env(**{OUTPUT_DIR_ENV: str(tmp_path / "out")}),
        capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1].split() == []


_SETUP_LISTING_NUMPY_FFT = """
import sys
from pathlib import Path
import gcsdyn
from gcsdyn.config import echo_config, load_config
cfg = load_config(sys.argv[1])
echo_config(cfg, Path(sys.argv[2]))
gcsdyn.gcs_from_model(cfg.model, cfg.grid, cfg.initial_point, cfg.tolerances)
print(" ".join(sorted(m for m in sys.modules if m.startswith("numpy.fft"))))
"""


def test_setup_loads_no_numpy_fft(tmp_path):
    # the pocketfft gufuncs are looked up by the first split-step kernel, so
    # import and set-up (load, echo, initial state) load no numpy.fft at all
    done = subprocess.run([sys.executable, "-c", _SETUP_LISTING_NUMPY_FFT,
                           str(CONFIGS / "morse_feedback.json"), str(tmp_path)],
                          env=_subprocess_env(), capture_output=True, text=True,
                          check=True)
    assert done.stdout.split() == []
    assert (tmp_path / "effective_config.json").exists()


def test_split_step_runs_without_scipy(tmp_path):
    # every shipped config runs and verifies with scipy unimportable
    assert _run_shortened(tmp_path, "no-scipy", _SHIPPED) == []
    for name in _SHIPPED:
        assert (tmp_path / name / "diagnostics.csv").exists()
        assert (tmp_path / name / "plots" / "overlap_t.csv").exists()


def test_run_overlap_column_quality(tmp_path):
    path = _write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[1:]
    overlap = [float(r.split(",")[5]) for r in rows]
    assert all(v >= 1.0 - 1e-4 for v in overlap)


def test_static_twin_degrades(tmp_path):
    fb = _write_config(tmp_path, name="fb.json")
    st = _write_config(
        tmp_path,
        name="st.json",
        propagation={"mode": "static"},
        output={"directory": str(tmp_path / "out_static")},
        grid={"x_min": -10.0, "x_max": 45.0, "n": 3072},
    )
    assert main(["run", "--config", str(fb)]) == 0
    assert main(["run", "--config", str(st)]) == 0

    def overlaps(d):
        rows = (d / "diagnostics.csv").read_text().splitlines()[1:]
        return [float(r.split(",")[5]) for r in rows]

    worst_fb = max(1.0 - v for v in overlaps(tmp_path / "out"))
    worst_st = max(1.0 - v for v in overlaps(tmp_path / "out_static"))
    assert worst_st > 10.0 * worst_fb


def test_fixed_point_run_constant_trajectory(tmp_path):
    path = _write_config(tmp_path, initial={"Q0": 0.0, "P0": 0.0})
    assert main(["run", "--config", str(path)]) == 0
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
    qs = {r.split(",")[1] for r in rows}
    ps = {r.split(",")[2] for r in rows}
    assert qs == {"0"} and ps == {"0"}


def test_fields_emission_schema(tmp_path):
    path = _write_config(
        tmp_path,
        propagation={"T": 0.7, "dt": 0.0035, "snapshot_stride": 100},
        output={"directory": str(tmp_path / "out"), "emit_fields": True},
    )
    assert main(["run", "--config", str(path)]) == 0
    fields = sorted((tmp_path / "out" / "fields").glob("*.csv"))
    assert fields and fields[0].name == "0000.csv"
    head = fields[0].read_text().splitlines()
    assert head[0] == "x,re_psi,im_psi,rho,S,V"
    assert len(head) == 1 + 2048


PLOT_CSVS = ("dq2_t.csv", "overlap_t.csv", "center_tracking.csv",
             "potential_snapshots.csv")


def _plots_config(tmp_path):
    return _write_config(
        tmp_path,
        propagation={"T": 0.7, "dt": 0.0035, "snapshot_stride": 100},
        output={"directory": str(tmp_path / "out"), "emit_plots": True},
    )


def test_plot_data_emission(tmp_path):
    path = _plots_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    plots = tmp_path / "out" / "plots"
    for name in PLOT_CSVS:
        assert (plots / name).exists()


def test_plot_svg_emission(tmp_path):
    pytest.importorskip("matplotlib")
    path = _plots_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    plots = tmp_path / "out" / "plots"
    assert list(plots.glob("*.svg"))


def test_plots_without_matplotlib(tmp_path, monkeypatch, capsys):
    # a None entry makes any import of matplotlib raise ImportError
    monkeypatch.setitem(sys.modules, "matplotlib", None)
    path = _plots_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    plots = tmp_path / "out" / "plots"
    for name in PLOT_CSVS:
        assert (plots / name).exists()
    assert not list(plots.glob("*.svg"))
    err = capsys.readouterr().err
    assert "'plots' extra" in err
    assert len(err.splitlines()) == 1


def test_static_center_tracking_reads_trajectory(tmp_path, morse):
    # Q at each snapshot is the trajectory entry at that snapshot's step, bit
    # for bit; no time-keyed lookup that could miss and write NaN
    grid = suggest_grid(morse, q_reach_min=-1.5, q_reach_max=1.5, n=1024)
    state0 = gcs_from_model(morse, grid, ClassicalPoint(morse.dq, 0.0))
    conf = PropagatorConfig(dt=2e-3, scheme="split-step", mode="static",
                            snapshot_stride=7)
    run = evolve_static(state0, morse, conf, 25 * 2e-3)
    write_plot_data(tmp_path, run)
    rows = (tmp_path / "plots" / "center_tracking.csv").read_text().splitlines()
    assert rows[0] == "t,Q,q_mean"
    q_col = np.array([float(r.split(",")[1]) for r in rows[1:]])
    steps = list(run.steps)
    assert steps == [0, 7, 14, 21, 25]
    assert np.all(np.isfinite(q_col))
    assert np.array_equal(q_col, run.trajectory.q[steps])


def _error_classes(cls=errors.GcsdynError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


# constructor arguments where a single message does not fit
_ERROR_ARGS = {errors.NormalizationError: (1.5, 1e-8)}
_EXIT_CODES = {errors.ConfigError: 2, errors.CoverageError: 3,
               errors.EscapeError: 3, errors.UnitarityError: 4,
               errors.ExtractionError: 5}


@pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda c: c.__name__)
def test_exit_code_for_every_error_class(cls, tmp_path, monkeypatch, capsys):
    # every gcsdyn error leaves with its own code and one stderr line;
    # anything without a dedicated code exits 6, apart from verify's 1
    exc = cls(*_ERROR_ARGS.get(cls, ("injected failure",)))

    def failing(cfg):
        raise exc

    monkeypatch.setattr(cli, "cmd_run", failing)
    path = _write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == _EXIT_CODES.get(cls, 6)
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_output_dir_env_override(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(override))
    path = _write_config(tmp_path, propagation={"T": 0.35, "dt": 0.0035})
    assert main(["run", "--config", str(path)]) == 0
    assert (override / "diagnostics.csv").exists()


def _fail_at_step_5(monkeypatch):
    """Make the step monitors raise a UnitarityError at step 5."""
    monitor = propagation._monitor

    def failing_monitor(grid, tol):
        check = monitor(grid, tol)

        def failing(vals, step):
            if step == 5:
                raise UnitarityError("norm drifted at step 5")
            return check(vals, step)

        return failing

    monkeypatch.setattr(propagation, "_monitor", failing_monitor)


@pytest.mark.filterwarnings("error")
def test_non_finite_state_exits_with_the_error_alone(tmp_path, monkeypatch, capsys):
    # an inf placed into psi before step 3 spreads through the step and
    # reaches the check: the run leaves with the UnitarityError's one line,
    # and no numpy warning is printed (here: raised) next to it
    kernels = propagation._split_step

    def poisoning(*args):
        kernel = kernels(*args)
        steps = []

        def advance(vals, operand):
            steps.append(1)
            if len(steps) == 3:
                vals[len(vals) // 2] = np.inf
            return kernel.advance(vals, operand)

        return kernel._replace(advance=advance)

    monkeypatch.setattr(propagation, "_split_step", poisoning)
    path = _write_config(tmp_path, propagation={"T": 0.35})
    assert main(["run", "--config", str(path)]) == 4
    (err,) = capsys.readouterr().err.splitlines()
    assert err.endswith("at step 3")


@pytest.mark.filterwarnings("error")
def test_orbit_off_the_grid_exits_with_the_coverage_error_alone(tmp_path, capsys):
    # dt = 11.8 is past Verlet's stability limit, so the orbit runs out to
    # Q ~ -2e10, where the translated ground density underflows on every
    # sample: the pre-check exits 3 with its one line, where it divided by
    # the zero quadrature and let the NaN density pass into the run (exit 4)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "model": {"kind": "harmonic", "omega": 1.0},
        "grid": {"x_min": -14.75, "x_max": 25.95, "n": 398},
        "initial": {"Q0": 1.0, "P0": 0.0},
        "propagation": {"T": 59.0, "dt": 11.8, "scheme": "split-step",
                        "mode": "feedback"},
        "output": {"directory": str(tmp_path / "out")},
    }))
    assert main(["run", "--config", str(path)]) == 3
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("coverage/escape error: ground density shifted by Q = ")
    assert err.endswith("vanishes on every grid sample")
    assert not (tmp_path / "out").exists()


def _tree(directory):
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_failed_run_leaves_the_output_directory_as_it_was(tmp_path, monkeypatch):
    # a run writes into a sibling directory and moves its outputs into place
    # only when it succeeds: a failure mid-loop leaves no directory, or an
    # earlier run's unchanged, and a successful re-run replaces its outputs
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    out = tmp_path / "out"
    first = _write_config(tmp_path, "first.json", propagation={"T": 0.35},
                          output={"emit_fields": True})
    second = _write_config(tmp_path, "second.json", propagation={"T": 0.42})
    with monkeypatch.context() as m:
        _fail_at_step_5(m)
        assert main(["run", "--config", str(first)]) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.json", "second.json"]
    assert main(["run", "--config", str(first)]) == 0
    earlier = _tree(out)
    assert Path("fields") / "0000.csv" in earlier
    with monkeypatch.context() as m:
        _fail_at_step_5(m)
        assert main(["run", "--config", str(second)]) == 4
    assert _tree(out) == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "first.json", "out", "second.json"]
    assert main(["run", "--config", str(second)]) == 0
    later = _tree(out)
    assert not (out / "fields").exists()
    assert later[Path("diagnostics.csv")] != earlier[Path("diagnostics.csv")]


def test_failed_run_leaves_no_streamed_fields(tmp_path, monkeypatch):
    # fields/ is written into the stage as the snapshots arrive: a run that
    # fails after three of them (stride 2, alarm at step 5) leaves neither
    # fields/ nor the stage behind
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    path = _write_config(tmp_path, propagation={"T": 0.35, "snapshot_stride": 2},
                         output={"emit_fields": True})
    streamed = []
    sinks = cli.fields_sink

    def listing(directory, hbar):
        sink = sinks(directory, hbar)

        def listed(step, psi, V):
            sink(step, psi, V)
            streamed.append((step, sorted(p.name for p in directory.iterdir())))

        return listed

    monkeypatch.setattr(cli, "fields_sink", listing)
    _fail_at_step_5(monkeypatch)
    assert main(["run", "--config", str(path)]) == 4
    assert streamed[-1] == (4, ["0000.csv", "0001.csv", "0002.csv"])
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_rerun_replaces_only_the_run_outputs(tmp_path, monkeypatch):
    # extract-vclass and a run share one directory: the run keeps vclass.csv
    # and a file of the user's beside its outputs, and a re-run whose moves
    # fail half-way puts the earlier outputs back
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    out = tmp_path / "out"
    path = _write_config(tmp_path, propagation={"T": 0.35})
    assert main(["extract-vclass", "--config", str(path)]) == 0
    (out / "notes.txt").write_text("kept")
    kept = _tree(out)
    assert main(["run", "--config", str(path)]) == 0
    ran = _tree(out)
    assert set(ran) == set(kept) | {Path("diagnostics.csv"), Path("trajectory.csv")}
    for name in ("vclass.csv", "notes.txt"):
        assert ran[Path(name)] == kept[Path(name)]
    move = shutil.move

    def failing(src, dst):
        if Path(src).name == "trajectory.csv" and Path(src).parent.suffix == ".partial":
            raise OSError("no space left on device")
        return move(src, dst)

    monkeypatch.setattr(shutil, "move", failing)
    second = _write_config(tmp_path, "second.json", propagation={"T": 0.42})
    assert main(["run", "--config", str(second)]) == 2
    assert _tree(out) == ran
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "out", "second.json"]


def _not_called(*args, **kwargs):
    pytest.fail("computation started before the output directory was checked")


@pytest.mark.parametrize("command", ["run", "extract-vclass"])
def test_unusable_output_directory_is_a_config_error(
    command, tmp_path, monkeypatch, capsys
):
    # a directory below a regular file cannot be made: both subcommands say
    # so before computing anything, with exit 2 and one stderr line
    blocker = tmp_path / "afile"
    blocker.write_text("")
    outdir = blocker / "out"
    path = _write_config(tmp_path, output={"directory": str(outdir)})
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    monkeypatch.setattr(cli, "evolve_feedback", _not_called)
    monkeypatch.setattr(cli, "linear_coefficient", _not_called)
    assert main([command, "--config", str(path)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("config error: ") and str(outdir) in err


@pytest.mark.parametrize("command", ["run", "extract-vclass"])
def test_output_directory_naming_a_file_is_refused_before_the_run(
    command, tmp_path, monkeypatch, capsys
):
    # an existing file cannot become the output directory: refused with
    # exit 2 and one stderr line before any computation, not after it
    outdir = tmp_path / "afile"
    outdir.write_text("kept")
    path = _write_config(tmp_path, output={"directory": str(outdir)})
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    monkeypatch.setattr(cli, "evolve_feedback", _not_called)
    monkeypatch.setattr(cli, "linear_coefficient", _not_called)
    assert main([command, "--config", str(path)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err == (f"config error: cannot write to output directory {outdir}: "
                   f"[Errno 17] File exists: '{outdir}'")
    assert outdir.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.json"]


@pytest.mark.parametrize("via_env", [False, True])
def test_empty_output_directory_exits_2(via_env, tmp_path, monkeypatch, capsys):
    # an empty path is the working directory, whose stage would be a
    # sibling outside it: refused from the config key or the environment
    # variable, naming it, before anything is written
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    if via_env:
        path = _write_config(tmp_path)
        monkeypatch.setenv(OUTPUT_DIR_ENV, "")
    else:
        path = _write_config(tmp_path, output={"directory": ""})
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    assert main(["run", "--config", str(path)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("config error: ")
    assert (OUTPUT_DIR_ENV if via_env else "output.directory") in err
    assert list(work.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "work"]


def test_run_coverage_exit_code(tmp_path):
    path = _write_config(
        tmp_path, grid={"x_min": -3.0, "x_max": 8.0, "n": 256},
        initial={"Q0": 0.0, "P0": 0.6},
    )
    assert main(["run", "--config", str(path)]) == 3


def test_extract_vclass_morse(tmp_path):
    path = _write_config(tmp_path)
    assert main(["extract-vclass", "--config", str(path)]) == 0
    rows = (tmp_path / "out" / "vclass.csv").read_text().splitlines()
    assert rows[0] == "Q,V_class_analytic,V_class_numeric,relative_deviation"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert data.shape[0] == 61
    assert np.max(data[:, 3]) < 1e-5
    # mirror identity, column against the reflected well
    morse_vals = potential_value(load_config(path).model, -data[:, 0])
    assert np.max(np.abs(data[:, 1] - morse_vals)) == 0.0


def test_extract_vclass_harmonic(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({
        "model": {"kind": "harmonic"},
        "output": {"directory": str(tmp_path / "outh")},
    }))
    assert main(["extract-vclass", "--config", str(path)]) == 0
    rows = (tmp_path / "outh" / "vclass.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert np.max(np.abs(data[:, 1] - 0.5 * data[:, 0] ** 2)) < 1e-14
    assert np.max(np.abs(data[:, 2] - data[:, 1])) < 1e-8 * max(abs(data[:, 1]))


def test_failed_extraction_leaves_the_output_directory_as_it_was(
        tmp_path, monkeypatch):
    # extract-vclass writes vclass.csv and its echo into a hidden sibling
    # and moves them into place only once the extraction succeeded: a
    # failure mid-extraction or mid-write leaves no output directory, or an
    # earlier extraction's unchanged, and no sibling
    from gcsdyn import output

    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    out = tmp_path / "out"
    path = _write_config(tmp_path)
    other = _write_config(tmp_path, "other.json", model={"a": 1.2})
    fit = cli.linear_coefficient

    def extract_failing_at_fit_100(config):
        calls = []

        def failing_fit(*args, **kwargs):
            calls.append(1)
            if len(calls) == 100:
                raise errors.ExtractionError("fit failed")
            return fit(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(cli, "linear_coefficient", failing_fit)
            assert main(["extract-vclass", "--config", str(config)]) == 5
        assert len(calls) == 100

    extract_failing_at_fit_100(path)
    assert not out.exists()
    assert main(["extract-vclass", "--config", str(path)]) == 0
    earlier = _tree(out)
    assert set(earlier) == {Path("effective_config.json"), Path("vclass.csv")}
    extract_failing_at_fit_100(other)
    assert _tree(out) == earlier

    def failing_write(target, header, columns):
        target.write_text("Q,V_class_an")
        raise OSError("no space left on device")

    monkeypatch.setattr(output, "_write_rows", failing_write)
    assert main(["extract-vclass", "--config", str(other)]) == 2
    assert _tree(out) == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "other.json", "out"]


def test_verify_passes_default_config(tmp_path):
    path = _write_config(tmp_path)
    assert main(["verify", "--config", str(path)]) == 0


def test_verify_fails_huge_dt(tmp_path, capsys):
    path = _write_config(tmp_path, propagation={"dt": 0.35})
    assert main(["verify", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    # one machine-readable line per check: name,value,threshold,status
    for line in out.splitlines():
        if "," in line:
            parts = line.split(",")
            assert len(parts) == 4
            assert parts[3] in ("PASS", "FAIL")


def test_verify_detects_bad_coverage_before_running(tmp_path, capsys):
    path = _write_config(
        tmp_path, grid={"x_min": -3.0, "x_max": 8.0, "n": 256},
        initial={"Q0": 0.0, "P0": 0.6},
    )
    assert main(["verify", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    first = out.splitlines()[0].split(",")
    assert first[0] == "grid_coverage" and first[3] == "FAIL"
    assert "unitarity" not in out  # propagation checks skipped


# the checks before the feedback run, in the order verify reports them
_PRE_RUN_CHECKS = (
    "grid_coverage", "stationary_residual", "curvature_identity",
    "ground_spread", "hjm_identity", "continuity_identity",
    "linear_coefficient_agreement", "ehrenfest_closure",
)
# the checks whose groups assemble or sample the displaced packet
_DISPLACED_PACKET_CHECKS = ("hjm_identity", "continuity_identity",
                            "linear_coefficient_agreement", "ehrenfest_closure")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid, q0, failed", [
    # the orbit clips the grid: the edge mass fails grid_coverage, the groups
    # of the displaced packet raise and read inf, and the ground state,
    # centred on the grid, still passes its three checks
    ({"x_min": -5.0, "x_max": 5.0, "n": 256}, 2.5,
     {"grid_coverage": "3.246542e-04",
      **dict.fromkeys(_DISPLACED_PACKET_CHECKS, "inf")}),
    # the orbit and the ground state lie off the grid: every check fails
    ({"x_min": 100.0, "x_max": 140.0, "n": 256}, 120.0,
     dict.fromkeys(_PRE_RUN_CHECKS, "inf")),
], ids=["clipped", "off_grid"])
def test_verify_reports_every_check_when_the_grid_misses_the_orbit(
        tmp_path, capsys, grid, q0, failed):
    # the checks that a group did not fill before it raised read inf; the
    # feedback run is left out, and verify exits 1 with no error line
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"kind": "harmonic"}, "grid": grid,
                                "initial": {"Q0": q0, "P0": 0.0}}))
    assert main(["verify", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    *lines, summary = out.splitlines()
    rows = [line.split(",") for line in lines]
    assert [r[0] for r in rows] == list(_PRE_RUN_CHECKS)
    for name, value, _, status in rows:
        if name in failed:
            assert (value, status) == (failed[name], "FAIL")
        else:
            assert status == "PASS"
    assert summary == f"verification FAILED: {len(failed)} of 8 checks"


def test_config_tolerances_reach_ground_state_checks(tmp_path, capsys):
    # the ground state's edge mass on this grid (4.5e-7) passes only the
    # config's looser boundary_mass, not the default 1e-8
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "model": {"kind": "harmonic"},
        "grid": {"x_min": -3.5, "x_max": 3.5, "n": 512},
        "initial": {"Q0": 0.0, "P0": 0.0},
        "propagation": {"T": 0.5, "dt": 0.005, "snapshot_stride": 20},
        "tolerances": {"boundary_mass": 1e-4, "unitarity_drift": 1e-6},
        "output": {"directory": str(tmp_path / "out")},
    }))
    assert main(["run", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", str(path)]) == 1
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines() if "," in r]
    assert len(rows) == 12
    assert {r[0]: r[3] for r in rows}["grid_coverage"] == "PASS"


# linear_coefficient_agreement on each shipped config, pinned at 15-26x its
# reading (7.8e-11, 5.1e-14, 1.3e-10) and far below verify's 1e-6 gate: the
# quintic spline this fit replaced read 6.3e-8 and 7.8e-8 on the Morse grids
_LINEAR_AGREEMENT = {"morse_feedback": 2e-9, "harmonic_feedback": 1e-12,
                     "morse_static_twin": 2e-9}
# ehrenfest_closure on each shipped config, pinned at 4x its reading (7.98e-8,
# 1.70e-14, 1.21e-7)
_EHRENFEST_CLOSURE = {"morse_feedback": 3.2e-7, "harmonic_feedback": 6.8e-14,
                      "morse_static_twin": 4.8e-7}


@pytest.mark.parametrize("name", ["morse_feedback", "harmonic_feedback",
                                  "morse_static_twin"])
def test_verify_passes_shipped_configs(name, capsys):
    assert main(["verify", "--config", str(CONFIGS / f"{name}.json")]) == 0
    rows = dict(r.split(",", 1) for r in capsys.readouterr().out.splitlines()
                if "," in r)
    agreement = float(rows["linear_coefficient_agreement"].split(",")[0])
    assert agreement <= _LINEAR_AGREEMENT[name]
    closure = float(rows["ehrenfest_closure"].split(",")[0])
    assert closure <= _EHRENFEST_CLOSURE[name]


@pytest.mark.parametrize("name", ["morse_feedback", "morse_static_twin"])
def test_shipped_morse_grids_are_converged_and_hold_the_tail(name, tmp_path):
    # each shipped Morse run in full at its n and at 2n on the same domain:
    # the final spread must not move, and on the feedback run the phase
    # residual stays small; a grid cut inside the e^{-x} tail turns the
    # periodic seam into high-k error that this residual amplifies
    # (7.8e-2 on [-9, 25] at n = 2048, 6.9e-6 on the shipped grid)
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    cols = []
    for n in (raw["grid"]["n"], 2 * raw["grid"]["n"]):
        raw["grid"]["n"] = n
        raw["output"] = {"directory": str(tmp_path / str(n)), "emit_plots": False}
        path = tmp_path / f"{n}.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == 0
        csv = tmp_path / str(n) / "diagnostics.csv"
        head = csv.read_text().splitlines()[0].split(",")
        data = np.loadtxt(csv, delimiter=",", skiprows=1)
        cols.append({k: data[:, i] for i, k in enumerate(head)})
    assert abs(cols[0]["dq2"][-1] - cols[1]["dq2"][-1]) < 1e-9
    if name == "morse_feedback":
        assert cols[0]["hjm_residual"].max() <= 1e-4


def _static_twin_over(tmp_path, periods):
    """A copy of the shipped morse_static_twin config over `periods` of its
    T; returns the config path, its output directory and steps per T."""
    raw = json.loads((CONFIGS / "morse_static_twin.json").read_text())
    prop = raw["propagation"]
    per_period = propagation._step_count(prop["T"], prop["dt"])
    prop["T"] *= periods
    out = tmp_path / f"{periods}T"
    raw["output"] = {"directory": str(out), "emit_plots": False}
    path = tmp_path / f"{periods}T.json"
    path.write_text(json.dumps(raw))
    return path, out, per_period


def test_shipped_static_twin_spreads_within_one_period(tmp_path):
    # the frozen Morse well loses the packet's shape: max(1 - overlap) reads
    # 0.2009 over one T, where the feedback twin reads 2.3e-13
    path, out, _ = _static_twin_over(tmp_path, 1)
    assert main(["run", "--config", str(path)]) == 0
    csv = out / "diagnostics.csv"
    overlap = csv.read_text().splitlines()[0].split(",").index("overlap")
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert 1.0 - data[:, overlap].min() >= 1e-2


def test_shipped_static_twin_stops_at_the_edge(tmp_path, capsys):
    # the spread packet's halo reaches the grid edge (about 1.8 T); the run
    # ends on the coverage alarm with exit 3 and leaves no output directory
    path, out, per_period = _static_twin_over(tmp_path, 3)
    assert main(["run", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    step = int(re.search(r"grid boundary at step (\d+)", err).group(1))
    assert per_period < step < 3 * per_period
    assert not out.exists()
