"""One benchmark run of one workload, in a fresh process.

Drives gcsdyn the way `gcsdyn run` does: load_config, echo_config,
gcs_from_model, evolve_feedback or evolve_static, then the CSV writers.
Set-up is timed from the parent's spawn of this process to the initial
displaced state, so it includes interpreter start and `import gcsdyn`.
Times are reported raw, with the run's slowdown measured by a reference
kernel. Prints one JSON object on its last stdout line; exits non-zero on
error.

    python3 perfbench/worker.py --root . --config CFG.json --spawn-ns N \
        [--trace] [--spans]
"""

import argparse
import csv
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import expected_counts  # noqa: E402

# column contract, as documented in gcsdyn.output
DIAGNOSTICS_COLUMNS = ["t", "norm", "q_mean", "p_mean", "dq2", "overlap",
                       "ehrenfest_residual", "hjm_residual", "boundary_mass",
                       "l2_distance"]
TRAJECTORY_COLUMNS = ["t", "Q", "P", "dPdt", "E_cl"]
PLOT_FILES = ["center_tracking.csv", "dq2_t.csv", "overlap_t.csv",
              "potential_snapshots.csv"]

# acceptance gates, fixed by the physics (see ROADMAP)
NORM_DRIFT_MAX = 1e-8
FEEDBACK_OVERLAP_LOSS_MAX = 1e-4
STATIC_OVERLAP_LOSS_MIN = 1e-2

STEP_BLOCKS = 7  # propagation.step_us: median block of STEP_CALLS calls
STEP_CALLS = 40

# The machine's speed drifts by up to 2x over tens of seconds (shared host).
# Each run times a fixed numpy kernel before and after propagation; the
# parent divides every time by ref_s / REFERENCE_NOMINAL_S, the run's
# slowdown against a machine on which the kernel takes REFERENCE_NOMINAL_S.
REFERENCE_ITERS = 1000
REFERENCE_N = 2048
REFERENCE_NOMINAL_S = 0.1


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def os_threads():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def reference_s():
    """Wall time of a fixed numpy kernel: FFT pairs and complex exp, the
    kind of work the split-step loop does."""
    import numpy as np

    x = np.linspace(0.0, 1.0, REFERENCE_N) * (1.0 + 0.5j)
    t0 = time.perf_counter()
    for _ in range(REFERENCE_ITERS):
        np.fft.ifft(np.fft.fft(x * np.exp(-0.1j * x.real)))
    return time.perf_counter() - t0


def check_outputs(raw, outdir, mode):
    """Gate values and the list of gates that failed."""
    nsteps, snapshots = expected_counts(raw)
    failures = []
    head, rows = read_csv(outdir / "diagnostics.csv")
    if head != DIAGNOSTICS_COLUMNS:
        failures.append(f"diagnostics.csv header {head}")
    if len(rows) != snapshots:
        failures.append(f"diagnostics.csv has {len(rows)} rows, want {snapshots}")
    col = {name: i for i, name in enumerate(head)}
    norm_dev = max(abs(float(r[col["norm"]]) - 1.0) for r in rows)
    overlap_loss = max(1.0 - float(r[col["overlap"]]) for r in rows)
    if not norm_dev <= NORM_DRIFT_MAX:
        failures.append(f"peak |norm-1| {norm_dev:.3e} > {NORM_DRIFT_MAX:g}")
    if mode == "feedback" and not overlap_loss <= FEEDBACK_OVERLAP_LOSS_MAX:
        failures.append(f"max(1-overlap) {overlap_loss:.3e} > "
                        f"{FEEDBACK_OVERLAP_LOSS_MAX:g}")
    if mode == "static" and not overlap_loss >= STATIC_OVERLAP_LOSS_MIN:
        failures.append(f"max(1-overlap) {overlap_loss:.3e} < "
                        f"{STATIC_OVERLAP_LOSS_MIN:g}: no spreading baseline")

    head, rows = read_csv(outdir / "trajectory.csv")
    if head != TRAJECTORY_COLUMNS or len(rows) != nsteps + 1:
        failures.append(f"trajectory.csv: header {head}, {len(rows)} rows, "
                        f"want {nsteps + 1}")
    if raw["output"]["emit_plots"]:
        made = sorted(p.name for p in (outdir / "plots").glob("*.csv"))
        if made != PLOT_FILES:
            failures.append(f"plot data files {made}")
    threads = os_threads()
    nproc = len(os.sched_getaffinity(0))
    if threads > nproc:
        failures.append(f"{threads} threads on {nproc} cpus")
    gates = {"norm_dev_max": norm_dev, "overlap_loss_max": overlap_loss,
             "threads": threads}
    return gates, failures


def time_step(gcsdyn, fn, cfg, psi):
    """Median wall time of the public step() on the run's grid, scheme and
    potential: the assembled one at the start (feedback), the model's
    (static). `fn` maps traced names to the unwrapped functions, so this
    adds no spans."""
    import numpy as np

    model, grid = cfg.model, cfg.grid
    step = fn["propagation.step"]
    if cfg.propagation.mode == "feedback":
        point = cfg.initial_point
        force = float(fn["classical.classical_force"](model, point.Q))
        V = fn["hydrodynamics.assemble_potential"](model, point, force, grid).V
    else:
        V = gcsdyn.grids.RealField(
            grid, gcsdyn.models.potential_value(model, grid.points))
    # evolve_* clamp V at the grid's kinetic ceiling before stepping; do the
    # same, since exp() of the unclamped Morse wall is slower
    cap = gcsdyn.propagation._potential_cap(grid, model.mass, model.hbar)
    V = gcsdyn.grids.RealField(grid, np.minimum(V.values, cap))
    dt, scheme = cfg.propagation.dt, cfg.propagation.scheme
    blocks = []
    for _ in range(STEP_BLOCKS):
        t0 = time.perf_counter()
        for _ in range(STEP_CALLS):
            step(psi, V, dt, scheme, model.mass, model.hbar)
        blocks.append((time.perf_counter() - t0) / STEP_CALLS)
    blocks.sort()
    return blocks[len(blocks) // 2]


def layer_metrics(tracer, evolve_name, nsteps, files, step_s):
    calls, busy = tracer.layer_totals()
    child = tracer.child_ns()
    evolve = [i for i, s in enumerate(tracer.spans) if s.name == evolve_name]
    if len(evolve) != 1:
        raise RuntimeError(f"expected one {evolve_name} span, got {len(evolve)}")
    i = evolve[0]
    span = tracer.spans[i]
    self_ns = span.duration_ns - child[i]
    nested = tracer.children_nested(i)

    def per(total_ns, count, scale):
        return total_ns * 1e-9 * scale / count if count else 0.0

    n_assemble = tracer.count("hydrodynamics.assemble_potential")
    n_record = tracer.count("diagnostics.record")
    metrics = {
        "classical.calls": calls.get("classical", 0),
        "classical.busy_s": busy.get("classical", 0) * 1e-9,
        "classical.us_per_call": per(busy.get("classical", 0),
                                     calls.get("classical", 0), 1e6),
        "hydrodynamics.assemble_calls": n_assemble,
        "hydrodynamics.busy_s": busy.get("hydrodynamics", 0) * 1e-9,
        "hydrodynamics.us_per_call": per(busy.get("hydrodynamics", 0),
                                         calls.get("hydrodynamics", 0), 1e6),
        "propagation.step_us": step_s * 1e6,
        "propagation.self_us_per_step": self_ns * 1e-3 / nsteps,
        "propagation.steps": nsteps,
        "diagnostics.record_calls": n_record,
        "diagnostics.busy_s": busy.get("diagnostics", 0) * 1e-9,
        "diagnostics.ms_per_record": per(busy.get("diagnostics", 0), n_record, 1e3),
        "displacement.busy_s": busy.get("displacement", 0) * 1e-9,
        "output.files": files["count"],
        "output.bytes": files["bytes"],
        "output.busy_s": busy.get("output", 0) * 1e-9,
        "output.ms_per_file": per(busy.get("output", 0), files["count"], 1e3),
        "config.busy_s": busy.get("config", 0) * 1e-9,
        "models.busy_s": busy.get("models", 0) * 1e-9,
    }
    evolve_check = {
        "evolve_s": span.duration_ns * 1e-9,
        "children_s": child[i] * 1e-9,
        "self_s": self_ns * 1e-9,
        "children_nested": nested,
    }
    layers = {name: {"calls": calls.get(name, 0),
                     "busy_s": busy.get(name, 0) * 1e-9}
              for name in sorted(calls)}
    return metrics, evolve_check, layers


def run(args):
    root = Path(args.root).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    import gcsdyn
    import gcsdyn.config
    import gcsdyn.displacement
    import gcsdyn.output
    import gcsdyn.propagation

    if not Path(gcsdyn.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"gcsdyn imported from {gcsdyn.__file__}, not {src}")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    raw = json.loads(Path(args.config).read_text())

    # set-up, as `gcsdyn run`: load and echo the config, build the state
    cfg = gcsdyn.config.load_config(args.config)
    outdir = cfg.output_dir
    gcsdyn.config.echo_config(cfg, outdir)
    state0 = gcsdyn.displacement.gcs_from_model(
        cfg.model, cfg.grid, cfg.initial_point, cfg.tolerances)
    t_setup = time.monotonic_ns()
    ref_before = reference_s()
    setup_s = (t_setup - args.spawn_ns) * 1e-9

    prop = gcsdyn.propagation
    t0 = time.perf_counter()
    if cfg.propagation.mode == "feedback":
        result = prop.evolve_feedback(cfg.model, cfg.initial_point,
                                      cfg.propagation, cfg.T, cfg.grid,
                                      cfg.tolerances)
    else:
        result = prop.evolve_static(state0, cfg.model, cfg.propagation, cfg.T,
                                    cfg.tolerances)
    evolve_s = time.perf_counter() - t0
    ref_after = reference_s()
    t_out = time.perf_counter()
    out = gcsdyn.output
    out.write_diagnostics_csv(outdir / "diagnostics.csv", result.records)
    out.write_trajectory_csv(outdir / "trajectory.csv", result.trajectory, cfg.model)
    if cfg.emit_plots:
        out.write_plot_data(outdir, result)
    output_s = time.perf_counter() - t_out
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    nsteps, _ = expected_counts(raw)
    written = [p for p in outdir.rglob("*") if p.is_file()]
    files = {"count": len(written), "bytes": sum(p.stat().st_size for p in written)}
    gates, failures = check_outputs(raw, outdir, cfg.propagation.mode)
    sample = {
        "ok": not failures,
        "failures": failures,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "run_s": evolve_s + output_s,
        "evolve_s": evolve_s,
        "steps": nsteps,
        "steps_per_s": nsteps / evolve_s,
        "peak_rss_mib": peak_rss_mib,
        "slowdown": 0.5 * (ref_before + ref_after) / REFERENCE_NOMINAL_S,
        "gates": gates,
        "sha256": {name: sha256(outdir / name)
                   for name in ("diagnostics.csv", "trajectory.csv")},
    }
    if tracer is not None:
        step_s = time_step(gcsdyn, tracer.originals, cfg, state0.psi)
        evolve_name = f"propagation.evolve_{cfg.propagation.mode}"
        metrics, check, layers = layer_metrics(tracer, evolve_name, nsteps,
                                               files, step_s)
        sample.update(layer=metrics, evolve_check=check, layers=layers)
        if not check["children_nested"]:
            sample["ok"] = False
            failures.append("child spans of the evolve span overlap")
        if args.spans:
            sample["spans"] = [s.as_list() for s in tracer.spans]
    return sample


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", action="store_true")
    args = parser.parse_args(argv)
    try:
        sample = run(args)
    except Exception as exc:  # report any failure of the program as a result
        traceback.print_exc(file=sys.stderr)
        sample = {"ok": False, "failures": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(sample))
    return 0 if sample["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
