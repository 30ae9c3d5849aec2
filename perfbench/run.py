"""gcsdyn benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload morse_feedback --seed 0 --seconds 40 --trace 0

Runs the workload back to back, one fresh single-threaded process per run
(closed loop, one caller), until --seconds have passed, and reports the
median over runs of each metric. --trace 0 gives the end-to-end metrics;
--trace 1 alternates traced and untraced runs and gives the per-layer
metrics from the traced ones. Every run's outputs are checked; a run that
raises or fails a gate counts as failed and makes the exit code 1. The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. See perfbench/README.md for the workloads and for what
the benchmark does not measure.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, expected_counts, generate  # noqa: E402

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("steps_per_s", "1/s"),
              ("peak_rss_mib", "MiB"))
PER_LAYER = (
    ("classical.calls", "count"), ("classical.busy_s", "s"),
    ("classical.us_per_call", "us"),
    ("hydrodynamics.assemble_calls", "count"), ("hydrodynamics.busy_s", "s"),
    ("hydrodynamics.us_per_call", "us"),
    ("propagation.step_us", "us"), ("propagation.self_us_per_step", "us"),
    ("propagation.steps", "count"),
    ("diagnostics.record_calls", "count"), ("diagnostics.busy_s", "s"),
    ("diagnostics.ms_per_record", "ms"),
    ("displacement.busy_s", "s"),
    ("output.files", "count"), ("output.bytes", "bytes"),
    ("output.busy_s", "s"), ("output.ms_per_file", "ms"),
    ("config.busy_s", "s"), ("models.busy_s", "s"),
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TIME_UNITS = ("s", "ms", "us")
HARD_LIMIT_S = 170.0  # the whole command ends well within 180 s
SCRATCH = ".perfbench_tmp"  # per-run output directories, removed after use


def log(text=""):
    print(text, flush=True)


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("GCSDYN_OUTPUT_DIR", None)  # would redirect the run's outputs
    env.pop("PYTHONPATH", None)
    return env


def run_once(workload, seed, flags, deadline):
    """One fresh-process run with the given worker flags; returns the
    worker's sample."""
    (ROOT / SCRATCH).mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / SCRATCH))
    try:
        # the run's working directory is tmp, so no absolute path reaches
        # the program's outputs
        (tmp / "config.json").write_text(
            json.dumps(generate(ROOT, workload, seed, "out")))
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--config", "config.json", *flags,
               "--spawn-ns", str(time.monotonic_ns())]
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=child_env(), text=True,
                                  capture_output=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return {"ok": False, "failures": ["run exceeded the time limit"]}
        lines = proc.stdout.strip().splitlines()
        try:
            sample = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sample = {"ok": False, "failures": [
                f"worker exited {proc.returncode} without a result: "
                f"{proc.stderr.strip()[-500:]}"]}
        if proc.returncode != 0:
            sample["ok"] = False
            sys.stderr.write(proc.stderr)
        return sample
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def summary(values):
    """Median and quartiles of a list of numbers; a count that repeats
    stays a whole number."""
    values = sorted(values)
    if values[0] == values[-1]:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q1, q3


def report(name, unit, values):
    med, q1, q3 = summary(values)
    log(f"  {name:<30} {med:>14.6g} {unit:<6} (median of n={len(values)}; "
        f"q1 {q1:.6g}, q3 {q3:.6g})")
    return {"value": med, "unit": unit}


def calibrated(sample, unit, value):
    """A time or rate at the reference machine speed (see worker.py)."""
    if unit in TIME_UNITS:
        return value / sample["slowdown"]
    if unit == "1/s":
        return value * sample["slowdown"]
    return value


def environment(nproc):
    import numpy
    import scipy

    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "system": platform.system()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 runs the shipped config; others draw (Q0, P0)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every sample (and, with "
                        "--trace 1, the raw spans) to this JSON file")
    args = parser.parse_args(argv)

    start = time.monotonic()
    package = ROOT / "src" / "gcsdyn"
    base = ROOT / WORKLOADS[args.workload]
    if not (package / "__init__.py").is_file() or not base.is_file():
        print(f"gcsdyn sources or {WORKLOADS[args.workload]} not found under "
              f"{ROOT}", file=sys.stderr)
        return 2
    # bytecode is built once up front, as after any install
    compileall.compile_dir(str(package), quiet=1)

    env = environment(len(os.sched_getaffinity(0)))
    cfg = generate(ROOT, args.workload, args.seed, "<tmp>")
    nsteps, snapshots = expected_counts(cfg)
    log(f"workload {args.workload}  seed {args.seed}  "
        f"Q0 {cfg['initial']['Q0']!r}  P0 {cfg['initial']['P0']!r}  "
        f"steps {nsteps}  snapshots {snapshots}  trace {args.trace}")
    log("environment " + json.dumps(env))

    # start another run while it is expected to end by the deadline, so a
    # run measures for --seconds, not --seconds plus one run
    deadline = start + args.seconds
    hard_deadline = start + HARD_LIMIT_S
    samples, durations = [], []
    while time.monotonic() < hard_deadline and (
            len(samples) < (2 if args.trace else 1)
            or time.monotonic() + statistics.median(durations) <= deadline):
        traced = bool(args.trace) and len(samples) % 2 == 1
        flags = ["--trace"] if traced else []
        if traced and args.out:
            flags.append("--spans")
        began = time.monotonic()
        samples.append(run_once(args.workload, args.seed, flags, hard_deadline))
        samples[-1]["traced"] = traced
        durations.append(time.monotonic() - began)
    elapsed = time.monotonic() - start

    failed = [s for s in samples if not s.get("ok")]
    hashes = {json.dumps(s["sha256"], sort_keys=True)
              for s in samples if "sha256" in s}
    deterministic = len(hashes) <= 1
    attempted = len(samples)
    log(f"runs {attempted} in {elapsed:.1f} s; failed {len(failed)}")
    for s in failed:
        log("  FAILED: " + "; ".join(s.get("failures", [])))
    if not deterministic:
        log("  FAILED: outputs differ between runs of the same inputs")
    good = [s for s in samples if s.get("ok")]
    for s in good[:1]:
        for name, digest in s["sha256"].items():
            log(f"  sha256 {name} {digest}")
    for gate in ("norm_dev_max", "overlap_loss_max", "threads"):
        vals = [s["gates"][gate] for s in good]
        if vals:
            log(f"  gate {gate:<24} max {max(vals):.6g}")

    metrics = {}
    untraced = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    if args.trace == 0:
        log("end-to-end, at the reference machine speed:")
        for name, unit in END_TO_END:
            vals = [calibrated(s, unit, s[name]) for s in untraced]
            if vals:
                metrics[name] = report(name, unit, vals)
        log(f"  {'fail_ratio':<30} {len(failed) / attempted:>14.6g} ratio  "
            f"({len(failed)} of n={attempted} runs failed)")
    else:
        log("per layer (traced runs), at the reference machine speed:")
        for name, unit in PER_LAYER:
            vals = [calibrated(s, unit, s["layer"][name]) for s in traced]
            if vals:
                metrics[name] = report(name, unit, vals)
        if traced and untraced:
            ratio = (statistics.median(calibrated(s, "1/s", s["steps_per_s"])
                                       for s in traced)
                     / statistics.median(calibrated(s, "1/s", s["steps_per_s"])
                                         for s in untraced))
            metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
            log(f"  {'trace.overhead_ratio':<30} {ratio:>14.6g} ratio  "
                f"(traced over untraced steps_per_s, n={len(traced)}/"
                f"{len(untraced)})")
        for s in traced[:1]:
            c = s["evolve_check"]
            log("first traced run, raw:")
            log(f"  evolve span {c['evolve_s']:.6f} s = children "
                f"{c['children_s']:.6f} s + propagation self {c['self_s']:.6f} s"
                f" (children nested: {c['children_nested']})")
            for layer, t in s["layers"].items():
                log(f"  layer {layer:<14} calls {t['calls']:>7}  "
                    f"busy {t['busy_s']:.6f} s")

    if good:
        log("raw, as measured on this machine:")
        report("slowdown", "ratio", [s["slowdown"] for s in good])
        for name, unit in END_TO_END[:3]:
            report(name, unit, [s[name] for s in good])

    expected = dict(END_TO_END if args.trace == 0 else PER_LAYER)
    if args.trace:
        expected["trace.overhead_ratio"] = "ratio"
    correct = not failed and deterministic and set(metrics) == set(expected)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "config": cfg, "environment": env, "metrics": metrics,
             "correct": correct, "samples": samples},
            indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
