"""Benchmark workloads: a shipped config, a few edits, and a seeded start.

Seed 0 reproduces the shipped config exactly (apart from the output
directory). Any other seed moves the initial classical state (Q0, P0)
inside a fixed band around the shipped one. The band is narrow enough that
every draw passes the program's own coverage precheck and the benchmark's
gates, and it leaves the grid, step and horizon, and so the work per run,
unchanged.
"""

import copy
import json
import random

# half-widths of the (Q0, P0) band, in the config's natural units
Q0_HALF_WIDTH = 0.1
P0_HALF_WIDTH = 0.05

WORKLOADS = {
    "morse_feedback": "configs/morse_feedback.json",
    "harmonic_feedback": "configs/harmonic_feedback.json",
    "morse_static_twin": "configs/morse_static_twin.json",
}


def generate(root, workload, seed, outdir):
    """The config dict the program runs for this workload and seed."""
    with open(root / WORKLOADS[workload]) as fh:
        raw = json.load(fh)
    cfg = copy.deepcopy(raw)
    if seed != 0:
        rng = random.Random(seed)
        cfg["initial"]["Q0"] += rng.uniform(-Q0_HALF_WIDTH, Q0_HALF_WIDTH)
        cfg["initial"]["P0"] += rng.uniform(-P0_HALF_WIDTH, P0_HALF_WIDTH)
    cfg["output"]["directory"] = str(outdir)
    return cfg


def expected_counts(cfg):
    """Quantum steps and diagnostics snapshots the config asks for."""
    prop = cfg["propagation"]
    nsteps = max(1, int(round(prop["T"] / prop["dt"])))
    stride = prop["snapshot_stride"]
    snapshots = 1 + nsteps // stride + (1 if nsteps % stride else 0)
    return nsteps, snapshots
