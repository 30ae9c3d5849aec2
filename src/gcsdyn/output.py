"""CSV and figure emission.

All floating-point output is written with 17 significant digits so runs are
reproducible bit for bit and downstream plotting is implementation
independent. Each file is formatted and written in blocks of BLOCK_ROWS
rows, so its text is never held in memory whole; the bytes written do not
depend on the block size. Column names and order are part of the contract:

* diagnostics.csv: t, norm, q_mean, p_mean, dq2, overlap,
  ehrenfest_residual, hjm_residual, boundary_mass, l2_distance
* trajectory.csv: t, Q, P, dPdt, E_cl
* fields/NNNN.csv: x, re_psi, im_psi, rho, S, V
* vclass.csv: Q, V_class_analytic, V_class_numeric, relative_deviation
* plots/dq2_t.csv: t, dq2
* plots/overlap_t.csv: t, overlap
* plots/center_tracking.csv: t, Q, q_mean
* plots/potential_snapshots.csv: x, then one V_<t> column per sampled
  snapshot

Feedback and static runs write the same files from the same Frame fields;
fields/ and potential_snapshots.csv take V from each frame (the assembled
potential, or the at-rest V_model - E0 of a static run), and
center_tracking.csv reads Q from the trajectory at each frame's step.

The plot CSVs need only numpy. The SVG figures rendered from the same
series need the optional matplotlib ('plots' extra).
"""

import csv
import dataclasses
from itertools import chain
from pathlib import Path

import numpy as np

from .classical import Trajectory
from .diagnostics import DiagnosticsRecord
from .displacement import density_phase
from .errors import OptionalDependencyError
from .models import PotentialModel
from .propagation import RunResult


BLOCK_ROWS = 256


def _write_rows(path: Path, header, columns):
    """One CSV row per index of the columns, which must be of equal length
    (else ValueError): integers as str(int), everything else with 17
    significant digits. Numbers never need quoting, so each block of
    BLOCK_ROWS rows is one %-format of the line template, with the csv
    module's \r\n line ending."""
    columns = [np.asarray(c) for c in columns]
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"{path.name}: columns of unequal length {lengths}")
    ints = [c.dtype.kind in "biu" for c in columns]
    columns = [c.astype(np.int64 if i else np.float64, copy=False)
               for c, i in zip(columns, ints)]
    line = ",".join("%d" if i else "%.17g" for i in ints) + "\r\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, lengths[0], BLOCK_ROWS):
            block = [c[start:start + BLOCK_ROWS].tolist() for c in columns]
            values = tuple(chain.from_iterable(zip(*block)))
            fh.write((line * len(block[0])) % values)
    return path


def write_diagnostics_csv(path, records) -> Path:
    """One row per record, one column per DiagnosticsRecord field."""
    header = [f.name for f in dataclasses.fields(DiagnosticsRecord)]
    columns = [[getattr(r, name) for r in records] for name in header]
    return _write_rows(Path(path), header, columns)


def write_trajectory_csv(path, trajectory: Trajectory, model: PotentialModel) -> Path:
    columns = (
        trajectory.t, trajectory.q, trajectory.p, trajectory.forces,
        trajectory.energy(model),
    )
    return _write_rows(Path(path), ("t", "Q", "P", "dPdt", "E_cl"), columns)


def write_fields_csv(directory, result: RunResult) -> list[Path]:
    """One x, re_psi, im_psi, rho, S, V file per snapshot frame."""
    directory = Path(directory)
    paths = []
    for i, frame in enumerate(result.frames):
        psi = frame.psi
        polar = density_phase(psi, hbar=result.model.hbar)
        columns = (
            psi.grid.points,
            psi.values.real,
            psi.values.imag,
            polar.rho.values,
            polar.S.values,
            frame.V.values,
        )
        path = directory / f"{i:04d}.csv"
        _write_rows(path, ("x", "re_psi", "im_psi", "rho", "S", "V"), columns)
        paths.append(path)
    return paths


def write_vclass_csv(path, rows) -> Path:
    """rows: iterables of (Q, analytic, numeric, relative deviation)."""
    header = ("Q", "V_class_analytic", "V_class_numeric", "relative_deviation")
    return _write_rows(Path(path), header, zip(*rows))


def write_plot_data(outdir, result: RunResult) -> list[Path]:
    """Pre-binned series for the standard figures."""
    outdir = Path(outdir) / "plots"
    records = result.records
    t = [r.t for r in records]
    paths = [
        _write_rows(outdir / "dq2_t.csv", ("t", "dq2"), (t, [r.dq2 for r in records])),
        _write_rows(
            outdir / "overlap_t.csv", ("t", "overlap"), (t, [r.overlap for r in records])
        ),
    ]
    q = result.trajectory.q[[f.step for f in result.frames]]
    columns = (t, q, [r.q_mean for r in records])
    paths.append(_write_rows(outdir / "center_tracking.csv", ("t", "Q", "q_mean"), columns))

    # a handful of potential profiles across the run
    frames = result.frames
    picks = sorted({0, len(frames) // 4, len(frames) // 2, (3 * len(frames)) // 4, len(frames) - 1})
    header = ["x"] + [f"V_{frames[i].diagnostics.t:.6g}" for i in picks]
    columns = [result.grid.points] + [frames[i].V.values for i in picks]
    paths.append(_write_rows(outdir / "potential_snapshots.csv", header, columns))
    return paths


def render_plots(outdir, result: RunResult) -> list[Path]:
    """Vector images of the four standard figures.

    Raises OptionalDependencyError, before writing anything, when matplotlib
    (the optional 'plots' extra) cannot be imported.
    """
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise OptionalDependencyError(
            "plot rendering needs matplotlib (install the 'plots' extra)"
        ) from exc

    outdir = Path(outdir) / "plots"
    outdir.mkdir(parents=True, exist_ok=True)
    records = result.records
    t = np.array([r.t for r in records])
    made = []

    def save(fig, name):
        target = outdir / name
        fig.savefig(target, format="svg")
        plt.close(fig)
        made.append(target)

    fig, ax = plt.subplots()
    ax.plot(t, [r.dq2 for r in records])
    ax.set_xlabel("t")
    ax.set_ylabel("dq2")
    save(fig, "dq2_t.svg")

    fig, ax = plt.subplots()
    ax.plot(t, [1.0 - r.overlap for r in records])
    ax.set_xlabel("t")
    ax.set_ylabel("1 - overlap")
    ax.set_yscale("log")
    save(fig, "overlap_t.svg")

    fig, ax = plt.subplots()
    ax.plot(t, result.trajectory.q[[f.step for f in result.frames]], label="Q")
    ax.plot(t, [r.q_mean for r in records], "--", label="q_mean")
    ax.set_xlabel("t")
    ax.legend()
    save(fig, "center_tracking.svg")

    fig, ax = plt.subplots()
    picks = sorted({0, len(result.frames) // 2, len(result.frames) - 1})
    lo = min(r.q_mean for r in records)
    hi = max(r.q_mean for r in records)
    span = 6.0 * result.model.dq
    x = result.grid.points
    window = (x >= lo - span) & (x <= hi + span)
    v_lo, v_hi = np.inf, -np.inf
    # profiles of feedback runs only: a static run's V is one frozen well
    plotted = result.config.mode == "feedback"
    if plotted:
        for i in picks:
            frame = result.frames[i]
            v = frame.V.values
            ax.plot(x, v, label=f"t = {frame.diagnostics.t:.3g}")
            v_lo = min(v_lo, float(v[window].min()))
            v_hi = max(v_hi, float(v[window].max()))
    ax.set_xlabel("x")
    ax.set_ylabel("V")
    ax.set_xlim(lo - span, hi + span)
    if plotted:
        pad = 0.1 * (v_hi - v_lo) + 1e-12
        ax.set_ylim(v_lo - pad, v_hi + pad)
        ax.legend()
    save(fig, "potential_snapshots.svg")
    return made
