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

Feedback and static runs write the same files from the same run records
and snapshot steps. fields/ is written by a run sink as each snapshot
arrives; it and potential_snapshots.csv take V from the one definition the
records were measured against (RunResult.potential: the assembled potential,
or the at-rest V_model - E0 of a static run), and center_tracking.csv reads
Q from the trajectory at each snapshot's step.

The plot CSVs need only numpy. Each SVG figure draws its plot CSV's series
(1 - overlap, log scale) and needs the optional matplotlib ('plots' extra);
the potential figure shows every profile, windowed around the packet's path.
"""

import csv
import dataclasses
from itertools import chain, count
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


def fields_sink(directory, hbar: float):
    """A run's sink(step, psi, V) that writes each snapshot as it arrives,
    the i-th (from 0) as directory/NNNN.csv with columns x, re_psi, im_psi,
    rho, S, V."""
    directory = Path(directory)
    index = count()

    def sink(step, psi, V):
        polar = density_phase(psi, hbar=hbar)
        columns = (
            psi.grid.points,
            psi.values.real,
            psi.values.imag,
            polar.rho.values,
            polar.S.values,
            V.values,
        )
        path = directory / f"{next(index):04d}.csv"
        _write_rows(path, ("x", "re_psi", "im_psi", "rho", "S", "V"), columns)

    return sink


def write_vclass_csv(path, rows) -> Path:
    """rows: iterables of (Q, analytic, numeric, relative deviation)."""
    header = ("Q", "V_class_analytic", "V_class_numeric", "relative_deviation")
    return _write_rows(Path(path), header, zip(*rows))


def _figures(result: RunResult) -> dict:
    """The four standard figures, one definition for their CSVs and SVGs:
    file stem -> (header, columns), the abscissa first. The potential is
    profiled at five snapshots: the first, the last and the three quarter
    marks between them."""
    records, steps = result.records, result.steps
    t = [r.t for r in records]
    picks = sorted({0, len(steps) // 4, len(steps) // 2, (3 * len(steps)) // 4, len(steps) - 1})
    q = result.trajectory.q[list(steps)]
    return {
        "dq2_t": (("t", "dq2"), (t, [r.dq2 for r in records])),
        "overlap_t": (("t", "overlap"), (t, [r.overlap for r in records])),
        "center_tracking": (("t", "Q", "q_mean"), (t, q, [r.q_mean for r in records])),
        "potential_snapshots": (
            ["x"] + [f"V_{records[i].t:.6g}" for i in picks],
            [result.grid.points] + [result.potential(steps[i]).values for i in picks],
        ),
    }


def write_plot_data(outdir, result: RunResult) -> list[Path]:
    """The series of the four standard figures, one plots/<stem>.csv each."""
    outdir = Path(outdir) / "plots"
    return [_write_rows(outdir / f"{stem}.csv", header, columns)
            for stem, (header, columns) in _figures(result).items()]


def render_plots(outdir, result: RunResult) -> list[Path]:
    """Vector images of the four standard figures, each drawn from its CSV's series.

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
    figures = _figures(result)
    made = []
    for stem, (header, (x, *ys)) in figures.items():
        fig, ax = plt.subplots()
        ax.set_xlabel(header[0])
        if stem == "dq2_t":
            ax.plot(x, ys[0])
            ax.set_ylabel(header[1])
        elif stem == "overlap_t":
            ax.plot(x, 1.0 - np.asarray(ys[0]))
            ax.set(ylabel="1 - " + header[1], yscale="log")
        elif stem == "center_tracking":
            ax.plot(x, ys[0], label=header[1])
            ax.plot(x, ys[1], "--", label=header[2])
            ax.legend()
        else:
            # every profile, in a window of 6 dq around the packet's path
            q_mean, span = figures["center_tracking"][1][2], 6.0 * result.model.dq
            lo, hi = min(q_mean) - span, max(q_mean) + span
            window = (x >= lo) & (x <= hi)
            for name, v in zip(header[1:], ys):
                ax.plot(x, v, label=name)
            v_lo = min(float(v[window].min()) for v in ys)
            v_hi = max(float(v[window].max()) for v in ys)
            pad = 0.1 * (v_hi - v_lo) + 1e-12
            ax.set(xlim=(lo, hi), ylim=(v_lo - pad, v_hi + pad), ylabel="V")
            ax.legend()
        target = outdir / f"{stem}.svg"
        fig.savefig(target, format="svg")
        plt.close(fig)
        made.append(target)
    return made
