import csv
import io
import sys
import tempfile
import tracemalloc
import types
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsdyn import (
    ClassicalPoint,
    PropagatorConfig,
    evolve_feedback,
    evolve_static,
    gcs_from_model,
    suggest_grid,
)
from gcsdyn.classical import integrate_trajectory
from gcsdyn.output import (
    BLOCK_ROWS,
    _write_rows,
    render_plots,
    write_plot_data,
    write_trajectory_csv,
)


def _reference_text(header, columns) -> str:
    # the writer before block formatting: one string per value, integers
    # as str(int), everything else as format(v, ".17g"), rows joined by \r\n
    def text(column):
        arr = np.asarray(column)
        if arr.dtype.kind in "biu":
            return [str(v) for v in arr.astype(np.int64).tolist()]
        return [format(v, ".17g") for v in arr.astype(np.float64).tolist()]

    buf = io.StringIO(newline="")
    csv.writer(buf).writerow(header)
    buf.writelines(",".join(row) + "\r\n"
                   for row in zip(*(text(c) for c in columns)))
    return buf.getvalue()


def _assert_same_bytes(path, header, columns):
    _write_rows(path, header, columns)
    assert path.read_bytes() == _reference_text(header, columns).encode()


_SPECIAL = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324,
            1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1.0 / 3.0,
            -123456789.0, 1e16, 1e-5]
_F32 = np.array([np.inf, -np.inf, np.nan, -0.0, 1e-45, 3.4028235e38, 0.1],
                dtype=np.float32)
_INT_EDGES = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 7]


@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS,
                                  BLOCK_ROWS + 1, 1000])
def test_block_writer_matches_the_per_value_formatter(rows, tmp_path):
    rng = np.random.default_rng(rows)
    wide = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
    special = np.resize(np.array(_SPECIAL), rows)
    columns = (
        np.where(rng.random(rows) < 0.5, special, wide),
        np.resize(_F32, rows),
        np.resize(np.array(_INT_EDGES, dtype=np.int64), rows),
        rng.random(rows) < 0.5,
        rng.normal(size=rows).tolist(),
        np.resize(np.array(_INT_EDGES[2:]), rows).tolist(),
    )
    header = ("f64", "f32", "i64", "bool", "floats", "ints")
    _assert_same_bytes(tmp_path / "out.csv", header, columns)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(hnp.arrays(np.uint64, st.tuples(st.integers(0, 2 * BLOCK_ROWS + 3),
                                       st.integers(1, 3))))
def test_block_writer_matches_on_any_float64_bit_pattern(bits):
    columns = bits.view(np.float64).T
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        _assert_same_bytes(path, [f"c{i}" for i in range(len(columns))], columns)


def test_columns_of_unequal_length_raise_before_writing(tmp_path):
    # zip would cut every column to the shortest, and the file would look
    # complete
    path = tmp_path / "sub" / "out.csv"
    with pytest.raises(ValueError, match="unequal length"):
        _write_rows(path, ("a", "b"), (np.zeros(5), np.zeros(4)))
    assert not path.parent.exists()


def test_trajectory_writer_memory_does_not_grow_with_the_file(harmonic, tmp_path):
    # the writer holds one block of row text at a time: at 20001 rows its
    # tracemalloc peak measured 0.46 MiB (about 0.3 MiB of it the E_cl
    # column's arrays), where formatting the whole file at once took 8.0 MiB
    traj = integrate_trajectory(harmonic, 0.0, 0.3, 1e-3, 20000)
    write_trajectory_csv(tmp_path / "warm.csv", traj, harmonic)
    tracemalloc.start()
    try:
        write_trajectory_csv(tmp_path / "trajectory.csv", traj, harmonic)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len((tmp_path / "trajectory.csv").read_bytes().splitlines()) == 20002


def _stub_matplotlib(monkeypatch):
    """Put a matplotlib into sys.modules whose figures record the arrays of
    each plot call and write a placeholder at each savefig target; return
    the record, {file name: [(x, y), ...]}."""
    drawn = {}

    class Axes:
        def __init__(self):
            self.lines = []

        def plot(self, x, y, *fmt, **kwargs):
            self.lines.append((np.asarray(x), np.asarray(y)))

        def __getattr__(self, name):  # labels, scales, limits, legend
            return lambda *args, **kwargs: None

    class Figure:
        def __init__(self, ax):
            self.ax = ax

        def savefig(self, target, format):
            Path(target).write_text("<svg/>")
            drawn[Path(target).name] = self.ax.lines

    def subplots():
        ax = Axes()
        return Figure(ax), ax

    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = subplots
    pyplot.close = lambda fig: None
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.use = lambda backend: None
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    return drawn


@pytest.mark.parametrize("mode", ["feedback", "static"])
def test_figures_draw_the_plot_csvs(mode, morse, tmp_path, monkeypatch):
    # each SVG draws exactly its CSV's columns against the abscissa: 1 -
    # overlap for the overlap figure, and every potential profile, of a
    # static run too
    drawn = _stub_matplotlib(monkeypatch)
    grid = suggest_grid(morse, q_reach_min=-1.0, q_reach_max=1.0, n=512)
    pt = ClassicalPoint(0.0, 0.3)
    conf = PropagatorConfig(dt=2e-3, mode=mode, snapshot_stride=5)
    if mode == "feedback":
        run = evolve_feedback(morse, pt, conf, 0.1, grid)
    else:
        run = evolve_static(gcs_from_model(morse, grid, pt), morse, conf, 0.1)
    write_plot_data(tmp_path, run)
    made = render_plots(tmp_path, run)
    stems = ["dq2_t", "overlap_t", "center_tracking", "potential_snapshots"]
    assert made == [tmp_path / "plots" / f"{stem}.svg" for stem in stems]
    assert all(path.exists() for path in made)

    def columns(stem):
        path = tmp_path / "plots" / f"{stem}.csv"
        return list(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T)

    t, dq2 = columns("dq2_t")
    _, overlap = columns("overlap_t")
    _, q, q_mean = columns("center_tracking")
    x, *profiles = columns("potential_snapshots")
    assert len(profiles) == 5
    expected = {
        "dq2_t.svg": [(t, dq2)],
        "overlap_t.svg": [(t, 1.0 - overlap)],
        "center_tracking.svg": [(t, q), (t, q_mean)],
        "potential_snapshots.svg": [(x, v) for v in profiles],
    }
    assert drawn.keys() == expected.keys()
    for name, lines in expected.items():
        assert len(drawn[name]) == len(lines), name
        for got, want in zip(drawn[name], lines):
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), name
