import csv
import io
import tempfile
import tracemalloc
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcsdyn.classical import integrate_trajectory
from gcsdyn.output import BLOCK_ROWS, _write_rows, write_trajectory_csv


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
