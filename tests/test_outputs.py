"""CSV writers: formatting, snapshot guards, directory resolution."""

from types import SimpleNamespace

import numpy as np
import pytest

from peribond import build_grid, zero_state
from peribond.errors import SimulationError
from peribond.outputs import (
    fmt,
    resolve_output_dir,
    snapshot_header,
    snapshot_writer,
    write_series,
    write_snapshot,
)


def test_fmt_is_17_significant_digits():
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt(1.0) == "1"
    assert float(fmt(np.pi)) == np.pi


def per_value_table(header, rows):
    """The bytes of the writer that formatted value by value with fmt."""
    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_series_bytes_match_the_per_value_writer(tmp_path):
    rng = np.random.default_rng(7)
    table = rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-300, 300, (40, 6))
    table[0] = [-0.0, 5e-324, 1e308, -1e308, np.inf, -np.inf]
    table[1, :3] = [0.0, np.nan, 1.0]
    columns = ["t", "kinetic", "potential", "total", "px", "damage_mean"]
    result = SimpleNamespace(columns=columns,
                             series={c: table[:, j] for j, c in enumerate(columns)})
    with open(write_series(str(tmp_path), result), "rb") as fh:
        assert fh.read() == per_value_table(columns, table)


def test_resolve_output_dir(monkeypatch):
    monkeypatch.delenv("PERIBOND_OUTPUT_DIR", raising=False)
    assert resolve_output_dir("out") == "out"
    monkeypatch.setenv("PERIBOND_OUTPUT_DIR", "elsewhere")
    assert resolve_output_dir("out") == "elsewhere"
    monkeypatch.setenv("PERIBOND_OUTPUT_DIR", "  ")
    assert resolve_output_dir("out") == "out"


def test_snapshot_headers_by_dim():
    assert snapshot_header(1) == ["pos_x", "disp_x", "vel_x", "damage"]
    assert snapshot_header(3) == [
        "pos_x", "pos_y", "pos_z", "disp_x", "disp_y", "disp_z",
        "vel_x", "vel_y", "vel_z", "damage",
    ]


def test_snapshot_rejects_non_finite_state(tmp_path):
    cloud = build_grid((1.0,), 0.5, 1.0, periodic=(False,))
    state = zero_state(cloud)
    state.u[0, 0] = np.nan
    with pytest.raises(SimulationError, match="non-finite"):
        write_snapshot(str(tmp_path), cloud, 3, state, np.zeros(2))


def test_snapshot_writer_collects_paths(tmp_path):
    cloud = build_grid((1.0,), 0.5, 1.0, periodic=(False,))
    writer = snapshot_writer(str(tmp_path), cloud)
    writer(0, zero_state(cloud), np.zeros(2))
    writer(7, zero_state(cloud), np.zeros(2))
    assert [p.split("/")[-1] for p in writer.written] == ["snap_0.csv",
                                                          "snap_7.csv"]
    assert (tmp_path / "snap_7.csv").exists()
