"""Bit-exact CSV serialization of run series and point snapshots.

All floats are written with 17 significant digits, so re-parsing a file
reproduces the exact binary values that were computed. Files use LF line
endings on every platform and rows follow point index order: identical
configurations produce byte-identical outputs.
"""

import os

import numpy as np

from .errors import SimulationError

ENV_OUTPUT_DIR = "PERIBOND_OUTPUT_DIR"
_AXES = ("x", "y", "z")
_BLOCK_ROWS = 512   # rows formatted per call: fewer calls, bounded memory


def fmt(x) -> str:
    return "%.17g" % float(x)


def resolve_output_dir(configured: str) -> str:
    """The configured directory, unless the environment overrides it."""
    return os.environ.get(ENV_OUTPUT_DIR, "").strip() or configured


def _write_table(path, header, table):
    """Header line, then one line per row of a float table, each value as fmt
    writes it: one format string per block of rows gives the same bytes in
    fewer calls, and converting block by block keeps no second copy of the
    table."""
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, len(table), _BLOCK_ROWS):
                rows = table[start:start + _BLOCK_ROWS]
                fh.write(row_format * len(rows) % tuple(rows.ravel().tolist()))
    except OSError as exc:
        raise SimulationError(f"cannot write {path}: {exc}") from exc
    return path


def write_series(directory: str, result) -> str:
    """series.csv: one row per recorded instant, columns fixed by the run."""
    table = np.column_stack([result.series[name] for name in result.columns])
    return _write_table(os.path.join(directory, "series.csv"),
                        result.columns, table)


def snapshot_header(dim: int):
    names = [f"pos_{a}" for a in _AXES[:dim]]
    names += [f"disp_{a}" for a in _AXES[:dim]]
    names += [f"vel_{a}" for a in _AXES[:dim]]
    names.append("damage")
    return names


def write_snapshot(directory: str, cloud, step: int, state, damage) -> str:
    """snap_<step>.csv: per-point position, displacement, velocity, damage."""
    dim = cloud.dim
    table = np.column_stack([
        cloud.positions + state.u, state.u, state.v,
        np.asarray(damage, dtype=float),
    ])
    if not np.all(np.isfinite(table)):
        raise SimulationError(f"non-finite values in snapshot at step {step}")
    return _write_table(os.path.join(directory, f"snap_{step}.csv"),
                        snapshot_header(dim), table)


def snapshot_writer(directory: str, cloud):
    """on_snapshot callback bound to a directory; returns paths written."""
    written = []

    def callback(step, state, damage):
        written.append(write_snapshot(directory, cloud, step, state, damage))

    callback.written = written
    return callback
