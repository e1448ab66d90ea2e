"""Artifact serialization: ensemble CSV / binary round-trip, density exports.

CSV contract: every float cell is the shortest round-trip Python repr of a
plain float (``0.1``, ``-0.0``, ``nan``, ``inf``; never a NumPy scalar
repr), so ``float(cell)`` recovers the value exactly and repeated runs with
the same configuration produce byte-identical files.  Every cell comes from
one vectorized formatter, `_floatfmt`, tested equal to ``repr`` and imported
on first use, so start-up does not load it.  The three CSV writers share one
block writer, `_write_csv`: after the header, it builds, formats and writes
one block of whole rows (about ``_floatfmt.CHUNK`` cells) before the next,
so memory is bounded by the block.  Density tables are long-form, one
``x,t,q`` row per node pair; ensembles are one row per path.  Arrays reach
``write`` through the buffer protocol, never as ``tobytes()`` copies.
The binary ensemble layout is little-endian:

    magic "SKDF" | u16 version | u16 flags (bit0 = labels present)
    | u64 n_paths | u64 n_times | i64 seed | f64 t_start | f64 t_end
    | f64 epsilon | u32 record_stride | u32 n_steps
    | f64 times[n_times] | f64 values[n_paths * n_times]
    | i8 labels[n_paths] (iff flag)
"""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .densities import DensityGrid
from .sde import PathEnsemble, TimeGrid

MAGIC = b"SKDF"
VERSION = 1
_HEADER = struct.Struct("<4sHHQQqdddII")


def _csv_rows(*blocks) -> np.ndarray:
    """CSV text of NUL-padded `_floatfmt` cells, as one uint8 array.  Each
    block is shaped (..., columns, WIDTH); the blocks' columns are laid side
    by side and their leading axes broadcast, one row per index of those axes."""
    width = blocks[0].shape[-1]
    lead = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
    buf = np.empty((*lead, sum(b.shape[-2] for b in blocks), width + 1), np.uint8)
    col = 0
    for b in blocks:
        buf[..., col:col + b.shape[-2], :width] = b
        col += b.shape[-2]
    buf[..., width] = ord(",")
    buf[..., -1, width] = ord("\n")
    return buf[buf != 0]


def _write_csv(path, header: str, n_rows: int, row_cells: int, block) -> None:
    """Write `header`, then, for each run [lo, hi) of rows that holds about
    `_floatfmt.CHUNK` cells, the rows of the `_csv_rows` blocks that
    `block(lo, hi)` returns, each run written before the next is built."""
    from . import _floatfmt
    step = max(1, _floatfmt.CHUNK // max(row_cells, 1))
    with Path(path).open("wb") as fh:
        fh.write(header.encode())
        for lo in range(0, n_rows, step):
            fh.write(_csv_rows(*block(lo, min(lo + step, n_rows))))


def columns_to_csv(path, names, *columns) -> None:
    """Header `names`, then one row per index of the equal-length columns."""
    from . import _floatfmt
    n_rows = min((len(c) for c in columns), default=0)
    # one row of values per column, so a block is its slice of every row
    values = np.array([np.asarray(c, dtype=float)[:n_rows] for c in columns])
    _write_csv(path, ",".join(names) + "\n", n_rows, len(columns),
               lambda lo, hi: (_floatfmt.cells(values[:, lo:hi].T),))


def ensemble_to_csv(ens: PathEnsemble, path) -> None:
    """One row per path; metadata in a leading comment, times in the header."""
    from . import _floatfmt
    g = ens.grid
    t_start, t_end, eps, *times = (r.decode() for r in _floatfmt.reprs(
        [g.t_start, g.t_end, g.terminal_cutoff_epsilon, *ens.times]).tolist())
    labels = None if ens.labels is None else ens.labels.tolist()
    cols = ["path"] + (["label"] if labels is not None else []) + [f"t={t}" for t in times]
    header = (f"# skewdiff-ensemble seed={ens.seed} scheme={ens.scheme} "
              f"n_paths={ens.n_paths} n_steps={g.n_steps} t_start={t_start} "
              f"t_end={t_end} epsilon={eps} record_stride={ens.record_stride} "
              f"clamp_events={ens.clamp_events}\n" + ",".join(cols) + "\n")

    def block(lo, hi):
        # the path index (and label) lead each row as one more cell
        head = np.array([f"{i}" if labels is None else f"{i},{labels[i]}"
                         for i in range(lo, hi)], dtype=f"S{_floatfmt.WIDTH}")
        return head.view(np.uint8).reshape(hi - lo, 1, -1), _floatfmt.cells(ens.values[lo:hi])

    _write_csv(path, header, ens.n_paths, len(times), block)


def ensemble_to_binary(ens: PathEnsemble, path) -> None:
    times = np.ascontiguousarray(ens.times, dtype="<f8")
    header = _HEADER.pack(
        MAGIC, VERSION, 0 if ens.labels is None else 1, ens.n_paths, len(times),
        ens.seed, ens.grid.t_start, ens.grid.t_end,
        ens.grid.terminal_cutoff_epsilon, ens.record_stride, ens.grid.n_steps)
    with Path(path).open("wb") as fh:
        fh.write(header)
        fh.write(times)
        fh.write(np.ascontiguousarray(ens.values, dtype="<f8"))
        if ens.labels is not None:
            fh.write(np.ascontiguousarray(ens.labels, dtype="<i1"))


def ensemble_from_binary(path) -> PathEnsemble:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the "
                         f"{_HEADER.size}-byte ensemble header")
    magic, version, flags, n_paths, n_times, seed, t_start, t_end, eps, stride, n_steps = \
        _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"not a skewdiff ensemble file: magic={magic!r}")
    if version != VERSION:
        raise ValueError(f"unsupported ensemble version {version}")
    size = _HEADER.size + 8 * (n_times + n_paths * n_times) + (n_paths if flags & 1 else 0)
    if len(raw) < size:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the {size} "
                         f"bytes its header declares")
    off = _HEADER.size
    times = np.frombuffer(raw, dtype="<f8", count=n_times, offset=off)
    off += 8 * n_times
    values = np.frombuffer(raw, dtype="<f8", count=n_paths * n_times, offset=off)
    values = values.reshape(n_paths, n_times).copy()
    off += 8 * n_paths * n_times
    labels = None
    if flags & 1:
        labels = np.frombuffer(raw, dtype="<i1", count=n_paths, offset=off).copy()
    grid = TimeGrid(t_start=t_start, t_end=t_end, n_steps=n_steps,
                    terminal_cutoff_epsilon=eps)
    ens = PathEnsemble(grid=grid, values=values, seed=seed, labels=labels,
                       record_stride=stride)
    if not np.allclose(ens.times, times, rtol=0, atol=1e-12):
        raise ValueError("inconsistent time grid in binary file")
    return ens


def density_grid_to_csv(grid: DensityGrid, path) -> None:
    """Long-form x,t,q rows (one per node pair), in time-slice order: x and
    t are formatted once, q a block of whole slices at a time."""
    from . import _floatfmt
    xs = _floatfmt.cells(grid.x_nodes)[:, None]
    ts = _floatfmt.cells(grid.t_nodes)[:, None, None]
    _write_csv(path, "x,t,q\n", len(ts), len(xs),
               lambda lo, hi: (xs, ts[lo:hi], _floatfmt.cells(grid.values[lo:hi, :, None])))


def density_grid_summary(grid: DensityGrid) -> dict:
    moments = grid.moments()
    return {"t": [float(t) for t in grid.t_nodes],
            "mass": [m[0] for m in moments],
            "mean": [m[1] for m in moments],
            "variance": [m[2] for m in moments],
            "skewness": [m[3] for m in moments]}


def _nonfinite_keys(obj, key=""):
    """The places ("a.b[2]") of the floats in obj that are not finite."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [key]
    if isinstance(obj, dict):
        items = ((f"{key}.{k}" if key else str(k), v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(obj))
    else:
        return []
    return [place for k, v in items for place in _nonfinite_keys(v, k)]


def write_json(path, obj, strict: bool = True) -> None:
    """Write obj as strict JSON, indented with sorted keys: never a NaN or
    Infinity token.  A float that is not finite raises FloatingPointError
    naming its keys, and nothing is written.  With strict=False, for a
    record of a run's inputs or of its failure, such a float is written as
    the string "NaN", "Infinity" or "-Infinity" instead."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        if strict:
            raise FloatingPointError(f"{Path(path).name}: not finite at "
                                     f"{', '.join(_nonfinite_keys(obj))}") from None
        # the tokens json writes for them, read back as strings
        obj = json.loads(json.dumps(obj), parse_constant=str)
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")
