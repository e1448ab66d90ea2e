"""Artifact serialization: ensemble CSV / binary round-trip, density exports.

CSV contract: every float cell is the shortest round-trip Python repr of a
plain float (``0.1``, ``-0.0``, ``nan``, ``inf``; never a NumPy scalar
repr), so ``float(cell)`` recovers the value exactly and repeated runs with
the same configuration produce byte-identical files.  Every cell comes from
one vectorized formatter, `_floatfmt`, which is tested equal to ``repr``;
the writers hand it blocks of whole slices or rows, about
``_floatfmt.CHUNK`` values each, and write each block before formatting
the next.  They import it on first use, so start-up does not load it.
Density tables are long-form, one ``x,t,q`` row per node pair;
ensembles are one row per path.
The binary ensemble layout is little-endian:

    magic "SKDF" | u16 version | u16 flags (bit0 = labels present)
    | u64 n_paths | u64 n_times | i64 seed | f64 t_start | f64 t_end
    | f64 epsilon | u32 record_stride | u32 n_steps
    | f64 times[n_times] | f64 values[n_paths * n_times]
    | i8 labels[n_paths] (iff flag)
"""
from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .densities import DensityGrid
from .sde import PathEnsemble, TimeGrid

MAGIC = b"SKDF"
VERSION = 1
_HEADER = struct.Struct("<4sHHQQqdddII")


def _fmt(v: float) -> str:
    return repr(float(v))


def _csv_rows(*blocks) -> bytes:
    """CSV text of NUL-padded `_floatfmt` cells.  Each block is shaped
    (..., columns, WIDTH); the blocks' columns are laid side by side and their
    leading axes broadcast, one row per index of those axes."""
    width = blocks[0].shape[-1]
    lead = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
    buf = np.empty((*lead, sum(b.shape[-2] for b in blocks), width + 1), np.uint8)
    col = 0
    for b in blocks:
        buf[..., col:col + b.shape[-2], :width] = b
        col += b.shape[-2]
    buf[..., width] = ord(",")
    buf[..., -1, width] = ord("\n")
    return buf[buf != 0].tobytes()


def columns_to_csv(path, names, *columns) -> None:
    """Header `names`, then one row per index of the equal-length columns."""
    from . import _floatfmt
    n_rows = min((len(c) for c in columns), default=0)
    # one row of values per column; each block is formatted in one call, row-major
    values = np.array([np.asarray(c, dtype=float)[:n_rows] for c in columns])
    step = max(1, _floatfmt.CHUNK // max(len(columns), 1))
    with Path(path).open("wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for lo in range(0, n_rows, step):
            block = values[:, lo:lo + step].T
            fh.write(_csv_rows(_floatfmt.cells(block).reshape(*block.shape, -1)))


def ensemble_to_csv(ens: PathEnsemble, path) -> None:
    """One row per path; metadata in a leading comment, times in the header."""
    from . import _floatfmt
    n_times = len(ens.times)
    labels = None if ens.labels is None else ens.labels.tolist()
    cols = ["path"] + (["label"] if labels is not None else []) \
        + [f"t={t.decode()}" for t in _floatfmt.reprs(ens.times).tolist()]
    step = max(1, _floatfmt.CHUNK // max(n_times, 1))
    with Path(path).open("wb") as fh:
        fh.write((f"# skewdiff-ensemble seed={ens.seed} scheme={ens.scheme} "
                  f"n_paths={ens.n_paths} n_steps={ens.grid.n_steps} "
                  f"t_start={_fmt(ens.grid.t_start)} t_end={_fmt(ens.grid.t_end)} "
                  f"epsilon={_fmt(ens.grid.terminal_cutoff_epsilon)} "
                  f"record_stride={ens.record_stride} clamp_events={ens.clamp_events}\n"
                  + ",".join(cols) + "\n").encode())
        for lo in range(0, ens.n_paths, step):
            rows = range(lo, min(lo + step, ens.n_paths))
            # the path index (and label) lead each row as one more cell
            head = np.array([f"{i}" if labels is None else f"{i},{labels[i]}" for i in rows],
                            dtype=f"S{_floatfmt.WIDTH}").view(np.uint8)
            values = _floatfmt.cells(ens.values[rows.start:rows.stop])
            fh.write(_csv_rows(head.reshape(len(rows), 1, -1),
                               values.reshape(len(rows), n_times, -1)))


def ensemble_to_binary(ens: PathEnsemble, path) -> None:
    path = Path(path)
    times = np.ascontiguousarray(ens.times, dtype="<f8")
    values = np.ascontiguousarray(ens.values, dtype="<f8")
    flags = 1 if ens.labels is not None else 0
    header = _HEADER.pack(
        MAGIC, VERSION, flags, ens.n_paths, len(times),
        ens.seed, ens.grid.t_start, ens.grid.t_end,
        ens.grid.terminal_cutoff_epsilon, ens.record_stride, ens.grid.n_steps)
    with path.open("wb") as fh:
        fh.write(header)
        fh.write(times.tobytes())
        fh.write(values.tobytes())
        if ens.labels is not None:
            fh.write(np.ascontiguousarray(ens.labels, dtype="<i1").tobytes())


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
    """Long-form x,t,q rows (one per node pair), in time-slice order.

    Cells come from `_floatfmt`, tested equal to ``repr``: x and t are
    formatted once, q a block of whole slices (about `_floatfmt.CHUNK`
    values) at a time, each block written before the next is formatted,
    so memory stays bounded by the block, not the grid.
    """
    from . import _floatfmt
    xs = _floatfmt.cells(grid.x_nodes)
    ts = _floatfmt.cells(grid.t_nodes)
    n_x, n_t = len(xs), len(ts)
    step = max(1, _floatfmt.CHUNK // max(n_x, 1))
    with Path(path).open("wb") as fh:
        fh.write(b"x,t,q\n")
        for lo in range(0, n_t, step):
            n = min(step, n_t - lo)
            qs = _floatfmt.cells(grid.values[lo:lo + n]).reshape(n, n_x, 1, -1)
            fh.write(_csv_rows(xs[:, None], ts[lo:lo + n, None, None], qs))


def density_grid_summary(grid: DensityGrid) -> dict:
    moments = grid.moments()
    return {"t": [float(t) for t in grid.t_nodes],
            "mass": [m[0] for m in moments],
            "mean": [m[1] for m in moments],
            "variance": [m[2] for m in moments],
            "skewness": [m[3] for m in moments]}


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
