"""Artifact serialization: ensemble CSV / binary round-trip, density exports.

CSV contract: every float cell is the shortest round-trip Python repr of a
plain float (``0.1``, ``-0.0``, ``nan``, ``inf``; never a NumPy scalar
repr), so ``float(cell)`` recovers the value exactly and repeated runs with
the same configuration produce byte-identical files.  Density tables are
long-form, one ``x,t,q`` row per node pair; ensembles are one row per path.
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


def _fmt(v: float) -> str:
    return repr(float(v))


def _reprs(values) -> list:
    """`_fmt` of every value of a 1-D array, formatted in one C-level pass
    (the repr of the plain-float list) instead of one call per value."""
    vals = np.asarray(values, dtype=float).tolist()
    return repr(vals)[1:-1].split(", ") if vals else []


def columns_to_csv(path, names, *columns) -> None:
    """Header `names`, then one row per index of the equal-length columns."""
    cells = [_reprs(c) for c in columns]
    with Path(path).open("w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        fh.write("".join([",".join(row) + "\n" for row in zip(*cells)]))


def ensemble_to_csv(ens: PathEnsemble, path) -> None:
    """One row per path; metadata in a leading comment, times in the header."""
    path = Path(path)
    times = ens.times
    with path.open("w", newline="\n") as fh:
        fh.write(f"# skewdiff-ensemble seed={ens.seed} scheme={ens.scheme} "
                 f"n_paths={ens.n_paths} n_steps={ens.grid.n_steps} "
                 f"t_start={_fmt(ens.grid.t_start)} t_end={_fmt(ens.grid.t_end)} "
                 f"epsilon={_fmt(ens.grid.terminal_cutoff_epsilon)} "
                 f"record_stride={ens.record_stride} clamp_events={ens.clamp_events}\n")
        cols = ["path"] + (["label"] if ens.labels is not None else []) \
            + [f"t={t}" for t in _reprs(times)]
        fh.write(",".join(cols) + "\n")
        labels = None if ens.labels is None else ens.labels.tolist()
        for i, row in enumerate(ens.values):
            head = f"{i}," if labels is None else f"{i},{labels[i]},"
            fh.write(head + ",".join(_reprs(row)) + "\n")


def ensemble_to_binary(ens: PathEnsemble, path) -> None:
    path = Path(path)
    times = np.ascontiguousarray(ens.times, dtype="<f8")
    values = np.ascontiguousarray(ens.values, dtype="<f8")
    flags = 1 if ens.labels is not None else 0
    header = struct.pack(
        "<4sHHQQqdddII", MAGIC, VERSION, flags, ens.n_paths, len(times),
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
    head = struct.calcsize("<4sHHQQqdddII")
    magic, version, flags, n_paths, n_times, seed, t_start, t_end, eps, stride, n_steps = \
        struct.unpack("<4sHHQQqdddII", raw[:head])
    if magic != MAGIC:
        raise ValueError(f"not a skewdiff ensemble file: magic={magic!r}")
    if version != VERSION:
        raise ValueError(f"unsupported ensemble version {version}")
    off = head
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
    """Long-form x,t,q rows (one per node pair), one time slice at a time.

    The x column is formatted once and each t once per slice; a slice is
    converted with one `tolist` (not the whole grid, which would hold every
    value as a Python float at once) and written with a single call.
    """
    xs = _reprs(grid.x_nodes)
    with Path(path).open("w", newline="\n") as fh:
        fh.write("x,t,q\n")
        for t, row in zip(grid.t_nodes.tolist(), grid.values):
            mid = f",{t!r},"
            fh.write("".join([f"{x}{mid}{q}\n" for x, q in zip(xs, _reprs(row))]))


def density_grid_summary(grid: DensityGrid) -> dict:
    moments = grid.moments()
    return {"t": [float(t) for t in grid.t_nodes],
            "mass": [m[0] for m in moments],
            "mean": [m[1] for m in moments],
            "variance": [m[2] for m in moments],
            "skewness": [m[3] for m in moments]}


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
