"""Seeded Euler-Maruyama simulation with scheduling-independent noise.

Noise is drawn from counter-based Philox streams keyed by
(master seed, component tag, path block), so an ensemble is bitwise
reproducible for a fixed (seed, n_paths, grid) no matter how many worker
threads process the blocks.  Blocks have a fixed size independent of the
thread count.  Each worker thread steps one contiguous run of blocks as a
single array of paths, so a step costs a few wide array operations per
worker rather than per block; every operation is elementwise, so the
split does not change a value, and each run writes a disjoint slice of
the output.

The worker threads belong to one process-wide pool, built on first use and
shared with every other layer that maps independent blocks through
`ordered_map` (the CSV writer, the censor KDE, density moments).
"""
from __future__ import annotations

import collections
import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, TYPE_CHECKING

import numpy as np

from .dists import std_normal_cdf
from .errors import HorizonError, SchemaError, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .families import DriftSpec

_BLOCK_SIZE = 8192          # paths per noise block; fixed so outputs never depend on threading
_STEP_CHUNK = 32            # steps drawn per RNG call, bounds scratch memory

# stream tag for the mixture labels; noise streams use tags 0 (primary)
# and 1 (secondary), see _integrate
_TAG_LABELS = 2


def _cpu_count() -> int:
    """CPUs this process may run on (the affinity count where it exists)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def thread_count(requested: Optional[int] = None) -> int:
    """Worker threads to use; SKEWDIFF_THREADS caps a request and sets the
    default, which is otherwise the CPU affinity count.

    A SKEWDIFF_THREADS that is not a positive integer is a configuration
    error (SchemaError).
    """
    env = os.environ.get("SKEWDIFF_THREADS")
    cap = None
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = 0
        if cap < 1:
            raise SchemaError(
                f"SKEWDIFF_THREADS must be a positive integer, got {env!r}")
    if requested is None:
        return cap or _cpu_count()
    if cap:
        requested = min(int(requested), cap)
    return max(1, int(requested))


_pool_lock = threading.Lock()
_pool: Optional[ThreadPoolExecutor] = None
_pool_width = 0
_in_pool = threading.local()      # .worker is True on the pool's own threads


def _mark_worker():
    _in_pool.worker = True


def _shared_pool(width: int) -> ThreadPoolExecutor:
    """The process-wide pool, at least `width` threads wide.  A narrower
    pool is replaced, not shut down: a call still feeding it finishes, and
    its idle threads exit once it is collected."""
    global _pool, _pool_width
    with _pool_lock:
        if _pool_width < width:
            _pool = ThreadPoolExecutor(max_workers=width, thread_name_prefix="skewdiff",
                                       initializer=_mark_worker)
            _pool_width = width
        return _pool


def _forget_pool():
    # a forked child holds the parent's pool object but none of its
    # threads (and perhaps a lock another thread held): start afresh
    global _pool, _pool_width, _pool_lock
    _pool, _pool_width, _pool_lock = None, 0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def ordered_map(fn: Callable, items: Iterable, workers: Optional[int] = None) -> Iterator:
    """Yield fn(item) for each item, in item order, computed on the shared
    pool by up to `workers` threads (thread_count(workers) of them).

    At most workers + 1 items are in flight (started and not yet taken by
    the caller), which bounds the memory of a writer that consumes blocks
    as they come.  An item that raises re-raises at its position, after the
    earlier items' results, and only once no task of the call is running.
    Each task runs in a copy of the caller's context, so NumPy's error
    state (a context variable) is the caller's.  One worker, a single item
    or a call from a pool task runs fn inline on the calling thread, and
    builds no pool.
    """
    items = list(items)
    workers = min(thread_count(workers), len(items))
    if workers <= 1 or getattr(_in_pool, "worker", False):
        yield from map(fn, items)
        return
    pool = _shared_pool(workers)
    todo = iter(items)
    pending = collections.deque()

    def submit():
        for item in todo:
            pending.append(pool.submit(contextvars.copy_context().run, fn, item))
            return

    try:
        for _ in range(workers):
            submit()
        while pending:
            result = pending.popleft().result()
            submit()
            yield result
    finally:
        for f in pending:
            f.cancel()
        wait(pending)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid on [t_start, t_final], t_final = t_end - epsilon."""

    t_start: float
    t_end: float
    n_steps: int
    terminal_cutoff_epsilon: float = 0.0

    def __post_init__(self):
        if self.t_start < 0:
            raise SchemaError("t_start must be nonnegative")
        if not math.isfinite(self.t_end):
            raise SchemaError(f"t_end must be finite, got {self.t_end}")
        if self.n_steps < 1:
            raise SchemaError("n_steps must be positive")
        if self.terminal_cutoff_epsilon < 0:
            raise SchemaError("terminal cutoff must be nonnegative")
        if not self.t_final > self.t_start:
            raise SchemaError("empty grid: t_end - epsilon must exceed t_start")

    @property
    def t_final(self) -> float:
        return self.t_end - self.terminal_cutoff_epsilon

    @property
    def dt(self) -> float:
        return (self.t_final - self.t_start) / self.n_steps

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class SimConfig:
    """Ensemble size, seed, and integration safeguards."""

    n_paths: int
    seed: int
    drift_clamp: float = 10.0
    antithetic: bool = False
    record_stride: int = 1
    n_threads: Optional[int] = None

    def __post_init__(self):
        if self.n_paths < 1:
            raise SchemaError("n_paths must be >= 1")
        if not (self.drift_clamp > 0 and math.isfinite(self.drift_clamp)):
            raise SchemaError("drift_clamp must be positive and finite")
        if self.record_stride < 1:
            raise SchemaError("record_stride must be >= 1")
        if self.n_threads is not None and self.n_threads < 1:
            raise SchemaError("n_threads must be >= 1")
        if self.antithetic and self.n_paths % 2:
            raise SchemaError("antithetic sampling needs an even n_paths")


@dataclass
class PathEnsemble:
    """Simulated trajectories at the recorded subset of grid times."""

    grid: TimeGrid
    values: np.ndarray            # n_paths x n_recorded
    seed: int
    scheme: str = "euler_maruyama"
    labels: Optional[np.ndarray] = None
    record_stride: int = 1
    clamp_events: int = 0

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def times(self) -> np.ndarray:
        """The grid's recorded times, cut to the columns held (a run may stop
        before the grid's end)."""
        return self.grid.times()[:: self.record_stride][: self.values.shape[1]]

    def at_time(self, t: float) -> np.ndarray:
        """Column of path values at the recorded time closest to t."""
        times = self.times
        j = int(np.argmin(np.abs(times - t)))
        if abs(times[j] - t) > 0.5 * self.grid.dt * self.record_stride + 1e-12:
            raise ValueError(f"t={t} is not a recorded time")
        return self.values[:, j]


def _stream(seed: int, tag: int, block: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64((tag << 32) | block)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(n_paths: int):
    return [(b, min(n_paths, b + _BLOCK_SIZE)) for b in range(0, n_paths, _BLOCK_SIZE)]


def _draw_labels(seed: int, n_paths: int, p_plus: float) -> np.ndarray:
    out = np.empty(n_paths, dtype=np.int8)
    for lo, hi in _blocks(n_paths):
        u = _stream(seed, _TAG_LABELS, lo // _BLOCK_SIZE).random(hi - lo)
        out[lo:hi] = np.where(u < p_plus, 1, -1)
    return out


def _check_finite(bad: np.ndarray, step: int, path_offset: int):
    """SimulationError naming the first path flagged in `bad` at state `step`."""
    if bad.any():
        i = path_offset + int(np.flatnonzero(bad)[0])
        raise SimulationError(f"non-finite value at path {i}, step {step}",
                              path_index=i, step_index=step)


def _clamp(inc: np.ndarray, limit: float, k: int, path_offset: int):
    """Clip the drift increment of step k to [-limit, limit]; returns (inc,
    events).  A NaN fails the fast test, so only the slow path looks for
    one: it makes state k + 1 of its path the first non-finite value."""
    inc = np.asarray(inc)
    if -limit <= inc.min() and inc.max() <= limit:
        return inc, 0
    _check_finite(np.isnan(inc), k + 1, path_offset)
    return np.clip(inc, -limit, limit), int((np.abs(inc) > limit).sum())


def _runs(n_paths: int, workers: int):
    """Split the blocks into `workers` contiguous runs (b0, b1) of about
    equal path counts: run i starts at the block boundary nearest to path
    i * n_paths / workers, and no run is empty."""
    n_blocks = len(_blocks(n_paths))
    cuts = [0]
    for i in range(1, workers):
        # round half up of i * n_paths / (workers * _BLOCK_SIZE), in integers
        near = (2 * i * n_paths + workers * _BLOCK_SIZE) // (2 * workers * _BLOCK_SIZE)
        cuts.append(min(max(near, cuts[-1] + 1), n_blocks - (workers - i)))
    cuts.append(n_blocks)
    return list(zip(cuts[:-1], cuts[1:]))


def _integrate(step_for: Callable, x0s, grid: TimeGrid, cfg: SimConfig,
               scales=(1.0,), n_steps: Optional[int] = None):
    """The one Euler-Maruyama engine behind every simulator.

    `step_for(lo, hi)` builds the step for paths lo:hi; the step maps
    (states, zs, k) to (new states, clamp events), where states holds one
    array per component and zs one noise row per stream for the step from
    grid time k to k + 1; a step may update its states and overwrite its
    zs rows in place.  Stream i's row is a standard normal draw times
    scales[i], a number or an array of one value per step.  Stream tag i
    (0 = primary, 1 = secondary) is keyed by (seed, i, block), so the
    ensemble does not depend on the thread count.

    Each worker (see ordered_map) takes one contiguous run of blocks (see
    _runs) and steps all its paths at once, so a step is a few wide array
    operations rather than a few per block.  Each block's stream fills that block's
    columns of the run's noise rows, at most _STEP_CHUNK * _BLOCK_SIZE
    doubles per stream (a wider run draws fewer rows per call); the
    generator writes its draws in order, so the row count does not change
    them.  States are checked for finiteness every _STEP_CHUNK steps.  A
    SimulationError names the lowest failing block at that block's first
    detection, whatever the thread count: a failure in a run reruns the
    run's blocks below the failing one, which may fail first.

    `n_steps` (a multiple of the stride, default grid.n_steps) runs only the
    grid's first n_steps steps; the draws of those steps are the same as in
    a whole run, so the recorded columns keep their bits.  Returns one
    PathEnsemble per component (started at x0s), each carrying the grid,
    seed, record stride and the run's total clamp events.
    """
    if grid.n_steps % cfg.record_stride:
        raise SchemaError("record_stride must divide n_steps")
    n_run = grid.n_steps if n_steps is None else n_steps
    if not (0 < n_run <= grid.n_steps and n_run % cfg.record_stride == 0):
        raise SchemaError(f"a run of {n_run} steps must be a positive multiple of "
                          f"record_stride up to the grid's {grid.n_steps}")
    # one column per stream: row k scales step k's draws
    columns = [np.broadcast_to(np.asarray(s, dtype=float), (grid.n_steps,))[:, None]
               for s in scales]
    n_rec = n_run // cfg.record_stride + 1
    outs = tuple(np.empty((cfg.n_paths, n_rec)) for _ in x0s)

    def run_blocks(b0, b1):
        """Integrate blocks b0..b1-1 as one array of paths; returns the clamp events."""
        lo, hi = b0 * _BLOCK_SIZE, min(cfg.n_paths, b1 * _BLOCK_SIZE)
        m = hi - lo
        streams = [[_stream(cfg.seed, tag, b) for b in range(b0, b1)]
                   for tag in range(len(columns))]
        rows = max(1, min(n_run, _STEP_CHUNK * _BLOCK_SIZE // m))
        bufs = [np.empty((rows, m)) for _ in columns]
        draws = np.empty(rows * min(m, _BLOCK_SIZE))   # one block's rows, before scaling
        step = step_for(lo, hi)
        states = tuple(np.full(m, float(v)) for v in x0s)
        for out, x in zip(outs, states):
            out[lo:hi, 0] = x
        clamps = 0
        for k in range(n_run):
            j = k % rows
            if j == 0:
                n = min(rows, n_run - k)
                for rngs, buf, col in zip(streams, bufs, columns):
                    for i, rng in enumerate(rngs):
                        c0, c1 = i * _BLOCK_SIZE, min(m, (i + 1) * _BLOCK_SIZE)
                        z = draws[:n * (c1 - c0)].reshape(n, c1 - c0)
                        rng.standard_normal(out=z)
                        np.multiply(z, col[k:k + n], out=buf[:n, c0:c1])
                    if cfg.antithetic:
                        np.negative(buf[:n, 0::2], out=buf[:n, 1::2])
            states, c = step(states, [buf[j] for buf in bufs], k)
            clamps += c
            if (k + 1) % cfg.record_stride == 0:
                for out, x in zip(outs, states):
                    out[lo:hi, (k + 1) // cfg.record_stride] = x
            if (k + 1) % _STEP_CHUNK == 0 or k + 1 == n_run:
                for x in states:
                    _check_finite(~np.isfinite(x), k + 1, lo)
        return clamps

    def worker(run):
        b0, b1 = run
        failure = None
        while b1 > b0:
            try:
                clamps = run_blocks(b0, b1)
                break
            except SimulationError as err:
                # the lowest failing block at this detection; a block below
                # it may still fail later, and its error would come first
                failure, b1 = err, err.path_index // _BLOCK_SIZE
        if failure is not None:
            raise failure
        return clamps

    workers = min(thread_count(cfg.n_threads), len(_blocks(cfg.n_paths)))
    clamps = sum(ordered_map(worker, _runs(cfg.n_paths, workers), workers))
    return tuple(PathEnsemble(grid=grid, values=v, seed=cfg.seed,
                              record_stride=cfg.record_stride, clamp_events=clamps)
                 for v in outs)


def _check_run(drift: "DriftSpec", x0: float, grid: TimeGrid, labels=(1.0,)):
    """SchemaError unless each drift lab * mu(lab * x, t) that a run follows
    is finite at its start (x0, grid.t_start); then HorizonError when the
    grid runs past the drift's validity horizon.  A custom mu_fn is the
    caller's and is not called here: a value of it that is not finite is a
    SimulationError at its step, as at any other step."""
    t0 = grid.t_start
    with np.errstate(all="ignore"):
        mu = [drift.mu(np.asarray([lab * x0]), t0) for lab in labels
              if drift.mu_fn is None]
    if not np.isfinite(mu).all():
        # a later start can help only a drift that depends on t
        hint = "; pass a positive t_start" if t0 == 0 and not drift.time_free else ""
        raise SchemaError(f"the {drift.kind} drift is not finite at x0={x0!r}, t={t0!r}{hint}")
    if grid.t_final > drift.validity_horizon + 1e-12:
        raise HorizonError(f"grid reaches t={grid.t_final} beyond the drift "
                           f"validity horizon {drift.validity_horizon}")


def _drift_ensemble(mu_for: Callable, sigma: float, x0: float, grid: TimeGrid,
                    cfg: SimConfig, labels: Optional[np.ndarray] = None) -> PathEnsemble:
    """Euler-Maruyama ensemble of dX = mu(X, t) dt + sigma dW, where paths
    lo:hi take their drift mu(x, t) from `mu_for(lo, hi)`.  A step's drift
    increment is clamped at sigma * cfg.drift_clamp (events counted), which
    bounds X's increment in Y = shift + sigma * X at cfg.drift_clamp."""
    dt = grid.dt
    sqdt = math.sqrt(dt)
    limit = cfg.drift_clamp * sigma
    times = grid.times()

    def step_for(lo, hi):
        mu_at = mu_for(lo, hi)
        scaled = np.empty(hi - lo)   # mu * dt

        def step(states, zs, k):
            x, = states
            np.multiply(mu_at(x, times[k]), dt, out=scaled)
            inc, n = _clamp(scaled, limit, k, lo)
            # x + inc + sigma * sqdt * z, summed in that order
            x += inc
            x += zs[0]
            return (x,), n
        return step

    ens, = _integrate(step_for, (x0,), grid, cfg, scales=(sigma * sqdt,))
    ens.labels = labels
    return ens


def simulate(drift: "DriftSpec", x0: float, grid: TimeGrid, cfg: SimConfig) -> PathEnsemble:
    """Euler-Maruyama integration of dX = mu(X, t) dt + sigma dW, where sigma
    is drift.diffusion_scale (see _drift_ensemble for the clamp).  A family
    or OU drift that is not finite at (x0, grid.t_start) is a SchemaError."""
    _check_run(drift, x0, grid)
    return _drift_ensemble(lambda lo, hi: drift.mu, drift.diffusion_scale, x0, grid, cfg)


def simulate_mixture(drift: "DriftSpec", p_plus: float, x0: float, grid: TimeGrid,
                     cfg: SimConfig) -> PathEnsemble:
    """Each path draws a +-1 label with P(+1) = p_plus; labels are recorded
    on the ensemble.  A +1 path follows `drift`, a -1 path its reflection
    -mu(-x, t), each step computed as lab * mu(lab * x, t) with lab = +-1.0.

    Multiplying by +-1 is exact, and every closed-form family drift and the
    OU h-transform satisfy mu_-(x, t) = -mu_+(-x, t) bit for bit, so the
    reflection of a chirality +1 drift is its chirality -1 drift.  The
    reflection is taken about 0: that of a drift shifted by s is the
    opposite chirality shifted by -s.  The start is checked as in
    `simulate`, for each label drawn."""
    if not 0.0 <= p_plus <= 1.0:
        raise ValueError(f"p_plus must be a probability, got {p_plus}")
    labels = _draw_labels(cfg.seed, cfg.n_paths, p_plus)
    _check_run(drift, x0, grid, np.unique(labels).astype(float))

    def mu_for(lo, hi):
        # one drift call per step; the product is a new array, since a
        # mu_fn may return its argument
        lab = labels[lo:hi].astype(float)
        return lambda x, t: lab * drift.mu(lab * x, t)

    return _drift_ensemble(mu_for, drift.diffusion_scale, x0, grid, cfg, labels)


def simulate_bivariate_censoring(rho, grid: TimeGrid, cfg: SimConfig,
                                  n_steps: Optional[int] = None):
    """Driver pair (X, Y): X is standard Brownian and dY = rho dX +
    sqrt(1 - rho^2) dW2 with W2 independent, both started at zero.

    `rho` maps time to [-1, 1] (scalars accepted), and is checked on the
    whole grid.  Only the grid's first `n_steps` steps are run (a multiple
    of cfg.record_stride, default all of them); the columns held have the
    bits of a whole run's.  Returns the (X, Y) ensembles; Var X_t = Var Y_t
    = t in expectation and the covariance accumulates as the running
    integral of rho.
    """
    rho_fn = rho if callable(rho) else (lambda t, _r=float(rho): _r)
    times = grid.times()
    rho_vals = np.array([float(rho_fn(t)) for t in times[:-1]])
    if not np.all(np.abs(rho_vals) <= 1.0 + 1e-12):
        raise SchemaError("|rho(t)| must not exceed 1 on the grid")
    rho_vals = np.clip(rho_vals, -1.0, 1.0)
    ortho = np.sqrt(1.0 - rho_vals**2)
    sqdt = math.sqrt(grid.dt)

    def step(states, zs, k):
        x, y = states
        dx, dw = zs
        # y + rho * dx + ortho * sqdt * w, summed in that order
        y_new = rho_vals[k] * dx
        y_new += y
        y_new += dw
        return (x + dx, y_new), 0

    return _integrate(lambda lo, hi: step, (0.0, 0.0), grid, cfg,
                      scales=(sqdt, ortho * sqdt), n_steps=n_steps)


def mixture_probability(x0: float, T: float):
    """Label probabilities (p_minus, p_plus) that recombine the two
    opposite-chirality finite-horizon diffusions into Brownian motion.

    p_plus = Phi(x0 / sqrt(T)); the pair sums to one, which is exactly the
    normalization the pointwise recombination identity requires.
    """
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    p_plus = float(std_normal_cdf(x0 / math.sqrt(T)))
    return 1.0 - p_plus, p_plus
