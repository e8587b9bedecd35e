"""Shared domain types, numerical primitives and the run's fork worker pool.

Every curve in this package lives on a common uniform grid over normalized
time [0, 1]. The types below are immutable after construction (their arrays
are frozen), so they can be shared freely across threads, and across
processes: each pickles as its constructor call, so a copy unpickled in
another process is checked and frozen like the original.
"""

from __future__ import annotations

import os
import signal
import sys
from collections.abc import Callable, Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "DimensionError",
    "ParameterError",
    "InsufficientDataError",
    "DegenerateInputError",
    "TimeGrid",
    "Trajectory",
    "SrvfCurve",
    "Warping",
    "DistanceTriple",
    "common_grid",
    "frozen",
    "inner_product",
    "l2_norm",
    "fork_map",
    "worker_pool",
]


class DimensionError(ValueError):
    """Inputs whose lengths/grids do not match."""


class ParameterError(ValueError):
    """Parameter outside its documented range."""


class InsufficientDataError(ValueError):
    """Too few samples to perform the operation."""


class DegenerateInputError(ValueError):
    """Input that makes the operation undefined (e.g. an all-zero signal)."""


def frozen(values) -> np.ndarray:
    """A read-only float64 copy of `values`, as every array a type holds."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def _sampled(values, grid: TimeGrid, what: str) -> np.ndarray:
    """`values` as a frozen 1-d finite array with one value per grid point."""
    v = frozen(values)
    if v.ndim != 1 or v.size != grid.n:
        raise DimensionError(f"expected {grid.n} values, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DegenerateInputError(f"{what} contains non-finite values")
    return v


class _Built:
    """Pickles as its constructor call on its init fields, so an unpickled
    copy, such as a worker process's result, is checked and frozen."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name)
                                 for f in fields(self) if f.init)


@dataclass(frozen=True)
class TimeGrid(_Built):
    """Uniform grid of `n` points spanning [0, 1] inclusive."""

    n: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 3:
            raise ParameterError(f"grid needs at least 3 points, got {self.n}")
        object.__setattr__(self, "points",
                           frozen(np.linspace(0.0, 1.0, self.n)))

    @property
    def spacing(self) -> float:
        return 1.0 / (self.n - 1)


@dataclass(frozen=True)
class Trajectory(_Built):
    """Scalar signal sampled on a TimeGrid (e.g. angular velocity)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _sampled(self.values, self.grid, "trajectory"))


@dataclass(frozen=True)
class SrvfCurve(_Built):
    """Square-root velocity representation of a trajectory."""

    grid: TimeGrid
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _sampled(self.q, self.grid, "SRVF"))


@dataclass(frozen=True)
class Warping(_Built):
    """Boundary-preserving monotone reparametrization of [0, 1].

    gamma[0] and gamma[-1] are pinned to exactly 0 and 1 at construction;
    interior values are clipped into [0, 1] and forced non-decreasing to
    absorb interpolation round-off.
    """

    grid: TimeGrid
    gamma: np.ndarray

    def __post_init__(self):
        g = _sampled(self.gamma, self.grid, "warping")
        if np.any(np.diff(g) < -1e-9):
            raise DegenerateInputError("warping is decreasing")
        g = np.maximum.accumulate(np.clip(g, 0.0, 1.0))
        g[0], g[-1] = 0.0, 1.0
        object.__setattr__(self, "gamma", frozen(g))

    @classmethod
    def identity(cls, grid: TimeGrid) -> "Warping":
        return cls(grid, grid.points)

    def inverse(self) -> "Warping":
        # gamma is monotone onto [0,1]; invert by swapping axes of the graph.
        inv = np.interp(self.grid.points, self.gamma, self.grid.points)
        return Warping(self.grid, inv)

    def compose(self, inner: "Warping") -> "Warping":
        """Return self o inner, i.e. t -> self.gamma(inner.gamma(t))."""
        common_grid([self, inner])
        g = np.interp(inner.gamma, self.grid.points, self.gamma)
        return Warping(self.grid, g)


@dataclass(frozen=True)
class DistanceTriple:
    """Amplitude / phase / cosine distances of one curve to a reference."""

    amplitude: float
    phase: float
    cosine: float

    def __post_init__(self):
        for name, val in (("amplitude", self.amplitude),
                          ("phase", self.phase),
                          ("cosine", self.cosine)):
            if not np.isfinite(val):
                raise DegenerateInputError(f"{name} distance is not finite")
        if self.amplitude < 0:
            raise DegenerateInputError("amplitude distance is negative")
        if not (-1e-9 <= self.phase <= np.pi / 2 + 1e-9):
            raise DegenerateInputError(f"phase distance {self.phase} outside [0, pi/2]")
        if not (-1e-9 <= self.cosine <= 2 + 1e-9):
            raise DegenerateInputError(f"cosine distance {self.cosine} outside [0, 2]")


def common_grid(items) -> TimeGrid:
    """The one grid that grid-sampled items (curves, SRVFs, warps) share."""
    if not items:
        raise InsufficientDataError("no grid-sampled inputs given")
    sizes = sorted({it.grid.n for it in items})
    if len(sizes) > 1:
        raise DimensionError(f"inputs live on different grids: sizes {sizes}")
    return items[0].grid


def inner_product(f: np.ndarray, g: np.ndarray, grid: TimeGrid) -> float:
    """L2 inner product <f, g> on [0, 1] by the trapezoid rule."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != (grid.n,) or g.shape != (grid.n,):
        raise DimensionError(
            f"inner_product needs two length-{grid.n} arrays, "
            f"got {f.shape} and {g.shape}"
        )
    return float(np.trapezoid(f * g, dx=grid.spacing))


def l2_norm(f: np.ndarray, grid: TimeGrid) -> float:
    return float(np.sqrt(max(inner_product(f, f, grid), 0.0)))


# the pid that opened the `worker_pool` block, and its pool once started
_run_pid = None
_executor = None


@contextmanager
def worker_pool():
    """Let every `fork_map` call inside the block share one fork pool.

    The pool starts on the first call that can use it and is shut down
    when the block exits, so no worker outlives the block. A nested block
    uses the outer block's pool. A process forked inside the block, pool
    worker or not, is outside it: it neither uses nor shuts the pool.
    """
    global _run_pid, _executor
    if _run_pid == os.getpid():
        yield
        return
    _run_pid, _executor = os.getpid(), None
    try:
        yield
    finally:
        pool = _executor if _run_pid == os.getpid() else None
        _run_pid = _executor = None
        if pool is not None:
            pool.shutdown()


def _exit_with_run() -> None:
    """Pool worker initializer. On Linux, the kernel SIGKILLs this worker
    when the thread that forked it (the run's, at its first map) dies, and
    it exits now if the run already has. Nothing here raises: a raising
    initializer breaks the pool."""
    if sys.platform != "linux":
        return
    try:
        import ctypes
        prctl = ctypes.CDLL(None).prctl
    except (ImportError, OSError, AttributeError):
        return
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    prctl(1, signal.SIGKILL)  # 1: PR_SET_PDEATHSIG
    if os.getppid() != _run_pid:
        os._exit(1)


def fork_map(fn: Callable, items: Sequence, stage: str) -> Iterable:
    """`fn` of each item, in order.

    Inside a `worker_pool` block this process opened, with two or more
    items, two or more usable CPUs and `os.fork`, the block's pool runs it:
    one worker per usable CPU, each given one contiguous chunk of `items`,
    and the results come back as a list. Otherwise this is the lazy
    `map(fn, items)` in this process, so a caller that stops at one result
    computes no later ones. A worker that dies raises OSError naming
    `stage`, and the broken pool is dropped. `fn` and each result are
    pickled between processes; a worker's value of one of the types above
    is rebuilt by its constructor.
    """
    global _executor
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    if (_run_pid != os.getpid() or len(items) < 2 or cpus < 2
            or not hasattr(os, "fork")):  # Windows has no fork start method
        return map(fn, items)
    # imported here: a run that starts no pool does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if _executor is None:
        _executor = ProcessPoolExecutor(
            cpus, mp_context=multiprocessing.get_context("fork"),
            initializer=_exit_with_run)
    try:
        return list(_executor.map(fn, items, chunksize=-(-len(items) // cpus)))
    except BrokenProcessPool as exc:
        _executor.shutdown()
        _executor = None
        raise OSError(f"{stage} worker died: {exc}") from exc
