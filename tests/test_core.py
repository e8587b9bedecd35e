import json
import multiprocessing
import os
import pickle
import sys
from contextlib import nullcontext
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from motionshape.core import (
    DegenerateInputError,
    DimensionError,
    DistanceTriple,
    InsufficientDataError,
    ParameterError,
    SrvfCurve,
    TimeGrid,
    Trajectory,
    Warping,
    common_grid,
    fork_map,
    inner_product,
    worker_pool,
)

from conftest import python

TEST_PROCESS = os.getpid()

finite_floats = st.floats(-1e3, 1e3, allow_nan=False)


def vectors(n):
    return st.lists(finite_floats, min_size=n, max_size=n).map(np.array)


class TestTimeGrid:
    def test_endpoints_and_uniformity(self):
        g = TimeGrid(11)
        assert g.points[0] == 0.0
        assert g.points[-1] == 1.0
        spacings = np.diff(g.points)
        assert spacings.max() - spacings.min() < 1e-12

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            TimeGrid(2)


class TestDistanceTriple:
    @pytest.mark.parametrize("triple, match", [
        ((np.nan, 0.1, 0.1), "amplitude distance is not finite"),
        ((0.1, np.inf, 0.1), "phase distance is not finite"),
        ((0.1, 0.1, -np.inf), "cosine distance is not finite"),
        ((-0.1, 0.1, 0.1), "amplitude distance is negative"),
        ((0.1, 2.0, 0.1), r"phase distance 2.0 outside \[0, pi/2\]"),
        ((0.1, 0.1, 2.5), r"cosine distance 2.5 outside \[0, 2\]"),
    ], ids=["nan", "inf", "-inf", "negative amplitude", "phase above pi/2",
            "cosine above 2"])
    def test_out_of_range_rejected(self, triple, match):
        with pytest.raises(DegenerateInputError, match=match):
            DistanceTriple(*triple)


class TestCommonGrid:
    def test_shared_grid_returned(self, wavy101):
        w = Warping.identity(TimeGrid(101))
        assert common_grid([wavy101, w]) is wavy101.grid
        assert common_grid([w]) is w.grid

    def test_no_items(self):
        with pytest.raises(InsufficientDataError):
            common_grid([])

    def test_different_sizes(self, wavy101, grid201):
        with pytest.raises(DimensionError, match=r"\[101, 201\]"):
            common_grid([wavy101, Warping.identity(grid201), wavy101])


class TestTrajectory:
    def test_length_mismatch(self, grid101):
        with pytest.raises(DimensionError):
            Trajectory(grid101, np.zeros(100))

    def test_nonfinite_rejected(self, grid101):
        bad = np.zeros(101)
        bad[3] = np.nan
        with pytest.raises(DegenerateInputError):
            Trajectory(grid101, bad)

    def test_values_frozen(self, grid101):
        traj = Trajectory(grid101, np.zeros(101))
        with pytest.raises(ValueError):
            traj.values[0] = 1.0


class TestWarping:
    def test_identity(self, grid101):
        w = Warping.identity(grid101)
        assert w.gamma[0] == 0.0 and w.gamma[-1] == 1.0
        assert np.all(np.diff(w.gamma) >= 0)

    def test_decreasing_rejected(self, grid101):
        g = grid101.points.copy()
        g[50], g[51] = g[51], g[50]
        with pytest.raises(DegenerateInputError):
            Warping(grid101, g)

    def test_inverse_roundtrip(self, grid101):
        w = Warping(grid101, grid101.points ** 2)
        back = w.compose(w.inverse())
        assert np.abs(back.gamma - grid101.points).max() < 5e-3

    def test_endpoints_pinned(self, grid101):
        g = grid101.points * (1 - 1e-13)
        w = Warping(grid101, g)
        assert w.gamma[0] == 0.0 and w.gamma[-1] == 1.0


def held_arrays(obj):
    """The arrays an object of a `core` type holds, its grid's included."""
    if isinstance(obj, TimeGrid):
        return [obj.points]
    return [obj.grid.points] + [getattr(obj, f.name) for f in fields(obj)
                                if f.name != "grid"]


class TestPickle:
    """A copy unpickled, as a worker's result is, is checked and frozen
    like one built in this process."""

    @pytest.mark.parametrize("make", [
        lambda grid: grid,
        lambda grid: Trajectory(grid, np.sin(3 * grid.points)),
        lambda grid: SrvfCurve(grid, np.cos(3 * grid.points)),
        lambda grid: Warping(grid, grid.points ** 2),
    ], ids=["TimeGrid", "Trajectory", "SrvfCurve", "Warping"])
    def test_round_trip_is_equal_and_read_only(self, grid101, make):
        obj = make(grid101)
        copy = pickle.loads(pickle.dumps(obj))
        assert type(copy) is type(obj)
        for got, want in zip(held_arrays(copy), held_arrays(obj), strict=True):
            assert got is not want
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable

    def test_non_finite_trajectory_refused_on_load(self, grid101):
        traj = Trajectory(grid101, np.zeros(101))
        traj.values.flags.writeable = True  # altered after it was checked
        traj.values[3] = np.inf
        data = pickle.dumps(traj)
        with pytest.raises(DegenerateInputError, match="non-finite"):
            pickle.loads(data)


class TestInnerProduct:
    def test_constant_one(self):
        for n in (3, 11, 101):
            g = TimeGrid(n)
            assert inner_product(np.ones(n), np.ones(n), g) == pytest.approx(1.0)

    def test_t_squared(self, grid101):
        t = grid101.points
        assert inner_product(t, t, grid101) == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_sin_cos_orthogonal(self, grid201):
        t = grid201.points
        ip = inner_product(np.sin(2 * np.pi * t), np.cos(2 * np.pi * t), grid201)
        assert abs(ip) < 1e-3

    def test_length_mismatch(self, grid101):
        with pytest.raises(DimensionError):
            inner_product(np.ones(100), np.ones(101), grid101)

    @given(f=vectors(21), g=vectors(21))
    def test_symmetry(self, f, g):
        grid = TimeGrid(21)
        assert inner_product(f, g, grid) == pytest.approx(
            inner_product(g, f, grid), abs=1e-12)

    @given(f=vectors(21), g=vectors(21), h=vectors(21),
           a=st.floats(-10, 10), b=st.floats(-10, 10))
    def test_bilinearity(self, f, g, h, a, b):
        grid = TimeGrid(21)
        lhs = inner_product(a * f + b * g, h, grid)
        rhs = a * inner_product(f, h, grid) + b * inner_product(g, h, grid)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-9 * scale

    @given(f=vectors(21))
    def test_positive_semidefinite(self, f):
        grid = TimeGrid(21)
        assert inner_product(f, f, grid) >= 0.0



# module-level, so that fork_map can pickle them for its workers
def pid_and_square(x):
    return os.getpid(), x * x


def die_in_worker(x):
    if os.getpid() != TEST_PROCESS:
        os._exit(1)
    return x


two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                              reason="needs two usable CPUs")

# a pool's map whose function maps again: prints this process's pid, then
# each outer item's worker pid and the pids its inner map ran in
NESTED_MAP = """
import json, os
from motionshape.core import fork_map, worker_pool
def pid(_):
    return os.getpid()
def pids(x):
    return os.getpid(), list(fork_map(pid, [x, -x], "inner"))
with worker_pool():
    print(json.dumps([os.getpid(), fork_map(pids, [1, 2], "outer")]))
"""

# inside a block, forks child "A" before any map and child "B" after the
# first; each child maps 2 items and prints whether they ran in it; last,
# the parent prints its pid, its maps' pids and the children's exit codes
FORKED_IN_A_BLOCK = """
import json, os, signal, sys
from motionshape.core import fork_map, worker_pool
def pid(_):
    return os.getpid()
def fork(name):
    sys.stdout.flush()
    child = os.fork()
    if child == 0:
        signal.alarm(30)  # a map that never returns ends here
        own = set(fork_map(pid, [1, 2], name)) == {os.getpid()}
        print(json.dumps([name, own]), flush=True)
        os._exit(0)
    return child
with worker_pool():
    a = fork("A")
    maps = fork_map(pid, [1, 2], "parent")
    b = fork("B")
    codes = [os.waitstatus_to_exitcode(os.waitpid(c, 0)[1]) for c in (a, b)]
    maps += fork_map(pid, [1, 2], "parent")
    print(json.dumps(["parent", os.getpid(), maps, codes]))
"""

# a child forked inside a block leaves it as the parent does; prints the pid
# of each process that shuts a pool, then the parent's pid
FORKED_CHILD_LEAVES_THE_BLOCK = """
import os
from concurrent.futures import ProcessPoolExecutor
from motionshape.core import fork_map, worker_pool
shutdown = ProcessPoolExecutor.shutdown
def spy(self, *args, **kwargs):
    print(os.getpid(), flush=True)
    shutdown(self, *args, **kwargs)
ProcessPoolExecutor.shutdown = spy
with worker_pool():
    fork_map(abs, [1, 2], "parent")
    child = os.fork()
if child == 0:
    os._exit(0)
os.waitpid(child, 0)
print(os.getpid())
"""


class TestForkMap:
    @two_cpus
    def test_order_kept_on_uneven_chunks(self, pools):
        # chunks of 3 and 2 items
        with worker_pool():
            got = fork_map(pid_and_square, list(range(5)), "demo")
        assert [sq for _, sq in got] == [0, 1, 4, 9, 16]
        assert TEST_PROCESS not in {pid for pid, _ in got}
        assert [pool.maps for pool in pools] == [[5]]

    @pytest.mark.parametrize("case", ["no_pool", "one_cpu", "one_item",
                                      "no_fork"])
    def test_lazy_in_process(self, monkeypatch, pools, case):
        items = [1] if case == "one_item" else [1, 2, 3]
        if case == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        if case == "no_fork":
            monkeypatch.delattr(os, "fork")
        seen = []

        def record(x):
            seen.append(x)
            return os.getpid(), x

        with nullcontext() if case == "no_pool" else worker_pool():
            got = fork_map(record, items, "demo")
            assert seen == []
            assert next(got) == (TEST_PROCESS, items[0])
            assert seen == items[:1]
        assert pools == []

    @two_cpus
    def test_dead_worker_names_the_stage(self, pools):
        with worker_pool():
            with pytest.raises(OSError, match=r"^demo worker died: "):
                fork_map(die_in_worker, [1, 2], "demo")
            # the broken pool was dropped; the next map starts a new one
            got = fork_map(pid_and_square, [1, 2], "demo")
        assert [sq for _, sq in got] == [1, 4]
        assert len(pools) == 2
        assert multiprocessing.active_children() == []

    @two_cpus
    def test_one_pool_per_block(self, pools):
        with worker_pool():
            got = fork_map(pid_and_square, [1, 2], "demo")
            with worker_pool():  # nested: the outer block's pool
                got += fork_map(pid_and_square, [3, 4, 5], "demo")
            got += fork_map(pid_and_square, [6, 7], "demo")
            workers = multiprocessing.active_children()
        assert [sq for _, sq in got] == [1, 4, 9, 16, 25, 36, 49]
        assert {pid for pid, _ in got} <= {p.pid for p in workers}
        assert [pool.maps for pool in pools] == [[2, 3, 2]]
        assert multiprocessing.active_children() == []

    @two_cpus
    def test_block_that_raises_shuts_its_pool(self, pools):
        with pytest.raises(KeyError, match="stop"):
            with worker_pool():
                fork_map(pid_and_square, [1, 2], "demo")
                raise KeyError("stop")
        (pool,) = pools
        with pytest.raises(RuntimeError, match="after shutdown"):
            pool.submit(abs, 1)
        assert multiprocessing.active_children() == []

    @two_cpus
    def test_map_in_a_worker_runs_in_that_worker(self):
        # a worker inherits the run's pool state; kept, the inner map would
        # submit to the worker's copy of the run's pool and never return
        with python(NESTED_MAP) as run:
            try:
                out, _ = run.communicate(timeout=60)
            finally:
                run.kill()
        assert run.returncode == 0
        parent, got = json.loads(out)
        assert len(got) == 2
        for worker, inner in got:
            assert worker != parent and inner == [worker, worker]

    @two_cpus
    def test_map_in_a_forked_child_runs_in_that_child(self):
        # a child inherits the block's state but is outside the block: its
        # map neither starts a pool of its own nor submits to its copy of
        # the parent's, where it would never return
        with python(FORKED_IN_A_BLOCK) as run:
            try:
                out, _ = run.communicate(timeout=90)
            finally:
                run.kill()
        assert run.returncode == 0
        *children, (_, parent, maps, codes) = map(json.loads, out.splitlines())
        assert codes == [0, 0]
        assert sorted(children) == [["A", True], ["B", True]]
        assert len(maps) == 4 and parent not in maps

    @two_cpus
    def test_forked_child_leaves_the_pool_to_the_parent(self):
        with python(FORKED_CHILD_LEAVES_THE_BLOCK) as run:
            try:
                out, _ = run.communicate(timeout=60)
            finally:
                run.kill()
        assert run.returncode == 0
        shut_by, parent = out.split()
        assert shut_by == parent

    @two_cpus
    def test_workers_start_off_linux(self, monkeypatch):
        # there the workers' initializer does nothing, and raises nothing
        monkeypatch.setattr(sys, "platform", "darwin")
        with worker_pool():
            got = fork_map(pid_and_square, [1, 2], "demo")
        assert [sq for _, sq in got] == [1, 4]
        assert TEST_PROCESS not in {pid for pid, _ in got}
