import concurrent.futures
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from motionshape.core import TimeGrid, Trajectory


@pytest.fixture
def grid101():
    return TimeGrid(101)


@pytest.fixture
def grid201():
    return TimeGrid(201)


@pytest.fixture
def wavy101(grid101):
    t = grid101.points
    return Trajectory(grid101, np.sin(2 * np.pi * t) + 0.35 * np.sin(6 * np.pi * t))


@pytest.fixture
def pools(monkeypatch):
    """Every fork pool `core.fork_map` starts while the test runs, in order.
    Each records the item count of each of its maps, and the
    `cancel_futures` of its last shutdown (None before one)."""
    started = []

    class Counted(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.maps, self.cancelled = [], None
            started.append(self)

        def map(self, fn, items, **kwargs):
            self.maps.append(len(items))
            return super().map(fn, items, **kwargs)

        def shutdown(self, wait=True, *, cancel_futures=False):
            self.cancelled = cancel_futures
            super().shutdown(wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return started
