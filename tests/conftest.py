"""Fixtures and helpers shared by the test modules, which import the
helpers with `from conftest import ...`."""

import concurrent.futures
import csv
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import motionshape
from motionshape.core import SrvfCurve, TimeGrid, Trajectory
from motionshape.synthetic import write_cohort


def wavy_template(grid: TimeGrid) -> Trajectory:
    """Feature-rich signal with no flat spans; good for warp identifiability."""
    t = grid.points
    return Trajectory(grid, np.sin(2 * np.pi * t) + 0.35 * np.sin(6 * np.pi * t))


def random_smooth_srvf(grid: TimeGrid, rng: np.random.Generator,
                       harmonics: int = 5) -> SrvfCurve:
    """Band-limited random SRVF with O(1) norm (no square-root cusps)."""
    t = grid.points
    k = np.arange(1, harmonics + 1)
    a = rng.normal(0.0, 1.0 / k, harmonics)
    b = rng.normal(0.0, 1.0 / k, harmonics)
    q = sum(a[i] * np.sin(2 * np.pi * k[i] * t)
            + b[i] * np.cos(2 * np.pi * k[i] * t) for i in range(harmonics))
    return SrvfCurve(grid, q + rng.normal())


@pytest.fixture
def grid101():
    return TimeGrid(101)


@pytest.fixture
def grid201():
    return TimeGrid(201)


@pytest.fixture
def wavy101(grid101):
    return wavy_template(grid101)


@pytest.fixture
def pools(monkeypatch):
    """Every fork pool `core.fork_map` starts while the test runs, in order.
    Each records the item count of each of its maps."""
    started = []

    class Counted(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.maps = []
            started.append(self)

        def map(self, fn, items, **kwargs):
            self.maps.append(len(items))
            return super().map(fn, items, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return started


FAST = dict(grid_n=61, mean_max_iter=10)


@pytest.fixture
def cohort_dir(tmp_path):
    return write_cohort(tmp_path / "cohort", n_healthy=3, n_patients=2,
                        seed=5, rate_hz=50.0, duration_s=2.0)


def two_cpus():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two usable CPUs")


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def python(code, *args, **kwargs):
    """A fresh interpreter running `code` with this motionshape importable."""
    src = str(Path(motionshape.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-c", code, *map(str, args)],
                            stdout=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": path}, **kwargs)


def write_manifest(path, entries):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["participant_id", "cohort", "trial_path",
                    "brooke_score", "dynamometry"])
        w.writerows(entries)


def extend_manifest(manifest, name, rows):
    """Copy of `manifest` next to it, with `rows` (dicts) appended."""
    with manifest.open(newline="") as fh:
        entries = list(csv.DictReader(fh)) + rows
    out = manifest.parent / name
    with out.open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(entries[0]))
        w.writeheader()
        w.writerows(entries)
    return out


def trial_row(pid, trial_path):
    return {"participant_id": pid, "cohort": "DMD", "trial_path": trial_path,
            "brooke_score": "", "dynamometry": ""}
