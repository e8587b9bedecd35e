"""The output format: CSV and JSON writers for a run's files, and `publish`,
which moves a run's files into its output directory.

Numbers are written with 9 significant digits everywhere, NaN spelled "nan".
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import tempfile
from contextlib import contextmanager, nullcontext, suppress
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

try:
    import fcntl
except ImportError:  # Windows: no flock
    fcntl = None

# descriptors of the output directories this process holds locked
_locked: set[int] = set()


def _close_locked():
    """In a forked child: close its copies of the locked descriptors, so a
    worker that outlives a killed run does not keep its --out locked."""
    for fd in _locked:
        os.close(fd)
    _locked.clear()


if fcntl is not None:
    os.register_at_fork(after_in_child=_close_locked)

if TYPE_CHECKING:
    from .analytics import DistanceMatrix
    from .core import Trajectory
    from .pipeline import CohortReport, ParticipantScore
    from .registration import Alignment

__all__ = [
    "publish",
    "write_csv",
    "write_distances_csv",
    "write_matrix_csv",
    "write_mean_csv",
    "write_alignment_csvs",
    "write_rolling_csv",
    "write_stats_json",
]


@contextmanager
def _claim(out: Path):
    """Hold `out` locked while the block runs, first removing the staging
    left in it by a killed run; OSError if another run holds it."""
    fd = os.open(out, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise OSError(f"{out}: --out is in use by another run") from None
        _locked.add(fd)
        for stale in out.glob(".staging-*"):
            if stale.is_dir() and not stale.is_symlink():
                shutil.rmtree(stale)
        yield
    finally:
        _locked.discard(fd)
        os.close(fd)  # which releases the lock


@contextmanager
def publish(out: Path):
    """Yield an empty staging directory to write a run's files into; when
    the block ends without an exception, each top-level file or directory
    there replaces its namesake in `out`, whole.

    `out` is created if needed. While the block runs, `out` is locked
    (`flock` on the directory), so a second run into it fails at once with
    an OSError, and every `.staging-*` directory left in `out` by a killed
    run is removed first; where `fcntl` does not exist there is no lock and
    no such clean-up. A block that raises leaves `out` as it was. The staging
    directory is hidden inside `out` and removed either way, unless the
    process is killed.
    """
    out.mkdir(parents=True, exist_ok=True)
    with _claim(out) if fcntl is not None else nullcontext(), \
            tempfile.TemporaryDirectory(prefix=".staging-", dir=out) as staging:
        new, old = Path(staging, "new"), Path(staging, "old")
        new.mkdir()
        old.mkdir()
        yield new
        for entry in sorted(new.iterdir()):
            target = out / entry.name
            if entry.is_dir() or target.is_dir():  # replaced whole, not merged
                with suppress(FileNotFoundError):  # nothing to replace
                    target.rename(old / entry.name)
            entry.replace(target)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_distances_csv(path: Path, scores: list[ParticipantScore]) -> None:
    write_csv(path, ["participant", "cohort", "amplitude", "phase", "cosine"],
              [[s.label, s.cohort, _fmt(s.triple.amplitude),
                _fmt(s.triple.phase), _fmt(s.triple.cosine)] for s in scores])


def write_matrix_csv(path: Path, matrix: DistanceMatrix) -> None:
    rows = [[lbl] + [_fmt(v) for v in row]
            for lbl, row in zip(matrix.labels, matrix.values)]
    write_csv(path, ["label"] + list(matrix.labels), rows)


def write_mean_csv(path: Path, mean: Trajectory) -> None:
    write_csv(path, ["t", "value"],
              [[_fmt(t), _fmt(v)] for t, v in zip(mean.grid.points, mean.values)])


def write_alignment_csvs(out_dir: Path, labels: list[str],
                         alignment: Alignment) -> None:
    """aligned_curves.csv and warps.csv, one row per trial and grid point."""
    pts = alignment.warps[0].grid.points
    curve_rows, warp_rows = [], []
    for label, aligned, warp in zip(labels, alignment.aligned, alignment.warps):
        curve_rows += [[label, _fmt(t), _fmt(v)]
                       for t, v in zip(pts, aligned.values)]
        warp_rows += [[label, _fmt(t), _fmt(g)] for t, g in zip(pts, warp.gamma)]
    write_csv(out_dir / "aligned_curves.csv", ["participant", "t", "value"],
              curve_rows)
    write_csv(out_dir / "warps.csv", ["participant", "t", "gamma"], warp_rows)


def write_rolling_csv(path: Path, grid_points: np.ndarray, window: int,
                      values: np.ndarray) -> None:
    """One trial's rolling correlation; creates the file's directory."""
    path.parent.mkdir(exist_ok=True)
    h = grid_points[1] - grid_points[0]
    centers = grid_points[: values.size] + 0.5 * (window - 1) * h
    write_csv(path, ["t_center", "correlation"],
              [[_fmt(t), _fmt(v)] for t, v in zip(centers, values)])


def write_stats_json(path: Path, report: CohortReport) -> None:
    """The report's summary as JSON; a NaN raises instead of writing NaN."""
    with path.open("w") as fh:
        json.dump(report.summary_dict(), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
