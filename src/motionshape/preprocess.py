"""Raw sensor data -> smooth, uniformly resampled trajectories.

The chain is: resample onto a uniform grid over the recording's time span
(domain normalized to [0, 1]), zero-phase Butterworth low-pass, then
differentiate when the SRVF transform needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal

from .core import (
    InsufficientDataError,
    ParameterError,
    TimeGrid,
    Trajectory,
)

__all__ = ["RawRecording", "resample", "butterworth_lowpass", "derivative"]

# edge padding per filter order; a filtered signal must be longer than it
_PADLEN_PER_ORDER = 3


@dataclass(frozen=True)
class RawRecording:
    """One trial as it comes off the sensor: timestamps in seconds + samples."""

    timestamps: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float)
        x = np.asarray(self.samples, dtype=float)
        if t.ndim != 1 or x.ndim != 1 or t.size != x.size:
            raise InsufficientDataError(
                f"timestamps and samples must be equal-length 1-d arrays, "
                f"got {t.shape} and {x.shape}"
            )
        if t.size < 2:
            raise InsufficientDataError(f"need at least 2 samples, got {t.size}")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(x))):
            raise InsufficientDataError("recording contains non-finite values")
        bad = np.nonzero(np.diff(t) <= 0)[0]
        if bad.size:
            raise InsufficientDataError(
                f"timestamps not strictly increasing at row {int(bad[0]) + 1}"
            )
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "samples", x)


def resample(rec: RawRecording, n: int) -> Trajectory:
    """Linearly interpolate a recording onto a uniform n-point grid.

    The recording's time span maps affinely onto [0, 1].
    """
    grid = TimeGrid(n)
    t0, t1 = rec.timestamps[0], rec.timestamps[-1]
    query = t0 + grid.points * (t1 - t0)
    return Trajectory(grid, np.interp(query, rec.timestamps, rec.samples))


def butterworth_lowpass(traj: Trajectory, order: int = 3,
                        cutoff_ratio: float = 0.1) -> Trajectory:
    """Zero-phase low-pass Butterworth filter.

    `cutoff_ratio` is the cutoff frequency as a fraction of the Nyquist
    frequency of the trajectory's own grid. The filter runs forward and
    backward (so the net gain at the cutoff is -6 dB) with reflective edge
    padding of length 3 * order, so the signal needs more samples than that.
    """
    if order < 1:
        raise ParameterError(f"filter order must be >= 1, got {order}")
    if not (0.0 < cutoff_ratio < 1.0):
        raise ParameterError(
            f"cutoff_ratio must be in (0, 1), got {cutoff_ratio}"
        )
    padlen = _PADLEN_PER_ORDER * order
    if traj.grid.n <= padlen:
        raise ParameterError(
            f"signal too short to filter: n={traj.grid.n} <= padlen={padlen}"
        )
    b, a = signal.butter(order, cutoff_ratio)
    smoothed = signal.filtfilt(b, a, traj.values, padtype="even", padlen=padlen)
    return Trajectory(traj.grid, smoothed)


def derivative(traj: Trajectory) -> Trajectory:
    """Differentiate with respect to normalized time t in [0, 1].

    Central differences inside, second-order one-sided at the endpoints
    (exact for quadratics).
    """
    d = np.gradient(traj.values, traj.grid.spacing, edge_order=2)
    return Trajectory(traj.grid, d)
