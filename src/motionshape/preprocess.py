"""Raw sensor data -> smooth, uniformly resampled trajectories.

The chain is: resample onto a uniform grid over the recording's time span
(domain normalized to [0, 1]), zero-phase Butterworth low-pass, then
differentiate when the SRVF transform needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DegenerateInputError,
    InsufficientDataError,
    ParameterError,
    TimeGrid,
    Trajectory,
)

__all__ = [
    "PADLEN_PER_ORDER",
    "RawRecording",
    "resample",
    "butterworth_lowpass",
    "derivative",
]

# edge padding per filter order; a filtered signal must be longer than it
PADLEN_PER_ORDER = 3


@dataclass(frozen=True)
class RawRecording:
    """One trial as it comes off the sensor: timestamps in seconds + samples.
    Each is held as a read-only copy."""

    timestamps: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        t = np.array(self.timestamps, dtype=float)
        x = np.array(self.samples, dtype=float)
        t.flags.writeable = x.flags.writeable = False
        if t.ndim != 1 or x.ndim != 1 or t.size != x.size:
            raise InsufficientDataError(
                f"timestamps and samples must be equal-length 1-d arrays, "
                f"got {t.shape} and {x.shape}"
            )
        if t.size < 2:
            raise InsufficientDataError(f"need at least 2 samples, got {t.size}")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(x))):
            raise InsufficientDataError("recording contains non-finite values")
        bad = np.nonzero(t[1:] <= t[:-1])[0]  # np.diff can overflow
        if bad.size:
            raise InsufficientDataError(
                f"timestamps not strictly increasing at row {int(bad[0]) + 1}"
            )
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "samples", x)


def resample(rec: RawRecording, n: int) -> Trajectory:
    """Linearly interpolate a recording onto a uniform n-point grid.

    The recording's time span maps affinely onto [0, 1]; a span too long
    for a float, or steps so short that a slope between samples overflows,
    raises DegenerateInputError.
    """
    grid = TimeGrid(n)
    t0, t1 = rec.timestamps[0], rec.timestamps[-1]
    span = float(t1) - float(t0)  # Python floats overflow to inf quietly
    if np.isinf(span):
        raise DegenerateInputError(f"time span {t0:g} to {t1:g} s overflows")
    query = t0 + grid.points * span
    values = np.interp(query, rec.timestamps, rec.samples)  # warns nothing
    if not np.all(np.isfinite(values)):  # finite samples: a slope overflowed
        raise DegenerateInputError(
            f"time steps too small to interpolate "
            f"(smallest {np.diff(rec.timestamps).min():g} s)")
    return Trajectory(grid, values)


def _butter_lowpass_ba(order: int, cutoff_ratio: float):
    # analog prototype poles on the unit circle, the cutoff prewarped for the
    # bilinear transform s -> 4 (z - 1) / (z + 1) (sample rate 2, Nyquist 1);
    # the zeros all land at z = -1
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    poles = -np.exp(1j * np.pi * m / (2 * order))
    warped = float(4.0 * np.tan(np.pi * np.float64(cutoff_ratio) / 2.0))
    poles = warped * poles
    fs2 = 4.0
    poles_z = (fs2 + poles) / (fs2 - poles)
    gain_z = warped**order * np.real(np.float64(1.0) / np.prod(fs2 - poles))
    return gain_z * np.poly(-np.ones(order)), np.poly(poles_z)


def _steady_state(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    # filter state once a unit step has settled: zi = C^T zi + B with C the
    # companion matrix of a (a[0] == 1)
    n = a.size
    companion = np.zeros((n - 1, n - 1))
    companion[0] = -a[1:]
    companion[np.arange(1, n - 1), np.arange(n - 2)] = 1.0
    return np.linalg.solve(np.eye(n - 1) - companion.T, b[1:] - a[1:] * b[0])


def _lfilter(b: list[float], a: list[float], x, z: list[float]) -> list[float]:
    # direct-form II transposed, one sample at a time
    last = len(b) - 1
    y = []
    for xn in x:
        yn = z[0] + b[0] * xn
        for i in range(last - 1):
            z[i] = z[i + 1] + xn * b[i + 1] - yn * a[i + 1]
        z[last - 1] = xn * b[last] - yn * a[last]
        y.append(yn)
    return y


def butterworth_lowpass(traj: Trajectory, order: int = 3,
                        cutoff_ratio: float = 0.1) -> Trajectory:
    """Zero-phase low-pass Butterworth filter.

    `cutoff_ratio` is the cutoff frequency as a fraction of the Nyquist
    frequency of the trajectory's own grid. The design is the analog
    Butterworth prototype mapped by the prewarped bilinear transform
    (Oppenheim & Schafer, *Discrete-Time Signal Processing*). The filter runs
    forward and backward (so the net gain at the cutoff is -6 dB), starting
    each pass from the steady state of the step response scaled by the first
    sample (Gustafsson, IEEE TSP 1996), over the signal with even (mirror)
    padding of length 3 * order at each end, so the signal needs more samples
    than that. Coefficients and output match SciPy's
    `signal.butter(order, cutoff_ratio)` and
    `signal.filtfilt(b, a, x, padtype="even", padlen=3 * order)` bit for bit.
    """
    if order < 1:
        raise ParameterError(f"filter order must be >= 1, got {order}")
    if not (0.0 < cutoff_ratio < 1.0):
        raise ParameterError(
            f"cutoff_ratio must be in (0, 1), got {cutoff_ratio}"
        )
    padlen = PADLEN_PER_ORDER * order
    if traj.grid.n <= padlen:
        raise ParameterError(
            f"signal too short to filter: n={traj.grid.n} <= padlen={padlen}"
        )
    b, a = _butter_lowpass_ba(order, cutoff_ratio)
    zi = _steady_state(b, a)
    x = traj.values
    ext = np.concatenate((x[padlen:0:-1], x, x[-2:-(padlen + 2):-1]))
    bl, al = b.tolist(), a.tolist()
    y = _lfilter(bl, al, ext.tolist(), (zi * ext[0]).tolist())
    y = _lfilter(bl, al, reversed(y), (zi * y[-1]).tolist())
    return Trajectory(traj.grid, np.array(y[-padlen - 1:padlen - 1:-1]))


def derivative(traj: Trajectory) -> Trajectory:
    """Differentiate with respect to normalized time t in [0, 1].

    Central differences inside, second-order one-sided at the endpoints
    (exact for quadratics).
    """
    d = np.gradient(traj.values, traj.grid.spacing, edge_order=2)
    return Trajectory(traj.grid, d)
