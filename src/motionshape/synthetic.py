"""Deterministic synthetic trajectories for tests, demos, and benchmarks.

Everything here is seeded: the same seed always produces the same cohort,
byte for byte, which the pipeline's determinism guarantees rely on.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .core import TimeGrid, Trajectory, Warping

__all__ = [
    "bimodal_template",
    "random_smooth_warp",
    "write_cohort",
]

_HARMONICS = 3  # sine terms in a random warp's log-slope
_NOISE_SD = 0.01  # of the white noise added to every trial


def bimodal_template(grid: TimeGrid) -> Trajectory:
    """Arm-curl-like angular-velocity profile: two positive lobes."""
    t = grid.points
    v = (0.65 * np.exp(-((t - 0.33) ** 2) / (2 * 0.09 ** 2))
         + 1.0 * np.exp(-((t - 0.62) ** 2) / (2 * 0.10 ** 2)))
    return Trajectory(grid, v)


def random_smooth_warp(grid: TimeGrid, rng: np.random.Generator,
                       scale: float = 0.3) -> Warping:
    """Random boundary-preserving diffeomorphism of [0, 1].

    Built as the normalized integral of exp(random low-frequency series), so
    the slope stays within roughly exp(+-2*scale) of 1.
    """
    t = grid.points
    coef = rng.normal(0.0, scale / np.arange(1, _HARMONICS + 1), _HARMONICS)
    rate = np.exp(sum(c * np.sin(2 * np.pi * (k + 1) * t)
                      for k, c in enumerate(coef)))
    g = np.concatenate([[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]))])
    return Warping(grid, g / g[-1])


def _degraded_values(t: np.ndarray, severity: float) -> np.ndarray:
    # Weaker motion: both lobes shrink, the second (the one needing sustained
    # effort) disproportionately so. Changes normalized shape, not just scale.
    first = severity * 0.65 * np.exp(-((t - 0.33) ** 2) / (2 * 0.09 ** 2))
    second = severity ** 2 * 0.9 * np.exp(-((t - 0.62) ** 2) / (2 * 0.10 ** 2))
    return first + second


def write_cohort(out_dir: Path | str, n_healthy: int = 10, n_patients: int = 10,
                 seed: int = 1234, null_effect: bool = False,
                 rate_hz: float = 200.0, duration_s: float = 4.0) -> Path:
    """Write trial CSVs plus a manifest; returns the manifest path.

    Healthy participants perform time-warped copies of the template. Patients
    perform amplitude-degraded versions (severity varies per participant)
    unless `null_effect` is set, in which case their trials are literal copies
    of the healthy ones and every planted group difference vanishes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    k = int(round(rate_hz * duration_s)) + 1
    t_s = np.arange(k) / rate_hz
    t_norm = t_s / t_s[-1]
    fine = TimeGrid(k)
    template = bimodal_template(fine).values

    def emit(name: str, values: np.ndarray) -> str:
        path = out / f"{name}.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time_s", "gyro"])
            for ts, v in zip(t_s, values):
                w.writerow([f"{ts:.9g}", f"{v:.9g}"])
        return path.name

    rows = []
    healthy_values = []
    for i in range(n_healthy):
        warp = random_smooth_warp(fine, rng, scale=0.35)
        values = np.interp(warp.gamma, t_norm, template)
        values = values + rng.normal(0.0, _NOISE_SD, k)
        healthy_values.append(values)
        name = f"healthy_{i:02d}"
        dyn = 20.0 * float(rng.uniform(0.95, 1.1))
        rows.append({
            "participant_id": f"H{i:02d}",
            "cohort": "healthy",
            "trial_path": emit(name, values),
            "brooke_score": "",
            "dynamometry": f"{dyn:.9g}",
        })

    for i in range(n_patients):
        pid = f"P{i:02d}"
        cohort = "DMD" if i % 2 == 0 else "SMA"
        if null_effect:
            values = healthy_values[i % n_healthy]
            severity = 1.0
        else:
            severity = float(rng.uniform(0.35, 0.8))
            warp = random_smooth_warp(fine, rng, scale=0.45)
            degraded = _degraded_values(t_norm, severity)
            values = np.interp(warp.gamma, t_norm, degraded)
            values = values + rng.normal(0.0, _NOISE_SD, k)
        dyn = 20.0 * severity + float(rng.normal(0.0, 0.4))
        brooke = int(np.clip(round(6 - 5 * severity), 1, 6))
        rows.append({
            "participant_id": pid,
            "cohort": cohort,
            "trial_path": emit(f"patient_{i:02d}", values),
            "brooke_score": str(brooke),
            "dynamometry": f"{dyn:.9g}",
        })

    manifest = out / "manifest.csv"
    with manifest.open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["participant_id", "cohort",
                                           "trial_path", "brooke_score",
                                           "dynamometry"])
        w.writeheader()
        w.writerows(rows)
    return manifest
