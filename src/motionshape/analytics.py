"""Cohort-level statistics over registration outputs.

Distance matrices, Welch's unequal-variance t-test, ordinary least squares
against clinical covariates, and rolling correlation along aligned signals;
and the cohort tests of a run's per-trial `ParticipantScore`s built on them.
The Student-t tail probability is computed from the regularized incomplete
beta function (continued-fraction evaluation), so results do not depend on
any statistics library.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import exp, isfinite, lgamma, log, log1p, sqrt

import numpy as np

from .core import (
    DegenerateInputError,
    DimensionError,
    DistanceTriple,
    InsufficientDataError,
    ParameterError,
    Trajectory,
    common_grid,
    frozen,
    l2_norm,
)
from .registration import (
    DEFAULT_MAX_SLOPE,
    align_pairwise,
    cosine_distance,
    to_srvf,
)

__all__ = [
    "DistanceMatrix",
    "TTestResult",
    "RegressionResult",
    "ParticipantScore",
    "pairwise_matrix",
    "welch_t_test",
    "linear_regression",
    "rolling_correlation",
    "t_two_sided_pvalue",
    "cohort_t_tests",
    "cohort_regressions",
    "block_summary",
]

METRICS = ("amplitude", "phase", "cosine")


@dataclass(frozen=True)
class DistanceMatrix:
    labels: list[str]
    values: np.ndarray

    def __post_init__(self):
        # a read-only copy, so no later write can undo the checks below
        v = frozen(self.values)
        m = len(self.labels)
        if v.shape != (m, m):
            raise DimensionError(f"expected {m}x{m} matrix, got {v.shape}")
        if not np.all(np.isfinite(v)):  # NaN would pass every check below
            raise DegenerateInputError("distance matrix has non-finite entries")
        if np.abs(np.diagonal(v)).max(initial=0.0) > 1e-9:
            raise DegenerateInputError("distance matrix diagonal is not zero")
        if np.abs(v - v.T).max(initial=0.0) > 1e-9:
            raise DegenerateInputError("distance matrix is not symmetric")
        if v.min(initial=0.0) < -1e-12:
            raise DegenerateInputError("distance matrix has negative entries")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    p_value: float
    dof: float

    def __post_init__(self):
        if not (0.0 <= self.p_value <= 1.0):
            raise DegenerateInputError(f"p-value {self.p_value} outside [0, 1]")
        if self.dof <= 0:
            raise DegenerateInputError(f"dof must be positive, got {self.dof}")


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    r: float
    p_value: float

    def __post_init__(self):
        if self.r * self.r > 1.0 + 1e-12:
            raise DegenerateInputError(f"|r| > 1: {self.r}")
        if not (0.0 <= self.p_value <= 1.0):
            raise DegenerateInputError(f"p-value {self.p_value} outside [0, 1]")


@dataclass(frozen=True)
class ParticipantScore:
    label: str
    cohort: str
    brooke_score: int | None
    dynamometry: float | None
    triple: DistanceTriple


# ---------------------------------------------------------------------------
# Student-t tail probability via the regularized incomplete beta function.
# ---------------------------------------------------------------------------

_CF_EPS = 3e-16
_CF_FPMIN = 1e-300
_CF_MAXIT = 400


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAXIT + 1):
        m2 = 2 * m
        # the even coefficient d_2m, then the odd one d_2m+1
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _CF_FPMIN:
                d = _CF_FPMIN
            c = 1.0 + aa / c
            if abs(c) < _CF_FPMIN:
                c = _CF_FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = exp(lgamma(a + b) - lgamma(a) - lgamma(b)
                + a * log(x) + b * log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_sided_pvalue(t: float, dof: float) -> float:
    """P(|T| >= |t|) for Student's t with `dof` degrees of freedom."""
    # Python floats: t * t then overflows to inf quietly (numpy scalars warn),
    # and the p-value comes back as a float
    t, dof = float(t), float(dof)
    if not isfinite(dof) or dof <= 0:
        raise ParameterError(f"dof must be positive and finite, got {dof}")
    if not isfinite(t):
        return 0.0
    return min(1.0, _betainc(0.5 * dof, 0.5, dof / (dof + t * t)))


# ---------------------------------------------------------------------------
# Tests and fits
# ---------------------------------------------------------------------------

def welch_t_test(a, b) -> TTestResult:
    """Two-sample t-test without the equal-variance assumption.

    Degrees of freedom follow Welch-Satterthwaite; the p-value is two-sided.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise InsufficientDataError(
            f"each sample needs >= 2 values, got {a.size} and {b.size}"
        )
    va = a.var(ddof=1) / a.size
    vb = b.var(ddof=1) / b.size
    se2 = va + vb
    diff = a.mean() - b.mean()
    if se2 == 0.0:
        if diff == 0.0:
            return TTestResult(0.0, 1.0, float(a.size + b.size - 2))
        raise DegenerateInputError("zero variance in both samples, unequal means")
    t = diff / sqrt(se2)
    # Welch-Satterthwaite on variance *ratios* so tiny variances cannot
    # underflow the squared terms
    wa, wb = va / se2, vb / se2
    dof = 1.0 / (wa * wa / (a.size - 1) + wb * wb / (b.size - 1))
    return TTestResult(float(t), t_two_sided_pvalue(t, dof), float(dof))


def linear_regression(x, y) -> RegressionResult:
    """Ordinary least squares of y on x with a two-sided slope test.

    Sums of squares that underflow to 0 or overflow to inf, which values
    near the ends of the float range give, raise DegenerateInputError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise DimensionError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 3:
        raise InsufficientDataError(f"need >= 3 points, got {x.size}")
    if np.all(x == x[0]):
        raise DegenerateInputError("regressor x is constant")
    if np.all(y == y[0]):
        return RegressionResult(0.0, float(y[0]), 0.0, 1.0)
    with np.errstate(all="ignore"):  # out-of-range sums are refused below
        dx = x - x.mean()
        dy = y - y.mean()
        sxx = float(dx @ dx)
        syy = float(dy @ dy)
        sxy = float(dx @ dy)
    if not (isfinite(sxx) and sxx > 0.0):
        raise DegenerateInputError(
            f"x spread out of float range (Sxx {sxx:g})")
    if not (isfinite(sxx * syy) and sxx * syy > 0.0 and isfinite(sxy)):
        raise DegenerateInputError(
            f"x and y spreads out of float range "
            f"(Sxx*Syy {sxx * syy:g}, Sxy {sxy:g})")
    slope = sxy / sxx
    intercept = float(y.mean() - slope * x.mean())
    r = float(np.clip(sxy / sqrt(sxx * syy), -1.0, 1.0))
    dof = x.size - 2
    one_minus_r2 = max(0.0, 1.0 - r * r)
    if one_minus_r2 == 0.0:
        p = 0.0
    else:
        p = t_two_sided_pvalue(r * sqrt(dof / one_minus_r2), dof)
    return RegressionResult(float(slope), intercept, r, p)


def cohort_t_tests(scores: list[ParticipantScore]) -> dict:
    healthy = [s for s in scores if s.cohort == "healthy"]
    patients = [s for s in scores if s.cohort != "healthy"]
    out = {}
    for metric in METRICS:
        if len(healthy) < 2 or len(patients) < 2:
            out[metric] = {"skipped": "need >= 2 trials per group"}
            continue
        try:
            res = welch_t_test([getattr(s.triple, metric) for s in healthy],
                               [getattr(s.triple, metric) for s in patients])
        except DegenerateInputError as exc:
            out[metric] = {"skipped": str(exc)}
            continue
        out[metric] = {"t": res.t_statistic, "p": res.p_value, "dof": res.dof}
    return out


def cohort_regressions(scores: list[ParticipantScore]) -> dict:
    out = {}
    covariates = {
        "brooke": lambda s: s.brooke_score,
        "dynamometry": lambda s: s.dynamometry,
    }
    for metric in ("amplitude", "phase"):
        for cov_name, get in covariates.items():
            key = f"{metric}_vs_{cov_name}"
            subset = [(float(get(s)), getattr(s.triple, metric))
                      for s in scores if get(s) is not None]
            if len(subset) < 3:
                out[key] = {"n": len(subset), "skipped": "fewer than 3 points"}
                continue
            x = [p[0] for p in subset]
            y = [p[1] for p in subset]
            try:
                res = linear_regression(x, y)
            except DegenerateInputError as exc:
                out[key] = {"n": len(subset), "skipped": str(exc)}
                continue
            out[key] = {"n": len(subset), "slope": res.slope,
                        "intercept": res.intercept, "r": res.r,
                        "p": res.p_value}
    return out


def rolling_correlation(a: Trajectory, b: Trajectory, window: int) -> np.ndarray:
    """Pearson correlation over sliding windows (stride 1).

    Returns a read-only array, one value per window; windows where either
    side has zero variance come back as NaN so positions stay aligned.
    """
    n = common_grid([a, b]).n
    if not (3 <= window <= n):
        raise ParameterError(f"window must be in [3, {n}], got {window}")
    wa = np.lib.stride_tricks.sliding_window_view(a.values, window)
    wb = np.lib.stride_tricks.sliding_window_view(b.values, window)
    ca = wa - wa.mean(axis=1, keepdims=True)
    cb = wb - wb.mean(axis=1, keepdims=True)
    sxy = (ca * cb).sum(axis=1)
    denom2 = (ca * ca).sum(axis=1) * (cb * cb).sum(axis=1)
    out = np.full(n - window + 1, np.nan)
    ok = denom2 > 0.0
    out[ok] = sxy[ok] / np.sqrt(denom2[ok])
    return frozen(out)


# ---------------------------------------------------------------------------
# Pairwise distance matrices
# ---------------------------------------------------------------------------

def pairwise_matrix(curves: list[Trajectory], metric: str, registered: bool,
                    max_slope: int = DEFAULT_MAX_SLOPE,
                    labels: list[str] | None = None) -> DistanceMatrix:
    """All-pairs distances, optionally after per-pair elastic alignment.

    With `registered`, entry (i, j) aligns curve j onto curve i as
    `align_pairwise` does, so each registered metric, amplitude and phase
    included, raises DegenerateInputError for a curve whose L2 norm, or
    whose aligned copy's, is below MIN_SIGNAL_NORM. The slightly asymmetric
    result is symmetrized as (D + D^T)/2. Unregistered metrics are exactly
    symmetric, so each unordered pair is evaluated once and (D + D^T)/2
    leaves them bit for bit. The phase metric only exists for registered
    pairs. Rows and columns are named by `labels`, or "0".."m-1" when none
    are given.
    """
    if metric not in METRICS:
        raise ParameterError(f"unknown metric {metric!r}; pick one of {METRICS}")
    if metric == "phase" and not registered:
        raise ParameterError("phase distances require registered=True")
    if len(curves) < 2:
        raise InsufficientDataError("need at least 2 curves")
    grid = common_grid(curves)
    m = len(curves)
    if labels is None:
        labels = [str(i) for i in range(m)]
    d = np.zeros((m, m))
    if registered:
        triples = align_pairwise(curves, max_slope).distances
        # a boolean mask fills row-major, the order of the pairs
        d[~np.eye(m, dtype=bool)] = [getattr(t, metric) for t in triples]
    elif metric == "amplitude":
        qs = [to_srvf(c).q for c in curves]
        for i, j in combinations(range(m), 2):
            d[i, j] = d[j, i] = l2_norm(qs[i] - qs[j], grid)
    else:
        for i, j in combinations(range(m), 2):
            d[i, j] = d[j, i] = cosine_distance(curves[i], curves[j])
    d = 0.5 * (d + d.T)
    d[d < 0] = 0.0  # cosine can round to -1e-17 on near-identical pairs
    return DistanceMatrix(labels, d)


def block_summary(matrix: DistanceMatrix, cohorts: list[str]) -> dict | None:
    """Mean within-healthy and healthy-to-patient distances, plus their ratio."""
    is_h = np.array([c == "healthy" for c in cohorts])
    if is_h.sum() < 2 or (~is_h).sum() < 1:
        return None
    v = matrix.values
    hh = v[np.ix_(is_h, is_h)]
    within = float(hh[np.triu_indices_from(hh, k=1)].mean())
    between = float(v[np.ix_(is_h, ~is_h)].mean())
    return {
        "within_healthy": within,
        "between": between,
        "ratio": between / within if within > 0 else None,
    }
