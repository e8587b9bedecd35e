"""Elastic curve registration in square-root velocity space.

A trajectory beta is represented by q = sign(beta') * sqrt(|beta'|). Time
warps act on this representation by (q, gamma) -> (q o gamma) * sqrt(gamma'),
which is an isometry of the L2 metric, so the elastic (amplitude) distance
between two curves is the L2 distance after optimizing the warp. The warp
search is a dynamic program over monotone lattice paths with slope bounded
away from 0 and infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    DegenerateInputError,
    SrvfCurve,
    TimeGrid,
    Trajectory,
    Warping,
    common_grid,
    inner_product,
    l2_norm,
)
from .preprocess import derivative

__all__ = [
    "RegistrationResult",
    "to_srvf",
    "from_srvf",
    "group_action",
    "optimal_warping",
    "alignment_cost",
    "amplitude_distance",
    "phase_distance",
    "cosine_distance",
    "warped_copy",
    "phase_amplitude_separation",
    "align_to_reference",
]

DEFAULT_MAX_SLOPE = 7
# signals with a smaller L2 norm have no direction, so no cosine distance
MIN_SIGNAL_NORM = 1e-12


@dataclass(frozen=True)
class RegistrationResult:
    """Elastic mean plus the per-curve warps and aligned signals."""

    mean: Trajectory
    warps: list[Warping]
    aligned: list[Trajectory]
    iterations: int
    converged: bool


def to_srvf(traj: Trajectory) -> SrvfCurve:
    """Square-root velocity transform q = sign(beta') sqrt(|beta'|).

    Points where the derivative vanishes map to q = 0.
    """
    d = derivative(traj).values
    return SrvfCurve(traj.grid, np.sign(d) * np.sqrt(np.abs(d)))


def from_srvf(q: SrvfCurve, beta0: float = 0.0) -> Trajectory:
    """Invert the SRVF map: beta(t) = beta0 + int_0^t q|q| ds (trapezoids)."""
    y = q.q * np.abs(q.q)
    trapezoids = q.grid.spacing * (y[1:] + y[:-1]) / 2.0
    beta = beta0 + np.concatenate(([0.0], np.cumsum(trapezoids)))
    return Trajectory(q.grid, beta)


def _warp_rate(w: Warping) -> np.ndarray:
    # central differences; the one-sided endpoint stencils can go slightly
    # negative on piecewise-linear warps, so clamp at zero before sqrt.
    rate = np.gradient(w.gamma, w.grid.spacing, edge_order=2)
    return np.maximum(rate, 0.0)


def group_action(q: SrvfCurve, w: Warping) -> SrvfCurve:
    """Apply a warp to an SRVF: (q o gamma) * sqrt(gamma')."""
    common_grid([q, w])
    warped = np.interp(w.gamma, q.grid.points, q.q)
    return SrvfCurve(q.grid, warped * np.sqrt(_warp_rate(w)))


def _edge_steps(max_slope: int) -> list[tuple[int, int]]:
    if max_slope < 1:
        raise DegenerateInputError(f"max_slope must be >= 1, got {max_slope}")
    return sorted(
        (a, b)
        for a in range(1, max_slope + 1)
        for b in range(1, max_slope + 1)
        if gcd(a, b) == 1
    )


def _arrival_costs(q1: np.ndarray, q2: np.ndarray, n: int,
                   edges: list[tuple[int, int]]) -> np.ndarray:
    """Cost of every lattice edge, indexed by the node it arrives at.

    The edge from node (i-a, j-b) to (i, j) carries the trapezoid-rule
    integral of (q1(t) - sqrt(b/a) * q2(gamma(t)))^2 over the a+1 grid points
    it spans, with gamma linear on the segment and q2 linearly interpolated.
    out[i, e, j] holds that value for edge shape e = (a, b), and inf where
    the edge would start off the grid (i < a or j < b). `edges` is sorted,
    so the shapes sharing a row step a are contiguous and are evaluated
    together, one trapezoid point k at a time.
    """
    h = 1.0 / (n - 1)
    idx = np.arange(n, dtype=float)
    steps = np.array(edges)
    out = np.full((n, len(edges), n), np.inf)
    for a in range(1, steps[-1, 0] + 1):
        group = slice(*np.searchsorted(steps[:, 0], [a, a + 1]))
        b = steps[group, 1][:, None]
        sq = np.sqrt(b / a)
        start = idx - b  # departure column j - b of each arrival column j
        rows = n - a
        for k in range(a + 1):
            q2v = np.interp(start + k * b / a, idx, q2)
            # one row per departure row i - a, holding every (edge, j)
            diff = q1[k:k + rows, None] - (sq * q2v).ravel()
            term = 0.5 * diff if k in (0, a) else diff
            term *= diff
            if k == 0:
                block = term
            else:
                block += term
        block *= h
        block = block.reshape(rows, -1, n)
        block[:, start < 0] = np.inf
        out[a:, group] = block
    return out


def _dp_path(q1: np.ndarray, q2: np.ndarray, n: int,
             max_slope: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimum-cost monotone lattice path from (0,0) to (n-1,n-1).

    Steps are the coprime pairs (a, b) with 1 <= a, b <= max_slope, so path
    slopes stay within [1/max_slope, max_slope]. Ties prefer the diagonal
    step, which keeps the identity warp for self-alignment. The diagonal
    alone reaches (n-1, n-1), so the walk back only visits finite cells.

    `dist` is kept flat with p = max(a) rows and columns of inf in front,
    so the departure cells of every edge arriving on one row are a single
    gather at fixed offsets from that row's start.
    """
    edges = [(a, b) for a, b in _edge_steps(max_slope) if a < n and b < n]
    arrive = _arrival_costs(q1, q2, n, edges)
    p = max(a for a, _ in edges)
    width = n + p
    dist = np.full((n + p) * width, np.inf)
    dist[p * width + p] = 0.0
    # edge e arriving on row i departs from window i * width + offset[e]
    windows = sliding_window_view(dist, n)
    offset = np.array([(p - a) * width + p - b for a, b in edges])
    pred = np.zeros((n, n), dtype=np.int32)
    cols = np.arange(n)
    for i in range(1, n):
        cand = windows[i * width + offset]
        cand += arrive[i]
        pred[i] = cand.argmin(axis=0)  # first minimum wins; (1,1) is edge 0
        row = (p + i) * width + p
        dist[row:row + n] = cand[pred[i], cols]

    vi, vj = [n - 1], [n - 1]
    i, j = n - 1, n - 1
    while (i, j) != (0, 0):
        a, b = edges[pred[i, j]]
        i, j = i - a, j - b
        vi.append(i)
        vj.append(j)
    return np.array(vi[::-1], float), np.array(vj[::-1], float), float(dist[-1])


def optimal_warping(q_ref: SrvfCurve, q_mov: SrvfCurve,
                    max_slope: int = DEFAULT_MAX_SLOPE) -> Warping:
    """Warp that best aligns q_mov to q_ref under the elastic L2 cost."""
    n = common_grid([q_ref, q_mov]).n
    vi, vj, _ = _dp_path(q_ref.q, q_mov.q, n, max_slope)
    gamma = np.interp(np.arange(n, dtype=float), vi, vj) / (n - 1)
    return Warping(q_ref.grid, gamma)


def alignment_cost(q_ref: SrvfCurve, q_mov: SrvfCurve,
                   max_slope: int = DEFAULT_MAX_SLOPE) -> float:
    """Objective value attained by the optimal lattice path.

    The path's edge costs are defined in `_arrival_costs`.
    """
    n = common_grid([q_ref, q_mov]).n
    return _dp_path(q_ref.q, q_mov.q, n, max_slope)[2]


def amplitude_distance(b1: Trajectory, b2: Trajectory,
                       max_slope: int = DEFAULT_MAX_SLOPE) -> float:
    """Residual L2 distance between SRVFs after optimally warping b2 to b1."""
    q1, q2 = to_srvf(b1), to_srvf(b2)
    w = optimal_warping(q1, q2, max_slope)
    return l2_norm(q1.q - group_action(q2, w).q, b1.grid)


def phase_distance(w: Warping) -> float:
    """Arc length on the sphere between a warp and the identity.

    The identity warp has sqrt(gamma') identically 1, so the angle is
    arccos <1, sqrt(gamma')>.
    """
    ip = inner_product(np.ones(w.grid.n), np.sqrt(_warp_rate(w)), w.grid)
    return float(np.arccos(np.clip(ip, -1.0, 1.0)))


def cosine_distance(b1: Trajectory, b2: Trajectory) -> float:
    """1 - normalized inner product; meant for already-aligned signals.

    Undefined, and rejected, when either signal's L2 norm is below
    MIN_SIGNAL_NORM.
    """
    grid = common_grid([b1, b2])
    n1 = l2_norm(b1.values, grid)
    n2 = l2_norm(b2.values, grid)
    if n1 < MIN_SIGNAL_NORM or n2 < MIN_SIGNAL_NORM:
        raise DegenerateInputError("cosine distance undefined for a zero signal")
    return 1.0 - inner_product(b1.values, b2.values, grid) / (n1 * n2)


def warped_copy(traj: Trajectory, warp: Warping) -> Trajectory:
    """The signal composed with a warp: same shape, different timing."""
    common_grid([traj, warp])
    values = np.interp(warp.gamma, traj.grid.points, traj.values)
    return Trajectory(traj.grid, values)


def _medoid(qs: list[SrvfCurve], grid: TimeGrid) -> int:
    m = len(qs)
    totals = np.zeros(m)
    for i in range(m):
        for j in range(i + 1, m):
            d = l2_norm(qs[i].q - qs[j].q, grid)
            totals[i] += d
            totals[j] += d
    return int(np.argmin(totals))


def phase_amplitude_separation(curves: list[Trajectory], max_iter: int = 20,
                               tol: float = 1e-4,
                               max_slope: int = DEFAULT_MAX_SLOPE) -> RegistrationResult:
    """Karcher mean in SRVF space with joint alignment.

    Starting from the medoid curve's SRVF, alternate (a) warping every curve
    onto the current mean and (b) replacing the mean by the average of the
    aligned SRVFs, until the summed squared residual stabilizes. Warps are
    then centered so their pointwise mean is the identity, with the mean
    re-warped to match.
    """
    grid = common_grid(curves)
    qs = [to_srvf(c) for c in curves]
    beta0 = float(np.mean([c.values[0] for c in curves]))

    if len(curves) == 1:
        return RegistrationResult(
            mean=curves[0],
            warps=[Warping.identity(grid)],
            aligned=[curves[0]],
            iterations=0,
            converged=True,
        )

    qbar = qs[_medoid(qs, grid)].q
    warps: list[Warping] = []
    aligned_q: list[np.ndarray] = []
    energy_prev = None
    iterations = 0
    converged = False
    qbar_curve = SrvfCurve(grid, qbar)
    for iterations in range(1, max_iter + 1):
        warps = [optimal_warping(qbar_curve, qi, max_slope) for qi in qs]
        aligned_q = [group_action(qi, wi).q for qi, wi in zip(qs, warps)]
        qbar = np.mean(aligned_q, axis=0)
        qbar_curve = SrvfCurve(grid, qbar)
        energy = sum(l2_norm(a - qbar, grid) ** 2 for a in aligned_q)
        if energy < 1e-30:
            converged = True
            break
        if energy_prev is not None and abs(energy_prev - energy) <= tol * energy_prev:
            converged = True
            break
        energy_prev = energy

    # Center: compose every warp with the inverse of the pointwise mean warp,
    # which makes the mean of the returned warps the identity, and re-warp
    # the mean SRVF accordingly.
    mean_warp = Warping(grid, np.mean([w.gamma for w in warps], axis=0))
    inv = mean_warp.inverse()
    warps = [w.compose(inv) for w in warps]
    qbar_curve = group_action(qbar_curve, inv)

    mean = from_srvf(qbar_curve, beta0)
    aligned = [warped_copy(c, w) for c, w in zip(curves, warps)]
    return RegistrationResult(mean, warps, aligned, iterations, converged)


def align_to_reference(curves: list[Trajectory], reference: Trajectory,
                       max_slope: int = DEFAULT_MAX_SLOPE) -> RegistrationResult:
    """Single-pass alignment of each curve to a fixed reference."""
    common_grid(curves)  # no curves: InsufficientDataError
    common_grid([reference, *curves])
    q_ref = to_srvf(reference)
    warps = [optimal_warping(q_ref, to_srvf(c), max_slope) for c in curves]
    aligned = [warped_copy(c, w) for c, w in zip(curves, warps)]
    return RegistrationResult(reference, warps, aligned, iterations=1, converged=True)
