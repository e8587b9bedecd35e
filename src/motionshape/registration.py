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
from functools import lru_cache, partial
from itertools import permutations
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    DegenerateInputError,
    DistanceTriple,
    ParameterError,
    SrvfCurve,
    TimeGrid,
    Trajectory,
    Warping,
    common_grid,
    fork_map,
    inner_product,
    l2_norm,
)
from .preprocess import derivative

__all__ = [
    "RegistrationResult",
    "Alignment",
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
    "align_pairwise",
]

DEFAULT_MAX_SLOPE = 7
# signals with a smaller L2 norm have no direction, so no cosine distance
MIN_SIGNAL_NORM = 1e-12


@dataclass(frozen=True)
class RegistrationResult:
    """Elastic mean plus the per-curve warps and aligned signals.

    `energies` holds the summed squared residual of the aligned SRVFs about
    their mean after each iteration, () when there was nothing to align.
    """

    mean: Trajectory
    warps: list[Warping]
    aligned: list[Trajectory]
    iterations: int
    converged: bool
    energies: tuple[float, ...]


@dataclass(frozen=True)
class Alignment:
    """Per-curve warps onto a fixed reference, the aligned signals, and
    each curve's distances from the reference."""

    warps: list[Warping]
    aligned: list[Trajectory]
    distances: list[DistanceTriple]


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


# Each residual block of `_arrival_costs` holds at most about this many
# bytes: small enough to stay in cache at large grids, large enough that at
# grid_n 101 one block holds a whole row-step group (BENCH_dp_arrival.json).
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class _StepGroup:
    """The edge shapes sharing one row step a: their slice of the edge list,
    their slice of the plan's flat samples (a+1 rows of one value per
    (edge, column)), and where they would start off the grid (j < b)."""

    a: int
    edges: slice
    samples: slice
    off_grid: np.ndarray


@dataclass(frozen=True)
class _LatticePlan:
    """Everything about one DP lattice that does not depend on the curves.

    `positions` holds the moving curve's sample positions for every group,
    concatenated, and `scales` the sqrt(b/a) factor of each. Every array is
    read-only, since one plan is shared by all the solves on its grid.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    groups: tuple[_StepGroup, ...]
    positions: np.ndarray
    scales: np.ndarray
    widest: int  # columns (edges x n) of the largest group
    block_rows: int  # departure rows summed per pass


@lru_cache(maxsize=8)
def _lattice_plan(n: int, max_slope: int) -> _LatticePlan:
    """The plan of the n x n lattice whose steps are those of `max_slope`
    that fit on the grid; cached, so a run builds each plan once."""
    edges = _edge_steps(min(max_slope, n - 1))
    idx = np.arange(n, dtype=float)
    steps = np.array(edges)
    groups, positions, scales = [], [], []
    offset = 0
    for a in range(1, steps[-1, 0] + 1):
        group = slice(*np.searchsorted(steps[:, 0], [a, a + 1]))
        b = steps[group, 1][:, None]
        start = idx - b  # departure column j - b of each arrival column j
        # point k of every (edge, j), one row per k
        at = start + np.arange(a + 1)[:, None, None] * b / a
        positions.append(at.reshape(-1))
        scales.append(np.broadcast_to(np.sqrt(b / a), at.shape).reshape(-1))
        off_grid = start < 0
        off_grid.flags.writeable = False
        groups.append(_StepGroup(a, group, slice(offset, offset + at.size),
                                 off_grid))
        offset += at.size
    positions, scales = np.concatenate(positions), np.concatenate(scales)
    positions.flags.writeable = scales.flags.writeable = False
    widest = max(g.edges.stop - g.edges.start for g in groups) * n
    return _LatticePlan(n, tuple(edges), tuple(groups), positions, scales,
                        widest, max(1, _BLOCK_BYTES // (8 * widest)))


def _arrival_costs(q1: np.ndarray, q2: np.ndarray,
                   plan: _LatticePlan) -> np.ndarray:
    """Cost of every lattice edge of `plan`, indexed by the node it arrives at.

    The edge from node (i-a, j-b) to (i, j) carries the trapezoid-rule
    integral of (q1(t) - sqrt(b/a) * q2(gamma(t)))^2 over the a+1 grid points
    it spans, with gamma linear on the segment and q2 linearly interpolated.
    out[i, e, j] holds that value for edge shape e = (a, b), and inf where
    the edge would start off the grid (i < a or j < b). One `np.interp` and
    one multiply give the scaled moving curve at every sample position of
    the plan. The shapes sharing a row step a are then evaluated together,
    `plan.block_rows` departure rows at a time, in three scratch blocks that
    every pass reuses (see `_trapezoid_sums`). Each sum goes into `out`
    once, already scaled by h.
    """
    n = plan.n
    h = 1.0 / (n - 1)
    samples = np.interp(plan.positions, np.arange(n, dtype=float), q2)
    samples *= plan.scales
    out = np.empty((n, len(plan.edges), n))
    block = min(plan.block_rows + plan.groups[-1].a, n) * plan.widest
    scratch = np.empty((3, block))
    for g in plan.groups:
        a = g.a
        at = samples[g.samples].reshape(a + 1, -1)
        # departure rows top .. top + rows - 1, each (edge, j) in them
        for top in range(0, n - a, plan.block_rows):
            rows = min(plan.block_rows, n - a - top)
            arrived = out[a + top:a + top + rows, g.edges]
            sums = _trapezoid_sums(at, q1[top:top + rows + a], scratch)
            np.multiply(sums.reshape(arrived.shape), h, out=arrived)
            arrived[:, g.off_grid] = np.inf
        out[:a, g.edges] = np.inf
    return out


def _trapezoid_sums(at: np.ndarray, q1: np.ndarray,
                    scratch: np.ndarray) -> np.ndarray:
    """Trapezoid sums of squared residuals for one block of departure rows.

    Row r of the result is, for every column c, the sum over k of
    w_k (q1[r + k] - at[k, c])^2 with w_0 = w_a = 1/2 and w_k = 1 between,
    where at has a+1 rows. It is a view of scratch[0]; scratch[1] holds the
    residual and scratch[2] a block whose row r is q1[r]. Each residual is
    taken as at[k] minus that block's rows, the negation of q1 - at[k], so
    it squares to the same bits. After the last subtraction the q1 block
    holds the end-point term.
    """
    a = len(at) - 1
    rows, width = len(q1) - a, at.shape[1]
    acc = scratch[0, :rows * width].reshape(rows, width)
    d = scratch[1, :rows * width].reshape(rows, width)
    q1_rows = scratch[2, :(rows + a) * width].reshape(rows + a, width)
    np.copyto(q1_rows, q1[:, None])
    for k in range(a + 1):
        np.copyto(d, at[k])
        d -= q1_rows[k:k + rows]
        if k == 0:
            np.multiply(0.5, d, out=acc)
            acc *= d
        elif k == a:
            t = q1_rows[:rows]
            np.multiply(0.5, d, out=t)
            t *= d
            acc += t
        else:
            np.square(d, out=d)
            acc += d
    return acc


def _dp_path(q1: np.ndarray, q2: np.ndarray, n: int,
             max_slope: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimum-cost monotone lattice path from (0,0) to (n-1,n-1).

    Steps are the coprime pairs (a, b) with 1 <= a, b <= max_slope, so path
    slopes stay within [1/max_slope, max_slope]; steps longer than the grid
    are never enumerated. The diagonal alone reaches (n-1, n-1), so the
    walk back only visits finite cells.

    `dist` is kept flat with p = max(a) rows and columns of inf in front,
    so the departure cells of every edge arriving on one row are a single
    gather at fixed offsets from that row's start. The forward pass keeps
    only each cell's minimum; the walk back recomputes the candidates of
    each cell on the path, the same sums, and takes the first minimum.
    Ties thus prefer the diagonal step (1, 1), edge 0, which keeps the
    identity warp for self-alignment.
    """
    plan = _lattice_plan(n, max_slope)
    edges = plan.edges
    arrive = _arrival_costs(q1, q2, plan)
    p = max(a for a, _ in edges)
    width = n + p
    dist = np.full((n + p) * width, np.inf)
    dist[p * width + p] = 0.0
    # edge e arriving on row i departs from window i * width + offset[e]
    windows = sliding_window_view(dist, n)
    offset = np.array([(p - a) * width + p - b for a, b in edges])
    for i in range(1, n):
        cand = windows[i * width + offset]
        cand += arrive[i]
        row = (p + i) * width + p
        np.minimum.reduce(cand, axis=0, out=dist[row:row + n])

    # edge e arrives at flat cell c from cell c - back[e]
    back = np.array([a * width + b for a, b in edges])
    vi, vj = [n - 1], [n - 1]
    i, j = n - 1, n - 1
    while (i, j) != (0, 0):
        cell = (p + i) * width + p + j
        a, b = edges[(dist[cell - back] + arrive[i, :, j]).argmin()]
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


def _solve(pair: tuple[SrvfCurve, SrvfCurve],
           max_slope: int) -> tuple[Warping, SrvfCurve]:
    q_ref, q = pair
    w = optimal_warping(q_ref, q, max_slope)
    return w, group_action(q, w)


def _align_srvfs(pairs: list[tuple[SrvfCurve, SrvfCurve]],
                 max_slope: int) -> tuple[list[Warping], list[np.ndarray]]:
    """The optimal warp of each (reference, curve) SRVF pair, and each warped
    curve's SRVF values: one DP solve per pair, all of them in one
    `fork_map`. Every warp this module solves for is solved here."""
    solved = list(fork_map(partial(_solve, max_slope=max_slope), pairs,
                           "alignment"))
    return [w for w, _ in solved], [a.q for _, a in solved]


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
    q1 = to_srvf(b1)
    _, (aligned,) = _align_srvfs([(q1, to_srvf(b2))], max_slope)
    return l2_norm(q1.q - aligned, b1.grid)


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
    re-warped to match. `max_iter` must be at least 1.
    """
    if max_iter < 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")
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
            energies=(),
        )

    qbar_curve = qs[_medoid(qs, grid)]
    energies: list[float] = []
    for _ in range(max_iter):
        warps, aligned_q = _align_srvfs([(qbar_curve, q) for q in qs],
                                        max_slope)
        qbar = np.mean(aligned_q, axis=0)
        qbar_curve = SrvfCurve(grid, qbar)
        energy = sum(l2_norm(a - qbar, grid) ** 2 for a in aligned_q)
        energies.append(energy)
        converged = (energy < 1e-30 or len(energies) > 1
                     and abs(energies[-2] - energy) <= tol * energies[-2])
        if converged:
            break

    # Center: compose every warp with the inverse of the pointwise mean warp,
    # which makes the mean of the returned warps the identity, and re-warp
    # the mean SRVF accordingly.
    mean_warp = Warping(grid, np.mean([w.gamma for w in warps], axis=0))
    inv = mean_warp.inverse()
    warps = [w.compose(inv) for w in warps]
    qbar_curve = group_action(qbar_curve, inv)

    mean = from_srvf(qbar_curve, beta0)
    aligned = [warped_copy(c, w) for c, w in zip(curves, warps)]
    return RegistrationResult(mean, warps, aligned, len(energies), converged,
                              tuple(energies))


def _align_pairs(curves: list[Trajectory], pairs: list[tuple[int, int]],
                 max_slope: int) -> Alignment:
    """curves[j] aligned onto curves[r] for each (r, j) in `pairs`, scored,
    in order. Each curve's SRVF is taken once, and every warp is solved in
    one `_align_srvfs` call before any distance is computed."""
    grid = common_grid(curves)
    qs = [to_srvf(c) for c in curves]
    warps, aligned_q = _align_srvfs([(qs[r], qs[j]) for r, j in pairs],
                                    max_slope)
    aligned = [warped_copy(curves[j], w) for (_, j), w in zip(pairs, warps)]
    distances = [DistanceTriple(amplitude=l2_norm(qs[r].q - q, grid),
                                phase=phase_distance(w),
                                cosine=cosine_distance(curves[r], a))
                 for (r, _), w, q, a in zip(pairs, warps, aligned_q, aligned)]
    return Alignment(warps, aligned, distances)


def align_to_reference(curves: list[Trajectory], reference: Trajectory,
                       max_slope: int = DEFAULT_MAX_SLOPE) -> Alignment:
    """Single-pass alignment of each curve to a fixed reference, scored.

    Every curve's warp is solved before any distance is computed. Each
    curve's distances are the amplitude distance under its warp, the
    warp's phase distance and the cosine distance of the aligned curve.
    A curve or reference whose L2 norm is below MIN_SIGNAL_NORM has no
    cosine distance, so it raises DegenerateInputError.
    """
    common_grid(curves)  # no curves: InsufficientDataError
    return _align_pairs([reference, *curves],
                        [(0, j) for j in range(1, len(curves) + 1)], max_slope)


def align_pairwise(curves: list[Trajectory],
                   max_slope: int = DEFAULT_MAX_SLOPE) -> Alignment:
    """Curve j aligned onto curve i and scored, as `align_to_reference`
    does, for each (i, j) of `itertools.permutations(range(m), 2)`; all
    m(m-1) warps are solved together."""
    return _align_pairs(curves, list(permutations(range(len(curves)), 2)),
                        max_slope)
