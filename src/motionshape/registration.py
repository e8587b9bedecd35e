"""Elastic curve registration in square-root velocity space.

A trajectory beta is represented by q = sign(beta') * sqrt(|beta'|). Time
warps act on this representation by (q, gamma) -> (q o gamma) * sqrt(gamma'),
which is an isometry of the L2 metric, so the elastic (amplitude) distance
between two curves is the L2 distance after optimizing the warp. The warp
search is `lattice.solve`, a dynamic program over monotone lattice paths
with slope bounded away from 0 and infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import permutations

import numpy as np

from . import lattice
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


def optimal_warping(q_ref: SrvfCurve, q_mov: SrvfCurve,
                    max_slope: int = DEFAULT_MAX_SLOPE) -> Warping:
    """Warp that best aligns q_mov to q_ref under the elastic L2 cost."""
    n = common_grid([q_ref, q_mov]).n
    vi, vj, _ = lattice.solve(q_ref.q, q_mov.q, max_slope)
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
    """Objective value attained by `lattice.solve`'s optimal path."""
    common_grid([q_ref, q_mov])
    return lattice.solve(q_ref.q, q_mov.q, max_slope)[2]


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
    cosine distance, so it raises DegenerateInputError, and so does a
    curve above it whose aligned copy falls below it (a warp can step over
    a narrow bump).
    """
    common_grid(curves)  # no curves: InsufficientDataError
    return _align_pairs([reference, *curves],
                        [(0, j) for j in range(1, len(curves) + 1)], max_slope)


def align_pairwise(curves: list[Trajectory],
                   max_slope: int = DEFAULT_MAX_SLOPE) -> Alignment:
    """Curve j aligned onto curve i and scored, as `align_to_reference`
    does, for each (i, j) of `itertools.permutations(range(m), 2)`; all
    m(m-1) warps are solved together. It raises DegenerateInputError as
    `align_to_reference` does: for a curve whose L2 norm, or whose aligned
    copy's, is below MIN_SIGNAL_NORM."""
    return _align_pairs(curves, list(permutations(range(len(curves)), 2)),
                        max_slope)
