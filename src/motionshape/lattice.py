"""The lattice dynamic program behind every warp (Srivastava et al., IEEE
TPAMI 2011): `solve` takes two curves' sampled values and returns the
minimum-cost monotone lattice path between them, and its cost."""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import DegenerateInputError, DimensionError


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
    """The edge shapes sharing one row step a: their slices of the edge
    list and of the plan's flat samples (a+1 rows per (edge, column))."""

    a: int
    edges: slice
    samples: slice


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
        # point k of every (edge, j), one row per k, from column j - b
        at = idx - b + np.arange(a + 1)[:, None, None] * b / a
        positions.append(at.reshape(-1))
        scales.append(np.broadcast_to(np.sqrt(b / a), at.shape).reshape(-1))
        groups.append(_StepGroup(a, group, slice(offset, offset + at.size)))
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
    out[i, e, j] holds that value for edge shape e = (a, b), and inf for i < a;
    `solve` never takes an edge that would start left of the grid (j < b),
    whatever out holds there. One `np.interp` and one multiply give the scaled
    moving curve at every sample position of the plan. The shapes sharing a row
    step a are then evaluated together, `plan.block_rows` departure rows at a
    time, in three scratch blocks that every pass reuses (see
    `_trapezoid_sums`). Each sum goes into `out` once, already scaled by h.
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


def solve(q1: np.ndarray, q2: np.ndarray,
          max_slope: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimum-cost monotone lattice path from (0,0) to (n-1,n-1) between
    two arrays of one length n >= 2, as row indices, column indices and cost.

    Steps are the coprime pairs (a, b) with 1 <= a, b <= max_slope, so path
    slopes stay within [1/max_slope, max_slope]; steps longer than the grid
    are never enumerated. The diagonal alone reaches (n-1, n-1), so the
    walk back only visits finite cells.

    `dist` is kept flat with p = max(a) rows and columns of inf in front,
    so the departure cells of every edge arriving on one row are a single
    gather at fixed offsets from that row's start, and an edge that would
    start off the grid departs from an inf cell. The forward pass keeps
    only each cell's minimum; the walk back recomputes the candidates of
    each cell on the path, the same sums, and takes the first minimum.
    Ties thus prefer the diagonal step (1, 1), edge 0, which keeps the
    identity warp for self-alignment.
    """
    if len(q1) != len(q2):
        raise DimensionError(f"solve needs arrays of one length, got "
                             f"{len(q1)} and {len(q2)}")
    n = len(q1)
    if n < 2:
        raise DimensionError(f"solve needs arrays of at least 2 samples, "
                             f"got {n}")
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

