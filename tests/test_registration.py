from dataclasses import replace
from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest

from motionshape.core import (
    DegenerateInputError,
    DimensionError,
    InsufficientDataError,
    ParameterError,
    SrvfCurve,
    TimeGrid,
    Trajectory,
    Warping,
    l2_norm,
)
from motionshape import lattice
from motionshape.lattice import (
    _arrival_costs,
    _edge_steps,
    _lattice_plan,
    solve,
)
from motionshape.registration import (
    align_to_reference,
    alignment_cost,
    amplitude_distance,
    cosine_distance,
    from_srvf,
    group_action,
    optimal_warping,
    phase_amplitude_separation,
    phase_distance,
    to_srvf,
    warped_copy,
)
from motionshape.analytics import pairwise_matrix, rolling_correlation
from motionshape.inputs import PipelineConfig
from motionshape.pipeline import build_healthy_mean, ingest
from motionshape.synthetic import (
    bimodal_template,
    random_smooth_warp,
    write_cohort,
)

from conftest import random_smooth_srvf


def brute_force_cost(q1, q2, n, max_slope=7):
    """Exhaustive minimum over every monotone lattice path, written from
    scratch: coprime steps up to max_slope, trapezoid segment costs, linear
    interpolation of the moving curve."""
    steps = [(a, b) for a in range(1, max_slope + 1)
             for b in range(1, max_slope + 1) if gcd(a, b) == 1]
    h = 1.0 / (n - 1)
    idx = np.arange(n, dtype=float)

    def seg(i0, j0, a, b):
        slope = b / a
        root = np.sqrt(slope)
        total = 0.0
        for k in range(a + 1):
            w = 0.5 if k in (0, a) else 1.0
            total += w * (q1[i0 + k] - root * np.interp(j0 + k * slope, idx, q2)) ** 2
        return total * h

    best = [np.inf]

    def walk(i, j, acc):
        if i == n - 1 and j == n - 1:
            best[0] = min(best[0], acc)
            return
        for a, b in steps:
            if i + a <= n - 1 and j + b <= n - 1:
                walk(i + a, j + b, acc + seg(i, j, a, b))

    walk(0, 0, 0.0)
    return best[0]


def reference_edge_costs(q1, q2, n, edges):
    """The per-edge cost arrays the DP was first written with, kept as the
    reference the arrival-indexed costs must reproduce bit for bit."""
    h = 1.0 / (n - 1)
    idx = np.arange(n, dtype=float)
    costs = []
    for a, b in edges:
        sq = np.sqrt(b / a)
        rows = n - a
        cols = np.arange(n - b, dtype=float)
        c = np.zeros((rows, n - b))
        for k in range(a + 1):
            w = 0.5 if k in (0, a) else 1.0
            q2v = np.interp(cols + k * b / a, idx, q2)
            diff = q1[k:k + rows, None] - sq * q2v[None, :]
            c += w * diff * diff
        costs.append(c * h)
    return costs


def reference_dp_tables(q1, q2, n, max_slope):
    """The original per-edge row loop over reference_edge_costs. Returns the
    edges, the cost-to-come table, and every cell's candidates:
    cands[i, e, j] is the cost of reaching (i, j) by edge e."""
    edges = [(a, b) for a, b in _edge_steps(max_slope) if a < n and b < n]
    costs = reference_edge_costs(q1, q2, n, edges)
    dist = np.full((n, n), np.inf)
    dist[0, 0] = 0.0
    cands = np.full((n, len(edges), n), np.inf)
    for i in range(1, n):
        cand = cands[i]
        for e, (a, b) in enumerate(edges):
            if a > i:
                continue
            cand[e, b:] = dist[i - a, : n - b] + costs[e][i - a, :]
        dist[i] = cand[cand.argmin(axis=0), np.arange(n)]
    return edges, dist, cands


def reference_lattice_path(q1, q2, n, max_slope):
    """The minimum-cost path of reference_dp_tables, walked back from
    (n-1, n-1) along each cell's first minimum; (1,1) is edge 0."""
    edges, dist, cands = reference_dp_tables(q1, q2, n, max_slope)
    pred = cands.argmin(axis=1)
    vi, vj = [n - 1], [n - 1]
    i, j = n - 1, n - 1
    while (i, j) != (0, 0):
        a, b = edges[pred[i, j]]
        i, j = i - a, j - b
        vi.append(i)
        vj.append(j)
    return np.array(vi[::-1], float), np.array(vj[::-1], float), float(dist[n - 1, n - 1])


def off_diagonal_ties(q1, q2, n, max_slope, path):
    """Cells on the reference path reached at the minimum cost by several
    edges, the first of which is not the diagonal."""
    _, _, cands = reference_dp_tables(q1, q2, n, max_slope)
    vi, vj, _ = path
    count = 0
    for i, j in zip(vi[1:].astype(int), vj[1:].astype(int)):
        cand = cands[i, :, j]
        count += (cand == cand.min()).sum() > 1 and cand.argmin() != 0
    return count


def assert_same_path(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


class TestDpMatchesReference:
    @pytest.mark.parametrize(
        "n, max_slope",
        [(n, s) for n in (3, 4, 5, 8, 31, 101) for s in (1, 2, 3, 7)]
        + [(201, 3), (201, 7)])
    def test_random_pairs_bit_identical(self, n, max_slope):
        rng = np.random.default_rng(1000 * n + max_slope)
        for _ in range(3):
            q1, q2 = rng.normal(size=n), rng.normal(size=n)
            assert_same_path(solve(q1, q2, max_slope),
                             reference_lattice_path(q1, q2, n, max_slope))

    @pytest.mark.parametrize("max_slope", [3, 7])
    @pytest.mark.parametrize("n", [31, 101])
    def test_binary_pairs_settle_ties_on_first_minimum(self, n, max_slope):
        # {0, 1}-valued SRVFs make many path costs exactly equal, so the
        # walk back meets cells where a non-diagonal edge ties for the
        # minimum with a later one; the first must win, as in the reference
        rng = np.random.default_rng(1000 * n + max_slope)
        ties = 0
        for _ in range(10):
            q1, q2 = (rng.integers(0, 2, n).astype(float) for _ in range(2))
            want = reference_lattice_path(q1, q2, n, max_slope)
            assert_same_path(solve(q1, q2, max_slope), want)
            ties += off_diagonal_ties(q1, q2, n, max_slope, want)
        assert ties > 0

    @staticmethod
    def assert_arrival_costs_match(q1, q2, n, max_slope, block_rows=None):
        edges = [(a, b) for a, b in _edge_steps(max_slope) if a < n and b < n]
        plan = _lattice_plan(n, max_slope)
        assert plan.edges == tuple(edges)
        if block_rows is not None:
            plan = replace(plan, block_rows=block_rows)
        got = _arrival_costs(q1, q2, plan)
        assert got.shape == (n, len(edges), n)
        # an edge that starts left of the grid (j < b) may cost anything:
        # its departure cell is the DP table's inf padding
        for e, ((a, b), c) in enumerate(
                zip(edges, reference_edge_costs(q1, q2, n, edges))):
            assert got[a:, e, b:].tobytes() == c.tobytes()
            assert np.all(got[:a, e] == np.inf)

    @pytest.mark.parametrize("n, max_slope",
                             [(3, 7), (8, 3), (31, 7), (101, 7), (201, 3)])
    def test_arrival_costs_bit_identical(self, n, max_slope):
        rng = np.random.default_rng(n)
        q1, q2 = rng.normal(size=n), rng.normal(size=n)
        self.assert_arrival_costs_match(q1, q2, n, max_slope)

    @pytest.mark.parametrize("block_rows", [1, 2, 6, 7, 29, 30])
    def test_arrival_costs_bit_identical_in_row_blocks(self, block_rows):
        # blocks shorter than a row step, a block ending one row short of
        # the last, and one block holding every departure row
        n = 31
        rng = np.random.default_rng(block_rows)
        q1, q2 = rng.normal(size=n), rng.normal(size=n)
        self.assert_arrival_costs_match(q1, q2, n, 7, block_rows)

    def test_large_grid_is_summed_in_several_row_blocks(self):
        assert _lattice_plan(101, 7).block_rows >= 100
        assert _lattice_plan(201, 7).block_rows < 200

    @pytest.mark.parametrize("scale", [1e-160, 1e154])
    def test_arrival_costs_bit_identical_at_extreme_scales(self, scale):
        # squared residuals go subnormal (1e-160) or overflow (1e154); the
        # residual is taken with the opposite sign of the reference's, and
        # must still square to the same bits
        n = 31
        rng = np.random.default_rng(7)
        q1, q2 = rng.normal(size=n) * scale, rng.normal(size=n) * scale
        with np.errstate(under="ignore", over="ignore", invalid="ignore"):
            self.assert_arrival_costs_match(q1, q2, n, 7)

    @pytest.mark.parametrize("n, max_slope",
                             [(3, 7), (8, 3), (31, 7), (101, 7)])
    def test_arrival_costs_off_the_grid_are_never_taken(self, monkeypatch,
                                                         n, max_slope):
        # an edge that would start off the grid departs from the DP table's
        # inf padding, so even a hugely negative cost on it changes nothing
        arrival_costs = lattice._arrival_costs

        def bargains_off_the_grid(q1, q2, plan):
            out = arrival_costs(q1, q2, plan)
            for e, (a, b) in enumerate(plan.edges):
                out[:a, e] = out[:, e, :b] = -1e300
            return out

        monkeypatch.setattr(lattice, "_arrival_costs", bargains_off_the_grid)
        rng = np.random.default_rng(1000 * n + max_slope)
        for _ in range(3):
            q1, q2 = rng.normal(size=n), rng.normal(size=n)
            assert_same_path(solve(q1, q2, max_slope),
                             reference_lattice_path(q1, q2, n, max_slope))
        q = rng.normal(size=n)
        assert_same_path(solve(q, q, max_slope),
                         reference_lattice_path(q, q, n, max_slope))

    @pytest.mark.parametrize("n", [3, 8, 101])
    def test_self_pair_is_free_diagonal(self, n):
        q = np.random.default_rng(n).normal(size=n)
        got = solve(q, q, 7)
        assert got[2] == 0.0
        assert np.array_equal(got[0], np.arange(n, dtype=float))
        assert np.array_equal(got[1], np.arange(n, dtype=float))
        assert_same_path(got, reference_lattice_path(q, q, n, 7))

    @pytest.mark.parametrize("n", [3, 8, 101])
    def test_all_ties_pick_diagonal(self, n):
        q = np.zeros(n)
        got = solve(q, q, 7)
        assert got[2] == 0.0
        assert np.array_equal(got[0], np.arange(n, dtype=float))
        assert np.array_equal(got[1], np.arange(n, dtype=float))
        assert_same_path(got, reference_lattice_path(q, q, n, 7))


class TestSrvfTransform:
    def test_linear_signal(self, grid101):
        q = to_srvf(Trajectory(grid101, grid101.points))
        np.testing.assert_allclose(q.q, 1.0, atol=1e-10)

    def test_constant_signal(self, grid101):
        q = to_srvf(Trajectory(grid101, np.full(101, 2.0)))
        np.testing.assert_allclose(q.q, 0.0, atol=1e-12)

    def test_quadratic_closed_form(self, grid201):
        t = grid201.points
        q = to_srvf(Trajectory(grid201, t ** 2))
        assert np.abs(q.q - np.sqrt(2 * t)).max() <= 1e-2

    def test_decreasing_signal_sign(self, grid101):
        q = to_srvf(Trajectory(grid101, -grid101.points))
        np.testing.assert_allclose(q.q, -1.0, atol=1e-10)


class TestFromSrvf:
    def test_unit_q(self, grid101):
        beta = from_srvf(SrvfCurve(grid101, np.ones(101)), 0.0)
        np.testing.assert_allclose(beta.values, grid101.points, atol=1e-9)

    def test_zero_q(self, grid101):
        beta = from_srvf(SrvfCurve(grid101, np.zeros(101)), 5.0)
        np.testing.assert_allclose(beta.values, 5.0)

    def test_roundtrip(self, grid201):
        t = grid201.points
        beta = Trajectory(grid201, np.sin(2 * np.pi * t))
        back = from_srvf(to_srvf(beta), beta.values[0])
        rmse = np.sqrt(np.mean((back.values - beta.values) ** 2))
        assert rmse <= 1e-2


class TestFromSrvfMatchesScipy:
    @pytest.mark.parametrize("n", [3, 101, 1001])
    def test_bit_identical(self, n):
        from scipy.integrate import cumulative_trapezoid

        grid = TimeGrid(n)
        q = np.random.default_rng(n).standard_normal(n)
        for beta0 in (0.0, 1.7, -3e5):
            got = from_srvf(SrvfCurve(grid, q), beta0).values
            want = beta0 + cumulative_trapezoid(q * np.abs(q), dx=grid.spacing,
                                                initial=0.0)
            assert np.array_equal(got, want)


class TestGroupAction:
    def test_identity(self, grid101):
        q = random_smooth_srvf(grid101, np.random.default_rng(3))
        out = group_action(q, Warping.identity(grid101))
        np.testing.assert_allclose(out.q, q.q, atol=1e-9)

    def test_unit_q_quadratic_warp(self, grid101):
        t = grid101.points
        out = group_action(SrvfCurve(grid101, np.ones(101)),
                           Warping(grid101, t ** 2))
        assert np.abs(out.q[1:-1] - np.sqrt(2 * t[1:-1])).max() <= 2e-2

    def test_isometry_sample(self, grid101):
        rng = np.random.default_rng(17)
        for _ in range(25):
            q = random_smooth_srvf(grid101, rng)
            w = random_smooth_warp(grid101, rng, scale=0.5)
            assert abs(l2_norm(group_action(q, w).q, grid101)
                       - l2_norm(q.q, grid101)) <= 1e-2

    def test_grid_mismatch(self, grid101, grid201):
        q = SrvfCurve(grid101, np.ones(101))
        with pytest.raises(DimensionError):
            group_action(q, Warping.identity(grid201))


class TestOptimalWarping:
    def test_self_alignment_identity(self, grid101, wavy101):
        q = to_srvf(wavy101)
        w = optimal_warping(q, q)
        assert np.abs(w.gamma - grid101.points).max() <= 1e-9

    def test_recovers_inverse_warp(self, grid101, wavy101):
        rng = np.random.default_rng(8)
        q_ref = to_srvf(wavy101)
        for _ in range(10):
            g0 = random_smooth_warp(grid101, rng, scale=0.4)
            w = optimal_warping(q_ref, to_srvf(warped_copy(wavy101, g0)))
            assert np.abs(w.gamma - g0.inverse().gamma).max() <= 0.05

    def test_matches_brute_force_on_coarse_grid(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            grid = TimeGrid(n)
            q1 = rng.normal(size=n)
            q2 = rng.normal(size=n)
            dp = alignment_cost(SrvfCurve(grid, q1), SrvfCurve(grid, q2))
            bf = brute_force_cost(q1, q2, n)
            assert abs(dp - bf) <= 1e-9

    def test_grid_mismatch(self, grid101, grid201):
        with pytest.raises(DimensionError):
            optimal_warping(SrvfCurve(grid101, np.ones(101)),
                            SrvfCurve(grid201, np.ones(201)))

    def test_alignment_never_hurts(self, grid101):
        rng = np.random.default_rng(23)
        for _ in range(25):
            q1 = random_smooth_srvf(grid101, rng)
            q2 = random_smooth_srvf(grid101, rng)
            w = optimal_warping(q1, q2)
            after = l2_norm(q1.q - group_action(q2, w).q, grid101)
            before = l2_norm(q1.q - q2.q, grid101)
            assert after <= before + 1e-9

    def test_sqrt_rate_unit_norm(self, grid101):
        rng = np.random.default_rng(31)
        for _ in range(25):
            w = random_smooth_warp(grid101, rng, scale=0.5)
            rate = np.gradient(w.gamma, grid101.spacing, edge_order=2)
            norm = np.sqrt(np.trapezoid(np.maximum(rate, 0.0),
                                        dx=grid101.spacing))
            assert abs(norm - 1.0) <= 1e-2


class TestAmplitudeDistance:
    def test_identical_curves(self, wavy101):
        assert amplitude_distance(wavy101, wavy101) <= 1e-6

    def test_warped_copy_nearly_invisible(self, grid101):
        # monotone signal -> smooth SRVF, so the residual is pure
        # discretization noise rather than sqrt-cusp error
        from scipy.integrate import cumulative_trapezoid

        beta = Trajectory(grid101, cumulative_trapezoid(
            bimodal_template(grid101).values, dx=grid101.spacing, initial=0.0))
        rng = np.random.default_rng(12)
        for _ in range(5):
            g0 = random_smooth_warp(grid101, rng, scale=0.4)
            assert amplitude_distance(beta, warped_copy(beta, g0)) <= 0.05

    def test_linear_vs_double_slope(self, grid101):
        b1 = Trajectory(grid101, grid101.points)
        b2 = Trajectory(grid101, 2 * grid101.points)
        assert amplitude_distance(b1, b2) == pytest.approx(np.sqrt(2) - 1,
                                                           abs=0.02)

    def test_near_symmetry(self, grid101):
        rng = np.random.default_rng(19)
        for _ in range(5):
            a = from_srvf(random_smooth_srvf(grid101, rng))
            b = from_srvf(random_smooth_srvf(grid101, rng))
            assert abs(amplitude_distance(a, b)
                       - amplitude_distance(b, a)) <= 0.05


class TestPhaseDistance:
    def test_identity_is_zero(self, grid101):
        assert phase_distance(Warping.identity(grid101)) <= 1e-6

    def test_quadratic_warp(self, grid101):
        w = Warping(grid101, grid101.points ** 2)
        assert phase_distance(w) == pytest.approx(np.arccos(2 * np.sqrt(2) / 3),
                                                  abs=1e-2)

    def test_cubic_warp(self, grid101):
        w = Warping(grid101, grid101.points ** 3)
        assert phase_distance(w) == pytest.approx(np.pi / 6, abs=1e-2)

    def test_range(self, grid101):
        rng = np.random.default_rng(77)
        for _ in range(50):
            w = random_smooth_warp(grid101, rng, scale=0.8)
            p = phase_distance(w)
            assert 0.0 <= p <= np.pi / 2


class TestCosineDistance:
    def test_identical(self, wavy101):
        assert cosine_distance(wavy101, wavy101) <= 1e-9

    def test_negated(self, grid101, wavy101):
        flipped = Trajectory(grid101, -wavy101.values)
        assert cosine_distance(wavy101, flipped) == pytest.approx(2.0, abs=1e-9)

    def test_orthogonal(self, grid201):
        t = grid201.points
        b1 = Trajectory(grid201, np.sin(2 * np.pi * t))
        b2 = Trajectory(grid201, np.cos(2 * np.pi * t))
        assert cosine_distance(b1, b2) == pytest.approx(1.0, abs=1e-2)

    def test_zero_signal_rejected(self, grid101, wavy101):
        zero = Trajectory(grid101, np.zeros(101))
        with pytest.raises(DegenerateInputError):
            cosine_distance(wavy101, zero)

    @pytest.mark.parametrize("scale", [1e200, 1.0],
                             ids=["both_overflow", "one_overflows"])
    def test_overflow_rejected(self, scale):
        # at 1e200 the inner product sums +inf and -inf to NaN; at 1.0 only
        # the norm of `a` overflows
        grid = TimeGrid(31)
        t = np.linspace(0, 3, 31)
        a = Trajectory(grid, 1e200 * np.sin(t))
        b = Trajectory(grid, scale * np.cos(t))
        with pytest.raises(DegenerateInputError, match="out of float range"):
            cosine_distance(a, b)


class TestPhaseAmplitudeSeparation:
    def test_identical_inputs(self, wavy101):
        res = phase_amplitude_separation([wavy101] * 5)
        assert res.converged
        for w in res.warps:
            assert np.abs(w.gamma - wavy101.grid.points).max() <= 1e-6
        # the mean is rendered through the SRVF round trip, so it matches
        # the common input up to that round trip's discretization error
        rmse = np.sqrt(np.mean((res.mean.values - wavy101.values) ** 2))
        assert rmse <= 1e-2
        for a in res.aligned:
            np.testing.assert_allclose(a.values, wavy101.values, atol=1e-9)

    def test_single_curve(self, wavy101):
        res = phase_amplitude_separation([wavy101])
        assert res.converged
        assert res.energies == ()
        np.testing.assert_array_equal(res.mean.values, wavy101.values)
        np.testing.assert_array_equal(res.warps[0].gamma, wavy101.grid.points)

    def test_empty_input(self):
        with pytest.raises(InsufficientDataError):
            phase_amplitude_separation([])

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, wavy101, max_iter):
        with pytest.raises(ParameterError, match="max_iter"):
            phase_amplitude_separation([wavy101] * 3, max_iter=max_iter)

    def test_recovers_template(self, grid101):
        # recovery is limited by how far the sample's average timing sits
        # from the identity, so keep the warps gentle on a small ensemble
        template = bimodal_template(grid101)
        rng = np.random.default_rng(21)
        curves = [warped_copy(template, random_smooth_warp(grid101, rng, 0.2))
                  for _ in range(8)]
        res = phase_amplitude_separation(curves)
        assert res.converged
        rng_amp = template.values.max() - template.values.min()
        rmse = np.sqrt(np.mean((res.mean.values - template.values) ** 2))
        assert rmse <= 0.05 * rng_amp

    def test_warps_centered(self, grid101):
        template = bimodal_template(grid101)
        rng = np.random.default_rng(22)
        curves = [warped_copy(template, random_smooth_warp(grid101, rng, 0.3))
                  for _ in range(10)]
        res = phase_amplitude_separation(curves)
        mean_warp = np.mean([w.gamma for w in res.warps], axis=0)
        assert np.abs(mean_warp - grid101.points).max() <= 0.02

    def test_aligned_rederivable_from_warps(self, grid101):
        template = bimodal_template(grid101)
        rng = np.random.default_rng(29)
        curves = [warped_copy(template, random_smooth_warp(grid101, rng, 0.3))
                  for _ in range(6)]
        res = phase_amplitude_separation(curves)
        for c, w, a in zip(curves, res.warps, res.aligned):
            recon = np.interp(w.gamma, grid101.points, c.values)
            assert np.abs(recon - a.values).max() <= 1e-9

    @pytest.mark.parametrize("seed", [1234, 3])
    def test_energy_descends_on_demo_cohort(self, tmp_path, seed):
        # the healthy half of the 10 + 10 trial, 200 Hz x 4 s demo cohort, at
        # the default config. The DP minimizes each warp's lattice cost, not
        # the energy after group_action, so an iteration may raise the
        # energy a little: seed 3 does at its last iteration.
        manifest = write_cohort(tmp_path, n_healthy=10, n_patients=10,
                                rate_hz=200.0, duration_s=4.0, seed=seed)
        config = PipelineConfig()
        res = build_healthy_mean(ingest(manifest, config).items, config)
        energies = res.energies
        assert len(energies) == res.iterations
        for before, after in zip(energies, energies[1:]):
            assert after - before <= 1e-3 * before
        assert energies[-1] < energies[0]


class TestAlignToReference:
    def test_reference_itself(self, wavy101):
        res = align_to_reference([wavy101], wavy101)
        assert np.abs(res.warps[0].gamma - wavy101.grid.points).max() <= 1e-9
        d = res.distances[0]
        assert max(abs(d.amplitude), abs(d.phase), abs(d.cosine)) <= 1e-9

    def test_distances_follow_from_returned_warps(self, grid101, wavy101):
        rng = np.random.default_rng(15)
        g0 = random_smooth_warp(grid101, rng, scale=0.4)
        curve = warped_copy(wavy101, g0)
        res = align_to_reference([curve], wavy101)
        (w,), (a,), (d,) = res.warps, res.aligned, res.distances
        q_ref = to_srvf(wavy101)
        assert d.amplitude == l2_norm(
            q_ref.q - group_action(to_srvf(curve), w).q, grid101)
        assert d.phase == phase_distance(w)
        assert d.cosine == cosine_distance(wavy101, a)
        assert d.phase > 0.01

    def test_flat_signal_rejected(self, grid101, wavy101):
        flat = Trajectory(grid101, np.zeros(grid101.n))
        with pytest.raises(DegenerateInputError):
            align_to_reference([flat], wavy101)
        with pytest.raises(DegenerateInputError):
            align_to_reference([wavy101], flat)

    def test_recovers_inverse(self, grid101, wavy101):
        rng = np.random.default_rng(14)
        g0 = random_smooth_warp(grid101, rng, scale=0.4)
        res = align_to_reference([warped_copy(wavy101, g0)], wavy101)
        assert np.abs(res.warps[0].gamma - g0.inverse().gamma).max() <= 0.05

    def test_empty_input(self, wavy101):
        with pytest.raises(InsufficientDataError):
            align_to_reference([], wavy101)

    def test_healthy_closer_than_degraded(self, grid101):
        template = bimodal_template(grid101)
        rng = np.random.default_rng(33)
        for _ in range(5):
            warp = random_smooth_warp(grid101, rng, scale=0.35)
            healthy = warped_copy(template, warp)
            degraded = Trajectory(grid101, 0.45 * healthy.values
                                  * (0.4 + 0.6 * grid101.points))
            d_h = amplitude_distance(template, healthy)
            d_d = amplitude_distance(template, degraded)
            assert d_h < d_d


def sampled_on(n):
    """A trajectory, its SRVF and the identity warp on an n-point grid."""
    grid = TimeGrid(n)
    traj = Trajectory(grid, np.sin(2 * np.pi * grid.points) + grid.points)
    return SimpleNamespace(traj=traj, q=to_srvf(traj),
                           w=Warping.identity(grid))


# every public function that combines grid-sampled inputs, called with two
# inputs on different grids
MISMATCHED = {
    "group_action": lambda a, b: group_action(a.q, b.w),
    "optimal_warping": lambda a, b: optimal_warping(a.q, b.q),
    "alignment_cost": lambda a, b: alignment_cost(a.q, b.q),
    "amplitude_distance": lambda a, b: amplitude_distance(a.traj, b.traj),
    "cosine_distance": lambda a, b: cosine_distance(a.traj, b.traj),
    "warped_copy": lambda a, b: warped_copy(a.traj, b.w),
    "phase_amplitude_separation":
        lambda a, b: phase_amplitude_separation([a.traj, b.traj]),
    "align_to_reference curves":
        lambda a, b: align_to_reference([a.traj, b.traj], a.traj),
    "align_to_reference reference":
        lambda a, b: align_to_reference([a.traj], b.traj),
    "pairwise_matrix":
        lambda a, b: pairwise_matrix([a.traj, b.traj], "cosine", False),
    "pairwise_matrix registered":
        lambda a, b: pairwise_matrix([a.traj, b.traj], "phase", True),
    "rolling_correlation": lambda a, b: rolling_correlation(a.traj, b.traj, 5),
    "Warping.compose": lambda a, b: a.w.compose(b.w),
}


@pytest.mark.parametrize("call", MISMATCHED.values(), ids=MISMATCHED.keys())
def test_mismatched_grids_rejected(call):
    with pytest.raises(DimensionError):
        call(sampled_on(21), sampled_on(31))


@pytest.mark.parametrize("cls, values, what", [
    (SrvfCurve, np.zeros(101), "SRVF"),
    (Warping, np.linspace(0.0, 1.0, 101), "warping"),
])
class TestSampledTypes:
    def test_wrong_length(self, grid101, cls, values, what):
        with pytest.raises(DimensionError, match="expected 101 values"):
            cls(grid101, values[:-1])
        with pytest.raises(DimensionError, match="expected 101 values"):
            cls(grid101, values[None, :])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite(self, grid101, cls, values, what, bad):
        values = values.copy()
        values[40] = bad
        with pytest.raises(DegenerateInputError,
                           match=f"{what} contains non-finite values"):
            cls(grid101, values)
