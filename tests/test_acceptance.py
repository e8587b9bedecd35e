"""Acceptance gates for the whole package.

Each test prints one PASS/FAIL line (run with `pytest -v -s` to see them on
success). Expected values are either closed forms, recomputed here with
independent oracles (exhaustive path enumeration, adaptive quadrature), or
qualitative claims checked on seeded synthetic cohorts.
"""

import hashlib
import json
import time
from contextlib import contextmanager
from math import gcd

import numpy as np
import pytest
from scipy.integrate import quad

from motionshape.cli import main
from motionshape.core import SrvfCurve, TimeGrid, Trajectory, Warping, l2_norm
from motionshape.registration import (
    alignment_cost,
    amplitude_distance,
    group_action,
    optimal_warping,
    phase_amplitude_separation,
    phase_distance,
    to_srvf,
    warped_copy,
)
from motionshape.analytics import t_two_sided_pvalue, welch_t_test
from motionshape.synthetic import (
    bimodal_template,
    random_smooth_srvf,
    random_smooth_warp,
    wavy_template,
    write_cohort,
)


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except Exception:
        print(f"[criterion {num}] FAIL - {desc}", flush=True)
        raise
    print(f"[criterion {num}] PASS - {desc}", flush=True)


# --------------------------------------------------------------------------
# shared planted/null cohort runs (criteria 7, 8, 9)
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohorts")
    planted = write_cohort(root / "planted", n_healthy=10, n_patients=10,
                           seed=1234)
    null = write_cohort(root / "null", n_healthy=10, n_patients=10,
                        seed=99, null_effect=True)
    t0 = time.perf_counter()
    assert main(["report", "--manifest", str(planted),
                 "--out", str(root / "out_planted")]) == 0
    assert main(["report", "--manifest", str(null),
                 "--out", str(root / "out_null")]) == 0
    elapsed = time.perf_counter() - t0
    assert main(["report", "--manifest", str(planted),
                 "--out", str(root / "out_planted_repeat")]) == 0
    return {
        "planted_out": root / "out_planted",
        "planted_repeat": root / "out_planted_repeat",
        "null_out": root / "out_null",
        "elapsed": elapsed,
    }


def brute_force_cost(q1, q2, n, max_slope=7):
    """Exhaustive enumeration over every monotone lattice path (independent
    reimplementation of the alignment objective)."""
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
            total += w * (q1[i0 + k]
                          - root * np.interp(j0 + k * slope, idx, q2)) ** 2
        return total * h

    best = np.inf
    stack = [(0, 0, 0.0)]
    while stack:
        i, j, acc = stack.pop()
        if i == n - 1 and j == n - 1:
            best = min(best, acc)
            continue
        for a, b in steps:
            if i + a <= n - 1 and j + b <= n - 1:
                stack.append((i + a, j + b, acc + seg(i, j, a, b)))
    return best


def test_criterion_1_dp_matches_exhaustive_enumeration():
    with criterion(1, "DP warp search equals exhaustive path enumeration"):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(4, 9))
            grid = TimeGrid(n)
            q1 = rng.normal(size=n)
            q2 = rng.normal(size=n)
            dp = alignment_cost(SrvfCurve(grid, q1), SrvfCurve(grid, q2))
            bf = brute_force_cost(q1, q2, n)
            worst = max(worst, abs(dp - bf))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-9, f"worst |dp - brute force| = {worst}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_warp_recovery():
    with criterion(2, "alignment recovers 100 random ground-truth warps"):
        grid = TimeGrid(101)
        template = wavy_template(grid)
        q_ref = to_srvf(template)
        rng = np.random.default_rng(7)
        t0 = time.perf_counter()
        hits = 0
        for _ in range(100):
            g0 = random_smooth_warp(grid, rng, scale=0.4)
            w = optimal_warping(q_ref, to_srvf(warped_copy(template, g0)))
            if np.abs(w.gamma - g0.inverse().gamma).max() <= 0.05:
                hits += 1
        elapsed = time.perf_counter() - t0
        assert hits >= 95, f"only {hits}/100 within L-inf 0.05"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_elastic_mean_recovery():
    with criterion(3, "elastic mean recovers a bimodal template"):
        grid = TimeGrid(101)
        template = bimodal_template(grid)
        rng = np.random.default_rng(11)
        curves = [warped_copy(template, random_smooth_warp(grid, rng, 0.3))
                  for _ in range(20)]
        res = phase_amplitude_separation(curves)
        assert res.converged and res.iterations <= 20
        amp_range = template.values.max() - template.values.min()
        rmse = np.sqrt(np.mean((res.mean.values - template.values) ** 2))
        assert rmse <= 0.05 * amp_range, f"rmse {rmse:.4f} vs range {amp_range:.3f}"
        mean_warp = np.mean([w.gamma for w in res.warps], axis=0)
        assert np.abs(mean_warp - grid.points).max() <= 0.02


def test_criterion_4_closed_form_distances():
    with criterion(4, "closed-form phase and amplitude distances"):
        grid = TimeGrid(101)
        t = grid.points
        assert phase_distance(Warping(grid, t ** 2)) == pytest.approx(
            np.arccos(2 * np.sqrt(2) / 3), abs=1e-2)
        assert phase_distance(Warping(grid, t ** 3)) == pytest.approx(
            np.pi / 6, abs=1e-2)
        d = amplitude_distance(Trajectory(grid, t), Trajectory(grid, 2 * t))
        assert d == pytest.approx(np.sqrt(2) - 1, abs=0.02)


def test_criterion_5_isometry_suite():
    with criterion(5, "warping is an isometry and alignment never hurts"):
        grid = TimeGrid(101)
        rng = np.random.default_rng(5)
        for _ in range(100):
            q = random_smooth_srvf(grid, rng)
            w = random_smooth_warp(grid, rng, scale=0.5)
            assert abs(l2_norm(group_action(q, w).q, grid)
                       - l2_norm(q.q, grid)) <= 1e-2
        for _ in range(100):
            q1 = random_smooth_srvf(grid, rng)
            q2 = random_smooth_srvf(grid, rng)
            w = optimal_warping(q1, q2)
            after = l2_norm(q1.q - group_action(q2, w).q, grid)
            before = l2_norm(q1.q - q2.q, grid)
            assert after <= before + 1e-9


def test_criterion_6_statistics_oracle():
    with criterion(6, "Welch p-values match the quadrature t-CDF oracle"):
        def pdf(s, dof):
            from math import exp, lgamma, log, pi
            return exp(lgamma((dof + 1) / 2) - lgamma(dof / 2)
                       - 0.5 * log(dof * pi)
                       - (dof + 1) / 2 * log(1 + s * s / dof))

        def oracle(t, dof):
            tail, _ = quad(pdf, abs(t), np.inf, args=(dof,))
            return min(1.0, 2.0 * tail)

        worst = 0.0
        for t in (0.0, 0.25, 0.8, 1.5, 1.964, 2.571, 3.647, 6.0, 12.0):
            for dof in (1.0, 2.0, 4.0, 5.55, 9.0, 19.0, 60.0, 200.0):
                worst = max(worst, abs(t_two_sided_pvalue(t, dof)
                                       - oracle(t, dof)))
        assert worst <= 1e-6, f"worst |p - oracle| = {worst:g}"

        # worked example; expected statistic recomputed from the defining
        # formula ((3-6)/sqrt(2.5/5+10/5)) and the quadrature oracle
        res = welch_t_test([1, 2, 3, 4, 5], [2, 4, 6, 8, 10])
        assert res.t_statistic == pytest.approx(-1.8973665961010275, abs=1e-2)
        assert res.p_value == pytest.approx(oracle(res.t_statistic, res.dof),
                                            abs=1e-6)
        assert res.p_value == pytest.approx(0.099, abs=1e-2)


def test_criterion_7_planted_effect_pipeline(pipeline_runs):
    with criterion(7, "planted cohort detected, null cohort quiet"):
        stats = json.loads(
            (pipeline_runs["planted_out"] / "stats.json").read_text())
        assert stats["t_tests"]["amplitude"]["p"] < 0.05
        post = stats["matrix_summary"]["post"]
        assert post["within_healthy"] < post["between"]

        null_stats = json.loads(
            (pipeline_runs["null_out"] / "stats.json").read_text())
        for metric in ("amplitude", "phase", "cosine"):
            assert null_stats["t_tests"][metric]["p"] > 0.5, metric
        assert pipeline_runs["elapsed"] < 120.0, \
            f"took {pipeline_runs['elapsed']:.0f}s"


def test_criterion_8_registration_sharpens_block_structure(pipeline_runs):
    with criterion(8, "between/within cosine ratio grows after registration"):
        stats = json.loads(
            (pipeline_runs["planted_out"] / "stats.json").read_text())
        pre = stats["matrix_summary"]["pre"]["ratio"]
        post = stats["matrix_summary"]["post"]["ratio"]
        assert post > pre, f"post ratio {post:.3f} <= pre ratio {pre:.3f}"


def _tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_criterion_9_deterministic_outputs(pipeline_runs):
    with criterion(9, "repeated report runs are byte-identical"):
        first = _tree_digest(pipeline_runs["planted_out"])
        second = _tree_digest(pipeline_runs["planted_repeat"])
        assert first == second
