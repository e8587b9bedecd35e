import warnings
from math import exp, lgamma, log, pi

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from motionshape import analytics, registration
from motionshape.core import (
    DegenerateInputError,
    DimensionError,
    DistanceTriple,
    InsufficientDataError,
    ParameterError,
    TimeGrid,
    Trajectory,
    common_grid,
    l2_norm,
)
from motionshape.analytics import (
    METRICS,
    DistanceMatrix,
    ParticipantScore,
    RegressionResult,
    TTestResult,
    block_summary,
    cohort_regressions,
    cohort_t_tests,
    linear_regression,
    pairwise_matrix,
    rolling_correlation,
    t_two_sided_pvalue,
    welch_t_test,
)
from motionshape.inputs import PipelineConfig
from motionshape.pipeline import stages
from motionshape.registration import (
    align_to_reference,
    cosine_distance,
    group_action,
    optimal_warping,
    phase_amplitude_separation,
    phase_distance,
    to_srvf,
    warped_copy,
)
from motionshape.synthetic import random_smooth_warp, write_cohort

from conftest import wavy_template


def reference_registered_matrix(curves, metric, max_slope):
    """The per-pair double loop `pairwise_matrix(registered=True)` ran
    before each row became one `align_to_reference` call."""
    grid = common_grid(curves)
    m = len(curves)
    qs = [to_srvf(c) for c in curves]
    d = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            w = optimal_warping(qs[i], qs[j], max_slope)
            if metric == "phase":
                d[i, j] = phase_distance(w)
            elif metric == "amplitude":
                d[i, j] = l2_norm(qs[i].q - group_action(qs[j], w).q, grid)
            else:
                d[i, j] = cosine_distance(curves[i], warped_copy(curves[j], w))
    d = 0.5 * (d + d.T)
    d[d < 0] = 0.0  # cosine can round to -1e-17 on near-identical pairs
    return d


def reference_betacf(a: float, b: float, x: float) -> float:
    """The incomplete-beta continued fraction before its two Lentz updates
    per step became one loop, the reference for `analytics._betacf`."""
    _CF_EPS, _CF_FPMIN, _CF_MAXIT = 3e-16, 1e-300, 400
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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


def student_pdf(s, dof):
    return exp(lgamma((dof + 1) / 2) - lgamma(dof / 2)
               - 0.5 * log(dof * pi) - (dof + 1) / 2 * log(1 + s * s / dof))


def p_oracle(t, dof):
    """Two-sided tail mass by adaptive quadrature, independent of the
    incomplete-beta route used by the implementation."""
    tail, _ = quad(student_pdf, abs(t), np.inf, args=(dof,))
    return min(1.0, 2.0 * tail)


samples = st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=12)


def sixty_fourths(bound):
    """Multiples of 1/64 in [-bound, bound]: sums of two are exact floats."""
    return st.integers(-64 * bound, 64 * bound).map(lambda k: k / 64)


class TestWelch:
    def test_equal_samples(self):
        res = welch_t_test([3.0, 1.0, 4.0, 1.0], [3.0, 1.0, 4.0, 1.0])
        assert res.t_statistic == 0.0
        assert res.p_value == 1.0

    def test_worked_example(self):
        # reference values frozen from the direct formula plus the quadrature
        # oracle above: t = (3-6)/sqrt(2.5/5 + 10/5), Welch-Satterthwaite dof
        res = welch_t_test([1, 2, 3, 4, 5], [2, 4, 6, 8, 10])
        assert res.t_statistic == pytest.approx(-1.8973665961010275, abs=1e-12)
        assert res.dof == pytest.approx(5.882352941176471, abs=1e-12)
        assert res.p_value == pytest.approx(0.10753119493062714, abs=1e-9)
        assert res.p_value == pytest.approx(p_oracle(res.t_statistic, res.dof),
                                            abs=1e-9)

    def test_p_matches_quadrature_oracle(self):
        for t in (0.0, 0.25, 1.0, 1.9, 3.3, 7.0):
            for dof in (1.0, 2.0, 5.5, 17.0, 64.0):
                assert abs(t_two_sided_pvalue(t, dof)
                           - p_oracle(t, dof)) <= 1e-6

    def test_degenerate_constant_samples(self):
        res = welch_t_test([2.0, 2.0], [2.0, 2.0])
        assert (res.t_statistic, res.p_value) == (0.0, 1.0)
        with pytest.raises(DegenerateInputError):
            welch_t_test([2.0, 2.0], [3.0, 3.0])

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            welch_t_test([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("dof", [0.0, -1.0, np.inf, np.nan])
    def test_bad_dof_rejected(self, dof):
        with pytest.raises(ParameterError,
                           match=f"positive and finite, got {dof}$"):
            t_two_sided_pvalue(1.0, dof)

    @pytest.mark.parametrize("t", [np.inf, -np.inf])
    def test_infinite_t_has_p_zero(self, t):
        assert t_two_sided_pvalue(t, 3.0) == 0.0

    def test_huge_t_no_overflow_warning(self):
        # |t| ~ 2e170, so t * t overflows a double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = welch_t_test([0.0, 1e-160], [1e10, 1e10])
        assert res.p_value == 0.0
        assert type(res.p_value) is float

    @given(a=samples, b=samples)
    def test_antisymmetry(self, a, b):
        try:
            fwd = welch_t_test(a, b)
            rev = welch_t_test(b, a)
        except DegenerateInputError:
            return
        assert fwd.t_statistic == pytest.approx(-rev.t_statistic, abs=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)

    # exact shifts: a rounded `a + shift` can erase a sample's spread
    @given(a=st.lists(sixty_fourths(50), min_size=2, max_size=12),
           b=st.lists(sixty_fourths(50), min_size=2, max_size=12),
           shift=sixty_fourths(100))
    @settings(max_examples=50)
    def test_translation_invariance(self, a, b, shift):
        try:
            base = welch_t_test(a, b)
            moved = welch_t_test(np.asarray(a) + shift, np.asarray(b) + shift)
        except DegenerateInputError:
            return
        scale = max(1.0, abs(base.t_statistic))
        assert abs(base.t_statistic - moved.t_statistic) <= 1e-9 * scale
        assert abs(base.p_value - moved.p_value) <= 1e-9


class TestBetaContinuedFraction:
    def test_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(2011)
        a = np.concatenate([10 ** rng.uniform(-1, 3, 1500),
                            10 ** rng.uniform(3, 5, 300)])
        b = np.where(rng.random(a.size) < 0.5, 0.5,
                     10 ** rng.uniform(-1, 3, a.size))
        x = rng.random(a.size)
        below = x < (a + 1) / (a + b + 2)  # `_betainc` calls _betacf(a, b, x)
        assert below.sum() > 300 and (~below).sum() > 300
        for ai, bi, xi, direct in zip(a, b, x, below):
            args = ((float(ai), float(bi), float(xi)) if direct
                    else (float(bi), float(ai), 1.0 - float(xi)))
            assert analytics._betacf(*args) == reference_betacf(*args), args


class TestLinearRegression:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        res = linear_regression(x, 2 * x + 1)
        assert res.slope == pytest.approx(2.0, abs=1e-12)
        assert res.intercept == pytest.approx(1.0, abs=1e-12)
        assert res.r == pytest.approx(1.0, abs=1e-12)
        assert res.p_value < 1e-6

    def test_constant_y(self):
        res = linear_regression([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert res.slope == 0.0
        assert res.r == 0.0
        assert res.p_value == pytest.approx(1.0, abs=1e-9)

    def test_hand_computed(self):
        res = linear_regression([1, 2, 3, 4], [2, 4, 5, 8])
        assert res.slope == pytest.approx(1.9, abs=1e-2)
        assert res.r == pytest.approx(0.98, abs=1e-2)

    def test_constant_x_rejected(self):
        with pytest.raises(DegenerateInputError):
            linear_regression([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            linear_regression([1.0, 2.0], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError, match="length mismatch: 3 vs 4"):
            linear_regression([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("x, y, reason", [
        # Sxx underflows to 0 although x is not constant
        ([1e-320, 2e-320, 3e-320, 4e-320], [0.1, 0.5, 0.2, 0.3],
         r"x spread out of float range \(Sxx 0\)"),
        # Sxx overflows to inf
        ([1e300, 2e300, 3e300, 4e300], [0.1, 0.5, 0.2, 0.3],
         r"x spread out of float range \(Sxx inf\)"),
        # Sxx is positive, but Sxx * Syy underflows to 0
        ([1e-160, 2e-160, 3e-160, 4e-160], [1e-10, 5e-10, 2e-10, 3e-10],
         r"x and y spreads out of float range \(Sxx\*Syy 0, Sxy "),
    ], ids=["sxx_underflows", "sxx_overflows", "sxx_syy_underflows"])
    def test_sums_out_of_float_range_rejected(self, x, y, reason):
        with pytest.raises(DegenerateInputError, match=reason):
            linear_regression(x, y)  # and no numpy warning

    def test_residuals_orthogonal_to_x(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.normal(size=15)
            y = 2.0 * x + rng.normal(size=15)
            res = linear_regression(x, y)
            resid = y - (res.slope * x + res.intercept)
            scale = max(1.0, float(np.abs(x @ y)))
            assert abs(float(resid @ (x - x.mean()))) <= 1e-9 * scale


def score(cohort, amplitude, phase, cosine, brooke=None, dynamometry=None):
    return ParticipantScore(f"{cohort}{amplitude}", cohort, brooke,
                            dynamometry,
                            DistanceTriple(amplitude, phase, cosine))


class TestCohortStatistics:
    """The per-cohort wrappers over `welch_t_test` and `linear_regression`,
    and `block_summary`, on hand-made scores and matrices."""

    HEALTHY = [score("healthy", 1.0, 0.1, 0.01, 6, 40.0),
               score("healthy", 1.5, 0.2, 0.03, 5, 35.0),
               score("healthy", 0.8, 0.1, 0.02, None, 42.5)]
    PATIENTS = [score("DMD", 3.0, 0.4, 0.20, 3, 12.0),
                score("SMA", 2.5, 0.6, 0.10, 2, None),
                score("DMD", 4.0, 0.5, 0.30, 1, 8.0)]

    def test_t_tests_match_welch(self):
        out = cohort_t_tests(self.HEALTHY + self.PATIENTS)
        assert list(out) == list(METRICS)
        for metric in METRICS:
            res = welch_t_test(
                [getattr(s.triple, metric) for s in self.HEALTHY],
                [getattr(s.triple, metric) for s in self.PATIENTS])
            assert out[metric] == {"t": res.t_statistic, "p": res.p_value,
                                   "dof": res.dof}

    @pytest.mark.parametrize("healthy, patients", [(3, 1), (1, 3), (3, 0)])
    def test_t_tests_need_two_trials_per_group(self, healthy, patients):
        out = cohort_t_tests(self.HEALTHY[:healthy] + self.PATIENTS[:patients])
        assert out == {metric: {"skipped": "need >= 2 trials per group"}
                       for metric in METRICS}

    def test_t_test_skips_zero_variance_with_unequal_means(self):
        scores = [score("healthy", 1.0, 0.1, 0.01),
                  score("healthy", 1.0, 0.2, 0.02),
                  score("DMD", 2.0, 0.4, 0.2),
                  score("SMA", 2.0, 0.5, 0.3)]
        out = cohort_t_tests(scores)
        assert out["amplitude"] == {
            "skipped": "zero variance in both samples, unequal means"}
        assert set(out["phase"]) == set(out["cosine"]) == {"t", "p", "dof"}

    def test_regressions_match_least_squares(self):
        scores = self.HEALTHY + self.PATIENTS
        out = cohort_regressions(scores)
        assert sorted(out) == ["amplitude_vs_brooke",
                               "amplitude_vs_dynamometry",
                               "phase_vs_brooke", "phase_vs_dynamometry"]
        for metric in ("amplitude", "phase"):
            for name, covariate in (("brooke", "brooke_score"),
                                    ("dynamometry", "dynamometry")):
                kept = [s for s in scores
                        if getattr(s, covariate) is not None]
                res = linear_regression(
                    [getattr(s, covariate) for s in kept],
                    [getattr(s.triple, metric) for s in kept])
                assert out[f"{metric}_vs_{name}"] == {
                    "n": 5, "slope": res.slope, "intercept": res.intercept,
                    "r": res.r, "p": res.p_value}

    def test_regressions_need_three_points(self):
        scores = [score("healthy", 1.0, 0.1, 0.01, 6, 40.0),
                  score("DMD", 3.0, 0.4, 0.2, None, 12.0),
                  score("SMA", 2.5, 0.6, 0.1, 2, None)]
        out = cohort_regressions(scores)
        for metric in ("amplitude", "phase"):
            for name in ("brooke", "dynamometry"):
                assert out[f"{metric}_vs_{name}"] == {
                    "n": 2, "skipped": "fewer than 3 points"}

    def test_regression_skips_a_constant_covariate(self):
        scores = [score("healthy", 1.0, 0.1, 0.01, 4, 40.0),
                  score("DMD", 3.0, 0.4, 0.2, 4, 12.0),
                  score("SMA", 2.5, 0.6, 0.1, 4, 20.0)]
        out = cohort_regressions(scores)
        assert out["amplitude_vs_brooke"] == out["phase_vs_brooke"] == {
            "n": 3, "skipped": "regressor x is constant"}
        assert out["amplitude_vs_dynamometry"]["n"] == 3
        assert "slope" in out["amplitude_vs_dynamometry"]

    def test_block_summary_by_hand(self):
        # healthy rows 0 and 2, patients 1 and 3
        values = np.array([[0.0, 3.0, 1.0, 5.0],
                           [3.0, 0.0, 2.0, 6.0],
                           [1.0, 2.0, 0.0, 4.0],
                           [5.0, 6.0, 4.0, 0.0]])
        matrix = DistanceMatrix(list("abcd"), values)
        out = block_summary(matrix, ["healthy", "DMD", "healthy", "SMA"])
        assert out == {"within_healthy": 1.0, "between": 3.5, "ratio": 3.5}

    @pytest.mark.parametrize("cohorts", [
        ["healthy", "DMD", "SMA"], ["healthy", "healthy", "healthy"]],
        ids=["one healthy", "no patient"])
    def test_block_summary_needs_two_healthy_and_a_patient(self, cohorts):
        assert block_summary(DistanceMatrix(list("abc"), np.zeros((3, 3))),
                             cohorts) is None

    def test_block_summary_ratio_is_none_for_identical_healthy(self):
        values = np.array([[0.0, 0.0, 2.0],
                           [0.0, 0.0, 2.0],
                           [2.0, 2.0, 0.0]])
        out = block_summary(DistanceMatrix(list("abc"), values),
                            ["healthy", "healthy", "DMD"])
        assert out == {"within_healthy": 0.0, "between": 2.0, "ratio": None}


class TestResultRecords:
    """The result records refuse values that no computation should give."""

    @pytest.mark.parametrize("values, error, match", [
        (np.zeros((3, 3)), DimensionError, r"expected 2x2 matrix, got \(3, 3\)"),
        ([[1.0, 0.0], [0.0, 0.0]], DegenerateInputError, "diagonal is not zero"),
        ([[0.0, 1.0], [2.0, 0.0]], DegenerateInputError, "not symmetric"),
        ([[0.0, -1.0], [-1.0, 0.0]], DegenerateInputError, "negative entries"),
    ], ids=["shape", "diagonal", "asymmetric", "negative"])
    def test_distance_matrix_rejects(self, values, error, match):
        with pytest.raises(error, match=match):
            DistanceMatrix(["a", "b"], np.asarray(values))

    def test_distance_matrix_holds_a_read_only_copy(self):
        values = np.array([[0.0, 1.0], [1.0, 0.0]])
        matrix = DistanceMatrix(["a", "b"], values)
        values[0, 1] = -7.0
        assert matrix.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(ValueError, match="read-only"):
            matrix.values[0, 1] = -7.0

    @pytest.mark.parametrize("p, dof, match", [
        (1.5, 3.0, r"p-value 1.5 outside \[0, 1\]"),
        (-0.1, 3.0, r"p-value -0.1 outside \[0, 1\]"),
        (0.5, 0.0, "dof must be positive, got 0.0"),
        (0.5, -2.0, "dof must be positive, got -2.0"),
    ])
    def test_t_test_result_rejects(self, p, dof, match):
        with pytest.raises(DegenerateInputError, match=match):
            TTestResult(1.0, p, dof)

    @pytest.mark.parametrize("r, p, match", [
        (1.5, 0.5, r"\|r\| > 1: 1.5"),
        (-1.5, 0.5, r"\|r\| > 1: -1.5"),
        (0.5, 1.5, r"p-value 1.5 outside \[0, 1\]"),
        (0.5, -0.1, r"p-value -0.1 outside \[0, 1\]"),
    ])
    def test_regression_result_rejects(self, r, p, match):
        with pytest.raises(DegenerateInputError, match=match):
            RegressionResult(1.0, 0.0, r, p)


class TestRollingCorrelation:
    def test_self_correlation(self, wavy101):
        out = rolling_correlation(wavy101, wavy101, 11)
        assert out.size == 101 - 11 + 1
        np.testing.assert_allclose(out, 1.0, atol=1e-9)

    def test_negated(self, grid101, wavy101):
        flipped = Trajectory(grid101, -wavy101.values)
        out = rolling_correlation(wavy101, flipped, 11)
        np.testing.assert_allclose(out, -1.0, atol=1e-9)

    def test_matches_direct_window_loop(self, grid201):
        t = grid201.points
        a = Trajectory(grid201, np.sin(2 * np.pi * t))
        b = Trajectory(grid201, np.sin(2 * np.pi * (t + 0.25)))
        window = 20
        out = rolling_correlation(a, b, window)
        for pos in range(0, out.size, 13):
            xa = a.values[pos:pos + window]
            xb = b.values[pos:pos + window]
            expected = np.corrcoef(xa, xb)[0, 1]
            assert out[pos] == pytest.approx(expected, abs=1e-9)
        assert np.nanmin(out) >= -1 - 1e-9 and np.nanmax(out) <= 1 + 1e-9

    def test_zero_variance_window_is_nan(self, grid101):
        vals = np.zeros(101)
        vals[60:] = np.linspace(0, 1, 41)
        a = Trajectory(grid101, vals)
        out = rolling_correlation(a, a, 10)
        assert np.isnan(out[0])
        assert out.size == 101 - 10 + 1
        assert np.isfinite(out[-1])

    @pytest.mark.parametrize("window", [2, 102, 0])
    def test_window_out_of_range(self, wavy101, window):
        with pytest.raises(ParameterError):
            rolling_correlation(wavy101, wavy101, window)

    def test_grid_mismatch(self, wavy101, grid201):
        other = Trajectory(grid201, np.zeros(201))
        with pytest.raises(DimensionError):
            rolling_correlation(wavy101, other, 10)


class TestPairwiseMatrix:
    def test_identical_pair_all_metrics(self, wavy101):
        for metric in ("amplitude", "cosine"):
            for registered in (False, True):
                m = pairwise_matrix([wavy101, wavy101], metric, registered)
                np.testing.assert_allclose(m.values, 0.0, atol=1e-9)
        m = pairwise_matrix([wavy101, wavy101], "phase", registered=True)
        np.testing.assert_allclose(m.values, 0.0, atol=1e-9)

    def test_registration_reduces_cosine(self, grid101, wavy101):
        rng = np.random.default_rng(41)
        pair = [wavy101,
                warped_copy(wavy101, random_smooth_warp(grid101, rng, 0.4))]
        pre = pairwise_matrix(pair, "cosine", registered=False).values[0, 1]
        post = pairwise_matrix(pair, "cosine", registered=True).values[0, 1]
        assert post <= pre

    def test_block_structure(self, grid101):
        template = wavy_template(grid101)
        rng = np.random.default_rng(52)
        a = warped_copy(template, random_smooth_warp(grid101, rng, 0.35))
        b = warped_copy(template, random_smooth_warp(grid101, rng, 0.35))
        distinct = Trajectory(grid101, np.cos(3 * np.pi * grid101.points) ** 2)
        m = pairwise_matrix([a, b, distinct], "cosine", registered=True).values
        assert m[0, 1] < m[0, 2]
        assert m[0, 1] < m[1, 2]

    def test_phase_requires_registration(self, wavy101):
        with pytest.raises(ParameterError):
            pairwise_matrix([wavy101, wavy101], "phase", registered=False)

    def test_unknown_metric(self, wavy101):
        with pytest.raises(ParameterError):
            pairwise_matrix([wavy101, wavy101], "euclidean", registered=False)

    def test_matrix_invariants(self, grid101):
        rng = np.random.default_rng(60)
        template = wavy_template(grid101)
        curves = [warped_copy(template, random_smooth_warp(grid101, rng, 0.5))
                  for _ in range(4)]
        for metric, registered in (("amplitude", False), ("amplitude", True),
                                   ("cosine", False), ("cosine", True),
                                   ("phase", True)):
            m = pairwise_matrix(curves, metric, registered).values
            np.testing.assert_allclose(np.diagonal(m), 0.0, atol=1e-9)
            np.testing.assert_allclose(m, m.T, atol=1e-12)
            assert m.min() >= 0.0

    def test_needs_two_curves(self, wavy101):
        with pytest.raises(InsufficientDataError):
            pairwise_matrix([wavy101], "cosine", registered=False)

    @pytest.mark.parametrize("n", [31, 101])
    @pytest.mark.parametrize("max_slope", [3, 7])
    def test_registered_matches_pair_loop(self, n, max_slope):
        grid = TimeGrid(n)
        template = wavy_template(grid)
        rng = np.random.default_rng(17)
        curves = [warped_copy(template, random_smooth_warp(grid, rng, 0.4))
                  for _ in range(4)]
        for metric in ("amplitude", "phase", "cosine"):
            got = pairwise_matrix(curves, metric, True, max_slope).values
            want = reference_registered_matrix(curves, metric, max_slope)
            assert np.array_equal(got, want), metric

    @pytest.mark.parametrize("metric", ["amplitude", "phase", "cosine"])
    def test_registered_rejects_flat_curve(self, grid101, wavy101, metric):
        flat = Trajectory(grid101, np.zeros(101))
        with pytest.raises(DegenerateInputError, match="zero signal"):
            pairwise_matrix([wavy101, flat], metric, registered=True)

    @pytest.mark.parametrize("call", [
        lambda ref, tiny: align_to_reference([tiny], ref),
        lambda ref, tiny: registration.align_pairwise([ref, tiny]),
        lambda ref, tiny: pairwise_matrix([ref, tiny], "amplitude", True),
        lambda ref, tiny: pairwise_matrix([ref, tiny], "phase", True),
        lambda ref, tiny: pairwise_matrix([ref, tiny], "cosine", True),
    ], ids=["align_to_reference", "align_pairwise", "amplitude", "phase",
            "cosine"])
    def test_registered_rejects_curve_whose_aligned_copy_is_flat(self, call):
        # a unit spike at index 2 scaled to an L2 norm of 5e-12, above the
        # ingest floor sqrt(7) x MIN_SIGNAL_NORM; the optimal warp steps over
        # the spike, so the aligned copy is all zeros
        grid = TimeGrid(31)
        ref = Trajectory(grid, np.random.default_rng(3).normal(size=31)
                         .cumsum())
        spike = np.zeros(31)
        spike[2] = 1.0
        tiny = Trajectory(grid, spike * 5e-12 / l2_norm(spike, grid))
        assert l2_norm(tiny.values, grid) > (
            np.sqrt(7) * registration.MIN_SIGNAL_NORM)
        with pytest.raises(DegenerateInputError, match="zero signal"):
            call(ref, tiny)


class TestOneSolvePerPair:
    """Every pair alignment is one `optimal_warping` call: the benchmark's
    closed-form solve count relies on it."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        real = registration.optimal_warping

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(registration, "optimal_warping", counted)
        return calls

    @pytest.fixture
    def curves(self):
        grid = TimeGrid(31)
        template = wavy_template(grid)
        rng = np.random.default_rng(9)
        return [warped_copy(template, random_smooth_warp(grid, rng, 0.3))
                for _ in range(4)]

    @pytest.mark.parametrize("metric", ["amplitude", "phase", "cosine"])
    def test_registered_matrix(self, solves, curves, metric):
        pairwise_matrix(curves, metric, registered=True)
        assert len(solves) == len(curves) * (len(curves) - 1)

    def test_unregistered_matrix(self, solves, curves):
        pairwise_matrix(curves, "amplitude", registered=False)
        assert solves == []

    def test_karcher_mean(self, solves, curves):
        result = phase_amplitude_separation(curves, max_iter=3, tol=1e-12)
        assert result.iterations == 3
        assert len(solves) == result.iterations * len(curves)

    def test_align_to_reference(self, solves, curves):
        align_to_reference(curves[1:], curves[0])
        assert len(solves) == len(curves) - 1

    def test_every_solve_goes_through_the_seam(self, solves, monkeypatch,
                                               tmp_path):
        through_seam = []
        seam = registration._align_srvfs

        def counted(pairs, max_slope):
            through_seam.append(len(pairs))
            return seam(pairs, max_slope)

        monkeypatch.setattr(registration, "_align_srvfs", counted)
        m = write_cohort(tmp_path, n_healthy=3, n_patients=2, seed=5,
                         rate_hz=50.0, duration_s=2.0)
        names = [name for name, _ in stages(m, PipelineConfig(grid_n=31))]
        assert names[-1] == "report"
        assert len(solves) == sum(through_seam) > 0

    def test_one_yield_per_measured_layer(self, solves, tmp_path):
        # no worker_pool block, so every solve runs here and is counted
        m = write_cohort(tmp_path, n_healthy=3, n_patients=2, seed=5,
                         rate_hz=50.0, duration_s=2.0)
        names, runs, solved = [], {}, {}
        for name, run in stages(m, PipelineConfig(grid_n=31)):
            names.append(name)
            runs[name] = run
            solved[name] = len(solves)
        assert names == ["ingest", "mean", "score", "stats", "matrix_pre",
                         "matrix_post", "report"]
        assert runs["matrix_pre"].matrix_pre is not None
        assert runs["matrix_pre"].matrix_post is None
        assert solved["matrix_pre"] - solved["stats"] == 0
        trials = len(runs["ingest"].items)
        assert solved["matrix_post"] - solved["matrix_pre"] == \
            trials * (trials - 1)
        assert solved["report"] == solved["matrix_post"]
