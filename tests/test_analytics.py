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
    InsufficientDataError,
    ParameterError,
    TimeGrid,
    Trajectory,
)
from motionshape.analytics import (
    linear_regression,
    pairwise_matrix,
    rolling_correlation,
    t_two_sided_pvalue,
    welch_t_test,
)
from motionshape.registration import phase_amplitude_separation
from motionshape.synthetic import random_smooth_warp, warped_copy, wavy_template


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

    def test_residuals_orthogonal_to_x(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.normal(size=15)
            y = 2.0 * x + rng.normal(size=15)
            res = linear_regression(x, y)
            resid = y - (res.slope * x + res.intercept)
            scale = max(1.0, float(np.abs(x @ y)))
            assert abs(float(resid @ (x - x.mean()))) <= 1e-9 * scale


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

        monkeypatch.setattr(analytics, "optimal_warping", counted)
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
