import numpy as np
import pytest
from hypothesis import given, strategies as st

from motionshape.core import (
    DegenerateInputError,
    DimensionError,
    DomainError,
    InsufficientDataError,
    ParameterError,
    TimeGrid,
    Trajectory,
    Warping,
    common_grid,
    inner_product,
    interp_linear,
)

finite_floats = st.floats(-1e3, 1e3, allow_nan=False)


def vectors(n):
    return st.lists(finite_floats, min_size=n, max_size=n).map(np.array)


class TestTimeGrid:
    def test_endpoints_and_uniformity(self):
        g = TimeGrid(11)
        assert g.points[0] == 0.0
        assert g.points[-1] == 1.0
        spacings = np.diff(g.points)
        assert spacings.max() - spacings.min() < 1e-12

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            TimeGrid(2)


class TestCommonGrid:
    def test_shared_grid_returned(self, wavy101):
        w = Warping.identity(TimeGrid(101))
        assert common_grid([wavy101, w]) is wavy101.grid
        assert common_grid([w]) is w.grid

    def test_no_items(self):
        with pytest.raises(InsufficientDataError):
            common_grid([])

    def test_different_sizes(self, wavy101, grid201):
        with pytest.raises(DimensionError, match=r"\[101, 201\]"):
            common_grid([wavy101, Warping.identity(grid201), wavy101])


class TestTrajectory:
    def test_length_mismatch(self, grid101):
        with pytest.raises(DimensionError):
            Trajectory(grid101, np.zeros(100))

    def test_nonfinite_rejected(self, grid101):
        bad = np.zeros(101)
        bad[3] = np.nan
        with pytest.raises(DegenerateInputError):
            Trajectory(grid101, bad)

    def test_values_frozen(self, grid101):
        traj = Trajectory(grid101, np.zeros(101))
        with pytest.raises(ValueError):
            traj.values[0] = 1.0


class TestWarping:
    def test_identity(self, grid101):
        w = Warping.identity(grid101)
        assert w.gamma[0] == 0.0 and w.gamma[-1] == 1.0
        assert np.all(np.diff(w.gamma) >= 0)

    def test_decreasing_rejected(self, grid101):
        g = grid101.points.copy()
        g[50], g[51] = g[51], g[50]
        with pytest.raises(DegenerateInputError):
            Warping(grid101, g)

    def test_inverse_roundtrip(self, grid101):
        w = Warping(grid101, grid101.points ** 2)
        back = w.compose(w.inverse())
        assert np.abs(back.gamma - grid101.points).max() < 5e-3

    def test_endpoints_pinned(self, grid101):
        g = grid101.points * (1 - 1e-13)
        w = Warping(grid101, g)
        assert w.gamma[0] == 0.0 and w.gamma[-1] == 1.0


class TestInnerProduct:
    def test_constant_one(self):
        for n in (3, 11, 101):
            g = TimeGrid(n)
            assert inner_product(np.ones(n), np.ones(n), g) == pytest.approx(1.0)

    def test_t_squared(self, grid101):
        t = grid101.points
        assert inner_product(t, t, grid101) == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_sin_cos_orthogonal(self, grid201):
        t = grid201.points
        ip = inner_product(np.sin(2 * np.pi * t), np.cos(2 * np.pi * t), grid201)
        assert abs(ip) < 1e-3

    def test_length_mismatch(self, grid101):
        with pytest.raises(DimensionError):
            inner_product(np.ones(100), np.ones(101), grid101)

    @given(f=vectors(21), g=vectors(21))
    def test_symmetry(self, f, g):
        grid = TimeGrid(21)
        assert inner_product(f, g, grid) == pytest.approx(
            inner_product(g, f, grid), abs=1e-12)

    @given(f=vectors(21), g=vectors(21), h=vectors(21),
           a=st.floats(-10, 10), b=st.floats(-10, 10))
    def test_bilinearity(self, f, g, h, a, b):
        grid = TimeGrid(21)
        lhs = inner_product(a * f + b * g, h, grid)
        rhs = a * inner_product(f, h, grid) + b * inner_product(g, h, grid)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-9 * scale

    @given(f=vectors(21))
    def test_positive_semidefinite(self, f):
        grid = TimeGrid(21)
        assert inner_product(f, f, grid) >= 0.0


class TestInterpLinear:
    def test_exact_at_nodes(self, wavy101):
        out = interp_linear(wavy101, wavy101.grid.points)
        np.testing.assert_array_equal(out, wavy101.values)

    def test_linear_signal_midpoint(self, grid101):
        traj = Trajectory(grid101, grid101.points)
        assert interp_linear(traj, np.array([0.5]))[0] == pytest.approx(0.5)

    def test_hand_evaluated_tent(self):
        grid = TimeGrid(3)
        traj = Trajectory(grid, np.array([0.0, 1.0, 0.0]))
        assert interp_linear(traj, np.array([0.25]))[0] == pytest.approx(0.5)

    def test_outside_domain(self, wavy101):
        with pytest.raises(DomainError):
            interp_linear(wavy101, np.array([1.5]))

    @given(q=st.lists(st.floats(0, 1), min_size=1, max_size=8))
    def test_idempotent_on_nodes(self, q):
        grid = TimeGrid(11)
        traj = Trajectory(grid, np.sin(grid.points * 5))
        nodes = grid.points[(np.asarray(q) * 10).astype(int)]
        once = interp_linear(traj, nodes)
        again = interp_linear(Trajectory(grid, traj.values), nodes)
        np.testing.assert_array_equal(once, again)
