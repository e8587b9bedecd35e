"""`solve`, the lattice DP's one public entry, the step enumeration behind
it and its cached lattice plans. The DP's bit-for-bit checks against its
reference are in test_registration.py."""

import numpy as np
import pytest

from motionshape import lattice
from motionshape.core import (DegenerateInputError, DimensionError, SrvfCurve,
                              TimeGrid)
from motionshape.lattice import _lattice_plan, solve
from motionshape.registration import optimal_warping

from test_registration import assert_same_path, reference_lattice_path


class TestSolve:
    def test_slope_beyond_grid_enumerates_only_grid_steps(self, monkeypatch):
        # no step longer than the grid fits on it; enumerating them anyway
        # costs O(max_slope^2) gcd calls per solve
        n, edge_steps = 8, lattice._edge_steps

        def grid_steps_only(max_slope):
            if max_slope > n - 1:
                pytest.fail(f"_edge_steps({max_slope}) on a {n}-point grid")
            return edge_steps(max_slope)

        monkeypatch.setattr(lattice, "_edge_steps", grid_steps_only)
        rng = np.random.default_rng(12)
        q1, q2 = (SrvfCurve(TimeGrid(n), rng.normal(size=n)) for _ in range(2))
        got = optimal_warping(q1, q2, max_slope=10**6)
        want = optimal_warping(q1, q2, max_slope=n - 1)
        assert np.array_equal(got.gamma, want.gamma)

    def test_arrays_of_different_lengths_rejected(self):
        with pytest.raises(DimensionError, match="got 5 and 6"):
            solve(np.zeros(5), np.zeros(6), 7)

    @pytest.mark.parametrize("n", [0, 1])
    def test_arrays_shorter_than_two_samples_rejected(self, n):
        with pytest.raises(DimensionError,
                           match=f"at least 2 samples, got {n}$"):
            solve(np.zeros(n), np.zeros(n), 7)

    def test_slope_below_one_rejected(self):
        q = np.zeros(5)
        with pytest.raises(DegenerateInputError,
                           match="max_slope must be >= 1, got 0$"):
            solve(q, q, 0)


class TestLatticePlan:
    @pytest.mark.parametrize("n, max_slope", [(3, 7), (31, 3), (101, 7)])
    def test_cached_arrays_are_read_only(self, n, max_slope):
        plan = _lattice_plan(n, max_slope)
        assert _lattice_plan(n, max_slope) is plan
        for arr in (plan.positions, plan.scales):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]

    def test_alternating_grids_match_reference(self):
        rng = np.random.default_rng(24)
        for n, max_slope in [(31, 3), (101, 7), (31, 3)]:
            q1, q2 = rng.normal(size=n), rng.normal(size=n)
            assert_same_path(solve(q1, q2, max_slope),
                             reference_lattice_path(q1, q2, n, max_slope))
