"""`solve`, the lattice DP's one public entry, and the step enumeration
behind it. The DP's bit-for-bit checks against its reference are in
test_registration.py."""

import numpy as np
import pytest

from motionshape import lattice
from motionshape.core import DimensionError, SrvfCurve, TimeGrid
from motionshape.lattice import solve
from motionshape.registration import optimal_warping


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
