import numpy as np
import pytest
from scipy import signal

from motionshape.core import InsufficientDataError, ParameterError, TimeGrid, Trajectory
from motionshape.preprocess import (
    PADLEN_PER_ORDER,
    RawRecording,
    _butter_lowpass_ba,
    butterworth_lowpass,
    derivative,
    resample,
)


def projected_amplitude(y, t, freq):
    """Amplitude of the `freq`-cycle component by least-squares projection."""
    s, c = np.sin(2 * np.pi * freq * t), np.cos(2 * np.pi * freq * t)
    return float(np.hypot(2 * np.mean(y * s), 2 * np.mean(y * c)))


class TestRawRecording:
    def test_non_monotone_rejected(self):
        with pytest.raises(InsufficientDataError):
            RawRecording(np.array([0.0, 2.0, 1.0]), np.zeros(3))

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            RawRecording(np.array([0.0]), np.array([1.0]))

    def test_nonfinite(self):
        with pytest.raises(InsufficientDataError):
            RawRecording(np.array([0.0, 1.0, np.inf]), np.zeros(3))


class TestResample:
    def test_uniform_identity(self):
        t = np.linspace(0.0, 2.0, 50)
        x = np.sin(t * 3)
        out = resample(RawRecording(t, x), 50)
        np.testing.assert_allclose(out.values, x, atol=1e-12)

    def test_linear_exact(self):
        t = np.array([0.0, 0.3, 0.9, 2.0, 2.2, 4.0])
        x = 3.0 * t - 1.0
        out = resample(RawRecording(t, x), 17)
        expect = 3.0 * np.linspace(0, 4, 17) - 1.0
        np.testing.assert_allclose(out.values, expect, atol=1e-12)

    def test_hand_evaluated(self):
        out = resample(RawRecording(np.array([0.0, 1.0, 3.0]),
                                    np.array([0.0, 1.0, 3.0])), 5)
        np.testing.assert_allclose(out.values, [0.0, 0.75, 1.5, 2.25, 3.0])

    def test_n_too_small(self):
        rec = RawRecording(np.arange(10.0), np.arange(10.0))
        with pytest.raises(ParameterError):
            resample(rec, 2)


class TestButterworth:
    def test_constant_unchanged(self, grid101):
        traj = Trajectory(grid101, np.full(101, 3.7))
        out = butterworth_lowpass(traj, 3, 0.1)
        np.testing.assert_allclose(out.values, traj.values, atol=1e-9)

    def test_grid_preserved(self, wavy101):
        out = butterworth_lowpass(wavy101, 3, 0.2)
        assert out.grid is wavy101.grid
        assert out.values.size == wavy101.grid.n

    def test_cutoff_attenuation_half(self):
        # forward+backward pass is -3 dB twice at the cutoff, i.e. gain 0.5
        n = 2001
        grid = TimeGrid(n)
        t = grid.points
        ratio = 0.2
        freq = ratio * (n - 1) / 2
        x = np.sin(2 * np.pi * freq * t)
        y = butterworth_lowpass(Trajectory(grid, x), 3, ratio).values
        sl = slice(n // 10, -(n // 10))
        amp = projected_amplitude(y[sl], t[sl], freq)
        assert amp == pytest.approx(0.5, rel=0.05)

    def test_octave_above_attenuation(self):
        n = 2001
        grid = TimeGrid(n)
        t = grid.points
        ratio = 0.2
        freq = 2 * ratio * (n - 1) / 2
        x = np.sin(2 * np.pi * freq * t)
        y = butterworth_lowpass(Trajectory(grid, x), 3, ratio).values
        sl = slice(n // 10, -(n // 10))
        amp = projected_amplitude(y[sl], t[sl], freq)
        assert -20 * np.log10(amp) >= 30.0

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.3, 2.0])
    def test_bad_cutoff(self, wavy101, ratio):
        with pytest.raises(ParameterError):
            butterworth_lowpass(wavy101, 3, ratio)

    def test_bad_order(self, wavy101):
        with pytest.raises(ParameterError):
            butterworth_lowpass(wavy101, 0, 0.1)

    def test_filter_resample_commute(self):
        # band-limited input: filtering before or after downsampling agrees
        k = 2001
        ts = np.linspace(0.0, 2.0, k)
        x = (np.sin(2 * np.pi * 1.5 * ts) + 0.5 * np.sin(2 * np.pi * 3.5 * ts)
             + 0.25 * np.sin(2 * np.pi * 5.5 * ts))
        rec = RawRecording(ts, x)
        n = 201
        cutoff_cycles = 0.2 * (n - 1) / 2
        a = butterworth_lowpass(resample(rec, n), 3, 0.2).values

        fine = butterworth_lowpass(resample(rec, k), 3,
                                   cutoff_cycles / ((k - 1) / 2))
        rec_b = RawRecording(np.linspace(0.0, 2.0, k), fine.values)
        b = resample(rec_b, n).values
        rms = np.sqrt(np.mean((a - b) ** 2)) / np.sqrt(np.mean(x ** 2))
        assert rms < 0.05


class TestButterworthMatchesScipy:
    """The filter is plain numpy; scipy's butter + filtfilt is the oracle."""

    CUTOFFS = (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.95, 0.999)

    @pytest.mark.parametrize("order", [*range(1, 13), 16, 20])
    def test_bit_identical(self, order):
        rng = np.random.default_rng(order)
        padlen = PADLEN_PER_ORDER * order
        for cutoff in self.CUTOFFS:
            b, a = _butter_lowpass_ba(order, cutoff)
            b_ref, a_ref = signal.butter(order, cutoff)
            assert np.array_equal(b, b_ref) and np.array_equal(a, a_ref)
            for n in (padlen + 1, padlen + 2, 101, 257):
                x = np.cumsum(rng.standard_normal(n))
                got = butterworth_lowpass(Trajectory(TimeGrid(n), x),
                                          order, cutoff).values
                want = signal.filtfilt(b_ref, a_ref, x, padtype="even",
                                       padlen=padlen)
                assert np.array_equal(got, want), (cutoff, n)


class TestDerivative:
    def test_linear_slope(self, grid101):
        traj = Trajectory(grid101, 4.2 * grid101.points - 1.0)
        np.testing.assert_allclose(derivative(traj).values, 4.2, atol=1e-10)

    def test_sinusoid(self, grid201):
        t = grid201.points
        d = derivative(Trajectory(grid201, np.sin(2 * np.pi * t))).values
        assert np.abs(d - 2 * np.pi * np.cos(2 * np.pi * t)).max() < 1e-2

    def test_constant_zero(self, grid101):
        traj = Trajectory(grid101, np.full(101, 9.9))
        np.testing.assert_allclose(derivative(traj).values, 0.0, atol=1e-12)
