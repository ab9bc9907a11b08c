"""Resampling and aligned window grids."""

import numpy as np
import pytest

from bitetiming.errors import InsufficientDataError
from bitetiming.signals import (
    IMU_RATE_HZ,
    MIC_RATE_HZ,
    UniformSeries,
    resample_linear,
    slice_windows,
)


def uniform_imu(n, start_t=0.0, fill=None):
    values = np.tile(np.arange(n, dtype=np.float64), (3, 1)) if fill is None else np.full((3, n), fill)
    return UniformSeries(start_t=start_t, rate_hz=IMU_RATE_HZ, values=values)


def uniform_mic(n, start_t=0.0, fill=None):
    values = np.arange(n, dtype=np.float64)[None, :] if fill is None else np.full((1, n), fill)
    return UniformSeries(start_t=start_t, rate_hz=MIC_RATE_HZ, values=values)


def test_resample_midpoint():
    out = resample_linear(np.array([0.0, 1.0]), np.array([0.0, 2.0]), rate_hz=2.0)
    np.testing.assert_array_equal(out.values, [[0.0, 1.0, 2.0]])
    assert out.start_t == 0.0
    assert out.rate_hz == 2.0


def test_resample_identity_on_matching_grid():
    t = np.arange(11) / 10.0
    v = np.sin(t * 3.0)
    out = resample_linear(t, v, rate_hz=10.0)
    np.testing.assert_array_equal(out.values[0], v)


def test_resample_preserves_constants():
    t = np.array([0.0, 0.3, 1.1, 2.0])
    out = resample_linear(t, np.full(4, 7.25), rate_hz=50.0)
    np.testing.assert_array_equal(out.values[0], np.full(out.n_samples, 7.25))


def test_resample_exact_on_linear_signals():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(5, 60))
        t = np.sort(rng.uniform(0.0, 10.0, n))
        t = t[np.concatenate([[True], np.diff(t) > 1e-6])]
        if t.size < 2:
            continue
        a, b = rng.normal(0.0, 5.0, 2)
        out = resample_linear(t, a * t + b, rate_hz=float(rng.uniform(5.0, 100.0)))
        expected = a * out.times() + b
        np.testing.assert_allclose(out.values[0], expected, rtol=1e-12, atol=1e-12)


def test_resample_monotone_and_bounded():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        t = np.cumsum(rng.uniform(0.05, 0.5, n))
        v = np.cumsum(rng.uniform(0.0, 1.0, n))
        out = resample_linear(t, v, rate_hz=20.0)
        assert np.all(np.diff(out.values[0]) >= 0.0)
        assert out.values.min() >= v.min() - 1e-12
        assert out.values.max() <= v.max() + 1e-12


def test_resample_multichannel():
    t = np.array([0.0, 1.0, 2.0])
    v = np.array([[0.0, 10.0], [2.0, 30.0], [4.0, 50.0]])
    out = resample_linear(t, v, rate_hz=1.0)
    assert out.values.shape == (2, 3)
    np.testing.assert_array_equal(out.values[0], [0.0, 2.0, 4.0])
    np.testing.assert_array_equal(out.values[1], [10.0, 30.0, 50.0])


def test_resample_errors():
    t2 = np.array([0.0, 1.0])
    with pytest.raises(InsufficientDataError):
        resample_linear(np.array([0.0]), np.array([1.0]), rate_hz=10.0)
    with pytest.raises(ValueError):
        resample_linear(np.array([0.0, 0.5, 0.5]), np.zeros(3), rate_hz=10.0)
    with pytest.raises(ValueError):
        resample_linear(t2, np.zeros(3), rate_hz=10.0)


def test_uniform_series_validation():
    with pytest.raises(ValueError):
        UniformSeries(start_t=0.0, rate_hz=0.0, values=np.zeros((1, 4)))
    with pytest.raises(ValueError):
        UniformSeries(start_t=0.0, rate_hz=10.0, values=np.zeros(4))


def test_uniform_series_times():
    s = UniformSeries(start_t=2.0, rate_hz=4.0, values=np.zeros((1, 5)))
    assert s.n_samples == 5
    assert s.end_t == 3.0
    np.testing.assert_allclose(s.times(), [2.0, 2.25, 2.5, 2.75, 3.0])


def test_slice_count_over_three_seconds():
    windows = slice_windows(uniform_imu(601), uniform_mic(301))
    assert len(windows) == 5
    assert windows.end_t.tolist() == [1.0, 1.5, 2.0, 2.5, 3.0]


def test_slice_exactly_one_second():
    windows = slice_windows(uniform_imu(201), uniform_mic(101))
    assert len(windows) == 1
    assert windows.end_t[0] == 1.0


def test_slice_short_span_is_an_error():
    with pytest.raises(InsufficientDataError):
        slice_windows(uniform_imu(181), uniform_mic(91))


def test_slice_cadence_is_2hz():
    ends = slice_windows(uniform_imu(2001), uniform_mic(1001)).end_t
    np.testing.assert_allclose(np.diff(ends), 0.5)


def test_slice_takes_trailing_samples():
    """A window ending at t covers (t - 1, t]: the sample at t - 1 is excluded."""
    windows = slice_windows(uniform_imu(601), uniform_mic(301))
    # The sample values are their grid indices.
    assert (windows.imu_stop[0], windows.mic_stop[0]) == (200, 100)
    assert (windows.imu_stop[-1], windows.mic_stop[-1]) == (600, 300)
    np.testing.assert_array_equal(windows.imu_stop, [200, 300, 400, 500, 600])


def test_slice_with_offset_starts():
    # imu covers [0.25, 3.25], mic covers [0.5, 3.0]; common span [0.5, 3.0]
    windows = slice_windows(uniform_imu(601, start_t=0.25), uniform_mic(251, start_t=0.5))
    assert windows.end_t.tolist() == [1.5, 2.0, 2.5, 3.0]
    np.testing.assert_array_equal(windows.imu_stop, [250, 350, 450, 550])
    np.testing.assert_array_equal(windows.mic_stop, [100, 150, 200, 250])


def test_slice_input_validation():
    with pytest.raises(ValueError):
        slice_windows(uniform_mic(301), uniform_mic(301))
    with pytest.raises(ValueError):
        slice_windows(uniform_imu(601), uniform_imu(601))
