"""Uniform resampling of irregular sensor tracks and aligned window grids.

Raw wearable tracks arrive with irregular timestamps. Everything downstream
works on fixed-rate grids: accelerometer channels at 200 Hz and the throat
microphone at 100 Hz, sliced into one-second windows that end on a shared
2 Hz cadence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError

IMU_RATE_HZ = 200.0
MIC_RATE_HZ = 100.0
WINDOW_SECONDS = 1.0
HOP_SECONDS = 0.5

IMU_WINDOW_SAMPLES = int(round(IMU_RATE_HZ * WINDOW_SECONDS))
MIC_WINDOW_SAMPLES = int(round(MIC_RATE_HZ * WINDOW_SECONDS))

# Tolerance for "does this instant land on the grid" arithmetic. Grid times
# are start + k / rate, so accumulated float error is far below this.
_TIME_EPS = 1e-9


@dataclass(frozen=True)
class UniformSeries:
    """A fixed-rate multi-channel series starting at ``start_t``."""

    start_t: float
    rate_hz: float
    values: np.ndarray  # shape (channels, n_samples)

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive, got {self.rate_hz}")
        if self.values.ndim != 2 or self.values.shape[1] < 1:
            raise ValueError(
                f"values must have shape (channels, n_samples), got {self.values.shape}"
            )

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    @property
    def end_t(self) -> float:
        return self.start_t + (self.n_samples - 1) / self.rate_hz

    def times(self) -> np.ndarray:
        return self.start_t + np.arange(self.n_samples) / self.rate_hz


def resample_linear(t: np.ndarray, values: np.ndarray, rate_hz: float) -> UniformSeries:
    """Linearly interpolate an irregular series onto a uniform grid.

    The grid covers t[0] + k / rate_hz for every k with
    t[0] + k / rate_hz <= t[-1], so it never extrapolates.

    Args:
        t: strictly increasing sample timestamps, shape (n,).
        values: sample values, shape (n,) or (n, channels).
        rate_hz: target grid rate.

    Raises:
        InsufficientDataError: fewer than two input samples.
    """
    t = np.asarray(t, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if t.ndim != 1 or t.size != values.shape[0]:
        raise ValueError(
            f"t must be 1-D and match values rows, got {t.shape} vs {values.shape}"
        )
    if t.size < 2:
        raise InsufficientDataError(
            f"resampling needs at least 2 samples, got {t.size}"
        )
    if np.any(np.diff(t) <= 0):
        raise ValueError("timestamps must be strictly increasing")

    start, end = float(t[0]), float(t[-1])
    n_grid = int(np.floor((end - start) * rate_hz + _TIME_EPS)) + 1
    grid = start + np.arange(n_grid) / rate_hz

    cols = values.reshape(values.shape[0], -1)
    out = np.empty((cols.shape[1], n_grid), dtype=np.float64)
    for c in range(cols.shape[1]):
        out[c] = np.interp(grid, t, cols[:, c])
    return UniformSeries(start_t=start, rate_hz=float(rate_hz), values=out)


@dataclass(frozen=True)
class WindowGrid:
    """Every one-second window a pair of resampled series supports.

    Window k ends at ``end_t[k]`` and covers (end_t[k] - 1 s, end_t[k]]: the
    200 IMU samples ending at index ``imu_stop[k]`` and the 100 mic samples
    ending at index ``mic_stop[k]``.
    """

    end_t: np.ndarray
    imu_stop: np.ndarray
    mic_stop: np.ndarray

    def __len__(self) -> int:
        return self.end_t.size


def _stop_index(end_t: np.ndarray, series: UniformSeries) -> np.ndarray:
    # np.rint rounds half to even, exactly like the builtin round().
    return np.rint((end_t - series.start_t) * series.rate_hz).astype(np.intp)


def slice_windows(imu: UniformSeries, mic: UniformSeries) -> WindowGrid:
    """Lay one-second aligned windows over resampled IMU and mic series.

    Window end times start one second into the common span of the two series
    and advance by ``HOP_SECONDS``. Each window takes the trailing 200 IMU and
    100 mic samples, i.e. the grid points inside (end - 1 s, end].

    Raises:
        InsufficientDataError: the common span is shorter than one window.
    """
    if imu.rate_hz != IMU_RATE_HZ or imu.values.shape[0] != 3:
        raise ValueError(
            f"imu series must be 3 channels at {IMU_RATE_HZ} Hz, "
            f"got {imu.values.shape[0]} at {imu.rate_hz}"
        )
    if mic.rate_hz != MIC_RATE_HZ or mic.values.shape[0] != 1:
        raise ValueError(
            f"mic series must be 1 channel at {MIC_RATE_HZ} Hz, "
            f"got {mic.values.shape[0]} at {mic.rate_hz}"
        )

    common_start = max(imu.start_t, mic.start_t)
    common_end = min(imu.end_t, mic.end_t)
    first_end = common_start + WINDOW_SECONDS
    if first_end > common_end + _TIME_EPS:
        raise InsufficientDataError(
            f"common span {common_end - common_start:.3f} s is shorter than "
            f"one {WINDOW_SECONDS} s window"
        )

    n_windows = int(np.floor((common_end - first_end) / HOP_SECONDS + _TIME_EPS)) + 1
    end_t = first_end + np.arange(n_windows) * HOP_SECONDS
    return WindowGrid(end_t, _stop_index(end_t, imu), _stop_index(end_t, mic))
