"""Statistical window features and per-feature z-normalization.

Each one-second aligned window is split into two 500 ms halves, and each of
the four sensor axes (three accelerometer channels plus the microphone)
contributes six summary statistics per half, for 2 x 4 x 6 = 48 features.
Feature order is half-major, then axis, then statistic, and is pinned by
``FEATURE_ORDER_ID`` so trained models can refuse mismatched extractors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import float_rows
from .errors import InsufficientDataError
from .signals import IMU_WINDOW_SAMPLES, MIC_WINDOW_SAMPLES

STAT_NAMES = ("max", "min", "mean", "std", "range", "rms")
AXIS_NAMES = ("ax", "ay", "az", "mic")
HALF_NAMES = ("h1", "h2")

FEATURE_DIM = len(HALF_NAMES) * len(AXIS_NAMES) * len(STAT_NAMES)

# Identifies the exact feature layout produced by build_feature_vector.
# Bump the trailing version if the order, the statistics, or the window
# split ever change; stored model files carry this id and are rejected
# when it no longer matches.
FEATURE_ORDER_ID = "half-axis-stat/v1"

ABLATIONS = ("imu+mic", "imu", "mic")


def feature_names() -> list[str]:
    """Names for all 48 features in extraction order, e.g. 'h1.ax.max'."""
    return [
        f"{half}.{axis}.{stat}"
        for half in HALF_NAMES
        for axis in AXIS_NAMES
        for stat in STAT_NAMES
    ]


def build_feature_vector(
    imu: np.ndarray,
    mic: np.ndarray,
    imu_stop: np.ndarray,
    mic_stop: np.ndarray,
) -> np.ndarray:
    """The 48-feature rows of many windows over the same sample grids.

    ``imu`` holds the three accelerometer channels at 200 Hz, shape (3, n),
    and ``mic`` the microphone at 100 Hz, shape (m,). Window k is the 200 IMU
    samples ending at index ``imu_stop[k]`` and the 100 mic samples ending at
    ``mic_stop[k]``. Returns an (n_windows, 48) matrix in FEATURE_ORDER_ID
    layout; the six statistics per half and axis are [max, min, mean,
    population std, range, RMS].

    Each channel-half is gathered into a (windows, samples) array and reduced
    along its rows, which gives every row bit for bit the statistics of its
    half-window reduced alone.

    Raises:
        InsufficientDataError: a window reaches outside its sample grid.
    """
    imu = np.asarray(imu, dtype=np.float64)
    mic = np.asarray(mic, dtype=np.float64)
    imu_stop = np.asarray(imu_stop, dtype=np.intp)
    mic_stop = np.asarray(mic_stop, dtype=np.intp)
    if imu.ndim != 2 or imu.shape[0] != 3 or mic.ndim != 1:
        raise ValueError(
            f"need imu (3, n) and mic (m,), got {imu.shape} and {mic.shape}"
        )
    if imu_stop.ndim != 1 or imu_stop.shape != mic_stop.shape:
        raise ValueError(
            f"stop indices must be matching 1-D arrays, "
            f"got {imu_stop.shape} and {mic_stop.shape}"
        )
    channels = [(x, imu_stop, IMU_WINDOW_SAMPLES) for x in imu]
    channels.append((mic, mic_stop, MIC_WINDOW_SAMPLES))
    for x, stop, width in channels:
        if stop.size and (stop.min() < width - 1 or stop.max() >= x.size):
            raise InsufficientDataError(
                f"every window needs {width} samples ending inside a grid of "
                f"{x.size}, got stop indices {stop.min()}..{stop.max()}"
            )

    out = np.empty((imu_stop.size, FEATURE_DIM), dtype=np.float64)
    stats = out.reshape(imu_stop.size, len(HALF_NAMES), len(AXIS_NAMES), len(STAT_NAMES))
    for h in range(len(HALF_NAMES)):
        for a, (x, stop, width) in enumerate(channels):
            half = width // 2
            block = x[stop[:, None] + np.arange(half * (h - 2) + 1, half * (h - 1) + 1)]
            x_max = block.max(axis=1)
            x_min = block.min(axis=1)
            stats[:, h, a, 0] = x_max
            stats[:, h, a, 1] = x_min
            stats[:, h, a, 2] = block.mean(axis=1)
            stats[:, h, a, 3] = block.std(axis=1)
            stats[:, h, a, 4] = x_max - x_min
            stats[:, h, a, 5] = np.sqrt(np.mean(block * block, axis=1))
    return out


# Each ablation's columns, computed once. They are read-only because every
# caller shares the same array.
_AXIS_OF_COLUMN = np.arange(FEATURE_DIM) // len(STAT_NAMES) % len(AXIS_NAMES)
_IS_MIC_COLUMN = _AXIS_OF_COLUMN == AXIS_NAMES.index("mic")
_ABLATION_COLUMNS = {
    "imu+mic": np.arange(FEATURE_DIM, dtype=np.intp),
    "imu": np.flatnonzero(~_IS_MIC_COLUMN),
    "mic": np.flatnonzero(_IS_MIC_COLUMN),
}
for _columns in _ABLATION_COLUMNS.values():
    _columns.flags.writeable = False


def ablation_indices(ablation: str) -> np.ndarray:
    """Column indices into the 48-vector kept by a modality ablation.

    'imu+mic' keeps all 48, 'imu' the 36 accelerometer features, 'mic' the
    12 microphone features. Indices are returned in extraction order, as a
    shared read-only array.
    """
    if ablation not in ABLATIONS:
        raise ValueError(f"unknown ablation {ablation!r}, expected one of {ABLATIONS}")
    return _ABLATION_COLUMNS[ablation]


def feature_dim(ablation: str) -> int:
    return ablation_indices(ablation).size


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature mean and standard deviation fitted on training rows."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError(
                f"mean and std must be matching 1-D arrays, "
                f"got {self.mean.shape} and {self.std.shape}"
            )

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationStats":
        return cls(*float_rows([d["mean"], d["std"]]))


def fit_normalizer(rows: np.ndarray) -> NormalizationStats:
    """Fit per-column mean and population std on a (n_rows, n_features) matrix.

    Columns with zero variance get std 1.0 so constant features pass through
    unscaled instead of dividing by zero.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
    if rows.shape[0] < 2:
        raise InsufficientDataError(
            f"normalizer needs at least 2 rows, got {rows.shape[0]}"
        )
    mean = np.mean(rows, axis=0)
    std = np.std(rows, axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return NormalizationStats(mean=mean, std=std)


def apply_normalizer(stats: NormalizationStats, features: np.ndarray) -> np.ndarray:
    """Z-score one feature vector or a matrix of row vectors."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape[-1] != stats.mean.shape[0]:
        raise ValueError(
            f"feature dim {features.shape[-1]} does not match "
            f"normalizer dim {stats.mean.shape[0]}"
        )
    return (features - stats.mean) / stats.std
