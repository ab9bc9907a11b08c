"""Session-to-feature-row assembly shared by training, evaluation, and replay.

Resamples a session's raw tracks onto the canonical grids, lays the windows
on the 2 Hz cadence, extracts the features of all of them in one pass, and
attaches ground-truth labels as columns of one ``WindowTable``. Windows after
the final bite have no time-to-bite label and are dropped here, so every
table row is trainable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .dataio import SessionRecord, derive_time_to_bite, motion_labels_at
from .errors import InsufficientDataError
from .features import build_feature_vector
from .signals import IMU_RATE_HZ, MIC_RATE_HZ, resample_linear, slice_windows


@dataclass(frozen=True)
class WindowTable:
    """Feature rows with their labels, one array per column.

    ``features`` is (n, 48) in the canonical layout; every other column is
    (n,). ``time_to_bite`` is the uncapped time in seconds from the window end
    to the next mouth arrival. ``motion_label`` is the robot proceed/stop
    state at the window end (1 = proceeding), valid only where
    ``motion_known`` is True: elsewhere no motion ground truth covers that
    instant. ``participant`` holds each row's participant id.
    """

    features: np.ndarray
    window_end_t: np.ndarray
    time_to_bite: np.ndarray
    motion_label: np.ndarray
    motion_known: np.ndarray
    participant: np.ndarray

    def __len__(self) -> int:
        return self.window_end_t.size

    def rows(self, index: np.ndarray) -> "WindowTable":
        """The rows picked by a boolean mask or an index array, in that order."""
        return WindowTable(*(getattr(self, f.name)[index] for f in fields(self)))

    @classmethod
    def concat(cls, tables: list["WindowTable"]) -> "WindowTable":
        if not tables:
            raise InsufficientDataError("no window tables to concatenate")
        return cls(
            *(np.concatenate([getattr(t, f.name) for t in tables]) for f in fields(cls))
        )


def session_features(session: SessionRecord) -> tuple[np.ndarray, np.ndarray]:
    """End times and 48-feature rows of every window the sensors cover."""
    imu = resample_linear(session.imu_t, session.imu_accel, IMU_RATE_HZ)
    mic = resample_linear(session.mic_t, session.mic_amp, MIC_RATE_HZ)
    grid = slice_windows(imu, mic)
    features = build_feature_vector(imu.values, mic.values[0], grid.imu_stop, grid.mic_stop)
    return grid.end_t, features


def extract_labeled_windows(session: SessionRecord) -> WindowTable:
    """Labeled feature rows of one session, in window order.

    Every row has a finite uncapped time-to-bite; its motion label may be
    unknown where no motion ground truth covers the window end.
    """
    end_t, features = session_features(session)
    time_to_bite = derive_time_to_bite(session, end_t)
    table = WindowTable(
        features,
        end_t,
        time_to_bite,
        *motion_labels_at(session, end_t),
        np.full(end_t.size, session.participant_id),
    )
    return table.rows(~np.isnan(time_to_bite))


def extract_dataset_windows(sessions: list[SessionRecord]) -> WindowTable:
    """Labeled rows for a whole dataset, in session order."""
    return WindowTable.concat([extract_labeled_windows(s) for s in sessions])
