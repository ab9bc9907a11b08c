"""The columnar window table against a per-window reference path."""

import dataclasses

import numpy as np
import pytest

from conftest import window_table

from bitetiming.errors import InsufficientDataError
from bitetiming.pipeline import (
    WindowTable,
    extract_dataset_windows,
    extract_labeled_windows,
)
from bitetiming.signals import IMU_RATE_HZ, MIC_RATE_HZ, resample_linear
from bitetiming.sim import synthesize_scenario


def reference_stats(x):
    """Six statistics of one 1-D half-window, each reduced on its own."""
    return [x.max(), x.min(), np.mean(x), np.std(x), x.max() - x.min(), np.sqrt(np.mean(x * x))]


def reference_rows(session):
    """Labeled rows built one window at a time, with scalar label scans.

    Returns (window_end_t, features, time_to_bite, motion) per row, where
    motion is None when no motion sample precedes the window end.
    """
    imu = resample_linear(session.imu_t, session.imu_accel, IMU_RATE_HZ)
    mic = resample_linear(session.mic_t, session.mic_amp, MIC_RATE_HZ)
    first_end = max(imu.start_t, mic.start_t) + 1.0
    common_end = min(imu.end_t, mic.end_t)
    rows = []
    for k in range(int(np.floor((common_end - first_end) / 0.5 + 1e-9)) + 1):
        end_t = first_end + k * 0.5
        imu_stop = int(round((end_t - imu.start_t) * IMU_RATE_HZ))
        mic_stop = int(round((end_t - mic.start_t) * MIC_RATE_HZ))
        imu_block = imu.values[:, imu_stop - 199 : imu_stop + 1].copy()
        mic_block = mic.values[0, mic_stop - 99 : mic_stop + 1].copy()
        features = []
        for imu_half, mic_half in ((slice(0, 100), slice(0, 50)), (slice(100, 200), slice(50, 100))):
            for axis in range(3):
                features.extend(reference_stats(imu_block[axis, imu_half]))
            features.extend(reference_stats(mic_block[mic_half]))
        upcoming = [b.feeding_arrival_t for b in session.bites if b.feeding_arrival_t >= end_t]
        if not upcoming:
            continue
        motion = None
        for t, moving in zip(session.motion_t, session.motion_moving):
            if t <= end_t:
                motion = int(moving)
        rows.append((end_t, features, min(upcoming) - end_t, motion))
    return rows


def shifted_mic(session, offset):
    return dataclasses.replace(session, mic_t=session.mic_t + offset)


@pytest.fixture(scope="module")
def sessions():
    base = [
        synthesize_scenario("p01", "individual", 60.0, seed=[21, 1]).session,
        synthesize_scenario("p02", "social", 60.0, seed=[21, 2]).session,
    ]
    # Mic grids starting off the IMU grid, later and earlier than the IMU.
    return base + [shifted_mic(base[0], 0.0137), shifted_mic(base[1], -0.0031)]


def test_table_matches_the_per_window_reference(sessions):
    for session in sessions:
        table = extract_labeled_windows(session)
        ref = reference_rows(session)
        assert len(table) == len(ref) > 0
        end_t, features, time_to_bite, motion = zip(*ref)
        np.testing.assert_array_equal(table.window_end_t, end_t)
        np.testing.assert_array_equal(table.features, np.array(features))
        np.testing.assert_array_equal(table.time_to_bite, time_to_bite)
        np.testing.assert_array_equal(table.motion_known, [m is not None for m in motion])
        np.testing.assert_array_equal(table.motion_label, [m or 0 for m in motion])
        assert set(table.participant.tolist()) == {session.participant_id}


def test_offset_mic_changes_features(sessions):
    # The shifted session really takes other mic samples.
    a = extract_labeled_windows(sessions[0])
    b = extract_labeled_windows(sessions[2])
    assert not np.array_equal(a.features[:, 18:24], b.features[:, 18:24])


def test_table_drops_windows_after_the_last_bite(sessions):
    session = sessions[0]
    last_arrival = max(b.feeding_arrival_t for b in session.bites)
    table = extract_labeled_windows(session)
    assert table.window_end_t.max() <= last_arrival
    assert np.all(table.time_to_bite >= 0.0)


def test_dataset_table_is_the_session_tables_in_order(sessions):
    table = extract_dataset_windows(sessions[:2])
    parts = [extract_labeled_windows(s) for s in sessions[:2]]
    assert len(table) == sum(len(p) for p in parts)
    np.testing.assert_array_equal(
        table.features, np.concatenate([p.features for p in parts])
    )
    assert table.participant.tolist() == ["p01"] * len(parts[0]) + ["p02"] * len(parts[1])
    with pytest.raises(InsufficientDataError):
        extract_dataset_windows([])


def test_rows_selects_every_column():
    table = window_table(np.arange(96.0).reshape(4, 24).repeat(2, axis=1), [1.0, 2.0, 3.0, 4.0],
                         ["a", "b", "a", "b"], [1, None, 0, 1])
    picked = table.rows(np.array([2, 0]))
    assert isinstance(picked, WindowTable)
    assert picked.participant.tolist() == ["a", "a"]
    assert picked.time_to_bite.tolist() == [3.0, 1.0]
    assert picked.motion_known.tolist() == [True, True]
    assert picked.motion_label.tolist() == [0, 1]
    np.testing.assert_array_equal(picked.features, table.features[[2, 0]])
    assert len(table.rows(table.participant == "b")) == 2
