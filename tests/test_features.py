"""Window statistics, feature vector assembly, and z-normalization."""

import math

import numpy as np
import pytest

from conftest import brute_force_features, brute_force_stats, make_window, window_features

from bitetiming.errors import InsufficientDataError
from bitetiming.features import (
    ABLATIONS,
    FEATURE_DIM,
    NormalizationStats,
    ablation_indices,
    apply_normalizer,
    build_feature_vector,
    feature_dim,
    feature_names,
    fit_normalizer,
)


def axis_stats(half):
    """The kernel's six statistics of one half-window of the ax channel.

    ``half`` (100 samples) fills the first half of ax; every other sample
    is zero.
    """
    imu = np.zeros((3, 200))
    imu[0, :100] = half
    return window_features(imu, np.zeros(100))[:6]


def test_axis_features_constant_signal():
    c = -2.5
    np.testing.assert_array_equal(
        axis_stats(np.full(100, c)), [c, c, c, 0.0, 0.0, abs(c)]
    )


def test_axis_features_hand_example():
    got = axis_stats(np.tile([1.0, 2.0, 3.0, 4.0], 25))
    expected = [4.0, 1.0, 2.5, math.sqrt(1.25), 3.0, math.sqrt(7.5)]
    np.testing.assert_allclose(got, expected, atol=1e-6)


def test_axis_features_negation_symmetry():
    rng = np.random.default_rng(3)
    imu, mic = make_window(rng, scale=2.0)
    f_pos = window_features(imu, mic).reshape(8, 6)
    f_neg = window_features(-imu, -mic).reshape(8, 6)
    np.testing.assert_array_equal(f_neg[:, 0], -f_pos[:, 1])  # max of -x is -min of x
    np.testing.assert_array_equal(f_neg[:, 1], -f_pos[:, 0])
    np.testing.assert_allclose(f_neg[:, 2], -f_pos[:, 2], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(f_neg[:, 3:], f_pos[:, 3:], rtol=1e-12)


def test_axis_features_identities():
    rng = np.random.default_rng(4)
    for _ in range(50):
        imu, mic = make_window(rng, scale=rng.uniform(0.1, 5.0))
        # Some channel-halves constant, to exercise the zero-std identity.
        # Multiples of 1/64 keep their sums, and so their means, exact.
        imu[int(rng.integers(0, 3)), :100] = rng.integers(-256, 256) / 64
        mic[50:] = rng.integers(-64, 65) / 64
        blocks = window_features(imu, mic).reshape(8, 6)
        halves = [imu[a, h * 100 : (h + 1) * 100] for h in range(2) for a in range(3)]
        halves = halves[:3] + [mic[:50]] + halves[3:] + [mic[50:]]
        for f, x in zip(blocks, halves):
            assert f[1] <= f[2] <= f[0]
            assert f[4] == f[0] - f[1]
            assert f[5] >= abs(f[2]) - 1e-12
            assert (f[3] == 0.0) == bool(np.all(x == x[0]))


def test_axis_features_rejects_bad_input():
    imu, mic = np.zeros((3, 400)), np.zeros(200)
    with pytest.raises(InsufficientDataError):
        build_feature_vector(imu, mic, [198], [99])  # IMU window starts before 0
    with pytest.raises(InsufficientDataError):
        build_feature_vector(imu, mic, [399], [200])  # mic window ends past the grid
    with pytest.raises(ValueError):
        build_feature_vector(np.zeros((2, 400)), mic, [199], [99])
    with pytest.raises(ValueError):
        build_feature_vector(imu, np.zeros((1, 200)), [199], [99])
    with pytest.raises(ValueError):
        build_feature_vector(imu, mic, [199, 399], [99])
    assert build_feature_vector(imu, mic, [], []).shape == (0, 48)


def test_feature_names_layout():
    names = feature_names()
    assert len(names) == FEATURE_DIM == 48
    assert names[0] == "h1.ax.max"
    assert names[5] == "h1.ax.rms"
    assert names[18] == "h1.mic.max"
    assert names[24] == "h2.ax.max"
    assert names[47] == "h2.mic.rms"
    assert len(set(names)) == 48


def test_build_feature_vector_zero_window():
    np.testing.assert_array_equal(
        window_features(np.zeros((3, 200)), np.zeros(100)), np.zeros(48)
    )


def test_build_feature_vector_constant_window():
    c = 3.25
    expected = np.tile([c, c, c, 0.0, 0.0, abs(c)], 8)
    np.testing.assert_array_equal(
        window_features(np.full((3, 200), c), np.full(100, c)), expected
    )


def test_build_feature_vector_splits_halves():
    # Half h of every channel holds the constant h + 1, so each 6-stat block
    # shows which samples the kernel assigned to which half.
    imu = np.repeat([[1.0, 2.0]], 100, axis=1).repeat(3, axis=0)
    mic = np.repeat([1.0, 2.0], 50)
    blocks = window_features(imu, mic).reshape(2, 4, 6)
    np.testing.assert_array_equal(blocks[0, :, :3], 1.0)
    np.testing.assert_array_equal(blocks[1, :, :3], 2.0)


def test_build_feature_vector_matches_brute_force():
    rng = np.random.default_rng(7)
    exact = (0, 1, 4)  # max, min, range within each 6-stat block
    for _ in range(50):
        window = make_window(rng, scale=rng.uniform(0.1, 4.0))
        got = window_features(*window)
        want = brute_force_features(*window)
        for block in range(8):
            for j in range(6):
                i = 6 * block + j
                if j in exact:
                    assert got[i] == want[i]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_build_feature_vector_rows_match_single_windows():
    # Overlapping windows at irregular stops over one long grid: each row is
    # bit for bit the row of its window computed alone.
    rng = np.random.default_rng(12)
    imu, mic = rng.normal(0.0, 1.0, (3, 1000)), rng.uniform(-1.0, 1.0, 500)
    imu_stop = np.array([199, 200, 350, 999, 500])
    mic_stop = np.array([99, 120, 121, 499, 300])
    rows = build_feature_vector(imu, mic, imu_stop, mic_stop)
    for row, i, m in zip(rows, imu_stop, mic_stop):
        alone = window_features(imu[:, i - 199 : i + 1].copy(), mic[m - 99 : m + 1].copy())
        np.testing.assert_array_equal(row, alone)
        np.testing.assert_allclose(
            row, brute_force_features(imu[:, i - 199 : i + 1], mic[m - 99 : m + 1]),
            rtol=1e-12, atol=1e-15,
        )


def test_ablation_indices():
    assert feature_dim("imu+mic") == 48
    assert feature_dim("imu") == 36
    assert feature_dim("mic") == 12
    np.testing.assert_array_equal(ablation_indices("imu+mic"), np.arange(48))
    mic_idx = ablation_indices("mic")
    np.testing.assert_array_equal(mic_idx, list(range(18, 24)) + list(range(42, 48)))
    imu_idx = ablation_indices("imu")
    assert set(imu_idx) == set(range(48)) - set(mic_idx.tolist())
    assert set(ABLATIONS) == {"imu+mic", "imu", "mic"}
    with pytest.raises(ValueError):
        ablation_indices("quaternion")


def test_ablation_indices_are_read_only():
    for ablation in ABLATIONS:
        columns = ablation_indices(ablation)
        assert columns is ablation_indices(ablation)
        with pytest.raises(ValueError, match="read-only"):
            columns[0] = 47


def test_ablation_names_select_matching_columns():
    names = np.array(feature_names())
    assert all("mic" in n for n in names[ablation_indices("mic")])
    assert not any("mic" in n for n in names[ablation_indices("imu")])


def test_fit_normalizer_hand_example():
    stats = fit_normalizer(np.array([[2.0], [4.0]]))
    assert stats.mean[0] == 3.0
    assert stats.std[0] == 1.0


def test_fit_normalizer_guards_constant_columns():
    rows = np.array([[5.0, 1.0], [5.0, 3.0], [5.0, 5.0]])
    stats = fit_normalizer(rows)
    assert stats.std[0] == 1.0
    normalized = apply_normalizer(stats, rows)
    np.testing.assert_array_equal(normalized[:, 0], np.zeros(3))


def test_fit_normalizer_zscores_training_rows():
    rng = np.random.default_rng(8)
    rows = rng.normal(3.0, 2.0, (100, 48))
    stats = fit_normalizer(rows)
    z = apply_normalizer(stats, rows)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)


def test_fit_normalizer_errors():
    with pytest.raises(InsufficientDataError):
        fit_normalizer(np.zeros((1, 48)))
    with pytest.raises(ValueError):
        fit_normalizer(np.zeros(48))


def test_normalization_stats_validation_and_round_trip():
    with pytest.raises(ValueError):
        NormalizationStats(mean=np.zeros(3), std=np.ones(4))
    stats = NormalizationStats(mean=np.array([1.0, 2.0]), std=np.array([3.0, 4.0]))
    again = NormalizationStats.from_dict(stats.to_dict())
    np.testing.assert_array_equal(again.mean, stats.mean)
    np.testing.assert_array_equal(again.std, stats.std)


def test_apply_normalizer_centering_and_identity():
    rng = np.random.default_rng(9)
    mean = rng.normal(0.0, 1.0, 48)
    stats = NormalizationStats(mean=mean, std=rng.uniform(0.5, 2.0, 48))
    np.testing.assert_array_equal(apply_normalizer(stats, mean), np.zeros(48))
    identity = NormalizationStats(mean=np.zeros(48), std=np.ones(48))
    f = rng.normal(0.0, 1.0, 48)
    np.testing.assert_array_equal(apply_normalizer(identity, f), f)


def test_apply_normalizer_round_trip():
    rng = np.random.default_rng(10)
    stats = NormalizationStats(
        mean=rng.normal(0.0, 3.0, 48), std=rng.uniform(0.1, 5.0, 48)
    )
    f = rng.normal(0.0, 2.0, 48)
    back = apply_normalizer(stats, f) * stats.std + stats.mean
    np.testing.assert_allclose(back, f, rtol=1e-12, atol=1e-12)


def test_apply_normalizer_dim_mismatch():
    stats = NormalizationStats(mean=np.zeros(48), std=np.ones(48))
    with pytest.raises(ValueError):
        apply_normalizer(stats, np.zeros(36))
