"""Shared builders and hand-rolled oracles used across the test suite."""

import math

import numpy as np
from hypothesis import strategies as st

from bitetiming.features import build_feature_vector
from bitetiming.pipeline import WindowTable


def make_window(rng, scale=1.0):
    """Random one-second window: (3, 200) accelerometer and (100,) mic samples."""
    return rng.normal(0.0, scale, (3, 200)), rng.uniform(-1.0, 1.0, 100)


def window_features(imu, mic):
    """The kernel's 48 features of a single window that fills its grids."""
    return build_feature_vector(imu, mic, [imu.shape[1] - 1], [mic.size - 1])[0]


def window_table(features, labels, participants="p01", motion=None):
    """A WindowTable from feature rows and time-to-bite labels.

    ``participants`` is one id for every row or one per row; ``motion`` holds
    one 0, 1 or None (no ground truth) per row, and defaults to all None.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    motion = [None] * n if motion is None else list(motion)
    return WindowTable(
        features=features,
        window_end_t=1.0 + 0.5 * np.arange(n),
        time_to_bite=np.asarray(labels, dtype=np.float64),
        motion_label=np.array([m or 0 for m in motion], dtype=np.int64),
        motion_known=np.array([m is not None for m in motion], dtype=bool),
        participant=np.broadcast_to(np.asarray(participants), (n,)).copy(),
    )


def brute_force_stats(samples):
    """The six window statistics computed with Python builtins only.

    Deliberately avoids numpy reductions so it cannot share a code path with
    the package implementation: max/min/range through builtin min/max, mean
    and population std through explicit sums, RMS through math.sqrt.
    """
    xs = [float(v) for v in samples]
    n = len(xs)
    x_max = max(xs)
    x_min = min(xs)
    mean = sum(xs) / n
    var = sum((v - mean) ** 2 for v in xs) / n
    rms = math.sqrt(sum(v * v for v in xs) / n)
    return [x_max, x_min, mean, math.sqrt(var), x_max - x_min, rms]


def brute_force_features(imu, mic):
    """All 48 features in half-major, axis, stat order, written from scratch."""
    out = []
    for imu_cols, mic_cols in ((slice(0, 100), slice(0, 50)), (slice(100, 200), slice(50, 100))):
        for axis in range(3):
            out.extend(brute_force_stats(imu[axis, imu_cols]))
        out.extend(brute_force_stats(mic[mic_cols]))
    return np.array(out)


# Replacement values for a mutated JSON field: each JSON type, a numeric and
# a non-numeric string, a boolean and a fraction.
JUNK = ("abc", "1.5", True, None, 0.7, -3, {}, [])


def mutate_json(data, node):
    """Delete or replace one value somewhere inside a JSON object, in place.

    Draws a path from ``node`` down through nested objects and arrays, then
    deletes the value at its end or sets it to one of ``JUNK``.
    """
    while True:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys), label="key")
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        value = data.draw(st.sampled_from(("delete",) + JUNK), label="value")
        if value == "delete":
            del node[key]
        else:
            node[key] = value
        return


def same_json(a, b):
    """JSON equality that tells booleans from numbers and strings from both."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            same_json(a[k], b[k]) for k in a
        )
    if isinstance(a, list):
        return (
            isinstance(b, list) and len(a) == len(b) and all(map(same_json, a, b))
        )
    return type(a) in (int, float) and type(b) in (int, float) and a == b or (
        type(a) is type(b) and a == b
    )
