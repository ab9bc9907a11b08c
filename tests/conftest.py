"""Shared builders and hand-rolled oracles used across the test suite."""

import base64
import contextlib
import hashlib
import json
import math
import os
import signal

# One OpenBLAS thread unless the caller chose: at the suite's matrix sizes a
# second thread buys no speed and only burns the other core. OpenBLAS reads
# this once, when numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from bitetiming.features import build_feature_vector
from bitetiming.pipeline import WindowTable

# Every property test prints the @reproduce_failure line of a failing example,
# so a rare failure can be replayed.
settings.register_profile("bitetiming", print_blob=True)
settings.load_profile("bitetiming")


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after ``seconds`` of wall time.

    Lets a test of a call that used to loop forever fail instead of hanging.
    """

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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


# JSON values json.loads refuses with a builtins error, not JSONDecodeError:
# an integer past Python's digit limit and nesting past the recursion limit.
# Each comes with the reason a loader's error gives.
JSON_LIMITS = [
    pytest.param("1" * 5000, "an integer has too many digits", id="digits"),
    pytest.param("[" * 10**5 + "]" * 10**5, "nested too deeply", id="nesting"),
]


def b64(values):
    """Values as waffle/3 columns and bitetiming-model/6 arrays hold them: the
    base64 of their C-order little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def unb64(text):
    """The values of a base64 float64 column or array, as a flat list of floats."""
    return np.frombuffer(base64.b64decode(text), "<f8").tolist()


def write_signed_model(path, doc):
    """Write a model document in save_model's layout, with a fresh checksum.

    The file is a "checksum" member holding the sha256 of the canonical text
    of every other member, then that text less its opening brace, then a
    newline: what save_model writes for a model with that payload.
    """
    payload = {k: v for k, v in doc.items() if k != "checksum"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    path.write_text(f'{{"checksum":"{checksum}",{canonical[1:]}\n')


def write_old_model(path, doc, version):
    """Write ``doc``, a bitetiming-model/6 document, as schema ``version``
    1 to 5 laid out its files: arrays as nested lists of numbers, in an
    indented dump (1) or signed canonical text (2), or the signed base64
    arrays that /6 keeps (3 to 5). Their train_config also stored the Adam
    constants and the label cap."""
    dims = doc["layer_dims"]
    doc = dict(doc, schema=f"bitetiming-model/{version}")
    if doc["train_config"] is not None:
        doc["train_config"] = dict(
            doc["train_config"], label_cap_seconds=10.0, beta1=0.9, beta2=0.999, adam_eps=1e-8
        )
    if version in (3, 4, 5):
        write_signed_model(path, doc)
        return
    doc["weights"] = [
        np.reshape(unb64(w), shape).tolist() for w, shape in zip(doc["weights"], zip(dims, dims[1:]))
    ]
    doc["biases"] = [unb64(b) for b in doc["biases"]]
    doc["normalization"] = {k: unb64(v) for k, v in doc["normalization"].items()}
    if version == 1:
        path.write_text(json.dumps(doc, indent=1) + "\n")
    else:
        write_signed_model(path, doc)


# Replacement values for a mutated JSON field: each JSON type, a numeric and
# a non-numeric string, a boolean and a fraction.
JUNK = ("abc", "1.5", True, None, 0.7, -3, {}, [])


def mutate_json(data, node, junk=JUNK):
    """Delete or replace one value somewhere inside a JSON object, in place.

    Draws a path from ``node`` down through nested objects and arrays, then
    deletes the value at its end or sets it to one of ``junk``.
    """
    while True:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys), label="key")
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        value = data.draw(st.sampled_from(("delete",) + junk), label="value")
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
