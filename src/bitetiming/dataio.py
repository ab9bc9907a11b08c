"""Session file format, dataset manifests, and ground-truth label derivation.

A session file is line-delimited JSON: one header line followed by one record
per line. The header is ``{"schema": "waffle/1", "participant": ...,
"scenario": ...}`` and every other line carries a ``track`` field:

    {"track": "imu", "t": .., "ax": .., "ay": .., "az": ..,
     "qw": .., "qx": .., "qy": .., "qz": ..}      # quaternion optional
    {"track": "mic", "t": .., "amp": ..}
    {"track": "bite", "staging_arrival_t": .., "feeding_arrival_t": ..,
     "bite_complete_t": ..}
    {"track": "motion", "t": .., "moving": 0 or 1}

Timestamps are seconds from session start, accelerations m/s^2, microphone
amplitude normalized to [-1, 1]. A dataset manifest is a single JSON document
``{"schema": "waffle-manifest/1", "sessions": [paths...]}`` with paths
relative to the manifest's directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaVersionError, TrackValidationError

SESSION_SCHEMA = "waffle/1"
MANIFEST_SCHEMA = "waffle-manifest/1"

SCENARIOS = ("individual", "social")

QUAT_NORM_TOL = 1e-3

# The fields read from each kind of sample line; "quat" is an imu line that
# carries a quaternion.
_FIELDS = {
    "imu": ("t", "ax", "ay", "az"),
    "quat": ("t", "ax", "ay", "az", "qw", "qx", "qy", "qz"),
    "mic": ("t", "amp"),
    "motion": ("t", "moving"),
}
_GETTERS = {kind: itemgetter(*keys) for kind, keys in _FIELDS.items()}


@dataclass(frozen=True)
class BiteEvent:
    """One completed feeding cycle: staging, then mouth arrival, then done."""

    staging_arrival_t: float
    feeding_arrival_t: float
    bite_complete_t: float

    def __post_init__(self) -> None:
        if not (
            self.staging_arrival_t < self.feeding_arrival_t < self.bite_complete_t
        ):
            raise TrackValidationError(
                f"bite timestamps must be strictly ordered, got "
                f"({self.staging_arrival_t}, {self.feeding_arrival_t}, "
                f"{self.bite_complete_t})"
            )


@dataclass
class SessionRecord:
    """All sensor tracks and ground truth of one recorded session.

    Tracks are stored as column arrays: ``imu_t`` (n,), ``imu_accel`` (n, 3),
    ``imu_quat`` (n, 4) in w, x, y, z order or None, ``mic_t`` (m,),
    ``mic_amp`` (m,), ``motion_t`` (k,) with ``motion_moving`` (k,) in {0, 1}.
    """

    participant_id: str
    scenario: str
    imu_t: np.ndarray
    imu_accel: np.ndarray
    mic_t: np.ndarray
    mic_amp: np.ndarray
    imu_quat: np.ndarray | None = None
    bites: list[BiteEvent] = field(default_factory=list)
    motion_t: np.ndarray = field(default_factory=lambda: np.empty(0))
    motion_moving: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


def _require_increasing(t: np.ndarray, track: str) -> None:
    bad = np.nonzero(np.diff(t) <= 0)[0]
    if bad.size:
        i = int(bad[0]) + 1
        raise TrackValidationError(
            f"{track} timestamps must be strictly increasing, "
            f"violated at sample {i} (t={t[i]!r} after t={t[i - 1]!r})"
        )


def _require_finite(values: np.ndarray, track: str, what: str) -> None:
    finite = np.all(np.isfinite(values), axis=tuple(range(1, values.ndim)))
    bad = np.nonzero(~finite)[0]
    if bad.size:
        i = int(bad[0])
        raise TrackValidationError(
            f"{track} {what} at sample {i} is not finite: {values[i]!r}"
        )


def validate_session(session: SessionRecord) -> None:
    """Check finiteness, ordering, range, and norm constraints on every track.

    Raises TrackValidationError naming the offending track and sample index.
    """
    if session.scenario not in SCENARIOS:
        raise TrackValidationError(
            f"scenario must be one of {SCENARIOS}, got {session.scenario!r}"
        )
    _require_finite(session.imu_t, "imu", "timestamp")
    if session.imu_t.size:
        _require_increasing(session.imu_t, "imu")
    if session.imu_accel.shape != (session.imu_t.size, 3):
        raise TrackValidationError(
            f"imu accel shape {session.imu_accel.shape} does not match "
            f"{session.imu_t.size} timestamps"
        )
    _require_finite(session.imu_accel, "imu", "acceleration")
    if session.imu_quat is not None:
        if session.imu_quat.shape != (session.imu_t.size, 4):
            raise TrackValidationError(
                f"imu quat shape {session.imu_quat.shape} does not match "
                f"{session.imu_t.size} timestamps"
            )
        _require_finite(session.imu_quat, "imu", "quaternion")
        norms = np.linalg.norm(session.imu_quat, axis=1)
        bad = np.nonzero(np.abs(norms - 1.0) > QUAT_NORM_TOL)[0]
        if bad.size:
            i = int(bad[0])
            raise TrackValidationError(
                f"imu quaternion at sample {i} has norm {norms[i]:.6f}, "
                f"expected 1 within {QUAT_NORM_TOL}"
            )
    _require_finite(session.mic_t, "mic", "timestamp")
    if session.mic_t.size:
        _require_increasing(session.mic_t, "mic")
    if session.mic_amp.shape != session.mic_t.shape:
        raise TrackValidationError(
            f"mic amp shape {session.mic_amp.shape} does not match "
            f"{session.mic_t.size} timestamps"
        )
    _require_finite(session.mic_amp, "mic", "amplitude")
    bad = np.nonzero(np.abs(session.mic_amp) > 1.0)[0]
    if bad.size:
        i = int(bad[0])
        raise TrackValidationError(
            f"mic amplitude at sample {i} is {session.mic_amp[i]!r}, "
            f"outside [-1, 1]"
        )
    for i in range(1, len(session.bites)):
        prev, cur = session.bites[i - 1], session.bites[i]
        if cur.staging_arrival_t < prev.bite_complete_t:
            raise TrackValidationError(
                f"bite {i} starts staging at {cur.staging_arrival_t} before "
                f"bite {i - 1} completes at {prev.bite_complete_t}"
            )
    _require_finite(session.motion_t, "motion", "timestamp")
    if session.motion_t.size:
        _require_increasing(session.motion_t, "motion")
    if session.motion_moving.shape != session.motion_t.shape:
        raise TrackValidationError(
            f"motion moving shape {session.motion_moving.shape} does not "
            f"match {session.motion_t.size} timestamps"
        )
    bad = np.nonzero(~np.isin(session.motion_moving, (0, 1)))[0]
    if bad.size:
        i = int(bad[0])
        raise TrackValidationError(
            f"motion label at sample {i} is {session.motion_moving[i]}, "
            f"expected 0 or 1"
        )


_encode = json.JSONEncoder(separators=(",", ":")).encode


def _bite_line(b: BiteEvent) -> str:
    rec = {
        "track": "bite",
        "staging_arrival_t": b.staging_arrival_t,
        "feeding_arrival_t": b.feeding_arrival_t,
        "bite_complete_t": b.bite_complete_t,
    }
    return _encode(rec) + "\n"


def write_session(session: SessionRecord, path: str | Path) -> None:
    """Write one session to ``path`` in the line-delimited format."""
    validate_session(session)

    def floats(a: np.ndarray) -> list:
        return np.asarray(a, dtype=np.float64).tolist()

    header = {
        "schema": SESSION_SCHEMA,
        "participant": session.participant_id,
        "scenario": session.scenario,
    }
    quat = None if session.imu_quat is None else floats(session.imu_quat)
    with Path(path).open("w", encoding="utf-8") as f:
        f.write(_encode(header) + "\n")
        for i, (t, (ax, ay, az)) in enumerate(
            zip(floats(session.imu_t), floats(session.imu_accel))
        ):
            rec = {"track": "imu", "t": t, "ax": ax, "ay": ay, "az": az}
            if quat is not None:
                rec["qw"], rec["qx"], rec["qy"], rec["qz"] = quat[i]
            f.write(_encode(rec) + "\n")
        for t, amp in zip(floats(session.mic_t), floats(session.mic_amp)):
            f.write(_encode({"track": "mic", "t": t, "amp": amp}) + "\n")
        for b in session.bites:
            f.write(_bite_line(b))
        for t, moving in zip(floats(session.motion_t), session.motion_moving.tolist()):
            f.write(_encode({"track": "motion", "t": t, "moving": int(moving)}) + "\n")


def _parse_line(path: Path, lineno: int, line: str) -> dict:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{lineno}: invalid JSON: {e.msg}") from e
    if not isinstance(rec, dict):
        raise ParseError(f"{path}:{lineno}: expected a JSON object")
    return rec


def _field(path: Path, lineno: int, rec: dict, key: str) -> float:
    try:
        return rec[key]
    except KeyError:
        raise ParseError(
            f"{path}:{lineno}: {rec.get('track', 'header')!r} line is "
            f"missing field {key!r}"
        ) from None


def _typed(path: Path, lineno: int, rec: dict, key: str, types: tuple, what: str):
    value = _field(path, lineno, rec, key)
    # type(), not isinstance(): a JSON true is a bool, which is an int.
    if type(value) not in types:
        raise ParseError(
            f"{path}:{lineno}: {rec.get('track', 'header')!r} field {key!r} "
            f"is not {what}: {value!r}"
        )
    return value


def _number(path: Path, lineno: int, rec: dict, key: str) -> float:
    return _typed(path, lineno, rec, key, (int, float), "a number")


def _string(path: Path, lineno: int, rec: dict, key: str) -> str:
    return _typed(path, lineno, rec, key, (str,), "a string")


def _bite(path: Path, lineno: int, rec: dict) -> BiteEvent:
    try:
        return BiteEvent(
            staging_arrival_t=_number(path, lineno, rec, "staging_arrival_t"),
            feeding_arrival_t=_number(path, lineno, rec, "feeding_arrival_t"),
            bite_complete_t=_number(path, lineno, rec, "bite_complete_t"),
        )
    except TrackValidationError as e:
        raise TrackValidationError(f"{path}:{lineno}: {e}") from None


def float_rows(rows) -> np.ndarray:
    """Rows of JSON numbers as a float64 matrix. One pass over the value types
    rejects the strings (such as "1.5") and booleans that numpy would convert."""
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        raise ValueError("values must be lists of numbers")
    return np.array(rows, dtype=np.float64)


def _stack(
    path: Path, lines: list[str], track: str, keys: tuple[str, ...], rows: list[tuple]
) -> np.ndarray:
    """One track's rows as a float64 (n, len(keys)) array.

    Only when a value is not a JSON number are the lines scanned again, to
    name the first one holding it.
    """
    try:
        return float_rows(rows).reshape(-1, len(keys))
    except OverflowError as e:
        raise ParseError(f"{path}: {track} values do not fit a float: {e}") from e
    except ValueError:
        pass
    for lineno, line in enumerate(lines[1:], start=2):
        rec = json.loads(line) if line.strip() else {}
        if rec.get("track") == track:
            for key in keys:
                _number(path, lineno, rec, key)
    raise ParseError(f"{path}: {track} values are not numbers")


def read_session(path: str | Path) -> SessionRecord:
    """Read and validate one session file.

    Raises:
        ParseError: malformed JSON, missing or non-numeric fields, with the
            line number.
        SchemaVersionError: the header declares an unknown schema.
        TrackValidationError: parsed tracks violate format invariants, with
            the path.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file, expected a header line")

    header = _parse_line(path, 1, lines[0])
    schema = header.get("schema")
    if schema is None:
        raise ParseError(f"{path}:1: header is missing the 'schema' field")
    if schema != SESSION_SCHEMA:
        raise SchemaVersionError(
            f"{path}: schema {schema!r} is not supported, expected {SESSION_SCHEMA!r}"
        )
    participant = _string(path, 1, header, "participant")
    scenario = _string(path, 1, header, "scenario")

    rows: dict[str, list[tuple]] = {"imu": [], "mic": [], "motion": []}
    bites: list[BiteEvent] = []
    imu_kind = None  # the first imu line decides whether all carry a quaternion
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rec = _parse_line(path, lineno, line)
        kind = track = rec.get("track")
        if track == "bite":
            bites.append(_bite(path, lineno, rec))
            continue
        if track == "imu":
            kind = "quat" if "qw" in rec else "imu"
            imu_kind = imu_kind or kind
            if kind != imu_kind:
                raise ParseError(
                    f"{path}:{lineno}: quaternion fields must be present on "
                    f"all imu lines or none"
                )
        elif track not in ("mic", "motion"):
            raise ParseError(f"{path}:{lineno}: unknown track {track!r}")
        try:
            rows[track].append(_GETTERS[kind](rec))
        except KeyError as e:
            _field(path, lineno, rec, e.args[0])

    imu = _stack(path, lines, "imu", _FIELDS[imu_kind or "imu"], rows["imu"])
    mic = _stack(path, lines, "mic", _FIELDS["mic"], rows["mic"])
    motion = _stack(path, lines, "motion", _FIELDS["motion"], rows["motion"])
    session = SessionRecord(
        participant_id=participant,
        scenario=scenario,
        imu_t=imu[:, 0],
        imu_accel=imu[:, 1:4],
        imu_quat=imu[:, 4:] if imu_kind == "quat" else None,
        mic_t=mic[:, 0],
        mic_amp=mic[:, 1],
        bites=bites,
        motion_t=motion[:, 0],
        motion_moving=motion[:, 1],
    )
    try:
        validate_session(session)
    except TrackValidationError as e:
        raise TrackValidationError(f"{path}: {e}") from None
    # Validated as floats first, so a label such as 0.7 is rejected rather
    # than truncated to 0.
    session.motion_moving = session.motion_moving.astype(np.int64)
    return session


def write_manifest(session_paths: list[str | Path], path: str | Path) -> None:
    """Write a dataset manifest listing session files relative to it."""
    path = Path(path)
    rel = [str(Path(p).resolve().relative_to(path.resolve().parent)) for p in session_paths]
    doc = {"schema": MANIFEST_SCHEMA, "sessions": rel}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_dataset(manifest_path: str | Path) -> list[SessionRecord]:
    """Load every session listed in a manifest.

    Sessions are returned sorted by (participant, scenario) so dataset order
    never depends on manifest order. Raises ParseError naming the manifest
    when it is not JSON or its ``sessions`` is not a list of path strings.
    """
    manifest_path = Path(manifest_path)
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ParseError(f"{manifest_path}: invalid JSON: {e.msg}") from e
    if not isinstance(doc, dict) or "schema" not in doc:
        raise ParseError(f"{manifest_path}: expected an object with a 'schema' field")
    if doc["schema"] != MANIFEST_SCHEMA:
        raise SchemaVersionError(
            f"{manifest_path}: schema {doc['schema']!r} is not supported, "
            f"expected {MANIFEST_SCHEMA!r}"
        )
    rels = doc.get("sessions")
    if type(rels) is not list or not all(type(rel) is str for rel in rels):
        raise ParseError(f"{manifest_path}: 'sessions' must be a list of path strings")
    sessions = []
    for rel in rels:
        sessions.append(read_session(manifest_path.parent / rel))
    sessions.sort(key=lambda s: (s.participant_id, s.scenario))
    return sessions


def derive_time_to_bite(session: SessionRecord, window_end_t: np.ndarray) -> np.ndarray:
    """Seconds from each window end to the next mouth arrival at or after it.

    NaN where no bite arrives at or after the window end; windows after the
    final bite carry no regression label.
    """
    window_end_t = np.asarray(window_end_t, dtype=np.float64)
    # NaN sorts last, so a window with no upcoming arrival lands on it.
    arrivals = np.sort([b.feeding_arrival_t for b in session.bites] + [np.nan])
    return arrivals[np.searchsorted(arrivals, window_end_t)] - window_end_t


def motion_labels_at(
    session: SessionRecord, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold motion labels at the instants ``t``.

    The label of the most recent motion sample with sample time <= t applies.
    Returns (labels, known). Before the first motion sample there is no
    label: ``known`` is False there and the label reads 0.
    """
    idx = np.searchsorted(session.motion_t, t, side="right") - 1
    known = idx >= 0
    labels = np.zeros(idx.shape, dtype=np.int64)
    labels[known] = session.motion_moving[idx[known]]
    return labels, known
