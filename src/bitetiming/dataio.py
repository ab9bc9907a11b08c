"""Session and closed-loop log formats, dataset manifests, and ground-truth
label derivation.

A ``waffle/3`` session file is line-delimited JSON: a header line
``{"schema": "waffle/3", "participant": ..., "scenario": ...}``, one line per
bite, then one line per column of each sensor track in this order, holding
the base64 of the column's little-endian float64 bytes (every column's one
dtype):

    {"track": "bite", "staging_arrival_t": .., "feeding_arrival_t": ..,
     "bite_complete_t": ..}
    {"track": "imu", "t": "AAAA.."}     then "ax", "ay", "az"
    {"track": "mic", "t": ".."}         then "amp"
    {"track": "motion", "t": ".."}      then "moving" (0.0 or 1.0)

Timestamps are seconds from session start, accelerations m/s^2, microphone
amplitude normalized to [-1, 1]. The reader takes exactly this layout: a
line that is not the next column, or a line after the last, is refused, and
the columns of a track have equal lengths. Keys a line does not read are
ignored. No other session schema is read: a file of an older one is refused,
and ``bitetiming synth`` with its seed writes the same dataset again. A
dataset manifest is ``{"schema": "waffle-manifest/1", "sessions": [paths...]}``
with paths relative to the manifest's directory.

A ``waffle-log/2`` closed-loop log is line-delimited JSON too: a header
``{"schema": "waffle-log/2", "participant": ..., "scenario": ..., "policy":
..., "duration": ...}``, one bite line per bite as above, then one line per
control tick, in time order:

    {"track": "policy", "t": 0.5, "command": "stop", "y_hat": null,
     "distance": 0.381, "phase": "acquiring"}

``y_hat`` is null on a tick without a prediction. ``validate_log`` holds the
format's rules, and the writer and the reader apply the same ones.
"""

from __future__ import annotations

import base64
import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaVersionError, TrackValidationError
from .policy import ORACLE_NAME, POLICY_NAMES, Command, Phase

SESSION_SCHEMA = "waffle/3"
MANIFEST_SCHEMA = "waffle-manifest/1"
LOG_SCHEMA = "waffle-log/2"

SCENARIOS = ("individual", "social")

# The columns of each sensor track.
_FIELDS = {
    "imu": ("t", "ax", "ay", "az"),
    "mic": ("t", "amp"),
    "motion": ("t", "moving"),
}


@dataclass(frozen=True)
class BiteEvent:
    """One completed feeding cycle: staging, then mouth arrival, then done.
    The field names are the keys of a file's bite line."""

    staging_arrival_t: float
    feeding_arrival_t: float
    bite_complete_t: float

    def __post_init__(self) -> None:
        times = (self.staging_arrival_t, self.feeding_arrival_t, self.bite_complete_t)
        if not (all(map(_finite, times)) and times[0] < times[1] < times[2]):
            raise TrackValidationError(
                f"bite timestamps must be finite and strictly ordered, got {times}"
            )

    def check_follows(self, prev: BiteEvent, i: int) -> None:
        """Refuse this bite, bite ``i``, if it starts before ``prev`` completes."""
        if self.staging_arrival_t < prev.bite_complete_t:
            raise TrackValidationError(
                f"bite {i} starts staging at {self.staging_arrival_t} before "
                f"bite {i - 1} completes at {prev.bite_complete_t}"
            )


def _finite(value) -> bool:
    """Whether a number is finite; an int too large for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass
class SessionRecord:
    """All sensor tracks and ground truth of one recorded session.

    Tracks are stored as column arrays: ``imu_t`` (n,), ``imu_accel`` (n, 3),
    ``mic_t`` (m,), ``mic_amp`` (m,), ``motion_t`` (k,) with
    ``motion_moving`` (k,) in {0, 1}.
    """

    participant_id: str
    scenario: str
    imu_t: np.ndarray
    imu_accel: np.ndarray
    mic_t: np.ndarray
    mic_amp: np.ndarray
    bites: list[BiteEvent] = field(default_factory=list)
    motion_t: np.ndarray = field(default_factory=lambda: np.empty(0))
    motion_moving: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


def _require_increasing(t: np.ndarray, track: str) -> None:
    # A comparison, not np.diff: the difference of two finite floats can overflow.
    bad = np.nonzero(t[1:] <= t[:-1])[0]
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
    """Check finiteness, ordering, shape and range constraints on every track.

    Raises TrackValidationError naming the offending track and sample index.
    """
    if session.scenario not in SCENARIOS:
        raise TrackValidationError(
            f"scenario must be one of {SCENARIOS}, got {session.scenario!r}"
        )
    imu_t, mic_t, motion_t = session.imu_t, session.mic_t, session.motion_t
    tracks = (
        ("imu", imu_t, session.imu_accel, (imu_t.size, 3), "accel", "acceleration"),
        ("mic", mic_t, session.mic_amp, mic_t.shape, "amp", "amplitude"),
        # No finiteness check: the 0/1 label check below refuses NaN.
        ("motion", motion_t, session.motion_moving, motion_t.shape, "moving", None),
    )
    for track, t, values, shape, key, noun in tracks:
        _require_finite(t, track, "timestamp")
        _require_increasing(t, track)
        if values.shape != shape:
            raise TrackValidationError(
                f"{track} {key} shape {values.shape} does not match {t.size} timestamps"
            )
        if noun is not None:
            _require_finite(values, track, noun)
    bad = np.nonzero(np.abs(session.mic_amp) > 1.0)[0]
    if bad.size:
        i = int(bad[0])
        raise TrackValidationError(
            f"mic amplitude at sample {i} is {session.mic_amp[i]!r}, "
            f"outside [-1, 1]"
        )
    for i, (prev, bite) in enumerate(zip(session.bites, session.bites[1:]), 1):
        bite.check_follows(prev, i)
    bad = np.nonzero(~np.isin(session.motion_moving, (0, 1)))[0]
    if bad.size:
        i = int(bad[0])
        raise TrackValidationError(
            f"motion label at sample {i} is {session.motion_moving[i]}, "
            f"expected 0 or 1"
        )


_encode = json.JSONEncoder(separators=(",", ":")).encode


def _bite_line(b: BiteEvent) -> str:
    return _encode({"track": "bite", **asdict(b)}) + "\n"


def write_session(session: SessionRecord, path: str | Path) -> None:
    """Write one session to ``path`` in the ``waffle/3`` format.

    Each column is the base64 of its float64 bytes: it reads back bit for bit.
    """
    validate_session(session)
    header = {
        "schema": SESSION_SCHEMA,
        "participant": session.participant_id,
        "scenario": session.scenario,
    }
    columns = {
        "imu": (session.imu_t, *session.imu_accel.T),
        "mic": (session.mic_t, session.mic_amp),
        "motion": (session.motion_t, session.motion_moving),
    }
    with Path(path).open("w", encoding="utf-8") as f:
        f.write(_encode(header) + "\n")
        f.writelines(map(_bite_line, session.bites))
        for track, keys in _FIELDS.items():
            for key, column in zip(keys, columns[track]):
                f.write(_encode({"track": track, key: f8_to_base64(column)}) + "\n")


def _read_text(path: Path) -> str:
    """A file's text. A byte that is not UTF-8 raises ParseError naming the
    line it sits on."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = data.count(b"\n", 0, e.start) + 1
        raise ParseError(f"{path}:{lineno}: not UTF-8 text: {e.reason}") from None


def _json_reason(e: ValueError | RecursionError) -> str:
    """Why json.loads refused a text. Besides JSONDecodeError it raises a bare
    ValueError for an integer past Python's digit limit and RecursionError
    for nesting past the recursion limit."""
    if isinstance(e, json.JSONDecodeError):
        return e.msg
    if isinstance(e, RecursionError):
        return "nested too deeply"
    return "an integer has too many digits"


def _parse_line(path: Path, lineno: int, line: str) -> dict:
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError) as e:
        raise ParseError(f"{path}:{lineno}: invalid JSON: {_json_reason(e)}") from e
    if not isinstance(rec, dict):
        raise ParseError(f"{path}:{lineno}: expected a JSON object")
    return rec


def _records(path: Path, schema: str) -> tuple[dict, Iterator[tuple[int, dict]]]:
    """The header of a line-delimited JSON file of ``schema``, and its other
    non-blank lines as (line number, object) pairs, parsed as they are drawn.

    Raises ParseError naming ``path:line`` for bytes that are not UTF-8,
    malformed JSON or a header without a schema, and for an empty file;
    SchemaVersionError for another schema.
    """
    lines = _read_text(path).splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file, expected a header line")
    header = _parse_line(path, 1, lines[0])
    if header.get("schema") is None:
        raise ParseError(f"{path}:1: header is missing the 'schema' field")
    if header["schema"] != schema:
        raise SchemaVersionError(
            f"{path}: schema {header['schema']!r} is not supported, expected {schema!r}"
        )
    records = (
        (lineno, _parse_line(path, lineno, line))
        for lineno, line in enumerate(lines[1:], start=2)
        if line.strip()
    )
    return header, records


def _field(path: Path, lineno: int, rec: dict, key: str) -> float:
    try:
        return rec[key]
    except KeyError:
        raise ParseError(
            f"{path}:{lineno}: {rec.get('track', 'header')!r} line is "
            f"missing field {key!r}"
        ) from None


def _typed(path: Path, lineno: int, rec: dict, key: str, types: tuple, what: str):
    """``rec[key]`` if its type is one of ``types``."""
    value = _field(path, lineno, rec, key)
    # type(), not isinstance(): a JSON true is a bool, which is an int.
    if type(value) not in types:
        raise ParseError(
            f"{path}:{lineno}: {rec.get('track', 'header')!r} field {key!r} "
            f"is not {what}: {value!r}"
        )
    return value


def _number(path: Path, lineno: int, rec: dict, key: str) -> float:
    value = _typed(path, lineno, rec, key, (int, float), "a number")
    try:
        float(value)
    except OverflowError:
        raise ParseError(
            f"{path}:{lineno}: {rec.get('track', 'header')!r} field {key!r} "
            "does not fit a float"
        ) from None
    return value


def _string(path: Path, lineno: int, rec: dict, key: str) -> str:
    return _typed(path, lineno, rec, key, (str,), "a string")


def _enum(path: Path, lineno: int, rec: dict, key: str, enum: type[Enum]):
    """The member of ``enum`` whose value ``rec[key]`` is."""
    value = _field(path, lineno, rec, key)
    try:
        return enum(value)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: unknown {key} {value!r}") from None


def _at(path: Path, lineno: int, check, *args):
    """``check(*args)``; a package error it raises names ``path:lineno``."""
    try:
        return check(*args)
    except (ParseError, TrackValidationError) as e:
        raise type(e)(f"{path}:{lineno}: {e}") from None


def _bite(path: Path, lineno: int, rec: dict) -> BiteEvent:
    times = [_number(path, lineno, rec, f.name) for f in fields(BiteEvent)]
    return _at(path, lineno, BiteEvent, *times)


def f8_to_base64(values: np.ndarray) -> str:
    """The base64 of an array's C-order little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def f8_from_base64(value, where: str, size: int | None = None) -> np.ndarray:
    """The read-only float64 array whose little-endian bytes ``value`` holds in
    base64: ``size`` values, or any number if None. A ParseError names ``where``."""
    if type(value) is not str:
        raise ParseError(f"{where} is not a string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as e:  # binascii.Error, or a character that is not ASCII
        raise ParseError(f"{where} is not valid base64: {e}") from None
    if len(raw) % 8 if size is None else len(raw) != 8 * size:
        need = "a multiple of 8" if size is None else f"8 x {size}"
        raise ParseError(f"{where} holds {len(raw)} bytes, not {need}")
    return np.frombuffer(raw, "<f8")


def read_session(path: str | Path) -> SessionRecord:
    """Read and validate one ``waffle/3`` session file.

    Raises:
        ParseError: bytes that are not UTF-8, malformed JSON, a missing
            field, a bite value that is not a number or does not fit a
            float, a line that is not the next column or follows the last,
            a column that is not a string, not valid base64, not a whole
            number of float64 values or differs in length from its track's
            first; with the line number.
        SchemaVersionError: the header declares another schema.
        TrackValidationError: parsed tracks violate format invariants, with
            the path.
    """
    path = Path(path)
    header, records = _records(path, SESSION_SCHEMA)
    participant = _string(path, 1, header, "participant")
    scenario = _string(path, 1, header, "scenario")

    # The lines in the writer's order: the bites, the columns, then the end.
    bites, tracks = [], []
    lineno, rec = next(records, (2, None))
    while rec is not None and rec.get("track") == "bite":
        bites.append(_bite(path, lineno, rec))
        lineno, rec = next(records, (lineno + 1, None))
    for track, keys in _FIELDS.items():
        first, columns = lineno, []
        for key in keys:
            if rec is None:
                raise ParseError(f"{path}:{lineno}: file ends before the {track!r} column {key!r}")
            if rec.get("track") != track or key not in rec:
                raise ParseError(f"{path}:{lineno}: expected the {track!r} column {key!r}")
            where = f"{path}:{lineno}: {track!r} field {key!r}"
            column = f8_from_base64(rec[key], where)
            if columns and column.size != columns[0].size:
                raise ParseError(
                    f"{where} has {column.size} values, 't' on line {first} has {columns[0].size}"
                )
            columns.append(column)
            lineno, rec = next(records, (lineno + 1, None))
        # A float64 (columns, samples) array of the track's own.
        tracks.append(np.stack(columns))
    if rec is not None:
        raise ParseError(f"{path}:{lineno}: expected the end of the file after the last column")

    imu, mic, motion = tracks
    session = SessionRecord(
        participant_id=participant,
        scenario=scenario,
        imu_t=imu[0],
        imu_accel=imu[1:].T,
        mic_t=mic[0],
        mic_amp=mic[1],
        bites=bites,
        motion_t=motion[0],
        motion_moving=motion[1],
    )
    try:
        validate_session(session)
    except TrackValidationError as e:
        raise TrackValidationError(f"{path}: {e}") from None
    # Validated as floats first, so a label such as 0.7 is rejected rather
    # than truncated to 0.
    session.motion_moving = session.motion_moving.astype(np.int64)
    return session


@dataclass(slots=True)
class TickLog:
    """One control tick as seen by the policy (state before stepping)."""

    t: float
    command: Command
    distance_to_mouth: float
    phase: Phase
    y_hat: float | None = None


@dataclass
class SessionLog:
    """Closed-loop trace of one simulated session."""

    policy_name: str
    participant_id: str
    scenario: str
    duration: float
    ticks: list[TickLog] = field(default_factory=list)
    bites: list[BiteEvent] = field(default_factory=list)


def _check_number(value, what: str, key: str) -> None:
    # type(), not isinstance(): a bool is an int, and the repr of a numpy
    # scalar, which a tick line would hold, is not JSON.
    if type(value) not in (int, float):
        raise ParseError(f"{what!r} field {key!r} is not a number: {value!r}")
    if not _finite(value):
        raise ParseError(f"{what!r} field {key!r} is not finite: {value!r}")


def _check_tick(tick: TickLog, prev: TickLog | None, duration: float) -> None:
    """Refuse ``tick`` of a log of ``duration`` seconds, after ``prev``."""
    _check_number(tick.t, "policy", "t")
    _check_number(tick.distance_to_mouth, "policy", "distance")
    if prev is not None and tick.t <= prev.t:
        raise TrackValidationError(
            f"policy timestamps must be strictly increasing, got t={tick.t!r} after t={prev.t!r}"
        )
    if not 0 <= tick.t < duration:
        raise TrackValidationError(f"policy tick at t={tick.t!r} is outside [0, {duration!r})")
    if tick.distance_to_mouth < 0:
        raise TrackValidationError(
            f"policy distance at t={tick.t!r} is {tick.distance_to_mouth!r}, below 0"
        )


def validate_log(log: SessionLog) -> None:
    """Check a closed-loop log against the rules of its format, which
    read_session_log applies line by line: the scenario is one of SCENARIOS,
    the policy one of POLICY_NAMES or the oracle's, and the duration finite
    and above 0; each bite follows the one before; each tick's ``t`` and
    distance are finite ints or floats, ``t`` increases within [0, duration)
    and the distance is at least 0.

    Raises ParseError for an unknown name or a value that is not a finite
    number, TrackValidationError for bites or ticks out of order or range.
    """
    if log.scenario not in SCENARIOS:
        raise ParseError(f"unknown scenario {log.scenario!r}, expected one of {SCENARIOS}")
    policies = (*POLICY_NAMES, ORACLE_NAME)
    if log.policy_name not in policies:
        raise ParseError(f"unknown policy {log.policy_name!r}, expected one of {policies}")
    _check_number(log.duration, "header", "duration")
    if log.duration <= 0:
        raise ParseError(f"'header' field 'duration' is not positive: {log.duration!r}")
    for i, (prev, bite) in enumerate(zip(log.bites, log.bites[1:]), 1):
        bite.check_follows(prev, i)
    for prev, tick in zip([None, *log.ticks], log.ticks):
        _check_tick(tick, prev, log.duration)


_TICK_LINE = (
    '{{"track":"policy","t":{!r},"command":"{}","y_hat":{},"distance":{!r},"phase":"{}"}}\n'
).format


def write_session_log(log: SessionLog, path: str | Path) -> None:
    """Write a closed-loop trace in the ``waffle-log/2`` format. A log that
    validate_log refuses raises its error, and no file is written."""
    validate_log(log)
    header = {
        "schema": LOG_SCHEMA,
        "participant": log.participant_id,
        "scenario": log.scenario,
        "policy": log.policy_name,
        "duration": log.duration,
    }
    with Path(path).open("w", encoding="utf-8") as f:
        f.write(_encode(header) + "\n")
        f.writelines(map(_bite_line, log.bites))
        # t and distance are an int or a finite float, whose repr is the
        # text json writes for it.
        f.writelines(
            _TICK_LINE(
                tick.t, tick.command.value, _encode(tick.y_hat),
                tick.distance_to_mouth, tick.phase.value,
            )
            for tick in log.ticks
        )


def read_session_log(path: str | Path) -> SessionLog:
    """Read back a ``waffle-log/2`` trace written by write_session_log. Keys
    a line does not read are ignored.

    Raises ParseError naming ``path:line`` for bytes that are not UTF-8,
    malformed JSON, a missing field or one of the wrong type, an unknown
    track, command or phase, and for a header without a schema;
    SchemaVersionError for another schema; and validate_log's errors for the
    header or the line that breaks its rules, naming ``path:line``.
    """
    path = Path(path)
    header, records = _records(path, LOG_SCHEMA)
    log = SessionLog(
        policy_name=_string(path, 1, header, "policy"),
        participant_id=_string(path, 1, header, "participant"),
        scenario=_string(path, 1, header, "scenario"),
        duration=_number(path, 1, header, "duration"),
    )
    _at(path, 1, validate_log, log)  # the header: the log has no lines yet
    for lineno, rec in records:
        track = rec.get("track")
        if track == "bite":
            bite = _bite(path, lineno, rec)
            if log.bites:
                _at(path, lineno, bite.check_follows, log.bites[-1], len(log.bites))
            log.bites.append(bite)
        elif track == "policy":
            y_hat = _field(path, lineno, rec, "y_hat")
            tick = TickLog(
                t=_number(path, lineno, rec, "t"),
                command=_enum(path, lineno, rec, "command", Command),
                distance_to_mouth=_number(path, lineno, rec, "distance"),
                phase=_enum(path, lineno, rec, "phase", Phase),
                y_hat=None if y_hat is None else _number(path, lineno, rec, "y_hat"),
            )
            prev = log.ticks[-1] if log.ticks else None
            _at(path, lineno, _check_tick, tick, prev, log.duration)
            log.ticks.append(tick)
        else:
            raise ParseError(f"{path}:{lineno}: unknown track {track!r}")
    return log


def read_document(path: Path, schema: str, error: type[ValueError]) -> tuple[str, dict]:
    """A whole-file JSON document of ``schema``: its text exactly as decoded,
    with no newline translation for a checksum to miss, and its object. Raises
    ``error`` naming the file for non-UTF-8 bytes (with their line), non-JSON
    text or no object with a ``schema`` field; SchemaVersionError for another schema."""
    try:
        text = _read_text(path)
        doc = json.loads(text)
    except ParseError as e:
        raise error(str(e)) from None
    except (ValueError, RecursionError) as e:
        raise error(f"{path}: invalid JSON: {_json_reason(e)}") from e
    if not isinstance(doc, dict) or "schema" not in doc:
        raise error(f"{path}: expected an object with a 'schema' field")
    if doc["schema"] != schema:
        raise SchemaVersionError(
            f"{path}: schema {doc['schema']!r} is not supported, expected {schema!r}"
        )
    return text, doc


def write_manifest(session_paths: list[str | Path], path: str | Path) -> None:
    """Write a dataset manifest listing session files relative to it."""
    path = Path(path)
    rel = [str(Path(p).resolve().relative_to(path.resolve().parent)) for p in session_paths]
    doc = {"schema": MANIFEST_SCHEMA, "sessions": rel}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_dataset(manifest_path: str | Path) -> list[SessionRecord]:
    """Load every session listed in a manifest.

    Sessions are returned sorted by (participant, scenario, listed path) so
    dataset order never depends on manifest order. Raises ParseError naming
    the manifest when it is not UTF-8 JSON, its ``sessions`` is not a list of
    path strings (a NUL character included), or it lists one file twice.
    """
    manifest_path = Path(manifest_path)
    _, doc = read_document(manifest_path, MANIFEST_SCHEMA, ParseError)
    rels = doc.get("sessions")
    # A NUL cannot be in a path: the OS call would raise a bare ValueError.
    if type(rels) is not list or not all(type(r) is str and "\0" not in r for r in rels):
        raise ParseError(f"{manifest_path}: 'sessions' must be a list of path strings")
    seen = set()
    for rel in rels:
        path = (manifest_path.parent / rel).resolve()
        if path in seen:
            raise ParseError(f"{manifest_path}: session {rel!r} is listed twice")
        seen.add(path)
    listed = [(rel, read_session(manifest_path.parent / rel)) for rel in rels]
    listed.sort(key=lambda item: (item[1].participant_id, item[1].scenario, item[0]))
    return [session for _, session in listed]


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
