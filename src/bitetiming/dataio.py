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
with paths relative to the manifest's directory (``..`` climbs out of it).

A ``waffle-log/2`` closed-loop log is line-delimited JSON too: a header
``{"schema": "waffle-log/2", "participant": ..., "scenario": ..., "policy":
..., "duration": ...}``, one bite line per bite as above, then one line per
control tick, in time order:

    {"track": "policy", "t": 0.5, "command": "stop", "y_hat": null,
     "distance": 0.381, "phase": "acquiring"}

``y_hat`` is null on a tick without a prediction. Each format's rules are
stated once, and each writer runs its reader's rules before it opens the
file: it refuses what the reader would, with the reader's message less
``path:line``, and writes no file.
"""

from __future__ import annotations

import base64
import json
import math
import os
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

# An hour, six times the longest session anything here runs (600 s). A track
# may span a second more: a synthesized one runs a jittered sample past the duration.
MAX_SESSION_SECONDS = 3600.0

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
        for f in fields(self):
            _check_number(getattr(self, f.name), "bite", f.name, finite=False)
        times = (self.staging_arrival_t, self.feeding_arrival_t, self.bite_complete_t)
        if not (all(map(math.isfinite, times)) and times[0] < times[1] < times[2]):
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


def _check_number(value, what: str, key: str, finite: bool = True) -> None:
    """Refuse ``value`` unless it is an int or float that fits a float, finite if ``finite``."""
    # type(), not isinstance(): a bool is an int, and the repr of a numpy
    # scalar, which a tick line would hold, is not JSON.
    if type(value) not in (int, float):
        raise ParseError(f"{what!r} field {key!r} is not a number: {value!r}")
    try:  # isfinite raises OverflowError for an int too large for a float
        if not math.isfinite(value) and finite:
            raise ParseError(f"{what!r} field {key!r} is not finite: {value!r}")
    except OverflowError:
        raise ParseError(f"{what!r} field {key!r} does not fit a float") from None


def _check_strings(**values) -> None:
    for key, value in values.items():
        if type(value) is not str:
            raise ParseError(f"'header' field {key!r} is not a string: {value!r}")


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


def _check_header(participant, scenario) -> None:
    _check_strings(participant=participant, scenario=scenario)
    if scenario not in SCENARIOS:
        raise ParseError(f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")


def validate_session(session: SessionRecord) -> None:
    """Check the header, and finiteness, ordering, span, shape and range
    constraints on every track. Raises ParseError for a header field that is
    not a string or an unknown scenario, else TrackValidationError naming the
    track and sample index."""
    _check_header(session.participant_id, session.scenario)
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
        # Compared, not subtracted: t[-1] - t[0] can overflow.
        if t.size and t[-1] > t[0] + (MAX_SESSION_SECONDS + 1.0):
            span = f"{t[[0, -1]].tolist()} span more than {MAX_SESSION_SECONDS + 1:g} s"
            raise TrackValidationError(f"{track} timestamps {span}")
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
            f"mic amplitude at sample {i} is {session.mic_amp[i]!r}, outside [-1, 1]"
        )
    for i, (prev, bite) in enumerate(zip(session.bites, session.bites[1:]), 1):
        bite.check_follows(prev, i)
    bad = np.nonzero(~np.isin(session.motion_moving, (0, 1)))[0]
    if bad.size:
        i = int(bad[0])
        raise TrackValidationError(
            f"motion label at sample {i} is {session.motion_moving[i]}, expected 0 or 1"
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


def _enum(path: Path, lineno: int, rec: dict, key: str, enum: type[Enum]):
    """The member of ``enum`` whose value ``rec[key]`` is."""
    value = _field(path, lineno, rec, key)
    try:
        return enum(value)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: unknown {key} {value!r}") from None


def _at(path: Path, lineno: int | None, check, *args):
    """``check(*args)``; a package error it raises names ``path:lineno``, or
    ``path`` if ``lineno`` is None."""
    try:
        return check(*args)
    except (ParseError, TrackValidationError) as e:
        raise type(e)(f"{path}{'' if lineno is None else f':{lineno}'}: {e}") from None


def _bite(path: Path, lineno: int, rec: dict) -> BiteEvent:
    times = [_field(path, lineno, rec, f.name) for f in fields(BiteEvent)]
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

    Raises ParseError naming ``path:line`` for bytes that are not UTF-8,
    malformed JSON, a missing field, a line that is not the next column or
    follows the last, and a column that is not the base64 of its track's
    number of float64 values; SchemaVersionError for another schema; and
    validate_session's errors, naming ``path:line`` for the header and a
    bite, and ``path`` for the tracks.
    """
    path = Path(path)
    header, records = _records(path, SESSION_SCHEMA)
    participant = _field(path, 1, header, "participant")
    scenario = _field(path, 1, header, "scenario")
    _at(path, 1, _check_header, participant, scenario)

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
    _at(path, None, validate_session, session)
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


def _check_tick(tick: TickLog, prev: TickLog | None, duration: float) -> None:
    """Refuse ``tick`` of a log of ``duration`` seconds, after ``prev``."""
    _check_number(tick.t, "policy", "t")
    _check_number(tick.distance_to_mouth, "policy", "distance")
    if tick.y_hat is not None:  # NaN and infinity are predictions too
        _check_number(tick.y_hat, "policy", "y_hat", finite=False)
    if not isinstance(tick.command, Command):
        raise ParseError(f"'policy' field 'command' is not a Command: {tick.command!r}")
    if not isinstance(tick.phase, Phase):
        raise ParseError(f"'policy' field 'phase' is not a Phase: {tick.phase!r}")
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
    """Check a closed-loop log against its format's rules, which
    read_session_log applies line by line: the participant, scenario and
    policy are strings, the scenario in SCENARIOS, the policy in POLICY_NAMES
    or the oracle's, and the duration a finite number above 0; each bite
    follows the one before; each tick's ``t`` and distance are finite
    numbers, ``t`` increasing within [0, duration) and the distance at least
    0, its ``y_hat`` None or a number, its command a Command, its phase a Phase.

    Raises ParseError for a value of the wrong type or an unknown name,
    TrackValidationError for bites or ticks out of order or range.
    """
    _check_header(log.participant_id, log.scenario)
    _check_strings(policy=log.policy_name)
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
        policy_name=_field(path, 1, header, "policy"),
        participant_id=_field(path, 1, header, "participant"),
        scenario=_field(path, 1, header, "scenario"),
        duration=_field(path, 1, header, "duration"),
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
            tick = TickLog(
                t=_field(path, lineno, rec, "t"),
                command=_enum(path, lineno, rec, "command", Command),
                distance_to_mouth=_field(path, lineno, rec, "distance"),
                phase=_enum(path, lineno, rec, "phase", Phase),
                y_hat=_field(path, lineno, rec, "y_hat"),
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


def _check_manifest(manifest_path: Path, doc: dict) -> list[str]:
    """A manifest's ``sessions``: a list of path strings that names no file
    twice. Raises ParseError naming the manifest otherwise."""
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
    return rels


def write_manifest(session_paths: list[str | Path], path: str | Path) -> None:
    """Write a dataset manifest listing each session file by its path from the
    manifest's directory, ``..`` included, which load_dataset joins back."""
    path = Path(path)
    rel = [os.path.relpath(Path(p).resolve(), path.parent.resolve()) for p in session_paths]
    doc = {"schema": MANIFEST_SCHEMA, "sessions": rel}
    _check_manifest(path, doc)
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
    rels = _check_manifest(manifest_path, doc)
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
