"""Session file round trips, validation errors, and label derivation."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import JSON_LIMITS, mutate_json

from bitetiming.dataio import (
    BiteEvent,
    SessionRecord,
    _parse_line,
    derive_time_to_bite,
    load_dataset,
    motion_labels_at,
    read_session,
    write_manifest,
    write_session,
)
from bitetiming.errors import ParseError, SchemaVersionError, TrackValidationError


def small_session(participant="p01", scenario="individual"):
    return SessionRecord(
        participant_id=participant,
        scenario=scenario,
        imu_t=np.array([0.0, 0.4, 0.9, 1.5, 2.2]),
        imu_accel=np.random.default_rng(1).normal(0.0, 1.0, (5, 3)),
        mic_t=np.array([0.0, 0.5, 1.0, 1.8]),
        mic_amp=np.array([0.1, -0.4, 0.9, -1.0]),
        bites=[BiteEvent(0.5, 1.0, 1.5)],
        motion_t=np.array([0.0, 0.5, 1.0]),
        motion_moving=np.array([0, 1, 0]),
    )


def assert_sessions_equal(a, b):
    assert a.participant_id == b.participant_id
    assert a.scenario == b.scenario
    np.testing.assert_array_equal(a.imu_t, b.imu_t)
    np.testing.assert_array_equal(a.imu_accel, b.imu_accel)
    np.testing.assert_array_equal(a.mic_t, b.mic_t)
    np.testing.assert_array_equal(a.mic_amp, b.mic_amp)
    assert a.bites == b.bites
    np.testing.assert_array_equal(a.motion_t, b.motion_t)
    np.testing.assert_array_equal(a.motion_moving, b.motion_moving)


def test_bite_event_requires_ordered_timestamps():
    with pytest.raises(TrackValidationError):
        BiteEvent(staging_arrival_t=2.0, feeding_arrival_t=1.0, bite_complete_t=3.0)
    with pytest.raises(TrackValidationError):
        BiteEvent(staging_arrival_t=1.0, feeding_arrival_t=2.0, bite_complete_t=2.0)


def test_session_round_trip(tmp_path):
    session = small_session()
    path = tmp_path / "s.jsonl"
    write_session(session, path)
    assert_sessions_equal(read_session(path), session)


def test_read_session_rejects_non_monotone_imu(tmp_path):
    session = small_session()
    session.imu_t = np.array([0.0, 0.5, 0.4, 1.5, 2.2])
    path = tmp_path / "bad.jsonl"
    with pytest.raises(TrackValidationError, match="sample 2"):
        write_session(session, path)


def test_read_session_schema_guard(tmp_path):
    path = tmp_path / "future.jsonl"
    path.write_text('{"schema":"waffle/9","participant":"p","scenario":"individual"}\n')
    with pytest.raises(SchemaVersionError):
        read_session(path)


def test_read_session_header_errors(tmp_path):
    path = tmp_path / "h.jsonl"
    path.write_text("")
    with pytest.raises(ParseError):
        read_session(path)
    path.write_text('{"schema":"waffle/1","participant":"p"}\n')
    with pytest.raises(ParseError, match="scenario"):
        read_session(path)
    path.write_text('{"participant":"p","scenario":"individual"}\n')
    with pytest.raises(ParseError, match="schema"):
        read_session(path)


def test_read_session_names_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"schema":"waffle/1","participant":"p","scenario":"individual"}\n'
        '{"track":"imu","t":0.0,"ax":0.1,"ay":0.2,"az":9.8}\n'
        "{not json}\n"
    )
    with pytest.raises(ParseError, match=":3:"):
        read_session(path)


def test_read_session_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "s.jsonl"
    write_session(small_session(), path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3].replace(b'"imu"', b'"im\xffu"')
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:4: not UTF-8 text"):
        read_session(path)


def test_load_dataset_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(b'{"schema": "waffle-manifest/1",\n"sessions": ["\xff.jsonl"]}\n')
    with pytest.raises(ParseError, match=f"^{re.escape(str(manifest))}:2: not UTF-8 text"):
        load_dataset(manifest)


@pytest.mark.parametrize("value, message", JSON_LIMITS)
def test_read_session_names_the_line_of_a_huge_integer_or_deep_nesting(tmp_path, value, message):
    path = tmp_path / "s.jsonl"
    write_session(small_session(), path)
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = f'{{"track":"imu","t":{value},"ax":0.1,"ay":0.2,"az":9.8}}\n'
    path.write_text("".join(lines))
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: invalid JSON: {message}$"):
        read_session(path)


@pytest.mark.parametrize("value, message", JSON_LIMITS)
def test_load_dataset_names_the_manifest_of_a_huge_integer_or_deep_nesting(tmp_path, value, message):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(f'{{"schema": "waffle-manifest/1", "sessions": {value}}}')
    with pytest.raises(ParseError, match=f"^{re.escape(str(manifest))}: invalid JSON: {message}$"):
        load_dataset(manifest)


def test_read_session_unknown_track(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"schema":"waffle/1","participant":"p","scenario":"individual"}\n'
        '{"track":"gaze","t":0.0}\n'
    )
    with pytest.raises(ParseError, match="gaze"):
        read_session(path)


def test_read_session_missing_field_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"schema":"waffle/1","participant":"p","scenario":"individual"}\n'
        '{"track":"mic","t":0.0}\n'
    )
    with pytest.raises(ParseError, match=":2:.*amp"):
        read_session(path)


def test_validation_mic_range_and_motion_values(tmp_path):
    session = small_session()
    session.mic_amp = np.array([0.1, -0.4, 1.5, -1.0])
    with pytest.raises(TrackValidationError, match="mic amplitude"):
        write_session(session, tmp_path / "a.jsonl")
    session = small_session()
    session.motion_moving = np.array([0, 2, 0])
    with pytest.raises(TrackValidationError, match="motion label"):
        write_session(session, tmp_path / "b.jsonl")


@pytest.mark.parametrize(
    "column, index, value, message",
    [
        ("imu_t", (2,), np.nan, "imu timestamp at sample 2"),
        ("imu_accel", (3, 1), np.inf, "imu acceleration at sample 3"),
        ("imu_accel", (1, 2), np.nan, "imu acceleration at sample 1"),
        ("mic_t", (1,), -np.inf, "mic timestamp at sample 1"),
        ("mic_amp", (0,), np.nan, "mic amplitude at sample 0"),
        ("motion_t", (2,), np.nan, "motion timestamp at sample 2"),
    ],
)
def test_validation_rejects_non_finite(tmp_path, column, index, value, message):
    session = small_session()
    values = getattr(session, column).astype(np.float64)
    values[index] = value
    setattr(session, column, values)
    with pytest.raises(TrackValidationError, match=message):
        write_session(session, tmp_path / "nf.jsonl")


def test_read_session_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.jsonl"
    write_session(small_session(), path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[3])  # the third imu line
    rec["ax"] = float("nan")
    lines[3] = json.dumps(rec)  # written as NaN, which json.loads accepts
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(
        TrackValidationError, match=f"{path}: imu acceleration at sample 2"
    ):
        read_session(path)


def rewrite_line(path, index, **fields):
    """Replace fields of one line of a session file (None deletes a field)."""
    lines = path.read_text().splitlines()
    rec = json.loads(lines[index])
    for key, value in fields.items():
        if value is None:
            del rec[key]
        else:
            rec[key] = value
    lines[index] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


def test_read_session_rejects_fractional_motion_label(tmp_path):
    path = tmp_path / "frac.jsonl"
    write_session(small_session(), path)
    # Line 12 is motion sample 1, after the header, 5 imu, 4 mic, 1 bite and
    # 1 motion line.
    rewrite_line(path, 12, moving=0.7)
    with pytest.raises(
        TrackValidationError, match=f"{path}: motion label at sample 1 is 0.7"
    ):
        read_session(path)


@pytest.mark.parametrize("value", ["abc", {}, [1.0, 2.0]])
def test_read_session_names_the_line_of_a_non_numeric_field(tmp_path, value):
    path = tmp_path / "nan.jsonl"
    write_session(small_session(), path)
    rewrite_line(path, 3, ax=value)  # the third imu line
    with pytest.raises(ParseError, match=f"{path}:4: 'imu' field 'ax' is not a number"):
        read_session(path)


def test_read_session_names_the_line_of_a_non_numeric_bite(tmp_path):
    path = tmp_path / "bite.jsonl"
    write_session(small_session(), path)
    rewrite_line(path, 10, feeding_arrival_t="1.0")
    with pytest.raises(
        ParseError, match=f"{path}:11: 'bite' field 'feeding_arrival_t' is not a number"
    ):
        read_session(path)


@pytest.mark.parametrize(
    "field, value", [("participant", {"a": 1}), ("scenario", ["social"])]
)
def test_read_session_rejects_a_header_field_that_is_not_a_string(tmp_path, field, value):
    path = tmp_path / "h.jsonl"
    write_session(small_session(), path)
    rewrite_line(path, 0, **{field: value})
    with pytest.raises(
        ParseError, match=f"{path}:1: 'header' field '{field}' is not a string"
    ):
        read_session(path)


# Line indices count from 0: the header, 5 imu lines, 4 mic lines, 1 bite
# line, then 3 motion lines.
@pytest.mark.parametrize(
    "index, field, value",
    [(3, "ax", "1.5"), (3, "az", True), (7, "amp", "0.5"), (12, "moving", True)],
)
def test_read_session_rejects_numeric_strings_and_booleans(tmp_path, index, field, value):
    path = tmp_path / "s.jsonl"
    write_session(small_session(), path)
    rewrite_line(path, index, **{field: value})
    with pytest.raises(
        ParseError, match=f"{path}:{index + 1}: .* field '{field}' is not a number"
    ):
        read_session(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    write_session(small_session(), path / "base.jsonl")
    return path


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    value=st.sampled_from(("delete", "abc", "1.5", {}, None, 0.7)),
)
def test_read_session_mutations_load_or_name_the_file(fuzz_dir, data, value):
    # Mutate one field of one line: delete it, or set it to a string, an
    # object, JSON null or 0.7. The loader either returns a valid session or
    # raises a package ValueError that names the file.
    lines = (fuzz_dir / "base.jsonl").read_text().splitlines()
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    rec = json.loads(lines[index])
    key = data.draw(st.sampled_from(sorted(rec)), label="field")
    if value == "delete":
        del rec[key]
    else:
        rec[key] = value
    lines[index] = json.dumps(rec)
    path = fuzz_dir / "mutated.jsonl"
    path.write_text("\n".join(lines) + "\n")
    try:
        session = read_session(path)
    except ValueError as e:
        assert type(e).__module__ == "bitetiming.errors"
        assert str(path) in str(e)
    else:
        records = [json.loads(line) for line in lines[1:]]
        moving = [r["moving"] for r in records if r.get("track") == "motion"]
        assert session.motion_moving.tolist() == moving


def reference_parse_line(path, lineno, line):
    """The per-line parser before the scanner fast path: json.loads alone."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{lineno}: invalid JSON: {e.msg}") from e
    if not isinstance(rec, dict):
        raise ParseError(f"{path}:{lineno}: expected a JSON object")
    return rec


def parse_outcome(parse, line):
    try:
        return "ok", repr(parse(Path("s.jsonl"), 7, line))  # repr: NaN == NaN
    except ParseError as e:
        return "error", str(e)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
LINE_EDGES = st.sampled_from(["", " ", "\t", "\ufeff", "\x0c", '{"b":2}', "[1]", "x", '"'])


@st.composite
def json_lines(draw):
    """JSON text, maybe cut short, with whitespace, a BOM or junk around it."""
    text = json.dumps(draw(JSON_VALUES), separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])))
    text = text[: draw(st.integers(0, len(text)))] if draw(st.booleans()) else text
    return draw(LINE_EDGES) + text + draw(LINE_EDGES)


@settings(max_examples=500, deadline=None)
@given(line=st.one_of(st.text(), json_lines()))
@example(line='{"a":1}')
@example(line=' {"a":1}')
@example(line='{"a":1} ')
@example(line='\ufeff{"a":1}')
@example(line='{"a":1}{"b":2}')
@example(line="[1]")
@example(line="1")
@example(line='{"a":NaN,"b":Infinity,"c":-Infinity}')
@example(line="NaN")
@example(line='{"track":"mic","amp":"x')
@example(line="")
def test_parse_line_matches_json_loads(line):
    # The scanner fast path returns what json.loads returns, or the error
    # json.loads would have worded.
    assert parse_outcome(_parse_line, line) == parse_outcome(reference_parse_line, line)


def test_read_session_parses_line_by_line(tmp_path):
    # Line 2 ends inside a string that line 3 closes, and line 4 holds two
    # objects: joined with commas into one JSON array they would parse, with
    # the original line count. Each line on its own is what gets parsed.
    path = tmp_path / "merged.jsonl"
    path.write_text(
        '{"schema":"waffle/1","participant":"p","scenario":"individual"}\n'
        '{"track":"mic","t":0.0,"amp":"x\n'
        'y"}\n'
        "{},{}\n"
    )
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: invalid JSON"):
        read_session(path)


def reference_write_session(session, path):
    """The writer before column-wise formatting: one dict per line through
    json's encoder."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    lines = [{"schema": "waffle/1", "participant": session.participant_id, "scenario": session.scenario}]
    for t, (ax, ay, az) in zip(session.imu_t.tolist(), session.imu_accel.tolist()):
        lines.append({"track": "imu", "t": t, "ax": ax, "ay": ay, "az": az})
    for t, amp in zip(session.mic_t.tolist(), session.mic_amp.tolist()):
        lines.append({"track": "mic", "t": t, "amp": amp})
    for b in session.bites:
        lines.append(
            {
                "track": "bite",
                "staging_arrival_t": b.staging_arrival_t,
                "feeding_arrival_t": b.feeding_arrival_t,
                "bite_complete_t": b.bite_complete_t,
            }
        )
    for t, moving in zip(session.motion_t.tolist(), session.motion_moving.tolist()):
        lines.append({"track": "motion", "t": t, "moving": int(moving)})
    Path(path).write_text("".join(encode(rec) + "\n" for rec in lines), encoding="utf-8")


SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e-7, -1e-7, 1e16, -1e16, 1.0, -3.0, 1e22)
FINITE = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
AMPLITUDES = st.one_of(
    st.sampled_from((-1.0, 1.0, -0.0, 0.0, 5e-324, 1e-7, -1e-7)), st.floats(-1.0, 1.0)
)


def timestamps(max_size=12):
    return st.lists(FINITE, unique=True, max_size=max_size).map(sorted)


@st.composite
def finite_sessions(draw):
    imu_t = draw(timestamps())
    n = len(imu_t)
    mic_t = draw(timestamps())
    motion_t = draw(timestamps(max_size=6))
    moving = draw(st.lists(st.sampled_from((0, 1)), min_size=len(motion_t), max_size=len(motion_t)))
    return SessionRecord(
        participant_id=draw(st.text(max_size=4)),
        scenario=draw(st.sampled_from(("individual", "social"))),
        imu_t=np.array(imu_t, dtype=np.float64),
        imu_accel=np.array(draw(st.lists(st.tuples(FINITE, FINITE, FINITE), min_size=n, max_size=n)), dtype=np.float64).reshape(n, 3),
        mic_t=np.array(mic_t, dtype=np.float64),
        mic_amp=np.array(draw(st.lists(AMPLITUDES, min_size=len(mic_t), max_size=len(mic_t))), dtype=np.float64),
        bites=draw(st.sampled_from(([], [BiteEvent(0.5, 1e-7 + 1.0, 1e16)]))),
        motion_t=np.array(motion_t, dtype=np.float64),
        motion_moving=np.array(moving, dtype=draw(st.sampled_from((np.int64, np.float64)))),
    )


@pytest.fixture(scope="module")
def write_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("write")


@settings(max_examples=200, deadline=None)
@given(session=finite_sessions())
def test_write_session_matches_the_json_encoder(write_dir, session):
    write_session(session, write_dir / "columns.jsonl")
    reference_write_session(session, write_dir / "reference.jsonl")
    assert (write_dir / "columns.jsonl").read_bytes() == (write_dir / "reference.jsonl").read_bytes()


EXTRA_KEYS = st.sampled_from(("qw", "qx", "qy", "qz")) | st.text(max_size=4)


@settings(max_examples=100, deadline=None)
@given(session=finite_sessions(), data=st.data())
def test_read_session_ignores_keys_it_does_not_read(write_dir, session, data):
    # Older waffle/1 writers put an imu orientation (qw, qx, qy, qz) after
    # az on every imu line. That, or any other key a line does not read,
    # before or after the keys read, on some or all lines, loads into the
    # same arrays.
    path = write_dir / "plain.jsonl"
    write_session(session, path)
    expected = read_session(path)
    old_writer = data.draw(st.booleans(), label="old writer")
    lines = []
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if old_writer:
            if rec.get("track") == "imu":
                rec.update(zip(("qw", "qx", "qy", "qz"), data.draw(st.tuples(FINITE, FINITE, FINITE, FINITE))))
        else:
            extra = st.dictionaries(EXTRA_KEYS.filter(lambda k: k not in rec), JSON_VALUES, max_size=2)
            rec = {**data.draw(extra), **rec, **data.draw(extra)}
        lines.append(json.dumps(rec, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n")
    assert_sessions_equal(read_session(path), expected)


def test_validation_overlapping_bites():
    session = small_session()
    session.bites = [BiteEvent(0.5, 1.0, 1.5), BiteEvent(1.2, 1.6, 2.0)]
    with pytest.raises(TrackValidationError, match="bite 1"):
        write_session(session, "/dev/null")


def test_manifest_round_trip_and_sorting(tmp_path):
    s1 = small_session(participant="p02")
    s2 = small_session(participant="p01", scenario="social")
    p1 = tmp_path / "x.jsonl"
    p2 = tmp_path / "sub" / "y.jsonl"
    p2.parent.mkdir()
    write_session(s1, p1)
    write_session(s2, p2)
    manifest = tmp_path / "manifest.json"
    write_manifest([p1, p2], manifest)

    doc = json.loads(manifest.read_text())
    assert doc["schema"] == "waffle-manifest/1"
    assert doc["sessions"] == ["x.jsonl", "sub/y.jsonl"]

    sessions = load_dataset(manifest)
    assert [(s.participant_id, s.scenario) for s in sessions] == [
        ("p01", "social"),
        ("p02", "individual"),
    ]
    assert_sessions_equal(sessions[1], s1)


@pytest.mark.parametrize("second", ["x.jsonl", "./x.jsonl", "sub/../x.jsonl"])
def test_load_dataset_rejects_a_session_listed_twice(tmp_path, second):
    write_session(small_session(), tmp_path / "x.jsonl")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"schema": "waffle-manifest/1", "sessions": ["x.jsonl", second]}))
    with pytest.raises(ParseError, match=f"{manifest}: session '{re.escape(second)}' is listed twice"):
        load_dataset(manifest)


def test_load_dataset_orders_sessions_with_one_key_by_path(tmp_path):
    # Two files of the same (participant, scenario) load in path order,
    # whatever the manifest order.
    for name, accel in (("a.jsonl", 1.0), ("b.jsonl", 2.0)):
        session = small_session()
        session.imu_accel = np.full((5, 3), accel)
        write_session(session, tmp_path / name)
    manifest = tmp_path / "manifest.json"
    for order in (["a.jsonl", "b.jsonl"], ["b.jsonl", "a.jsonl"]):
        manifest.write_text(json.dumps({"schema": "waffle-manifest/1", "sessions": order}))
        assert [s.imu_accel[0, 0] for s in load_dataset(manifest)] == [1.0, 2.0]


def test_load_dataset_schema_guard(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"schema":"waffle-manifest/2","sessions":[]}')
    with pytest.raises(SchemaVersionError):
        load_dataset(manifest)
    manifest.write_text("[1, 2]")
    with pytest.raises(ParseError):
        load_dataset(manifest)


@pytest.mark.parametrize(
    "sessions",
    [[5], None, "ab", ["x.jsonl", ["y.jsonl"]], "missing", ["x.jsonl", "a\u0000b.jsonl"]],
)
def test_load_dataset_requires_a_list_of_path_strings(tmp_path, sessions):
    manifest = tmp_path / "manifest.json"
    doc = {"schema": "waffle-manifest/1", "sessions": sessions}
    if sessions == "missing":
        del doc["sessions"]
    manifest.write_text(json.dumps(doc))
    with pytest.raises(
        ParseError, match=f"{manifest}: 'sessions' must be a list of path strings"
    ):
        load_dataset(manifest)


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("manifest")
    sessions = []
    for pid, scenario in (("p01", "social"), ("p02", "individual")):
        sessions.append(path / f"{pid}_{scenario}.jsonl")
        write_session(small_session(participant=pid, scenario=scenario), sessions[-1])
    write_manifest(sessions, path / "manifest.json")
    return path


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_load_dataset_mutations_load_or_name_the_file(manifest_dir, data):
    # Delete or replace one value of the manifest. The loader either returns
    # exactly the sessions the mutated list names, or raises a package
    # ValueError naming the manifest, or an OSError naming a listed path that
    # is not a session file.
    doc = json.loads((manifest_dir / "manifest.json").read_text())
    mutate_json(data, doc)
    path = manifest_dir / "mutated.json"
    path.write_text(json.dumps(doc))
    try:
        sessions = load_dataset(path)
    except ValueError as e:
        assert type(e).__module__ == "bitetiming.errors"
        assert str(path) in str(e)
    except OSError as e:
        assert Path(e.filename) in [manifest_dir / rel for rel in doc["sessions"]]
    else:
        named = sorted(tuple(Path(rel).stem.split("_")) for rel in doc["sessions"])
        assert [(s.participant_id, s.scenario) for s in sessions] == named


def session_with_arrivals(arrivals):
    session = small_session()
    session.bites = [BiteEvent(a - 2.0, a, a + 2.0) for a in arrivals]
    return session


def test_derive_time_to_bite_fixtures():
    session = session_with_arrivals([55.0, 20.0])
    got = derive_time_to_bite(session, [20.0, 12.0, 30.0, 55.0, 55.5])
    np.testing.assert_array_equal(got, [0.0, 8.0, 25.0, 0.0, np.nan])
    session.bites = []
    assert np.isnan(derive_time_to_bite(session, [1.0])).all()


def test_derive_time_to_bite_shift_property():
    session = session_with_arrivals([20.0, 55.0])
    rng = np.random.default_rng(5)
    t = rng.uniform(0.0, 19.0, 100)
    delta = rng.uniform(0.0, 1.0, 100) * (19.0 - t)
    base = derive_time_to_bite(session, t)
    shifted = derive_time_to_bite(session, t + delta)
    np.testing.assert_allclose(base - shifted, delta, rtol=0.0, atol=1e-9)


def test_motion_label_zero_order_hold():
    session = small_session()
    session.motion_t = np.array([1.0, 3.0])
    session.motion_moving = np.array([1, 0])
    labels, known = motion_labels_at(session, np.array([2.0, 3.0, 0.5, 100.0]))
    np.testing.assert_array_equal(labels, [1, 0, 0, 0])
    np.testing.assert_array_equal(known, [True, True, False, True])
    session.motion_t = np.empty(0)
    session.motion_moving = np.empty(0, dtype=np.int64)
    labels, known = motion_labels_at(session, np.array([1.0]))
    assert labels.tolist() == [0] and known.tolist() == [False]
