"""Session file round trips, validation errors, and label derivation."""

import base64
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import JSON_LIMITS, b64, mutate_json, unb64

from bitetiming.dataio import (
    MAX_SESSION_SECONDS,
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
    for times in [(2.0, 3.0, float("inf")), (float("nan"), 3.0, 4.0)]:
        message = f"bite timestamps must be finite and strictly ordered, got ({times[0]}, {times[1]}, {times[2]})"
        with pytest.raises(TrackValidationError, match=f"^{re.escape(message)}$"):
            BiteEvent(*times)
    # Not a number as a file holds one, or an int too large for a float:
    # either would be written but not read back.
    for times, message in [
        ((2.0, 10**399, 10**400), "'bite' field 'feeding_arrival_t' does not fit a float"),
        ((True, 2.0, 3.0), "'bite' field 'staging_arrival_t' is not a number: True"),
        ((1.0, np.float64(2.0), 3.0), f"'bite' field 'feeding_arrival_t' is not a number: {np.float64(2.0)!r}"),
        ((1.0, 2.0, "3.0"), "'bite' field 'bite_complete_t' is not a number: '3.0'"),
    ]:
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            BiteEvent(*times)


@pytest.mark.parametrize(
    "field, values, message",
    [
        ("imu_accel", np.zeros((5, 2)), "imu accel shape (5, 2) does not match 5 timestamps"),
        ("mic_amp", np.zeros(3), "mic amp shape (3,) does not match 4 timestamps"),
        ("motion_moving", np.zeros(4), "motion moving shape (4,) does not match 3 timestamps"),
    ],
    ids=["imu", "mic", "motion"],
)
def test_validation_names_a_track_whose_values_do_not_match_its_timestamps(tmp_path, field, values, message):
    session = small_session()
    setattr(session, field, values)
    with pytest.raises(TrackValidationError, match=f"^{re.escape(message)}$"):
        write_session(session, tmp_path / "s.jsonl")


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
    # A future schema; waffle/1's one line per sample; and waffle/2's columns
    # of JSON numbers, which preceded waffle/3's base64 and are no longer read.
    path = tmp_path / "s.jsonl"
    for schema, track_line in [
        ("waffle/9", ""),
        ("waffle/1", '{"track":"imu","t":0.0,"ax":0.1,"ay":0.2,"az":9.8}\n'),
        ("waffle/2", '{"track":"imu","t":[0.0],"ax":[0.1],"ay":[0.2],"az":[9.8]}\n'),
    ]:
        path.write_text(f'{{"schema":"{schema}","participant":"p","scenario":"individual"}}\n' + track_line)
        message = f"{path}: schema {schema!r} is not supported, expected 'waffle/3'"
        with pytest.raises(SchemaVersionError, match=f"^{re.escape(message)}$"):
            read_session(path)


def test_read_session_header_errors(tmp_path):
    path = tmp_path / "h.jsonl"
    path.write_text("")
    with pytest.raises(ParseError):
        read_session(path)
    path.write_text('{"schema":"waffle/3","participant":"p"}\n')
    with pytest.raises(ParseError, match="scenario"):
        read_session(path)
    path.write_text('{"participant":"p","scenario":"individual"}\n')
    with pytest.raises(ParseError, match="schema"):
        read_session(path)


def test_read_session_names_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"schema":"waffle/3","participant":"p","scenario":"individual"}\n'
        f'{{"track":"imu","t":"{b64([0.0])}","ax":"{b64([0.1])}","ay":"{b64([0.2])}","az":"{b64([9.8])}"}}\n'
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
        '{"schema":"waffle/3","participant":"p","scenario":"individual"}\n'
        '{"track":"gaze","t":"AAAAAAAAAAA="}\n'
    )
    with pytest.raises(ParseError, match=":2: expected the 'imu' column 't'$"):
        read_session(path)


def test_read_session_missing_field_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"schema":"waffle/3","participant":"p","scenario":"individual"}\n'
        '{"track":"bite","staging_arrival_t":0.0,"feeding_arrival_t":0.5}\n'
    )
    with pytest.raises(ParseError, match=":2: 'bite' line is missing field 'bite_complete_t'"):
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


def test_validation_refuses_a_span_whose_difference_overflows(tmp_path):
    # 1e308 - (-1e308) overflows a float; pytest turns numpy's overflow
    # warning into an error, so neither the order nor the span check may
    # subtract. Resampling such a span once died with an OverflowError.
    session = small_session()
    session.motion_t = np.array([-1e308, 1e308, 1.5e308])
    message = "motion timestamps [-1e+308, 1.5e+308] span more than 3601 s"
    with pytest.raises(TrackValidationError, match=f"^{re.escape(message)}$"):
        write_session(session, tmp_path / "s.jsonl")
    assert not (tmp_path / "s.jsonl").exists()


@pytest.mark.parametrize("track", ["imu", "mic", "motion"])
def test_a_track_spans_at_most_an_hour_and_a_second(tmp_path, track):
    # Two samples each: a track that spans the bound exactly loads, and one a
    # float step longer is refused by the writer and by the reader.
    longest = [-5.0, -5.0 + MAX_SESSION_SECONDS + 1.0]
    two = {
        "imu_t": np.array([0.0, 1.0]), "imu_accel": np.zeros((2, 3)), "mic_t": np.array([0.0, 1.0]),
        "mic_amp": np.zeros(2), "motion_t": np.array([0.0, 1.0]), "motion_moving": np.array([0, 1]),
    }
    session = dataclasses.replace(small_session(), **(two | {f"{track}_t": np.array(longest)}))
    path = tmp_path / "s.jsonl"
    write_session(session, path)
    assert_sessions_equal(read_session(path), session)
    too_long = [longest[0], float(np.nextafter(longest[1], np.inf))]
    message = f"{track} timestamps {too_long} span more than 3601 s"
    with pytest.raises(TrackValidationError, match=f"^{re.escape(message)}$"):
        write_session(dataclasses.replace(session, **{f"{track}_t": np.array(too_long)}), tmp_path / "no.jsonl")
    assert not (tmp_path / "no.jsonl").exists()
    rewrite_column(path, track, "t", lambda rec: rec.__setitem__("t", too_long))
    with pytest.raises(TrackValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
        read_session(path)


def test_read_session_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.jsonl"
    write_session(small_session(), path)
    # The third ax value, written as a NaN's bytes.
    rewrite_column(path, "imu", "ax", lambda rec: rec["ax"].__setitem__(2, float("nan")))
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
    rewrite_column(path, "motion", "moving", lambda rec: rec["moving"].__setitem__(1, 0.7))
    with pytest.raises(
        TrackValidationError, match=f"{path}: motion label at sample 1 is 0.7"
    ):
        read_session(path)


@pytest.mark.parametrize("value", ["abc", {}, [1.0, 2.0]])
def test_read_session_names_the_line_of_a_non_numeric_field(tmp_path, value):
    # The ax column (line 4) is not the base64 of float64 bytes.
    path = tmp_path / "nan.jsonl"
    write_session(small_session(), path)
    rewrite_line(path, 3, ax=value)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:4: 'imu' field 'ax' is not (a string|valid base64)"):
        read_session(path)


def test_read_session_names_the_line_of_a_non_numeric_bite(tmp_path):
    path = tmp_path / "bite.jsonl"
    write_session(small_session(), path)
    rewrite_line(path, 1, feeding_arrival_t="1.0")
    with pytest.raises(
        ParseError, match=f"{path}:2: 'bite' field 'feeding_arrival_t' is not a number"
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


# Line indices count from 0: the header, the bite, then the imu t, ax, ay
# and az, the mic t and amp, and the motion t and moving columns.
@pytest.mark.parametrize(
    "index, field, value",
    [(3, "ax", "1.5"), (5, "az", True), (7, "amp", "0.5"), (9, "moving", True)],
)
def test_read_session_rejects_numeric_strings_and_booleans(tmp_path, index, field, value):
    # A column given as a number's text or a boolean is refused, not converted.
    path = tmp_path / "s.jsonl"
    write_session(small_session(), path)
    rewrite_line(path, index, **{field: value})
    with pytest.raises(
        ParseError, match=f"{path}:{index + 1}: .* field '{field}' is not (a string|valid base64)"
    ):
        read_session(path)


def column_line(lines, track, key):
    """The index of the line holding column ``key`` of ``track``."""
    return next(i for i, line in enumerate(lines) if json.loads(line).get("track") == track and key in json.loads(line))


def rewrite_column(path, track, key, edit):
    """Apply ``edit`` to the record of the line holding column ``key`` of
    ``track`` in a waffle/3 file, with that column decoded to a list of
    floats, and return that line's number. A column the edit leaves a list
    is encoded again."""
    lines = path.read_text().splitlines()
    index = column_line(lines, track, key)
    rec = json.loads(lines[index])
    rec[key] = unb64(rec[key])
    edit(rec)
    if type(rec[key]) is list:
        rec[key] = b64(rec[key])
    lines[index] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    return index + 1


@pytest.mark.parametrize(
    "track, key, value, message",
    [
        pytest.param("imu", "az", [0.5], "'imu' field 'az' is not a string", id="list"),
        pytest.param("motion", "moving", {}, "'motion' field 'moving' is not a string", id="object"),
        pytest.param("mic", "t", 1.5, "'mic' field 't' is not a string", id="number"),
        pytest.param(
            "imu", "ax", "AAAA!AAA", "'imu' field 'ax' is not valid base64: Only base64 data is allowed", id="alphabet"
        ),
        pytest.param("mic", "amp", "abc", "'mic' field 'amp' is not valid base64: Incorrect padding", id="padding"),
        pytest.param(
            "imu",
            "t",
            "\u00e9AAA",
            "'imu' field 't' is not valid base64: string argument should contain only ASCII characters",
            id="non-ascii",
        ),
        pytest.param("motion", "t", b64([1.0])[:-4], "'motion' field 't' holds 6 bytes, not a multiple of 8", id="bytes"),
        pytest.param("imu", "ay", "AAAA", "'imu' field 'ay' holds 3 bytes, not a multiple of 8", id="short"),
    ],
)
def test_read_session_names_a_column_that_is_not_float64_base64(tmp_path, track, key, value, message):
    # One case or more for each way a column can fail to be the base64 of
    # float64 bytes: not a string, not valid base64, or a byte count that is
    # not a multiple of 8.
    path = tmp_path / "s.jsonl"
    write_session(small_session(), path)
    index = column_line(path.read_text().splitlines(), track, key)
    rewrite_line(path, index, **{key: value})
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}:{index + 1}: {message}')}$"):
        read_session(path)


@pytest.mark.parametrize(
    "key, edit, message",
    [
        pytest.param("ax", lambda rec: rec.update(ax=1.5), "'imu' field 'ax' is not a string", id="not-a-list"),
        pytest.param("ax", lambda rec: rec.update(ax=None), "'imu' field 'ax' is not a string", id="null"),
        pytest.param(
            "ay", lambda rec: rec["ay"].pop(), "'imu' field 'ay' has 4 values, 't' on line 3 has 5", id="length"
        ),
    ],
)
def test_read_session_names_the_line_of_a_malformed_column(tmp_path, key, edit, message):
    path = tmp_path / "s.jsonl"
    write_session(small_session(), path)
    lineno = rewrite_column(path, "imu", key, edit)
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}:{lineno}: {message}')}$"):
        read_session(path)


def test_read_session_names_a_missing_column(tmp_path):
    path = tmp_path / "s.jsonl"
    write_session(small_session(), path)
    lines = [line for line in path.read_text().splitlines() if '"az"' not in line]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:6: expected the 'imu' column 'az'$"):
        read_session(path)


def test_read_session_rejects_a_column_that_appears_twice(tmp_path):
    path = tmp_path / "s.jsonl"
    write_session(small_session(), path)
    lines = path.read_text().splitlines()
    assert json.loads(lines[6]) == {"track": "mic", "t": b64(small_session().mic_t)}
    path.write_text("\n".join(lines[:7] + lines[6:]) + "\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:8: expected the 'mic' column 'amp'$"):
        read_session(path)


def several_columns_on_one_line(lines):
    ax, ay = json.loads(lines[3]), json.loads(lines[4])
    return lines[:3] + [json.dumps(ax | ay)] + lines[5:]


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda lines: lines[:1] + lines[2:3] + lines[1:2] + lines[3:], ":3: expected the 'imu' column 'ax'", id="bite-after-a-column"),
        pytest.param(several_columns_on_one_line, ":5: expected the 'imu' column 'ay'", id="two-columns-on-one-line"),
        pytest.param(lambda lines: lines + lines[-1:], ":11: expected the end of the file after the last column", id="line-after-the-last"),
        pytest.param(lambda lines: lines[:-2], ":9: file ends before the 'motion' column 't'", id="track-without-a-line"),
        pytest.param(lambda lines: lines + [""], None, id="blank-line"),
    ],
)
def test_read_session_takes_only_the_layout_write_session_writes(tmp_path, edit, message):
    # waffle/3 has one layout: the header, the bites, then each column on a
    # line of its own in the writer's order. Blank lines are skipped.
    path = tmp_path / "s.jsonl"
    write_session(small_session(), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    if message is None:
        assert_sessions_equal(read_session(path), small_session())
        return
    with pytest.raises(ParseError, match=f"^{re.escape(str(path) + message)}$"):
        read_session(path)


@pytest.mark.parametrize(
    "track, key, index, value, message",
    [
        ("imu", "ax", 2, float("nan"), "imu acceleration at sample 2 is not finite"),
        ("mic", "t", 1, float("inf"), "mic timestamp at sample 1 is not finite"),
        ("motion", "moving", 1, 0.7, "motion label at sample 1 is 0.7"),
    ],
)
def test_read_session_validates_columns_with_the_path(tmp_path, track, key, index, value, message):
    path = tmp_path / "s.jsonl"
    write_session(small_session(), path)
    rewrite_column(path, track, key, lambda rec: rec[key].__setitem__(index, value))
    with pytest.raises(TrackValidationError, match=f"^{re.escape(f'{path}: {message}')}"):
        read_session(path)


def after_a_bite(session, path):
    """Write a waffle/3 file with one more bite line, before the session's own."""
    write_session(dataclasses.replace(session, bites=[BiteEvent(0.1, 0.2, 0.3), *session.bites]), path)


@pytest.mark.parametrize("writer, lineno", [(write_session, 2), (after_a_bite, 3)])
def test_read_session_names_the_line_of_a_bite_too_large_for_a_float(tmp_path, writer, lineno):
    path = tmp_path / "s.jsonl"
    writer(small_session(), path)
    rewrite_line(path, lineno - 1, feeding_arrival_t=10**399, bite_complete_t=10**400)
    with pytest.raises(
        ParseError, match=f"^{re.escape(str(path))}:{lineno}: 'bite' field 'feeding_arrival_t' does not fit a float$"
    ):
        read_session(path)


@pytest.mark.parametrize("writer, lineno", [(write_session, 2), (after_a_bite, 3)])
def test_read_session_rejects_a_bite_that_is_not_finite(tmp_path, writer, lineno):
    path = tmp_path / "s.jsonl"
    writer(small_session(), path)
    rewrite_line(path, lineno - 1, bite_complete_t=float("inf"))  # written as Infinity
    message = f"{path}:{lineno}: bite timestamps must be finite and strictly ordered, got (0.5, 1.0, inf)"
    with pytest.raises(TrackValidationError, match=f"^{re.escape(message)}$"):
        read_session(path)


@pytest.mark.parametrize(
    "bite, error, message",
    [
        ((2.0, 3.0, float("inf")), TrackValidationError, "bite timestamps must be finite"),
        ((2.0, 10**399, 10**400), ParseError, "'bite' field 'feeding_arrival_t' does not fit a float"),
    ],
    ids=["bite0", "bite1"],
)
def test_write_session_rejects_a_bite_that_is_not_finite(tmp_path, bite, error, message):
    # An int too large for a float would be written but not read back. Such a
    # bite is refused when it is built, before write_session starts a file.
    session = small_session()
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        session.bites = [BiteEvent(0.5, 1.0, 1.5), BiteEvent(*bite)]
        write_session(session, tmp_path / "s.jsonl")
    assert not (tmp_path / "s.jsonl").exists()


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda s: setattr(s, "participant_id", 7), "'header' field 'participant' is not a string: 7"),
        (lambda s: setattr(s, "scenario", ["social"]), "'header' field 'scenario' is not a string: ['social']"),
        (lambda s: setattr(s, "scenario", "group"), "unknown scenario 'group', expected one of ('individual', 'social')"),
        (lambda s: s.bites.append(BiteEvent(True, 2.0, 3.0)), "'bite' field 'staging_arrival_t' is not a number: True"),
        (
            lambda s: s.bites.append(BiteEvent(np.int64(1), 2.0, 3.0)),
            f"'bite' field 'staging_arrival_t' is not a number: {np.int64(1)!r}",
        ),
    ],
    ids=["participant", "scenario", "unknown-scenario", "bool-bite", "numpy-bite"],
)
def test_write_session_refuses_a_value_read_session_refuses(tmp_path, change, message):
    # These were once written, and then refused on reading or, for the numpy
    # scalar, left a half-written file behind a TypeError. The writer raises
    # the reader's message, less the file's path and line, and writes nothing.
    session = small_session()
    path = tmp_path / "s.jsonl"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        change(session)
        write_session(session, path)
    assert not path.exists()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    write_session(small_session(), path / "base.jsonl")
    return path


def motion_labels_in(lines):
    """The moving labels a waffle/3 file's motion lines hold."""
    records = [json.loads(line) for line in lines[1:]]
    return [m for r in records if r.get("track") == "motion" and "moving" in r for m in unb64(r["moving"])]


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    value=st.sampled_from(("delete", "abc", "1.5", "AAAA", "", "\u00e9", {}, None, 0.7, True, 10**400)),
)
def test_read_session_mutations_load_or_name_the_file(fuzz_dir, data, value):
    # Mutate one field of one line of a waffle/3 file: delete it, or set it
    # to a string (base64 or not), an object, JSON null, 0.7, a boolean or
    # an integer too large for a float. The loader either returns a valid
    # session or raises a package ValueError that names the file.
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
        assert session.motion_moving.tolist() == motion_labels_in(lines)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), mutation=st.sampled_from(("element", "column", "length", "bytes", "delete", "repeat")))
def test_read_session_column_mutations_load_or_name_the_file(fuzz_dir, data, mutation):
    # Mutate one column line of a waffle/3 file: set one value of a column
    # to a non-finite number, a fraction or another number; replace a whole
    # column by a non-string or by a string that is not the base64 of whole
    # float64 values; grow or shrink a column by a value or append a few
    # bytes to it; or delete or repeat the line. The loader either returns a
    # valid session or raises a package ValueError that names the file.
    lines = (fuzz_dir / "base.jsonl").read_text().splitlines()
    tracks = [i for i, line in enumerate(lines) if json.loads(line).get("track") in ("imu", "mic", "motion")]
    index = data.draw(st.sampled_from(tracks), label="line")
    rec = json.loads(lines[index])
    key = data.draw(st.sampled_from(sorted(set(rec) - {"track"})), label="column")
    column = unb64(rec[key])
    if mutation == "delete":
        del lines[index]
    elif mutation == "repeat":
        lines.insert(index, lines[index])
    else:
        if mutation == "element":
            i = data.draw(st.integers(0, len(column) - 1), label="index")
            column[i] = data.draw(st.sampled_from((float("nan"), float("inf"), 0.7, -3.0, 2.0, 1e308)), label="value")
        elif mutation == "column":
            column = data.draw(st.sampled_from(("abc", "AAAA", "", "\u00e9", [0.0], 1.5, {}, None, True)), label="value")
        elif mutation == "bytes":
            extra = data.draw(st.binary(min_size=1, max_size=7), label="bytes")
            column = base64.b64encode(base64.b64decode(rec[key]) + extra).decode("ascii")
        elif data.draw(st.booleans(), label="grow"):
            column.append(column[-1])
        else:
            column.pop()
        rec[key] = b64(column) if mutation in ("element", "length") else column
        lines[index] = json.dumps(rec)
    path = fuzz_dir / "mutated2.jsonl"
    path.write_text("\n".join(lines) + "\n")
    try:
        session = read_session(path)
    except ValueError as e:
        assert type(e).__module__ == "bitetiming.errors"
        assert str(path) in str(e)
    else:
        assert session.motion_moving.tolist() == motion_labels_in(lines)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), merge=st.booleans())
def test_read_session_line_moves_and_merges_load_the_same_session_or_name_the_file(fuzz_dir, data, merge):
    # Move one line of a two-bite waffle/3 file to another place, or merge
    # it into another line: as one object if both are column lines (several
    # columns on one line), otherwise as their texts side by side. The
    # loader either returns the written session or raises a package
    # ValueError that names the file; it never loads another session.
    session = small_session()
    source = fuzz_dir / "two_bites.jsonl"
    after_a_bite(session, source)
    written = read_session(source)
    lines = source.read_text().splitlines()
    i, j = (data.draw(st.integers(0, len(lines) - 1), label=label) for label in ("from", "to"))
    if merge and i != j:
        a, b = lines[j], lines.pop(i)
        columns = all(json.loads(line).get("track") in ("imu", "mic", "motion") for line in (a, b))
        lines[lines.index(a)] = json.dumps(json.loads(a) | json.loads(b)) if columns else a + b
    else:
        lines.insert(j, lines.pop(i))
    path = fuzz_dir / "moved.jsonl"
    path.write_text("\n".join(lines) + "\n")
    try:
        session = read_session(path)
    except ValueError as e:
        assert type(e).__module__ == "bitetiming.errors"
        assert str(path) in str(e)
    else:
        assert_sessions_equal(session, written)


def reference_parse_line(path, lineno, line):
    """An independent per-line parser: json.loads alone."""
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
    # A line parses to what json.loads returns, or fails with the error
    # json.loads words.
    assert parse_outcome(_parse_line, line) == parse_outcome(reference_parse_line, line)


def test_read_session_parses_line_by_line(tmp_path):
    # Line 2 ends inside a string that line 3 closes, and line 4 holds two
    # objects: joined with commas into one JSON array they would parse, with
    # the original line count. Each line on its own is what gets parsed.
    path = tmp_path / "merged.jsonl"
    path.write_text(
        '{"schema":"waffle/3","participant":"p","scenario":"individual"}\n'
        '{"track":"mic","t":"AAAAAAAAAAA=","amp":"x\n'
        'y"}\n'
        "{},{}\n"
    )
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: invalid JSON"):
        read_session(path)


# The smallest and largest subnormals, and the largest finite floats.
EXTREME_FLOATS = (-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308)
SPECIAL_FLOATS = (*EXTREME_FLOATS, 0.0, 1e-7, -1e-7, 1e16, -1e16, 1.0, -3.0, 1e22)
FINITE = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
AMPLITUDES = st.one_of(
    st.sampled_from((-1.0, 1.0, -0.0, 0.0, 5e-324, 1e-7, -1e-7)), st.floats(-1.0, 1.0)
)


def timestamps(max_size=12):
    """Up to ``max_size`` sorted times: any finite start, then the rest within
    the longest span a track may have after it."""
    offsets = st.lists(st.floats(0, MAX_SESSION_SECONDS + 1), max_size=max_size - 1)
    spans = st.tuples(FINITE, offsets).map(lambda d: sorted({d[0], *(d[0] + x for x in d[1])}))
    return st.just([]) | spans


@st.composite
def finite_sessions(draw, max_size=12):
    imu_t = draw(timestamps(max_size))
    n = len(imu_t)
    mic_t = draw(timestamps(max_size))
    motion_t = draw(timestamps(max_size // 2))
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


def documented_layout(session):
    """The waffle/3 records of a session, as the module docstring lays them
    out: the header, the bites, then one line per column of each track, each
    column the base64 of its float64 bytes."""
    bites = [
        {"track": "bite", "staging_arrival_t": b.staging_arrival_t,
         "feeding_arrival_t": b.feeding_arrival_t, "bite_complete_t": b.bite_complete_t}
        for b in session.bites
    ]
    ax, ay, az = session.imu_accel.T
    columns = [
        ("imu", "t", session.imu_t), ("imu", "ax", ax), ("imu", "ay", ay), ("imu", "az", az),
        ("mic", "t", session.mic_t), ("mic", "amp", session.mic_amp),
        ("motion", "t", session.motion_t), ("motion", "moving", session.motion_moving),
    ]
    return [
        {"schema": "waffle/3", "participant": session.participant_id, "scenario": session.scenario},
        *bites,
        *({"track": track, key: b64(values)} for track, key, values in columns),
    ]


# Refused where a session holds a bite time: not finite, an int too large
# for a float, a bool, a numpy scalar or text.
ODD_TIMES = st.sampled_from([float("nan"), float("inf"), 10**400, True, np.float64(1.0), "1.0"])
# Refused where a session holds a participant or ("group" only) a scenario.
ODD_NAMES = st.sampled_from([7, None, ["social"], b"p01", "group"])


@st.composite
def drawn_sessions(draw):
    """A session and the times of its bites: many valid, the rest off by a
    value, a type, an order or a span. The bites are built by the test, as
    building one is where a bite's own rules apply."""

    def maybe_odd(value, odd):
        return draw(odd) if draw(st.integers(0, 9)) == 0 else value

    session = draw(finite_sessions(max_size=4))
    session.participant_id = maybe_odd(session.participant_id, ODD_NAMES)
    session.scenario = maybe_odd(session.scenario, ODD_NAMES)
    if session.mic_t.size and draw(st.integers(0, 9)) == 0:  # a span past the bound
        session.mic_t[-1] = float(session.mic_t[0]) + draw(st.sampled_from((3601.5, 1e9, 1e308)))
    times = sorted(draw(st.lists(st.floats(0, 100), max_size=6, unique=True)))
    bites = [[maybe_odd(t, ODD_TIMES) for t in times[i : i + 3]] for i in range(0, len(times) - 2, 3)]
    if draw(st.booleans()):
        bites.reverse()  # two bites then overlap
    return session, bites


@settings(max_examples=300, deadline=None)
@given(drawn=drawn_sessions())
def test_the_session_writer_writes_only_what_reads_back(write_dir, drawn):
    # Either building the bites or the writer refuses the session with a
    # package error and writes no file, or the file reads back as the session.
    session, bite_times = drawn
    path = write_dir / "drawn.jsonl"
    path.unlink(missing_ok=True)
    try:
        session.bites = [BiteEvent(*times) for times in bite_times]
        write_session(session, path)
    except ValueError as e:
        assert type(e).__module__ == "bitetiming.errors"
        assert not path.exists()
    else:
        again = read_session(path)
        assert_sessions_equal(again, session)
        assert [type(t) for b in again.bites for t in dataclasses.astuple(b)] == [
            type(t) for b in session.bites for t in dataclasses.astuple(b)
        ]


@settings(max_examples=200, deadline=None)
@given(session=finite_sessions())
def test_write_session_matches_the_json_encoder(write_dir, session):
    write_session(session, write_dir / "columns.jsonl")
    expected = "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in documented_layout(session))
    assert (write_dir / "columns.jsonl").read_text() == expected


# Not a column name: on a waffle/3 line, another column of the track is read.
EXTRA_KEYS = (st.sampled_from(("qw", "qx", "qy", "qz")) | st.text(max_size=4)).filter(
    lambda k: k not in ("t", "ax", "ay", "az", "amp", "moving")
)
# Built once: a strategy built per line is validated anew each time.
EXTRA_FIELDS = st.dictionaries(EXTRA_KEYS, JSON_VALUES, max_size=2)


# Short sessions: the rule concerns a file's lines, and a session has the
# same lines whatever its length.
@settings(max_examples=100, deadline=None)
@given(session=finite_sessions(max_size=2), data=st.data())
def test_read_session_ignores_keys_it_does_not_read(write_dir, session, data):
    # Any key a line does not read, before or after the keys read, on some
    # or all lines of a file, loads into the same arrays.
    path = write_dir / "plain.jsonl"
    write_session(session, path)
    expected = read_session(path)
    lines = []
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        before, after = ({k: v for k, v in data.draw(EXTRA_FIELDS).items() if k not in rec} for _ in "ab")
        rec = {**before, **rec, **after}
        lines.append(json.dumps(rec, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n")
    assert_sessions_equal(read_session(path), expected)


def extreme_session():
    """A session whose value columns hold -0.0, subnormals or the largest
    finite floats, and whose tracks hold -0.0 and subnormals and span the
    longest a track may."""
    t = np.array([-5e-324, -0.0, 5e-324, 2.225073858507201e-308, 1.0, MAX_SESSION_SECONDS + 1.0])
    accel = np.array([EXTREME_FLOATS, EXTREME_FLOATS[::-1], EXTREME_FLOATS[1:] + EXTREME_FLOATS[:1]]).T
    return SessionRecord(
        participant_id="p01",
        scenario="social",
        imu_t=t,
        imu_accel=accel,
        mic_t=t,
        mic_amp=np.array([-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.0, -1.0]),
        motion_t=t,
        motion_moving=np.array([1, 0, 1, 1, 0, 0]),
    )


def float_bytes(values):
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


@settings(max_examples=200, deadline=None)
@given(session=finite_sessions())
@example(session=extreme_session())
def test_session_round_trip_is_bit_exact(write_dir, session):
    # Every column reads back bit for bit, -0.0 and subnormals included;
    # the motion labels come back as int64.
    path = write_dir / "exact.jsonl"
    write_session(session, path)
    loaded = read_session(path)
    for name in ("imu_t", "imu_accel", "mic_t", "mic_amp", "motion_t"):
        assert float_bytes(getattr(loaded, name)) == float_bytes(getattr(session, name)), name
    assert loaded.motion_moving.dtype == np.int64
    assert loaded.motion_moving.tolist() == [int(m) for m in session.motion_moving]


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


@pytest.mark.parametrize("second", ["x.jsonl", "./x.jsonl", "sub/../x.jsonl"])
def test_write_manifest_refuses_a_session_listed_twice(tmp_path, second):
    # Such a manifest was once written, then refused on loading.
    write_session(small_session(), tmp_path / "x.jsonl")
    manifest = tmp_path / "manifest.json"
    with pytest.raises(ParseError, match=f"^{re.escape(str(manifest))}: session 'x.jsonl' is listed twice$"):
        write_manifest([tmp_path / "x.jsonl", tmp_path / second], manifest)
    assert not manifest.exists()


def test_write_manifest_lists_a_session_outside_its_directory(tmp_path, monkeypatch):
    # Sessions in data/, next to sets/manifest.json: the writer lists the
    # path load_dataset joins back, and refuses one file under two spellings
    # with the reader's message.
    monkeypatch.chdir(tmp_path)
    Path("data").mkdir()
    Path("sets").mkdir()
    write_session(small_session(participant="p02"), "data/a.jsonl")
    write_session(small_session(participant="p01"), "data/b.jsonl")
    manifest = Path("sets/manifest.json")
    write_manifest(["data/a.jsonl", "data/b.jsonl"], manifest)
    assert json.loads(manifest.read_text())["sessions"] == ["../data/a.jsonl", "../data/b.jsonl"]
    assert [s.participant_id for s in load_dataset(manifest)] == ["p01", "p02"]
    written = manifest.read_bytes()
    twice = "^" + re.escape(f"{manifest}: session '../data/a.jsonl' is listed twice") + "$"
    with pytest.raises(ParseError, match=twice):
        write_manifest(["data/a.jsonl", "sets/../data/a.jsonl"], manifest)
    assert manifest.read_bytes() == written


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
