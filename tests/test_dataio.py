"""Session file round trips, validation errors, and label derivation."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutate_json

from bitetiming.dataio import (
    BiteEvent,
    SessionRecord,
    derive_time_to_bite,
    load_dataset,
    motion_labels_at,
    read_session,
    write_manifest,
    write_session,
)
from bitetiming.errors import ParseError, SchemaVersionError, TrackValidationError


def small_session(participant="p01", scenario="individual", with_quat=True):
    imu_t = np.array([0.0, 0.4, 0.9, 1.5, 2.2])
    rng = np.random.default_rng(1)
    quat = None
    if with_quat:
        theta = rng.uniform(0.0, 0.2, 5)
        quat = np.stack(
            [np.cos(theta / 2), np.sin(theta / 2), np.zeros(5), np.zeros(5)], axis=1
        )
    return SessionRecord(
        participant_id=participant,
        scenario=scenario,
        imu_t=imu_t,
        imu_accel=rng.normal(0.0, 1.0, (5, 3)),
        imu_quat=quat,
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
    if a.imu_quat is None:
        assert b.imu_quat is None
    else:
        np.testing.assert_array_equal(a.imu_quat, b.imu_quat)
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


@pytest.mark.parametrize("with_quat", [True, False])
def test_session_round_trip(tmp_path, with_quat):
    session = small_session(with_quat=with_quat)
    path = tmp_path / "s.jsonl"
    write_session(session, path)
    assert_sessions_equal(read_session(path), session)


def test_read_session_rejects_non_monotone_imu(tmp_path):
    session = small_session(with_quat=False)
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


def test_read_session_quaternions_all_or_none(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"schema":"waffle/1","participant":"p","scenario":"individual"}\n'
        '{"track":"imu","t":0.0,"ax":0,"ay":0,"az":9.8,"qw":1,"qx":0,"qy":0,"qz":0}\n'
        '{"track":"imu","t":0.5,"ax":0,"ay":0,"az":9.8}\n'
    )
    with pytest.raises(ParseError, match="quaternion"):
        read_session(path)


def test_validation_mic_range_and_motion_values(tmp_path):
    session = small_session(with_quat=False)
    session.mic_amp = np.array([0.1, -0.4, 1.5, -1.0])
    with pytest.raises(TrackValidationError, match="mic amplitude"):
        write_session(session, tmp_path / "a.jsonl")
    session = small_session(with_quat=False)
    session.motion_moving = np.array([0, 2, 0])
    with pytest.raises(TrackValidationError, match="motion label"):
        write_session(session, tmp_path / "b.jsonl")


@pytest.mark.parametrize(
    "column, index, value, message",
    [
        ("imu_t", (2,), np.nan, "imu timestamp at sample 2"),
        ("imu_accel", (3, 1), np.inf, "imu acceleration at sample 3"),
        ("imu_quat", (1, 0), np.nan, "imu quaternion at sample 1"),
        ("mic_t", (1,), -np.inf, "mic timestamp at sample 1"),
        ("mic_amp", (0,), np.nan, "mic amplitude at sample 0"),
        ("motion_t", (2,), np.nan, "motion timestamp at sample 2"),
    ],
)
def test_validation_rejects_non_finite(tmp_path, column, index, value, message):
    session = small_session(with_quat=True)
    values = getattr(session, column).astype(np.float64)
    values[index] = value
    setattr(session, column, values)
    with pytest.raises(TrackValidationError, match=message):
        write_session(session, tmp_path / "nf.jsonl")


def test_read_session_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.jsonl"
    write_session(small_session(with_quat=False), path)
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
    write_session(small_session(with_quat=False), path)
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
    write_session(small_session(with_quat=True), path)
    rewrite_line(path, 3, ax=value)  # the third imu line
    with pytest.raises(ParseError, match=f"{path}:4: 'imu' field 'ax' is not a number"):
        read_session(path)


def test_read_session_names_the_line_of_a_non_numeric_bite(tmp_path):
    path = tmp_path / "bite.jsonl"
    write_session(small_session(with_quat=False), path)
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
    write_session(small_session(with_quat=False), path)
    rewrite_line(path, 0, **{field: value})
    with pytest.raises(
        ParseError, match=f"{path}:1: 'header' field '{field}' is not a string"
    ):
        read_session(path)


# Line indices count from 0: the header, 5 imu lines, 4 mic lines, 1 bite
# line, then 3 motion lines.
@pytest.mark.parametrize(
    "index, field, value",
    [(3, "ax", "1.5"), (3, "qz", True), (7, "amp", "0.5"), (12, "moving", True)],
)
def test_read_session_rejects_numeric_strings_and_booleans(tmp_path, index, field, value):
    path = tmp_path / "s.jsonl"
    write_session(small_session(with_quat=True), path)
    rewrite_line(path, index, **{field: value})
    with pytest.raises(
        ParseError, match=f"{path}:{index + 1}: .* field '{field}' is not a number"
    ):
        read_session(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    write_session(small_session(with_quat=True), path / "base.jsonl")
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


def test_validation_quat_norm(tmp_path):
    session = small_session(with_quat=True)
    session.imu_quat = session.imu_quat * 1.1
    with pytest.raises(TrackValidationError, match="norm"):
        write_session(session, tmp_path / "q.jsonl")


def test_validation_overlapping_bites():
    session = small_session(with_quat=False)
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


def test_load_dataset_schema_guard(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"schema":"waffle-manifest/2","sessions":[]}')
    with pytest.raises(SchemaVersionError):
        load_dataset(manifest)
    manifest.write_text("[1, 2]")
    with pytest.raises(ParseError):
        load_dataset(manifest)


@pytest.mark.parametrize(
    "sessions", [[5], None, "ab", ["x.jsonl", ["y.jsonl"]], "missing"]
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
    session = small_session(with_quat=False)
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
    session = small_session(with_quat=False)
    session.motion_t = np.array([1.0, 3.0])
    session.motion_moving = np.array([1, 0])
    labels, known = motion_labels_at(session, np.array([2.0, 3.0, 0.5, 100.0]))
    np.testing.assert_array_equal(labels, [1, 0, 0, 0])
    np.testing.assert_array_equal(known, [True, True, False, True])
    session.motion_t = np.empty(0)
    session.motion_moving = np.empty(0, dtype=np.int64)
    labels, known = motion_labels_at(session, np.array([1.0]))
    assert labels.tolist() == [0] and known.tolist() == [False]
