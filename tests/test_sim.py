"""Feeding-robot simulator, behavior scripts, oracle labeler, synthesis."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutate_json, same_json

from bitetiming.dataio import derive_time_to_bite, load_dataset, validate_session
from bitetiming.errors import ParseError, ProtocolError, SchemaVersionError
from bitetiming.policy import (
    COMMIT_DISTANCE_M,
    AlwaysFeedPolicy,
    AssertivenessThreshold,
    Command,
    FixedIntervalPolicy,
    MouthOpenPolicy,
    WafflePolicy,
    map_assertiveness,
)
from bitetiming.sim import (
    BehaviorScript,
    BehaviorState,
    OracleLabeler,
    Phase,
    Segment,
    TrajectoryConfig,
    generate_dataset,
    generate_synthetic_session,
    initial_robot_state,
    model_predictor,
    read_session_log,
    run_session,
    sample_behavior_script,
    sample_partner_script,
    sample_style,
    step_robot,
    synthesize_scenario,
    write_session_log,
)

def drive(state, commands):
    bites = []
    for command in commands:
        state, bite = step_robot(state, command)
        if bite is not None:
            bites.append(bite)
    return state, bites


def test_acquire_takes_six_ticks():
    state = initial_robot_state()
    assert state.phase is Phase.ACQUIRING
    state, _ = drive(state, [Command.STOP] * 5)
    assert state.phase is Phase.ACQUIRING
    state, _ = step_robot(state, Command.STOP)
    assert state.phase is Phase.AT_STAGING
    assert state.clock == 3.0
    assert state.staging_arrival_t == 3.0


def test_staging_holds_until_proceed():
    state, _ = drive(initial_robot_state(), [Command.STOP] * 6)
    assert state.phase is Phase.AT_STAGING
    held, _ = drive(state, [Command.STOP] * 10)
    assert held.phase is Phase.AT_STAGING
    assert held.distance_to_mouth == TrajectoryConfig.staging_distance_m


def test_proceed_moves_within_the_same_tick():
    state, _ = drive(initial_robot_state(), [Command.STOP] * 6)
    state, _ = drive(state, [Command.PROCEED])
    assert state.phase is Phase.APPROACHING
    assert state.distance_to_mouth == pytest.approx(0.381 - 0.025)


def test_stop_pauses_an_unlatched_approach():
    state, _ = drive(initial_robot_state(), [Command.STOP] * 6 + [Command.PROCEED])
    d = state.distance_to_mouth
    state, _ = drive(state, [Command.STOP] * 4)
    assert state.phase is Phase.APPROACHING
    assert state.distance_to_mouth == d
    state, _ = drive(state, [Command.PROCEED])
    assert state.distance_to_mouth == pytest.approx(d - 0.025)


def test_trigger_latches_through_stops():
    state, _ = drive(initial_robot_state(), [Command.STOP] * 6)
    state, _ = drive(state, [Command.TRIGGER_FULL_TRAJECTORY])
    d = state.distance_to_mouth
    state, _ = drive(state, [Command.STOP])
    assert state.distance_to_mouth == pytest.approx(d - 0.025)


def test_trigger_is_a_protocol_error_off_staging():
    state = initial_robot_state()
    with pytest.raises(ProtocolError, match="acquiring"):
        step_robot(state, Command.TRIGGER_FULL_TRAJECTORY)
    state, _ = drive(state, [Command.STOP] * 6 + [Command.PROCEED])
    with pytest.raises(ProtocolError, match="approaching"):
        step_robot(state, Command.TRIGGER_FULL_TRAJECTORY)


def test_always_proceed_cycle_closed_form():
    # acquire 3.0 s, approach ceil(0.381/0.025) = 16 ticks = 8.0 s, bite
    # 2.0 s, return 0.5 s: the first cycle ends at 13.0 s, later ones every
    # 13.5 s.
    state = initial_robot_state()
    bites = []
    while state.clock < 30.0:
        state, bite = step_robot(state, Command.PROCEED)
        if bite is not None:
            bites.append(bite)
    assert len(bites) == 2
    first, second = bites
    assert (first.staging_arrival_t, first.feeding_arrival_t, first.bite_complete_t) == (
        3.0,
        11.0,
        13.0,
    )
    assert (second.staging_arrival_t, second.feeding_arrival_t, second.bite_complete_t) == (
        16.5,
        24.5,
        26.5,
    )


def test_random_commands_keep_state_legal():
    allowed_next = {
        Phase.ACQUIRING: {Phase.ACQUIRING, Phase.AT_STAGING},
        Phase.AT_STAGING: {Phase.AT_STAGING, Phase.APPROACHING, Phase.AT_FEEDING},
        Phase.APPROACHING: {Phase.APPROACHING, Phase.AT_FEEDING},
        Phase.AT_FEEDING: {Phase.AT_FEEDING, Phase.RETURNING},
        Phase.RETURNING: {Phase.ACQUIRING},
    }
    rng = np.random.default_rng(7)
    state = initial_robot_state()
    for _ in range(2000):
        command = Command.PROCEED if rng.random() < 0.5 else Command.STOP
        before = state
        state, _ = step_robot(state, command)
        assert state.phase in allowed_next[before.phase]
        assert 0.0 <= state.distance_to_mouth <= TrajectoryConfig.staging_distance_m
        if before.phase is Phase.APPROACHING:
            assert state.distance_to_mouth <= before.distance_to_mouth
        assert state.clock == pytest.approx(before.clock + 0.5)


def seg(start, end, state):
    return Segment(start_t=start, end_t=end, state=state)


def test_behavior_script_validation():
    with pytest.raises(ValueError, match="at least one"):
        BehaviorScript(duration=10.0, segments=())
    with pytest.raises(ValueError, match="contiguous"):
        BehaviorScript(
            duration=10.0,
            segments=(seg(0, 4, BehaviorState.IDLE), seg(5, 10, BehaviorState.IDLE)),
        )
    with pytest.raises(ValueError, match="contiguous"):
        BehaviorScript(duration=5.0, segments=(seg(0, 0, BehaviorState.IDLE),))
    with pytest.raises(ValueError, match="short of duration"):
        BehaviorScript(duration=10.0, segments=(seg(0, 8, BehaviorState.IDLE),))


def test_segment_lookup_and_near_done():
    script = BehaviorScript(
        duration=30.0,
        segments=(
            seg(0, 10, BehaviorState.IDLE),
            seg(10, 20, BehaviorState.CHEWING),
            seg(20, 30, BehaviorState.TALKING),
        ),
    )
    assert script.state_at(0.0) is BehaviorState.IDLE
    assert script.state_at(9.999) is BehaviorState.IDLE
    assert script.state_at(10.0) is BehaviorState.CHEWING
    assert script.state_at(35.0) is BehaviorState.TALKING  # clamped to last
    # Chewing winds down over its last quarter, talking over its last fifth.
    assert not script.near_done_at(17.49)
    assert script.near_done_at(17.5)
    assert not script.near_done_at(27.9)
    assert script.near_done_at(28.0)
    assert not script.near_done_at(5.0)  # idle has no wind-down


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.floats(0.1, 20.0), min_size=1, max_size=30),
    data=st.data(),
)
def test_segment_at_matches_a_linear_scan(lengths, data):
    states = list(BehaviorState)
    segments, start = [], 0.0
    for i, length in enumerate(lengths):
        segments.append(seg(start, start + length, states[i % len(states)]))
        start += length
    script = BehaviorScript(duration=start, segments=tuple(segments))
    boundaries = [s.start_t for s in segments] + [start]
    times = data.draw(
        st.lists(
            st.one_of(st.sampled_from(boundaries), st.floats(-10.0, start + 10.0)),
            min_size=1,
            max_size=20,
        )
    )
    for t in times:
        # The last segment starting at or before t; the first one before 0.
        expected = segments[0]
        for s in segments:
            if s.start_t <= t:
                expected = s
        assert script.segment_at(t) is expected


def test_oracle_individual_rules():
    script = BehaviorScript(
        duration=30.0,
        segments=(
            seg(0, 10, BehaviorState.IDLE),
            seg(10, 20, BehaviorState.CHEWING),
            seg(20, 22, BehaviorState.HEAD_MOTION),
            seg(22, 30, BehaviorState.IDLE),
        ),
    )
    oracle = OracleLabeler("individual", script)
    assert oracle.evaluate(5.0) == ("proceed_not_chewing", Command.PROCEED)
    assert oracle.evaluate(12.0) == ("stop_chewing", Command.STOP)
    assert oracle.evaluate(18.0) == ("proceed_chewing_near_done", Command.PROCEED)
    assert oracle.evaluate(21.0) == ("stop_aversive_motion", Command.STOP)
    assert oracle.command_at(12.0) is Command.STOP


def test_oracle_social_rules():
    script = BehaviorScript(
        duration=30.0,
        segments=(
            seg(0, 10, BehaviorState.IDLE),
            seg(10, 20, BehaviorState.TALKING),
            seg(20, 30, BehaviorState.CHEWING),
        ),
    )
    partner = BehaviorScript(
        duration=30.0,
        segments=(
            seg(0, 5, BehaviorState.IDLE),
            seg(5, 10, BehaviorState.TALKING),
            seg(10, 30, BehaviorState.IDLE),
        ),
    )
    oracle = OracleLabeler("social", script, partner)
    assert oracle.evaluate(12.0) == ("stop_talking", Command.STOP)
    assert oracle.evaluate(18.5) == ("proceed_talking_near_done", Command.PROCEED)
    assert oracle.evaluate(6.0) == ("proceed_partner_talking", Command.PROCEED)
    assert oracle.evaluate(9.5) == ("stop_partner_near_done", Command.STOP)
    assert oracle.evaluate(22.0) == ("stop_chewing", Command.STOP)
    assert oracle.evaluate(28.0) == ("proceed_chewing_near_done", Command.PROCEED)


def test_oracle_partner_speech_outranks_chewing():
    script = BehaviorScript(
        duration=30.0, segments=(seg(0, 30, BehaviorState.CHEWING),)
    )
    partner = BehaviorScript(
        duration=30.0, segments=(seg(0, 30, BehaviorState.TALKING),)
    )
    oracle = OracleLabeler("social", script, partner)
    assert oracle.evaluate(5.0) == ("proceed_partner_talking", Command.PROCEED)
    assert oracle.evaluate(29.0) == ("stop_partner_near_done", Command.STOP)


def test_oracle_validation():
    script = BehaviorScript(duration=30.0, segments=(seg(0, 30, BehaviorState.IDLE),))
    with pytest.raises(ValueError, match="partner"):
        OracleLabeler("social", script)
    with pytest.raises(ValueError, match="scenario"):
        OracleLabeler("group", script)


def test_sample_style_determinism_and_bounds():
    a = sample_style(np.random.default_rng(3))
    b = sample_style(np.random.default_rng(3))
    assert a == b
    for seed in range(30):
        style = sample_style(np.random.default_rng(seed))
        assert 1.0 <= style.chew_rate_hz <= 2.0
        assert style.tempo > 0.0
    mid = sample_style(np.random.default_rng(0), style_spread=0.0)
    assert mid.chew_rate_hz == 1.5
    assert mid.chew_accel_amp == 0.65
    assert mid.tempo == 1.0
    with pytest.raises(ValueError):
        sample_style(np.random.default_rng(0), style_spread=1.5)


def test_sample_behavior_script_shape():
    style = sample_style(np.random.default_rng(1), style_spread=0.0)
    with pytest.raises(ValueError, match="at least 30"):
        sample_behavior_script(np.random.default_rng(0), 20.0, "individual", style)
    for seed in range(10):
        script = sample_behavior_script(
            np.random.default_rng(seed), 90.0, "individual", style
        )
        first = script.segments[0]
        assert first.state is BehaviorState.IDLE
        assert 11.5 <= first.end_t <= 14.0
        assert all(
            s.state is not BehaviorState.TALKING for s in script.segments
        )
        assert script.segments[-1].end_t == pytest.approx(90.0)
    social = sample_behavior_script(
        np.random.default_rng(0), 300.0, "social", style
    )
    assert any(s.state is BehaviorState.TALKING for s in social.segments)


def test_partner_script_alternates():
    style = sample_style(np.random.default_rng(1), style_spread=0.0)
    script = sample_partner_script(np.random.default_rng(5), 60.0, style)
    states = [s.state for s in script.segments]
    assert states[0] is BehaviorState.IDLE
    for a, b in zip(states, states[1:]):
        assert a is not b


@pytest.fixture(scope="module")
def individual_scn():
    return synthesize_scenario("p77", "individual", 120.0, seed=[42])


@pytest.fixture(scope="module")
def social_scn():
    return synthesize_scenario("p78", "social", 90.0, seed=[43])


def test_synthesis_is_deterministic():
    a = generate_synthetic_session("p01", "social", 60.0, seed=[9, 1])
    b = generate_synthetic_session("p01", "social", 60.0, seed=[9, 1])
    np.testing.assert_array_equal(a.imu_t, b.imu_t)
    np.testing.assert_array_equal(a.imu_accel, b.imu_accel)
    np.testing.assert_array_equal(a.mic_amp, b.mic_amp)
    np.testing.assert_array_equal(a.motion_moving, b.motion_moving)
    assert a.bites == b.bites
    c = generate_synthetic_session("p01", "social", 60.0, seed=[9, 2])
    assert not np.array_equal(a.imu_t, c.imu_t)


def test_synthetic_sessions_validate_and_feed(individual_scn, social_scn):
    for scn in (individual_scn, social_scn):
        validate_session(scn.session)
        assert len(scn.session.bites) >= 1
        assert np.max(np.abs(scn.session.mic_amp)) <= 1.0


def test_motion_labels_on_the_control_grid(individual_scn):
    session = individual_scn.session
    n = session.motion_t.size
    np.testing.assert_allclose(session.motion_t, 0.5 * np.arange(n))
    assert n == 240  # one label per control tick over 120 s
    assert set(np.unique(session.motion_moving)) <= {0, 1}


def test_chewing_shakes_harder_than_idle(individual_scn):
    t = individual_scn.session.imu_t
    ay = individual_scn.session.imu_accel[:, 1]
    by_state = {}
    for want in (BehaviorState.CHEWING, BehaviorState.IDLE):
        samples = np.concatenate(
            [
                ay[(t >= s.start_t) & (t < s.end_t)]
                for s in individual_scn.script.segments
                if s.state is want
            ]
        )
        assert samples.size > 500
        by_state[want] = float(np.var(samples))
    assert by_state[BehaviorState.CHEWING] > 3.0 * by_state[BehaviorState.IDLE]


def test_time_to_bite_matches_the_event_log(individual_scn):
    session = individual_scn.session
    arrivals = sorted(b.feeding_arrival_t for b in session.bites)
    ends = np.arange(1.0, 120.0, 0.5)
    expected = []
    for end_t in ends:
        upcoming = [a for a in arrivals if a >= end_t]
        expected.append((min(upcoming) - end_t) if upcoming else np.nan)
    np.testing.assert_array_equal(derive_time_to_bite(session, ends), expected)


def test_motion_labels_replay_the_oracle_loop(social_scn):
    # Re-derive every motion label: a tick is moving only when the robot's
    # distance to the mouth shrank while executing the oracle's command.
    session = social_scn.session
    oracle = social_scn.oracle
    state = initial_robot_state()
    expected = []
    while state.clock + 0.5 <= 90.0 + 1e-9:
        before = state.distance_to_mouth
        state, _ = step_robot(state, oracle.command_at(state.clock))
        expected.append(1 if state.distance_to_mouth < before - 1e-12 else 0)
    np.testing.assert_array_equal(session.motion_moving, np.array(expected))


@pytest.fixture(scope="module")
def long_scn():
    return synthesize_scenario("p80", "individual", 150.0, seed=[500])


def test_always_feed_session_paces_by_geometry(long_scn):
    log = run_session(long_scn.session, AlwaysFeedPolicy())
    assert log.bite_count() == 11
    arrivals = [b.feeding_arrival_t for b in log.bites]
    assert arrivals == [11.0 + 13.5 * k for k in range(11)]
    gaps = np.diff([b.bite_complete_t for b in log.bites])
    np.testing.assert_allclose(gaps, 13.5)


def test_fixed_interval_session_triggers_on_schedule(long_scn):
    log = run_session(long_scn.session, FixedIntervalPolicy())
    triggers = [t.t for t in log.ticks if t.command is Command.TRIGGER_FULL_TRAJECTORY]
    assert triggers == [45.0, 90.0, 135.0]
    assert log.bite_count() == 3
    assert all(t.command is not Command.PROCEED for t in log.ticks)


def test_mouth_open_session_triggers_at_staging_only(long_scn):
    log = run_session(long_scn.session, MouthOpenPolicy(), oracle=long_scn.oracle)
    assert log.bite_count() > 0
    for tick in log.ticks:
        assert tick.command is not Command.PROCEED
        if tick.command is Command.TRIGGER_FULL_TRAJECTORY:
            assert tick.phase is Phase.AT_STAGING


def test_run_session_input_validation(long_scn):
    with pytest.raises(ValueError, match="predictor"):
        run_session(long_scn.session, WafflePolicy(AssertivenessThreshold(6.0)))
    with pytest.raises(ValueError, match="oracle"):
        run_session(long_scn.session, MouthOpenPolicy())


def test_waffle_session_gaps_fail_safe(long_scn):
    log = run_session(
        long_scn.session,
        WafflePolicy(AssertivenessThreshold(8.0)),
        predictor=lambda row, t: 0.0,
    )
    first = log.ticks[0]
    assert first.t == 0.0
    assert first.gap
    assert first.y_hat is None
    assert first.command is Command.STOP
    covered = [t for t in log.ticks if not t.gap]
    assert covered and all(t.y_hat is not None for t in covered)


def test_waffle_session_rethresholds_every_cycle(long_scn):
    # A predictor that turns hostile after the first bite must end the
    # feeding: the commit latch may finish the current trajectory but must
    # not start the next one.
    log = run_session(
        long_scn.session,
        WafflePolicy(AssertivenessThreshold(6.0)),
        predictor=lambda row, t: 0.0 if t < 20.0 else 100.0,
    )
    assert log.bite_count() == 1
    last_commit = max(
        t.t for t in log.ticks if t.distance_to_mouth <= COMMIT_DISTANCE_M
    )
    assert all(
        t.command is Command.STOP for t in log.ticks if t.t > max(20.0, last_commit)
    )


def test_waffle_commit_zone_never_stops_mid_trajectory(long_scn):
    log = run_session(
        long_scn.session,
        WafflePolicy(map_assertiveness(5)),
        predictor=lambda row, t: 4.0 + (t % 7.0),
    )
    assert log.bite_count() >= 1
    pending = False
    for tick in log.ticks:
        if tick.phase is Phase.RETURNING:
            pending = False
        if tick.distance_to_mouth <= COMMIT_DISTANCE_M and tick.phase in (
            Phase.APPROACHING,
            Phase.AT_FEEDING,
        ):
            pending = True
        assert not (pending and tick.command is Command.STOP)


def test_waffle_with_oracle_consistent_model_respects_talking():
    scn = synthesize_scenario("p81", "social", 150.0, seed=[77, 1])
    oracle, script = scn.oracle, scn.script

    def predictor(row, t):
        return 0.0 if oracle.command_at(t) is Command.PROCEED else 100.0

    log = run_session(
        scn.session, WafflePolicy(AssertivenessThreshold(6.0)), predictor=predictor
    )
    for tick in log.ticks:
        inside_talking = (
            script.state_at(tick.t) is BehaviorState.TALKING
            and not script.near_done_at(tick.t)
        )
        if inside_talking and tick.distance_to_mouth > COMMIT_DISTANCE_M:
            assert tick.command is not Command.PROCEED


def test_session_log_round_trip(long_scn, tmp_path):
    log = run_session(long_scn.session, FixedIntervalPolicy())
    path = tmp_path / "run.jsonl"
    write_session_log(log, path)
    again = read_session_log(path)
    assert again.policy_name == log.policy_name
    assert again.participant_id == log.participant_id
    assert again.scenario == log.scenario
    assert again.duration == log.duration
    assert again.bites == log.bites
    assert again.ticks == log.ticks
    path2 = tmp_path / "run2.jsonl"
    write_session_log(run_session(long_scn.session, FixedIntervalPolicy()), path2)
    assert path.read_bytes() == path2.read_bytes()


def test_session_log_read_errors(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ParseError):
        read_session_log(empty)
    bad_schema = tmp_path / "bad.jsonl"
    bad_schema.write_text('{"schema":"waffle-log/9"}\n')
    with pytest.raises(SchemaVersionError):
        read_session_log(bad_schema)
    bad_track = tmp_path / "track.jsonl"
    bad_track.write_text(
        '{"schema":"waffle-log/1","participant":"p","scenario":"individual",'
        '"policy":"always-feed","duration":1.0}\n{"track":"gaze"}\n'
    )
    with pytest.raises(ParseError, match="gaze"):
        read_session_log(bad_track)
    header = (
        '{"schema":"waffle-log/1","participant":"p","scenario":"individual",'
        '"policy":"always-feed","duration":1.0}\n'
    )
    tick = (
        '{"track":"policy","t":0.0,"command":"proceed","y_hat":null,'
        '"distance":0.381,"phase":"at_staging"}\n'
    )
    cases = [
        (header + "{not json}\n", ":2: invalid JSON"),
        (header.replace('"policy":"always-feed",', ""), ":1: .*'policy'"),
        (header + tick.replace('"command":"proceed",', ""), ":2: .*'command'"),
        (header + tick.replace('"proceed"', '"hover"'), ":2: unknown command 'hover'"),
        (header + tick.replace('"at_staging"', '"orbit"'), ":2: unknown phase 'orbit'"),
        (header + tick.replace('"t":0.0', '"t":"0"'), ":2: .*'t' is not a number"),
        (header + '{"track":"bite","staging_arrival_t":0.5}\n', ":2: .*'feeding"),
    ]
    for i, (text, message) in enumerate(cases):
        path = tmp_path / f"case{i}.jsonl"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"{path}{message}"):
            read_session_log(path)
    # The well-formed tick line itself loads.
    ok = tmp_path / "ok.jsonl"
    ok.write_text(header + tick)
    assert read_session_log(ok).ticks[0].phase is Phase.AT_STAGING


LOG_HEADER = {
    "schema": "waffle-log/1",
    "participant": "p",
    "scenario": "individual",
    "policy": "always-feed",
    "duration": 1.0,
}
LOG_TICK = {
    "track": "policy",
    "t": 0.0,
    "command": "proceed",
    "y_hat": None,
    "distance": 0.381,
    "phase": "at_staging",
    "gap": False,
}


@pytest.mark.parametrize(
    "index, field, value, kind",
    [
        (0, "participant", {"a": 1}, "a string"),
        (0, "scenario", 3, "a string"),
        (0, "policy", None, "a string"),
        (1, "gap", "yes", "a boolean"),
        (1, "gap", 1, "a boolean"),
    ],
)
def test_session_log_names_the_line_of_a_wrongly_typed_field(
    tmp_path, index, field, value, kind
):
    records = [dict(LOG_HEADER), dict(LOG_TICK)]
    records[index][field] = value
    path = tmp_path / "log.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    message = f"{path}:{index + 1}: .*'{field}' is not {kind}"
    with pytest.raises(ParseError, match=message):
        read_session_log(path)


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory, long_scn):
    # A waffle log: ticks with and without a prediction, gaps and bites.
    path = tmp_path_factory.mktemp("log")
    policy = WafflePolicy(AssertivenessThreshold(6.0))
    log = run_session(long_scn.session, policy, predictor=lambda row, t: t % 9.0)
    assert log.bites and any(tick.gap for tick in log.ticks)
    write_session_log(log, path / "base.jsonl")
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_session_log_mutations_load_or_name_the_file(log_dir, data):
    # Delete or replace one value of one line. The loader either returns a
    # log that writes back to the mutated lines, or raises a package
    # ValueError naming the file. A tick's own "policy" field is not read
    # (the header's is written back), and a tick without "gap" reads false.
    lines = (log_dir / "base.jsonl").read_text().splitlines()
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    records = [json.loads(line) for line in lines]
    mutate_json(data, records[index])
    path = log_dir / "mutated.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    try:
        log = read_session_log(path)
    except ValueError as e:
        assert type(e).__module__ == "bitetiming.errors"
        assert str(path) in str(e)
    else:
        for rec in records[1:]:
            if rec["track"] == "policy":
                rec.update(policy=records[0]["policy"], gap=rec.get("gap", False))
        write_session_log(log, log_dir / "rewritten.jsonl")
        rewritten = (log_dir / "rewritten.jsonl").read_text().splitlines()
        assert same_json([json.loads(line) for line in rewritten], records)
        for tick in log.ticks:
            assert type(tick.t) in (int, float) and type(tick.gap) is bool


def test_generate_dataset_layout(tmp_path):
    import json

    manifest = generate_dataset(tmp_path / "data", 2, 40.0, seed=5)
    assert manifest.name == "manifest.json"
    doc = json.loads(manifest.read_text())
    assert doc["schema"] == "waffle-manifest/1"
    assert sorted(doc["sessions"]) == [
        "p01_individual.jsonl",
        "p01_social.jsonl",
        "p02_individual.jsonl",
        "p02_social.jsonl",
    ]
    sessions = load_dataset(manifest)
    assert [(s.participant_id, s.scenario) for s in sessions] == [
        ("p01", "individual"),
        ("p01", "social"),
        ("p02", "individual"),
        ("p02", "social"),
    ]
    assert all(len(s.bites) >= 1 for s in sessions)


def test_model_predictor_adapter(tmp_path):
    from conftest import make_window, window_features, window_table
    from bitetiming.mlp import TrainConfig, predict, train

    rng = np.random.default_rng(14)
    rows = window_table(rng.normal(0.0, 1.0, (16, 48)), rng.uniform(1, 9, 16))
    model, _ = train(rows, TrainConfig(epochs=1, batch_size=8))
    fn = model_predictor(model)
    row = window_features(*make_window(rng))
    assert fn(row, 3.0) == float(predict(model, row))
