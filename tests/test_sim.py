"""Feeding-robot simulator, behavior scripts, oracle labeler, synthesis."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import JSON_LIMITS, JUNK, mutate_json, same_json, time_limit

from bitetiming.dataio import (
    SCENARIOS,
    BiteEvent,
    SessionLog,
    TickLog,
    _encode,
    derive_time_to_bite,
    load_dataset,
    read_session,
    read_session_log,
    validate_session,
    write_session,
    write_session_log,
)
from bitetiming.errors import (
    InsufficientDataError,
    ParseError,
    ProtocolError,
    SchemaVersionError,
    TrackValidationError,
)
from bitetiming.policy import (
    COMMIT_DISTANCE_M,
    POLICY_NAMES,
    AlwaysFeedPolicy,
    Command,
    FixedIntervalPolicy,
    MouthOpenPolicy,
    Phase,
    WafflePolicy,
    map_assertiveness,
)
from bitetiming.pipeline import session_features
import bitetiming.sim as sim
from bitetiming.sim import (
    ANTICIPATION_RAMP_S,
    GRAVITY_MPS2,
    BehaviorScript,
    BehaviorState,
    OracleLabeler,
    ParticipantStyle,
    Segment,
    TrajectoryConfig,
    generate_dataset,
    initial_robot_state,
    model_predictor,
    run_session,
    sample_behavior_script,
    sample_partner_script,
    sample_style,
    step_robot,
    synthesize_scenario,
    _synth_imu,
    _synth_mic,
    _taper,
)

# Every style parameter at the middle of its sampled range.
MID_STYLE = ParticipantStyle(
    chew_rate_hz=1.5,
    chew_accel_amp=0.65,
    chew_mic_amp=0.22,
    talk_mic_amp=0.34,
    head_motion_amp=1.6,
    anticipation_amp=0.4,
    idle_accel_sigma=0.025,
    idle_mic_sigma=0.008,
    tempo=1.0,
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
    assert script.segment_at(0.0).state is BehaviorState.IDLE
    assert script.segment_at(9.999).state is BehaviorState.IDLE
    assert script.segment_at(10.0).state is BehaviorState.CHEWING
    assert script.segment_at(35.0).state is BehaviorState.TALKING  # clamped to last
    # Chewing winds down over its last quarter, talking over its last fifth,
    # idle not at all.
    for t, near_done in [(17.49, False), (17.5, True), (27.9, False), (28.0, True), (5.0, False)]:
        assert script.segment_at(t).near_done(t) is near_done


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


def masked_synth_imu(rng, t, script, style):
    """_synth_imu as it was before segments became slices: one boolean mask
    per segment over the whole track. Kept as the reference."""
    n = t.size
    ax = rng.normal(0.0, style.idle_accel_sigma, n)
    ay = rng.normal(0.0, style.idle_accel_sigma, n)
    az = GRAVITY_MPS2 + rng.normal(0.0, style.idle_accel_sigma, n)
    for seg in script.segments:
        mask = (t >= seg.start_t) & (t < seg.end_t)
        count = int(mask.sum())
        rel = t[mask] - seg.start_t
        if seg.state is BehaviorState.IDLE:
            lean = np.minimum(rel / ANTICIPATION_RAMP_S, 1.0)
            ax[mask] += style.anticipation_amp * lean
        elif seg.state is BehaviorState.CHEWING:
            phase = rng.uniform(0.0, 2.0 * np.pi)
            taper = _taper(t[mask], seg, floor=0.25)
            osc = 2.0 * np.pi * style.chew_rate_hz * rel + phase
            ay[mask] += style.chew_accel_amp * np.sin(osc) * taper
            az[mask] += 0.6 * style.chew_accel_amp * np.sin(osc + 1.1) * taper
        elif seg.state is BehaviorState.HEAD_MOTION:
            f1, f2 = rng.uniform(0.3, 0.9, 2)
            p1, p2 = rng.uniform(0.0, 2.0 * np.pi, 2)
            ax[mask] += style.head_motion_amp * np.sin(2 * np.pi * f1 * rel + p1)
            ay[mask] += 0.8 * style.head_motion_amp * np.sin(2 * np.pi * f2 * rel + p2)
            ax[mask] += rng.normal(0.0, style.idle_accel_sigma * 3.0, count)
        elif seg.state is BehaviorState.TALKING:
            ay[mask] += rng.normal(0.0, style.idle_accel_sigma * 0.5, count)
    return np.stack([ax, ay, az], axis=1)


def masked_synth_mic(rng, t, script, style):
    """_synth_mic as it was before segments became slices (the reference)."""
    amp = rng.normal(0.0, style.idle_mic_sigma, t.size)
    for seg in script.segments:
        mask = (t >= seg.start_t) & (t < seg.end_t)
        count = int(mask.sum())
        rel = t[mask] - seg.start_t
        if seg.state is BehaviorState.CHEWING:
            phase = rng.uniform(0.0, 2.0 * np.pi)
            taper = _taper(t[mask], seg, floor=0.25)
            env = np.maximum(
                np.sin(2.0 * np.pi * style.chew_rate_hz * rel + phase), 0.0
            ) ** 4
            amp[mask] += style.chew_mic_amp * env * rng.normal(0.0, 1.0, count) * taper
        elif seg.state is BehaviorState.TALKING:
            phase = rng.uniform(0.0, 2.0 * np.pi)
            taper = _taper(t[mask], seg, floor=0.3, span=0.5)
            syllabic = 0.55 + 0.45 * np.sin(2.0 * np.pi * 3.1 * rel + phase)
            amp[mask] += (
                style.talk_mic_amp * syllabic * rng.normal(0.0, 1.0, count) * taper
            )
    return np.clip(amp, -1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    lengths=st.lists(st.floats(0.001, 3.0), min_size=1, max_size=12),
    data=st.data(),
)
def test_synth_tracks_match_the_masked_reference(lengths, data):
    # Sample times land exactly on segment starts and ends, before the
    # first segment, past the last one's end, and sparsely enough to leave
    # segments without samples.
    segments, start = [], 0.0
    for length in lengths:
        state = data.draw(st.sampled_from(list(BehaviorState)))
        segments.append(seg(start, start + length, state))
        start += length
    script = BehaviorScript(duration=start, segments=tuple(segments))
    boundaries = [s.start_t for s in segments] + [start]
    t = np.unique(
        data.draw(
            st.lists(
                st.one_of(st.sampled_from(boundaries), st.floats(-1.0, start + 2.0)),
                max_size=80,
            )
        )
    ).astype(np.float64)
    style = sample_style(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    seed = data.draw(st.integers(0, 2**32 - 1))
    for synth, reference in ((_synth_imu, masked_synth_imu), (_synth_mic, masked_synth_mic)):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = synth(rng, t, script, style), reference(ref_rng, t, script, style)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # The same number of draws: every later track would shift otherwise.
        assert rng.bit_generator.state == ref_rng.bit_generator.state


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
    oracle = OracleLabeler(script)
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
    oracle = OracleLabeler(script, partner)
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
    oracle = OracleLabeler(script, partner)
    assert oracle.evaluate(5.0) == ("proceed_partner_talking", Command.PROCEED)
    assert oracle.evaluate(29.0) == ("stop_partner_near_done", Command.STOP)


def test_unknown_scenario_is_refused_before_any_synthesis(monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("sensor tracks were synthesized for an unknown scenario")

    monkeypatch.setattr(sim, "_irregular_timestamps", unexpected)
    with pytest.raises(ValueError, match="unknown scenario 'Social'"):
        synthesize_scenario("p", "Social", 600.0, seed=1)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="unknown scenario 'group'"):
        sample_behavior_script(rng, 60.0, "group", sample_style(rng))


def test_sample_style_determinism_and_bounds():
    a = sample_style(np.random.default_rng(3))
    b = sample_style(np.random.default_rng(3))
    assert a == b
    for seed in range(30):
        style = sample_style(np.random.default_rng(seed))
        assert 1.0 <= style.chew_rate_hz <= 2.0
        assert style.tempo > 0.0
    for rate in (0.5, 2.5):
        with pytest.raises(ValueError, match=re.escape("chew_rate_hz must lie in [1, 2]")):
            dataclasses.replace(a, chew_rate_hz=rate)


def test_sample_behavior_script_shape():
    with pytest.raises(ValueError, match="at least 30"):
        sample_behavior_script(np.random.default_rng(0), 20.0, "individual", MID_STYLE)
    for seed in range(10):
        script = sample_behavior_script(
            np.random.default_rng(seed), 90.0, "individual", MID_STYLE
        )
        first = script.segments[0]
        assert first.state is BehaviorState.IDLE
        assert 11.5 <= first.end_t <= 14.0
        assert all(
            s.state is not BehaviorState.TALKING for s in script.segments
        )
        assert script.segments[-1].end_t == pytest.approx(90.0)
    social = sample_behavior_script(
        np.random.default_rng(0), 300.0, "social", MID_STYLE
    )
    assert any(s.state is BehaviorState.TALKING for s in social.segments)


@pytest.mark.parametrize("duration", [float("inf"), float("nan")])
def test_sample_behavior_script_rejects_non_finite_durations(duration):
    with time_limit(2.0), pytest.raises(ValueError, match="at least 30 s, got"):
        sample_behavior_script(np.random.default_rng(0), duration, "individual", MID_STYLE)


def test_partner_script_alternates():
    script = sample_partner_script(np.random.default_rng(5), 60.0, MID_STYLE)
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
    a = synthesize_scenario("p01", "social", 60.0, seed=[9, 1]).session
    b = synthesize_scenario("p01", "social", 60.0, seed=[9, 1]).session
    np.testing.assert_array_equal(a.imu_t, b.imu_t)
    np.testing.assert_array_equal(a.imu_accel, b.imu_accel)
    np.testing.assert_array_equal(a.mic_amp, b.mic_amp)
    np.testing.assert_array_equal(a.motion_moving, b.motion_moving)
    assert a.bites == b.bites
    c = synthesize_scenario("p01", "social", 60.0, seed=[9, 2]).session
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
                for s in individual_scn.oracle.script.segments
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


def replayed_final_state(log):
    """The robot's state after a log's ticks, by stepping its commands."""
    state = initial_robot_state()
    for tick in log.ticks:
        assert tick.distance_to_mouth == state.distance_to_mouth
        state, _ = step_robot(state, tick.command)
    return state


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scenario=st.sampled_from(("individual", "social")),
    ticks=st.integers(60, 240),
)
def test_replaying_the_oracle_reproduces_the_synthesized_labels(seed, scenario, ticks):
    # Synthesis runs the oracle through run_session's own loop, so replaying
    # the session against its oracle gives back its ticks, bites and labels.
    scn = synthesize_scenario("p90", scenario, ticks * 0.5, seed=[seed])
    session = scn.session
    log = run_session(session, scn.oracle)
    assert len(log.ticks) == len(session.motion_t)
    assert log.bites == session.bites
    advanced = sim._advanced(log, replayed_final_state(log))
    np.testing.assert_array_equal(advanced, session.motion_moving)


def test_replay_of_an_off_grid_duration_runs_one_tick_longer():
    # Synthesis stops at its duration argument, replay where the sensor tracks
    # end, just past it; off the 0.5 s grid that can fit one more tick.
    scn = synthesize_scenario("p91", "individual", 30.499, seed=[0])
    log = run_session(scn.session, scn.oracle)
    assert (len(scn.session.motion_t), len(log.ticks)) == (60, 61)
    assert [tick.t for tick in log.ticks[:60]] == scn.session.motion_t.tolist()


@pytest.fixture(scope="module")
def long_scn():
    return synthesize_scenario("p80", "individual", 150.0, seed=[500])


def test_always_feed_session_paces_by_geometry(long_scn):
    log = run_session(long_scn.session, AlwaysFeedPolicy())
    assert len(log.bites) == 11
    arrivals = [b.feeding_arrival_t for b in log.bites]
    assert arrivals == [11.0 + 13.5 * k for k in range(11)]
    gaps = np.diff([b.bite_complete_t for b in log.bites])
    np.testing.assert_allclose(gaps, 13.5)


def test_fixed_interval_session_triggers_on_schedule(long_scn):
    log = run_session(long_scn.session, FixedIntervalPolicy())
    triggers = [t.t for t in log.ticks if t.command is Command.TRIGGER_FULL_TRAJECTORY]
    assert triggers == [45.0, 90.0, 135.0]
    assert len(log.bites) == 3
    assert all(t.command is not Command.PROCEED for t in log.ticks)


def test_mouth_open_session_triggers_at_staging_only(long_scn):
    log = run_session(long_scn.session, MouthOpenPolicy(), oracle=long_scn.oracle)
    assert len(log.bites) > 0
    for tick in log.ticks:
        assert tick.command is not Command.PROCEED
        if tick.command is Command.TRIGGER_FULL_TRAJECTORY:
            assert tick.phase is Phase.AT_STAGING


def test_run_session_input_validation(long_scn, tmp_path):
    with pytest.raises(ValueError, match="predictor"):
        run_session(long_scn.session, WafflePolicy(6.0))
    with pytest.raises(ValueError, match="oracle"):
        run_session(long_scn.session, MouthOpenPolicy())
    # A session file whose track holds no samples.
    path = tmp_path / "s.jsonl"
    for track in ("imu", "mic"):
        empty = {"imu_t": np.empty(0), "imu_accel": np.empty((0, 3))} if track == "imu" else {"mic_t": np.empty(0), "mic_amp": np.empty(0)}
        write_session(dataclasses.replace(long_scn.session, **empty), path)
        with pytest.raises(InsufficientDataError, match=f"^cannot replay a session whose {track} track is empty$"):
            run_session(read_session(path), AlwaysFeedPolicy())


def test_waffle_session_gaps_fail_safe(long_scn):
    log = run_session(
        long_scn.session,
        WafflePolicy(8.0),
        predictor=lambda row, t: 0.0,
    )
    first = log.ticks[0]
    assert first.t == 0.0
    assert first.y_hat is None
    assert first.command is Command.STOP
    assert any(t.y_hat is not None for t in log.ticks)


def gap_ticks(log):
    return [tick.t for tick in log.ticks if tick.y_hat is None]


def test_any_policy_run_with_a_predictor_logs_its_gaps(long_scn):
    # The first window ends at 1 s: the two ticks before it are gaps.
    log = run_session(long_scn.session, AlwaysFeedPolicy(), predictor=lambda row, t: 0.0)
    assert gap_ticks(log) == [0.0, 0.5]


def shifted(session, dt):
    """``session`` with every track and bite ``dt`` seconds later."""
    return dataclasses.replace(
        session,
        imu_t=session.imu_t + dt,
        mic_t=session.mic_t + dt,
        motion_t=session.motion_t + dt,
        bites=[BiteEvent(*(t + dt for t in dataclasses.astuple(b))) for b in session.bites],
    )


def test_a_session_off_the_tick_grid_has_gaps_only_before_its_first_window(long_scn):
    # Windows ending halfway between two ticks go to the later one, so each
    # tick from the first window's on reads the window that ended a quarter
    # second before it.
    session = shifted(long_scn.session, 0.25)
    end_t, features = session_features(session)
    log = run_session(session, AlwaysFeedPolicy(), predictor=lambda row, t: row[0])
    assert end_t[0] == 1.25 and gap_ticks(log) == [0.0, 0.5, 1.0]
    assert [tick.y_hat for tick in log.ticks[3:]] == features[: len(log.ticks) - 3, 0].tolist()


def test_only_the_mouth_open_policy_reads_the_oracle(long_scn, tmp_path):
    logs = [
        run_session(long_scn.session, WafflePolicy(6.0), predictor=lambda row, t: t % 9.0, oracle=oracle)
        for oracle in (None, long_scn.oracle)
    ]
    for log, name in zip(logs, ("without", "with")):
        write_session_log(log, tmp_path / f"{name}.jsonl")
    assert (tmp_path / "without.jsonl").read_bytes() == (tmp_path / "with.jsonl").read_bytes()


def test_waffle_session_rethresholds_every_cycle(long_scn):
    # A predictor that turns hostile after the first bite must end the
    # feeding: the commit latch may finish the current trajectory but must
    # not start the next one.
    log = run_session(
        long_scn.session,
        WafflePolicy(6.0),
        predictor=lambda row, t: 0.0 if t < 20.0 else 100.0,
    )
    assert len(log.bites) == 1
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
    assert len(log.bites) >= 1
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
    oracle, script = scn.oracle, scn.oracle.script

    def predictor(row, t):
        return 0.0 if oracle.command_at(t) is Command.PROCEED else 100.0

    log = run_session(
        scn.session, WafflePolicy(6.0), predictor=predictor
    )
    for tick in log.ticks:
        segment = script.segment_at(tick.t)
        inside_talking = (
            segment.state is BehaviorState.TALKING and not segment.near_done(tick.t)
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


def test_session_log_names_the_line_of_a_byte_that_is_not_utf8(long_scn, tmp_path):
    path = tmp_path / "log.jsonl"
    write_session_log(run_session(long_scn.session, FixedIntervalPolicy()), path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[4] = lines[4].replace(b'"policy"', b'"pol\xc3icy"', 1)
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError, match=f"^{path}:5: not UTF-8 text"):
        read_session_log(path)


@pytest.mark.parametrize("value, message", JSON_LIMITS)
def test_session_log_names_the_line_of_a_huge_integer_or_deep_nesting(tmp_path, value, message):
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps(LOG_HEADER) + "\n" + f'{{"track":"policy","t":{value}}}\n')
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: invalid JSON: {message}$"):
        read_session_log(path)


def test_session_log_read_errors(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ParseError):
        read_session_log(empty)
    bad_schema = tmp_path / "bad.jsonl"
    for schema in ("waffle-log/9", "waffle-log/1"):
        bad_schema.write_text(f'{{"schema":"{schema}"}}\n')
        with pytest.raises(SchemaVersionError):
            read_session_log(bad_schema)
    bad_track = tmp_path / "track.jsonl"
    bad_track.write_text(
        '{"schema":"waffle-log/2","participant":"p","scenario":"individual",'
        '"policy":"always-feed","duration":1.0}\n{"track":"gaze"}\n'
    )
    with pytest.raises(ParseError, match="gaze"):
        read_session_log(bad_track)
    header = (
        '{"schema":"waffle-log/2","participant":"p","scenario":"individual",'
        '"policy":"always-feed","duration":1.0}\n'
    )
    tick = (
        '{"track":"policy","t":0.0,"command":"proceed","y_hat":null,'
        '"distance":0.381,"phase":"at_staging"}\n'
    )
    cases = [
        (header + "{not json}\n", ":2: invalid JSON"),
        (header.replace('"policy":"always-feed",', ""), ":1: .*'policy'"),
        (header.replace('"schema":"waffle-log/2",', ""), ":1: header is missing the 'schema' field$"),
        (header + tick.replace('"command":"proceed",', ""), ":2: .*'command'"),
        (header + tick.replace('"proceed"', '"hover"'), ":2: unknown command 'hover'"),
        (header + tick.replace('"at_staging"', '"orbit"'), ":2: unknown phase 'orbit'"),
        (header + tick.replace('"t":0.0', '"t":"0"'), ":2: .*'t' is not a number"),
        (header + '{"track":"bite","staging_arrival_t":0.5}\n', ":2: .*'feeding"),
        (header + tick.replace('"t":0.0', '"t":NaN'), ":2: 'policy' field 't' is not finite: nan$"),
        (header + tick.replace('"distance":0.381', '"distance":Infinity'), ":2: .*'distance' is not finite"),
        (header.replace('"duration":1.0', '"duration":NaN'), ":1: 'header' field 'duration' is not finite"),
        (header.replace('"individual"', '"group"'), ":1: unknown scenario 'group', expected one of"),
        (header.replace('"always-feed"', '"nobody"'), ":1: unknown policy 'nobody', expected one of"),
        (header.replace('"duration":1.0', '"duration":-5.0'), ":1: 'header' field 'duration' is not positive: -5.0$"),
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
    "schema": "waffle-log/2",
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
}


@pytest.mark.parametrize(
    "index, field, value, kind",
    [
        (0, "participant", {"a": 1}, "a string"),
        (0, "scenario", 3, "a string"),
        (0, "policy", None, "a string"),
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


def test_session_log_names_the_line_of_a_bite_too_large_for_a_float(tmp_path):
    bite = {"track": "bite", "staging_arrival_t": 0.5, "feeding_arrival_t": 10**399, "bite_complete_t": 10**400}
    path = tmp_path / "log.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in (LOG_HEADER, LOG_TICK, bite)))
    message = f"{path}:3: 'bite' field 'feeding_arrival_t' does not fit a float"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        read_session_log(path)


LOG_BITE = {"track": "bite", "staging_arrival_t": 0.5, "feeding_arrival_t": 1.0, "bite_complete_t": 1.5}


@pytest.mark.parametrize(
    "records, lineno, message",
    [
        (
            [LOG_BITE | {"bite_complete_t": float("inf")}],  # written as Infinity
            2,
            "bite timestamps must be finite and strictly ordered, got (0.5, 1.0, inf)",
        ),
        # A repeated bite line, and two tick lines swapped.
        ([LOG_BITE, LOG_TICK, LOG_BITE], 4, "bite 1 starts staging at 0.5 before bite 0 completes at 1.5"),
        (
            [LOG_TICK | {"t": 0.5}, LOG_BITE, LOG_TICK],
            4,
            "policy timestamps must be strictly increasing, got t=0.0 after t=0.5",
        ),
        ([LOG_TICK, LOG_TICK], 3, "policy timestamps must be strictly increasing, got t=0.0 after t=0.0"),
        ([LOG_TICK | {"t": -0.5}], 2, "policy tick at t=-0.5 is outside [0, 1.0)"),
        ([LOG_TICK, LOG_TICK | {"t": 1.0}], 3, "policy tick at t=1.0 is outside [0, 1.0)"),
        ([LOG_TICK | {"distance": -3.0}], 2, "policy distance at t=0.0 is -3.0, below 0"),
    ],
    ids=[
        "infinite-bite", "overlapping-bites", "tick-back-in-time", "repeated-tick",
        "tick-before-the-start", "tick-at-the-end", "negative-distance",
    ],
)
def test_session_log_names_the_line_of_a_bite_or_tick_out_of_order(tmp_path, records, lineno, message):
    path = tmp_path / "log.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in (LOG_HEADER, *records)))
    with pytest.raises(TrackValidationError, match=f"^{re.escape(f'{path}:{lineno}: {message}')}$"):
        read_session_log(path)


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory, long_scn):
    # A waffle log: ticks with and without a prediction, and bites.
    path = tmp_path_factory.mktemp("log")
    policy = WafflePolicy(6.0)
    log = run_session(long_scn.session, policy, predictor=lambda row, t: t % 9.0)
    assert log.bites and gap_ticks(log)
    write_session_log(log, path / "base.jsonl")
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_session_log_mutations_load_or_name_the_file(log_dir, data):
    # Delete or replace one value of one line. The loader either returns a
    # log that writes back to the mutated lines, or raises a package
    # ValueError naming the file.
    lines = (log_dir / "base.jsonl").read_text().splitlines()
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    records = [json.loads(line) for line in lines]
    # Besides JUNK, a time or distance past every tick and below 0.
    mutate_json(data, records[index], JUNK + (1e9, -0.5))
    path = log_dir / "mutated.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    try:
        log = read_session_log(path)
    except ValueError as e:
        assert type(e).__module__ == "bitetiming.errors"
        assert str(path) in str(e)
    else:
        write_session_log(log, log_dir / "rewritten.jsonl")
        rewritten = (log_dir / "rewritten.jsonl").read_text().splitlines()
        assert same_json([json.loads(line) for line in rewritten], records)
        for tick in log.ticks:
            assert type(tick.t) in (int, float)


# Values the format refuses where a log holds a number (NaN, infinity, an
# int too large for a float, a bool, a numpy scalar), and 0 and -1, which are
# not durations.
ODD_NUMBERS = st.sampled_from([float("nan"), float("inf"), 10**400, True, np.float64(1.0), 0, -1])


@st.composite
def drawn_logs(draw):
    """Session logs: many valid, the rest off by a value, an order or a range."""

    def maybe_odd(value):
        return draw(ODD_NUMBERS) if draw(st.integers(0, 9)) == 0 else value

    times = sorted(draw(st.lists(st.floats(0, 100), max_size=9, unique=True)))
    bites = [BiteEvent(*times[i : i + 3]) for i in range(0, len(times) - 2, 3)]
    if draw(st.booleans()):
        bites.reverse()  # two bites or more then overlap
    t = draw(st.integers(0, 1) | st.floats(0, 1))
    ticks = []
    for _ in range(draw(st.integers(0, 6))):
        distance = draw(st.integers(0, 10) | st.floats(0, 1e6))
        y_hat = draw(st.none() | st.floats(allow_nan=False))
        ticks.append(
            TickLog(maybe_odd(t), draw(st.sampled_from(Command)), maybe_odd(distance), draw(st.sampled_from(Phase)), y_hat)
        )
        t += draw(st.floats(0.01, 2))
    return SessionLog(
        policy_name=draw(st.sampled_from([*POLICY_NAMES, "oracle", "nobody"])),
        participant_id=draw(st.text()),
        scenario=draw(st.sampled_from([*SCENARIOS, "group"])),
        duration=maybe_odd(draw(st.floats(0.5, 20))),
        ticks=ticks,
        bites=bites,
    )


@settings(max_examples=300, deadline=None)
@given(log=drawn_logs())
def test_the_log_writer_writes_only_what_reads_back(tmp_path_factory, log):
    # Either the writer refuses the log with a package error and writes no
    # file, or the file reads back as the log, each number with its type.
    path = tmp_path_factory.getbasetemp() / "drawn.jsonl"
    path.unlink(missing_ok=True)
    try:
        write_session_log(log, path)
    except ValueError as e:
        assert type(e).__module__ == "bitetiming.errors"
        assert not path.exists()
    else:
        again = read_session_log(path)
        assert again == log
        types = [[(type(k.t), type(k.distance_to_mouth)) for k in x.ticks] for x in (again, log)]
        assert types[0] == types[1]


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


def test_session_log_tick_lines_are_the_json_of_each_tick(tmp_path):
    # An integer t only comes from a file, so read one back first.
    source = tmp_path / "int.jsonl"
    source.write_text(json.dumps(LOG_HEADER | {"duration": 10.0}) + "\n" + json.dumps(LOG_TICK | {"t": 3}) + "\n")
    log = read_session_log(source)
    assert type(log.ticks[0].t) is int
    cases = [(0.1 + 0.2, None), (1e16, 1.25), (5e-324, float("nan")), (1e-7, float("inf")), (123.5, float("-inf")), (7.0, -0.0)]
    for k, (distance, y_hat) in enumerate(cases, 1):
        log.ticks.append(TickLog(3 + k / 2, Command.STOP, distance, Phase.APPROACHING, y_hat))
    path = tmp_path / "log.jsonl"
    write_session_log(log, path)
    # The reference: the record each tick line was once encoded from.
    expected = [
        _encode({
            "track": "policy",
            "t": tick.t,
            "command": tick.command.value,
            "y_hat": tick.y_hat,
            "distance": tick.distance_to_mouth,
            "phase": tick.phase.value,
        })
        for tick in log.ticks
    ]
    lines = path.read_text().splitlines()
    assert lines[1:] == expected
    # A tick line holds exactly the keys the reader reads: without any one
    # of them, the line is refused.
    header, tick = lines[0], json.loads(lines[1])
    for key in tick:
        path.write_text(f"{header}\n{json.dumps({k: v for k, v in tick.items() if k != key})}\n")
        message = "unknown track None" if key == "track" else f"'policy' line is missing field {key!r}"
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
            read_session_log(path)
    # The writer refuses what the reader would: these were once written, and
    # then either refused on reading or written as a line that is not JSON.
    last = log.ticks[-1]
    refused = [
        ({"t": float("nan")}, ParseError, "'policy' field 't' is not finite: nan"),
        ({"t": np.float64(9.0)}, ParseError, f"'policy' field 't' is not a number: {np.float64(9.0)!r}"),
        ({"t": 10.0}, TrackValidationError, "policy tick at t=10.0 is outside [0, 10.0)"),
        ({"t": 9.0, "distance_to_mouth": -3.0}, TrackValidationError, "policy distance at t=9.0 is -3.0, below 0"),
    ]
    refused = [({"ticks": [*log.ticks, dataclasses.replace(last, **tick)]}, *rest) for tick, *rest in refused]
    refused += [
        ({"policy_name": "nobody"}, ParseError, "unknown policy 'nobody', expected one of"),
        ({"scenario": "group"}, ParseError, "unknown scenario 'group', expected one of"),
        ({"duration": -1}, ParseError, "'header' field 'duration' is not positive: -1"),
    ]
    path = tmp_path / "refused.jsonl"
    for changes, error, message in refused:
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            write_session_log(dataclasses.replace(log, **changes), path)
        assert not path.exists()


@pytest.fixture(scope="module")
def ablation_models():
    from conftest import window_table
    from bitetiming.features import ABLATIONS
    from bitetiming.mlp import TrainConfig, train

    rng = np.random.default_rng(14)
    rows = window_table(rng.normal(0.0, 1.0, (16, 48)), rng.uniform(1, 9, 16))
    return [train(rows, TrainConfig(epochs=1, batch_size=8), a)[0] for a in ABLATIONS]


@settings(max_examples=60, deadline=None)
@given(row=arrays(np.float64, 48, elements=st.floats(-1e6, 1e6)))
def test_model_predictor_adapter(ablation_models, row):
    from bitetiming.mlp import predict

    for model in ablation_models:
        fn = model_predictor(model)
        assert fn(row, 3.0).hex() == float(predict(model, row[None])[0]).hex()
        with pytest.raises(ValueError, match="no normalization statistics"):
            model_predictor(dataclasses.replace(model, normalization=None))
