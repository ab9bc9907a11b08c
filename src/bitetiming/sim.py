"""Deterministic feeding-robot simulator and synthetic session generator.

The simulator has three layers:

* a tick-quantized robot state machine (Acquiring -> AtStaging ->
  Approaching -> AtFeeding -> Returning -> ...) driven by policy commands;
* scripted participant behavior (idle, chewing, talking, head motion, plus a
  dining-partner speech channel in the social scenario) with per-participant
  style parameters, from which sensor tracks are synthesized;
* an oracle labeler encoding the wizard's priority rules, which drives the
  robot during data generation and provides ground-truth motion labels.

Synthesized signals are intentionally simple band-limited recipes: chewing
puts a periodic oscillation on the accelerometer and burst trains on the
mic, talking puts sustained energy on the mic only, head motion puts large
transients on the accelerometer only, idle is low-variance noise. Signal
intensity also encodes progression: chewing and speech wind down over their
segment, and idle stretches carry a growing anticipatory lean as the
participant tracks the incoming utensil. They exist to exercise the pipeline
end to end, not to imitate physiology. Everything is deterministic given a
seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .dataio import (
    SCENARIOS,
    BiteEvent,
    SessionRecord,
    _bite,
    _bite_line,
    _encode,
    _field,
    _number,
    _parse_line,
    _string,
    _typed,
    validate_session,
    write_manifest,
    write_session,
)
from .errors import ParseError, ProtocolError, SchemaVersionError
from .mlp import predict
from .pipeline import session_features
from .policy import CONTROL_TICK_SECONDS, Command, MouthOpenPolicy, TickInputs

LOG_SCHEMA = "waffle-log/1"

# Synthetic raw-track rates. Deliberately below the canonical grids: the
# resampler interpolates up, and the scripted signals live well under the
# Nyquist limit of either rate.
IMU_SYNTH_RATE_HZ = 50.0
MIC_SYNTH_RATE_HZ = 120.0
TIMESTAMP_JITTER = 0.3

GRAVITY_MPS2 = 9.81

# Seconds of sitting idle over which the anticipatory lean builds to full
# amplitude, a bit longer than one staging-to-mouth approach.
ANTICIPATION_RAMP_S = 12.0

_EPS = 1e-9


class TrajectoryConfig:
    """Robot trajectory geometry and control cadence, fixed as in the study."""

    staging_distance_m = 0.381
    approach_speed_mps = 0.05
    control_dt_s = CONTROL_TICK_SECONDS
    acquire_duration_s = 3.0
    bite_duration_s = 2.0


class Phase(Enum):
    ACQUIRING = "acquiring"
    AT_STAGING = "at_staging"
    APPROACHING = "approaching"
    AT_FEEDING = "at_feeding"
    RETURNING = "returning"


@dataclass(frozen=True)
class RobotState:
    """Robot pose within the feeding cycle at the end of a control tick."""

    phase: Phase
    distance_to_mouth: float
    clock: float
    phase_elapsed: float = 0.0
    auto_advance: bool = False
    staging_arrival_t: float | None = None
    feeding_arrival_t: float | None = None


def initial_robot_state() -> RobotState:
    return RobotState(
        phase=Phase.ACQUIRING,
        distance_to_mouth=TrajectoryConfig.staging_distance_m,
        clock=0.0,
    )


def step_robot(
    state: RobotState, command: Command
) -> tuple[RobotState, BiteEvent | None]:
    """Advance the robot one control tick under ``command``.

    Proceed and Stop are accepted in every phase (they only matter at staging
    and while approaching). TriggerFullTrajectory is only valid at staging,
    where it latches the approach so later Stops cannot pause it.

    Returns the new state and, on the tick a bite finishes, its BiteEvent.

    Raises:
        ProtocolError: TriggerFullTrajectory sent in any phase but AtStaging.
    """
    if (
        command is Command.TRIGGER_FULL_TRAJECTORY
        and state.phase is not Phase.AT_STAGING
    ):
        raise ProtocolError(
            f"TriggerFullTrajectory is only valid at staging, "
            f"robot is {state.phase.value}"
        )

    dt = CONTROL_TICK_SECONDS
    clock = state.clock + dt
    phase = state.phase
    distance = state.distance_to_mouth
    elapsed = state.phase_elapsed + dt
    auto = state.auto_advance
    staging_t = state.staging_arrival_t
    feeding_t = state.feeding_arrival_t
    bite: BiteEvent | None = None

    if phase is Phase.ACQUIRING:
        if elapsed >= TrajectoryConfig.acquire_duration_s - _EPS:
            phase = Phase.AT_STAGING
            distance = TrajectoryConfig.staging_distance_m
            elapsed = 0.0
            staging_t = clock
    elif phase is Phase.AT_STAGING:
        if command in (Command.PROCEED, Command.TRIGGER_FULL_TRAJECTORY):
            phase = Phase.APPROACHING
            elapsed = 0.0
            auto = command is Command.TRIGGER_FULL_TRAJECTORY
            # The robot starts moving within this same tick.
            distance = max(0.0, distance - TrajectoryConfig.approach_speed_mps * dt)
            if distance <= _EPS:
                distance = 0.0
                phase = Phase.AT_FEEDING
                feeding_t = clock
                elapsed = 0.0
    elif phase is Phase.APPROACHING:
        if auto or command is Command.PROCEED:
            distance = max(0.0, distance - TrajectoryConfig.approach_speed_mps * dt)
            if distance <= _EPS:
                distance = 0.0
                phase = Phase.AT_FEEDING
                feeding_t = clock
                elapsed = 0.0
    elif phase is Phase.AT_FEEDING:
        if elapsed >= TrajectoryConfig.bite_duration_s - _EPS:
            assert staging_t is not None and feeding_t is not None
            bite = BiteEvent(
                staging_arrival_t=staging_t,
                feeding_arrival_t=feeding_t,
                bite_complete_t=clock,
            )
            phase = Phase.RETURNING
            elapsed = 0.0
            auto = False
            staging_t = None
            feeding_t = None
    elif phase is Phase.RETURNING:
        # Retraction takes one tick; the arm is back over the plate after it.
        phase = Phase.ACQUIRING
        distance = TrajectoryConfig.staging_distance_m
        elapsed = 0.0

    return (
        RobotState(
            phase=phase,
            distance_to_mouth=distance,
            clock=clock,
            phase_elapsed=elapsed,
            auto_advance=auto,
            staging_arrival_t=staging_t,
            feeding_arrival_t=feeding_t,
        ),
        bite,
    )


class BehaviorState(Enum):
    IDLE = "idle"
    CHEWING = "chewing"
    TALKING = "talking"
    HEAD_MOTION = "head_motion"


# Fraction of a segment's tail treated as "almost done": chewing winds down
# audibly and visibly, speech trails off on the mic.
NEAR_DONE_FRACTION = {
    BehaviorState.CHEWING: 0.25,
    BehaviorState.TALKING: 0.2,
}


@dataclass(frozen=True)
class Segment:
    start_t: float
    end_t: float
    state: BehaviorState


@dataclass(frozen=True)
class BehaviorScript:
    """Contiguous, ordered behavior segments covering [0, duration]."""

    duration: float
    segments: tuple[Segment, ...]
    _starts: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("script needs at least one segment")
        prev_end = 0.0
        for seg in self.segments:
            if abs(seg.start_t - prev_end) > _EPS or seg.end_t <= seg.start_t:
                raise ValueError(
                    f"segments must be contiguous and ordered, bad segment "
                    f"[{seg.start_t}, {seg.end_t}] after end {prev_end}"
                )
            prev_end = seg.end_t
        if prev_end < self.duration - _EPS:
            raise ValueError(
                f"segments end at {prev_end}, short of duration {self.duration}"
            )
        object.__setattr__(self, "_starts", tuple(s.start_t for s in self.segments))

    def segment_at(self, t: float) -> Segment:
        """The segment holding t; times before 0 or past the end clamp to the
        first or last segment, and a boundary time belongs to the later one."""
        return self.segments[max(0, bisect_right(self._starts, t) - 1)]

    def state_at(self, t: float) -> BehaviorState:
        return self.segment_at(t).state

    def near_done_at(self, t: float) -> bool:
        seg = self.segment_at(t)
        frac = NEAR_DONE_FRACTION.get(seg.state)
        if frac is None:
            return False
        return t >= seg.end_t - frac * (seg.end_t - seg.start_t)


@dataclass(frozen=True)
class ParticipantStyle:
    """Per-participant signal and pacing parameters."""

    chew_rate_hz: float
    chew_accel_amp: float
    chew_mic_amp: float
    talk_mic_amp: float
    head_motion_amp: float
    anticipation_amp: float
    idle_accel_sigma: float
    idle_mic_sigma: float
    tempo: float

    def __post_init__(self) -> None:
        if not 1.0 <= self.chew_rate_hz <= 2.0:
            raise ValueError(
                f"chew_rate_hz must lie in [1, 2], got {self.chew_rate_hz}"
            )


def sample_style(rng: np.random.Generator, style_spread: float = 1.0) -> ParticipantStyle:
    """Draw a participant style; ``style_spread`` in [0, 1] scales variation."""
    if not 0.0 <= style_spread <= 1.0:
        raise ValueError(f"style_spread must lie in [0, 1], got {style_spread}")

    def vary(mid: float, rel: float) -> float:
        return mid * (1.0 + rel * style_spread * rng.uniform(-1.0, 1.0))

    return ParticipantStyle(
        chew_rate_hz=float(np.clip(1.5 + 0.5 * style_spread * rng.uniform(-1, 1), 1.0, 2.0)),
        chew_accel_amp=vary(0.65, 0.4),
        chew_mic_amp=vary(0.22, 0.4),
        talk_mic_amp=vary(0.34, 0.35),
        head_motion_amp=vary(1.6, 0.4),
        anticipation_amp=vary(0.4, 0.35),
        idle_accel_sigma=vary(0.025, 0.5),
        idle_mic_sigma=vary(0.008, 0.5),
        tempo=vary(1.0, 0.25),
    )


# Markov transition tables over behavior states (no self transitions) and
# per-state duration ranges in seconds, scaled by the participant tempo.
_INDIVIDUAL_TRANSITIONS = {
    BehaviorState.IDLE: (
        (BehaviorState.CHEWING, 0.7),
        (BehaviorState.HEAD_MOTION, 0.3),
    ),
    BehaviorState.CHEWING: (
        (BehaviorState.IDLE, 0.75),
        (BehaviorState.HEAD_MOTION, 0.25),
    ),
    BehaviorState.HEAD_MOTION: (
        (BehaviorState.IDLE, 0.6),
        (BehaviorState.CHEWING, 0.4),
    ),
}

_SOCIAL_TRANSITIONS = {
    BehaviorState.IDLE: (
        (BehaviorState.CHEWING, 0.4),
        (BehaviorState.TALKING, 0.4),
        (BehaviorState.HEAD_MOTION, 0.2),
    ),
    BehaviorState.CHEWING: (
        (BehaviorState.IDLE, 0.5),
        (BehaviorState.TALKING, 0.35),
        (BehaviorState.HEAD_MOTION, 0.15),
    ),
    BehaviorState.TALKING: (
        (BehaviorState.IDLE, 0.5),
        (BehaviorState.CHEWING, 0.35),
        (BehaviorState.HEAD_MOTION, 0.15),
    ),
    BehaviorState.HEAD_MOTION: (
        (BehaviorState.IDLE, 0.5),
        (BehaviorState.TALKING, 0.3),
        (BehaviorState.CHEWING, 0.2),
    ),
}

_DURATION_RANGES = {
    BehaviorState.IDLE: (6.0, 12.0),
    BehaviorState.CHEWING: (5.0, 12.0),
    BehaviorState.TALKING: (4.0, 9.0),
    BehaviorState.HEAD_MOTION: (1.0, 3.0),
}

# Sessions open with a settled idle stretch long enough for one unhurried
# approach, so every synthetic session contains at least one bite.
_LEAD_IN_RANGE = (11.5, 14.0)


def sample_behavior_script(
    rng: np.random.Generator,
    duration: float,
    scenario: str,
    style: ParticipantStyle,
) -> BehaviorScript:
    """Sample the participant's behavior segments for one session."""
    if not 30.0 <= duration < np.inf:
        raise ValueError(f"sessions must last at least 30 s, got {duration}")
    transitions = (
        _SOCIAL_TRANSITIONS if scenario == "social" else _INDIVIDUAL_TRANSITIONS
    )
    segments = []
    t = 0.0
    state = BehaviorState.IDLE
    seg_len = rng.uniform(*_LEAD_IN_RANGE)
    while t < duration - _EPS:
        end = min(t + seg_len, duration)
        segments.append(Segment(start_t=t, end_t=end, state=state))
        t = end
        choices = transitions[state]
        u = rng.random()
        acc = 0.0
        for nxt, p in choices:
            acc += p
            if u < acc:
                state = nxt
                break
        else:
            state = choices[-1][0]
        lo, hi = _DURATION_RANGES[state]
        seg_len = rng.uniform(lo, hi) * style.tempo
    return BehaviorScript(duration=duration, segments=tuple(segments))


def sample_partner_script(
    rng: np.random.Generator, duration: float, style: ParticipantStyle
) -> BehaviorScript:
    """Alternating quiet/talking segments for the dining partner."""
    segments = []
    t = 0.0
    talking = False
    while t < duration - _EPS:
        if talking:
            seg_len = rng.uniform(3.0, 7.0) * style.tempo
        else:
            seg_len = rng.uniform(5.0, 12.0) * style.tempo
        end = min(t + seg_len, duration)
        segments.append(
            Segment(
                start_t=t,
                end_t=end,
                state=BehaviorState.TALKING if talking else BehaviorState.IDLE,
            )
        )
        t = end
        talking = not talking
    return BehaviorScript(duration=duration, segments=tuple(segments))


class OracleLabeler:
    """Priority-ordered feeding rules; the first matching rule fires.

    Individual scenario, in priority order: stop on aversive head motion,
    proceed when not chewing, proceed when chewing is almost done, stop while
    chewing. The social scenario inserts the speech rules: proceed when the
    participant is almost done talking, stop while they talk, stop when the
    partner is almost done talking, proceed while the partner talks.
    """

    def __init__(
        self,
        scenario: str,
        script: BehaviorScript,
        partner_script: BehaviorScript | None = None,
    ) -> None:
        if scenario not in ("individual", "social"):
            raise ValueError(f"unknown scenario {scenario!r}")
        if scenario == "social" and partner_script is None:
            raise ValueError("the social scenario needs a partner script")
        self.scenario = scenario
        self.script = script
        self.partner_script = partner_script

    def evaluate(self, t: float) -> tuple[str, Command]:
        """Return (rule_name, command) for the first rule matching time t."""
        state = self.script.state_at(t)
        near_done = self.script.near_done_at(t)
        if state is BehaviorState.HEAD_MOTION:
            return "stop_aversive_motion", Command.STOP
        if self.scenario == "social":
            assert self.partner_script is not None
            if state is BehaviorState.TALKING:
                if near_done:
                    return "proceed_talking_near_done", Command.PROCEED
                return "stop_talking", Command.STOP
            if self.partner_script.state_at(t) is BehaviorState.TALKING:
                if self.partner_script.near_done_at(t):
                    return "stop_partner_near_done", Command.STOP
                return "proceed_partner_talking", Command.PROCEED
        if state is not BehaviorState.CHEWING:
            return "proceed_not_chewing", Command.PROCEED
        if near_done:
            return "proceed_chewing_near_done", Command.PROCEED
        return "stop_chewing", Command.STOP

    def command_at(self, t: float) -> Command:
        return self.evaluate(t)[1]


def _irregular_timestamps(
    rng: np.random.Generator, duration: float, rate_hz: float
) -> np.ndarray:
    """Jittered timestamps from 0 to just past ``duration``."""
    n_est = int(duration * rate_hz * 1.6) + 8
    gaps = rng.uniform(1.0 - TIMESTAMP_JITTER, 1.0 + TIMESTAMP_JITTER, n_est) / rate_hz
    t = np.concatenate([[0.0], np.cumsum(gaps)])
    stop = int(np.searchsorted(t, duration, side="left"))
    return t[: stop + 1]


def _taper(t: np.ndarray, seg: Segment, floor: float, span: float = 1.0) -> np.ndarray:
    """Amplitude envelope easing linearly from 1.0 down to ``floor`` across
    the trailing ``span`` fraction of the segment.

    With span=1.0 the activity winds down over its whole run, so intensity
    tracks how far along the segment is; the oracle's near-done tail then
    sits at the quiet end of the ramp.
    """
    wind_start = seg.end_t - span * (seg.end_t - seg.start_t)
    ramp = np.clip((t - wind_start) / max(seg.end_t - wind_start, _EPS), 0.0, 1.0)
    return 1.0 - (1.0 - floor) * ramp


def _synth_imu(
    rng: np.random.Generator,
    t: np.ndarray,
    script: BehaviorScript,
    style: ParticipantStyle,
) -> tuple[np.ndarray, np.ndarray]:
    """Accelerometer (n, 3) and unit quaternions (n, 4) for one session."""
    n = t.size
    ax = rng.normal(0.0, style.idle_accel_sigma, n)
    ay = rng.normal(0.0, style.idle_accel_sigma, n)
    az = GRAVITY_MPS2 + rng.normal(0.0, style.idle_accel_sigma, n)
    for seg in script.segments:
        mask = (t >= seg.start_t) & (t < seg.end_t)
        count = int(mask.sum())
        rel = t[mask] - seg.start_t
        if seg.state is BehaviorState.IDLE:
            # Anticipatory lean: the participant settles toward the utensil
            # the longer they sit ready, a slow forward drift on ax.
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
            # Speech barely moves the head; only a touch of extra jitter.
            ay[mask] += rng.normal(0.0, style.idle_accel_sigma * 0.5, count)
    accel = np.stack([ax, ay, az], axis=1)

    # Slow sagittal wobble keeps quaternions non-constant but unit-norm.
    theta = 0.05 * np.sin(2.0 * np.pi * 0.1 * t)
    quat = np.stack(
        [np.cos(theta / 2), np.zeros(n), np.zeros(n), np.sin(theta / 2)], axis=1
    )
    return accel, quat


def _synth_mic(
    rng: np.random.Generator,
    t: np.ndarray,
    script: BehaviorScript,
    style: ParticipantStyle,
) -> np.ndarray:
    """Throat-mic amplitude in [-1, 1]. The partner's speech is inaudible:
    a throat mic picks up the wearer only."""
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


@dataclass
class SyntheticScenario:
    """A generated session together with the scripts that produced it."""

    session: SessionRecord
    script: BehaviorScript
    partner_script: BehaviorScript | None
    oracle: OracleLabeler
    style: ParticipantStyle


def _drive_oracle(
    oracle: OracleLabeler, duration: float
) -> tuple[np.ndarray, np.ndarray, list[BiteEvent]]:
    """Run the robot under the oracle, yielding motion labels and bites.

    A tick is labeled moving=1 only when the utensil actually advanced
    toward the mouth during that tick, which is what the proceed button
    achieves in a wizarded session. Ticks spent acquiring, holding at
    staging, waiting at the mouth, or retracting are moving=0 even when
    the wizard would happily proceed, because the robot is not theirs to
    advance right then.
    """
    state = initial_robot_state()
    motion_t = []
    moving = []
    bites: list[BiteEvent] = []
    while state.clock + CONTROL_TICK_SECONDS <= duration + _EPS:
        command = oracle.command_at(state.clock)
        motion_t.append(state.clock)
        before = state.distance_to_mouth
        state, bite = step_robot(state, command)
        moving.append(1 if state.distance_to_mouth < before - 1e-12 else 0)
        if bite is not None:
            bites.append(bite)
    return (
        np.array(motion_t, dtype=np.float64),
        np.array(moving, dtype=np.int64),
        bites,
    )


def synthesize_scenario(
    participant_id: str,
    scenario: str,
    duration: float,
    seed,
    style: ParticipantStyle | None = None,
    style_spread: float = 1.0,
) -> SyntheticScenario:
    """Generate behavior, sensors, and oracle-driven ground truth."""
    rng = np.random.default_rng(seed)
    if style is None:
        style = sample_style(rng, style_spread)
    script = sample_behavior_script(rng, duration, scenario, style)
    partner = (
        sample_partner_script(rng, duration, style) if scenario == "social" else None
    )

    imu_t = _irregular_timestamps(rng, duration, IMU_SYNTH_RATE_HZ)
    imu_accel, imu_quat = _synth_imu(rng, imu_t, script, style)
    mic_t = _irregular_timestamps(rng, duration, MIC_SYNTH_RATE_HZ)
    mic_amp = _synth_mic(rng, mic_t, script, style)

    oracle = OracleLabeler(scenario, script, partner)
    motion_t, moving, bites = _drive_oracle(oracle, duration)

    session = SessionRecord(
        participant_id=participant_id,
        scenario=scenario,
        imu_t=imu_t,
        imu_accel=imu_accel,
        imu_quat=imu_quat,
        mic_t=mic_t,
        mic_amp=mic_amp,
        bites=bites,
        motion_t=motion_t,
        motion_moving=moving,
    )
    validate_session(session)
    return SyntheticScenario(
        session=session,
        script=script,
        partner_script=partner,
        oracle=oracle,
        style=style,
    )


def generate_synthetic_session(
    participant_id: str,
    scenario: str,
    duration: float,
    seed,
    style: ParticipantStyle | None = None,
    style_spread: float = 1.0,
) -> SessionRecord:
    """One oracle-driven synthetic session as a plain SessionRecord."""
    return synthesize_scenario(
        participant_id, scenario, duration, seed, style, style_spread
    ).session


def generate_dataset(
    out_dir: str | Path,
    n_participants: int,
    duration: float,
    seed: int,
    style_spread: float = 1.0,
) -> Path:
    """Write a synthetic dataset (one session per participant per scenario).

    Participant styles are stable across their scenarios. Returns the
    manifest path.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    session_paths = []
    for p in range(n_participants):
        pid = f"p{p + 1:02d}"
        style = sample_style(np.random.default_rng([seed, p]), style_spread)
        for s_idx, scenario in enumerate(SCENARIOS):
            record = generate_synthetic_session(
                pid, scenario, duration, seed=[seed, p, s_idx + 1], style=style
            )
            path = out_dir / f"{pid}_{scenario}.jsonl"
            write_session(record, path)
            session_paths.append(path)
    manifest_path = out_dir / "manifest.json"
    write_manifest(session_paths, manifest_path)
    return manifest_path


@dataclass(frozen=True)
class TickLog:
    """One control tick as seen by the policy (state before stepping)."""

    t: float
    command: Command
    distance_to_mouth: float
    phase: Phase
    y_hat: float | None = None
    gap: bool = False


@dataclass
class SessionLog:
    """Closed-loop trace of one simulated session."""

    policy_name: str
    participant_id: str
    scenario: str
    duration: float
    ticks: list[TickLog] = field(default_factory=list)
    bites: list[BiteEvent] = field(default_factory=list)

    def bite_count(self) -> int:
        return len(self.bites)


def model_predictor(model):
    """Adapt a trained regressor to run_session's predictor interface."""
    return lambda feature_row, window_end_t: float(predict(model, feature_row))


def run_session(
    source: SessionRecord,
    policy,
    predictor=None,
    oracle: OracleLabeler | None = None,
) -> SessionLog:
    """Replay a session's sensors against a policy in closed loop.

    The policy is stepped once per control tick until the sensors end.
    Policies that consume predictions get the trailing one-second window's
    prediction via ``predictor(feature_row, window_end_t)``; ticks whose
    window is not available (the first second, or past sensor coverage) are
    logged as gaps and the policy sees ``y_hat=None``. The mouth-open
    baseline needs the ``oracle`` of a generative source to produce its
    events.
    """
    if policy.needs_predictions and predictor is None:
        raise ValueError(f"policy {policy.name!r} needs a predictor")
    if isinstance(policy, MouthOpenPolicy) and oracle is None:
        raise ValueError("the mouth-open policy needs the source's oracle")

    duration = min(float(source.imu_t[-1]), float(source.mic_t[-1]))

    if predictor is not None:
        # Row of the window ending on each tick index; -1 where none does. A
        # later window wins a tick that two windows round to.
        end_t, features = session_features(source)
        ticks = np.rint(end_t / CONTROL_TICK_SECONDS).astype(np.intp)
        last = np.append(ticks[1:] != ticks[:-1], True)
        row_of_tick = np.full(ticks[-1] + 1, -1, dtype=np.intp)
        row_of_tick[ticks[last]] = np.nonzero(last)[0]

    policy.reset()
    state = initial_robot_state()
    log = SessionLog(
        policy_name=policy.name,
        participant_id=source.participant_id,
        scenario=source.scenario,
        duration=duration,
    )
    bite_just_completed = False
    while state.clock + CONTROL_TICK_SECONDS <= duration + _EPS:
        t = state.clock
        y_hat = None
        gap = False
        if predictor is not None:
            tick = int(round(t / CONTROL_TICK_SECONDS))
            row = row_of_tick[tick] if tick < row_of_tick.size else -1
            if row >= 0:
                y_hat = float(predictor(features[row], t))
            else:
                gap = policy.needs_predictions
        at_staging = state.phase is Phase.AT_STAGING
        mouth_open = bool(
            at_staging
            and oracle is not None
            and oracle.command_at(t) is Command.PROCEED
        )
        command = policy.step(
            TickInputs(
                session_clock=t,
                distance_to_mouth=state.distance_to_mouth,
                at_staging=at_staging,
                bite_completed=bite_just_completed,
                y_hat=y_hat,
                mouth_open_event=mouth_open,
            )
        )
        log.ticks.append(
            TickLog(
                t=t,
                command=command,
                distance_to_mouth=state.distance_to_mouth,
                phase=state.phase,
                y_hat=y_hat,
                gap=gap,
            )
        )
        state, bite = step_robot(state, command)
        bite_just_completed = bite is not None
        if bite is not None:
            log.bites.append(bite)
    return log


def write_session_log(log: SessionLog, path: str | Path) -> None:
    """Write a closed-loop trace in the session line format plus a policy track."""
    header = {
        "schema": LOG_SCHEMA,
        "participant": log.participant_id,
        "scenario": log.scenario,
        "policy": log.policy_name,
        "duration": log.duration,
    }
    with Path(path).open("w", encoding="utf-8") as f:
        f.write(_encode(header) + "\n")
        for b in log.bites:
            f.write(_bite_line(b))
        for tick in log.ticks:
            rec = {
                "track": "policy",
                "t": tick.t,
                "policy": log.policy_name,
                "command": tick.command.value,
                "y_hat": tick.y_hat,
                "distance": tick.distance_to_mouth,
                "phase": tick.phase.value,
                "gap": tick.gap,
            }
            f.write(_encode(rec) + "\n")


def _enum_field(path: Path, lineno: int, rec: dict, key: str, enum: type[Enum]):
    value = _field(path, lineno, rec, key)
    try:
        return enum(value)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: unknown {key} {value!r}") from None


def read_session_log(path: str | Path) -> SessionLog:
    """Read back a closed-loop trace written by write_session_log.

    Raises ParseError naming ``path:line`` for malformed JSON, a missing
    field or one of the wrong type, and an unknown track, command or phase;
    SchemaVersionError for an unknown schema.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file, expected a header line")
    header = _parse_line(path, 1, lines[0])
    if header.get("schema") != LOG_SCHEMA:
        raise SchemaVersionError(
            f"{path}: schema {header.get('schema')!r} is not supported, "
            f"expected {LOG_SCHEMA!r}"
        )
    log = SessionLog(
        policy_name=_string(path, 1, header, "policy"),
        participant_id=_string(path, 1, header, "participant"),
        scenario=_string(path, 1, header, "scenario"),
        duration=_number(path, 1, header, "duration"),
    )
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rec = _parse_line(path, lineno, line)
        track = rec.get("track")
        if track == "bite":
            log.bites.append(_bite(path, lineno, rec))
        elif track == "policy":
            y_hat = _field(path, lineno, rec, "y_hat")
            if y_hat is not None:
                y_hat = _number(path, lineno, rec, "y_hat")
            gap = "gap" in rec and _typed(path, lineno, rec, "gap", (bool,), "a boolean")
            log.ticks.append(
                TickLog(
                    t=_number(path, lineno, rec, "t"),
                    command=_enum_field(path, lineno, rec, "command", Command),
                    distance_to_mouth=_number(path, lineno, rec, "distance"),
                    phase=_enum_field(path, lineno, rec, "phase", Phase),
                    y_hat=y_hat,
                    gap=gap,
                )
            )
        else:
            raise ParseError(f"{path}:{lineno}: unknown track {track!r}")
    return log
