"""Deterministic feeding-robot simulator and synthetic session generator.

The simulator has three layers:

* a tick-quantized robot state machine (Acquiring -> AtStaging ->
  Approaching -> AtFeeding -> Returning -> ...) driven by policy commands;
* scripted participant behavior (idle, chewing, talking, head motion, plus a
  dining-partner speech channel in the social scenario) with per-participant
  style parameters, from which sensor tracks are synthesized;
* an oracle labeler encoding the wizard's priority rules. It is a policy
  like any other: synthesis runs it through the same tick loop that replays
  a session against a policy, and labels a tick moving iff the utensil
  advanced toward the mouth during it.

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

from . import dataio
from .dataio import (
    MAX_SESSION_SECONDS,
    SCENARIOS,
    BiteEvent,
    SessionLog,
    SessionRecord,
    TickLog,
    validate_session,
    write_manifest,
    write_session,
)
from .errors import InsufficientDataError, ProtocolError
from .features import ablation_indices
from .mlp import _forward_cached
from .pipeline import session_features
from .policy import CONTROL_TICK_SECONDS, ORACLE_NAME, Command, MouthOpenPolicy, Phase
from .policy import TickInputs, WafflePolicy

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


@dataclass(slots=True)
class RobotState:
    """Robot pose within the feeding cycle at the end of a control tick.
    ``phase_start`` is the clock at which its phase began (at the mouth, the
    feeding arrival); clocks are multiples of the 0.5 s tick, so the time in
    a phase, ``clock - phase_start``, is exact."""

    phase: Phase
    distance_to_mouth: float
    clock: float
    phase_start: float = 0.0
    auto_advance: bool = False
    staging_arrival_t: float | None = None


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

    clock = state.clock + CONTROL_TICK_SECONDS
    new = RobotState(
        state.phase, state.distance_to_mouth, clock, state.phase_start,
        state.auto_advance, state.staging_arrival_t,
    )
    bite = None
    if new.phase is Phase.ACQUIRING:
        if clock - state.phase_start >= TrajectoryConfig.acquire_duration_s - _EPS:
            new.phase = Phase.AT_STAGING
            new.staging_arrival_t = clock
    elif new.phase is Phase.AT_STAGING and command is not Command.STOP:
        new.phase = Phase.APPROACHING
        new.auto_advance = command is Command.TRIGGER_FULL_TRAJECTORY
    # A robot that leaves staging starts moving within this same tick.
    if new.phase is Phase.APPROACHING and (new.auto_advance or command is Command.PROCEED):
        step = TrajectoryConfig.approach_speed_mps * CONTROL_TICK_SECONDS
        new.distance_to_mouth = max(0.0, new.distance_to_mouth - step)
        if new.distance_to_mouth <= _EPS:
            new.phase = Phase.AT_FEEDING
            new.distance_to_mouth = 0.0
    elif new.phase is Phase.AT_FEEDING:
        if clock - state.phase_start >= TrajectoryConfig.bite_duration_s - _EPS:
            bite = BiteEvent(
                staging_arrival_t=new.staging_arrival_t,
                feeding_arrival_t=state.phase_start,
                bite_complete_t=clock,
            )
            new.phase = Phase.RETURNING
            new.auto_advance = False
            new.staging_arrival_t = None
    elif new.phase is Phase.RETURNING:
        # Retraction takes one tick; the arm is back over the plate after it.
        new.phase = Phase.ACQUIRING
        new.distance_to_mouth = TrajectoryConfig.staging_distance_m
    # Whatever phase the robot enters, it enters it at the end of this tick.
    if new.phase is not state.phase:
        new.phase_start = clock
    return new, bite


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

    def near_done(self, t: float) -> bool:
        """Whether t lies in this segment's winding-down tail."""
        frac = NEAR_DONE_FRACTION.get(self.state)
        return frac is not None and t >= self.end_t - frac * (self.end_t - self.start_t)


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


def sample_style(rng: np.random.Generator) -> ParticipantStyle:
    """Draw a participant style, each parameter uniform within +-rel of its mid."""

    def vary(mid: float, rel: float) -> float:
        return mid * (1.0 + rel * rng.uniform(-1.0, 1.0))

    return ParticipantStyle(
        chew_rate_hz=float(np.clip(1.5 + 0.5 * rng.uniform(-1, 1), 1.0, 2.0)),
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


# A huge duration would grow the behavior script until memory ran out.
def check_duration(duration: float) -> None:
    if not 30.0 <= duration < np.inf:
        raise ValueError(f"sessions must last at least 30 s, got {duration}")
    if duration > MAX_SESSION_SECONDS:
        raise ValueError(
            f"sessions must last at most {MAX_SESSION_SECONDS:g} s, got {duration}"
        )


def sample_behavior_script(
    rng: np.random.Generator,
    duration: float,
    scenario: str,
    style: ParticipantStyle,
) -> BehaviorScript:
    """Sample the participant's behavior segments for one session."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    check_duration(duration)
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
    """The wizard's priority-ordered feeding rules as a policy; the first rule
    that matches fires.

    Individual scenario, in priority order: stop on aversive head motion,
    proceed when not chewing, proceed when chewing is almost done, stop while
    chewing. A partner script makes the scenario social, which inserts the
    speech rules: proceed when the participant is almost done talking, stop
    while they talk, stop when the partner is almost done talking, proceed
    while the partner talks.
    """

    name = ORACLE_NAME

    def __init__(
        self, script: BehaviorScript, partner_script: BehaviorScript | None = None
    ) -> None:
        self.script = script
        self.partner_script = partner_script

    def evaluate(self, t: float) -> tuple[str, Command]:
        """Return (rule_name, command) for the first rule matching time t."""
        seg = self.script.segment_at(t)
        state = seg.state
        if state is BehaviorState.HEAD_MOTION:
            return "stop_aversive_motion", Command.STOP
        if self.partner_script is not None:
            if state is BehaviorState.TALKING:
                if seg.near_done(t):
                    return "proceed_talking_near_done", Command.PROCEED
                return "stop_talking", Command.STOP
            partner = self.partner_script.segment_at(t)
            if partner.state is BehaviorState.TALKING:
                if partner.near_done(t):
                    return "stop_partner_near_done", Command.STOP
                return "proceed_partner_talking", Command.PROCEED
        if state is not BehaviorState.CHEWING:
            return "proceed_not_chewing", Command.PROCEED
        if seg.near_done(t):
            return "proceed_chewing_near_done", Command.PROCEED
        return "stop_chewing", Command.STOP

    def command_at(self, t: float) -> Command:
        return self.evaluate(t)[1]

    def reset(self) -> None:
        pass

    def step(self, inputs: TickInputs) -> Command:
        return self.command_at(inputs.session_clock)


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


def _segment_bounds(t: np.ndarray, script: BehaviorScript) -> list[list[int]]:
    """[lo, hi) sample positions of each segment in the sorted times ``t``."""
    ends = [(seg.start_t, seg.end_t) for seg in script.segments]
    return np.searchsorted(t, ends).reshape(-1, 2).tolist()


def _synth_imu(
    rng: np.random.Generator,
    t: np.ndarray,
    script: BehaviorScript,
    style: ParticipantStyle,
) -> np.ndarray:
    """Accelerometer (n, 3) for one session: gravity on z, idle noise, and
    the lean, chewing, head-motion and talking signatures of the script.

    ``t`` must be strictly increasing: each segment's samples
    ``start_t <= t < end_t`` are then the slice between its two sorted
    positions.
    """
    n = t.size
    ax = rng.normal(0.0, style.idle_accel_sigma, n)
    ay = rng.normal(0.0, style.idle_accel_sigma, n)
    az = GRAVITY_MPS2 + rng.normal(0.0, style.idle_accel_sigma, n)
    for seg, (lo, hi) in zip(script.segments, _segment_bounds(t, script)):
        seg_t = t[lo:hi]
        rel = seg_t - seg.start_t
        if seg.state is BehaviorState.IDLE:
            # Anticipatory lean: the participant settles toward the utensil
            # the longer they sit ready, a slow forward drift on ax.
            lean = np.minimum(rel / ANTICIPATION_RAMP_S, 1.0)
            ax[lo:hi] += style.anticipation_amp * lean
        elif seg.state is BehaviorState.CHEWING:
            phase = rng.uniform(0.0, 2.0 * np.pi)
            taper = _taper(seg_t, seg, floor=0.25)
            osc = 2.0 * np.pi * style.chew_rate_hz * rel + phase
            ay[lo:hi] += style.chew_accel_amp * np.sin(osc) * taper
            az[lo:hi] += 0.6 * style.chew_accel_amp * np.sin(osc + 1.1) * taper
        elif seg.state is BehaviorState.HEAD_MOTION:
            f1, f2 = rng.uniform(0.3, 0.9, 2)
            p1, p2 = rng.uniform(0.0, 2.0 * np.pi, 2)
            ax[lo:hi] += style.head_motion_amp * np.sin(2 * np.pi * f1 * rel + p1)
            ay[lo:hi] += 0.8 * style.head_motion_amp * np.sin(2 * np.pi * f2 * rel + p2)
            ax[lo:hi] += rng.normal(0.0, style.idle_accel_sigma * 3.0, seg_t.size)
        elif seg.state is BehaviorState.TALKING:
            # Speech barely moves the head; only a touch of extra jitter.
            ay[lo:hi] += rng.normal(0.0, style.idle_accel_sigma * 0.5, seg_t.size)
    return np.stack([ax, ay, az], axis=1)


def _synth_mic(
    rng: np.random.Generator,
    t: np.ndarray,
    script: BehaviorScript,
    style: ParticipantStyle,
) -> np.ndarray:
    """Throat-mic amplitude in [-1, 1]. The partner's speech is inaudible:
    a throat mic picks up the wearer only. ``t`` must be strictly increasing,
    as for ``_synth_imu``."""
    amp = rng.normal(0.0, style.idle_mic_sigma, t.size)
    for seg, (lo, hi) in zip(script.segments, _segment_bounds(t, script)):
        seg_t = t[lo:hi]
        rel = seg_t - seg.start_t
        if seg.state is BehaviorState.CHEWING:
            phase = rng.uniform(0.0, 2.0 * np.pi)
            taper = _taper(seg_t, seg, floor=0.25)
            env = np.maximum(
                np.sin(2.0 * np.pi * style.chew_rate_hz * rel + phase), 0.0
            ) ** 4
            amp[lo:hi] += (
                style.chew_mic_amp * env * rng.normal(0.0, 1.0, seg_t.size) * taper
            )
        elif seg.state is BehaviorState.TALKING:
            phase = rng.uniform(0.0, 2.0 * np.pi)
            taper = _taper(seg_t, seg, floor=0.3, span=0.5)
            syllabic = 0.55 + 0.45 * np.sin(2.0 * np.pi * 3.1 * rel + phase)
            amp[lo:hi] += (
                style.talk_mic_amp * syllabic * rng.normal(0.0, 1.0, seg_t.size) * taper
            )
    return np.clip(amp, -1.0, 1.0)


@dataclass
class SyntheticScenario:
    """A generated session with the oracle (which holds the behavior script
    and any partner script) that produced it."""

    session: SessionRecord
    oracle: OracleLabeler


def synthesize_scenario(
    participant_id: str,
    scenario: str,
    duration: float,
    seed,
    style: ParticipantStyle | None = None,
) -> SyntheticScenario:
    """Generate behavior, sensors, and oracle-driven ground truth; the style
    is drawn from the seed unless one is given."""
    rng = np.random.default_rng(seed)
    if style is None:
        style = sample_style(rng)
    script = sample_behavior_script(rng, duration, scenario, style)
    partner = (
        sample_partner_script(rng, duration, style) if scenario == "social" else None
    )

    imu_t = _irregular_timestamps(rng, duration, IMU_SYNTH_RATE_HZ)
    imu_accel = _synth_imu(rng, imu_t, script, style)
    mic_t = _irregular_timestamps(rng, duration, MIC_SYNTH_RATE_HZ)
    mic_amp = _synth_mic(rng, mic_t, script, style)

    # Ticks run to where the tracks end, just past ``duration``, as in replay.
    oracle = OracleLabeler(script, partner)
    end = min(float(imu_t[-1]), float(mic_t[-1]))
    log = SessionLog(oracle.name, participant_id, scenario, end)
    final = _drive(log, oracle)

    session = SessionRecord(
        participant_id=participant_id,
        scenario=scenario,
        imu_t=imu_t,
        imu_accel=imu_accel,
        mic_t=mic_t,
        mic_amp=mic_amp,
        bites=log.bites,
        motion_t=np.array([tick.t for tick in log.ticks], dtype=np.float64),
        motion_moving=_advanced(log, final),
    )
    validate_session(session)
    return SyntheticScenario(session=session, oracle=oracle)


def generate_synthetic_session(
    participant_id: str,
    scenario: str,
    duration: float,
    seed,
    style: ParticipantStyle | None = None,
) -> SessionRecord:
    """``synthesize_scenario(...).session``, kept only until the benchmark's
    ``perfbench/child.py`` calls that instead."""
    return synthesize_scenario(participant_id, scenario, duration, seed, style).session


def generate_dataset(
    out_dir: str | Path,
    n_participants: int,
    duration: float,
    seed: int,
) -> Path:
    """Write a synthetic dataset (one session per participant per scenario).

    Participant styles are stable across their scenarios. Returns the
    manifest path.
    """
    check_duration(duration)  # checked before anything is written
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    session_paths = []
    for p in range(n_participants):
        style = sample_style(np.random.default_rng([seed, p]))
        pid = f"p{p + 1:02d}"
        for s_idx, scenario in enumerate(SCENARIOS):
            record = synthesize_scenario(
                pid, scenario, duration, seed=[seed, p, s_idx + 1], style=style
            ).session
            path = out_dir / f"{pid}_{scenario}.jsonl"
            write_session(record, path)
            session_paths.append(path)
    manifest_path = out_dir / "manifest.json"
    write_manifest(session_paths, manifest_path)
    return manifest_path


def model_predictor(model):
    """Adapt a trained regressor to run_session's predictor interface. The
    model is checked and its columns, z-score and weights bound once, so a
    call is the arithmetic of a one-row ``predict``, with the same bits."""
    stats, weights, biases = model.normalization, model.weights, model.biases
    if stats is None:
        raise ValueError("model has no normalization statistics; train or load first")
    columns, mean, std = ablation_indices(model.ablation), stats.mean, stats.std
    return lambda row, t: float(
        _forward_cached(weights, biases, ((row[columns] - mean) / std)[None], None)[0][0]
    )


def run_session(
    source: SessionRecord,
    policy,
    predictor=None,
    oracle: OracleLabeler | None = None,
) -> SessionLog:
    """Replay a session's sensors against a policy in closed loop.

    The policy is stepped once per control tick until the sensors end.
    The waffle policy needs a predictor; any policy run with one gets, on
    the tick at time ``t``, the prediction ``predictor(feature_row, t)`` of
    the window whose end rounds to that tick, a window halfway between two
    ticks going to the later one. A tick that no window ends near (the first
    second, or past sensor coverage) is a gap: the policy sees ``y_hat=None``,
    and so does the log. The mouth-open baseline needs the ``oracle`` of a
    generative source to produce its events; no other policy reads it.
    """
    if isinstance(policy, WafflePolicy) and predictor is None:
        raise ValueError(f"policy {policy.name!r} needs a predictor")
    if isinstance(policy, MouthOpenPolicy) and oracle is None:
        raise ValueError("the mouth-open policy needs the source's oracle")

    for track, t in (("imu", source.imu_t), ("mic", source.mic_t)):
        if not t.size:
            raise InsufficientDataError(f"cannot replay a session whose {track} track is empty")
    duration = min(float(source.imu_t[-1]), float(source.mic_t[-1]))

    rows = None
    if predictor is not None:
        # Feature row by tick index. Windows hop one tick, so with ties
        # rounded up no two share a tick.
        end_t, features = session_features(source)
        rows = dict(zip(np.floor(end_t / CONTROL_TICK_SECONDS + 0.5).astype(int).tolist(), features))

    log = SessionLog(policy.name, source.participant_id, source.scenario, duration)
    # The oracle's per-tick lookup feeds the mouth-open event and nothing else.
    oracle = oracle if isinstance(policy, MouthOpenPolicy) else None
    _drive(log, policy, oracle, predictor, rows)
    return log


def _drive(log, policy, oracle=None, predictor=None, rows=None):
    """Step the robot under ``policy`` once per control tick to ``log.duration``,
    appending each tick and bite to ``log``, and return its final RobotState.
    ``rows`` is run_session's map from a tick's index, the number of ticks
    logged before it, to its feature row."""
    policy.reset()
    state = initial_robot_state()
    bite_just_completed = False
    while state.clock + CONTROL_TICK_SECONDS <= log.duration + _EPS:
        t = state.clock
        row = rows.get(len(log.ticks)) if rows else None
        y_hat = None if row is None else float(predictor(row, t))
        at_staging = state.phase is Phase.AT_STAGING
        mouth_open = (
            at_staging and oracle is not None and oracle.command_at(t) is Command.PROCEED
        )
        distance = state.distance_to_mouth
        command = policy.step(
            TickInputs(t, distance, at_staging, bite_just_completed, y_hat, mouth_open)
        )
        log.ticks.append(TickLog(t, command, distance, state.phase, y_hat))
        state, bite = step_robot(state, command)
        bite_just_completed = bite is not None
        if bite is not None:
            log.bites.append(bite)
    return state


def _advanced(log: SessionLog, final: RobotState) -> np.ndarray:
    """Each tick's motion label, given the state after the last tick: 1 iff the
    utensil advanced toward the mouth, as the proceed button makes it in a
    wizarded session. A wizard's proceed while the robot acquires, waits at
    the mouth or retracts moves nothing and is 0."""
    d = np.array([tick.distance_to_mouth for tick in log.ticks] + [final.distance_to_mouth])
    return (d[1:] < d[:-1] - 1e-12).astype(np.int64)


def log_summary(log: SessionLog) -> tuple[int, float, float]:
    """(bites, mean seconds between mouth arrivals, fraction of ticks whose
    command is not Stop); the mean is NaN below two bites."""
    arrivals = [b.feeding_arrival_t for b in log.bites]
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    mean_gap = sum(gaps) / len(gaps) if gaps else float("nan")
    sent = sum(1 for tick in log.ticks if tick.command is not Command.STOP)
    return len(log.bites), mean_gap, sent / max(len(log.ticks), 1)


# Kept only until perfbench/ imports and traces the log codec from dataio.
write_session_log = dataio.write_session_log
read_session_log = dataio.read_session_log
