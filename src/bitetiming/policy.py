"""Bite-timing policies: the assertiveness threshold rule and baselines.

The learned policy thresholds the predicted time to the next bite: the robot
proceeds when the prediction is at or below the assertiveness threshold tau.
User-facing assertiveness levels 1..5 map to tau = level + 3 seconds
(``map_assertiveness``), so level 3 is the 6 s default; ``TAU_GRID`` and
``DEFAULT_TAU`` are derived from that map. Tau is a plain float: the rule
takes any tau in seconds. Once the utensil is within the commit distance of
the mouth the trajectory always finishes, whatever the model says next.

Baselines: a fixed 45 s schedule, a mouth-open event trigger, and an
always-proceed lower bound. Every policy is one class with ``name``,
``reset()`` and ``step(inputs) -> Command``; ``make_policy`` finds it by name.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

logger = logging.getLogger(__name__)

COMMIT_DISTANCE_M = 0.05
MIN_LEVEL = 1
MAX_LEVEL = 5
DEFAULT_LEVEL = 3
FIXED_INTERVAL_SECONDS = 45.0
CONTROL_TICK_SECONDS = 0.5


class Command(Enum):
    """What the policy tells the robot to do during the current tick."""

    PROCEED = "proceed"
    STOP = "stop"
    TRIGGER_FULL_TRAJECTORY = "trigger_full_trajectory"


class Phase(Enum):
    ACQUIRING = "acquiring"
    AT_STAGING = "at_staging"
    APPROACHING = "approaching"
    AT_FEEDING = "at_feeding"
    RETURNING = "returning"


def map_assertiveness(level: int) -> float:
    """Map an assertiveness level 1..5 to its threshold tau = level + 3 s."""
    if not MIN_LEVEL <= level <= MAX_LEVEL:
        raise ValueError(
            f"assertiveness level must be in [{MIN_LEVEL}, {MAX_LEVEL}], got {level}"
        )
    return float(level + 3)


TAU_GRID = tuple(map(map_assertiveness, range(MIN_LEVEL, MAX_LEVEL + 1)))
DEFAULT_TAU = map_assertiveness(DEFAULT_LEVEL)


def decide(y_hat: float, tau: float) -> Command:
    """Threshold one prediction: proceed iff y_hat <= tau.

    The boundary is inclusive, so a prediction exactly at tau proceeds.
    Non-finite predictions fail safe to Stop and are logged.
    """
    if not math.isfinite(y_hat):
        logger.warning(
            "non-finite prediction %r, failing safe to Stop", y_hat
        )
        return Command.STOP
    return Command.PROCEED if y_hat <= tau else Command.STOP


@dataclass(slots=True)
class TickInputs:
    """Everything a policy may look at during one control tick."""

    session_clock: float
    distance_to_mouth: float
    at_staging: bool
    bite_completed: bool
    y_hat: float | None = None
    mouth_open_event: bool = False


class WafflePolicy:
    """The threshold rule with a commit latch near the mouth.

    Within the commit distance, or once committed, the command is Proceed
    regardless of the prediction; the latch holds until bite completion.
    Outside the commit zone a missing prediction (sensor gap) fails safe to
    Stop.
    """

    name = "waffle"

    def __init__(self, tau: float) -> None:
        self.tau = tau
        self._committed = False

    def reset(self) -> None:
        self._committed = False

    def step(self, inputs: TickInputs) -> Command:
        if inputs.bite_completed:
            # The trajectory just finished, so there is no remainder left to
            # commit to. Clear the latch and go straight to the threshold
            # rule: the utensil is still at the mouth on this tick, and
            # letting the commit zone re-latch here would lock the policy
            # into proceeding forever.
            self._committed = False
        elif self._committed or inputs.distance_to_mouth <= COMMIT_DISTANCE_M:
            self._committed = True
            return Command.PROCEED
        if inputs.y_hat is None:
            return Command.STOP
        return decide(inputs.y_hat, self.tau)


class FixedIntervalPolicy:
    """Trigger on the 45 s schedule whenever the robot is ready at staging.

    The schedule runs on the session clock and fires on the one control tick
    nearest each multiple k >= 1. A slot that falls mid-cycle is skipped:
    full trajectories only start at staging.
    """

    name = "fixed-interval"

    def reset(self) -> None:
        pass

    def step(self, inputs: TickInputs) -> Command:
        if not inputs.at_staging:
            return Command.STOP
        k = round(inputs.session_clock / FIXED_INTERVAL_SECONDS)
        offset = inputs.session_clock - k * FIXED_INTERVAL_SECONDS
        if k >= 1 and -CONTROL_TICK_SECONDS / 2 <= offset < CONTROL_TICK_SECONDS / 2:
            return Command.TRIGGER_FULL_TRAJECTORY
        return Command.STOP


class MouthOpenPolicy:
    """Trigger a full trajectory when the user opens their mouth at staging.

    Events arriving while a trajectory is already in flight are ignored; the
    robot only accepts a new trigger once it is back at staging.
    """

    name = "mouth-open"

    def reset(self) -> None:
        pass

    def step(self, inputs: TickInputs) -> Command:
        if inputs.at_staging and inputs.mouth_open_event:
            return Command.TRIGGER_FULL_TRAJECTORY
        return Command.STOP


class AlwaysFeedPolicy:
    """The always-proceed lower bound."""

    name = "always-feed"

    def reset(self) -> None:
        pass

    def step(self, inputs: TickInputs) -> Command:
        return Command.PROCEED


_POLICIES = {
    cls.name: cls
    for cls in (WafflePolicy, FixedIntervalPolicy, MouthOpenPolicy, AlwaysFeedPolicy)
}
POLICY_NAMES = tuple(_POLICIES)
ORACLE_NAME = "oracle"  # sim.OracleLabeler's, which make_policy does not build


def make_policy(name: str, tau: float):
    """Construct a policy by its log name; only waffle reads ``tau``."""
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy {name!r}, expected one of {POLICY_NAMES}")
    cls = _POLICIES[name]
    return cls(tau) if cls is WafflePolicy else cls()
