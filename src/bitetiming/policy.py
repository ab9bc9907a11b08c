"""Bite-timing policies: the assertiveness threshold rule and baselines.

The learned policy thresholds the predicted time to the next bite: the robot
proceeds when the prediction is at or below the assertiveness threshold tau.
User-facing assertiveness levels 1..5 map to tau = level + 3 seconds, so
level 3 is the 6 s default. Once the utensil is within the commit distance
of the mouth the trajectory always finishes, whatever the model says next.

Baselines: a fixed 45 s schedule, a mouth-open event trigger, and an
always-proceed lower bound. Every policy is one class with ``name``,
``needs_predictions``, ``reset()`` and ``step(inputs) -> Command``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum

logger = logging.getLogger(__name__)

COMMIT_DISTANCE_M = 0.05
TAU_GRID = (4.0, 5.0, 6.0, 7.0, 8.0)
DEFAULT_TAU = 6.0
MIN_LEVEL = 1
MAX_LEVEL = 5
FIXED_INTERVAL_SECONDS = 45.0
CONTROL_TICK_SECONDS = 0.5

POLICY_NAMES = ("waffle", "fixed-interval", "mouth-open", "always-feed")


class Command(Enum):
    """What the policy tells the robot to do during the current tick."""

    PROCEED = "proceed"
    STOP = "stop"
    TRIGGER_FULL_TRAJECTORY = "trigger_full_trajectory"


@dataclass(frozen=True)
class AssertivenessThreshold:
    """A proceed threshold in seconds on the 4..8 s grid."""

    tau: float

    def __post_init__(self) -> None:
        if self.tau not in TAU_GRID:
            raise ValueError(f"tau must be one of {TAU_GRID}, got {self.tau}")

    @property
    def level(self) -> int:
        """The user-facing assertiveness level 1..5 of this threshold."""
        return int(self.tau) - 3


def map_assertiveness(level: int) -> AssertivenessThreshold:
    """Map an assertiveness level 1..5 to its threshold (tau = level + 3 s)."""
    if not MIN_LEVEL <= level <= MAX_LEVEL:
        raise ValueError(
            f"assertiveness level must be in [{MIN_LEVEL}, {MAX_LEVEL}], got {level}"
        )
    return AssertivenessThreshold(float(level + 3))


def decide(y_hat: float, threshold: AssertivenessThreshold) -> Command:
    """Threshold one prediction: proceed iff y_hat <= tau.

    The boundary is inclusive, so a prediction exactly at tau proceeds.
    Non-finite predictions fail safe to Stop and are logged.
    """
    if not math.isfinite(y_hat):
        logger.warning(
            "non-finite prediction %r, failing safe to Stop", y_hat
        )
        return Command.STOP
    return Command.PROCEED if y_hat <= threshold.tau else Command.STOP


@dataclass(frozen=True)
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
    needs_predictions = True

    def __init__(self, threshold: AssertivenessThreshold) -> None:
        self.threshold = threshold
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
        return decide(inputs.y_hat, self.threshold)


class FixedIntervalPolicy:
    """Trigger on the 45 s schedule whenever the robot is ready at staging.

    The schedule runs on the session clock and fires on the one control tick
    nearest each multiple k >= 1. A slot that falls mid-cycle is skipped:
    full trajectories only start at staging.
    """

    name = "fixed-interval"
    needs_predictions = False

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
    needs_predictions = False

    def reset(self) -> None:
        pass

    def step(self, inputs: TickInputs) -> Command:
        if inputs.at_staging and inputs.mouth_open_event:
            return Command.TRIGGER_FULL_TRAJECTORY
        return Command.STOP


class AlwaysFeedPolicy:
    """The always-proceed lower bound."""

    name = "always-feed"
    needs_predictions = False

    def reset(self) -> None:
        pass

    def step(self, inputs: TickInputs) -> Command:
        return Command.PROCEED


def make_policy(
    name: str,
    threshold: AssertivenessThreshold | None = None,
):
    """Construct a policy by its log name."""
    if name == "waffle":
        return WafflePolicy(threshold or AssertivenessThreshold(DEFAULT_TAU))
    if name == "fixed-interval":
        return FixedIntervalPolicy()
    if name == "mouth-open":
        return MouthOpenPolicy()
    if name == "always-feed":
        return AlwaysFeedPolicy()
    raise ValueError(f"unknown policy {name!r}, expected one of {POLICY_NAMES}")
