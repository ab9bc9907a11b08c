"""Threshold policy, commit rule, and the baseline triggers."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitetiming.cli import build_parser
from bitetiming.policy import (
    COMMIT_DISTANCE_M,
    DEFAULT_LEVEL,
    DEFAULT_TAU,
    FIXED_INTERVAL_SECONDS,
    POLICY_NAMES,
    TAU_GRID,
    AlwaysFeedPolicy,
    Command,
    FixedIntervalPolicy,
    MouthOpenPolicy,
    TickInputs,
    WafflePolicy,
    decide,
    make_policy,
    map_assertiveness,
)


def test_level_to_tau_mapping():
    assert map_assertiveness(1) == 4.0
    assert map_assertiveness(3) == 6.0
    assert map_assertiveness(5) == 8.0
    for level in range(1, 6):
        tau = map_assertiveness(level)
        assert isinstance(tau, float) and tau == level + 3
    for level in (0, 6, -1):
        with pytest.raises(ValueError):
            map_assertiveness(level)
    # Derived from the map; perfbench/checks.py reads both.
    assert TAU_GRID == (4.0, 5.0, 6.0, 7.0, 8.0)
    assert DEFAULT_TAU == 6.0
    assert build_parser().parse_args(["simulate", "--out", "x"]).level == DEFAULT_LEVEL


def test_decide_boundary_is_inclusive():
    assert decide(6.0, 6.0) is Command.PROCEED
    assert decide(5.999, 6.0) is Command.PROCEED
    assert decide(6.001, 6.0) is Command.STOP
    assert decide(7.2, 6.0) is Command.STOP
    assert decide(0.0, 6.0) is Command.PROCEED
    assert decide(-1.0, 6.0) is Command.PROCEED


def test_decide_fails_safe_on_non_finite(caplog):
    with caplog.at_level(logging.WARNING, logger="bitetiming.policy"):
        assert decide(float("nan"), 6.0) is Command.STOP
        assert decide(float("inf"), 6.0) is Command.STOP
        assert decide(float("-inf"), 6.0) is Command.STOP
    assert sum("failing safe" in r.message for r in caplog.records) == 3


def test_decide_agrees_with_direct_comparison():
    rng = np.random.default_rng(0)
    for _ in range(500):
        tau = float(rng.uniform(3.0, 11.0))
        y_hat = float(rng.uniform(-2.0, 12.0))
        expected = Command.PROCEED if y_hat <= tau else Command.STOP
        assert decide(y_hat, tau) is expected
    # Off the grid: the default robot's 7.62 s approach plus a 0.5 s margin.
    assert WafflePolicy(8.12).step(tick(y_hat=8.1)) is Command.PROCEED


def test_proceed_count_monotone_in_tau():
    rng = np.random.default_rng(1)
    preds = rng.uniform(0.0, 12.0, 300)
    counts = [
        sum(
            decide(float(p), tau) is Command.PROCEED
            for p in preds
        )
        for tau in TAU_GRID
    ]
    assert counts == sorted(counts)


def tick(clock=0.0, distance=0.381, at_staging=True, bite_completed=False,
         y_hat=None, mouth_open=False):
    return TickInputs(
        session_clock=clock,
        distance_to_mouth=distance,
        at_staging=at_staging,
        bite_completed=bite_completed,
        y_hat=y_hat,
        mouth_open_event=mouth_open,
    )


def test_waffle_step_outside_commit_zone_thresholds():
    policy = WafflePolicy(6.0)
    assert policy.step(tick(distance=0.30, y_hat=9.0)) is Command.STOP
    assert policy.step(tick(distance=0.30, y_hat=5.0)) is Command.PROCEED
    # Neither tick latched: a late prediction far away still stops.
    assert policy.step(tick(distance=0.30, y_hat=9.0)) is Command.STOP


def test_waffle_step_commit_zone_overrides_prediction():
    policy = WafflePolicy(6.0)
    assert policy.step(tick(distance=0.04, y_hat=9.0)) is Command.PROCEED
    assert policy.step(tick(distance=0.30, y_hat=9.0)) is Command.PROCEED
    policy = WafflePolicy(6.0)
    assert policy.step(
        tick(distance=COMMIT_DISTANCE_M, y_hat=9.0)
    ) is Command.PROCEED
    assert policy.step(tick(distance=0.30, y_hat=9.0)) is Command.PROCEED


def test_waffle_step_latch_persists_outside_zone():
    policy = WafflePolicy(6.0)
    policy.step(tick(distance=0.04, y_hat=9.0))
    for distance, y_hat in ((0.30, 9.0), (0.381, 12.0), (0.30, None)):
        assert policy.step(tick(distance=distance, y_hat=y_hat)) is Command.PROCEED


def test_waffle_step_missing_prediction_fails_safe():
    policy = WafflePolicy(6.0)
    assert policy.step(tick(distance=0.30, y_hat=None)) is Command.STOP
    assert policy.step(tick(distance=0.30, y_hat=9.0)) is Command.STOP
    assert policy.step(tick(distance=0.04, y_hat=None)) is Command.PROCEED


def test_waffle_policy_latches_until_bite_completion():
    policy = WafflePolicy(6.0)
    assert policy.step(tick(distance=0.30, y_hat=9.0)) is Command.STOP
    assert policy.step(tick(distance=0.04, y_hat=9.0)) is Command.PROCEED
    # Latched: the same far-away, late prediction now proceeds.
    assert policy.step(tick(distance=0.30, y_hat=9.0)) is Command.PROCEED
    # Bite completion clears the latch before the decision.
    assert policy.step(
        tick(distance=0.30, y_hat=9.0, bite_completed=True)
    ) is Command.STOP
    policy2 = WafflePolicy(6.0)
    policy2.step(tick(distance=0.04, y_hat=9.0))
    policy2.reset()
    assert policy2.step(tick(distance=0.30, y_hat=9.0)) is Command.STOP


def test_waffle_policy_does_not_relatch_at_the_mouth_after_a_bite():
    # On the completion tick the utensil is still at distance 0, but the
    # trajectory is over: the commit zone must not re-engage the latch.
    policy = WafflePolicy(6.0)
    assert policy.step(tick(distance=0.04, y_hat=9.0)) is Command.PROCEED
    assert policy.step(
        tick(distance=0.0, y_hat=9.0, bite_completed=True)
    ) is Command.STOP
    assert policy.step(tick(distance=0.381, y_hat=9.0)) is Command.STOP
    assert policy.step(tick(distance=0.381, y_hat=5.0)) is Command.PROCEED
    # Missing prediction on the completion tick fails safe too.
    policy.reset()
    policy.step(tick(distance=0.04, y_hat=9.0))
    assert policy.step(
        tick(distance=0.0, y_hat=None, bite_completed=True)
    ) is Command.STOP
    assert policy.step(tick(distance=0.381, y_hat=9.0)) is Command.STOP


def test_fixed_interval_step_fires_on_nearest_tick():
    policy = FixedIntervalPolicy()
    for clock, expected in (
        (0.0, Command.STOP),
        (44.5, Command.STOP),
        (44.75, Command.TRIGGER_FULL_TRAJECTORY),
        (45.0, Command.TRIGGER_FULL_TRAJECTORY),
        (45.25, Command.STOP),
        (90.0, Command.TRIGGER_FULL_TRAJECTORY),
    ):
        assert policy.step(tick(clock=clock)) is expected


def test_fixed_interval_fires_once_per_multiple_on_the_grid():
    policy = FixedIntervalPolicy()
    triggers = [
        t / 2.0
        for t in range(0, 2 * 200)
        if policy.step(tick(clock=t / 2.0)) is Command.TRIGGER_FULL_TRAJECTORY
    ]
    assert triggers == [45.0, 90.0, 135.0, 180.0]


waffle_ticks = st.lists(
    st.builds(
        tick,
        distance=st.sampled_from((0.0, 0.03, COMMIT_DISTANCE_M, 0.06, 0.2, 0.381)),
        bite_completed=st.booleans(),
        y_hat=st.one_of(
            st.none(), st.just(float("nan")), st.floats(-2.0, 12.0)
        ),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(ticks=waffle_ticks, tau=st.sampled_from(TAU_GRID))
def test_waffle_never_stops_between_commit_and_bite_completion(ticks, tau):
    policy = WafflePolicy(tau)
    committed = False
    for inputs in ticks:
        command = policy.step(inputs)
        if inputs.bite_completed:
            committed = False
            continue
        committed = committed or inputs.distance_to_mouth <= COMMIT_DISTANCE_M
        if committed:
            assert command is Command.PROCEED


@settings(max_examples=100, deadline=None)
@given(n_ticks=st.integers(0, 1200), y_hat=st.none() | st.floats(0.0, 12.0))
def test_fixed_interval_fires_once_per_multiple_at_staging(n_ticks, y_hat):
    policy = FixedIntervalPolicy()
    clocks = [i * 0.5 for i in range(n_ticks)]
    triggers = [
        t
        for t in clocks
        if policy.step(tick(clock=t, y_hat=y_hat)) is Command.TRIGGER_FULL_TRAJECTORY
    ]
    last = clocks[-1] if clocks else 0.0
    multiples = int(last // FIXED_INTERVAL_SECONDS)
    assert triggers == [FIXED_INTERVAL_SECONDS * k for k in range(1, multiples + 1)]


def test_fixed_interval_policy_requires_staging():
    policy = FixedIntervalPolicy()
    assert policy.step(tick(clock=45.0)) is Command.TRIGGER_FULL_TRAJECTORY
    assert policy.step(tick(clock=45.0, at_staging=False)) is Command.STOP
    assert policy.step(tick(clock=44.0)) is Command.STOP


def test_mouth_open_trigger():
    policy = MouthOpenPolicy()
    assert policy.step(tick(mouth_open=True)) is Command.TRIGGER_FULL_TRAJECTORY
    assert policy.step(tick(mouth_open=True, at_staging=False)) is Command.STOP
    assert policy.step(tick(mouth_open=False)) is Command.STOP


def test_always_feed():
    policy = AlwaysFeedPolicy()
    assert policy.step(tick(at_staging=False, distance=0.2)) is Command.PROCEED
    assert policy.step(tick(bite_completed=True)) is Command.PROCEED


def test_make_policy():
    waffle = make_policy("waffle", 8.0)
    assert isinstance(waffle, WafflePolicy) and waffle.tau == 8.0
    assert isinstance(make_policy("fixed-interval", 8.0), FixedIntervalPolicy)
    assert isinstance(make_policy("mouth-open", 8.0), MouthOpenPolicy)
    assert isinstance(make_policy("always-feed", 8.0), AlwaysFeedPolicy)
    for name in POLICY_NAMES:
        assert make_policy(name, 6.0).name == name
    with pytest.raises(ValueError, match="unknown policy"):
        make_policy("random", 8.0)
