"""Closed-loop feeding simulation: learned policy versus the baselines.

Trains a model on synthetic data, then drives the simulated robot through the
same unseen social dining session with every policy. The learned "waffle"
policy is shown at all five assertiveness levels (threshold = level + 3
seconds) so the bite count can be seen rising with assertiveness while the
proceed decisions stay aligned with the oracle's etiquette labels. The last
column counts Stops sent while the utensil approaches within the commit
distance of the mouth.
"""

import tempfile
from pathlib import Path

from bitetiming.dataio import load_dataset
from bitetiming.mlp import TrainConfig, train
from bitetiming.pipeline import extract_dataset_windows
from bitetiming.policy import (
    COMMIT_DISTANCE_M,
    DEFAULT_LEVEL,
    Command,
    Phase,
    WafflePolicy,
    make_policy,
    map_assertiveness,
)
from bitetiming.sim import (
    BehaviorState,
    generate_dataset,
    model_predictor,
    run_session,
    synthesize_scenario,
)


def describe(name, log):
    proceed = sum(
        1 for t in log.ticks
        if t.command in (Command.PROCEED, Command.TRIGGER_FULL_TRAJECTORY)
    )
    arrivals = [b.feeding_arrival_t for b in log.bites]
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    mean_gap = sum(gaps) / len(gaps) if gaps else float("nan")
    committed_stops = sum(
        1 for t in log.ticks
        if t.command is Command.STOP and t.phase is Phase.APPROACHING
        and t.distance_to_mouth <= COMMIT_DISTANCE_M
    )
    print(f"{name:>22} {len(log.bites):>5} {mean_gap:>9.1f} "
          f"{proceed / len(log.ticks):>8.2f} {committed_stops:>13}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        manifest = generate_dataset(Path(tmp) / "data", 4, 120.0, seed=5)
        model, _ = train(
            extract_dataset_windows(load_dataset(manifest)),
            TrainConfig(seed=0, epochs=60),
        )

    scenario = synthesize_scenario("held-out", "social", 150.0, seed=[21])
    predictor = model_predictor(model)
    n_talking = sum(
        1 for s in scenario.oracle.script.segments if s.state is BehaviorState.TALKING
    )
    print(f"session: 150 s social dining, {n_talking} talking segments\n")
    print(f"{'policy':>22} {'bites':>5} {'gap (s)':>9} {'proceed':>8} "
          f"{'commit stops':>13}")

    for level in range(1, 6):
        log = run_session(
            scenario.session,
            WafflePolicy(map_assertiveness(level)),
            predictor=predictor,
        )
        describe(f"waffle level {level}", log)

    for name in ("fixed-interval", "mouth-open", "always-feed"):
        policy = make_policy(name, map_assertiveness(DEFAULT_LEVEL))
        log = run_session(
            scenario.session, policy, predictor=predictor, oracle=scenario.oracle
        )
        describe(name, log)

    print("\nhigher assertiveness never feeds less. waffle never stops an approach\n"
          "within 5 cm of the mouth; a trigger baseline's latched trajectory\n"
          "finishes whatever it sends.")


if __name__ == "__main__":
    main()
