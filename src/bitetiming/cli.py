"""Command-line entry points: synth, train, eval, simulate.

Every command is deterministic given its ``--seed`` and exits 0 only after
its outputs are written and validated.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dataio import SCENARIOS, load_dataset, write_session_log
from .evaluation import run_loso, write_report_files
from .features import ABLATIONS
from .mlp import TrainConfig, load_model, save_model, train
from .pipeline import extract_dataset_windows
from .policy import (
    DEFAULT_LEVEL,
    DEFAULT_TAU,
    POLICY_NAMES,
    WafflePolicy,
    make_policy,
    map_assertiveness,
)
from .sim import (
    check_duration,
    log_summary,
    model_predictor,
    run_session,
    generate_dataset,
    synthesize_scenario,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitetiming",
        description="Bite-timing models, evaluation, and feeding simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser(
        "synth", help="generate a synthetic dataset and its manifest"
    )
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--participants", type=int, default=10)
    p_synth.add_argument("--duration", type=float, default=240.0, help="seconds per session")
    p_synth.add_argument("--seed", type=int, default=7)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="fit a regressor on a dataset manifest")
    p_train.add_argument("--manifest", required=True)
    p_train.add_argument("--out", required=True, help="model file to write")
    p_train.add_argument("--ablation", choices=ABLATIONS, default="imu+mic")
    p_train.add_argument("--seed", type=int, default=TrainConfig.seed)
    p_train.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser(
        "eval", help="leave-one-subject-out evaluation with reports"
    )
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--out", required=True, help="report directory")
    p_eval.add_argument(
        "--ablation",
        choices=ABLATIONS + ("all",),
        default="all",
        help="which modality ablations to evaluate",
    )
    p_eval.add_argument("--seed", type=int, default=TrainConfig.seed)
    p_eval.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p_eval.set_defaults(func=cmd_eval)

    p_sim = sub.add_parser("simulate", help="closed-loop feeding simulation")
    p_sim.add_argument("--policy", choices=POLICY_NAMES, default=WafflePolicy.name)
    p_sim.add_argument("--model", default=None, help="model file (waffle policy)")
    p_sim.add_argument(
        "--level", type=int, default=DEFAULT_LEVEL, help="assertiveness level 1..5"
    )
    p_sim.add_argument("--duration", type=float, default=150.0)
    p_sim.add_argument("--seed", type=int, default=7)
    p_sim.add_argument("--scenario", choices=SCENARIOS, default="individual")
    p_sim.add_argument("--out", required=True, help="session log file to write")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def cmd_synth(args: argparse.Namespace) -> int:
    if args.participants < 1:
        raise ValueError(f"--participants must be at least 1, got {args.participants}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    manifest = generate_dataset(
        out_dir=args.out,
        n_participants=args.participants,
        duration=args.duration,
        seed=args.seed,
    )
    # Reload everything as a self-check before reporting success.
    sessions = load_dataset(manifest)
    total_bites = sum(len(s.bites) for s in sessions)
    print(f"wrote {manifest} ({len(sessions)} sessions, {total_bites} bites)")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = TrainConfig(seed=args.seed, epochs=args.epochs)
    sessions = load_dataset(args.manifest)
    windows = extract_dataset_windows(sessions)
    model, losses = train(windows, cfg, ablation=args.ablation)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    loss_path = out.with_suffix(out.suffix + ".loss.tsv")
    with loss_path.open("w", encoding="utf-8") as f:
        f.write("epoch\ttrain_mae\n")
        for epoch, loss in enumerate(losses):
            f.write(f"{epoch}\t{loss:.6f}\n")
    print(
        f"wrote {out} (ablation {args.ablation}, {model.input_dim} features, "
        f"{len(windows)} rows, final train MAE {losses[-1]:.3f} s)"
    )
    print(f"wrote {loss_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = TrainConfig(seed=args.seed, epochs=args.epochs)
    sessions = load_dataset(args.manifest)
    ablations = ABLATIONS if args.ablation == "all" else (args.ablation,)
    evaluations = []
    for ablation in ablations:
        ev = run_loso(sessions, cfg, ablation=ablation)
        evaluations.append(ev)
        print(
            f"ablation {ablation}: MAE {ev.macro_mae():.3f} s "
            f"(naive {ev.macro_naive_mae():.3f} s), "
            f"nMCC fixed {ev.macro_nmcc(DEFAULT_TAU):.3f} / "
            f"optimal {ev.macro_nmcc(None):.3f}"
        )
    for path in write_report_files(evaluations, args.out):
        print(f"wrote {path}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    policy = make_policy(args.policy, map_assertiveness(args.level))
    check_duration(args.duration)
    predictor = None
    if isinstance(policy, WafflePolicy):
        if args.model is None:
            raise ValueError("the waffle policy needs --model")
        predictor = model_predictor(load_model(args.model))
    scenario = synthesize_scenario(
        participant_id="sim",
        scenario=args.scenario,
        duration=args.duration,
        seed=args.seed,
    )
    log = run_session(
        scenario.session,
        policy,
        predictor=predictor,
        oracle=scenario.oracle,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_session_log(log, out)

    bites, mean_gap, proceed_fraction = log_summary(log)
    print(
        f"wrote {out} ({bites} bites, "
        f"mean inter-bite {mean_gap:.1f} s, "
        f"proceed fraction {proceed_fraction:.2f})"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
