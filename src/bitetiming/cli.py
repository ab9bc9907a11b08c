"""Command-line entry points: synth, train, eval, simulate.

Every command is deterministic given its ``--seed`` and exits 0 only after
its outputs are written and validated.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dataio import SCENARIOS, load_dataset
from .errors import ParseError
from .evaluation import run_loso, write_report_files
from .features import ABLATIONS
from .mlp import TrainConfig, load_model, save_model, train
from .pipeline import extract_dataset_windows
from .policy import (
    POLICY_NAMES,
    AssertivenessThreshold,
    Command,
    make_policy,
    map_assertiveness,
)
from .sim import (
    model_predictor,
    run_session,
    generate_dataset,
    synthesize_scenario,
    write_session_log,
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
    p_synth.add_argument("--style-spread", type=float, default=1.0)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="fit a regressor on a dataset manifest")
    p_train.add_argument("--manifest", required=True)
    p_train.add_argument("--out", required=True, help="model file to write")
    p_train.add_argument("--ablation", choices=ABLATIONS, default="imu+mic")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--epochs", type=int, default=100)
    p_train.add_argument(
        "--loss-out", default=None, help="loss table path (default: <out>.loss.tsv)"
    )
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
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--epochs", type=int, default=100)
    p_eval.add_argument("--tau", type=float, default=6.0, help="fixed threshold (s)")
    p_eval.set_defaults(func=cmd_eval)

    p_sim = sub.add_parser("simulate", help="closed-loop feeding simulation")
    p_sim.add_argument("--policy", choices=POLICY_NAMES, default="waffle")
    p_sim.add_argument("--model", default=None, help="model file (waffle policy)")
    p_sim.add_argument("--tau", type=float, default=None, help="threshold in seconds")
    p_sim.add_argument(
        "--level", type=int, default=None, help="assertiveness level 1..5"
    )
    p_sim.add_argument("--duration", type=float, default=150.0)
    p_sim.add_argument("--seed", type=int, default=7)
    p_sim.add_argument("--participant", default="sim")
    p_sim.add_argument("--scenario", choices=SCENARIOS, default="individual")
    p_sim.add_argument("--style-spread", type=float, default=1.0)
    p_sim.add_argument("--out", required=True, help="session log file to write")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def cmd_synth(args: argparse.Namespace) -> int:
    if args.participants < 1:
        raise ValueError(f"--participants must be at least 1, got {args.participants}")
    manifest = generate_dataset(
        out_dir=args.out,
        n_participants=args.participants,
        duration=args.duration,
        seed=args.seed,
        style_spread=args.style_spread,
    )
    # Reload everything as a self-check before reporting success.
    sessions = load_dataset(manifest)
    total_bites = sum(len(s.bites) for s in sessions)
    print(f"wrote {manifest} ({len(sessions)} sessions, {total_bites} bites)")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    sessions = load_dataset(args.manifest)
    windows = extract_dataset_windows(sessions)
    cfg = TrainConfig(seed=args.seed, epochs=args.epochs)
    model, losses = train(windows, cfg, ablation=args.ablation)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    loss_path = Path(args.loss_out) if args.loss_out else out.with_suffix(
        out.suffix + ".loss.tsv"
    )
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
    sessions = load_dataset(args.manifest)
    cfg = TrainConfig(seed=args.seed, epochs=args.epochs)
    ablations = ABLATIONS if args.ablation == "all" else (args.ablation,)
    evaluations = []
    for ablation in ablations:
        ev = run_loso(sessions, cfg, ablation=ablation, fixed_tau=args.tau)
        evaluations.append(ev)
        print(
            f"ablation {ablation}: MAE {ev.macro_mae():.3f} s "
            f"(naive {ev.macro_naive_mae():.3f} s), "
            f"nMCC fixed {ev.macro_nmcc(ev.fixed_tau):.3f} / "
            f"optimal {ev.macro_nmcc(None):.3f}"
        )
    for path in write_report_files(evaluations, args.out):
        print(f"wrote {path}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.tau is not None and args.level is not None:
        raise ValueError("give either --tau or --level, not both")
    if args.level is not None:
        threshold = map_assertiveness(args.level)
    elif args.tau is not None:
        threshold = AssertivenessThreshold(args.tau)
    else:
        threshold = map_assertiveness(3)

    scenario = synthesize_scenario(
        participant_id=args.participant,
        scenario=args.scenario,
        duration=args.duration,
        seed=args.seed,
        style_spread=args.style_spread,
    )
    policy = make_policy(args.policy, threshold)
    predictor = None
    if args.policy == "waffle":
        if args.model is None:
            raise ValueError("the waffle policy needs --model")
        predictor = model_predictor(load_model(args.model))

    log = run_session(
        scenario.session,
        policy,
        predictor=predictor,
        oracle=scenario.oracle,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_session_log(log, out)

    arrivals = [b.feeding_arrival_t for b in log.bites]
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    mean_gap = sum(gaps) / len(gaps) if gaps else float("nan")
    proceedish = sum(
        1
        for tick in log.ticks
        if tick.command in (Command.PROCEED, Command.TRIGGER_FULL_TRAJECTORY)
    )
    print(
        f"wrote {out} ({log.bite_count()} bites, "
        f"mean inter-bite {mean_gap:.1f} s, "
        f"proceed fraction {proceedish / max(len(log.ticks), 1):.2f})"
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
