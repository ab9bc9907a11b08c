"""One fresh interpreter for the benchmark: import, run a CLI command, or fit.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/child.py import
    python3 perfbench/child.py cli --report R.json [--trace] [--run-id ID]
        [--parent SPAN] -- <bitetiming CLI arguments>
    python3 perfbench/child.py fit --report R.json --out MODEL.json --seed N
        --participants P --duration D --epochs E

``cli`` runs ``bitetiming.cli.main`` and writes its exit code, the decision
times of a ``simulate`` command and, with ``--trace``, the spans of every
instrumented call to the report file. ``fit`` synthesizes a small dataset in
memory, extracts windows, trains and saves a model, and reports how long
the fit took.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from tracing import DecisionTimer, Tracer


def run_cli(args: argparse.Namespace) -> int:
    import bitetiming.cli as cli

    tracer = Tracer(args.run_id, args.parent) if args.trace else None
    if tracer is not None:
        tracer.install()
    decisions = DecisionTimer()
    if args.argv[:1] == ["simulate"]:
        decisions.install_on_cli(cli)
    rc = 1
    try:
        rc = cli.main(args.argv)
    finally:
        report = {
            "rc": rc,
            "decisions_us": decisions.samples_us,
            "spans": tracer.spans if tracer is not None else [],
        }
        Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return rc


def run_fit(args: argparse.Namespace) -> int:
    from bitetiming.mlp import TrainConfig, save_model, train
    from bitetiming.pipeline import extract_dataset_windows
    from bitetiming.sim import generate_synthetic_session

    sessions = [
        generate_synthetic_session(
            f"f{p:02d}", scenario, args.duration, seed=[args.seed, p, s]
        )
        for p in range(args.participants)
        for s, scenario in enumerate(("individual", "social"))
    ]
    t0 = time.perf_counter()
    windows = extract_dataset_windows(sessions)
    model, _ = train(windows, TrainConfig(seed=args.seed, epochs=args.epochs))
    save_model(model, args.out)
    fit_s = time.perf_counter() - t0
    Path(args.report).write_text(
        json.dumps({"rc": 0, "fit_s": fit_s, "rows": len(windows)}), encoding="utf-8"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("import")
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--report", required=True)
    p_cli.add_argument("--trace", action="store_true")
    p_cli.add_argument("--run-id", default="cli")
    p_cli.add_argument("--parent", default=None)
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    p_fit = sub.add_parser("fit")
    p_fit.add_argument("--report", required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--seed", type=int, required=True)
    p_fit.add_argument("--participants", type=int, required=True)
    p_fit.add_argument("--duration", type=float, required=True)
    p_fit.add_argument("--epochs", type=int, required=True)
    args = parser.parse_args()
    if args.mode == "import":
        import bitetiming  # noqa: F401

        return 0
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return run_cli(args)
    return run_fit(args)


if __name__ == "__main__":
    sys.exit(main())
