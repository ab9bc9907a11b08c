"""bitetiming benchmark: one command, two workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload study --seed 1 --seconds 45 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``study``: the README quickstart as four CLI processes, one after another:
  synth, train, eval --ablation all, simulate --policy waffle --level 4.
* ``closed_loop``: an in-process controller; set-up fits and loads a small
  model, and each timed iteration fits it again in a fresh interpreter,
  then synthesizes and runs ten waffle sessions.

The workload seed is the only source of inputs. Set-up is repeated. The
timed part repeats whole iterations on the same inputs while another
iteration fits in ``--seconds``, and every iteration's artifacts must be
byte-identical to the first. Timings are means over repeats, scaled to a
reference machine speed measured by a fixed kernel run between the timed
steps (speed.py). With ``--trace 1`` the first iteration runs untraced and
the rest traced; the traced iterations give the per-layer metrics and the
untraced one the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from BENCHMARK.json (``end_to_end`` with ``--trace 0``,
``per_layer`` with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layout
from speed import Speed, pin_to_one_cpu
from tracing import DecisionTimer, Tracer, layer_metrics, percentile, span_dicts

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

# Dataset and model sizes. "full" is what the benchmark measures; "tiny"
# exists for the benchmark's own tests.
SCALES = {
    "full": {
        "study": {"participants": 3, "duration": 80.0, "epochs": 20, "sim_duration": 600.0},
        "closed_loop": {
            "fit_participants": 3,
            "fit_duration": 120.0,
            "fit_epochs": 60,
            "levels": (1, 2, 3, 4, 5),
            "sim_duration": 600.0,
        },
    },
    "tiny": {
        "study": {"participants": 2, "duration": 40.0, "epochs": 2, "sim_duration": 30.0},
        "closed_loop": {
            "fit_participants": 2,
            "fit_duration": 40.0,
            "fit_epochs": 2,
            "levels": (1, 4),
            "sim_duration": 30.0,
        },
    },
}
# Printed on every run but not in BENCHMARK.json. eval_s exists on one
# workload only; simulate_s repeats ticks_per_s. The quality figures vary
# with the seed by more than a bound allows. The decision times of study
# come from one process, and so from one memory placement of the weights,
# which moves them by up to half from seed to seed. wall_raw_s and speed are
# the unscaled wall time and the speed factor behind the scaled times.
EXTRA_UNITS = {
    "simulate_s": "s",
    "decision_p50_us": "us",
    "decision_p99_us": "us",
    "decision_samples": "count",
    "eval_s": "s",
    "loso_mae_s": "s",
    "loso_nmcc": "ratio",
    "oracle_nmcc": "ratio",
    "wall_raw_s": "s",
    "speed": "ratio",
}
CLI_SETUP_REPEATS = 9
FIT_SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
SCENARIOS = ("individual", "social")
SIM_SCENARIO = "social"  # of the study's simulate command


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: str
    work: Path
    store: Path
    checker: object = None
    tracer: object = None
    setup_speed: object = None
    speed: object = None
    quality: dict = field(default_factory=dict)
    reference: dict | None = None
    model_sha: str | None = None

    @property
    def cfg(self) -> dict:
        return SCALES[self.scale][self.workload]


@dataclass
class Iteration:
    """One pass over a workload's timed steps, timed as measured."""

    traced: bool
    times: dict = field(default_factory=dict)
    decisions_us: list = field(default_factory=list)
    elapsed_s: float = 0.0  # the whole iteration, speed samples included
    fit_s: float = 0.0  # closed_loop: the model fit that precedes the sessions

    def add(self, step: str, seconds: float, decisions_us=()) -> None:
        self.times[step] = self.times.get(step, 0.0) + seconds
        self.decisions_us += decisions_us

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_metadata(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "aslr_off": layout.aslr_off(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "seed": seed,
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in (SRC / "bitetiming").rglob("*.py")
        ),
    }


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads() -> int | str:
    """OpenBLAS thread count of numpy's bundled library, if it exposes one."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def run_child(run: Run, args: list, report: Path | None = None) -> tuple[int, float, dict]:
    """Run perfbench/child.py to completion; return exit code, wall time, report."""
    log = run.work / "children.log"
    with log.open("a", encoding="utf-8") as out:
        out.write(f"$ child.py {' '.join(str(a) for a in args)}\n")
        out.flush()
        argv = [sys.executable, str(HERE / "child.py"), *[str(a) for a in args]]
        env = layout.padded(argv, layout.environment({"PYTHONPATH": str(SRC)}))
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdout=out,
            stderr=subprocess.STDOUT,
        )
        # wait(timeout=...) polls in steps of up to 50 ms, which would show
        # in the command times; a blocking wait with a watchdog does not.
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
    data = {}
    if report is not None and report.is_file():
        data = json.loads(report.read_text(encoding="utf-8"))
        report.unlink()
    return rc, wall, data


def keep_going(run: Run, iterations: list[Iteration]) -> bool:
    """Another iteration runs while it fits in the measuring time.

    With tracing on, one untraced and at least one traced iteration run.
    """
    if run.checker.failed:
        return False
    if run.trace and len(iterations) < 2:
        return True
    measured = sum(it.elapsed_s for it in iterations)
    return measured + measured / len(iterations) <= run.seconds


def check_artifacts(run: Run, root: Path) -> None:
    """Every artifact must equal the same seed's first run, byte for byte."""
    from checks import artifact_hashes, compare_hashes

    hashes = artifact_hashes(root)
    if run.reference is None:
        if run.store.is_file():
            run.reference = json.loads(run.store.read_text(encoding="utf-8"))
        else:
            run.reference = hashes
            run.store.parent.mkdir(parents=True, exist_ok=True)
            run.store.write_text(json.dumps(hashes, indent=1), encoding="utf-8")
    compare_hashes(run.checker, hashes, run.reference)


# --------------------------------------------------------------------------
# study: the README quickstart as CLI processes


def cli_commands(run: Run, d: Path) -> list[tuple[str, list]]:
    cfg, seed = run.cfg, run.seed
    data, model = d / "data", d / "model.json"
    return [
        ("synth", ["synth", "--out", data, "--participants", cfg["participants"],
                   "--duration", cfg["duration"], "--seed", seed]),
        ("train", ["train", "--manifest", data / "manifest.json", "--out", model,
                   "--seed", seed, "--epochs", cfg["epochs"]]),
        ("eval", ["eval", "--manifest", data / "manifest.json", "--out", d / "reports",
                  "--ablation", "all", "--seed", seed, "--epochs", cfg["epochs"]]),
        ("simulate", ["simulate", "--policy", "waffle", "--model", model, "--level", 4,
                      "--duration", cfg["sim_duration"], "--seed", seed + 1,
                      "--scenario", SIM_SCENARIO, "--out", d / "session.jsonl"]),
    ]


def cli_iteration(run: Run, index: int) -> Iteration:
    traced = run.trace and index > 0
    d = run.work / f"it{index}"
    d.mkdir(parents=True)
    it, spans = Iteration(traced), []
    t0 = time.perf_counter()
    run.speed.mark()
    for name, argv in cli_commands(run, d):
        report = run.work / "child-report.json"
        args = ["cli", "--report", report]
        if traced:
            with run.tracer.span(f"bench.{name}") as span:
                args += ["--trace", "--run-id", f"it{index}.{name}", "--parent", span[0]]
                rc, wall, data = run_child(run, [*args, "--", *argv], report)
        else:
            rc, wall, data = run_child(run, [*args, "--", *argv], report)
        run.speed.mark()
        run.checker.operation(f"{name} exited with {rc}", rc == 0 and data.get("rc") == 0)
        it.add(name, wall, data.get("decisions_us", []))
        spans += data.get("spans", [])
        if rc != 0:
            break
    run.tracer.spans.extend(spans)
    it.elapsed_s = time.perf_counter() - t0
    return it


def check_cli_outputs(run: Run, d: Path) -> None:
    import checks
    from bitetiming.sim import synthesize_scenario

    cfg, c = run.cfg, run.checker
    c.run("dataset reloads", checks.check_dataset, d / "data" / "manifest.json",
          cfg["participants"] * len(SCENARIOS))
    c.run("model reloads", checks.check_model, d / "model.json")
    c.run("loss table", checks.check_loss_table, d / "model.json.loss.tsv", cfg["epochs"])
    rows = c.run("report rows", checks.check_report, d / "reports", cfg["participants"])
    if rows is not None:
        quality = c.run("LOSO quality", checks.loso_quality, rows)
        if quality is not None:
            run.quality["loso_mae_s"], run.quality["loso_nmcc"] = quality
    log = c.run("session log reloads", checks.check_log, d / "session.jsonl", cfg["sim_duration"])
    if log is not None:
        oracle = synthesize_scenario(
            "sim", SIM_SCENARIO, cfg["sim_duration"], seed=run.seed + 1
        ).oracle
        value = c.run("oracle agreement", checks.oracle_nmcc, [(log, oracle)])
        if value is not None:
            run.quality["oracle_nmcc"] = value


def cli_workload(run: Run) -> tuple[dict, list[Iteration]]:
    run.setup_speed.mark()
    setup = []
    for _ in range(CLI_SETUP_REPEATS):
        rc, wall, _ = run_child(run, ["import"])
        run.setup_speed.mark()
        run.checker.operation(f"import exited with {rc}", rc == 0)
        setup.append(wall)
    iterations: list[Iteration] = []
    while True:
        it = cli_iteration(run, len(iterations))
        iterations.append(it)
        d = run.work / f"it{len(iterations) - 1}"
        if len(iterations) == 1 and not run.checker.failed:
            check_cli_outputs(run, d)
        check_artifacts(run, d)
        shutil.rmtree(d)
        if not keep_going(run, iterations):
            break
    timed = [it for it in iterations if not it.traced]
    # Every time at the reference machine speed (speed.py): set-up by the
    # samples taken during set-up, the rest by those of the timed part. The
    # factors come from mean kernel times, so the times are means as well.
    sf, tf = run.setup_speed.factor(), run.speed.factor()
    sim_s = step_mean(timed, "simulate") * tf
    decisions = [x * tf for it in timed for x in it.decisions_us]
    ticks = len(timed[0].decisions_us) if timed else 0
    wall = mean(it.wall_s for it in timed)
    e2e = {
        "setup_s": mean(setup) * sf,
        "wall_s": wall * tf,
        "synth_s": step_mean(timed, "synth") * tf,
        "train_s": step_mean(timed, "train") * tf,
        "simulate_s": sim_s,
        "ticks_per_s": ticks / sim_s if sim_s else 0.0,
        "decision_p50_us": percentile(decisions, 50),
        "decision_p99_us": percentile(decisions, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    extra = {
        "decision_samples": len(decisions),
        "eval_s": step_mean(timed, "eval") * tf,
        "wall_raw_s": wall,
        "speed": tf,
    }
    return e2e | extra, iterations


# --------------------------------------------------------------------------
# closed_loop: in-process controller


def fit_model(run: Run, path: Path) -> float | None:
    """Fit and save the closed-loop model in a fresh interpreter, then check it.

    Returns the fit time the child measured, or None if the fit failed.
    """
    import checks

    cfg, c = run.cfg, run.checker
    report = run.work / "child-report.json"
    rc, _, data = run_child(run, [
        "fit", "--report", report, "--out", path, "--seed", run.seed,
        "--participants", cfg["fit_participants"], "--duration", cfg["fit_duration"],
        "--epochs", cfg["fit_epochs"],
    ], report)
    c.operation(f"fit exited with {rc}", rc == 0)
    if rc != 0 or c.run("model reloads", checks.check_model, path) is None:
        return None
    digest = checks.sha256(path)
    run.model_sha = run.model_sha or digest
    c.run("model is deterministic", checks.require, digest == run.model_sha, "model differs")
    return data["fit_s"]


def closed_loop_iteration(run: Run, index: int) -> tuple[Iteration, list]:
    import bitetiming.mlp as mlp
    import bitetiming.policy as policy
    import bitetiming.sim as sim

    cfg = run.cfg
    traced = run.trace and index > 0
    d = run.work / f"it{index}"
    d.mkdir(parents=True)
    it, timer = Iteration(traced), DecisionTimer()
    sessions = []
    t0 = time.perf_counter()
    # The controller restarts: a fresh process fits the model, then the
    # sessions run. The fit is timed here, where the speed samples are many.
    run.speed.mark()
    model_path = d / "model.json"
    fit_s = fit_model(run, model_path)
    run.speed.mark()
    if fit_s is None:
        it.elapsed_s = time.perf_counter() - t0
        return it, sessions
    it.fit_s = fit_s
    # Each session loads its own copy of the model, as a controller started
    # per meal would. One-row predict speed depends on where the weights land
    # in memory (up to 1.5x), so ten copies average that out where one copy
    # would make the whole run fast or slow.
    models = []
    clock = time.perf_counter
    if traced:
        run.tracer.install()
    try:
        for level in cfg["levels"]:
            for s, scenario in enumerate(SCENARIOS):
                pid = f"c{level}{s}"
                path = d / f"{pid}_{scenario}.jsonl"
                n = len(timer.samples_us)
                a = clock()
                try:
                    source = sim.synthesize_scenario(
                        pid, scenario, cfg["sim_duration"], seed=[run.seed, level, s]
                    )
                    models.append(mlp.load_model(model_path))
                    b = clock()
                    log = sim.run_session(
                        source.session,
                        timer.policy(policy.WafflePolicy(policy.map_assertiveness(level))),
                        predictor=timer.predictor(sim.model_predictor(models[-1])),
                        oracle=source.oracle,
                    )
                    sim.write_session_log(log, path)
                    c = clock()
                except Exception as e:  # a failed session is a counted failure
                    run.checker.operation(f"session {pid}: {type(e).__name__}: {e}", False)
                    run.speed.mark()
                    continue
                run.speed.mark()
                run.checker.operation(f"session {pid}", True)
                it.add("synth", b - a)
                it.add("simulate", c - b, timer.samples_us[n:])
                sessions.append((path, source.oracle))
    finally:
        it.elapsed_s = clock() - t0
        if traced:
            run.tracer.uninstall()
    return it, sessions


def closed_loop_workload(run: Run) -> tuple[dict, list[Iteration]]:
    import checks

    cfg, c = run.cfg, run.checker
    setup, ready = [], True
    run.setup_speed.mark()
    for k in range(FIT_SETUP_REPEATS):
        path = run.work / f"model{k}.json"
        t0 = time.perf_counter()
        ready = fit_model(run, path) is not None
        setup.append(time.perf_counter() - t0)
        run.setup_speed.mark()
        path.unlink(missing_ok=True)
        if not ready:
            break
    iterations: list[Iteration] = []
    while ready:
        it, sessions = closed_loop_iteration(run, len(iterations))
        iterations.append(it)
        d = run.work / f"it{len(iterations) - 1}"
        if len(iterations) == 1:
            logs = [
                (c.run(f"log {p.name} reloads", checks.check_log, p, cfg["sim_duration"]), o)
                for p, o in sessions
            ]
            logs = [(log, o) for log, o in logs if log is not None]
            value = c.run("oracle agreement", checks.oracle_nmcc, logs)
            if value is not None:
                run.quality["oracle_nmcc"] = value
        check_artifacts(run, d)
        shutil.rmtree(d)
        if not keep_going(run, iterations):
            break
    timed = [it for it in iterations if not it.traced]
    # As in cli_workload. wall_s is the sessions; the fit is train_s.
    sf, tf = run.setup_speed.factor(), run.speed.factor()
    decisions = [x * tf for it in timed for x in it.decisions_us]
    wall = mean(it.wall_s for it in timed)
    ticks = len(timed[0].decisions_us) if timed else 0
    e2e = {
        "setup_s": mean(setup) * sf,
        "wall_s": wall * tf,
        "synth_s": step_mean(timed, "synth") * tf,
        "train_s": mean(it.fit_s for it in timed) * tf,
        "simulate_s": step_mean(timed, "simulate") * tf,
        "ticks_per_s": ticks / (wall * tf) if wall else 0.0,
        "decision_p50_us": percentile(decisions, 50),
        "decision_p99_us": percentile(decisions, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"decision_samples": len(decisions), "wall_raw_s": wall, "speed": tf}
    return e2e | extra, iterations


WORKLOADS = {
    "study": cli_workload,
    "closed_loop": closed_loop_workload,
}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def step_mean(iterations: list[Iteration], step: str) -> float:
    return mean(it.times.get(step, 0.0) for it in iterations)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="bitetiming benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument(
        "--out", default=".perfbench_out", help="work directory, relative to the checkout"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bitetiming" / "__init__.py").is_file():
        fail_setup(f"no bitetiming sources under {SRC}; run from the repository root")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail_setup("BENCHMARK.json not found; run from the repository root")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import bitetiming

    if Path(bitetiming.__file__).resolve().parent != (SRC / "bitetiming").resolve():
        fail_setup(f"imported bitetiming from {bitetiming.__file__}, not {SRC}")
    from checks import Checker

    out = ROOT / args.out
    # The stored hashes are only valid for the same sizes.
    sizes = hashlib.sha256(
        json.dumps(SCALES[args.scale][args.workload], sort_keys=True).encode()
    ).hexdigest()[:12]
    work = out / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    meta = run_metadata(args.seed)
    meta["cpu"] = pin_to_one_cpu()
    run = Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=args.scale,
        work=work,
        store=out / "hashes" / f"{args.workload}-{args.scale}-seed{args.seed}-{sizes}.json",
        checker=Checker(),
        tracer=Tracer("bench"),
        setup_speed=Speed(),
        speed=Speed(),
    )
    e2e, iterations = WORKLOADS[args.workload](run)
    checker = run.checker

    layers = {}
    if run.trace:
        traced = [it for it in iterations if it.traced]
        untraced = [it for it in iterations if not it.traced]
        layers = layer_metrics(run.tracer.spans, len(traced))
        layers["evaluation.loso_mae_s"] = run.quality.get("loso_mae_s", 0.0)
        layers["evaluation.loso_nmcc"] = run.quality.get("loso_nmcc", 0.0)
        layers["policy.oracle_nmcc"] = run.quality.get("oracle_nmcc", 0.0)
        layers["trace.overhead_ratio"] = (
            median(it.wall_s for it in traced) / median(it.wall_s for it in untraced)
            if traced and untraced else 0.0
        )
        layers["trace.spans"] = len(run.tracer.spans) / max(len(traced), 1)

    spec_metrics = spec["per_layer"] if run.trace else spec["end_to_end"]
    values = layers if run.trace else e2e
    metrics = {}
    for m in spec_metrics:
        if m["name"] not in values:
            checker.fail(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    error_rate = checker.failed / max(checker.attempted, 1)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(f"# iterations: {len(iterations)} "
          f"({sum(it.traced for it in iterations)} traced)")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | EXTRA_UNITS
    extras = {k: v for k, v in e2e.items() if k not in metrics}
    if not run.trace:
        extras |= run.quality
    if extras:
        print("# not gated" + (", end-to-end from the untraced iteration" if run.trace else ""))
    for name, value in extras.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    print(f"{'error_rate':40s} {error_rate:.6g} ratio ({checker.failed} failed "
          f"of {checker.attempted} attempted)")
    for message in checker.errors[:20]:
        print(f"# failed: {message}")

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    record = {
        "meta": meta,
        "args": vars(args),
        "end_to_end": e2e,
        "quality": run.quality,
        "per_layer": layers,
        "iterations": [
            {"times": it.times, "fit_s": it.fit_s, "elapsed_s": it.elapsed_s,
             "traced": it.traced}
            for it in iterations
        ],
        "speed_samples_s": {"setup": run.setup_speed.samples, "timed": run.speed.samples},
        "errors": checker.errors,
        "result": result,
    }
    if run.trace:
        record["spans"] = span_dicts(run.tracer.spans)
    (work / ("trace.json" if run.trace else "result.json")).write_text(
        json.dumps(record), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    layout.reexec_with_fixed_layout()
    sys.exit(main())
