"""Span tracing of bitetiming's module boundaries, installed from outside.

The package itself carries no instrumentation. ``Tracer.install`` replaces
selected public functions with wrappers that record one span per call:
id, parent id, name, start, end, whether it raised, and a few counts taken
at the same boundary (bytes, rows, ticks). A function is replaced under
every name that refers to it, so calls through an imported name such as
``bitetiming.evaluation.train`` are seen too. Spans stay in memory until
the caller writes them out.

``DecisionTimer`` times one closed-loop decision: the predictor call plus
``policy.step``. It runs in untraced runs as well, because decision latency
is an end-to-end metric.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import statistics
import sys
import time

LAYERS = (
    "cli",
    "dataio",
    "sim",
    "signals",
    "features",
    "pipeline",
    "mlp",
    "evaluation",
    "policy",
)

PROCEED_VALUES = ("proceed", "trigger_full_trajectory")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(index, name):
    def measure(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}

    return measure


def _train_steps(args, kwargs, result):
    windows = _arg(args, kwargs, 0, "windows")
    cfg = _arg(args, kwargs, 1, "cfg")
    return {"steps": cfg.epochs * math.ceil(len(windows) / cfg.batch_size)}


def _predict_rows(args, kwargs, result):
    shape = getattr(_arg(args, kwargs, 1, "features"), "shape", ())
    return {"rows": 1 if len(shape) <= 1 else int(shape[0])}


def _session_key(args, kwargs, result):
    session = _arg(args, kwargs, 0, "session")
    return {"session": f"{session.participant_id}/{session.scenario}"}


def _step_proceeds(args, kwargs, result):
    return {"proceed": result.value in PROCEED_VALUES}


# "module.function" (or "module.Class.method") -> (span name, count hook).
TARGETS = {
    "cli.cmd_synth": ("cli.synth", None),
    "cli.cmd_train": ("cli.train", None),
    "cli.cmd_eval": ("cli.eval", None),
    "cli.cmd_simulate": ("cli.simulate", None),
    "dataio.write_session": ("dataio.write_session", _file_bytes(1, "path")),
    "dataio.read_session": ("dataio.read_session", _file_bytes(0, "path")),
    "dataio.load_dataset": ("dataio.load_dataset", None),
    "sim.generate_dataset": ("sim.generate_dataset", None),
    "sim.synthesize_scenario": ("sim.synthesize_scenario", None),
    "sim.run_session": (
        "sim.run_session",
        lambda a, k, r: {"ticks": len(r.ticks)},
    ),
    "sim.write_session_log": ("sim.write_session_log", None),
    "sim.read_session_log": ("sim.read_session_log", None),
    "signals.resample_linear": ("signals.resample_linear", None),
    "signals.slice_windows": (
        "signals.slice_windows",
        lambda a, k, r: {"windows": len(r)},
    ),
    "features.build_feature_vector": ("features.build_feature_vector", None),
    "pipeline.extract_labeled_windows": (
        "pipeline.extract_labeled_windows",
        _session_key,
    ),
    "pipeline.extract_dataset_windows": ("pipeline.extract_dataset_windows", None),
    "mlp.train": ("mlp.train", _train_steps),
    "mlp.predict": ("mlp.predict", _predict_rows),
    "mlp.save_model": ("mlp.save_model", None),
    "mlp.load_model": ("mlp.load_model", None),
    "mlp.model_digest": ("mlp.model_digest", None),
    "evaluation.run_loso": (
        "evaluation.run_loso",
        lambda a, k, r: {"folds": len(r.folds)},
    ),
    "evaluation.evaluate_alignment": ("evaluation.evaluate_alignment", None),
    "evaluation.sweep_thresholds": ("evaluation.sweep_thresholds", None),
    "evaluation.write_report_files": ("evaluation.write_report_files", None),
    "policy.WafflePolicy.step": ("policy.step", _step_proceeds),
}

# Span fields, in the order each span list holds them.
ID, PARENT, NAME, START, END, FAILED, COUNTS = range(7)


class Tracer:
    """Records spans for one process; ``run_id`` prefixes every span id."""

    def __init__(self, run_id: str, root_parent: str | None = None) -> None:
        self.run_id = run_id
        self.root_parent = root_parent
        self.spans: list[list] = []
        self._stack: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [
            f"{self.run_id}/{len(self.spans)}",
            self._stack[-1] if self._stack else self.root_parent,
            name,
            time.perf_counter(),
            None,
            False,
            None,
        ]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[FAILED] = True
                raise
            finally:
                self._close(span)
            if measure is not None:
                span[COUNTS] = measure(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around benchmark code."""
        span = self._open(name)
        try:
            yield span
        except Exception:
            span[FAILED] = True
            raise
        finally:
            self._close(span)

    def install(self) -> None:
        """Wrap every target under every name in the package that refers to it."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "bitetiming" or key.startswith("bitetiming."))
        ]
        for target, (name, measure) in TARGETS.items():
            module_name, _, attr = target.partition(".")
            owner = importlib.import_module(f"bitetiming.{module_name}")
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
                modules_to_scan = []
            else:
                modules_to_scan = modules
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, measure)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            for module in modules_to_scan:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


class DecisionTimer:
    """Per-tick decision time: predictor call plus ``policy.step``, in us."""

    def __init__(self) -> None:
        self.samples_us: list[float] = []
        self._pending = 0.0

    def predictor(self, predict):
        clock = time.perf_counter

        def timed(feature_row, window_end_t):
            t0 = clock()
            y_hat = predict(feature_row, window_end_t)
            self._pending += clock() - t0
            return y_hat

        return timed

    def policy(self, policy):
        step = policy.step
        clock = time.perf_counter
        samples = self.samples_us

        def timed(inputs):
            t0 = clock()
            command = step(inputs)
            samples.append((self._pending + clock() - t0) * 1e6)
            self._pending = 0.0
            return command

        policy.step = timed
        return policy

    def install_on_cli(self, cli) -> None:
        """Time decisions of ``bitetiming.cli.cmd_simulate``."""
        make_policy, model_predictor = cli.make_policy, cli.model_predictor
        cli.make_policy = lambda *a, **k: self.policy(make_policy(*a, **k))
        cli.model_predictor = lambda model: self.predictor(model_predictor(model))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def span_dicts(spans: list[list]) -> list[dict]:
    keys = ("id", "parent", "name", "start", "end", "failed", "counts")
    return [dict(zip(keys, s)) for s in spans]


class SpanIndex:
    """Aggregates over a list of spans: totals, self time and ancestry."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.by_id = {s[ID]: s for s in spans}
        child_time: dict[str, float] = {}
        for s in spans:
            if s[PARENT] is not None:
                child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]
        self.child_time = child_time

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[NAME] == name]

    def total(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.named(name))

    def self_time(self, spans: list[list]) -> float:
        return sum(
            s[END] - s[START] - self.child_time.get(s[ID], 0.0) for s in spans
        )

    def count(self, name: str, key: str) -> float:
        return sum((s[COUNTS] or {}).get(key, 0) for s in self.named(name))

    def under(self, span: list, ancestor_name: str) -> bool:
        parent = span[PARENT]
        while parent is not None and parent in self.by_id:
            node = self.by_id[parent]
            if node[NAME] == ancestor_name:
                return True
            parent = node[PARENT]
        return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], iterations: int) -> dict[str, float]:
    """Per-layer metrics from traced spans, per traced iteration.

    Times and counts are divided by ``iterations``; rates, ratios and
    per-call medians are not. A metric whose layer made no call reads 0.
    """
    ix = SpanIndex(spans)
    n = max(iterations, 1)
    m: dict[str, float] = {}
    for command in ("synth", "train", "eval", "simulate"):
        m[f"cli.{command}.s"] = ix.total(f"cli.{command}") / n
    m["cli.self_s"] = ix.self_time([s for s in spans if s[NAME].startswith("cli.")]) / n

    for op, direction in (("write_session", "written"), ("read_session", "read")):
        secs = ix.total(f"dataio.{op}")
        nbytes = ix.count(f"dataio.{op}", "bytes")
        m[f"dataio.{op}.s"] = secs / n
        m[f"dataio.{op}.mb_per_s"] = _ratio(nbytes / 1e6, secs)
        m[f"dataio.bytes_{direction}"] = nbytes / n

    m["sim.synthesize_scenario.s"] = ix.total("sim.synthesize_scenario") / n
    m["sim.run_session.s"] = ix.total("sim.run_session") / n
    m["sim.run_session.self_s"] = ix.self_time(ix.named("sim.run_session")) / n
    m["sim.ticks"] = ix.count("sim.run_session", "ticks") / n
    m["sim.write_session_log.s"] = ix.total("sim.write_session_log") / n

    m["signals.resample_linear.s"] = ix.total("signals.resample_linear") / n
    m["signals.slice_windows.s"] = ix.total("signals.slice_windows") / n
    m["signals.windows"] = ix.count("signals.slice_windows", "windows") / n

    features = ix.named("features.build_feature_vector")
    features_s = ix.total("features.build_feature_vector")
    m["features.build_feature_vector.s"] = features_s / n
    m["features.build_feature_vector.calls"] = len(features) / n
    m["features.rows_per_s"] = _ratio(len(features), features_s)

    extracts = ix.named("pipeline.extract_labeled_windows")
    m["pipeline.extract_labeled_windows.s"] = ix.total("pipeline.extract_labeled_windows") / n
    m["pipeline.extract_labeled_windows.calls"] = len(extracts) / n
    m["pipeline.extract_labeled_windows.self_s"] = ix.self_time(extracts) / n
    loso_extracts = [s for s in extracts if ix.under(s, "evaluation.run_loso")]
    unique = {(s[ID].split("/")[0], s[COUNTS]["session"]) for s in loso_extracts}
    m["pipeline.useful_extract_ratio"] = _ratio(len(unique), len(loso_extracts))

    train_s = ix.total("mlp.train")
    steps = ix.count("mlp.train", "steps")
    predicts = ix.named("mlp.predict")
    single = [
        (s[END] - s[START]) * 1e6 for s in predicts if (s[COUNTS] or {}).get("rows") == 1
    ]
    m["mlp.train.s"] = train_s / n
    m["mlp.train.steps"] = steps / n
    m["mlp.step_us"] = _ratio(train_s * 1e6, steps)
    m["mlp.predict.s"] = ix.total("mlp.predict") / n
    m["mlp.predict.rows"] = ix.count("mlp.predict", "rows") / n
    m["mlp.predict.single_us"] = statistics.median(single) if single else 0.0
    m["mlp.save_model.s"] = ix.total("mlp.save_model") / n
    m["mlp.load_model.s"] = ix.total("mlp.load_model") / n

    loso = ix.named("evaluation.run_loso")
    folds = ix.count("evaluation.run_loso", "folds")
    loso_predicts = sum(1 for s in predicts if ix.under(s, "evaluation.run_loso"))
    m["evaluation.run_loso.s"] = ix.total("evaluation.run_loso") / n
    m["evaluation.run_loso.self_s"] = ix.self_time(loso) / n
    m["evaluation.fold_s"] = _ratio(ix.total("evaluation.run_loso"), folds)
    m["evaluation.predict_calls_per_fold"] = _ratio(loso_predicts, folds)
    m["evaluation.useful_predict_ratio"] = _ratio(folds, loso_predicts)

    policy_steps = ix.named("policy.step")
    m["policy.step.calls"] = len(policy_steps) / n
    m["policy.step_us"] = (
        statistics.median((s[END] - s[START]) * 1e6 for s in policy_steps)
        if policy_steps
        else 0.0
    )
    m["policy.proceed_frac"] = _ratio(ix.count("policy.step", "proceed"), len(policy_steps))

    for layer in LAYERS:
        m[f"{layer}.failed"] = float(
            sum(1 for s in spans if s[FAILED] and s[NAME].startswith(layer + "."))
        )
    return m
