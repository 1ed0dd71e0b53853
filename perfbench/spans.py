"""In-memory span tracing around surrkit's public functions.

A traced run installs wrappers from this file; surrkit itself is untouched.
Each wrapper records one span (id, parent id, name, start, end) per call and
may add to a named counter from the call's arguments or result. Spans stay in
memory until the run ends, then go to a JSONL file. Per-layer metrics are
computed from the spans and counters after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _tree_bytes(path) -> int:
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _count_entries(key):
    return lambda args, result: {key: len(result.entries)}


# (home module, attribute, span name, counter hook). ``Class.method`` targets
# a method. A hook maps (args, result) to counter increments.
TARGETS = (
    ("surrkit.gpr", "kernel_eval", "gpr.kernel_eval", None),
    ("surrkit.gpr", "cholesky", "gpr.cholesky", None),
    ("surrkit.gpr", "gpr_fit", "gpr.gpr_fit", None),
    ("surrkit.gpr", "optimize_hyperparameters", "gpr.optimize", None),
    ("surrkit.gpr", "gpr_predict", "gpr.gpr_predict", None),
    ("surrkit.mlp", "mlp_train", "mlp.mlp_train",
     lambda args, result: {"mlp.epochs": len(result.training_history)}),
    ("surrkit.mlp", "loss_gradients", "mlp.loss_gradients", None),
    ("surrkit.tuner", "tune_gpr", "tuner.tune_gpr", _count_entries("tuner.gpr_candidates")),
    ("surrkit.tuner", "tune_mlp", "tuner.tune_mlp", _count_entries("tuner.mlp_candidates")),
    ("surrkit.preprocess", "preprocess_data_pipeline", "preprocess.pipeline", None),
    ("surrkit.preprocess", "transform", "preprocess.transform", None),
    ("surrkit.preprocess", "inverse_transform", "preprocess.inverse_transform", None),
    ("surrkit.multifid", "train_mf", "multifid.train_mf", None),
    ("surrkit.multifid", "build_mf_input", "multifid.build_mf_input", None),
    ("surrkit.multifid", "FittedSurrogate.predict_raw", "multifid.predict_raw", None),
    ("surrkit.multifid", "MfComposite.predict_raw", "multifid.predict_raw", None),
    ("surrkit.modelstore", "save_model", "modelstore.save_model",
     lambda args, result: {"modelstore.save_model.bytes": _tree_bytes(result)}),
    ("surrkit.modelstore", "load_model", "modelstore.load_model", None),
    ("surrkit.data", "import_tensor", "data.import_tensor",
     lambda args, result: {"data.import_tensor.bytes": _tree_bytes(args[0])}),
    ("surrkit.data", "export_tensor", "data.export_tensor",
     lambda args, result: {"data.export_tensor.bytes": _tree_bytes(result)}),
    ("surrkit.metrics", "uq_report", "metrics.uq_report", None),
    ("surrkit.metrics", "evaluate", "metrics.evaluate", None),
    ("surrkit.cli", "cmd_mf_train", "cli.mf_train", None),
)


class Tracer:
    """Span and counter store for one traced run, single-threaded."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = [-1]
        self._next_id = 0

    def wrap(self, fn, name: str, hook=None):
        tracer, stack, record, clock = self, self._stack, self.spans.append, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counters[f"{name}.failed"] += 1
                raise
            finally:
                stack.pop()
                record((span_id, parent, name, start, clock()))
            if hook is not None:
                for key, value in hook(args, result).items():
                    tracer.counters[key] += value
            return result

        return wrapper

    def span_cost_s(self, calls: int = 20000) -> float:
        """Seconds one wrapper adds to a call: a wrapped no-op against a
        plain one, timed in this process. Times the span count, this gives a
        tracing overhead that machine noise does not swamp."""

        def noop():
            return None

        wrapped = Tracer().wrap(noop, "noop")
        cost = []
        for fn in (noop, wrapped):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            cost.append(time.perf_counter() - start)
        return max(0.0, (cost[1] - cost[0]) / calls)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps([span_id, parent, name, start, end]) + "\n")


def _resolve(module, attr: str):
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Replace every target in its home module and in each surrkit module
    that imported it by name. Returns what :func:`restore` needs."""
    replaced = []
    for module_name, attr, span_name, hook in TARGETS:
        home = importlib.import_module(module_name)
        owner, name = _resolve(home, attr)
        original = owner.__dict__[name]
        wrapper = tracer.wrap(original, span_name, hook)
        owners = [owner]
        if owner is home:
            owners += [
                mod for key, mod in sorted(sys.modules.items())
                if mod is not home and (key == "surrkit" or key.startswith("surrkit."))
                and mod.__dict__.get(name) is original
            ]
        for target in owners:
            replaced.append((target, name, original))
            setattr(target, name, wrapper)
    return replaced


def restore(replaced: list[tuple[object, str, object]]) -> None:
    for owner, name, original in reversed(replaced):
        setattr(owner, name, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls and inclusive seconds (outermost spans of that
    name only, so recursion is not counted twice) and self seconds (each
    span's duration minus the part of it its children cover)."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        children[parent].append((start, end))
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for span_id, parent, name, start, end in spans:
        entry = stats[name]
        entry["self_s"] += (end - start) - _covered(children.get(span_id, []), start, end)
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            entry["calls"] += 1
            entry["s"] += end - start
    return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""
    st = span_stats(tracer.spans)
    c = tracer.counters
    by_id = {s[0]: s for s in tracer.spans}
    fits_in_optimize = sum(
        1 for s in tracer.spans
        if s[2] == "gpr.gpr_fit" and by_id.get(s[1], (0, 0, ""))[2] == "gpr.optimize"
    )
    fits = st["gpr.gpr_fit"]["calls"]
    gpr_cands, mlp_cands = c["tuner.gpr_candidates"], c["tuner.mlp_candidates"]
    epochs = c["mlp.epochs"]
    out = {
        "gpr.kernel_eval.calls": (st["gpr.kernel_eval"]["calls"], "count"),
        "gpr.kernel_eval.s": (st["gpr.kernel_eval"]["s"], "s"),
        "gpr.cholesky.calls": (st["gpr.cholesky"]["calls"], "count"),
        "gpr.cholesky.s": (st["gpr.cholesky"]["s"], "s"),
        "gpr.cholesky.failed": (c["gpr.cholesky.failed"], "count"),
        "gpr.gpr_fit.calls": (fits, "count"),
        "gpr.gpr_fit.self_s": (st["gpr.gpr_fit"]["self_s"], "s"),
        "gpr.optimize.calls": (st["gpr.optimize"]["calls"], "count"),
        "gpr.optimize.s": (st["gpr.optimize"]["s"], "s"),
        "gpr.lml_evals_per_optimize": (
            _ratio(fits_in_optimize, st["gpr.optimize"]["calls"]), "count"),
        "gpr.gpr_predict.calls": (st["gpr.gpr_predict"]["calls"], "count"),
        "gpr.gpr_predict.self_s": (st["gpr.gpr_predict"]["self_s"], "s"),
        "mlp.mlp_train.calls": (st["mlp.mlp_train"]["calls"], "count"),
        "mlp.mlp_train.s": (st["mlp.mlp_train"]["s"], "s"),
        "mlp.epochs": (epochs, "count"),
        "mlp.s_per_epoch": (_ratio(st["mlp.mlp_train"]["s"], epochs), "s"),
        "mlp.loss_gradients.calls": (st["mlp.loss_gradients"]["calls"], "count"),
        "mlp.loss_gradients.s": (st["mlp.loss_gradients"]["s"], "s"),
        "tuner.tune_gpr.s": (st["tuner.tune_gpr"]["s"], "s"),
        "tuner.tune_mlp.s": (st["tuner.tune_mlp"]["s"], "s"),
        "tuner.candidates": (gpr_cands + mlp_cands, "count"),
        "tuner.mlp_trains_per_candidate": (
            _ratio(st["mlp.mlp_train"]["calls"], mlp_cands), "count"),
        "tuner.gpr_refits_per_candidate": (_ratio(fits - fits_in_optimize, gpr_cands), "count"),
        "preprocess.pipeline.s": (st["preprocess.pipeline"]["s"], "s"),
        "preprocess.transform.calls": (st["preprocess.transform"]["calls"], "count"),
        "preprocess.transform.s": (st["preprocess.transform"]["s"], "s"),
        "preprocess.inverse_transform.calls": (
            st["preprocess.inverse_transform"]["calls"], "count"),
        "preprocess.inverse_transform.s": (st["preprocess.inverse_transform"]["s"], "s"),
        "multifid.train_mf.s": (st["multifid.train_mf"]["s"], "s"),
        "multifid.build_mf_input.calls": (st["multifid.build_mf_input"]["calls"], "count"),
        "multifid.build_mf_input.s": (st["multifid.build_mf_input"]["s"], "s"),
        "multifid.predict_raw.self_s": (st["multifid.predict_raw"]["self_s"], "s"),
        "modelstore.save_model.calls": (st["modelstore.save_model"]["calls"], "count"),
        "modelstore.save_model.s": (st["modelstore.save_model"]["s"], "s"),
        "modelstore.save_model.bytes": (c["modelstore.save_model.bytes"], "bytes"),
        "modelstore.load_model.calls": (st["modelstore.load_model"]["calls"], "count"),
        "modelstore.load_model.s": (st["modelstore.load_model"]["s"], "s"),
        "data.import_tensor.calls": (st["data.import_tensor"]["calls"], "count"),
        "data.import_tensor.s": (st["data.import_tensor"]["s"], "s"),
        "data.import_tensor.bytes": (c["data.import_tensor.bytes"], "bytes"),
        "data.export_tensor.calls": (st["data.export_tensor"]["calls"], "count"),
        "data.export_tensor.s": (st["data.export_tensor"]["s"], "s"),
        "data.export_tensor.bytes": (c["data.export_tensor.bytes"], "bytes"),
        "metrics.uq_report.calls": (st["metrics.uq_report"]["calls"], "count"),
        "metrics.uq_report.self_s": (st["metrics.uq_report"]["self_s"], "s"),
        "metrics.evaluate.s": (st["metrics.evaluate"]["s"], "s"),
        "cli.mf_train.self_s": (st["cli.mf_train"]["self_s"], "s"),
    }
    return {k: (float(v), unit) for k, (v, unit) in out.items()}

