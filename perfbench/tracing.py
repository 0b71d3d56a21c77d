"""Per-layer spans around mixval's public functions, installed from outside.

The library has no spans of its own, so the traced run wraps the public
functions of each module and rebinds every name that refers to them:
``valuation`` imports ``ntk_gram``, ``bound_term``, ``mmd`` and
``pool_contributors`` itself, ``evalharness`` imports ``gradients`` and
``predict``, and the package ``__init__`` re-exports them.  A wrapper
left only on the defining module would miss those calls.  Submodules
are fetched with ``importlib``: ``mixval.mmd`` as a package attribute is
the re-exported function, not the module.

Each span records calls, busy time (its own duration) and self time
(busy time minus the time of wrapped children), plus exact work counts
computed from argument shapes and return values.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from mixval.errors import MixvalError


@dataclass
class Span:
    """Totals of one wrapped function over one job."""

    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    failed: int = 0
    durations: list[float] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Counters run after a successful call with (tracer, span, args, kwargs,
# result).  Each derives a work count that depends only on the inputs.


def _count_index_evals(tracer, span, args, kwargs, result):
    span.add("index_evals", _arg(args, kwargs, 0, "params").support_max)


def _count_kernel_entries(tracer, span, args, kwargs, result):
    x, y = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "y")
    bank = len(_arg(args, kwargs, 2, "spec").kernels)
    nx, ny = len(x), len(y)
    span.add("kernel_entries", bank * (nx * nx + ny * ny + nx * ny))


def _count_rows(tracer, span, args, kwargs, result):
    span.add("rows", len(_arg(args, kwargs, 2, "x")))


def _count_gram(tracer, span, args, kwargs, result):
    n_params = _arg(args, kwargs, 0, "spec").n_params
    span.add("flops", 2 * result.n * result.n * n_params)
    # bound_term sees only the Gram; remember its parameter count
    tracer.gram_params[id(result)] = n_params


def _count_bound(tracer, span, args, kwargs, result):
    gram = _arg(args, kwargs, 0, "gram")
    span.add("n_gt_p", int(gram.n > tracer.gram_params[id(gram)]))


def _count_pool(tracer, span, args, kwargs, result):
    span.add("rows", result.n_total)


def _count_train(tracer, span, args, kwargs, result):
    config = _arg(args, kwargs, 3, "config")
    span.add("epochs", result.epochs)
    span.add("diverged", int(result.diverged))
    span.add("converged", int(not result.diverged and result.epochs < config.max_epochs))


# (module, function, span name, counter).  The last group are library
# entry points the CLI calls; their spans keep the library's own loops
# out of the CLI's self time.
LAYERS = (
    ("scaling", "sweep", "scaling.sweep", None),
    ("scaling", "expected_test_error_exact", "scaling.exact", _count_index_evals),
    ("scaling", "detect_breakpoints", "scaling.detect", None),
    ("mmd", "mmd", "mmd.mmd", _count_kernel_entries),
    ("mmd", "median_heuristic", "mmd.median", None),
    ("ntk", "gradients", "ntk.gradients", _count_rows),
    ("ntk", "predict", "ntk.predict", None),
    ("ntk", "ntk_gram", "ntk.gram", _count_gram),
    ("ntk", "bound_term", "ntk.bound", _count_bound),
    ("longtail", "pool_contributors", "longtail.pool", _count_pool),
    ("longtail", "make_contributors", "longtail.make", None),
    ("valuation", "score", "valuation.score", None),
    ("evalharness", "train_model", "evalharness.train", _count_train),
    ("cli", "main", "cli.main", None),
    ("valuation", "score_all", "valuation.score_all", None),
    ("valuation", "marginal_values", "valuation.marginal", None),
    ("evalharness", "train_ground_truth", "evalharness.ground_truth", None),
)


class Tracer:
    """Spans for one job at a time; ``installed()`` puts the wrappers in place."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.gram_params: dict[int, int] = {}
        self._stack: list[list[float]] = []

    def reset(self) -> dict[str, Span]:
        """Return the spans recorded so far and start a fresh set."""
        spans, self.spans = self.spans, {}
        self.gram_params = {}
        return spans

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.spans.setdefault(name, Span())
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except MixvalError:
                span.failed += 1
                raise
            finally:
                took = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += took
                span.calls += 1
                span.busy += took
                span.self_time += took - children[0]
                span.durations.append(took)
            if counter is not None:
                counter(self, span, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every mixval name bound to a traced function, then restore."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "mixval" or n.startswith("mixval.")
        ]
        rebound = []
        try:
            for module_name, fn_name, span_name, counter in LAYERS:
                original = vars(importlib.import_module(f"mixval.{module_name}"))[fn_name]
                wrapper = self._wrap(span_name, original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            rebound.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(rebound):
                setattr(module, attr, original)


# Per-layer metrics: name -> (unit, better).  Counts come from the first
# job of a run (fixed inputs for a given seed), times are medians over
# the run's traced jobs.
LAYER_METRICS = {
    "scaling.sweep.busy_s": ("s", "lower"),
    "scaling.exact.calls": ("count", "lower"),
    "scaling.exact.busy_s": ("s", "lower"),
    "scaling.exact.self_s": ("s", "lower"),
    "scaling.exact.index_evals": ("count", "lower"),
    "scaling.detect.busy_s": ("s", "lower"),
    "mmd.mmd.calls": ("count", "lower"),
    "mmd.mmd.busy_s": ("s", "lower"),
    "mmd.mmd.self_s": ("s", "lower"),
    "mmd.median.calls": ("count", "lower"),
    "mmd.median.busy_s": ("s", "lower"),
    "mmd.median.self_s": ("s", "lower"),
    "mmd.kernel_entries": ("count", "lower"),
    "ntk.gradients.calls": ("count", "lower"),
    "ntk.gradients.rows": ("count", "lower"),
    "ntk.gradients.busy_s": ("s", "lower"),
    "ntk.gradients.self_s": ("s", "lower"),
    "ntk.predict.calls": ("count", "lower"),
    "ntk.predict.busy_s": ("s", "lower"),
    "ntk.predict.self_s": ("s", "lower"),
    "ntk.gram.calls": ("count", "lower"),
    "ntk.gram.self_s": ("s", "lower"),
    "ntk.gram.flops": ("flop", "lower"),
    "ntk.bound.calls": ("count", "lower"),
    "ntk.bound.busy_s": ("s", "lower"),
    "ntk.bound.self_s": ("s", "lower"),
    "ntk.bound.n_gt_p_frac": ("frac", "lower"),
    "longtail.pool.calls": ("count", "lower"),
    "longtail.pool.busy_s": ("s", "lower"),
    "longtail.pool.self_s": ("s", "lower"),
    "longtail.pool.rows": ("count", "lower"),
    "longtail.make.busy_s": ("s", "lower"),
    "valuation.score.calls": ("count", "lower"),
    "valuation.score.busy_s": ("s", "lower"),
    "valuation.score.self_s": ("s", "lower"),
    "valuation.score_ms.p50": ("ms", "lower"),
    "valuation.score_ms.p99": ("ms", "lower"),
    "valuation.failed": ("count", "lower"),
    "evalharness.train.calls": ("count", "lower"),
    "evalharness.train.busy_s": ("s", "lower"),
    "evalharness.train.self_s": ("s", "lower"),
    "evalharness.train.epochs": ("count", "lower"),
    "evalharness.epoch_ms": ("ms", "lower"),
    "evalharness.train.converged_frac": ("frac", "higher"),
    "evalharness.diverged": ("count", "lower"),
    "cli.main.busy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "output.max_rel_dev": ("frac", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Exact work counts: identical on every run of the same code and seed.
EXACT_COUNTS = (
    "scaling.exact.index_evals",
    "mmd.kernel_entries",
    "ntk.gram.flops",
    "ntk.gradients.rows",
    "evalharness.train.epochs",
)


def _job_values(spans: dict[str, Span]) -> dict[str, float]:
    """Flatten one job's spans into per-layer metric values."""
    out: dict[str, float] = {}
    for name, span in spans.items():
        out[f"{name}.calls"] = span.calls
        out[f"{name}.busy_s"] = span.busy
        out[f"{name}.self_s"] = span.self_time
        out[f"{name}.failed"] = span.failed
        for key, value in span.counts.items():
            out[f"{name}.{key}"] = value

    def get(key: str) -> float:
        return out.get(key, 0)  # a layer that never ran counts 0

    values = {key: get(key) for key in LAYER_METRICS}
    values["mmd.kernel_entries"] = get("mmd.mmd.kernel_entries")
    values["ntk.bound.n_gt_p_frac"] = get("ntk.bound.n_gt_p") / max(get("ntk.bound.calls"), 1)
    values["valuation.failed"] = get("valuation.score.failed")
    epochs = get("evalharness.train.epochs")
    values["evalharness.epoch_ms"] = 1e3 * get("evalharness.train.busy_s") / max(epochs, 1)
    values["evalharness.train.converged_frac"] = (
        get("evalharness.train.converged") / max(get("evalharness.train.calls"), 1)
    )
    values["evalharness.diverged"] = get("evalharness.train.diverged")
    values["cli.self_s"] = get("cli.main.self_s")
    return values


def layer_metrics(
    jobs: list[dict[str, Span]], extra: dict[str, float]
) -> dict[str, float]:
    """Per-layer metric values over a run's traced jobs.

    ``extra`` supplies what the spans cannot see (output bytes, the
    deviation from reference values, tracing overhead).
    """
    per_job = [_job_values(spans) for spans in jobs]
    metrics = {}
    for key, (unit, _) in LAYER_METRICS.items():
        if unit in ("s", "ms"):
            metrics[key] = statistics.median(v[key] for v in per_job)
        else:
            metrics[key] = per_job[0][key]
    score_ms = sorted(
        1e3 * d for spans in jobs if "valuation.score" in spans
        for d in spans["valuation.score"].durations
    )
    if len(score_ms) >= 2:
        cuts = statistics.quantiles(score_ms, n=100, method="inclusive")
        metrics["valuation.score_ms.p50"] = cuts[49]
        metrics["valuation.score_ms.p99"] = cuts[98]
    else:
        metrics["valuation.score_ms.p50"] = metrics["valuation.score_ms.p99"] = 0.0
    metrics.update(extra)
    return metrics


def called(spans: dict[str, Span], name: str) -> bool:
    span = spans.get(name)
    return span is not None and span.calls > 0


def exact_counts(spans: dict[str, Span]) -> dict[str, float]:
    values = _job_values(spans)
    return {key: values[key] for key in EXACT_COUNTS}
