"""The benchmark's per-layer tracer still fits the library it wraps.

``perfbench/tracing.py`` wraps library functions by module and name and
its counters read arguments by position or keyword.  It and
``perfbench/workloads.py`` are loaded by path and read, never changed,
so a library refactor that renames a traced function, moves an argument
or stops calling a span a workload requires fails here, not in a traced
run.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import sys
from pathlib import Path
from types import ModuleType

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"

# (module, function, argument, position) of every argument a counter reads
COUNTER_ARGS = {
    ("mmd", "mmd", "x", 0),
    ("mmd", "mmd", "y", 1),
    ("mmd", "mmd", "spec", 2),
    ("ntk", "gradients", "x", 2),
    ("ntk", "ntk_gram", "spec", 0),
    ("ntk", "bound_term", "gram", 0),
    ("evalharness", "train_model", "config", 3),
    ("scaling", "expected_test_error_exact", "params", 0),
}


def load_by_path(path: Path) -> ModuleType:
    # executed from its source, so no bytecode is written next to it
    module = ModuleType(f"perfbench_{path.stem}")
    sys.modules[module.__name__] = module  # its dataclasses look it up here
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


def library_function(module_name: str, fn_name: str):
    return vars(importlib.import_module(f"mixval.{module_name}")).get(fn_name)


def test_every_traced_function_is_defined_where_the_tracer_looks():
    tracing = load_by_path(TRACING)
    assert tracing.LAYERS
    for module_name, fn_name, _, _ in tracing.LAYERS:
        fn = library_function(module_name, fn_name)
        assert callable(fn), f"mixval.{module_name}.{fn_name} is gone"
        assert fn.__module__ == f"mixval.{module_name}", fn.__module__


def test_counter_arguments_keep_their_names_and_positions():
    tracing = load_by_path(TRACING)
    # the _arg(args, kwargs, position, name) reads of each counter
    reads = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            reads[node.name] = {
                (call.args[3].value, call.args[2].value)
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "_arg"
            }
    found = {
        (module_name, fn_name, name, pos)
        for module_name, fn_name, _, counter in tracing.LAYERS
        if counter is not None
        for name, pos in reads[counter.__name__]
    }
    assert found == COUNTER_ARGS
    for module_name, fn_name, name, pos in COUNTER_ARGS:
        params = list(inspect.signature(library_function(module_name, fn_name)).parameters)
        assert params[pos] == name, f"mixval.{module_name}.{fn_name}{params}"


def test_gram_and_bound_counters_read_real_grams():
    # the counters read NTKGram.n from what ntk_gram returns, on both
    # sides of the parameter count (P = 16), where the Gram's form differs,
    # for Grams built from inputs and from held gradient rows (the
    # coalition path)
    tracing = load_by_path(TRACING)
    ntk = importlib.import_module("mixval.ntk")
    spec = ntk.MLPSpec(layer_widths=(3, 3, 1))
    params = ntk.init_params(spec)
    x = np.random.default_rng(0).standard_normal((40, 3))
    sizes = (5, 16, 17, 40)
    tracer = tracing.Tracer()
    with tracer.installed():
        for n in sizes:
            ntk.bound_term(ntk.ntk_gram(spec, params, x[:n]), np.ones(n))
            rows = ntk.gradients(spec, params, x[:n])
            ntk.bound_term(ntk.ntk_gram(spec, params, rows=rows), np.ones(n))
    spans = tracer.reset()
    assert spans["ntk.gram"].calls == spans["ntk.bound"].calls == 2 * len(sizes)
    assert spans["ntk.gram"].counts["flops"] == 2 * sum(2 * n * n * spec.n_params for n in sizes)
    assert spans["ntk.bound"].counts["n_gt_p"] == 4


def test_each_workload_records_its_required_spans(tmp_path, monkeypatch):
    # each workload's tiny job at seed 0, job 0, as a traced benchmark run
    # makes it: one untraced warm-up first (the benchmark's worker has
    # imported mixval.cli before it traces), then the job under the tracer
    tracing, workloads = load_by_path(TRACING), load_by_path(WORKLOADS)
    monkeypatch.setenv("MIXVAL_THREADS", "1")
    for workload in workloads.WORKLOADS.values():
        cfg = workload.config(0, 0, "tiny")
        cfg_path = tmp_path / f"{workload.name}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

        def run(out: Path) -> int:
            argv = [workload.subcommand, "--config", str(cfg_path), "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                # looked up at each call: tracing rebinds it
                return importlib.import_module("mixval.cli").main(argv)

        assert run(tmp_path / f"{workload.name}-warmup") == 0
        tracer = tracing.Tracer()
        out = tmp_path / workload.name
        with tracer.installed():
            assert run(out) == 0
        spans = tracer.reset()
        silent = [layer for layer in workload.layers if not tracing.called(spans, layer)]
        assert not silent, f"{workload.name}: no calls recorded in {silent}"
        assert workload.check(cfg, out) == (0, []), workload.name
