"""The count rule, ``errors.check_count``, at every entry point that takes a
size, count or index, the real-number rule, ``errors.check_real``, at
every entry point that takes a real-valued parameter, and the array rule,
``errors.check_reals``, at every entry point that takes a data array."""

import ast
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mixval
from mixval._seeds import check_seed
from mixval.cli import read_samples
from mixval.errors import DomainError
from mixval.evalharness import (
    CorrelationReport,
    GroundTruth,
    TrainingConfig,
    accuracy,
    make_shift_fixture,
    pearson,
    spearman,
    time_method,
    train_ground_truth,
    train_model,
)
from mixval.longtail import (
    CSV_HEADER,
    MixtureSpec,
    PowerLawSpec,
    knowledge_prototype,
    make_contributors,
    pmf,
    sample_knowledge,
)
from mixval.mmd import DistanceBlocks, KernelSpec, MultiKernelSpec, median_heuristic, mmd
from mixval.ntk import MLPSpec, Model, bound_term, gradients, ntk_gram, predict
from mixval.scaling import (
    PhaseCurve,
    ScalingParams,
    detect_breakpoints,
    expected_test_error_exact,
    log_grid,
    phase_closed_form,
    sweep,
    upper_incomplete_gamma,
)
from mixval.valuation import (
    CoalitionWeighting,
    ValuationConfig,
    ValuationWeights,
    empirical_loss,
    exact_shapley,
    fit_weights,
    loo_values,
    sampled_shapley,
    score_all,
)

MIXTURE = MixtureSpec.power_law()


def _game(coalition: frozenset[int]) -> float:
    return float(len(coalition))


def _score_all(workers) -> None:
    [c] = make_contributors([(4, 2)], MIXTURE, 3, seed=0)
    [test] = make_contributors([(5, 0)], MIXTURE, 3, seed=1)
    score_all([c], test.real_x, Model.at_init(MLPSpec((3, 2, 1))), ValuationConfig(), workers)


SCALING = ScalingParams(a=0.9, alpha=0.3, b=0.1, lam=0.5, beta=1.5, cutoff=20, pi=0.5,
                        support_max=1000)


def _detect(**arguments) -> None:
    detect_breakpoints(sweep(SCALING, log_grid(1e2, 1e4, 8)), **arguments)


# (entry point, the field its message names, the least value it takes, a call with the value)
COUNTS = [
    ("check_seed", "seed", 0, check_seed),
    ("TrainingConfig.max_epochs", "max_epochs", 1, lambda v: TrainingConfig(max_epochs=v)),
    ("TrainingConfig.eigen_cap", "eigen_cap", 1, lambda v: TrainingConfig(eigen_cap=v)),
    ("TrainingConfig.restarts", "restarts", 1, lambda v: TrainingConfig(restarts=v)),
    ("MLPSpec.layer_widths", "layer_widths[1]", 1, lambda v: MLPSpec((3, v, 1))),
    ("ValuationConfig.ntk_cap", "ntk_cap", 2, lambda v: ValuationConfig(ntk_cap=v)),
    ("ValuationConfig.mmd_cap", "mmd_cap", 2, lambda v: ValuationConfig(mmd_cap=v)),
    ("ValuationConfig.test_cap", "test_cap", 2, lambda v: ValuationConfig(test_cap=v)),
    ("score_all.workers", "workers", 1, _score_all),
    ("CoalitionWeighting", "mc_permutations", 0, lambda v: CoalitionWeighting("shapley", v)),
    ("sampled_shapley.permutations", "permutations", 1, lambda v: sampled_shapley(2, _game, v)),
    ("pmf", "index", 1, lambda v: pmf(MIXTURE, v)),
    ("knowledge_prototype.index", "index", 1, lambda v: knowledge_prototype(v, 3, 0)),
    ("knowledge_prototype.feature_dim", "feature_dim", 1, lambda v: knowledge_prototype(1, v, 0)),
    ("sample_knowledge", "n", 0, lambda v: sample_knowledge(MIXTURE, v, 0)),
    ("make_contributors.feature_dim", "feature_dim", 1,
     lambda v: make_contributors([(4, 2)], MIXTURE, v, 0)),
    ("make_contributors.n_real", "plan entry 1 n_real", 0,
     lambda v: make_contributors([(2, 2), (v, 2)], MIXTURE, 3, 0)),
    ("make_contributors.n_synth", "plan entry 0 n_synth", 0,
     lambda v: make_contributors([(2, v)], MIXTURE, 3, 0)),
    ("make_shift_fixture.samples_each", "samples_each", 2,
     lambda v: make_shift_fixture([0.5], v, feature_dim=3, test_size=4)),
    ("make_shift_fixture.test_size", "test_size", 2,
     lambda v: make_shift_fixture([0.5], 4, feature_dim=3, test_size=v)),
    ("detect_breakpoints", "smooth_window", 1, lambda v: _detect(smooth_window=v)),
    ("exact_shapley", "n", 1, lambda v: exact_shapley(v, _game)),
    ("sampled_shapley.n", "n", 1, lambda v: sampled_shapley(v, _game, 2)),
    ("loo_values", "n", 1, lambda v: loo_values(v, _game)),
    ("GroundTruth.epochs", "epochs", 1, lambda v: GroundTruth("c0", 0.5, "d", epochs=v)),
    ("GroundTruth.converged", "converged", 0,
     lambda v: GroundTruth("c0", 0.5, "d", epochs=3, converged=v)),
    ("CorrelationReport", "n", 2, lambda v: CorrelationReport(0.5, 0.5, 0.5, v)),
    ("time_method", "units", 1, lambda v: time_method(lambda: None, units=v)),
    ("log_grid", "points_per_decade", 1, lambda v: log_grid(1e2, 1e3, v)),
]
ENTRY_POINTS = pytest.mark.parametrize(
    "name, least, call", [c[1:] for c in COUNTS], ids=[c[0] for c in COUNTS]
)


@pytest.mark.parametrize("bad", ["float", "bool", "below"])
@ENTRY_POINTS
def test_counts_reject_floats_bools_and_values_below_the_least(name, least, call, bad):
    value, message = {
        "float": (2.5, f"{name} must be an integer, got 2.5"),
        "bool": (True, f"{name} must be an integer, got True"),
        "below": (least - 1, f"{name} must be >= {least}, got {least - 1}"),
    }[bad]
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(value)


@ENTRY_POINTS
def test_counts_take_numpy_integers(name, least, call):
    call(np.int64(least))


def _bound_term(ridge) -> None:
    spec = MLPSpec((3, 2, 1))
    x = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
    bound_term(ntk_gram(spec, Model.at_init(spec).params, x), np.ones(4), ridge)


def _scaling_params(**field) -> None:
    good = dict(a=1.0, alpha=0.5, b=0.5, lam=1.0, beta=1.5, cutoff=10, pi=0.5, support_max=1000)
    ScalingParams(**{**good, **field})


def _shift_fixture(pis=(0.5, 0.5), **arguments) -> None:
    make_shift_fixture(list(pis), 4, feature_dim=3, test_size=4, **arguments)


# (entry point, the field its message names, its bounds as check_real takes them,
#  an integer inside them, a call with the value)
REALS = [
    ("PowerLawSpec.beta", "beta", {"gt": 1}, 2, lambda v: PowerLawSpec(v, 100)),
    ("MixtureSpec.pi", "pi", {"ge": 0, "le": 1}, 1, lambda v: MixtureSpec.power_law(pi=v)),
    ("make_contributors.noise_scale", "noise_scale", {"ge": 0}, 0,
     lambda v: make_contributors([(4, 2)], MIXTURE, 3, 0, noise_scale=v)),
    ("KernelSpec.bandwidth", "bandwidth", {"gt": 0}, 1, KernelSpec),
    ("MultiKernelSpec.weights", "weights[1]", {"ge": 0}, 0,
     lambda v: MultiKernelSpec.from_bandwidths([1.0, 2.0], [1.0, v])),
    ("bound_term.ridge", "ridge", {"ge": 0}, 1, _bound_term),
    *[
        (f"TrainingConfig.{name}", name, {"gt": 0}, 1, lambda v, k=name: TrainingConfig(**{k: v}))
        for name in ("lr_scale", "lr_cap", "tol")
    ],
    ("GroundTruth.test_metric", "test_metric", {"ge": 0, "le": 1}, 1,
     lambda v: GroundTruth("c0", v, "d")),
    ("GroundTruth.test_metric.diverged", "test_metric", {}, 5,
     lambda v: GroundTruth("c0", v, "d", diverged=True)),
    ("make_shift_fixture.pis", "pis[1]", {"ge": 0, "le": 1}, 1,
     lambda v: _shift_fixture(pis=(0.5, v))),
    ("make_shift_fixture.shift", "shift", {}, 1, lambda v: _shift_fixture(shift=v)),
    ("make_shift_fixture.label_noise", "label_noise", {}, 1,
     lambda v: _shift_fixture(label_noise=[0.0, v])),
    ("ScalingParams.a", "a", {"gt": 0}, 1, lambda v: _scaling_params(a=v)),
    *[
        (f"ScalingParams.{name}", name, {"ge": 0}, inside,
         lambda v, k=name: _scaling_params(**{k: v}))
        for name, inside in (("alpha", 1), ("b", 0), ("lam", 1))
    ],
    ("ScalingParams.pi", "pi", {"gt": 0, "le": 1}, 1, lambda v: _scaling_params(pi=v)),
    ("detect_breakpoints", "min_curvature", {"ge": 0}, 0, lambda v: _detect(min_curvature=v)),
    *[
        (f"ValuationWeights.{name}", name, {}, -3, lambda v, k=name: ValuationWeights(**{k: v}))
        for name in ("w1", "w2", "w3", "w4")
    ],
    ("ValuationConfig.kernel_scales", "kernel_scales[1]", {"gt": 0}, 1,
     lambda v: ValuationConfig(kernel_scales=(1.0, v))),
    ("ValuationConfig.ridge", "ridge", {"ge": 0}, 0, lambda v: ValuationConfig(ridge=v)),
    ("fit_weights", "ridge", {"ge": 0}, 1,
     lambda v: fit_weights(np.ones((3, 4)) + np.eye(4)[:3], np.ones(3), ridge=v)),
    ("log_grid.n_min", "n_min", {"ge": 1}, 1, lambda v: log_grid(v, 1e3, 8)),
    ("log_grid.n_max", "n_max", {"ge": 1}, 10, lambda v: log_grid(1.0, v, 8)),
    ("phase_closed_form", "n", {"ge": 1}, 1, lambda v: phase_closed_form(SCALING, v, 1)),
    ("upper_incomplete_gamma.s", "s", {"gt": 0}, 1, lambda v: upper_incomplete_gamma(v, 1.0)),
    ("upper_incomplete_gamma.x", "x", {"ge": 0}, 0, lambda v: upper_incomplete_gamma(1.0, v)),
]
# the entry points whose domain holds +inf, tested on their own below
_TAKES_INF = {"upper_incomplete_gamma.x"}
_SYMBOLS = {"gt": ">", "ge": ">=", "le": "<="}
# the value just past each bound: the bound itself when strict, else the next float out
_PAST = {"gt": lambda b: b, "ge": lambda b: math.nextafter(b, -math.inf),
         "le": lambda b: math.nextafter(b, math.inf)}


def _rejections(name: str, bounds: dict):
    yield "bool", True, f"{name} must be a real number, got True"
    yield "str", "x", f"{name} must be a real number, got 'x'"
    yield "nan", math.nan, f"{name} must be finite, got nan"
    yield "inf", math.inf, f"{name} must be finite, got inf"
    for key, bound in bounds.items():
        past = _PAST[key](bound)
        yield key, past, f"{name} must be {_SYMBOLS[key]} {bound}, got {past}"


@pytest.mark.parametrize(
    "call, value, message",
    [
        pytest.param(call, value, message, id=f"{entry}-{case}")
        for entry, name, bounds, _, call in REALS
        for case, value, message in _rejections(name, bounds)
        if not (case == "inf" and entry in _TAKES_INF)
    ],
)
def test_reals_reject_bools_strings_non_finite_values_and_values_past_a_bound(
    call, value, message
):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("kind", [np.float32, np.int64])
@pytest.mark.parametrize(
    "inside, call", [row[3:] for row in REALS], ids=[row[0] for row in REALS]
)
def test_reals_take_numpy_floats_and_integers(inside, call, kind):
    call(kind(inside))


def test_upper_incomplete_gamma_takes_x_inf():
    # the integral over [inf, inf) is empty; -inf stays outside the domain
    assert upper_incomplete_gamma(1.0, math.inf) == 0.0
    with pytest.raises(DomainError, match="^x must be finite, got -inf$"):
        upper_incomplete_gamma(1.0, -math.inf)


SPEC = MLPSpec((3, 2, 1))
MODEL = Model.at_init(SPEC)
X = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
Y = np.array([0.0, 1.0, 1.0, 0.0])
[CONTRIBUTOR] = make_contributors([(4, 3)], MIXTURE, 3, seed=0)
TRAINING = TrainingConfig(max_epochs=2)


def _bound_residuals(residuals) -> None:
    bound_term(ntk_gram(SPEC, MODEL.params, X), residuals)


def _ground_truth(test_x=X, test_y=Y) -> None:
    train_ground_truth([CONTRIBUTOR], SPEC, TRAINING, test_x, test_y)


# (entry point, the name its message gives the array, its bounds as check_reals
#  takes them, an integer-valued array inside them, a call with an array)
ARRAYS = [
    ("mmd", "MMD X", {}, X, lambda v: mmd(v, X[::-1], MultiKernelSpec.from_bandwidths([1.0]))),
    ("median_heuristic", "median heuristic Y", {}, X, lambda v: median_heuristic(X, v)),
    ("DistanceBlocks.of", "distance blocks X", {}, X, lambda v: DistanceBlocks.of(v, X)),
    ("score_all.test_x", "test set", {}, X,
     lambda v: score_all([CONTRIBUTOR], v, MODEL, ValuationConfig())),
    ("Contributor.real_x", "contributor 'c000': real features", {}, CONTRIBUTOR.real_x.round(),
     lambda v: replace(CONTRIBUTOR, real_x=v)),
    ("Contributor.synth_y", "contributor 'c000': synth labels", {"ge": 0, "le": 1},
     CONTRIBUTOR.synth_y.round(), lambda v: replace(CONTRIBUTOR, synth_y=v)),
    ("pearson", "xs", {}, np.array([1.0, 2.0, 3.0]), lambda v: pearson(v, [1.0, 3.0, 2.0])),
    ("spearman", "ys", {}, np.array([1.0, 3.0, 2.0]), lambda v: spearman([1.0, 2.0, 3.0], v)),
    ("bound_term.residuals", "residuals", {}, Y, _bound_residuals),
    ("expected_test_error_exact", "n", {"ge": 0}, np.array([0.0, 10.0, 100.0]),
     lambda v: expected_test_error_exact(SCALING, v)),
    ("predict", "inputs", {}, X, lambda v: predict(SPEC, MODEL.params, v)),
    ("gradients", "inputs", {}, X, lambda v: gradients(SPEC, MODEL.params, v)),
    ("ntk_gram", "inputs", {}, X, lambda v: ntk_gram(SPEC, MODEL.params, v)),
    ("train_model.x", "inputs", {}, X, lambda v: train_model(v, Y, SPEC, TRAINING)),
    ("train_model.y", "labels", {}, Y, lambda v: train_model(X, v, SPEC, TRAINING)),
    ("empirical_loss", "labels", {}, Y, lambda v: empirical_loss(MODEL, X, v)),
    ("accuracy", "labels", {}, Y, lambda v: accuracy(MODEL, X, v)),
    ("train_ground_truth.test_x", "test_x", {}, X, lambda v: _ground_truth(test_x=v)),
    ("train_ground_truth.test_y", "test_y", {}, Y, lambda v: _ground_truth(test_y=v)),
    ("PhaseCurve.sample_sizes", "sample_sizes", {"gt": 0}, np.array([1.0, 2.0, 3.0]),
     lambda v: PhaseCurve(v, np.array([0.5, 0.4, 0.3]), SCALING)),
    ("PhaseCurve.errors", "errors", {}, np.array([1.0, 0.0, 0.0]),
     lambda v: PhaseCurve(np.array([1.0, 2.0, 3.0]), v, SCALING)),
    ("fit_weights.terms", "terms", {}, np.ones((3, 4)) + np.eye(4)[:3],
     lambda v: fit_weights(v, np.ones(3))),
    ("fit_weights.targets", "targets", {}, np.array([1.0, 2.0, 3.0]),
     lambda v: fit_weights(np.ones((3, 4)) + np.eye(4)[:3], v)),
]


def _with(good: np.ndarray, entry, dtype=float) -> np.ndarray:
    # ``good`` with its second entry replaced: the first bad entry is not the first entry
    bad = good.astype(dtype)
    bad.flat[1] = entry
    return bad


def _array_rejections(name: str, bounds: dict, good: np.ndarray):
    yield "nan", _with(good, math.nan), f"{name} must be finite, got nan"
    yield "inf", _with(good, math.inf), f"{name} must be finite, got inf"
    flags = good.astype(bool)
    yield "bool", flags, f"{name} must be a real number, got {bool(flags.flat[0])}"
    yield "str", _with(good, "x", object), f"{name} must be a real number, got 'x'"
    for key, bound in bounds.items():
        past = float(_PAST[key](bound))
        yield key, _with(good, past), f"{name} must be {_SYMBOLS[key]} {bound}, got {past}"


@pytest.mark.parametrize(
    "call, values, message",
    [
        pytest.param(call, values, message, id=f"{entry}-{case}")
        for entry, name, bounds, good, call in ARRAYS
        for case, values, message in _array_rejections(name, bounds, good)
    ],
)
def test_arrays_reject_bools_strings_non_finite_entries_and_entries_past_a_bound(
    call, values, message
):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(values)


@pytest.mark.parametrize("kind", [np.float32, np.int64])
@pytest.mark.parametrize(
    "good, call", [row[3:] for row in ARRAYS], ids=[row[0] for row in ARRAYS]
)
def test_arrays_take_float32_and_int64(good, call, kind):
    call(good.astype(kind))


def test_oracle_rejects_a_bool_sample_count():
    with pytest.raises(DomainError, match="^n must be a real number, got True$"):
        expected_test_error_exact(SCALING, True)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["features", "labels"])
def test_read_samples_names_the_file_of_a_non_finite_value(tmp_path, bad, column):
    path = tmp_path / "samples.csv"
    if column == "features":
        path.write_text(f"a,b\n1.0,2.0\n3.0,{bad}\n", encoding="utf-8")
    else:
        path.write_text(",".join(CSV_HEADER) + f",f0\nc,1,1,0.5,1.0\nc,2,1,{bad},2.0\n",
                        encoding="utf-8")
    message = f"sample file {path} {column} must be finite, got {bad}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        read_samples(path)


# the functions that test values they computed, not inputs: a non-finite
# value there is a NumericalError
COMPUTED_VALUE_CHECKS = {
    ("ntk.py", "NTKGram.__init__"),  # the Gram matrix
    ("ntk.py", "NTKGram.of_jacobian"),  # the row norms and J'J
    ("ntk.py", "bound_term"),  # the quadratic form
    ("evalharness.py", "train_model"),  # the loss
}
_FINITENESS_TESTS = {"isfinite", "isnan", "isinf"}


def _finiteness_tests(tree: ast.AST, scope: tuple[str, ...] = ()):
    # the qualified name of the function around each call of a finiteness test
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _finiteness_tests(node, (*scope, node.name))
            continue
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
            if name in _FINITENESS_TESTS:
                yield ".".join(scope)
        yield from _finiteness_tests(node, scope)


def test_inputs_are_tested_for_finiteness_only_through_the_rules_in_errors():
    # a new hand-written input check fails here: call check_real or check_reals
    src = Path(mixval.__file__).parent
    found = {
        (path.name, where)
        for path in sorted(src.glob("*.py"))
        if path.name != "errors.py"
        for where in _finiteness_tests(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found <= COMPUTED_VALUE_CHECKS, sorted(found - COMPUTED_VALUE_CHECKS)
    assert found, "the scan found no computed-value check at all"
