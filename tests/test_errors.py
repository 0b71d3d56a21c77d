"""The count rule, ``errors.check_count``, at every entry point that takes a
size, count or index, and the real-number rule, ``errors.check_real``, at
every entry point that takes a real-valued parameter."""

import math
import re

import numpy as np
import pytest

from mixval._seeds import check_seed
from mixval.errors import DomainError
from mixval.evalharness import (
    CorrelationReport,
    GroundTruth,
    TrainingConfig,
    make_shift_fixture,
    time_method,
)
from mixval.longtail import (
    MixtureSpec,
    PowerLawSpec,
    knowledge_prototype,
    make_contributors,
    pmf,
    sample_knowledge,
)
from mixval.mmd import KernelSpec, MultiKernelSpec
from mixval.ntk import MLPSpec, Model, bound_term, ntk_gram
from mixval.scaling import ScalingParams, detect_breakpoints, log_grid, sweep
from mixval.valuation import (
    CoalitionWeighting,
    ValuationConfig,
    ValuationWeights,
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


def _detect(**arguments) -> None:
    params = ScalingParams(a=0.9, alpha=0.3, b=0.1, lam=0.5, beta=1.5, cutoff=20, pi=0.5,
                           support_max=1000)
    detect_breakpoints(sweep(params, log_grid(1e2, 1e4, 8)), **arguments)


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
]
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
