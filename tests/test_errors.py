"""The count rule, ``errors.check_count``, at every entry point that takes a
size, count or index."""

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
    knowledge_prototype,
    make_contributors,
    pmf,
    sample_knowledge,
)
from mixval.ntk import MLPSpec, Model
from mixval.scaling import ScalingParams, detect_breakpoints, log_grid, sweep
from mixval.valuation import (
    CoalitionWeighting,
    ValuationConfig,
    exact_shapley,
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


def _detect(smooth_window) -> None:
    params = ScalingParams(a=0.9, alpha=0.3, b=0.1, lam=0.5, beta=1.5, cutoff=20, pi=0.5,
                           support_max=1000)
    detect_breakpoints(sweep(params, log_grid(1e2, 1e4, 8)), smooth_window=smooth_window)


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
    ("detect_breakpoints", "smooth_window", 1, _detect),
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
