"""Shared builders for small deterministic fixtures."""

import numpy as np
import pytest

from mixval.longtail import (
    Contributor,
    MixtureSpec,
    PowerLawSpec,
    TruncatedPowerLawSpec,
    make_contributors,
)
from mixval.ntk import MLPSpec, Model, predict


def forward(spec: MLPSpec, params: np.ndarray, x: np.ndarray) -> float:
    """Scalar model output for one input vector."""
    return float(predict(spec, params, x)[0])


def small_mixture(pi: float = 0.5) -> MixtureSpec:
    return MixtureSpec(
        pi=pi,
        real_dist=PowerLawSpec(beta=1.5, support_max=200),
        synth_dist=TruncatedPowerLawSpec(beta=1.5, cutoff=20, support_max=200),
    )


@pytest.fixture
def contributors_small() -> list[Contributor]:
    # three mixed contributors, 12 real + 8 synth each, feature dim 4
    return make_contributors(
        [(12, 8), (12, 8), (12, 8)], small_mixture(), feature_dim=4, seed=7
    )


@pytest.fixture
def test_x_small() -> np.ndarray:
    [holdout] = make_contributors([(30, 0)], small_mixture(), feature_dim=4, seed=99)
    return holdout.real_x


@pytest.fixture
def model_small() -> Model:
    return Model.at_init(MLPSpec(layer_widths=(4, 8, 1), init_seed=0))
