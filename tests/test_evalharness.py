"""Retraining ground truth, correlation estimators, and fixtures."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from mixval._seeds import derive_seed
from mixval.errors import DegenerateDataError, DomainError
from mixval.evalharness import (
    GroundTruth,
    TrainingConfig,
    _learning_rate,
    accuracy,
    average_ranks,
    evaluate_method,
    kendall,
    loss_only_scores,
    make_shift_fixture,
    pearson,
    spearman,
    time_method,
    train_ground_truth,
    train_model,
)
from mixval.longtail import make_contributors
from mixval.ntk import (
    MLPSpec,
    Model,
    backprop,
    gradients,
    init_params,
    layer_outputs,
    predict,
)
from mixval.valuation import ValuationScore, ValuationWeights, empirical_loss

from conftest import small_mixture


def constant_model(value: float) -> Model:
    # one-input linear net pinned to a constant output
    spec = MLPSpec(layer_widths=(1, 1), output_squash="identity")
    return Model(spec, np.array([0.0, value]))


# ---------------------------------------------------------------------------
# Config and ground-truth records.


def test_training_config_validation_and_digest():
    with pytest.raises(DomainError):
        TrainingConfig(lr_scale=0.0)
    with pytest.raises(DomainError):
        TrainingConfig(tol=0.0)
    with pytest.raises(DomainError):
        TrainingConfig(restarts=0)
    with pytest.raises(DomainError):
        TrainingConfig(metric="f1")
    a, b = TrainingConfig(), TrainingConfig()
    assert a.digest() == b.digest()
    assert len(a.digest()) == 12
    assert TrainingConfig(seed=1).digest() != a.digest()
    # pinned: config_digest columns written before stay comparable
    assert a.digest() == "9373e3c48c97"
    tuned = TrainingConfig(
        seed=5, restarts=3, metric="one_minus_loss", max_epochs=800, lr_scale=0.2
    )
    assert tuned.digest() == "e2a2b01f50aa"
    # an int in a float field hashes as the equal float
    assert TrainingConfig(lr_cap=1).digest() == TrainingConfig(lr_cap=1.0).digest()


@pytest.mark.parametrize("key", ["lr_scale", "lr_cap", "tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_training_config_rejects_non_finite_values(key, value):
    # NaN fails every comparison, so a `<= 0` test alone let it through
    with pytest.raises(DomainError, match="finite"):
        TrainingConfig(**{key: value})


@pytest.mark.parametrize("key", ["max_epochs", "eigen_cap", "restarts"])
@pytest.mark.parametrize("value", [2.5, 3.0, True])
def test_training_config_rejects_non_integer_counts(key, value):
    # each passed its >= 1 check and failed later in training with a bare TypeError
    with pytest.raises(DomainError, match=re.escape(f"{key} must be an integer, got {value!r}")):
        TrainingConfig(**{key: value})
    assert getattr(TrainingConfig(**{key: np.int64(3)}), key) == 3


@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_training_config_rejects_a_seed_substream_cannot_take(seed):
    # -1 and 2.5 constructed and digested, and failed only once training drew
    with pytest.raises(DomainError, match="seed must be"):
        TrainingConfig(seed=seed)


@pytest.mark.parametrize(
    "numpy_field",
    [{"max_epochs": np.int64(5000)}, {"lr_scale": np.float64(0.1)}, {"seed": np.int64(0)},
     {"lr_cap": np.float32(0.5)}],
    ids=["max_epochs", "lr_scale", "seed", "lr_cap"],
)
def test_training_config_digest_hashes_numpy_scalars_as_python_numbers(numpy_field):
    # equal configs give equal config_digest columns, whatever the scalar type
    assert TrainingConfig(**numpy_field).digest() == TrainingConfig().digest() == "9373e3c48c97"


def test_ground_truth_validation():
    with pytest.raises(DomainError):
        GroundTruth("c0", 1.2, "abc")
    # a diverged record may carry an out-of-range placeholder
    assert GroundTruth("c0", 0.0, "abc", diverged=True).diverged
    with pytest.raises(DomainError):
        GroundTruth("c0", 0.5, "abc", epochs=0)
    with pytest.raises(DomainError):
        GroundTruth("c0", 0.5, "abc", epochs=10, converged=-1)
    assert GroundTruth("c0", 0.5, "abc").epochs is None


# ---------------------------------------------------------------------------
# Training.


def test_train_model_fits_separable_task():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 2))
    y = (x[:, 0] > 0).astype(float) * 0.8 + 0.1
    spec = MLPSpec(layer_widths=(2, 16, 1), init_seed=3)
    result = train_model(x, y, spec, TrainingConfig())
    assert not result.diverged
    assert result.final_loss < 0.01
    assert accuracy(result.model, x, y) == 1.0


def test_train_model_deterministic():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 2))
    y = np.full(30, 0.5) + 0.3 * np.tanh(x[:, 0])
    spec = MLPSpec(layer_widths=(2, 8, 1), init_seed=9)
    a = train_model(x, y, spec, TrainingConfig())
    b = train_model(x, y, spec, TrainingConfig())
    assert np.array_equal(a.model.params, b.model.params)
    assert a.epochs == b.epochs and a.final_loss == b.final_loss


def test_train_model_flags_divergence():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 2))
    y = rng.uniform(size=20)
    # unbounded output and an absurd step size force the loss to blow up
    spec = MLPSpec(layer_widths=(2, 4, 1), output_squash="identity")
    config = TrainingConfig(lr_scale=1e12, lr_cap=1e12, max_epochs=50)
    result = train_model(x, y, spec, config)
    assert result.diverged and not result.converged and result.epochs < 50
    assert result.lr == _learning_rate(spec, init_params(spec), x, config)


def test_train_model_validation():
    spec = MLPSpec(layer_widths=(2, 1))
    with pytest.raises(DomainError):
        train_model(np.zeros((0, 2)), np.zeros(0), spec, TrainingConfig())
    with pytest.raises(DomainError):
        train_model(np.zeros((3, 2)), np.zeros(2), spec, TrainingConfig())
    with pytest.raises(DomainError, match="features"):
        train_model(np.zeros((3, 3)), np.zeros(3), spec, TrainingConfig())


def reference_training(x, y, spec, config):
    """Gradient descent the way train_model ran it before its fused step: a
    predict and a per-example gradients pass every epoch, stepping a fresh
    copy of the whole parameter vector.  Returns (epochs, loss, converged,
    parameter values)."""
    values = init_params(spec)
    lr = _learning_rate(spec, values, x, config)
    prev = loss = math.inf
    for epochs in range(1, config.max_epochs + 1):
        resid = predict(spec, values, x) - y
        loss = float(np.mean(resid**2) / 2.0)
        if abs(prev - loss) < config.tol:
            return epochs, loss, True, values
        values = values - lr * (gradients(spec, values, x).T @ resid) / len(y)
        prev = loss
    return epochs, loss, False, values


def training_case(widths, activation="tanh", squash="sigmoid", n=30, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, widths[0]))
    y = np.clip(0.5 + 0.3 * np.tanh(x[:, 0] - x[:, -1]), 0.0, 1.0)
    spec = MLPSpec(widths, activation=activation, output_squash=squash, init_seed=seed)
    return x, y, spec


@pytest.mark.parametrize("widths", [(2, 8, 1), (3, 5, 4, 1)])
@pytest.mark.parametrize("activation, squash", [("tanh", "sigmoid"), ("identity", "identity")])
def test_one_fused_step_equals_gradient_matrix_step(widths, activation, squash):
    x, y, spec = training_case(widths, activation, squash, seed=4)
    config = TrainingConfig(max_epochs=1)
    result = train_model(x, y, spec, config)
    p0 = init_params(spec)
    lr = _learning_rate(spec, p0, x, config)
    resid = predict(spec, p0, x) - y
    want = p0 - lr * (gradients(spec, p0, x).T @ resid) / len(y)
    got = result.model.params
    assert result.epochs == 1 and not result.converged and result.lr == lr
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert not np.array_equal(got, p0)


@pytest.mark.parametrize(
    "widths, activation, squash, max_epochs, converged",
    [
        ((2, 8, 1), "tanh", "sigmoid", 3000, True),
        ((3, 5, 4, 1), "tanh", "sigmoid", 3000, True),
        ((2, 8, 1), "tanh", "sigmoid", 60, False),
        ((3, 6, 1), "identity", "identity", 3000, True),
    ],
)
def test_train_model_matches_reference_loop(widths, activation, squash, max_epochs, converged):
    x, y, spec = training_case(widths, activation, squash, seed=len(widths))
    config = TrainingConfig(max_epochs=max_epochs)
    epochs, loss, ref_converged, values = reference_training(x, y, spec, config)
    result = train_model(x, y, spec, config)
    assert ref_converged is converged
    assert (result.epochs, result.converged, result.diverged) == (epochs, converged, False)
    assert converged or result.epochs == max_epochs
    got = result.model.params
    assert np.abs(got - values).max() <= 1e-12 * np.abs(values).max()
    assert result.final_loss == pytest.approx(loss, rel=1e-12)


def test_train_model_loss_and_bias_step_keep_mean_and_sum_bits():
    # the fused loop with np.mean for the epoch loss and ndarray.sum for
    # the bias step: train_model's cheaper reductions give the same bits,
    # so epochs, losses and parameters match exactly
    def mean_sum_training(x, y, spec, config):
        params = init_params(spec)
        lr = _learning_rate(spec, params, x, config)
        layers = spec.layers(params)
        prev = loss = math.inf
        for epochs in range(1, config.max_epochs + 1):
            outputs = layer_outputs(spec, layers, x)
            resid = outputs[-1][:, 0] - y
            loss = float(np.mean(resid**2) / 2.0)
            if abs(prev - loss) < config.tol:
                break
            for li, delta, h_in in backprop(spec, layers, outputs, resid[:, None]):
                w, b = layers[li]
                w -= lr * (delta.T @ h_in) / len(y)
                b -= lr * delta.sum(axis=0) / len(y)
            prev = loss
        return epochs, loss, params

    for widths, max_epochs in (((2, 8, 1), 3000), ((3, 5, 4, 1), 40), ((8, 16, 1), 800)):
        x, y, spec = training_case(widths, n=37, seed=9)
        config = TrainingConfig(max_epochs=max_epochs)
        epochs, loss, values = mean_sum_training(x, y, spec, config)
        result = train_model(x, y, spec, config)
        assert (result.epochs, result.final_loss) == (epochs, loss)
        assert np.array_equal(result.model.params, values)


def test_accuracy_hand_value():
    model = constant_model(0.6)
    x = np.zeros((3, 1))
    y = np.array([0.5, 0.9, 0.0])
    assert accuracy(model, x, y) == pytest.approx(2 / 3)
    with pytest.raises(DomainError):
        accuracy(model, np.zeros((0, 1)), np.zeros(0))


def test_accuracy_needs_one_label_per_prediction():
    model = Model.at_init(MLPSpec(layer_widths=(4, 8, 1), init_seed=0))
    # a 1-d x is one point, not four: four labels do not match it
    with pytest.raises(DomainError, match="1 inputs vs 4 labels"):
        accuracy(model, np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.0, 1.0, 0.0, 1.0]))
    with pytest.raises(DomainError, match="3 inputs vs 5 labels"):
        accuracy(model, np.zeros((3, 4)), np.zeros(5))
    point = np.array([[0.1, 0.2, 0.3, 0.4]])
    assert accuracy(model, point[0], [0.5]) == accuracy(model, point, [0.5])


def test_train_ground_truth_duplicates_agree():
    [c] = make_contributors([(25, 10)], small_mixture(), feature_dim=4, seed=5)
    twin = type(c)(
        id="twin", real_x=c.real_x, real_y=c.real_y, real_idx=c.real_idx,
        synth_x=c.synth_x, synth_y=c.synth_y, synth_idx=c.synth_idx,
    )
    [t] = make_contributors([(40, 0)], small_mixture(), feature_dim=4, seed=55)
    # width keeps training in the kernel regime, where different inits
    # reach nearly the same function; restarts average out the rest
    spec = MLPSpec(layer_widths=(4, 64, 1))
    config = TrainingConfig(metric="one_minus_loss", seed=2, restarts=3)
    results = train_ground_truth([c, twin], spec, config, t.real_x, t.real_y)
    assert [g.contributor_id for g in results] == ["c000", "twin"]
    assert all(not g.diverged for g in results)
    assert all(g.config_digest == config.digest() for g in results)
    # same data, different derived init seeds: metrics agree closely
    assert abs(results[0].test_metric - results[1].test_metric) < 0.02


def test_train_ground_truth_rejects_repeated_ids():
    contributors = make_contributors([(6, 2), (5, 3)], small_mixture(), feature_dim=4, seed=6)
    repeated = [*contributors, replace(contributors[0], id="c001")]
    [t] = make_contributors([(10, 0)], small_mixture(), feature_dim=4, seed=66)
    with pytest.raises(DomainError, match="'c001' repeats in the contributors"):
        train_ground_truth(
            repeated, MLPSpec(layer_widths=(4, 4, 1)), TrainingConfig(max_epochs=5),
            t.real_x, t.real_y,
        )


def test_train_ground_truth_rejects_workers_below_one():
    contributors = make_contributors([(6, 2)], small_mixture(), feature_dim=4, seed=6)
    [t] = make_contributors([(10, 0)], small_mixture(), feature_dim=4, seed=66)
    with pytest.raises(DomainError, match="workers must be >= 1, got 0"):
        train_ground_truth(
            contributors, MLPSpec(layer_widths=(4, 4, 1)), TrainingConfig(max_epochs=5),
            t.real_x, t.real_y, workers=0,
        )


@pytest.mark.parametrize("workers", [2.5, True])
def test_train_ground_truth_rejects_non_integer_workers(workers):
    contributors = make_contributors([(6, 2)], small_mixture(), feature_dim=4, seed=6)
    [t] = make_contributors([(10, 0)], small_mixture(), feature_dim=4, seed=66)
    with pytest.raises(DomainError, match="workers must be an integer"):
        train_ground_truth(
            contributors, MLPSpec(layer_widths=(4, 4, 1)), TrainingConfig(max_epochs=5),
            t.real_x, t.real_y, workers=workers,
        )


def test_train_ground_truth_worker_invariance():
    contributors = make_contributors(
        [(12, 6), (10, 8)], small_mixture(), feature_dim=4, seed=6
    )
    [t] = make_contributors([(25, 0)], small_mixture(), feature_dim=4, seed=66)
    spec = MLPSpec(layer_widths=(4, 8, 1))
    config = TrainingConfig(metric="one_minus_loss", max_epochs=400)
    serial = train_ground_truth(contributors, spec, config, t.real_x, t.real_y)
    threaded = train_ground_truth(
        contributors, spec, config, t.real_x, t.real_y, workers=2
    )
    assert serial == threaded


def test_train_ground_truth_separates_signal_from_noise():
    # clean contributor drawn like the test set vs one with shuffled labels
    [clean] = make_contributors([(40, 0)], small_mixture(), feature_dim=4, seed=7)
    rng = np.random.default_rng(0)
    noisy = type(clean)(
        id="noisy", real_x=clean.real_x, real_y=rng.permutation(clean.real_y),
        real_idx=clean.real_idx, synth_x=clean.synth_x, synth_y=clean.synth_y,
        synth_idx=clean.synth_idx,
    )
    [t] = make_contributors([(60, 0)], small_mixture(), feature_dim=4, seed=77)
    spec = MLPSpec(layer_widths=(4, 16, 1))
    config = TrainingConfig(metric="one_minus_loss", seed=1)
    results = train_ground_truth([clean, noisy], spec, config, t.real_x, t.real_y)
    assert results[0].test_metric > results[1].test_metric


def test_train_ground_truth_flags_divergence():
    [c] = make_contributors([(10, 0)], small_mixture(), feature_dim=4, seed=8)
    [t] = make_contributors([(10, 0)], small_mixture(), feature_dim=4, seed=88)
    spec = MLPSpec(layer_widths=(4, 4, 1), output_squash="identity")
    config = TrainingConfig(lr_scale=1e12, lr_cap=1e12, max_epochs=40)
    [g] = train_ground_truth([c], spec, config, t.real_x, t.real_y)
    assert g.diverged and g.test_metric == 0.0
    assert 1 <= g.epochs < 40 and g.converged == 0


def test_train_ground_truth_records_epochs_and_convergence():
    [c] = make_contributors([(12, 6)], small_mixture(), feature_dim=4, seed=9)
    [t] = make_contributors([(20, 0)], small_mixture(), feature_dim=4, seed=99)
    spec = MLPSpec(layer_widths=(4, 8, 1))
    for max_epochs in (60, 5000):
        config = TrainingConfig(metric="one_minus_loss", restarts=3, max_epochs=max_epochs, seed=4)
        [g] = train_ground_truth([c], spec, config, t.real_x, t.real_y)
        runs = [
            train_model(
                c.pooled_x(), c.pooled_y(),
                replace(spec, init_seed=derive_seed(4, "gt-init", c.id, r)), config,
            )
            for r in range(3)
        ]
        assert g.epochs == max(r.epochs for r in runs)
        assert g.converged == sum(r.converged for r in runs)
        # the short budget caps every restart; the long one lets some converge
        if max_epochs == 60:
            assert (g.epochs, g.converged) == (60, 0)
        else:
            assert g.converged > 0 and g.epochs < 5000


# ---------------------------------------------------------------------------
# Correlation estimators.


def test_pearson_matches_reference():
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = rng.standard_normal(rng.integers(2, 40))
        y = rng.standard_normal(len(x))
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)


def test_pearson_symmetry_and_degenerate():
    x = np.array([1.0, 2.0, 4.0])
    y = np.array([2.0, 1.0, 5.0])
    assert pearson(x, y) == pearson(y, x)
    with pytest.raises(DegenerateDataError):
        pearson(np.ones(4), np.arange(4.0))
    with pytest.raises(DomainError):
        pearson([1.0], [2.0])
    with pytest.raises(DomainError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        pearson([1.0, np.nan], [1.0, 2.0])


def test_average_ranks_handles_ties():
    assert np.array_equal(average_ranks([1.0, 2.0, 2.0, 3.0]), [1.0, 2.5, 2.5, 4.0])
    assert np.array_equal(average_ranks([5.0, 5.0, 5.0]), [2.0, 2.0, 2.0])
    assert np.array_equal(average_ranks([3.0, 1.0, 2.0]), [3.0, 1.0, 2.0])


def test_correlations_hand_values():
    assert kendall([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6, abs=1e-15)
    assert kendall([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    assert spearman([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    # tau-b with one tied pair in x: (C - D) / sqrt((n0 - t_x) * n0)
    assert kendall([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(
        2.0 / math.sqrt(6.0), abs=1e-15
    )
    with pytest.raises(DegenerateDataError):
        kendall([1.0, 1.0], [1.0, 2.0])


def test_correlations_match_bruteforce():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(3, 25))
        x = rng.permutation(np.arange(n, dtype=float))  # tie-free
        y = rng.permutation(np.arange(n, dtype=float))
        concordant = discordant = 0
        for i in range(n):
            for j in range(i + 1, n):
                s = np.sign(x[i] - x[j]) * np.sign(y[i] - y[j])
                concordant += s > 0
                discordant += s < 0
        pairs = n * (n - 1) / 2
        assert kendall(x, y) == pytest.approx(
            (concordant - discordant) / pairs, abs=1e-12
        )

        def rank(v: np.ndarray) -> np.ndarray:
            return np.argsort(np.argsort(v)) + 1.0

        assert spearman(x, y) == pytest.approx(
            np.corrcoef(rank(x), rank(y))[0, 1], abs=1e-12
        )


# ---------------------------------------------------------------------------
# Method evaluation.


def fake_truth(metrics: dict[str, float]) -> list[GroundTruth]:
    return [GroundTruth(cid, m, "d") for cid, m in metrics.items()]


def test_evaluate_method_positive_orientation():
    scores = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.45}
    truth = fake_truth({"a": 0.2, "b": 0.4, "c": 0.6, "d": 0.9})
    result = evaluate_method(scores, truth)
    assert result.best_orientation == 1
    assert result.positive.spearman == pytest.approx(1.0)
    assert result.positive.pearson == pytest.approx(
        pearson([0.1, 0.2, 0.3, 0.45], [0.2, 0.4, 0.6, 0.9])
    )
    assert result.negative.spearman == pytest.approx(-1.0)
    assert result.best.spearman == pytest.approx(1.0)
    assert result.positive.n == 4


def test_evaluate_method_negative_orientation():
    # a cost-like score: larger means worse retraining outcome
    scores = {"a": 0.9, "b": 0.5, "c": 0.1}
    truth = fake_truth({"a": 0.1, "b": 0.6, "c": 0.8})
    result = evaluate_method(scores, truth)
    assert result.best_orientation == -1
    assert result.best.spearman == pytest.approx(1.0)
    assert result.best is result.negative


def test_evaluate_method_accepts_score_objects():
    scores = [
        ValuationScore.from_terms(cid, v, 0.0, 0.0, 0.0, ValuationWeights())
        for cid, v in (("a", 0.3), ("b", 0.6), ("c", 0.9))
    ]
    truth = fake_truth({"a": 0.9, "b": 0.5, "c": 0.2})
    result = evaluate_method(scores, truth)
    assert result.best_orientation == -1


def test_evaluate_method_alignment_rules():
    scores = {"a": 0.1, "b": 0.2, "c": 0.3}
    truth = fake_truth({"a": 0.3, "b": 0.5}) + [
        GroundTruth("c", 0.0, "d", diverged=True),  # excluded
        GroundTruth("zz", 0.9, "d"),  # no score: ignored
    ]
    result = evaluate_method(scores, truth)
    assert result.positive.n == 2
    with pytest.raises(DomainError):
        evaluate_method({"a": 0.1}, fake_truth({"a": 0.5}))


def test_evaluate_method_rejects_repeated_ids():
    truth = fake_truth({"a": 0.9, "b": 0.5, "c": 0.2})
    scores = [
        ValuationScore.from_terms(cid, v, 0.0, 0.0, 0.0, ValuationWeights())
        for cid, v in (("a", 0.3), ("b", 0.6), ("a", 0.9), ("c", 0.1))
    ]
    with pytest.raises(DomainError, match="'a' repeats in the scores"):
        evaluate_method(scores, truth)
    with pytest.raises(DomainError, match="'c' repeats in the ground truth"):
        evaluate_method({"a": 0.1, "b": 0.2, "c": 0.3}, truth + fake_truth({"c": 0.4}))


def test_evaluate_method_random_scores_uncorrelated():
    rng = np.random.default_rng(31)
    ids = [f"c{i:03d}" for i in range(100)]
    scores = {cid: float(rng.uniform()) for cid in ids}
    truth = fake_truth({cid: float(rng.uniform()) for cid in ids})
    result = evaluate_method(scores, truth)
    assert abs(result.positive.spearman) < 0.25


def test_loss_only_scores_matches_mixture_weighted_loss(
    contributors_small, model_small
):
    out = loss_only_scores(contributors_small, model_small)
    for c in contributors_small:
        want = c.pi * empirical_loss(model_small, c.real_x, c.real_y) + (
            1 - c.pi
        ) * empirical_loss(model_small, c.synth_x, c.synth_y)
        assert out[c.id] == pytest.approx(want, abs=1e-15)


def test_time_method_reports_sane_numbers():
    report = time_method(lambda: None, units=4, warmup=True)
    assert 0 <= report.total_seconds < 1e-3
    assert report.per_unit_seconds == report.total_seconds / 4
    assert report.units == 4
    with pytest.raises(DomainError):
        time_method(lambda: None, units=0)


def test_time_method_counts_only_the_timed_run():
    calls = []
    time_method(lambda: calls.append(1), units=1, warmup=True)
    assert len(calls) == 2  # warmup + timed
    calls.clear()
    time_method(lambda: calls.append(1), units=1, warmup=False)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Shift fixtures.


def test_make_shift_fixture_structure():
    fixture = make_shift_fixture(
        pis=[1.0, 0.5, 0.0], samples_each=10, feature_dim=5, test_size=8, seed=3
    )
    assert [c.id for c in fixture.contributors] == ["c000", "c001", "c002"]
    assert [c.n_real for c in fixture.contributors] == [10, 5, 0]
    assert fixture.test_x.shape == (8, 5)
    assert fixture.test_y.shape == (8,)
    assert fixture.shift_directions.shape == (3, 5)
    for c in fixture.contributors:
        assert np.linalg.norm(c.pooled_x(), axis=1) == pytest.approx(
            np.ones(10), abs=1e-12
        )


def test_make_shift_fixture_paired_prefixes():
    fixture = make_shift_fixture(
        pis=[0.8, 0.4], samples_each=10, feature_dim=4, paired=True, seed=5
    )
    a, b = fixture.contributors
    # shared real pool: the smaller real part is a prefix of the larger
    assert np.array_equal(a.real_x[: b.n_real], b.real_x)
    # shared synthetic pool and one shift direction: prefixes there too
    assert np.array_equal(b.synth_x[: a.n_synth], a.synth_x)


def test_make_shift_fixture_per_contributor_directions():
    shared = make_shift_fixture(
        pis=[0.5, 0.5], samples_each=8, feature_dim=4, paired=True, seed=7
    )
    split = make_shift_fixture(
        pis=[0.5, 0.5], samples_each=8, feature_dim=4, paired=True, seed=7,
        per_contributor_directions=True,
    )
    assert np.array_equal(shared.shift_directions[0], shared.shift_directions[1])
    assert not np.array_equal(split.shift_directions[0], split.shift_directions[1])


def test_make_shift_fixture_zero_shift_keeps_features():
    # fixture defaults share the conftest mixture (beta 1.5, cutoff 20,
    # support 200), so shift 0 must reproduce the raw synthesis
    base = make_shift_fixture(
        pis=[0.5], samples_each=10, feature_dim=4, shift=0.0, seed=9
    )
    plain = make_contributors([(5, 5)], small_mixture(), feature_dim=4, seed=9)
    assert np.allclose(base.contributors[0].synth_x, plain[0].synth_x, atol=1e-12)
    assert np.array_equal(base.contributors[0].real_x, plain[0].real_x)


def test_make_shift_fixture_label_noise_only_touches_synth():
    quiet = make_shift_fixture(pis=[0.5], samples_each=10, feature_dim=4, seed=11)
    noisy = make_shift_fixture(
        pis=[0.5], samples_each=10, feature_dim=4, seed=11, label_noise=0.3
    )
    assert np.array_equal(quiet.contributors[0].real_y, noisy.contributors[0].real_y)
    assert not np.array_equal(quiet.contributors[0].synth_y, noisy.contributors[0].synth_y)
    assert np.all((noisy.contributors[0].synth_y >= 0) & (noisy.contributors[0].synth_y < 1))


def test_make_shift_fixture_validation():
    with pytest.raises(DomainError):
        make_shift_fixture(pis=[0.5], samples_each=1)
    with pytest.raises(DomainError):
        make_shift_fixture(pis=[1.5], samples_each=10)
    with pytest.raises(DomainError):
        make_shift_fixture(pis=[0.5, 0.5], samples_each=10, shift=[1.0])
