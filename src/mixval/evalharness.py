"""Toy-scale evaluation harness for valuation methods.

Ground truth is the test metric of a small model retrained to
convergence on each contributor's data (full-batch gradient descent on
the squared loss).  Valuation quality is the rank correlation between
scores and ground truth; runtime is wall-clock with a warmup run
excluded.  Fixtures inject a controlled feature shift into synthetic
samples so that distribution discrepancy, not initial loss, carries the
ranking signal.
"""

from __future__ import annotations

import hashlib
import logging
import math
import time
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from ._seeds import cap_rows, check_seed, derive_seed, substream
from .errors import DegenerateDataError, DomainError, check_count, check_real, check_reals
from .longtail import Contributor, MixtureSpec, check_unique_ids, make_contributors
from .ntk import MLPSpec, Model, _check_batch, backprop, init_params
from .ntk import layer_outputs, ntk_gram
from .valuation import ValuationScore, _half_mean_sq, _map_contributors, empirical_loss
from .valuation import mixture_loss

log = logging.getLogger(__name__)

_METRICS = ("accuracy", "one_minus_loss")


@dataclass(frozen=True)
class TrainingConfig:
    """Full-batch gradient-descent budget for ground-truth retraining.

    The step size is lr_scale * n / lambda_max(Gram at init), capped at
    lr_cap; the n / lambda_max form is the stable-step bound for
    training in the kernel regime.  Training stops when the loss change
    drops below tol or at max_epochs.
    """

    lr_scale: float = 0.1
    lr_cap: float = 0.5
    tol: float = 1e-6
    max_epochs: int = 5000
    eigen_cap: int = 256
    metric: str = "accuracy"
    restarts: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("lr_scale", "lr_cap", "tol"):
            check_real(getattr(self, name), name, gt=0)
        for name in ("max_epochs", "eigen_cap", "restarts"):
            check_count(getattr(self, name), name, 1)
        if self.metric not in _METRICS:
            raise DomainError(f"metric must be one of {_METRICS}, got {self.metric!r}")
        check_seed(self.seed)

    def digest(self) -> str:
        """Twelve hex digits of the sha256 of the field values, in field
        order, each as its annotated Python type: equal configs hash alike,
        whether a value is a numpy scalar or an int in a float field."""
        cast = {"float": float, "int": int, "str": str}
        values = tuple(cast[f.type](getattr(self, f.name)) for f in fields(self))
        return hashlib.sha256(repr(values).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class GroundTruth:
    """Retraining outcome for one contributor.

    ``epochs`` is the largest epoch count over the restarts that ran and
    ``converged`` the number of them that stopped on ``tol`` rather than
    at ``max_epochs``; both are None when not recorded (a ground-truth
    file written without those columns).
    """

    contributor_id: str
    test_metric: float
    config_digest: str
    diverged: bool = False
    epochs: int | None = None
    converged: int | None = None

    def __post_init__(self) -> None:
        # a diverged record carries a placeholder, not a metric
        bounds = {} if self.diverged else {"ge": 0, "le": 1}
        check_real(self.test_metric, "test_metric", **bounds)
        if self.epochs is not None:
            check_count(self.epochs, "epochs", 1)
        if self.converged is not None:
            check_count(self.converged, "converged", 0)


@dataclass(frozen=True)
class TrainResult:
    """Outcome of one ``train_model`` run.

    ``converged`` is true when the loss change fell below ``tol``, false
    when the run hit ``max_epochs`` or diverged; ``lr`` is its step size.
    """

    model: Model
    epochs: int
    final_loss: float
    diverged: bool
    converged: bool
    lr: float


def _learning_rate(
    spec: MLPSpec, params: np.ndarray, x: np.ndarray, config: TrainingConfig
) -> float:
    n = len(x)
    sub = x[cap_rows(n, config.eigen_cap, config.seed, "lr-probe")]
    gram = ntk_gram(spec, params, sub)
    # lambda_max grows about linearly with sample count
    lam = float(np.linalg.eigvalsh(gram.matrix)[-1]) * (n / len(sub))
    if lam <= 0:
        return config.lr_cap
    return min(config.lr_cap, config.lr_scale * n / lam)


def train_model(
    x: np.ndarray, y: np.ndarray, spec: MLPSpec, config: TrainingConfig
) -> TrainResult:
    """Train a fresh model by full-batch gradient descent on (f-y)^2/2.

    Each epoch makes one forward pass, checks the loss, then runs one
    ``ntk.backprop`` of the summed loss (delta = f'(logit) * residual)
    and steps each layer's weights and bias in place, through the layer
    views of the one parameter vector this run owns.
    """
    x = _check_batch(spec, x)
    y = check_reals(y, "labels").ravel()
    if len(x) != len(y) or len(y) == 0:
        raise DomainError("training needs matching nonempty inputs and labels")
    params = init_params(spec)
    lr = _learning_rate(spec, params, x, config)
    layers = spec.layers(params)
    model = Model(spec, params)
    n = len(y)
    prev = math.inf
    loss = math.inf
    epochs = 0
    for epochs in range(1, config.max_epochs + 1):
        outputs = layer_outputs(spec, layers, x)
        resid = outputs[-1][:, 0] - y
        loss = _half_mean_sq(resid)
        if not math.isfinite(loss) or loss > 1e6:
            return TrainResult(model, epochs, loss, diverged=True, converged=False, lr=lr)
        if abs(prev - loss) < config.tol:
            return TrainResult(model, epochs, loss, diverged=False, converged=True, lr=lr)
        for li, delta, h_in in backprop(spec, layers, outputs, resid[:, None]):
            w, b = layers[li]
            w -= lr * (delta.T @ h_in) / n
            b -= lr * np.add.reduce(delta, axis=0) / n
        prev = loss
    return TrainResult(model, epochs, loss, diverged=False, converged=False, lr=lr)


def accuracy(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of test points with |f(x) - y| < 0.5."""
    if len(y) == 0:
        raise DomainError("accuracy of an empty test set is undefined")
    return float(np.mean(np.abs(model.predict(x) - check_reals(y, "labels").ravel()) < 0.5))


def _metric(model: Model, x, y, kind: str) -> float:
    if kind == "accuracy":
        return accuracy(model, x, y)
    # 1 - 2 * mean squared-gap loss, clipped into [0, 1]
    return float(np.clip(1.0 - 2.0 * empirical_loss(model, x, y), 0.0, 1.0))


def train_ground_truth(
    contributors: Sequence[Contributor],
    spec: MLPSpec,
    config: TrainingConfig,
    test_x: np.ndarray,
    test_y: np.ndarray,
    workers: int = 1,
) -> list[GroundTruth]:
    """Retrain per contributor and record its test metric.

    Each contributor gets its own derived init seed, so results depend
    only on (data, id, spec, config), not on list order or worker
    count; workers > 1 retrains on a thread pool.  An id that repeats is
    an error.  Diverged runs are flagged and later excluded from
    correlations; their epoch counts cover the restarts up to the one
    that diverged.
    """
    test_x, test_y = check_reals(test_x, "test_x"), check_reals(test_y, "test_y")
    digest = config.digest()

    def one(c: Contributor) -> GroundTruth:
        metrics = []
        epochs = converged = 0
        for r in range(config.restarts):
            c_spec = replace(
                spec, init_seed=derive_seed(config.seed, "gt-init", c.id, r)
            )
            result = train_model(c.pooled_x(), c.pooled_y(), c_spec, config)
            epochs = max(epochs, result.epochs)
            converged += result.converged
            if result.diverged:
                log.warning("training diverged for contributor %s", c.id)
                return GroundTruth(c.id, 0.0, digest, True, epochs, converged)
            metrics.append(_metric(result.model, test_x, test_y, config.metric))
        return GroundTruth(c.id, float(np.mean(metrics)), digest, False, epochs, converged)

    return _map_contributors(one, contributors, workers)


# ---------------------------------------------------------------------------
# Correlations, implemented directly so the estimators are auditable.


def _validate_pair(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    x, y = check_reals(xs, "xs").ravel(), check_reals(ys, "ys").ravel()
    if len(x) != len(y):
        raise DomainError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise DomainError("correlation needs at least 2 points")
    return x, y


def pearson(xs, ys) -> float:
    """Linear correlation coefficient."""
    x, y = _validate_pair(xs, ys)
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0.0:
        raise DegenerateDataError("constant input has no defined correlation")
    return float(dx @ dy) / denom


def average_ranks(xs) -> np.ndarray:
    """1-based ranks with tied values sharing their average rank."""
    x = np.asarray(xs, dtype=float).ravel()
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def spearman(xs, ys) -> float:
    """Rank correlation: linear correlation of average ranks."""
    x, y = _validate_pair(xs, ys)
    return pearson(average_ranks(x), average_ranks(y))


def kendall(xs, ys) -> float:
    """Tie-corrected rank concordance (the tau-b form)."""
    x, y = _validate_pair(xs, ys)
    i, j = np.triu_indices(len(x), k=1)  # the n(n-1)/2 distinct pairs, i < j
    dx = np.sign(x[i] - x[j])
    dy = np.sign(y[i] - y[j])
    s = float(np.sum(dx * dy))
    n0 = len(x) * (len(x) - 1) / 2.0
    tx = n0 - float(np.sum(dx != 0))
    ty = n0 - float(np.sum(dy != 0))
    denom = math.sqrt((n0 - tx) * (n0 - ty))
    if denom == 0.0:
        raise DegenerateDataError("constant input has no defined concordance")
    return s / denom


@dataclass(frozen=True)
class CorrelationReport:
    """The three standard correlations over n aligned pairs."""

    pearson: float
    spearman: float
    kendall: float
    n: int

    def __post_init__(self) -> None:
        check_count(self.n, "n", 2)
        for name in ("pearson", "spearman", "kendall"):
            v = getattr(self, name)
            if not -1.0 - 1e-12 <= v <= 1.0 + 1e-12:
                raise DomainError(f"{name} = {v} outside [-1, 1]")

    def flipped(self) -> "CorrelationReport":
        return CorrelationReport(-self.pearson, -self.spearman, -self.kendall, self.n)


@dataclass(frozen=True)
class MethodEvaluation:
    """Correlations of a score against ground truth in both orientations.

    Higher scores may mean better or worse data depending on the fitted
    weights; ``negative`` is ``positive`` flipped, and best_orientation is
    the sign under which the rank correlation comes out nonnegative.
    """

    positive: CorrelationReport

    @cached_property
    def negative(self) -> CorrelationReport:
        return self.positive.flipped()

    @property
    def best_orientation(self) -> int:
        return 1 if self.positive.spearman >= 0 else -1

    @property
    def best(self) -> CorrelationReport:
        return self.positive if self.best_orientation == 1 else self.negative


def _as_score_map(scores) -> dict[str, float]:
    if isinstance(scores, Mapping):
        return {str(k): float(v) for k, v in scores.items()}
    scores = list(scores)
    if not all(isinstance(s, ValuationScore) for s in scores):
        raise DomainError("scores must be a mapping id -> value or ValuationScore objects")
    check_unique_ids((s.contributor_id for s in scores), "scores")
    return {s.contributor_id: s.total for s in scores}


def evaluate_method(
    scores, ground_truth: Sequence[GroundTruth]
) -> MethodEvaluation:
    """Correlate scores with ground truth over aligned contributor ids.

    Diverged ground-truth entries are excluded; fewer than 2 aligned
    pairs, or an id that repeats in either input, is an error.
    """
    score_map = _as_score_map(scores)
    check_unique_ids((g.contributor_id for g in ground_truth), "ground truth")
    aligned = [
        (score_map[g.contributor_id], g.test_metric)
        for g in ground_truth
        if not g.diverged and g.contributor_id in score_map
    ]
    if len(aligned) < 2:
        raise DomainError(f"only {len(aligned)} aligned pairs; need at least 2")
    v = np.array([a for a, _ in aligned])
    g = np.array([b for _, b in aligned])
    positive = CorrelationReport(pearson(v, g), spearman(v, g), kendall(v, g), len(v))
    return MethodEvaluation(positive)


def loss_only_scores(
    contributors: Sequence[Contributor], model: Model
) -> dict[str, float]:
    """Ablation baseline: the mixture-weighted initial loss term alone."""
    return {c.id: mixture_loss(model, c) for c in contributors}


# ---------------------------------------------------------------------------
# Timing.


@dataclass(frozen=True)
class RuntimeReport:
    """Wall-clock cost of one task run (after an optional warmup)."""

    total_seconds: float
    per_unit_seconds: float
    units: int


def time_method(
    task: Callable[[], object], units: int = 1, warmup: bool = True
) -> RuntimeReport:
    """Time one run of task on a monotonic clock; the warmup run is untimed."""
    check_count(units, "units", 1)
    if warmup:
        task()
    t0 = time.perf_counter()
    task()
    total = time.perf_counter() - t0
    return RuntimeReport(
        total_seconds=total, per_unit_seconds=total / units, units=units
    )


# ---------------------------------------------------------------------------
# Controlled fixtures: synthetic parts get a feature-space shift, so the
# discrepancy to the (unshifted) test sample grows with the synthetic
# proportion and with the per-contributor shift magnitude.


@dataclass(frozen=True)
class ShiftFixture:
    contributors: list[Contributor]
    test_x: np.ndarray
    test_y: np.ndarray
    shift_directions: np.ndarray  # one unit row per contributor


def _perturb_contributor(
    c: Contributor,
    magnitude: float,
    direction: np.ndarray,
    label_noise: float,
    noise_rng: np.random.Generator,
) -> Contributor:
    if c.n_synth == 0 or (magnitude == 0.0 and label_noise == 0.0):
        return c
    shifted = c.synth_x
    if magnitude != 0.0:
        shifted = shifted + magnitude * direction
        shifted = shifted / np.linalg.norm(shifted, axis=1, keepdims=True)
    labels = c.synth_y
    if label_noise != 0.0:
        # wrap into [0, 1) so noisy labels stay in the label range
        labels = (labels + label_noise * noise_rng.standard_normal(len(labels))) % 1.0
    return replace(c, synth_x=shifted, synth_y=labels)


def make_shift_fixture(
    pis: Sequence[float],
    samples_each: int,
    feature_dim: int = 8,
    shift: float | Sequence[float] = 1.2,
    label_noise: float | Sequence[float] = 0.0,
    test_size: int = 200,
    per_contributor_directions: bool = False,
    paired: bool = False,
    seed: int = 0,
) -> ShiftFixture:
    """Contributors on a pi schedule whose synthetic parts are degraded.

    ``shift`` moves synthetic features along a bias direction (one
    magnitude for all contributors or one per contributor);
    ``label_noise`` wraps Gaussian noise onto synthetic labels, also
    scalar or per contributor.  With per_contributor_directions each
    contributor's synthetic pipeline gets its own bias direction, which
    keeps the shift visible to a discrepancy measure while scrambling
    any systematic effect of one fixed direction on model outputs.
    With ``paired`` every contributor slices prefixes of one shared
    real pool and one shared synthetic pool, so contributors differ
    only in mixture ratio and injected degradation, not in which
    knowledge they drew.  The test sample is an independent draw from
    the real distribution, so it shares the feature geometry of the
    real parts.  Knowledge follows the default ``MixtureSpec.power_law``.
    """
    check_count(samples_each, "samples_each", 2)
    check_count(test_size, "test_size", 2)

    def per_contributor(value, name: str) -> list[float]:
        values = [value] * len(pis) if np.isscalar(value) else list(value)
        if len(values) != len(pis):
            raise DomainError(f"{len(values)} {name} values for {len(pis)} contributors")
        for v in values:
            check_real(v, name)
        return [float(v) for v in values]

    shifts = per_contributor(shift, "shift")
    noises = per_contributor(label_noise, "label_noise")
    mixture = MixtureSpec.power_law()
    plan = []
    for i, pi in enumerate(pis):
        check_real(pi, f"pis[{i}]", ge=0, le=1)
        n_real = int(round(pi * samples_each))
        plan.append((n_real, samples_each - n_real))
    if paired:
        [pool] = make_contributors([(samples_each, samples_each)], mixture, feature_dim, seed)
        raw = [
            Contributor(
                id=f"c{i:03d}",
                real_x=pool.real_x[:n_real],
                real_y=pool.real_y[:n_real],
                real_idx=pool.real_idx[:n_real],
                synth_x=pool.synth_x[: samples_each - n_real],
                synth_y=pool.synth_y[: samples_each - n_real],
                synth_idx=pool.synth_idx[: samples_each - n_real],
            )
            for i, (n_real, _) in enumerate(plan)
        ]
    else:
        raw = make_contributors(plan, mixture, feature_dim, seed)

    directions = np.empty((len(pis), feature_dim))
    for i in range(len(pis)):
        rng = substream(seed, "shift-dir", i if per_contributor_directions else 0)
        d = rng.standard_normal(feature_dim)
        directions[i] = d / np.linalg.norm(d)
    contributors = [
        _perturb_contributor(c, s, d, g, substream(seed, "label-noise", i))
        for i, (c, s, d, g) in enumerate(zip(raw, shifts, directions, noises))
    ]

    [test] = make_contributors(
        [(test_size, 0)], mixture, feature_dim, derive_seed(seed, "harness-test")
    )
    return ShiftFixture(
        contributors=contributors,
        test_x=test.real_x,
        test_y=test.real_y,
        shift_directions=directions,
    )
