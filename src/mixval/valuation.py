"""Bound-derived valuation of data contributors.

A contributor's score combines four measurable quantities at model
initialization: the mixture-weighted empirical loss, the mixture-
weighted kernel discrepancy to the test sample, the tangent-kernel
quadratic term, and a composition penalty sqrt(max(pi, 1-pi)/|S|).
Lower raw totals indicate better data when all weights are positive;
orientation is otherwise a fitting outcome, and the weights may take
any sign.  Marginal aggregation (Shapley / leave-one-out) treats the
score of pooled coalitions as the value function, with the empty
coalition worth 0.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from ._seeds import cap_rows, check_seed, substream
from .errors import DomainError, MixvalError, check_count, check_real, check_reals
from .longtail import Contributor, check_unique_ids, pool_contributors
from .mmd import (
    _DEFAULT_SCALES,
    DistanceBlocks,
    MultiKernelSpec,
    check_estimator,
    mmd,
    sq_distances,
    sq_pairs,
)
from .ntk import Model, NTKGram, bound_term, gradients, ntk_gram

_EXACT_SHAPLEY_MAX = 12


@dataclass(frozen=True)
class ValuationWeights:
    """Coefficients of the four score terms; signs unrestricted."""

    w1: float = 1.0
    w2: float = 1.0
    w3: float = 1.0
    w4: float = 1.0

    def __post_init__(self) -> None:
        for name, w in self.as_dict().items():
            check_real(w, name)

    def as_array(self) -> np.ndarray:
        return np.array(list(self.as_dict().values()))

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _weighted_total(terms: Sequence[float], weights: ValuationWeights) -> float:
    # the one rule for a score's total: weights and terms pair up in
    # field order (w1..w4 with ValuationScore.terms())
    return math.fsum(weights.as_array() * np.asarray(terms, dtype=float))


@dataclass(frozen=True)
class ValuationScore:
    """Four-term decomposition of one contributor's value.

    total = w1*loss_term + w2*discrepancy_term + w3*ntk_term
          + w4*composition_term, summed with ``math.fsum`` (correctly
    rounded, so the same weights and terms always give the same bits).
    gradient_norm_bound is the diagnostic B of the capped Gram; it does
    not enter the total.
    """

    contributor_id: str
    loss_term: float
    discrepancy_term: float
    ntk_term: float
    composition_term: float
    total: float
    gradient_norm_bound: float = float("nan")

    def terms(self) -> np.ndarray:
        return np.array(
            [self.loss_term, self.discrepancy_term, self.ntk_term, self.composition_term]
        )

    @classmethod
    def from_terms(
        cls,
        contributor_id: str,
        loss_term: float,
        discrepancy_term: float,
        ntk_term: float,
        composition_term: float,
        weights: ValuationWeights,
        gradient_norm_bound: float = float("nan"),
    ) -> "ValuationScore":
        terms = (loss_term, discrepancy_term, ntk_term, composition_term)
        return cls(contributor_id, *terms, _weighted_total(terms, weights), gradient_norm_bound)


@dataclass(frozen=True)
class ValuationConfig:
    """Knobs shared by every scoring call.

    Caps subsample a contributor's data before the quadratic-cost terms
    (tangent kernel, discrepancy); relative rankings are stable under
    such subsampling, which is what makes the caps admissible.  ``None``
    disables a cap.  All subsampling derives from ``seed`` and the
    contributor id, so scores do not depend on processing order.
    """

    weights: ValuationWeights = field(default_factory=ValuationWeights)
    estimator: str = "biased"
    kernel_scales: tuple[float, ...] = _DEFAULT_SCALES
    ntk_cap: int | None = 512
    mmd_cap: int | None = None
    test_cap: int | None = None
    ridge: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_estimator(self.estimator)
        for name, cap in (
            ("ntk_cap", self.ntk_cap),
            ("mmd_cap", self.mmd_cap),
            ("test_cap", self.test_cap),
        ):
            if cap is not None:
                check_count(cap, name, 2)
        if not self.kernel_scales:
            raise DomainError("kernel_scales must be nonempty")
        for i, s in enumerate(self.kernel_scales):
            check_real(s, f"kernel_scales[{i}]", gt=0)
        if self.ridge is not None:
            check_real(self.ridge, "ridge", ge=0)
        check_seed(self.seed)  # here, not per contributor: only a cap that fires draws


def empirical_loss(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    """Mean squared-gap loss (f(x) - y)^2 / 2 over a sample set."""
    pred, y = _predictions_for(model, x, y)
    if len(y) == 0:
        raise DomainError("empirical loss of an empty dataset is undefined")
    return _half_mean_sq(pred - y)


def _predictions_for(model: Model, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The model's outputs on x and the checked labels y, one label per
    prediction: a 1-d x is one point, so it needs exactly one label."""
    y = check_reals(y, "labels").ravel()
    pred = model.predict(x)
    if len(pred) != len(y):
        raise DomainError(f"{len(pred)} inputs vs {len(y)} labels")
    return pred, y


def _half_mean_sq(resid: np.ndarray) -> float:
    # the bits of np.mean(resid**2) / 2.0 without mean's wrapper cost
    return float(np.add.reduce(resid * resid)) / len(resid) / 2.0


def _parts(c: Contributor) -> list[tuple[float, np.ndarray, np.ndarray, str, slice]]:
    # (weight, x, y, tag, its rows among the pooled rows) of the real and
    # synthetic parts; an empty part has weight 0 and is left out
    return [
        part
        for part in (
            (c.pi, c.real_x, c.real_y, "real", slice(0, c.n_real)),
            (1.0 - c.pi, c.synth_x, c.synth_y, "synth", slice(c.n_real, None)),
        )
        if len(part[2])
    ]


def _predictions(model: Model, c: Contributor) -> np.ndarray:
    # the model's outputs on the pooled rows, from one predict per nonempty part
    return np.concatenate([model.predict(x) for _, x, _, _, _ in _parts(c)])


def _loss_term(c: Contributor, predictions: np.ndarray) -> float:
    # the one loss rule, read from the model's outputs on the pooled rows
    return math.fsum(w * _half_mean_sq(predictions[at] - y) for w, _, y, _, at in _parts(c))


def mixture_loss(model: Model, contributor: Contributor) -> float:
    """Mixture-weighted loss pi * L(real) + (1 - pi) * L(synth) at the model."""
    return _loss_term(contributor, _predictions(model, contributor))


@dataclass(frozen=True)
class _TestSet:
    """A validated test sample with its within-set squared distances.

    Built once per ``score_all`` or ``coalition_value_fn`` call.  ``d2``
    holds the n(n-1)/2 distinct pairs of its n points condensed
    (``sq_pairs``), half a square block; every part's median copies them
    and its MMD sums them once.  When ``test_cap`` fires, each part draws
    its own rows, so no pairs of the full set are held (``d2`` is None).
    """

    x: np.ndarray
    d2: np.ndarray | None

    @classmethod
    def of(cls, test_x: np.ndarray, cap: int | None) -> "_TestSet":
        x = check_reals(test_x, "test set")
        if x.ndim != 2 or len(x) < 1:
            raise DomainError("test set must be a nonempty 2-d array")
        return cls(x, None if cap is not None and len(x) > cap else sq_pairs(x))


@dataclass(frozen=True)
class _ModelRows:
    """The model's outputs on every pooled row (real, then synthetic) and
    the NTK Gram of the rows that ``ntk_cap`` keeps: all that the loss and
    tangent-kernel terms read.  ``of`` is the one builder from the model.
    The record holds the Gram, not the gradient rows: at n <= P, J (n x P)
    dies inside ``ntk_gram`` rather than living on through ``bound_term``.
    """

    predictions: np.ndarray
    gram: NTKGram

    @classmethod
    def of(cls, model: Model, contributor: Contributor, keep: np.ndarray | slice) -> "_ModelRows":
        # Gram first: predicting first peaked 3.6 MB higher on the value-wide benchmark
        gram = ntk_gram(model.spec, model.params, contributor.pooled_x()[keep])
        return cls(_predictions(model, contributor), gram)


def _part_discrepancy(
    test: _TestSet, x: np.ndarray, cid: str, tag: str, config: ValuationConfig
) -> float:
    # MMD of one capped part to the test set, from blocks built here; they
    # die on return, before the next part's
    part_x = x[cap_rows(len(x), config.mmd_cap, config.seed, "value", cid, "mmd-cap", tag)]
    # the rows are all of them exactly when test.d2 is held
    t_x = test.x[cap_rows(len(test.x), config.test_cap, config.seed, "value", cid, "test-cap", tag)]
    blocks = DistanceBlocks.of(t_x, part_x, sq_pairs(t_x) if test.d2 is None else test.d2)
    return _blocks_discrepancy(t_x, part_x, blocks, config)


def _blocks_discrepancy(
    t_x: np.ndarray, part_x: np.ndarray, blocks: DistanceBlocks, config: ValuationConfig
) -> float:
    # the one rule from a part's distance blocks to its discrepancy: the
    # median bank, then the MMD
    bank = MultiKernelSpec.median_bank(t_x, part_x, config.kernel_scales, blocks)
    return mmd(t_x, part_x, bank, config.estimator, blocks).value


def score(
    contributor: Contributor,
    test_x: np.ndarray | _TestSet,
    model: Model,
    config: ValuationConfig,
    *,
    rows: _ModelRows | None = None,
    part_discrepancy: Callable[[str], float] | None = None,
) -> ValuationScore:
    """Four-term value of one contributor against a test sample.

    The loss and discrepancy terms weight the real and synthetic parts
    by pi and 1-pi (an empty part has weight 0 and is skipped); the
    tangent-kernel term uses initialization residuals on the pooled
    set; |S| in the composition term is the full, uncapped size.
    ``score_all`` and ``coalition_value_fn`` pass a test set prepared
    once per call, so its distance pairs are not recomputed per score.
    The loss and tangent-kernel terms read ``rows`` (``_ModelRows``):
    ``coalition_value_fn`` joins them from its members' held rows; otherwise
    ``_ModelRows.of`` builds them here, after the discrepancy term, so that
    the gradient rows are never alive next to its distance blocks.
    Likewise ``part_discrepancy`` maps a part's tag ("real", "synth") to
    its uncapped discrepancy against the whole test set, which
    ``coalition_value_fn`` computes once per set of members with rows in
    the part; without it each part's blocks are built here, its yy square
    (see ``mmd.DistanceBlocks`` for why).  Both paths take a part's value
    from its blocks by one rule (``_blocks_discrepancy``).
    """
    test = test_x if isinstance(test_x, _TestSet) else _TestSet.of(test_x, config.test_cap)
    cid = contributor.id
    pi = contributor.pi
    try:
        own = part_discrepancy is None
        discrepancy_term = math.fsum(
            w * (_part_discrepancy(test, x, cid, tag, config) if own else part_discrepancy(tag))
            for w, x, _, tag, _ in _parts(contributor)
        )
        keep = cap_rows(contributor.n_total, config.ntk_cap, config.seed, "value", cid, "ntk-cap")
        if rows is None:
            rows = _ModelRows.of(model, contributor, keep)
        loss_term = _loss_term(contributor, rows.predictions)
        residuals = contributor.pooled_y()[keep] - rows.predictions[keep]
        ntk_term = bound_term(rows.gram, residuals, config.ridge)
        composition_term = math.sqrt(max(pi, 1.0 - pi) / contributor.n_total)
    except MixvalError as exc:
        raise type(exc)(f"contributor {cid!r}: {exc}") from exc
    return ValuationScore.from_terms(
        cid,
        loss_term,
        discrepancy_term,
        ntk_term,
        composition_term,
        config.weights,
        gradient_norm_bound=rows.gram.gradient_norm_bound,
    )


def _check_contributors(contributors: Sequence[Contributor]) -> None:
    # The one rule for a list of contributors to value: nonempty, unique ids.
    if not contributors:
        raise DomainError("need at least one contributor")
    check_unique_ids((c.id for c in contributors), "contributors")


def _map_contributors(fn: Callable, contributors: Sequence[Contributor], workers: int) -> list:
    # The one contributor fan-out, for score_all and train_ground_truth: a
    # checked contributor list and worker count, then fn over the
    # contributors in input order, serially or on a pool of ``workers`` threads.
    _check_contributors(contributors)
    check_count(workers, "workers", 1)
    if workers == 1:
        return [fn(c) for c in contributors]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, contributors))


def score_all(
    contributors: Sequence[Contributor],
    test_x: np.ndarray,
    model: Model,
    config: ValuationConfig,
    workers: int = 1,
) -> tuple[list[ValuationScore], dict[str, str]]:
    """Score every contributor; failures are collected, not fatal.

    Returns (scores, failures) where failures maps a contributor id to
    its error message.  Scores depend only on (data, id, config), never
    on list order or worker count: contributors are independent, so
    workers > 1 fans them out over a thread pool and collects results
    in the input order.  The test set is shared: a malformed one raises
    here, once, instead of failing every contributor, as does an id that
    repeats.
    """
    test = _TestSet.of(test_x, config.test_cap)

    def one(c: Contributor) -> tuple[ValuationScore | None, str | None]:
        try:
            return score(c, test, model, config), None
        except MixvalError as exc:
            return None, f"{type(exc).__name__}: {exc}"

    scores, failures = [], {}
    for c, (s, err) in zip(contributors, _map_contributors(one, contributors, workers)):
        if s is not None:
            scores.append(s)
        else:
            failures[c.id] = err
    return scores, failures


# ---------------------------------------------------------------------------
# Weight fitting: least squares of the four term columns onto a target.


@dataclass(frozen=True)
class WeightFit:
    """Fitted combination weights with fit diagnostics."""

    weights: ValuationWeights
    residual_norm: float
    column_rank: int


def term_matrix(scores: Sequence[ValuationScore]) -> np.ndarray:
    """K x 4 matrix of term columns, contributor per row."""
    if not scores:
        raise DomainError("no scores to assemble")
    return np.vstack([s.terms() for s in scores])


def default_fit_targets(scores: Sequence[ValuationScore]) -> np.ndarray:
    """Per-contributor average of the loss and discrepancy terms.

    This is the default regression target for weight fitting; a
    held-out ground-truth metric can be passed instead when available.
    """
    return np.array([(s.loss_term + s.discrepancy_term) / 2.0 for s in scores])


def fit_weights(
    terms: np.ndarray, targets: np.ndarray, ridge: float = 1e-8
) -> WeightFit:
    """Least-squares weights mapping term columns onto targets.

    A small ridge keeps rank-deficient systems solvable; the realized
    column rank is reported so callers can see when it kicked in.
    """
    a = check_reals(terms, "terms")
    t = check_reals(targets, "targets").ravel()
    if a.ndim != 2 or a.shape[1] != 4:
        raise DomainError(f"term matrix must be K x 4, got {a.shape}")
    if len(a) != len(t):
        raise DomainError(f"{len(a)} term rows vs {len(t)} targets")
    if len(a) < 2:
        raise DomainError("weight fitting needs at least 2 contributors")
    check_real(ridge, "ridge", ge=0)
    scale = max(float(np.trace(a.T @ a)) / 4.0, 1.0)
    w = np.linalg.solve(a.T @ a + ridge * scale * np.eye(4), a.T @ t)
    return WeightFit(
        weights=ValuationWeights(*(float(v) for v in w)),
        residual_norm=float(np.linalg.norm(a @ w - t)),
        column_rank=int(np.linalg.matrix_rank(a)),
    )


def fit_score_weights(
    scores: Sequence[ValuationScore],
    targets: np.ndarray | None = None,
    ridge: float = 1e-8,
) -> WeightFit:
    """Fit weights from emitted scores (default target: loss/MMD average)."""
    if targets is None:
        targets = default_fit_targets(scores)
    return fit_weights(term_matrix(scores), targets, ridge)


def rescore(
    scores: Sequence[ValuationScore], weights: ValuationWeights
) -> list[ValuationScore]:
    """Recombine stored terms under new weights; only ``total`` changes."""
    return [replace(s, total=_weighted_total(s.terms(), weights)) for s in scores]


# ---------------------------------------------------------------------------
# Marginal aggregation over coalitions of contributors.


@dataclass(frozen=True)
class CoalitionWeighting:
    """How marginal contributions are aggregated.

    kind 'shapley' with mc_permutations=0 enumerates exactly (K <= 12);
    a positive permutation budget switches to unbiased sampling.  kind
    'loo' takes no budget: a positive one is an error, not dropped.
    """

    kind: str
    mc_permutations: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("shapley", "loo"):
            raise DomainError(f"kind must be 'shapley' or 'loo', got {self.kind!r}")
        check_count(self.mc_permutations, "mc_permutations", 0)
        if self.kind == "loo" and self.mc_permutations:
            raise DomainError(
                f"kind 'loo' takes no permutation budget, got {self.mc_permutations}"
            )


ValueFn = Callable[[frozenset[int]], float]


def coalition_value_fn(
    contributors: Sequence[Contributor],
    test_x: np.ndarray,
    model: Model,
    config: ValuationConfig,
) -> ValueFn:
    """Memoized v(coalition) = score of the pooled coalition data.

    The empty coalition is worth 0 (the bound is vacuous on no data).
    Each coalition pools its own members (``pool_contributors``, ids
    joined by "+"), which recomputes pi and |S| from the combined
    counts.  The contributor list must be nonempty with unique ids.

    What no coalition changes is built once, here: the checked test set
    with its condensed pairs and, when the pool of every contributor
    fits under ``ntk_cap`` (or there is none), so that no coalition's
    cap fires, each contributor's model rows: the predictions and
    gradient rows of its pooled rows, from one ``predict`` and one
    ``gradients`` call on them.  For N pooled rows and P parameters that
    is N*P floats, no more than the full coalition's score builds.  A
    coalition takes its members' real rows, then their synthetic rows
    (the pooled order).

    Likewise, when no distance cap can fire (``test_cap`` keeps the whole
    test set, and ``mmd_cap`` is None or each part of the pool of every
    contributor fits under it), the distance pieces are built once
    (``_PartDistances``): each contributor's test x real and test x
    synthetic blocks and, per part, the pairs within each contributor and
    between each two.  For T test rows, N pooled rows and parts of N_p
    rows that is T*N + sum_p N_p(N_p - 1)/2 floats, at most what the full
    coalition's own blocks cost.  A coalition part joins its members'
    pieces into a condensed yy and an xy, so no coalition computes a
    distance, and its discrepancy is computed once per set of members with
    rows in the part, shared by every coalition with that set (254 part
    MMDs of 508 on shapley-exact).  When any cap can fire, each coalition
    builds its own blocks and draws, and no part value is shared.
    ``score_all`` holds no pieces (see ``mmd.DistanceBlocks`` for why).
    """
    _check_contributors(contributors)
    test = _TestSet.of(test_x, config.test_cap)
    n_total = sum(c.n_total for c in contributors)
    held = (
        [_held_rows(c, model) for c in contributors]
        if config.ntk_cap is None or n_total <= config.ntk_cap
        else None
    )
    parts = {"real": [c.real_x for c in contributors], "synth": [c.synth_x for c in contributors]}
    fits = config.mmd_cap is None or all(
        sum(map(len, xs)) <= config.mmd_cap for xs in parts.values()
    )
    pieces = (
        {tag: _PartDistances.of(test.x, xs) for tag, xs in parts.items()}
        if test.d2 is not None and fits
        else None
    )
    cache: dict[frozenset[int], float] = {frozenset(): 0.0}

    def value(coalition: frozenset[int]) -> float:
        got = cache.get(coalition)
        if got is not None:
            return got
        members = sorted(coalition)
        pooled = pool_contributors(
            [contributors[i] for i in members], id="+".join(contributors[i].id for i in members)
        )
        rows = None if held is None else _coalition_rows([held[i] for i in members], model)
        part_x = {"real": pooled.real_x, "synth": pooled.synth_x}
        part_discrepancy = (
            None
            if pieces is None
            else lambda tag: pieces[tag].discrepancy(test, part_x[tag], members, config)
        )
        v = score(pooled, test, model, config, rows=rows, part_discrepancy=part_discrepancy).total
        cache[coalition] = v
        return v

    return value


def _held_rows(c: Contributor, model: Model) -> tuple[int, np.ndarray, np.ndarray]:
    # (n_real, predictions, gradient rows) of one contributor's pooled
    # rows, from one predict and one gradients call on them
    x = c.pooled_x()
    try:
        return c.n_real, model.predict(x), gradients(model.spec, model.params, x)
    except MixvalError as exc:
        raise type(exc)(f"contributor {c.id!r}: {exc}") from exc


def _coalition_rows(held: list[tuple], model: Model) -> _ModelRows:
    # the members' real rows, then their synthetic rows: the pooled order
    parts = [(p[:n], g[:n]) for n, p, g in held] + [(p[n:], g[n:]) for n, p, g in held]
    grads = np.concatenate([g for _, g in parts])
    gram = ntk_gram(model.spec, model.params, rows=grads)
    return _ModelRows(np.concatenate([p for p, _ in parts]), gram)


@dataclass(frozen=True)
class _PartDistances:
    """One part's (real or synthetic) distance pieces, per contributor.

    ``test`` holds each contributor's T x n_i block against the test set,
    ``within`` its n_i(n_i - 1)/2 condensed pairs, and ``between`` the
    n_i x n_j block of each two contributors i < j, flattened.  ``memo``
    holds the part's discrepancy per set of members with rows in it, the
    same for every coalition with that set (a failure is not held): 254
    part MMDs of 508 on shapley-exact, with one all-real and one
    all-synthetic contributor among 8.
    """

    test: list[np.ndarray]
    within: list[np.ndarray]
    between: dict[tuple[int, int], np.ndarray]
    memo: dict[tuple[int, ...], float] = field(default_factory=dict)

    @classmethod
    def of(cls, test_x: np.ndarray, xs: list[np.ndarray]) -> "_PartDistances":
        between = {
            (i, j): sq_distances(xs[i], xs[j]).ravel()
            for i, j in combinations(range(len(xs)), 2)
        }
        return cls([sq_distances(test_x, x) for x in xs], [sq_pairs(x) for x in xs], between)

    def discrepancy(
        self, test: _TestSet, x: np.ndarray, members: list[int], config: ValuationConfig
    ) -> float:
        # the part x of the members pooled in this order, against the whole
        # test set: its xy columns are the members' test blocks side by side,
        # and its condensed yy holds every pair once, within each member and
        # then between each two; a member without rows here adds no entry
        key = tuple(i for i in members if self.test[i].shape[1])
        got = self.memo.get(key)
        if got is None:
            pairs = [self.within[i] for i in key]
            pairs += [self.between[ij] for ij in combinations(key, 2)]
            xy = np.concatenate([self.test[i] for i in key], axis=1)
            blocks = DistanceBlocks(test.d2, np.concatenate(pairs), xy)
            got = self.memo[key] = _blocks_discrepancy(test.x, x, blocks, config)
        return got


def exact_shapley(n: int, value_fn: ValueFn) -> np.ndarray:
    """Shapley values by full coalition enumeration (n <= 12)."""
    check_count(n, "n", 1)
    if n > _EXACT_SHAPLEY_MAX:
        raise DomainError(
            f"{n} contributors exceed the exact-enumeration cap {_EXACT_SHAPLEY_MAX}; "
            "sample permutations instead (mc_permutations, the CLI's 'permutations' key)"
        )
    values = {}
    for mask in range(1 << n):
        coalition = frozenset(i for i in range(n) if mask >> i & 1)
        values[mask] = value_fn(coalition)
    # the weight of a coalition without i, by its size s
    weight = [math.factorial(s) * math.factorial(n - s - 1) / math.factorial(n) for s in range(n)]
    phi = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for mask in range(1 << n):
            if mask >> i & 1:
                continue
            acc += weight[bin(mask).count("1")] * (values[mask | (1 << i)] - values[mask])
        phi[i] = acc
    return phi


def sampled_shapley(
    n: int, value_fn: ValueFn, permutations: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased permutation-sampling Shapley estimate with standard errors."""
    check_count(n, "n", 1)
    check_count(permutations, "permutations", 1)
    rng = substream(seed, "shapley-perm")
    marginals = np.zeros((permutations, n))
    for p in range(permutations):
        order = rng.permutation(n)
        coalition: frozenset[int] = frozenset()
        prev = value_fn(coalition)
        for i in order:
            coalition = coalition | {int(i)}
            cur = value_fn(coalition)
            marginals[p, i] = cur - prev
            prev = cur
    phi = marginals.mean(axis=0)
    if permutations > 1:
        stderr = marginals.std(axis=0, ddof=1) / math.sqrt(permutations)
    else:
        stderr = np.zeros(n)
    return phi, stderr


def loo_values(n: int, value_fn: ValueFn) -> np.ndarray:
    """Leave-one-out values v(all) - v(all without i)."""
    check_count(n, "n", 1)
    everyone = frozenset(range(n))
    v_all = value_fn(everyone)
    return np.array([v_all - value_fn(everyone - {i}) for i in range(n)])


@dataclass(frozen=True)
class MarginalReport:
    """Per-contributor marginal values with the aggregation used."""

    contributor_ids: tuple[str, ...]
    values: np.ndarray
    stderr: np.ndarray | None
    kind: str
    permutations: int  # 0 means exact enumeration

    def to_rows(self) -> list[dict]:
        rows = []
        for j, cid in enumerate(self.contributor_ids):
            row = {"id": cid, "value": float(self.values[j])}
            if self.stderr is not None:
                row["stderr"] = float(self.stderr[j])
            rows.append(row)
        return rows


def marginal_values(
    contributors: Sequence[Contributor],
    weighting: CoalitionWeighting,
    test_x: np.ndarray,
    model: Model,
    config: ValuationConfig,
) -> MarginalReport:
    """Aggregate coalition marginals of the pooled-score value function.

    A contributor id that repeats is a :class:`DomainError`.
    """
    value_fn = coalition_value_fn(contributors, test_x, model, config)
    ids = tuple(c.id for c in contributors)
    n = len(contributors)
    if weighting.kind == "loo":
        return MarginalReport(ids, loo_values(n, value_fn), None, "loo", 0)
    if weighting.mc_permutations == 0:
        return MarginalReport(ids, exact_shapley(n, value_fn), None, "shapley", 0)
    phi, stderr = sampled_shapley(
        n, value_fn, weighting.mc_permutations, seed=config.seed
    )
    return MarginalReport(ids, phi, stderr, "shapley", weighting.mc_permutations)
