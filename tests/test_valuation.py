"""Four-term contributor scores, weight fitting, and marginal values."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixval import mmd as mmd_module
from mixval import ntk, valuation
from mixval.errors import DomainError
from mixval.longtail import Contributor, make_contributors, pool_contributors
from mixval.mmd import MultiKernelSpec, mmd
from mixval.ntk import bound_term, ntk_gram
from mixval.valuation import (
    CoalitionWeighting,
    ValuationConfig,
    ValuationScore,
    ValuationWeights,
    coalition_value_fn,
    default_fit_targets,
    empirical_loss,
    exact_shapley,
    fit_score_weights,
    fit_weights,
    loo_values,
    marginal_values,
    rescore,
    sampled_shapley,
    score,
    score_all,
    term_matrix,
)

from conftest import small_mixture


# ---------------------------------------------------------------------------
# Scores.


def test_weights_validation_and_arrays():
    w = ValuationWeights(0.5, -1.0, 2.0, 0.0)
    assert np.array_equal(w.as_array(), [0.5, -1.0, 2.0, 0.0])
    assert w.as_dict() == {"w1": 0.5, "w2": -1.0, "w3": 2.0, "w4": 0.0}
    with pytest.raises(DomainError):
        ValuationWeights(w1=float("inf"))


def test_config_validation():
    with pytest.raises(DomainError):
        ValuationConfig(estimator="plugin")
    with pytest.raises(DomainError):
        ValuationConfig(ntk_cap=1)
    with pytest.raises(DomainError):
        ValuationConfig(mmd_cap=0)
    with pytest.raises(DomainError):
        ValuationConfig(kernel_scales=())
    with pytest.raises(DomainError):
        ValuationConfig(ridge=-1.0)
    with pytest.raises(DomainError):
        ValuationConfig(ridge=float("nan"))
    with pytest.raises(DomainError):
        ValuationConfig(kernel_scales=(1.0, float("nan")))


@pytest.mark.parametrize("key", ["ntk_cap", "mmd_cap", "test_cap"])
@pytest.mark.parametrize("value", [2.5, 4.0, True])
def test_config_rejects_non_integer_caps(key, value):
    # a float cap made score_all raise a bare TypeError, not a recorded failure
    with pytest.raises(DomainError, match=re.escape(f"{key} must be an integer, got {value!r}")):
        ValuationConfig(**{key: value})
    assert getattr(ValuationConfig(**{key: np.int64(4)}), key) == 4


def test_score_total_is_weighted_term_sum(contributors_small, test_x_small, model_small):
    weights = ValuationWeights(0.7, 1.3, -0.25, 2.0)
    config = ValuationConfig(weights=weights, seed=4)
    for c in contributors_small:
        s = score(c, test_x_small, model_small, config)
        want = math.fsum(w * t for w, t in zip(weights.as_array(), s.terms()))
        assert s.total == want  # identical fsum combination
        assert s.contributor_id == c.id


def test_score_terms_match_direct_computation(contributors_small, test_x_small, model_small):
    # recompute every term through the public building blocks; caps are
    # disabled so no subsampling hides in between
    config = ValuationConfig(ntk_cap=None, seed=4)
    c = contributors_small[0]
    s = score(c, test_x_small, model_small, config)

    pi = c.pi
    loss = pi * empirical_loss(model_small, c.real_x, c.real_y) + (1 - pi) * empirical_loss(
        model_small, c.synth_x, c.synth_y
    )
    assert s.loss_term == pytest.approx(loss, abs=1e-15)

    disc = 0.0
    for weight, part_x in ((pi, c.real_x), (1 - pi, c.synth_x)):
        bank = MultiKernelSpec.median_bank(test_x_small, part_x)
        disc += weight * mmd(test_x_small, part_x, bank, "biased").value
    assert s.discrepancy_term == pytest.approx(disc, abs=1e-15)

    gram = ntk_gram(model_small.spec, model_small.params, c.pooled_x())
    residuals = c.pooled_y() - model_small.predict(c.pooled_x())
    assert s.ntk_term == pytest.approx(bound_term(gram, residuals), abs=1e-15)
    assert s.gradient_norm_bound == pytest.approx(gram.gradient_norm_bound, abs=1e-15)

    assert s.composition_term == pytest.approx(
        math.sqrt(max(pi, 1 - pi) / c.n_total), abs=1e-16
    )


def test_score_real_only_contributor_skips_synth_part(test_x_small, model_small):
    from conftest import small_mixture
    from mixval.longtail import make_contributors

    [c] = make_contributors([(15, 0)], small_mixture(), feature_dim=4, seed=8)
    s = score(c, test_x_small, model_small, ValuationConfig(seed=1))
    # pi = 1: the synthetic part carries weight 0 and is never touched
    assert s.loss_term == pytest.approx(empirical_loss(model_small, c.real_x, c.real_y))
    bank = MultiKernelSpec.median_bank(test_x_small, c.real_x)
    assert s.discrepancy_term == pytest.approx(
        mmd(test_x_small, c.real_x, bank, "biased").value
    )
    assert s.composition_term == pytest.approx(math.sqrt(1.0 / 15))


def test_score_validation(contributors_small, model_small):
    config = ValuationConfig()
    with pytest.raises(DomainError):
        score(contributors_small[0], np.zeros((0, 4)), model_small, config)
    with pytest.raises(DomainError):
        score(contributors_small[0], np.zeros(4), model_small, config)
    infinite = np.zeros((3, 4))
    infinite[0, 0] = np.inf
    with pytest.raises(DomainError):
        score(contributors_small[0], infinite, model_small, config)


def test_score_all_order_and_worker_invariance(contributors_small, test_x_small, model_small):
    config = ValuationConfig(seed=6)
    forward_scores, failures = score_all(contributors_small, test_x_small, model_small, config)
    assert failures == {}
    reverse_scores, _ = score_all(
        list(reversed(contributors_small)), test_x_small, model_small, config
    )
    threaded_scores, _ = score_all(
        contributors_small, test_x_small, model_small, config, workers=3
    )
    by_id = {s.contributor_id: s.total for s in forward_scores}
    assert {s.contributor_id: s.total for s in reverse_scores} == by_id
    assert {s.contributor_id: s.total for s in threaded_scores} == by_id


def test_score_all_collects_failures(contributors_small, test_x_small, model_small):
    # a contributor whose pooled points are all identical has no usable
    # kernel length scale; it must fail alone, not poison the batch
    c = contributors_small[0]
    degenerate = Contributor(
        id="flat",
        real_x=np.zeros((0, 4)),
        real_y=np.zeros(0),
        real_idx=np.zeros(0, dtype=int),
        synth_x=np.tile(test_x_small[0], (4, 1)),
        synth_y=np.full(4, 0.5),
        synth_idx=np.ones(4, dtype=int),
    )
    test_degenerate = np.tile(test_x_small[0], (3, 1))
    scores, failures = score_all(
        [c, degenerate], test_degenerate, model_small, ValuationConfig(seed=2)
    )
    assert [s.contributor_id for s in scores] == [c.id]
    assert set(failures) == {"flat"}
    assert "DegenerateDataError" in failures["flat"]


def test_score_all_validation(contributors_small, test_x_small, model_small):
    config = ValuationConfig()
    with pytest.raises(DomainError):
        score_all([], test_x_small, model_small, config)
    with pytest.raises(DomainError, match="'c000' repeats in the contributors"):
        score_all(
            [contributors_small[0], contributors_small[0]], test_x_small, model_small, config
        )
    with pytest.raises(DomainError):
        score_all(contributors_small, test_x_small, model_small, config, workers=0)
    # a malformed test set fails the whole call, not each contributor
    with pytest.raises(DomainError, match="test set"):
        score_all(contributors_small, np.zeros((0, 4)), model_small, config)


@pytest.mark.parametrize("workers", [2.5, True])
def test_score_all_rejects_non_integer_workers(
    contributors_small, test_x_small, model_small, workers
):
    # 2.5 reached ThreadPoolExecutor(max_workers=2.5) and True ran serially
    with pytest.raises(DomainError, match="workers must be an integer"):
        score_all(contributors_small, test_x_small, model_small, ValuationConfig(), workers)


def test_subsampling_caps_are_deterministic(contributors_small, test_x_small, model_small):
    config = ValuationConfig(ntk_cap=8, mmd_cap=6, test_cap=10, seed=13)
    a = score(contributors_small[0], test_x_small, model_small, config)
    b = score(contributors_small[0], test_x_small, model_small, config)
    assert a == b
    moved = score(
        contributors_small[0], test_x_small, model_small,
        ValuationConfig(ntk_cap=8, mmd_cap=6, test_cap=10, seed=14),
    )
    assert moved.ntk_term != a.ntk_term  # different subsample draw


@settings(max_examples=25, deadline=None)
@given(
    w=st.tuples(*[st.floats(min_value=-3, max_value=3) for _ in range(4)]),
    terms=st.tuples(*[st.floats(min_value=0, max_value=2) for _ in range(4)]),
)
def test_from_terms_decomposition_property(w, terms):
    s = ValuationScore.from_terms("c", *terms, ValuationWeights(*w))
    assert s.total == math.fsum(wi * ti for wi, ti in zip(w, terms))


# ---------------------------------------------------------------------------
# Weight fitting.


def test_fit_weights_recovers_generating_weights():
    rng = np.random.default_rng(17)
    terms = rng.uniform(0.1, 1.0, size=(12, 4)) + np.eye(4).repeat(3, axis=0)
    true_w = np.array([0.8, 0.1, 0.6, -0.2])
    fit = fit_weights(terms, terms @ true_w)
    assert fit.weights.as_array() == pytest.approx(true_w, abs=1e-5)
    assert fit.residual_norm < 1e-5
    assert fit.column_rank == 4


def test_fit_weights_handles_rank_deficiency():
    rng = np.random.default_rng(3)
    terms = rng.uniform(0.1, 1.0, size=(8, 4))
    terms[:, 3] = terms[:, 2]  # duplicated column
    fit = fit_weights(terms, terms @ np.array([1.0, 1.0, 0.5, 0.5]))
    assert fit.column_rank == 3
    assert fit.residual_norm < 1e-3  # ridge keeps the solve well posed


def test_fit_weights_validation():
    good = np.ones((3, 4))
    with pytest.raises(DomainError):
        fit_weights(np.ones((3, 3)), np.ones(3))
    with pytest.raises(DomainError):
        fit_weights(good, np.ones(2))
    with pytest.raises(DomainError):
        fit_weights(np.ones((1, 4)), np.ones(1))
    with pytest.raises(DomainError):
        fit_weights(good, np.ones(3), ridge=-1e-3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ridge", [math.nan, math.inf])
def test_fit_weights_rejects_a_ridge_that_is_not_finite(
    ridge, contributors_small, test_x_small, model_small
):
    # NaN failed as a non-finite fitted weight, inf with a RuntimeWarning first
    message = f"ridge must be finite, got {ridge}"
    with pytest.raises(DomainError, match=re.escape(message)):
        fit_weights(np.ones((3, 4)) + np.eye(4)[:3], np.ones(3), ridge=ridge)
    scores, _ = score_all(contributors_small, test_x_small, model_small, ValuationConfig(seed=1))
    with pytest.raises(DomainError, match=re.escape(message)):
        fit_score_weights(scores, ridge=ridge)


def test_fit_score_weights_and_rescore(contributors_small, test_x_small, model_small):
    scores, _ = score_all(
        contributors_small, test_x_small, model_small, ValuationConfig(seed=4)
    )
    targets = default_fit_targets(scores)
    assert targets == pytest.approx(
        [(s.loss_term + s.discrepancy_term) / 2 for s in scores]
    )
    fit = fit_score_weights(scores)
    refitted = rescore(scores, fit.weights)
    assert [r.contributor_id for r in refitted] == [s.contributor_id for s in scores]
    matrix = term_matrix(scores)
    for r, row in zip(refitted, matrix):
        assert r.total == pytest.approx(float(row @ fit.weights.as_array()), abs=1e-12)


def test_rescore_replaces_only_the_total(contributors_small, test_x_small, model_small):
    scores, _ = score_all(
        contributors_small, test_x_small, model_small, ValuationConfig(seed=4)
    )
    weights = ValuationWeights(0.5, -1.0, 2.0, 0.25)
    for s, r in zip(scores, rescore(scores, weights)):
        assert math.isfinite(s.gradient_norm_bound)
        want = math.fsum(w * t for w, t in zip(dataclasses.astuple(weights), s.terms()))
        assert r.total == want
        assert r.total != s.total
        for f in dataclasses.fields(ValuationScore):
            if f.name != "total":
                assert getattr(r, f.name) == getattr(s, f.name), f.name


# ---------------------------------------------------------------------------
# Marginal values over coalitions.


def table_game(values: dict[frozenset[int], float]):
    def fn(coalition: frozenset[int]) -> float:
        return values[coalition]

    return fn


def test_exact_shapley_two_player_hand_formula():
    # v({}) = 0, v({0}) = 2, v({1}) = 5, v({0,1}) = 10
    v = {
        frozenset(): 0.0,
        frozenset({0}): 2.0,
        frozenset({1}): 5.0,
        frozenset({0, 1}): 10.0,
    }
    phi = exact_shapley(2, table_game(v))
    assert phi == pytest.approx([3.5, 6.5], abs=1e-15)


def test_exact_shapley_additive_game():
    contributions = np.array([2.0, 4.0, 6.0])

    def fn(coalition: frozenset[int]) -> float:
        return float(sum(contributions[i] for i in coalition))

    assert exact_shapley(3, fn) == pytest.approx(contributions, abs=1e-12)


def test_exact_shapley_axioms_on_table_game():
    rng = np.random.default_rng(29)
    base = {
        frozenset(s): float(rng.uniform(0, 5))
        for mask in range(1 << 2)
        for s in [tuple(i for i in range(2) if mask >> i & 1)]
    }
    base[frozenset()] = 0.0
    pair_worth = {0: 0.0, 1: 2.0, 2: 3.5}

    def game(coalition: frozenset[int]) -> float:
        # 2 and 3 enter only through their count (interchangeable);
        # 4 never enters at all (dummy)
        return base[coalition & {0, 1}] + pair_worth[len(coalition & {2, 3})]

    phi = exact_shapley(5, game)
    v_all = game(frozenset(range(5)))
    assert abs(phi.sum() - v_all) <= 1e-9  # efficiency
    assert abs(phi[2] - phi[3]) <= 1e-9  # symmetry
    assert abs(phi[4]) <= 1e-9  # dummy


def test_exact_shapley_validation():
    fn = table_game({frozenset(): 0.0})
    with pytest.raises(DomainError):
        exact_shapley(0, fn)
    with pytest.raises(DomainError):
        exact_shapley(13, fn)


def test_sampled_shapley_converges_to_exact():
    contributions = np.array([1.0, 3.0, 5.0, 7.0])

    def fn(coalition: frozenset[int]) -> float:
        return float(sum(contributions[i] for i in coalition)) + 0.1 * len(coalition) ** 2

    exact = exact_shapley(4, fn)
    phi, stderr = sampled_shapley(4, fn, permutations=600, seed=0)
    assert np.all(np.abs(phi - exact) <= 4 * stderr + 1e-12)
    assert phi.sum() == pytest.approx(fn(frozenset(range(4))), abs=1e-9)


def test_sampled_shapley_stderr_shrinks():
    rng = np.random.default_rng(5)
    table = {
        frozenset(s): float(rng.uniform(0, 3))
        for mask in range(1 << 4)
        for s in [tuple(i for i in range(4) if mask >> i & 1)]
    }
    table[frozenset()] = 0.0
    fn = table_game(table)
    means = []
    for budget in (100, 400, 1600):
        _, stderr = sampled_shapley(4, fn, permutations=budget, seed=9)
        means.append(stderr.mean())
    assert means[0] > 1.5 * means[1] > 2.25 * means[2]  # ~1/sqrt(P)


def test_sampled_shapley_single_permutation_has_zero_stderr():
    contributions = np.array([2.0, -1.0, 0.5])

    def fn(coalition: frozenset[int]) -> float:
        return float(sum(contributions[i] for i in coalition))

    # an additive game: every permutation gives each player its own contribution
    phi, stderr = sampled_shapley(3, fn, permutations=1, seed=4)
    assert np.array_equal(phi, contributions)
    assert np.array_equal(stderr, np.zeros(3))


def test_sampled_shapley_validation():
    fn = table_game({frozenset(): 0.0})
    with pytest.raises(DomainError):
        sampled_shapley(0, fn, 10)
    with pytest.raises(DomainError):
        sampled_shapley(2, fn, 0)


@pytest.mark.parametrize("permutations", [2.5, True])
def test_permutation_budget_must_be_an_integer(permutations):
    # 2.5 died in sampled_shapley with a bare TypeError; True was taken as 1
    got = re.escape(f"must be an integer, got {permutations!r}")
    with pytest.raises(DomainError, match="^mc_permutations " + got):
        CoalitionWeighting("shapley", permutations)
    with pytest.raises(DomainError, match="^permutations " + got):
        sampled_shapley(2, table_game({frozenset(): 0.0}), permutations)


def test_loo_values_hand_formula():
    v = {
        frozenset({0, 1}): 10.0,
        frozenset({0}): 4.0,
        frozenset({1}): 1.0,
    }
    got = loo_values(2, table_game(v))
    assert got == pytest.approx([10.0 - 1.0, 10.0 - 4.0], abs=1e-15)


def test_coalition_value_fn_empty_and_pooling(
    contributors_small, test_x_small, model_small
):
    config = ValuationConfig(seed=3)
    fn = coalition_value_fn(contributors_small, test_x_small, model_small, config)
    assert fn(frozenset()) == 0.0
    direct = score(
        pool_contributors(contributors_small[:2], id="c000+c001"),
        test_x_small, model_small, config,
    ).total
    assert fn(frozenset({0, 1})) == direct
    assert fn(frozenset({0, 1})) == direct  # memoized second call


@pytest.mark.parametrize(
    "config",
    [
        ValuationConfig(seed=3),
        ValuationConfig(seed=3, estimator="unbiased"),
        # every cap fires: pooled sets of 20-60, parts of 8 and 12, 30 test points
        ValuationConfig(seed=3, ntk_cap=15, mmd_cap=6, test_cap=10),
        ValuationConfig(seed=4, ntk_cap=15, mmd_cap=6, test_cap=10, estimator="unbiased"),
    ],
)
def test_coalition_values_equal_standalone_scores(
    contributors_small, test_x_small, model_small, config
):
    # the value function shares one prepared test set across coalitions;
    # each value equals a standalone score of the pooled data exactly
    fn = coalition_value_fn(contributors_small, test_x_small, model_small, config)
    for mask in range(1, 8):
        members = [i for i in range(3) if mask >> i & 1]
        pooled = pool_contributors(
            [contributors_small[i] for i in members],
            id="+".join(contributors_small[i].id for i in members),
        )
        assert fn(frozenset(members)) == score(pooled, test_x_small, model_small, config).total


@pytest.fixture
def contributors_mixed() -> list[Contributor]:
    # 59 pooled rows, above model_small's P = 49; one contributor has no
    # real data and one no synthetic data
    return make_contributors(
        [(12, 8), (0, 10), (9, 0), (12, 8)], small_mixture(), feature_dim=4, seed=11
    )


def each_coalition(contributors: list[Contributor]):
    # (coalition, its pooled data) for every nonempty coalition
    k = len(contributors)
    for mask in range(1, 1 << k):
        members = [i for i in range(k) if mask >> i & 1]
        pooled = pool_contributors(
            [contributors[i] for i in members],
            id="+".join(contributors[i].id for i in members),
        )
        yield frozenset(members), pooled


@pytest.mark.parametrize(
    "config",
    [
        ValuationConfig(seed=3),  # rows held: the pool of 59 fits under 512
        ValuationConfig(seed=3, ntk_cap=None),
        ValuationConfig(seed=3, ntk_cap=20),  # below most coalitions: nothing held
        ValuationConfig(seed=3, ntk_cap=45),  # fires on the largest coalitions only
        ValuationConfig(seed=3, mmd_cap=6, test_cap=10),
        ValuationConfig(seed=4, estimator="unbiased"),
    ],
)
def test_coalition_values_match_plain_scores_of_pooled_data(
    contributors_mixed, test_x_small, model_small, config
):
    # the value function gathers rows held once per call (and above P sums
    # its members' J'J); each value stays within rounding of a score of
    # the freshly pooled data
    fn = coalition_value_fn(contributors_mixed, test_x_small, model_small, config)
    for coalition, pooled in each_coalition(contributors_mixed):
        want = score(pooled, test_x_small, model_small, config).total
        assert fn(coalition) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_coalition_model_rows_are_computed_once_per_contributor(
    monkeypatch, contributors_mixed, test_x_small, model_small
):
    rows = []
    original = ntk.gradients

    def counting(spec, params, x):
        rows.append(len(x))
        return original(spec, params, x)

    monkeypatch.setattr(valuation, "gradients", counting)
    monkeypatch.setattr(ntk, "gradients", counting)

    def gradient_rows(config: ValuationConfig) -> list[int]:
        rows.clear()
        fn = coalition_value_fn(contributors_mixed, test_x_small, model_small, config)
        for coalition, _ in each_coalition(contributors_mixed):
            fn(coalition)
        return list(rows)

    assert gradient_rows(ValuationConfig(seed=3)) == [c.n_total for c in contributors_mixed]
    # the pool exceeds the cap: every coalition takes its own pass, capped
    assert gradient_rows(ValuationConfig(seed=3, ntk_cap=45)) == [
        min(pooled.n_total, 45) for _, pooled in each_coalition(contributors_mixed)
    ]


def count_distance_calls(monkeypatch) -> dict[str, int]:
    # calls to cdist (under every sq_distances) and to sq_pairs, by name
    calls = {"cdist": 0, "sq_pairs": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(mmd_module, "cdist", counting("cdist", mmd_module.cdist))
    pairs = counting("sq_pairs", mmd_module.sq_pairs)
    monkeypatch.setattr(mmd_module, "sq_pairs", pairs)
    monkeypatch.setattr(valuation, "sq_pairs", pairs)
    return calls


@pytest.mark.parametrize(
    "config",
    [
        ValuationConfig(seed=3),
        # caps at the pool's real part (33 rows) and the test set (30 rows)
        ValuationConfig(seed=3, mmd_cap=33, test_cap=30, estimator="unbiased"),
    ],
)
def test_coalitions_compute_no_distances_when_no_cap_can_fire(
    monkeypatch, contributors_mixed, test_x_small, model_small, config
):
    calls = count_distance_calls(monkeypatch)
    fn = coalition_value_fn(contributors_mixed, test_x_small, model_small, config)
    assert calls["cdist"] > 0 and calls["sq_pairs"] > 0  # the held pieces
    calls.update(cdist=0, sq_pairs=0)
    for coalition, _ in each_coalition(contributors_mixed):
        fn(coalition)
    assert calls == {"cdist": 0, "sq_pairs": 0}


@pytest.mark.parametrize(
    "config",
    [ValuationConfig(seed=3, mmd_cap=32), ValuationConfig(seed=3, test_cap=29)],
)
def test_coalitions_build_their_own_blocks_when_a_cap_can_fire(
    monkeypatch, contributors_mixed, test_x_small, model_small, config
):
    # the pool's real part (33 rows) exceeds mmd_cap 32, or the test set
    # (30 rows) test_cap 29: no pieces are held, and each nonempty part of
    # each coalition computes its own test x part and part x part blocks
    calls = count_distance_calls(monkeypatch)
    fn = coalition_value_fn(contributors_mixed, test_x_small, model_small, config)
    for coalition, pooled in each_coalition(contributors_mixed):
        want = score(pooled, test_x_small, model_small, config).total
        calls.update(cdist=0, sq_pairs=0)
        assert fn(coalition) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert calls["cdist"] == 2 * ((pooled.n_real > 0) + (pooled.n_synth > 0))


@pytest.mark.parametrize("estimator", ["biased", "unbiased"])
def test_held_distance_pieces_match_fresh_scores_over_two_pair_blocks(model_small, estimator):
    # the pooled real part has 390 rows, so its condensed yy (75855 pairs)
    # spans two 65536-entry pair blocks; one member has no real part and
    # one no synthetic part
    contributors = make_contributors(
        [(200, 12), (0, 25), (190, 0)], small_mixture(), feature_dim=4, seed=21
    )
    [holdout] = make_contributors([(40, 0)], small_mixture(), feature_dim=4, seed=22)
    config = ValuationConfig(seed=5, estimator=estimator)
    fn = coalition_value_fn(contributors, holdout.real_x, model_small, config)
    for coalition, pooled in each_coalition(contributors):
        want = score(pooled, holdout.real_x, model_small, config)
        assert fn(coalition) == pytest.approx(want.total, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "config",
    [ValuationConfig(seed=3), ValuationConfig(seed=3, ntk_cap=20)],  # rows held, and not
)
def test_each_coalition_pools_its_own_members_once(
    monkeypatch, contributors_mixed, test_x_small, model_small, config
):
    # one pool_contributors call per evaluated nonempty coalition, of its
    # members in sorted order; a memoized repeat pools nothing
    pooled = []
    original = valuation.pool_contributors

    def recording(contributors, id="pool"):
        pooled.append(([c.id for c in contributors], id))
        return original(contributors, id=id)

    monkeypatch.setattr(valuation, "pool_contributors", recording)
    fn = coalition_value_fn(contributors_mixed, test_x_small, model_small, config)
    assert pooled == []
    ids = [c.id for c in contributors_mixed]
    want = []
    for coalition, _ in each_coalition(contributors_mixed):
        fn(coalition)
        members = [ids[i] for i in sorted(coalition)]
        want.append((members, "+".join(members)))
    assert pooled == want
    for coalition, _ in each_coalition(contributors_mixed):
        fn(coalition)
    fn(frozenset())
    assert pooled == want


@pytest.mark.parametrize(
    "config",
    [
        ValuationConfig(seed=3, ntk_cap=8),  # fires on every contributor
        ValuationConfig(seed=3, ntk_cap=8, mmd_cap=6, test_cap=10),
    ],
)
def test_fresh_score_predicts_once_per_part_and_on_no_other_rows(
    monkeypatch, contributors_mixed, test_x_small, model_small, config
):
    # the loss and tangent-kernel terms read one record of predictions:
    # the residuals on the rows ntk_cap keeps come from it, not another pass
    inputs = []
    original = ntk.predict

    def recording(spec, params, x):
        inputs.append(x)
        return original(spec, params, x)

    monkeypatch.setattr(ntk, "predict", recording)
    for c in contributors_mixed:
        inputs.clear()
        score(c, test_x_small, model_small, config)
        parts = [x for x in (c.real_x, c.synth_x) if len(x)]
        assert len(inputs) == len(parts)
        assert all(np.array_equal(got, x) for got, x in zip(inputs, parts))


@pytest.mark.parametrize(
    "config", [ValuationConfig(seed=3, ntk_cap=8), ValuationConfig(seed=3, ntk_cap=None)]
)
def test_fresh_score_runs_the_model_after_every_mmd(
    monkeypatch, contributors_mixed, test_x_small, model_small, config
):
    # the model's record is built after the discrepancy term, so the
    # gradient rows are never alive next to its distance blocks
    events = []

    def recording(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            events.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    recording(valuation, "mmd")
    recording(ntk, "predict")
    recording(ntk, "gradients")
    for c in contributors_mixed:
        events.clear()
        score(c, test_x_small, model_small, config)
        n_parts = (c.n_real > 0) + (c.n_synth > 0)
        assert events == ["mmd"] * n_parts + ["gradients"] + ["predict"] * n_parts


def test_coalition_value_fn_checks_the_contributor_list(
    contributors_small, test_x_small, model_small
):
    with pytest.raises(DomainError, match="at least one contributor"):
        coalition_value_fn([], test_x_small, model_small, ValuationConfig())
    repeated = [contributors_small[0], contributors_small[1], contributors_small[0]]
    with pytest.raises(DomainError, match="'c000' repeats in the contributors"):
        coalition_value_fn(repeated, test_x_small, model_small, ValuationConfig())


def test_coalition_value_fn_names_the_contributor_the_model_cannot_take(
    test_x_small, model_small
):
    # 3-wide contributors under a 4-wide model fail where their rows are held
    narrow = make_contributors([(4, 3), (5, 2)], small_mixture(), feature_dim=3, seed=4)
    with pytest.raises(
        DomainError, match=r"^contributor 'c000': inputs must have 4 features, got shape \(7, 3\)$"
    ):
        coalition_value_fn(narrow, test_x_small, model_small, ValuationConfig())


def test_marginal_values_shapley_and_loo(contributors_small, test_x_small, model_small):
    config = ValuationConfig(seed=3)
    report = marginal_values(
        contributors_small, CoalitionWeighting(kind="shapley"), test_x_small,
        model_small, config,
    )
    assert report.kind == "shapley"
    assert report.permutations == 0
    assert report.stderr is None
    assert report.contributor_ids == ("c000", "c001", "c002")
    fn = coalition_value_fn(contributors_small, test_x_small, model_small, config)
    v_all = fn(frozenset(range(3)))
    assert report.values.sum() == pytest.approx(v_all, abs=1e-9)

    loo = marginal_values(
        contributors_small, CoalitionWeighting(kind="loo"), test_x_small,
        model_small, config,
    )
    want = [v_all - fn(frozenset(range(3)) - {i}) for i in range(3)]
    assert loo.values == pytest.approx(want, abs=1e-12)

    rows = loo.to_rows()
    assert rows[0] == {"id": "c000", "value": pytest.approx(want[0])}


def test_marginal_values_sampled_reports_stderr(
    contributors_small, test_x_small, model_small
):
    report = marginal_values(
        contributors_small, CoalitionWeighting(kind="shapley", mc_permutations=12),
        test_x_small, model_small, ValuationConfig(seed=3),
    )
    assert report.permutations == 12
    assert report.stderr is not None and np.all(report.stderr >= 0)
    assert "stderr" in report.to_rows()[0]


def test_marginal_values_rejects_repeated_ids(contributors_small, test_x_small, model_small):
    repeated = [contributors_small[0], contributors_small[1], contributors_small[1]]
    for kind in ("shapley", "loo"):
        with pytest.raises(DomainError, match="'c001' repeats in the contributors"):
            marginal_values(
                repeated, CoalitionWeighting(kind=kind), test_x_small, model_small,
                ValuationConfig(),
            )


def test_coalition_weighting_validation():
    with pytest.raises(DomainError):
        CoalitionWeighting(kind="banzhaf")
    with pytest.raises(DomainError):
        CoalitionWeighting(kind="shapley", mc_permutations=-1)
    with pytest.raises(DomainError, match="loo"):
        CoalitionWeighting(kind="loo", mc_permutations=5)
