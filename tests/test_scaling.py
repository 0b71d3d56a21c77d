"""Mixture scaling oracle, phase expressions, and breakpoint detection."""

import itertools
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from mixval.errors import DomainError, GridError
from mixval.longtail import MixtureSpec, PowerLawSpec, TruncatedPowerLawSpec
from mixval.scaling import (
    PhaseCurve,
    ScalingParams,
    detect_breakpoints,
    error_limit,
    expected_test_error_exact,
    log_grid,
    phase_closed_form,
    points_per_decade,
    sweep,
    upper_incomplete_gamma,
)


def full_params(pi: float, support_max: int = 100_000) -> ScalingParams:
    # rho = i^-0.5, gamma = i^-1, beta 1.5, generator head 100
    return ScalingParams(
        a=1.0, alpha=0.5, b=1.0, lam=1.0, beta=1.5, cutoff=100, pi=pi,
        support_max=support_max,
    )


# ---------------------------------------------------------------------------
# Exact oracle.


def test_params_mixture_is_the_full_and_truncated_law():
    assert full_params(0.25, support_max=5_000).mixture() == MixtureSpec(
        pi=0.25,
        real_dist=PowerLawSpec(beta=1.5, support_max=5_000),
        synth_dist=TruncatedPowerLawSpec(beta=1.5, cutoff=100, support_max=5_000),
    )


def test_params_validation():
    with pytest.raises(DomainError):
        full_params(0.0)  # pi must be positive
    with pytest.raises(DomainError):
        full_params(1.5)
    with pytest.raises(DomainError):
        ScalingParams(a=1, alpha=0.5, b=1, lam=1, beta=1.0, cutoff=10, pi=0.5)
    with pytest.raises(DomainError):
        ScalingParams(a=1, alpha=0.5, b=1, lam=1, beta=1.5, cutoff=200, pi=0.5,
                      support_max=100)
    with pytest.raises(DomainError):
        # rho(1) = 2 escapes [0, 1]
        ScalingParams(a=2.0, alpha=0.5, b=1, lam=1, beta=1.5, cutoff=10, pi=0.5)
    with pytest.raises(DomainError):
        # gamma(i) > rho(i) on the head
        ScalingParams(a=0.5, alpha=1.0, b=1.0, lam=0.5, beta=1.5, cutoff=10, pi=0.5)
    good = dict(a=1.0, alpha=0.5, b=0.0, lam=1.0, beta=1.5, cutoff=10, pi=0.5)
    for field in ("a", "alpha", "b", "lam", "beta", "pi"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                ScalingParams(**{**good, field: bad})


@pytest.mark.parametrize(
    "field, bad, message",
    [("a", 0.0, "a must be > 0"), ("a", -1.0, "a must be > 0"),
     ("alpha", -0.5, "alpha must be >= 0"), ("lam", -1.0, "lam must be >= 0"),
     ("b", -0.1, "b must be >= 0")],
)
def test_params_reject_out_of_range_curve_coefficients(field, bad, message):
    good = dict(a=1.0, alpha=0.5, b=0.5, lam=1.0, beta=1.5, cutoff=10, pi=0.5)
    with pytest.raises(DomainError, match=message):
        ScalingParams(**{**good, field: bad})


@pytest.mark.parametrize(
    "sizes",
    [dict(cutoff=10.5), dict(cutoff=True), dict(cutoff=np.float64(10.0)),
     dict(support_max=100.5), dict(support_max="100"), dict(support_max=None)],
)
def test_params_reject_non_integer_sizes(sizes):
    # nothing at construction reads the support, so the type is checked there
    with pytest.raises(DomainError, match="integers"):
        ScalingParams(**{**dict(a=1.0, alpha=0.5, b=0.5, lam=1.0, beta=1.5, cutoff=10,
                                pi=0.5, support_max=100), **sizes})
    ScalingParams(a=1.0, alpha=0.5, b=0.5, lam=1.0, beta=1.5, cutoff=np.int64(10), pi=0.5,
                  support_max=np.int32(100))


def test_params_and_mixture_share_the_support_rules():
    # ScalingParams takes its beta, cutoff and support_max rules from the
    # mixture it describes, so both accept exactly the same triples
    def accepts(build) -> bool:
        try:
            build()
        except DomainError:
            return False
        return True

    betas = [1.5, 1.0 + 1e-12, 1.0, 0.5, float("nan"), float("inf")]
    cutoffs = [-1, 0, 1, 10, np.int64(10), 10.0, 10.5, True, None, 100, 101]
    supports = [0, 1, 10, 100, np.int32(100), 100.0, False, "100"]
    verdicts = set()
    for beta, cutoff, support_max in itertools.product(betas, cutoffs, supports):
        mixture = accepts(lambda: MixtureSpec.power_law(beta, cutoff, support_max))
        params = accepts(lambda: ScalingParams(
            a=1.0, alpha=0.5, b=0.5, lam=1.0, beta=beta, cutoff=cutoff, pi=0.5,
            support_max=support_max,
        ))
        assert mixture == params, (beta, cutoff, support_max)
        verdicts.add(params)
    assert verdicts == {True, False}


def full_support_accepts(a, alpha, b, lam, support_max) -> bool:
    # the check as written over every index 1..support_max
    i = np.arange(1, support_max + 1, dtype=float)
    rho, gam = a * i ** (-alpha), b * i ** (-lam)
    return bool(rho.max() <= 1.0 and gam.max() <= 1.0 and not np.any(gam > rho + 1e-12))


def validation_cases(rng, count):
    for case in range(count):
        support_max = int(np.exp(rng.uniform(0.0, math.log(3_000))))
        a = 1.0 if case % 5 == 0 else rng.uniform(0.01, 1.05)
        alpha, lam = rng.uniform(0.0, 2.0, size=2)
        kind = case % 6
        if kind == 1:
            lam = alpha
        elif kind == 2:
            lam = 0.0
        # gamma crosses rho near index k, just above or below it
        k = int(rng.integers(1, support_max + 1))
        eps = rng.choice([0.0, 1e-15, 1e-13, 1e-12, 1e-9]) * rng.choice([-1.0, 1.0])
        b = a * k ** (lam - alpha) * (1.0 + eps)
        if kind == 3:
            b = 0.0
        elif kind == 4:
            support_max = 1
        elif kind == 5:
            # an interior peak of gamma - rho within 3% of the 1e-12 slack
            lam = 10 ** rng.uniform(-6, 0.3)
            alpha = lam * (1.0 + 10 ** rng.uniform(-11, -1))
            peak = np.exp(rng.uniform(0.0, math.log(support_max)))
            off = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-5, -1.5)
            a = min(1e-12 * lam * peak**alpha / (alpha - lam) * (1.0 + off), 1.0)
            b = a * alpha * peak ** (lam - alpha) / lam
        yield a, alpha, b, lam, support_max


def test_params_validation_matches_full_support_check():
    rng = np.random.default_rng(16)
    cases = list(validation_cases(rng, 20_000))
    # rounding makes gamma - rho cross the slack at scattered indices (3, 6, 12, ...)
    # but at none of the indices around its peak
    cases.append((0.039813192292928186, 8.293781996962448e-06,
                  0.039813192293928185, 8.293781996754127e-06, 20_000))
    rejected = 0
    for a, alpha, b, lam, support_max in cases:
        want = full_support_accepts(a, alpha, b, lam, support_max)
        try:
            ScalingParams(a=a, alpha=alpha, b=b, lam=lam, beta=1.5, cutoff=1, pi=0.5,
                          support_max=support_max)
            got = True
        except DomainError:
            got = False
        assert got == want, (a, alpha, b, lam, support_max)
        rejected += not want
    assert 0.2 * len(cases) < rejected < 0.8 * len(cases)
    assert not full_support_accepts(*cases[-1])


def test_params_validation_does_not_build_the_support(monkeypatch):
    def no_support(self):
        raise AssertionError("validation built the whole support")

    monkeypatch.setattr(ScalingParams, "indexes", no_support)
    for pi in (0.1, 0.5, 1.0):
        full_params(pi, support_max=10**9)
    # alpha > lam: gamma - rho peaks beyond the support
    ScalingParams(a=0.8, alpha=1.0, b=1e-4, lam=0.4, beta=1.5, cutoff=10, pi=0.5)


def test_oracle_hand_value_support_two():
    params = ScalingParams(
        a=1.0, alpha=0.5, b=0.0, lam=0.0, beta=2.0, cutoff=1, pi=0.5, support_max=2
    )
    # p ~ [1, 1/4] -> [0.8, 0.2]; truncated law -> [1, 0]; q = [0.9, 0.1]
    # rho = [1, 2^-0.5]; gamma = [0, 0]
    # err(1) = 0.8 * (0.9 * 0 + 0.1 * 1) + 0.2 * (0.1 * (1 - 2^-0.5) + 0.9 * 1)
    hand = 0.8 * 0.1 + 0.2 * (0.1 * (1.0 - 2.0**-0.5) + 0.9)
    got = expected_test_error_exact(params, 1)
    assert got == pytest.approx(hand, abs=1e-15)
    assert got == pytest.approx(0.26585786437626907, abs=1e-15)


def bruteforce_error(p, q, rho, gam, n) -> float:
    # the defining sum, one Python term per index
    return math.fsum(
        p[j] * ((1 - (1 - q[j]) ** n) * (1 - rho[j]) + (1 - q[j]) ** n * (1 - gam[j]))
        for j in range(len(p))
    )


def test_oracle_matches_bruteforce_loop():
    params = ScalingParams(
        a=0.9, alpha=0.4, b=0.3, lam=0.8, beta=1.7, cutoff=3, pi=0.3, support_max=6
    )
    i = np.arange(1, 7, dtype=float)
    p = i**-1.7 / np.sum(i**-1.7)
    head = np.where(i <= 3, i**-1.7, 0.0)
    q = 0.3 * p + 0.7 * head / head.sum()
    rho = 0.9 * i**-0.4
    gam = 0.3 * i**-0.8
    for n in (0, 1, 2, 7, 100, 10_000):
        hand = bruteforce_error(p, q, rho, gam, n)
        assert expected_test_error_exact(params, n) == pytest.approx(hand, abs=1e-14)


def test_oracle_matches_bruteforce_where_q_is_one():
    # one index, drawn with probability 1: unseen before any draw, seen after
    params = ScalingParams(a=0.9, alpha=0.5, b=0.2, lam=1.0, beta=1.5, cutoff=1, pi=0.5,
                           support_max=1)
    one = np.ones(1)
    for n in (0, 0.5, 1, 7, 1e4):
        hand = bruteforce_error(one, one, 0.9 * one, 0.2 * one, n)
        assert expected_test_error_exact(params, n) == pytest.approx(hand, abs=1e-14)


@pytest.mark.parametrize("pi", [0.02, 0.5, 1.0])
def test_oracle_matches_fsum_at_full_support(pi):
    params = full_params(pi)
    i = np.arange(1, 100_001, dtype=float)
    p = i**-1.5 / np.sum(i**-1.5)
    head = np.where(i <= 100, i**-1.5, 0.0)
    q = pi * p + (1 - pi) * head / head.sum()
    for n in (0, 1e2, 1e4, 1e6):
        unseen = np.exp(n * np.log1p(-q))
        terms = p * ((1 - unseen) * (1 - i**-0.5) + unseen * (1 - 1 / i))
        got = expected_test_error_exact(params, n)
        assert abs(got - math.fsum(terms)) <= 2e-15, (n, got - math.fsum(terms))


@pytest.mark.parametrize("pi", [0.02, 0.5, 1.0])
def test_oracle_at_huge_n_is_the_limit(pi):
    for params in (full_params(pi, support_max=2_000),
                   ScalingParams(a=0.9, alpha=0.5, b=0.2, lam=1.0, beta=1.5, cutoff=1,
                                 pi=pi, support_max=1)):
        assert expected_test_error_exact(params, 1e300) == error_limit(params)


def test_oracle_rejects_bad_sample_counts():
    params = full_params(0.5, support_max=100)
    with pytest.raises(DomainError):
        expected_test_error_exact(params, -1)
    with pytest.raises(DomainError):
        expected_test_error_exact(params, float("inf"))
    for bad in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError):
            expected_test_error_exact(params, np.array([10.0, bad, 100.0]))
    with pytest.raises(DomainError):
        expected_test_error_exact(params, np.ones((2, 2)))


@pytest.mark.parametrize(
    "params",
    [
        full_params(0.3, support_max=2_000),
        # support of one index: q = 1, so the index is seen after any draw
        ScalingParams(a=0.9, alpha=0.5, b=0.2, lam=1.0, beta=1.5, cutoff=1, pi=0.5,
                      support_max=1),
        ScalingParams(a=0.9, alpha=0.4, b=0.3, lam=0.8, beta=1.7, cutoff=3, pi=0.3,
                      support_max=6),
    ],
)
def test_oracle_array_matches_scalar_loop(params):
    counts = np.array([0.0, 1.0, 0.5, 3.0, 7.25, 100.0, 0.0, 1e4, 1e9])
    got = expected_test_error_exact(params, counts)
    assert isinstance(got, np.ndarray) and got.shape == counts.shape
    want = np.array([expected_test_error_exact(params, float(n)) for n in counts])
    assert np.array_equal(got, want)
    # a scalar, Python or numpy, still gives a Python float
    for n in (0, 3, 7.25, np.float64(100.0), np.array(1e4)):
        value = expected_test_error_exact(params, n)
        assert type(value) is float
        assert value == got[counts == float(n)][0]
    assert expected_test_error_exact(params, np.array([])).shape == (0,)


def test_error_limit_value_and_convergence():
    params = full_params(0.1)
    i = np.arange(1, 100_001, dtype=float)
    p = i**-1.5 / np.sum(i**-1.5)
    hand = float(np.dot(p, 1.0 - i**-0.5))
    limit = error_limit(params)
    assert limit == pytest.approx(hand, rel=1e-14)
    assert limit == pytest.approx(0.36880583405892475, abs=1e-15)
    # the limit is pi-free once every index can be drawn
    assert error_limit(full_params(0.7)) == pytest.approx(limit, rel=1e-14)
    # at astronomically large n every index has been seen
    assert expected_test_error_exact(params, 1e12) == pytest.approx(limit, abs=1e-12)


def unmemoized_limit(params: ScalingParams) -> float:
    i = params.indexes()
    return float(np.dot(params.mixture().real_dist.probabilities(), 1.0 - params.rho(i)))


def test_error_limit_reuses_the_oracle_limit_bit_for_bit(monkeypatch):
    grid = log_grid(10, 1e6, 8)
    first = full_params(0.3, support_max=50_000)
    assert error_limit(first) == unmemoized_limit(first)
    other = ScalingParams(a=0.9, alpha=0.7, b=0.5, lam=1.2, beta=2.0, cutoff=30, pi=0.2,
                          support_max=20_000)
    params = full_params(0.3, support_max=50_000)
    sweep(params, grid)
    sweep(other, grid)
    want = [unmemoized_limit(p) for p in (first, params, other)]
    assert [error_limit(p) for p in (first, params, other)] == want
    # after a sweep the limit comes without building the support again
    monkeypatch.setattr(ScalingParams, "indexes", lambda self: pytest.fail("support rebuilt"))
    assert [error_limit(p) for p in (params, other)] == want[1:]


@pytest.mark.parametrize("pi", [0.02, 0.5, 1.0])
def test_oracle_mixture_pmf_is_the_mixture_spec(monkeypatch, pi):
    params = full_params(pi, support_max=5_000)
    seen = []
    log1p = np.log1p

    def spy(x, *args, **kwargs):
        seen.append(np.array(x, copy=True))
        return log1p(x, *args, **kwargs)

    monkeypatch.setattr(np, "log1p", spy)
    expected_test_error_exact(params, 100.0)
    monkeypatch.undo()
    want = -np.minimum(params.mixture().probabilities(), 1.0)
    assert len(seen) == 1 and np.array_equal(seen[0], want)


def test_error_bounds_and_monotonicity():
    params = full_params(0.25, support_max=2_000)
    i = np.arange(1, 2_001, dtype=float)
    p = i**-1.5 / np.sum(i**-1.5)
    err0 = expected_test_error_exact(params, 0)
    assert err0 == pytest.approx(float(np.dot(p, 1.0 - i**-1.0)), rel=1e-14)
    lo = error_limit(params)
    errs = [expected_test_error_exact(params, n) for n in np.logspace(0, 6, 40)]
    assert all(lo - 1e-12 <= e <= err0 + 1e-12 for e in errs)
    assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=0.2, max_value=1.0),
    alpha=st.floats(min_value=0.0, max_value=1.0),
    b_frac=st.floats(min_value=0.0, max_value=1.0),
    lam_extra=st.floats(min_value=0.0, max_value=1.0),
    beta=st.floats(min_value=1.1, max_value=3.0),
    pi=st.floats(min_value=0.05, max_value=1.0),
    n=st.floats(min_value=0.0, max_value=1e5),
)
def test_oracle_bounds_property(a, alpha, b_frac, lam_extra, beta, pi, n):
    # b <= a and lam >= alpha keep gamma(i) <= rho(i) on every index
    params = ScalingParams(
        a=a, alpha=alpha, b=b_frac * a, lam=alpha + lam_extra, beta=beta,
        cutoff=20, pi=pi, support_max=300,
    )
    err = expected_test_error_exact(params, n)
    assert error_limit(params) - 1e-12 <= err <= expected_test_error_exact(params, 0) + 1e-12
    assert expected_test_error_exact(params, n + 10.0) <= err + 1e-15


# ---------------------------------------------------------------------------
# Breakpoint formulas and closed forms.


def test_breakpoint_formulas():
    params = full_params(0.1)
    assert params.breakpoint_first == pytest.approx(1000.0, rel=1e-14)  # 100**1.5
    assert params.breakpoint_second == pytest.approx(10_000.0, rel=1e-14)
    collapsed = full_params(1.0)
    assert collapsed.breakpoint_first == collapsed.breakpoint_second == pytest.approx(1000.0)


def test_phase_one_closed_form_hand_value():
    params = full_params(0.5)
    n = 10.0
    e_obs = (1 - 0.5 - 1.5) / 1.5
    e_un = (1 - 1.0 - 1.5) / 1.5
    decay = n**e_obs - n**e_un
    consts = 100.0 ** (1 - 0.5 - 1.5) - 100.0 ** (1 - 1.0 - 1.5) + 100.0 ** (1 - 1.5)
    assert phase_closed_form(params, n, 1, floor_terms=False) == pytest.approx(decay, rel=1e-14)
    assert phase_closed_form(params, n, 1) == pytest.approx(decay + consts, rel=1e-14)


def test_phase_three_closed_form_floor():
    params = full_params(0.1)
    got = phase_closed_form(params, 1e9, 3)
    assert got == pytest.approx(0.10000463158883362, rel=1e-10)
    # decays onto k^(1-beta) = 0.1, the unresolvable-tail plateau
    assert abs(got - 0.1) < 5e-6
    assert expected_test_error_exact(params, 1e9) == pytest.approx(
        0.3688063626399043, rel=1e-10
    )


def test_phase_closed_form_regime_checks():
    params = full_params(0.1)
    with pytest.raises(DomainError):
        phase_closed_form(params, 100.0, 2)
    with pytest.raises(DomainError):
        phase_closed_form(params, 100.0, 4)
    with pytest.raises(DomainError):
        phase_closed_form(params, 0.5, 1)
    with pytest.raises(DomainError):
        phase_closed_form(params, 2000.0, 1)  # beyond k**beta
    with pytest.raises(DomainError):
        phase_closed_form(params, 5000.0, 3)  # before k**beta / pi
    # slack constants widen the admissible windows
    assert phase_closed_form(params, 2000.0, 1, c1=2.5) > 0
    assert phase_closed_form(params, 5000.0, 3, c2=0.5) > 0


def test_phase_closed_form_rejects_nan_sample_count():
    params = full_params(0.1)
    for phase in (1, 3):
        with pytest.raises(DomainError, match="^n must be finite, got nan$"):
            phase_closed_form(params, float("nan"), phase)
    # no sample count is infinite: the floor term is the limit, not a value at n
    with pytest.raises(DomainError, match="^n must be finite, got inf$"):
        phase_closed_form(params, float("inf"), 3)


def test_reducible_error_diverges_across_pi():
    grid = log_grid(1e2, 1e5, 16)
    r = {
        pi: sweep(full_params(pi), grid).reducible_errors()
        for pi in (0.1, 0.5)
    }
    gap = np.abs(r[0.1] - r[0.5]) / np.maximum(r[0.1], r[0.5])
    # nearly indistinguishable before the first breakpoint, far apart after
    assert gap[0] < 0.05
    assert gap[-1] > 0.5


# ---------------------------------------------------------------------------
# Upper incomplete gamma.


def test_gamma_against_exponential_identity():
    for x in (0.0, 0.05, 0.3, 1.0, 4.0, 12.0, 30.0, 50.0):
        assert upper_incomplete_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-14)


def test_gamma_spot_values():
    assert upper_incomplete_gamma(0.5, 1.0) == pytest.approx(
        0.27880558528066146, abs=1e-13
    )
    # Gamma(2, 3) integrates by parts to 4 * e^-3
    assert upper_incomplete_gamma(2.0, 3.0) == pytest.approx(4 * math.exp(-3), rel=1e-14)
    assert upper_incomplete_gamma(3.3, 0.0) == pytest.approx(math.gamma(3.3), rel=1e-14)


def test_gamma_against_reference_implementation():
    for s in (0.1, 0.5, 1.3, 2.0, 3.7, 6.0, 10.0):
        for x in (0.0, 0.2, 1.0, 7.0, 25.0, 50.0):
            want = float(scipy.special.gammaincc(s, x)) * math.gamma(s)
            assert upper_incomplete_gamma(s, x) == pytest.approx(want, rel=1e-12)


def test_gamma_domain_errors():
    with pytest.raises(DomainError):
        upper_incomplete_gamma(0.0, 1.0)
    with pytest.raises(DomainError):
        upper_incomplete_gamma(-1.0, 1.0)
    with pytest.raises(DomainError):
        upper_incomplete_gamma(0.5, -0.1)


# ---------------------------------------------------------------------------
# Grids, curves, slopes.


def test_log_grid_shape_and_endpoints():
    grid = log_grid(1e2, 1e6, 16)
    assert len(grid) == 4 * 16 + 1
    assert grid[0] == pytest.approx(1e2, rel=1e-12)
    assert grid[-1] == pytest.approx(1e6, rel=1e-12)
    # deliberately real-valued: log spacing is exactly uniform
    steps = np.diff(np.log10(grid))
    assert steps == pytest.approx(np.full(len(grid) - 1, 1 / 16), abs=1e-12)
    assert points_per_decade(grid) == pytest.approx(16.0, rel=1e-9)
    with pytest.raises(DomainError):
        log_grid(0.5, 1e3, 8)
    with pytest.raises(DomainError):
        log_grid(1e3, 1e2, 8)
    with pytest.raises(DomainError):
        log_grid(1e2, 1e3, 0)
    for lo, hi, ppd in ((float("nan"), 1e3, 8), (1e2, float("inf"), 8), (1e2, 1e3, float("nan"))):
        with pytest.raises(DomainError):
            log_grid(lo, hi, ppd)


def test_sweep_matches_pointwise_oracle():
    params = full_params(0.5, support_max=2_000)
    grid = log_grid(10, 1e4, 8)
    curve = sweep(params, grid)
    assert curve.params is params
    want = np.array([expected_test_error_exact(params, n) for n in grid])
    assert np.array_equal(curve.errors, want)


def test_phase_curve_validation():
    params = full_params(0.5, support_max=100)
    with pytest.raises(DomainError):
        PhaseCurve(np.array([1.0]), np.array([0.5]), params)
    with pytest.raises(DomainError):
        PhaseCurve(np.array([10.0, 5.0]), np.array([0.5, 0.4]), params)
    with pytest.raises(DomainError):
        PhaseCurve(np.array([1.0, 2.0]), np.array([0.5]), params)


def test_phase_curve_holds_float_arrays():
    # a sequence or an integer array is held as the float array the array rule returns
    curve = PhaseCurve([10, 20, 30], np.array([1, 0, 0]), full_params(0.5, support_max=100))
    assert curve.sample_sizes.dtype == curve.errors.dtype == np.float64
    assert curve.reducible_errors().shape == (3,)


@pytest.mark.parametrize("sizes", [[0.0, 1.0], [-2.0, 1.0]])
def test_phase_curve_rejects_sample_sizes_that_are_not_positive(sizes):
    with pytest.raises(DomainError, match=f"^sample_sizes must be > 0, got {sizes[0]}$"):
        PhaseCurve(np.array(sizes), np.array([0.5, 0.4]), full_params(0.5, support_max=100))


def test_phase_labels_respect_breakpoints():
    params = full_params(0.1, support_max=1_000)
    grid = np.array([10.0, 1000.0, 3000.0, 10_000.0, 1e6])
    curve = PhaseCurve(grid, np.full(5, 0.5), params)
    assert curve.phase_labels() == [
        "rapid-learning", "rapid-learning", "plateau", "tail-learning", "tail-learning",
    ]


def test_mean_abs_log_slope_exact_power_law():
    # errors = limit + c * n^-0.7 has log-log slope exactly -0.7
    params = full_params(0.5, support_max=500)
    grid = log_grid(10, 1e4, 10)
    errors = error_limit(params) + 0.4 * grid**-0.7
    curve = PhaseCurve(grid, errors, params)
    assert curve.mean_abs_log_slope(10, 1e4) == pytest.approx(0.7, abs=1e-9)
    with pytest.raises(GridError):
        curve.mean_abs_log_slope(1e5, 1e6)


# ---------------------------------------------------------------------------
# Breakpoint detection.


def softened_three_phase_curve(points_per_decade_: int) -> PhaseCurve:
    """Piecewise log-log curve with corners at exactly n=1e3 and n=1e4.

    Slopes -0.9 / -0.05 / -0.7; corners are softened over w=0.04 decades
    because detection differentiates twice, and a hard corner lands on
    grid points as a flat curvature plateau with an arbitrary argmax.
    """
    params = ScalingParams(
        a=1.0, alpha=0.0, b=0.0, lam=0.0, beta=1.5, cutoff=100, pi=0.5,
        support_max=1_000,
    )
    assert error_limit(params) == 0.0  # rho = 1 everywhere
    grid = log_grid(1e2, 1e6, points_per_decade_)
    ln = np.log10(grid)
    w = 0.04

    def softplus(z: np.ndarray) -> np.ndarray:
        return np.logaddexp(0.0, z)

    y = -0.9 * ln + 0.85 * w * softplus((ln - 3.0) / w) - 0.65 * w * softplus((ln - 4.0) / w)
    return PhaseCurve(grid, 10.0**y, params)


@pytest.mark.parametrize("ppd", [16, 24])
def test_detect_breakpoints_on_softened_corners(ppd):
    report = detect_breakpoints(softened_three_phase_curve(ppd))
    assert report.detected_first == pytest.approx(1000.0, rel=1e-12)
    assert report.detected_second == pytest.approx(10_000.0, rel=1e-12)
    assert report.predicted_first == pytest.approx(1000.0)
    assert report.predicted_second == pytest.approx(2000.0)  # k**beta / 0.5


def test_detect_breakpoints_single_power_law_finds_nothing():
    # cutoff == support_max: the synthetic law equals the real one, so the
    # mixture is one power law and the curve has no regime change
    params = ScalingParams(
        a=1.0, alpha=0.5, b=0.0, lam=0.0, beta=1.5, cutoff=100_000, pi=0.5,
        support_max=100_000,
    )
    curve = sweep(params, log_grid(1e2, 1e5, 16))
    report = detect_breakpoints(curve)
    assert report.detected_first is None
    assert report.detected_second is None


def test_detect_breakpoints_needs_dense_grid():
    with pytest.raises(GridError):
        detect_breakpoints(softened_three_phase_curve(6))


def test_breakpoint_report_to_dict():
    report = detect_breakpoints(softened_three_phase_curve(16))
    d = report.to_dict()
    assert d["detected_first"] == pytest.approx(1000.0)
    assert d["detected_second"] == pytest.approx(10_000.0)
    assert set(d) == {
        "predicted_first", "predicted_second", "detected_first", "detected_second",
    }
