"""Multi-kernel maximum mean discrepancy estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from mixval.errors import DegenerateDataError, DomainError
from mixval.mmd import (
    DiscrepancyEstimate,
    DistanceBlocks,
    KernelSpec,
    MultiKernelSpec,
    _pairs_into,
    gaussian_kernel,
    median_heuristic,
    mmd,
    sq_distances,
)


def single_kernel(bandwidth: float = 1.0) -> MultiKernelSpec:
    return MultiKernelSpec.from_bandwidths([bandwidth])


# ---------------------------------------------------------------------------
# Kernel and bank construction.


def test_gaussian_kernel_hand_values():
    spec = KernelSpec(bandwidth=1.0)
    assert gaussian_kernel([0.0], [0.0], spec) == 1.0
    assert gaussian_kernel([0.0], [1.0], spec) == pytest.approx(math.exp(-0.5), rel=1e-15)
    wide = KernelSpec(bandwidth=2.0)
    assert gaussian_kernel([0.0, 0.0], [3.0, 4.0], wide) == pytest.approx(
        math.exp(-25.0 / 8.0), rel=1e-15
    )
    with pytest.raises(DomainError):
        gaussian_kernel([0.0], [0.0, 1.0], spec)


def test_kernel_spec_validation():
    with pytest.raises(DomainError):
        KernelSpec(bandwidth=0.0)
    with pytest.raises(DomainError):
        KernelSpec(bandwidth=-1.0)
    with pytest.raises(DomainError):
        KernelSpec(bandwidth=float("nan"))


def test_bank_validation():
    with pytest.raises(DomainError):
        MultiKernelSpec(kernels=(), weights=())
    with pytest.raises(DomainError):
        MultiKernelSpec.from_bandwidths([1.0, 2.0], weights=(1.0,))
    with pytest.raises(DomainError):
        MultiKernelSpec.from_bandwidths([1.0, 2.0], weights=(0.9, 0.2))
    with pytest.raises(DomainError):
        MultiKernelSpec.from_bandwidths([1.0, 2.0], weights=(1.2, -0.2))
    for weights in ((float("nan"), 1.0), (0.5, float("nan")), (float("inf"), 1.0)):
        with pytest.raises(DomainError):
            MultiKernelSpec.from_bandwidths([1.0, 2.0], weights=weights)
    bank = MultiKernelSpec.from_bandwidths([1.0, 2.0, 4.0])
    assert bank.weights == (1 / 3, 1 / 3, 1 / 3)


def test_median_heuristic_hand_cases():
    assert median_heuristic(np.array([0.0, 1.0]), np.array([3.0])) == 2.0
    # even pair count: distances 1, 2, 3, 4, 6, 7 average the middle two
    assert median_heuristic(np.array([0.0, 1.0]), np.array([3.0, 7.0])) == 3.5
    # majority-duplicate set: median distance 0 falls back to the
    # smallest positive distance
    assert median_heuristic(np.array([0.0, 0.0, 0.0, 0.0]), np.array([1.0])) == 1.0
    with pytest.raises(DegenerateDataError):
        median_heuristic(np.array([2.0, 2.0]), np.array([2.0, 2.0]))
    with pytest.raises(DomainError):
        median_heuristic(np.zeros((1, 2)), np.zeros((0, 2)))
    with pytest.raises(DomainError):
        median_heuristic(np.array([0.0, np.nan]), np.array([1.0]))
    with pytest.raises(DomainError, match="feature dims"):
        median_heuristic(np.zeros((2, 2)), np.zeros((2, 3)))


def pdist_median(x: np.ndarray, y: np.ndarray) -> float:
    """Reference median heuristic: pdist over the stacked points, both
    middle pairs selected by one partition, mean of their square roots."""
    d2 = pdist(np.vstack([x, y]), "sqeuclidean")
    mid = [(len(d2) - 1) // 2, len(d2) // 2]
    d2.partition(mid)
    med = float(np.mean(np.sqrt(d2[mid])))
    if med == 0.0:
        med = float(np.sqrt(d2[d2 > 0].min()))
    return med


def test_median_from_blocks_equals_pdist_median_bit_for_bit():
    rng = np.random.default_rng(2024)
    seen = set()
    for case in range(160):
        dim = 1 + case % 9
        nx, ny = (int(n) for n in rng.integers(1, 45, size=2))
        x = rng.standard_normal((nx, dim)) * rng.uniform(0.1, 10.0)
        y = rng.standard_normal((ny, dim)) + rng.uniform(-2.0, 2.0)
        if case % 4 == 1:  # ties: points on a coarse integer grid
            x, y = np.round(x), np.round(y)
        if case % 4 == 2:  # many pooled points coincide, often a zero median
            x[:] = y[0]
            y[: ny // 2 + 1] = y[0]
        dist = pdist(np.vstack([x, y]))
        if not np.any(dist > 0):
            continue
        want = pdist_median(x, y)
        assert median_heuristic(x, y) == want
        assert median_heuristic(x, y, DistanceBlocks.of(x, y, sq_distances(x, x))) == want
        seen.add(("odd" if len(dist) % 2 else "even", bool(np.median(dist) == 0)))
    assert seen == {("even", False), ("odd", False), ("even", True), ("odd", True)}


@pytest.mark.parametrize("n", [*range(0, 12), 31, 64, 101])
def test_pairs_gather_is_the_strict_upper_triangle(n):
    x = np.random.default_rng(n).standard_normal((n, 3))
    block = sq_distances(x, x)
    got = np.full(n * (n - 1) // 2, np.nan)
    _pairs_into(block, got)
    assert np.array_equal(np.sort(got), np.sort(block[np.triu_indices(n, 1)]))


def test_mmd_reuses_given_blocks_exactly():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((23, 4))
    y = rng.standard_normal((17, 4)) + 0.3
    blocks = DistanceBlocks.of(x, y)
    bank = MultiKernelSpec.median_bank(x, y, blocks=blocks)
    assert bank == MultiKernelSpec.median_bank(x, y)
    for estimator in ("biased", "unbiased"):
        assert mmd(x, y, bank, estimator, blocks) == mmd(x, y, bank, estimator)
    swapped = DistanceBlocks.of(y, x)
    with pytest.raises(DomainError, match="do not match"):
        median_heuristic(x, y, swapped)
    with pytest.raises(DomainError, match="do not match"):
        mmd(x, y, bank, "biased", swapped)


def test_median_bank_scales():
    x = np.array([0.0, 1.0])
    y = np.array([3.0])
    bank = MultiKernelSpec.median_bank(x, y, scales=(0.5, 1.0, 2.0))
    assert [k.bandwidth for k in bank.kernels] == [1.0, 2.0, 4.0]
    assert math.fsum(bank.weights) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Estimators.


def test_biased_mmd_hand_value():
    # two well-separated pairs: within-set mean kernel (1 + e^-0.5) / 2
    # each, cross terms below 1e-17
    x = np.array([[0.0], [1.0]])
    y = np.array([[10.0], [11.0]])
    got = mmd(x, y, single_kernel(), "biased")
    want_sq = 1.0 + math.exp(-0.5)
    assert got.squared == pytest.approx(want_sq, abs=1e-12)
    assert got.value == pytest.approx(math.sqrt(want_sq), abs=1e-12)
    assert got.estimator == "biased"


def test_biased_mmd_identical_sets_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((17, 3))
    bank = MultiKernelSpec.median_bank(x, x)
    got = mmd(x, x, bank, "biased")
    # compensated pair sums make X vs X cancel exactly, not just approximately
    assert got.squared == 0.0
    assert got.value == 0.0


def test_unbiased_mmd_hand_negative_value():
    # identical two-point sets: the U-statistic is exactly e^-0.5 - 1 < 0
    x = np.array([[0.0], [1.0]])
    got = mmd(x, x.copy(), single_kernel(), "unbiased")
    assert got.squared == pytest.approx(math.exp(-0.5) - 1.0, abs=1e-15)
    assert got.value == 0.0  # clamped before the square root


def test_mmd_symmetry():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((12, 2))
    y = rng.standard_normal((9, 2)) + 0.5
    bank = MultiKernelSpec.median_bank(x, y)
    for estimator in ("biased", "unbiased"):
        a = mmd(x, y, bank, estimator)
        b = mmd(y, x, bank, estimator)
        assert a.squared == pytest.approx(b.squared, abs=1e-15)


def test_multi_kernel_is_weighted_sum_of_single_kernels():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((10, 2))
    y = rng.standard_normal((8, 2)) + 1.0
    bandwidths = [0.5, 1.0, 3.0]
    weights = (0.2, 0.5, 0.3)
    bank = MultiKernelSpec.from_bandwidths(bandwidths, weights)
    combined = mmd(x, y, bank, "biased").squared
    parts = [mmd(x, y, single_kernel(b), "biased").squared for b in bandwidths]
    assert combined == pytest.approx(math.fsum(w * p for w, p in zip(weights, parts)), abs=1e-15)


def test_mmd_detects_mean_shift():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((150, 3))
    near = rng.standard_normal((150, 3))
    far = rng.standard_normal((150, 3)) + 2.0
    bank = MultiKernelSpec.median_bank(x, near)
    assert mmd(x, far, bank, "biased").value > 5 * mmd(x, near, bank, "biased").value


def test_biased_estimate_stabilizes_with_sample_size():
    # fixed pair of distributions: the population MMD is a constant, so
    # estimates at n=1000 and n=4000 should agree within 10%
    rng = np.random.default_rng(7)
    bank = MultiKernelSpec.from_bandwidths([1.0, 2.0])
    values = []
    for n in (1000, 4000):
        x = rng.standard_normal((n, 2))
        y = rng.standard_normal((n, 2)) + 0.8
        values.append(mmd(x, y, bank, "biased").value)
    assert abs(values[0] - values[1]) / values[1] < 0.10


def test_unbiased_null_mean_near_zero_small():
    # quick version of the null calibration check (the acceptance suite
    # runs the full 200-trial version)
    rng = np.random.default_rng(2)
    bank = MultiKernelSpec.from_bandwidths([1.0])
    trials = np.array([
        mmd(rng.standard_normal((40, 2)), rng.standard_normal((40, 2)), bank, "unbiased").squared
        for _ in range(40)
    ])
    se = trials.std(ddof=1) / math.sqrt(len(trials))
    assert abs(trials.mean()) < 4 * se


def test_estimator_validation():
    x = np.zeros((3, 2))
    y = np.ones((3, 2))
    with pytest.raises(DomainError):
        mmd(x, y, single_kernel(), "jackknife")
    with pytest.raises(DomainError):
        mmd(x, np.ones((3, 3)), single_kernel())
    with pytest.raises(DomainError):
        mmd(np.zeros((0, 2)), y, single_kernel(), "biased")
    with pytest.raises(DomainError):
        mmd(np.zeros((1, 2)), y, single_kernel(), "unbiased")
    # one point per set suffices for the biased form
    got = mmd(np.zeros((1, 2)), np.ones((1, 2)), single_kernel(), "biased")
    assert got.squared == pytest.approx(2.0 - 2.0 * math.exp(-1.0), rel=1e-14)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
def test_scale_equivariance_property(seed, scale):
    # scaling data and bandwidths together leaves every kernel value fixed
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 2))
    y = rng.standard_normal((5, 2))
    base = MultiKernelSpec.from_bandwidths([0.7, 1.9])
    scaled = MultiKernelSpec.from_bandwidths([0.7 * scale, 1.9 * scale])
    a = mmd(x, y, base, "biased").squared
    b = mmd(x * scale, y * scale, scaled, "biased").squared
    assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


def test_discrepancy_estimate_fields():
    est = DiscrepancyEstimate(value=0.5, squared=0.25, estimator="biased")
    assert est.value == 0.5 and est.squared == 0.25
