"""Multi-kernel maximum mean discrepancy estimators."""

import dataclasses
import math
import tracemalloc

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
    median_heuristic,
    mmd,
    sq_distances,
    sq_pairs,
)


def single_kernel(bandwidth: float = 1.0) -> MultiKernelSpec:
    return MultiKernelSpec.from_bandwidths([bandwidth])


def gaussian_kernel(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Gram matrix of one Gaussian kernel between the rows of x and y:
    one divide and one exp over the whole squared-distance block."""
    d = sq_distances(np.atleast_2d(x), np.atleast_2d(y))
    return np.exp(np.divide(d, -(2.0 * spec.bandwidth**2)))


def reference_mmd_squared(
    x: np.ndarray, y: np.ndarray, spec: MultiKernelSpec, estimator: str
) -> float:
    """Squared multi-kernel MMD with a separate full-block exp per kernel,
    each total the fsum of the block's row sums (minus the fsum of its
    diagonal for the unbiased form)."""

    def total(k: np.ndarray, offdiag: bool) -> float:
        t = math.fsum(np.add.reduce(k, axis=1).tolist())
        return t - math.fsum(np.diag(k).tolist()) if offdiag else t

    offdiag = estimator == "unbiased"
    nx, ny = len(x), len(y)
    mx, my = (nx * (nx - 1), ny * (ny - 1)) if offdiag else (nx * nx, ny * ny)
    per_kernel = []
    for kern in spec.kernels:
        kxx, kyy, kxy = (gaussian_kernel(a, b, kern) for a, b in ((x, x), (y, y), (x, y)))
        per_kernel.append(
            total(kxx, offdiag) / mx + total(kyy, offdiag) / my
            - 2.0 * (total(kxy, False) / (nx * ny))
        )
    return math.fsum(w * sq for w, sq in zip(spec.weights, per_kernel))


# ---------------------------------------------------------------------------
# Kernel and bank construction.


def test_gaussian_kernel_hand_values():
    spec = KernelSpec(bandwidth=1.0)
    assert gaussian_kernel([0.0], [0.0], spec)[0, 0] == 1.0
    assert gaussian_kernel([0.0], [1.0], spec)[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-15)
    wide = KernelSpec(bandwidth=2.0)
    got = gaussian_kernel([[0.0, 0.0], [3.0, 4.0]], [[3.0, 4.0]], wide)
    assert got[:, 0] == pytest.approx([math.exp(-25.0 / 8.0), 1.0], rel=1e-15)


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


def test_empty_bank_is_a_domain_error_on_every_path():
    # uniform weights over no kernels divided by zero before the bank check ran
    with pytest.raises(DomainError, match="nonempty"):
        MultiKernelSpec.from_bandwidths([])
    with pytest.raises(DomainError, match="nonempty"):
        MultiKernelSpec.median_bank(np.zeros((2, 1)), np.ones((2, 1)), scales=())


@pytest.mark.parametrize("scales", [(0.25, 0.5, 1.0, 2.0, 4.0), (0.3, 1.7), (1,)])
def test_scaled_bank_equals_the_median_bank(scales):
    # a bank checked once, scaled per part, is the bank of the scaled
    # bandwidths built through every check
    rng = np.random.default_rng(len(scales))
    base = MultiKernelSpec.from_bandwidths(scales)
    for _ in range(3):
        x = rng.standard_normal((20, 3))
        y = 2.0 * rng.standard_normal((15, 3)) + 0.5
        med = median_heuristic(x, y)
        want = MultiKernelSpec.from_bandwidths([s * med for s in scales])
        assert base.scaled(med) == want == MultiKernelSpec.median_bank(x, y, scales)


def test_scaled_bank_rejects_a_bandwidth_that_leaves_the_positive_floats():
    # the one check a scaled bank keeps: KernelSpec's error for a product
    # that overflows to inf or underflows to 0
    with pytest.raises(DomainError, match="bandwidth must be finite, got inf"):
        MultiKernelSpec.from_bandwidths([1.0, 1e300]).scaled(1e10)
    with pytest.raises(DomainError, match="bandwidth must be > 0, got 0.0"):
        MultiKernelSpec.from_bandwidths([1e-300]).scaled(1e-30)
    with pytest.raises(DomainError, match="bandwidth must be finite, got inf"):
        MultiKernelSpec.median_bank(np.array([0.0, 10.0]), np.array([5.0]), scales=(1e308,))


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


@pytest.mark.parametrize("block", ["xx", "yy"])
def test_given_blocks_need_a_zero_diagonal(block):
    # mmd counts every self-pair as exactly 1, which holds only on a zero diagonal
    rng = np.random.default_rng(12)
    x, y = rng.standard_normal((5, 2)), rng.standard_normal((6, 2))
    blocks = DistanceBlocks.of(x, y)
    bad = getattr(blocks, block).copy()
    bad[2, 2] = 1e-300
    broken = dataclasses.replace(blocks, **{block: bad})
    for estimator in ("biased", "unbiased"):
        with pytest.raises(DomainError, match="zero diagonal"):
            mmd(x, y, single_kernel(), estimator, broken)
    with pytest.raises(DomainError, match="zero diagonal"):
        median_heuristic(x, y, broken)


@pytest.mark.parametrize("nx,ny", [(2, 3), (9, 14), (60, 45), (300, 240), (400, 30)])
@pytest.mark.parametrize("duplicates", [False, True])
def test_condensed_within_x_pairs_match_the_square_block(nx, ny, duplicates):
    # nx = 300 and 400 span several row blocks of the square xx (over 256
    # rows) and 400 also of the condensed pairs (over 65536 entries)
    x, y = _pair(nx, ny, 8, 0.3, nx * ny)
    if duplicates:
        x[: nx // 2 + 1] = x[0]
        y[:2] = x[0]
    square = DistanceBlocks.of(x, y)
    condensed = DistanceBlocks.of(x, y, sq_pairs(x))
    assert np.array_equal(condensed.xx, square.xx[np.triu_indices(nx, 1)])
    assert median_heuristic(x, y, condensed) == median_heuristic(x, y, square)
    bank = MultiKernelSpec.median_bank(x, y, blocks=square)
    for estimator in ("biased", "unbiased"):
        got = mmd(x, y, bank, estimator, condensed).squared
        assert abs(got - mmd(x, y, bank, estimator, square).squared) <= 1e-14


def test_condensed_pairs_of_the_wrong_length_are_rejected():
    x, y = _pair(6, 4, 2, 0.0, 3)
    blocks = DistanceBlocks.of(x, y, sq_pairs(x))
    wrong = [("xx", bad) for bad in (blocks.xx[:-1], np.append(blocks.xx, 1.0), sq_pairs(y))]
    wrong += [("yy", bad) for bad in (sq_pairs(y)[:-1], np.append(sq_pairs(y), 1.0), blocks.xx)]
    for block, bad in wrong:
        broken = dataclasses.replace(blocks, **{block: bad})
        with pytest.raises(DomainError, match="do not match"):
            mmd(x, y, single_kernel(), "biased", broken)
        with pytest.raises(DomainError, match="do not match"):
            median_heuristic(x, y, broken)


def _condensed(blocks: DistanceBlocks, x: np.ndarray, y: np.ndarray, which: str) -> DistanceBlocks:
    # blocks with the within-set pairs of "yy" or of both sets condensed
    yy = {"yy": sq_pairs(y)}
    return dataclasses.replace(blocks, **(yy if which == "yy" else {**yy, "xx": sq_pairs(x)}))


@pytest.mark.parametrize("nx,ny", [(3, 2), (14, 9), (45, 60), (30, 363), (200, 400)])
@pytest.mark.parametrize("duplicates", [False, True])
@pytest.mark.parametrize("which", ["yy", "both"])
def test_condensed_within_y_pairs_match_the_square_block(nx, ny, duplicates, which):
    # ny = 363 and 400 hold over 65536 pairs, so their condensed yy spans
    # two pair blocks
    x, y = _pair(nx, ny, 8, 0.3, nx + 7 * ny)
    if duplicates:
        y[: ny // 2 + 1] = y[0]
        x[:2] = y[0]
    square = DistanceBlocks.of(x, y)
    condensed = _condensed(square, x, y, which)
    assert np.array_equal(condensed.yy, square.yy[np.triu_indices(ny, 1)])
    assert median_heuristic(x, y, condensed) == median_heuristic(x, y, square)
    bank = MultiKernelSpec.median_bank(x, y, blocks=square)
    for estimator in ("biased", "unbiased"):
        got = mmd(x, y, bank, estimator, condensed).squared
        assert abs(got - mmd(x, y, bank, estimator, square).squared) <= 1e-14


def test_condensed_pairs_in_any_order_give_the_same_median_and_mmd_within_rounding():
    x, y = _pair(40, 380, 4, 0.2, 17)
    square = DistanceBlocks.of(x, y)
    shuffled = dataclasses.replace(
        square, yy=np.random.default_rng(5).permutation(sq_pairs(y))
    )
    assert median_heuristic(x, y, shuffled) == median_heuristic(x, y, square)
    bank = MultiKernelSpec.median_bank(x, y, blocks=square)
    for estimator in ("biased", "unbiased"):
        got = mmd(x, y, bank, estimator, shuffled).squared
        assert abs(got - mmd(x, y, bank, estimator, square).squared) <= 1e-14


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
    # numpy weights weigh as the equal Python floats, to the bit
    halves = MultiKernelSpec.from_bandwidths(bandwidths[:2], [np.float32(0.5)] * 2)
    uniform = MultiKernelSpec.from_bandwidths(bandwidths[:2])
    assert mmd(x, y, halves).squared == mmd(x, y, uniform).squared


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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("in_x", [True, False])
def test_non_finite_points_are_rejected_by_mmd_and_the_median(bad, in_x):
    # the same check guards both: a non-finite point has no distance
    clean, dirty = np.zeros((2, 3)), np.full((2, 3), 1.0)
    dirty[1, 2] = bad
    x, y = (dirty, clean) if in_x else (clean, dirty)
    message = f"{'X' if in_x else 'Y'} must be finite, got {bad}$"
    with pytest.raises(DomainError, match=f"^MMD {message}"):
        mmd(x, y, single_kernel())
    with pytest.raises(DomainError, match=f"^median heuristic {message}"):
        median_heuristic(x, y)
    with pytest.raises(DomainError, match=f"^distance blocks {message}"):
        DistanceBlocks.of(x, y)


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


# ---------------------------------------------------------------------------
# Kernel bank evaluation: row blocks and the squaring ladder.


def _pair(nx: int, ny: int, dim: int, shift: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((nx, dim)), rng.standard_normal((ny, dim)) + shift


# (nx, ny) spanning one row block, and several for xx, yy or xy
_SHAPES = [(7, 5), (120, 90), (600, 90), (40, 2000)]


@pytest.mark.parametrize("estimator", ["biased", "unbiased"])
@pytest.mark.parametrize("nx,ny", _SHAPES)
def test_bank_without_power_of_two_ratio_is_bit_identical(nx, ny, estimator):
    x, y = _pair(nx, ny, 3, 0.4, nx + ny)
    bank = MultiKernelSpec.from_bandwidths([1.0, 3.0, 7.0], (0.5, 0.3, 0.2))
    assert mmd(x, y, bank, estimator).squared == reference_mmd_squared(x, y, bank, estimator)


@pytest.mark.parametrize("estimator", ["biased", "unbiased"])
@pytest.mark.parametrize("nx,ny", _SHAPES)
def test_default_bank_squaring_within_tolerance(nx, ny, estimator):
    for shift in (0.0, 0.5):
        x, y = _pair(nx, ny, 4, shift, nx * ny)
        bank = MultiKernelSpec.median_bank(x, y)
        got = mmd(x, y, bank, estimator).squared
        assert abs(got - reference_mmd_squared(x, y, bank, estimator)) <= 1e-14


def test_squarings_since_last_exp_are_capped():
    # 2 bw^2 ratio 2^16: sixteen squarings would amplify the rounding of
    # the wide kernel's values 2^16-fold, so the narrow one takes its own exp
    x, y = _pair(60, 50, 3, 0.1, 4)
    bank = MultiKernelSpec.from_bandwidths([1.0, 256.0])
    for estimator in ("biased", "unbiased"):
        assert mmd(x, y, bank, estimator).squared == reference_mmd_squared(x, y, bank, estimator)


@pytest.mark.parametrize("estimator", ["biased", "unbiased"])
def test_default_scales_far_apart_underflow_to_zero(estimator):
    # bandwidths 0.25 ... 4 against a shift of 100: the narrow kernels'
    # cross values underflow to 0 through the squarings, never to NaN
    x, y = _pair(600, 90, 2, 100.0, 1)
    bank = MultiKernelSpec.from_bandwidths([0.25, 0.5, 1.0, 2.0, 4.0])
    got = mmd(x, y, bank, estimator).squared
    assert math.isfinite(got)
    assert abs(got - reference_mmd_squared(x, y, bank, estimator)) <= 1e-14


def test_block_size_does_not_change_bits(monkeypatch):
    cases = [_pair(nx, ny, 3, 0.3, nx) for nx, ny in _SHAPES]
    banks = [
        lambda x, y: MultiKernelSpec.median_bank(x, y),
        lambda x, y: MultiKernelSpec.from_bandwidths([1.0, 3.0, 7.0]),
    ]

    def run():
        return [
            mmd(x, y, bank(x, y), estimator).squared
            for x, y in cases
            for bank in banks
            for estimator in ("biased", "unbiased")
        ]

    default = run()
    monkeypatch.setattr("mixval.mmd._BLOCK_ENTRIES", 64)
    assert run() == default


def test_mmd_with_blocks_allocates_little():
    # the bank is evaluated in row blocks, so no full-size kernel block
    # is allocated: a 200 x 1500 pair's yy block alone is 17 MiB
    x, y = _pair(200, 1500, 8, 0.2, 5)
    blocks = DistanceBlocks.of(x, y)
    bank = MultiKernelSpec.median_bank(x, y, blocks=blocks)
    tracemalloc.start()
    try:
        mmd(x, y, bank, "unbiased", blocks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
