"""Multiple-kernel maximum mean discrepancy between sample sets.

The discrepancy between two empirical distributions is estimated as a
convex combination of per-kernel squared-MMD statistics over a bank of
Gaussian kernels at several length scales, square-rooted after clamping
at zero.  Kernel sums use compensated accumulation so the result does
not depend on evaluation order.

The bank is evaluated one row block of a distance block at a time
(at most ``_BLOCK_ENTRIES`` entries, 512 KiB), visiting kernels from the
widest bandwidth to the narrowest.  A kernel whose 2 bw^2 is the
previous kernel's over an exact power of two 2^k is that kernel raised
to 2^k, reached by k in-place squarings of the block (at most
``_MAX_SQUARINGS`` since the last exp); any other kernel gets its own
divide and exp.  So the default bank (scales 0.25 ... 4 of the median)
takes one exp per distance entry, and a bank with no power-of-two ratio
gives the same bits as a separate exp per kernel.  The squarings move
the default bank's MMD^2 by rounding only: within 1e-14 absolute of a
separate exp per kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DegenerateDataError, DomainError, check_real, check_reals

# default multi-scale bank: bandwidth multipliers around the median heuristic
_DEFAULT_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)
# entries of a distance block evaluated at once (512 KiB of float64)
_BLOCK_ENTRIES = 1 << 16
# squarings allowed since the last exp: the default bank's chain 2^2 x 4
_MAX_SQUARINGS = 8
_ESTIMATORS = ("biased", "unbiased")  # V-statistic, U-statistic


def check_estimator(estimator: str) -> None:
    """The one estimator rule, for ``mmd`` and ``ValuationConfig``."""
    if estimator not in _ESTIMATORS:
        raise DomainError(f"estimator must be 'biased' or 'unbiased', got {estimator!r}")


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel k(x, y) = exp(-||x - y||^2 / (2 * bandwidth^2))."""

    bandwidth: float

    def __post_init__(self) -> None:
        check_real(self.bandwidth, "bandwidth", gt=0)


@dataclass(frozen=True)
class MultiKernelSpec:
    """Convex combination of Gaussian kernels."""

    kernels: tuple[KernelSpec, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.kernels:
            raise DomainError("kernel bank must be nonempty")
        if len(self.kernels) != len(self.weights):
            raise DomainError(
                f"{len(self.kernels)} kernels but {len(self.weights)} weights"
            )
        for i, w in enumerate(self.weights):
            check_real(w, f"weights[{i}]", ge=0)
        if not abs(math.fsum(self.weights) - 1.0) <= 1e-12:
            raise DomainError("kernel weights must sum to 1 within 1e-12")

    @classmethod
    def from_bandwidths(
        cls, bandwidths: list[float] | tuple[float, ...], weights=None
    ) -> "MultiKernelSpec":
        """Bank from explicit bandwidths; uniform weights unless given."""
        kernels = tuple(KernelSpec(b) for b in bandwidths)
        if weights is None:  # an empty bank gets no weights, and __post_init__ rejects it
            weights = (1.0 / len(kernels),) * len(kernels) if kernels else ()
        return cls(kernels=kernels, weights=tuple(weights))

    @classmethod
    def median_bank(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        scales: tuple[float, ...] = _DEFAULT_SCALES,
        blocks: DistanceBlocks | None = None,
    ) -> "MultiKernelSpec":
        """Bank of scaled median-heuristic bandwidths with uniform weights."""
        med = median_heuristic(x, y, blocks)
        return cls.from_bandwidths([s * med for s in scales])


@dataclass(frozen=True)
class DistanceBlocks:
    """Squared Euclidean distances within X (xx), within Y (yy) and between (xy).

    A square xx or yy must be exactly symmetric with a zero diagonal, as
    ``sq_distances`` makes it: ``mmd`` counts each self-pair as exactly 1.
    Either may instead hold its set's within-set pairs condensed: the
    n(n-1)/2 distinct pairs, each once, half the square's entries and none
    of its diagonal.  ``sq_pairs`` gives them in ``pdist`` order; any
    order serves, since the median copies the pairs and ``mmd`` sums
    them (the order moves MMD^2 by rounding only).

    ``valuation`` holds the test set's xx condensed once per call, and
    ``coalition_value_fn``, when no distance cap can fire, holds the pieces
    of every coalition's yy and xy (T*N + sum_p N_p(N_p-1)/2 floats for T
    test rows and N pooled rows in parts of N_p, at most what the full
    coalition's own blocks cost), which it joins into a condensed yy once
    per set of members with rows in a part; coalitions with that set share
    the part's MMD.  When any cap can fire, nothing is held or shared.
    ``score_all`` keeps a square yy per part: condensing it raised the
    value-wide benchmark's peak RSS from 110.0 to 121.5 MB (seeds 1-3),
    an effect of glibc's dynamic mmap threshold.
    """

    xx: np.ndarray
    yy: np.ndarray
    xy: np.ndarray

    @classmethod
    def of(
        cls, x: np.ndarray, y: np.ndarray, xx: np.ndarray | None = None
    ) -> "DistanceBlocks":
        """Blocks of two sample sets; ``xx`` (square or condensed) is computed unless given."""
        x, y = _sample_sets(x, y, "distance blocks")
        if xx is None:
            xx = sq_distances(x, x)
        return cls(xx, sq_distances(y, y), sq_distances(x, y))


@dataclass(frozen=True)
class DiscrepancyEstimate:
    """MMD estimate: nonnegative value plus the raw signed squared statistic.

    ``value`` is sqrt(max(squared, 0)); the unbiased squared statistic may
    be slightly negative, and downstream scoring needs a stable distance
    while tests need the signed statistic.
    """

    value: float
    squared: float
    estimator: str


def median_heuristic(
    x: np.ndarray, y: np.ndarray, blocks: DistanceBlocks | None = None
) -> float:
    """Median pairwise Euclidean distance over the pooled sample set.

    Taken from the squared-distance blocks of (x, y), passed as
    ``blocks`` when the caller holds them for ``mmd`` and computed here
    otherwise: the distinct pairs of xx and yy plus every xy entry are
    the pooled set's pairs.  One partition places the lower middle pair;
    an even pair count takes the smallest entry above it as the upper
    one and averages the two square roots, which equals the median of
    the distances exactly (sqrt is monotone and correctly rounded).  A
    zero median (over half the points coincide) falls back to the
    smallest positive distance; a pooled set with no positive distance
    at all has no usable scale.
    """
    x, y = _sample_sets(x, y, "median heuristic")
    if len(x) + len(y) < 2:
        raise DomainError("median heuristic needs at least 2 pooled points")
    blocks = _blocks_for(x, y, blocks)
    tx, ty = (n * (n - 1) // 2 for n in (len(x), len(y)))
    d2 = np.empty(tx + ty + len(x) * len(y))  # partitioned in place below
    for block, out in ((blocks.xx, d2[:tx]), (blocks.yy, d2[tx : tx + ty])):
        if block.ndim == 1:
            out[...] = block
        else:
            _pairs_into(block, out)
    d2[tx + ty :] = blocks.xy.ravel()
    lo = (len(d2) - 1) // 2
    d2.partition(lo)
    a = float(d2[lo])
    b = float(d2[lo + 1 :].min()) if len(d2) % 2 == 0 else a
    med = (math.sqrt(a) + math.sqrt(b)) / 2.0
    if med == 0.0:
        positive = d2[d2 > 0]
        if positive.size == 0:
            raise DegenerateDataError("all pooled points identical; no length scale")
        med = float(np.sqrt(positive.min()))
    return med


def cdist(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    """scipy's ``cdist``, loaded on the first call rather than with the package.

    ``scipy.spatial`` takes about 0.4 s and 30 MB to import, which the
    subcommands that measure no distance should not pay.
    """
    from scipy.spatial.distance import cdist

    return cdist(a, b, metric=metric)


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of two 2-d arrays."""
    return cdist(a, b, metric="sqeuclidean")


def sq_pairs(a: np.ndarray) -> np.ndarray:
    """Condensed squared distances within the rows of a 2-d array.

    The entries (i, j), i < j, in ``pdist`` order: the same bits as the
    upper triangle of ``sq_distances(a, a)``.
    """
    from scipy.spatial.distance import pdist  # loaded on first use, as in ``cdist``

    return pdist(a, metric="sqeuclidean")


def _pairs_into(block: np.ndarray, out: np.ndarray) -> None:
    # Writes the entries (i, j), i < j, of an exactly symmetric n x n block
    # into the contiguous n(n-1)/2-long ``out``, in no particular order,
    # without index arrays.  Row i of the strided view ``wrap`` starts at
    # block[i, i + 1] and runs k = n // 2 entries; past the end of row i
    # it continues into row i + 1's lower triangle.  So column g holds the
    # pairs of gap g and, by symmetry, of gap n + 1 - g: columns 1..k
    # cover gaps 1..k and n + 1 - k..n - 1, every gap once, except that
    # odd n misses gap k + 1, copied from its own diagonal.
    n = len(block)
    if n < 2:
        return
    k = n // 2
    flat = np.ascontiguousarray(block).ravel()
    step = flat.itemsize
    wrap = as_strided(flat[1:], (n - 1, k), ((n + 1) * step, step), writeable=False)
    out[: (n - 1) * k].reshape(n - 1, k)[...] = wrap
    if n % 2:
        out[(n - 1) * k :] = flat[k + 1 :: n + 1][:k]


def _blocks_for(x: np.ndarray, y: np.ndarray, blocks: DistanceBlocks | None) -> DistanceBlocks:
    # the caller's blocks, checked against the sample sets, or fresh ones
    if blocks is None:
        return DistanceBlocks.of(x, y)
    nx, ny = len(x), len(y)
    if (blocks.xx.shape, blocks.yy.shape, blocks.xy.shape) != (
        _within_shape(blocks.xx, nx), _within_shape(blocks.yy, ny), (nx, ny)
    ):
        raise DomainError("distance blocks do not match the sample sets")
    if any(b.ndim == 2 and np.diagonal(b).any() for b in (blocks.xx, blocks.yy)):
        raise DomainError("distance blocks xx and yy must have a zero diagonal")
    return blocks


def _within_shape(block: np.ndarray, n: int) -> tuple[int, ...]:
    # the shape a within-set block of n points has: condensed or square
    return (n * (n - 1) // 2,) if block.ndim == 1 else (n, n)


def _sample_sets(x: np.ndarray, y: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    # X and Y as 2-d float arrays of one feature dim
    x, y = _as_matrix(x, f"{what} X"), _as_matrix(y, f"{what} Y")
    if x.shape[1] != y.shape[1]:
        raise DomainError(f"feature dims differ: {x.shape[1]} vs {y.shape[1]}")
    return x, y


def _as_matrix(v: np.ndarray, name: str) -> np.ndarray:
    a = check_reals(v, name)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise DomainError(f"{name} must be a 1-d or 2-d array, got ndim={a.ndim}")
    return a


def _bank_steps(spec: MultiKernelSpec) -> list[tuple[int, float, int | None]]:
    # (kernel index, divisor -(2 bw^2), squarings) from the widest kernel
    # to the narrowest.  A kernel whose 2 bw^2 is the previous one's over
    # exactly 2^k (equal frexp mantissas) is reached by k squarings of
    # the previous kernel's values, while the squarings since the last exp
    # stay within _MAX_SQUARINGS: each doubles the values' relative
    # rounding.  Any other kernel takes its own divide and exp (None).
    steps = []
    chain, last = 0, None
    for i in sorted(range(len(spec.kernels)), key=lambda j: -spec.kernels[j].bandwidth):
        c = 2.0 * spec.kernels[i].bandwidth ** 2
        m, e = math.frexp(c)
        k = None
        if last is not None and m == last[0] and chain + last[1] - e <= _MAX_SQUARINGS:
            k = last[1] - e
        chain = 0 if k is None else chain + k
        steps.append((i, -c, k))
        last = (m, e)
    return steps


def _kernel_totals(d: np.ndarray, steps: list[tuple[int, float, int | None]]) -> list[float]:
    # Sum of each kernel's values over one distance block, in kernel order.
    # Row blocks of at most _BLOCK_ENTRIES entries go through the whole
    # bank in one buffer; 1-d condensed pairs count as rows of
    # _BLOCK_ENTRIES entries, the last one shorter.  Each row is reduced on
    # its own, so a square block's sums do not depend on the row block
    # size, and each total is the fsum of its row sums, so it does not
    # depend on the row order either.
    # d / -(2 bw^2) is bit-identical to -d / (2 bw^2), since IEEE division
    # is sign-symmetric.
    if d.ndim == 1:
        blocks = [d[i : i + _BLOCK_ENTRIES][None] for i in range(0, len(d), _BLOCK_ENTRIES)]
    else:
        step = max(1, _BLOCK_ENTRIES // d.shape[1])
        blocks = [d[r : r + step] for r in range(0, len(d), step)]
    buf = np.empty(max((b.size for b in blocks), default=0))
    row_sums: list[list[float]] = [[] for _ in steps]
    for block in blocks:
        k = buf[: block.size].reshape(block.shape)
        for j, (_, divisor, squarings) in enumerate(steps):
            if squarings is None:
                np.divide(block, divisor, out=k)
                np.exp(k, out=k)
            else:
                for _ in range(squarings):
                    np.square(k, out=k)
            row_sums[j] += np.add.reduce(k, axis=1).tolist()
    totals = [0.0] * len(steps)
    for j, (i, _, _) in enumerate(steps):
        totals[i] = math.fsum(row_sums[j])
    return totals


def mmd(
    x: np.ndarray,
    y: np.ndarray,
    spec: MultiKernelSpec,
    estimator: str = "biased",
    blocks: DistanceBlocks | None = None,
) -> DiscrepancyEstimate:
    """Multi-kernel MMD between sample sets X and Y.

    The biased (V-statistic) form averages all pairs including self
    pairs and is nonnegative by construction; the unbiased (U-statistic)
    form excludes self pairs within X and within Y and needs at least
    two points per set.  ``blocks`` are those of (X, Y) when the caller
    already holds them, as for ``median_heuristic``; condensed xx or yy
    pairs are summed once and counted twice.
    """
    x, y = _sample_sets(x, y, "MMD")
    check_estimator(estimator)
    minimum = 1 if estimator == "biased" else 2
    if len(x) < minimum or len(y) < minimum:
        raise DomainError(
            f"{estimator} estimator needs at least {minimum} points per set, "
            f"got {len(x)} and {len(y)}"
        )
    blocks = _blocks_for(x, y, blocks)
    steps = _bank_steps(spec)
    sxx, syy, sxy = (_kernel_totals(d, steps) for d in (blocks.xx, blocks.yy, blocks.xy))
    nx, ny = len(x), len(y)
    # every kernel is exactly 1 on the zero diagonals of xx and yy, so the
    # self-pairs that the unbiased form drops sum to exactly nx and ny
    if blocks.xx.ndim == 1:
        sxx = [2.0 * a + nx for a in sxx]
    if blocks.yy.ndim == 1:
        syy = [2.0 * b + ny for b in syy]
    sx, sy = (nx, ny) if estimator == "unbiased" else (0, 0)
    mx, my, mxy = nx * nx - sx, ny * ny - sy, nx * ny
    per_kernel = [
        (a - sx) / mx + (b - sy) / my - 2.0 * (c / mxy) for a, b, c in zip(sxx, syy, sxy)
    ]
    # float(w): a numpy float32 weight would round each product to float32
    squared = math.fsum(float(w) * sq for w, sq in zip(spec.weights, per_kernel))
    return DiscrepancyEstimate(
        value=math.sqrt(max(squared, 0.0)),
        squared=squared,
        estimator=estimator,
    )
