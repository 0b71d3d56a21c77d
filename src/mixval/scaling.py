"""Three-phase scaling of test error for real/synthetic data mixtures.

A model trained on n samples from a mixture of a full power law (real
data) and a head-truncated power law (synthetic data) answers observed
knowledge i correctly with probability rho(i) = a * i**(-alpha) and
unobserved knowledge with probability gamma(i) = b * i**(-lam).  The
exact expected test error is a finite sum over knowledge indices; as n
grows it traverses three regimes: a rapid-learning decay while the
shared head is absorbed, a plateau once the head is exhausted, and a
tail-learning decay once real samples cover the tail.  The regime
boundaries sit near n = k**beta and n = k**beta / pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, GridError, check_count
from .longtail import MixtureSpec


@dataclass(frozen=True)
class ScalingParams:
    """Parameters of the mixture error model.

    a, alpha: observed-knowledge accuracy rho(i) = a * i**(-alpha)
    b, lam:   unobserved-knowledge accuracy gamma(i) = b * i**(-lam)
    beta:     power-law exponent of the knowledge distribution
    cutoff:   head size k mastered by the synthetic generator
    pi:       real-data proportion of the training mixture
    support_max: truncation point of the exact finite sum; keep it well
        above (pi * n_max)**(1/beta) or the truncation bends the tail
        of swept curves downward inside the analysis window

    Construction holds beta, cutoff and support_max to the rules of the
    mixture they describe (``mixture()``).  It checks that rho and gamma
    map into [0, 1] and that gamma(i) <= rho(i) + 1e-12 at every index
    without touching the support: both peak at i = 1, and gamma - rho =
    b*i**(-lam) - a*i**(-alpha) has at most one interior maximum (at
    i* = (a*alpha / (b*lam))**(1/(alpha-lam)) when alpha > lam), so the
    endpoints and the integers around i* decide the check.  A difference
    within rounding of the slack there is settled over the whole
    support, so the accepted set is the full-support check's.
    """

    a: float
    alpha: float
    b: float
    lam: float
    beta: float
    cutoff: int
    pi: float
    support_max: int = 100_000

    def __post_init__(self) -> None:
        reals = (self.a, self.alpha, self.b, self.lam, self.beta, self.pi)
        if not all(math.isfinite(v) for v in reals):
            raise DomainError(f"a, alpha, b, lam, beta and pi must be finite, got {reals}")
        if not self.a > 0:
            raise DomainError(f"a must be > 0, got {self.a}")
        if not (self.alpha >= 0 and self.lam >= 0):
            raise DomainError("alpha and lam must be >= 0")
        if not self.b >= 0:
            raise DomainError(f"b must be >= 0, got {self.b}")
        if not 0 < self.pi <= 1:
            raise DomainError(f"pi must be in (0, 1], got {self.pi}")
        self.mixture()  # the generator's rules for beta, cutoff and support_max
        i = self._peak_indexes()
        rho, gam = self.rho(i), self.gamma(i)
        if rho.max() > 1.0 or gam.max() > 1.0:
            raise DomainError("rho and gamma must map into [0, 1]")
        if abs(np.max(gam - rho) - 1e-12) < 1e-14:
            # this close to the slack, rounding at indexes outside the window can tip it
            i = self.indexes()
            rho, gam = self.rho(i), self.gamma(i)
        if np.any(gam > rho + 1e-12):
            raise DomainError("gamma(i) <= rho(i) must hold for every index")

    def _peak_indexes(self) -> np.ndarray:
        """1, support_max and the integers around gamma - rho's interior maximum."""
        picked = {1, self.support_max}
        if self.alpha > self.lam > 0 and self.b > 0:
            # log i* = log(a*alpha / (b*lam)) / (alpha - lam); i* itself can overflow
            log_peak = (
                math.log(self.a) + math.log(self.alpha) - math.log(self.b) - math.log(self.lam)
            ) / (self.alpha - self.lam)
            centre = int(math.exp(min(max(log_peak, 0.0), math.log(self.support_max))))
            picked.update(range(max(1, centre - 2), min(self.support_max, centre + 3) + 1))
        return np.array(sorted(picked), dtype=float)

    def indexes(self) -> np.ndarray:
        return np.arange(1, self.support_max + 1, dtype=float)

    def rho(self, i: np.ndarray) -> np.ndarray:
        """Accuracy on knowledge observed during training."""
        return self.a * np.asarray(i, dtype=float) ** (-self.alpha)

    def gamma(self, i: np.ndarray) -> np.ndarray:
        """Accuracy on knowledge never observed during training."""
        return self.b * np.asarray(i, dtype=float) ** (-self.lam)

    def mixture(self) -> MixtureSpec:
        return MixtureSpec.power_law(self.beta, self.cutoff, self.support_max, self.pi)

    @property
    def breakpoint_first(self) -> float:
        """Predicted end of the rapid-learning regime."""
        return float(self.cutoff) ** self.beta

    @property
    def breakpoint_second(self) -> float:
        """Predicted start of the tail-learning regime."""
        return float(self.cutoff) ** self.beta / self.pi


def expected_test_error_exact(
    params: ScalingParams, n: int | float | np.ndarray
) -> float | np.ndarray:
    """Exact expected test error after training on n mixture samples.

    Evaluates the finite sum over knowledge indices
    sum_i p_i * [(1 - (1 - q_i)**n) * (1 - rho(i)) + (1 - q_i)**n * (1 - gamma(i))]
    in limit-plus-gap form, error_limit(params) + sum_i gap_i * (1 - q_i)**n
    with gap_i = p_i * ((1 - gamma(i)) - (1 - rho(i))), and (1-q_i)**n
    computed as exp(n * log1p(-q_i)) for stability.

    ``n`` is a scalar (the result is a float) or a 1-d array of sample
    counts (the result is an array of the same length).  The limit, the
    gaps and log1p(-q) do not depend on n: they are built once per call,
    and each n costs one exp pass and one dot over the support, which
    gets the same result, bit for bit, as a call with that entry alone.
    Where q = 1, log1p(-1) = -inf makes the exp exactly 0 for every
    n > 0, so such indices need no special case.

    The real pmf p is built once and q = pi * p + (1 - pi) * p_synth is
    formed from it, the same expression as ``MixtureSpec.probabilities``.
    The limit is kept on ``params``, where :func:`error_limit` finds it,
    so a sweep and its breakpoint analysis build the support-sized arrays
    once.
    """
    counts = np.asarray(n, dtype=float)
    if counts.ndim > 1:
        raise DomainError(
            f"sample counts must be a scalar or a 1-d array, got shape {counts.shape}"
        )
    bad = ~(np.isfinite(counts) & (counts >= 0))
    if bad.any():
        raise DomainError(
            f"sample count must be finite and >= 0, got {counts[bad].flat[0]}"
        )
    mixture = params.mixture()
    p = mixture.real_dist.probabilities()
    q = mixture.pi * p + (1.0 - mixture.pi) * mixture.synth_dist.probabilities()
    with np.errstate(divide="ignore"):
        log_unseen = np.log1p(-np.minimum(q, 1.0))
    del q
    i = params.indexes()
    err_seen = 1.0 - params.rho(i)
    base = float(np.dot(p, err_seen))
    # error_limit's expression, bit for bit; the frozen params carry it
    object.__setattr__(params, "_error_limit", base)
    gap = p * ((1.0 - params.gamma(i)) - err_seen)
    del i, err_seen
    # one support-sized buffer serves every n; an n x support matrix
    # would cost ~80 MB on a 97-point grid at support_max 1e5
    unseen = np.empty_like(p)
    values = np.empty(counts.shape)
    for k, count in enumerate(counts.flat):
        if count == 0:
            # nothing is seen yet, also where q = 1 (0 * log1p(-1) is NaN)
            value = base + float(np.sum(gap))
        else:
            np.multiply(count, log_unseen, out=unseen)
            np.exp(unseen, out=unseen)
            value = base + float(np.dot(gap, unseen))
        values.flat[k] = min(max(value, 0.0), 1.0)
    return float(values) if values.ndim == 0 else values


def error_limit(params: ScalingParams) -> float:
    """Error as n -> infinity: every index is eventually observed (pi > 0).

    Returns the value an earlier :func:`expected_test_error_exact` call
    on this same ``params`` object computed, which is this expression bit
    for bit; otherwise it builds p and rho over the support.
    """
    limit = getattr(params, "_error_limit", None)
    if limit is not None:
        return limit
    i = params.indexes()
    p = params.mixture().real_dist.probabilities()
    return float(np.dot(p, 1.0 - params.rho(i)))


def phase_closed_form(
    params: ScalingParams,
    n: int | float,
    phase: int,
    c1: float = 1.0,
    c2: float = 1.0,
    floor_terms: bool = True,
) -> float:
    """Closed-form error expression for the rapid-learning (1) or
    tail-learning (3) regime, up to the constants hidden by the
    asymptotic equivalence.

    Phase 1 holds for n <= c1 * k**beta, phase 3 for n >= c2 * k**beta / pi.
    The plateau regime has no closed form and is characterized only by
    its small slope; requesting phase 2 raises a domain error.  With
    ``floor_terms=False`` only the n-dependent decay terms are returned,
    which is the part whose log-log slope the exact oracle's reducible
    error tracks.
    """
    if phase == 2:
        raise DomainError("the plateau regime has no closed-form expression")
    if phase not in (1, 3):
        raise DomainError(f"phase must be 1 or 3, got {phase}")
    if not n >= 1:
        raise DomainError(f"closed forms require n >= 1, got {n}")
    a, b, k = params.a, params.b, float(params.cutoff)
    e_obs = (1.0 - params.alpha - params.beta) / params.beta
    e_un = (1.0 - params.lam - params.beta) / params.beta
    if phase == 1:
        if n > c1 * params.breakpoint_first:
            raise DomainError(
                f"n={n} outside the rapid-learning regime (n <= {c1 * params.breakpoint_first:g})"
            )
        value = a * n**e_obs - b * n**e_un
        if floor_terms:
            value += (
                a * k ** (1.0 - params.alpha - params.beta)
                - b * k ** (1.0 - params.lam - params.beta)
                + k ** (1.0 - params.beta)
            )
        return value
    if n < c2 * params.breakpoint_second:
        raise DomainError(
            f"n={n} outside the tail-learning regime (n >= {c2 * params.breakpoint_second:g})"
        )
    m = params.pi * n
    value = a * m**e_obs - b * m**e_un
    if floor_terms:
        value += k ** (1.0 - params.beta)
    return value


def upper_incomplete_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma integral of t**(s-1) * exp(-t) over [x, inf).

    Computed as scipy's regularized ``gammaincc(s, x) * Gamma(s)``, which
    holds to near machine precision on s in (0, ~170), x >= 0.
    """
    if not s > 0:
        raise DomainError(f"s must be > 0, got {s}")
    if not x >= 0:
        raise DomainError(f"x must be >= 0, got {x}")
    from scipy import special  # loaded on first use: the package needs it nowhere else

    return float(special.gammaincc(s, x)) * math.gamma(s)


@dataclass(frozen=True)
class PhaseCurve:
    """Exact error evaluated on an ascending sample-size grid.

    Slope and breakpoint analyses operate on the reducible error
    (errors minus the n -> infinity limit), which is the quantity the
    phase expressions describe; when rho < 1 the raw curve rides on an
    irreducible floor that compresses every log-slope toward zero.
    """

    sample_sizes: np.ndarray
    errors: np.ndarray
    params: ScalingParams

    def __post_init__(self) -> None:
        n, e = self.sample_sizes, self.errors
        if n.ndim != 1 or e.shape != n.shape:
            raise DomainError("sample_sizes and errors must be matching 1-d arrays")
        if len(n) < 2:
            raise DomainError("a phase curve needs at least two grid points")
        if np.any(np.diff(n) <= 0):
            raise DomainError("sample sizes must be strictly ascending")
        if np.any(n <= 0):
            raise DomainError("sample sizes must be positive")

    def phase_labels(self, c1: float = 1.0, c2: float = 1.0) -> list[str]:
        """Regime label per grid point (boundaries per c1/c2 slack factors)."""
        first = c1 * self.params.breakpoint_first
        second = c2 * self.params.breakpoint_second
        out = []
        for n in self.sample_sizes:
            if n <= first:
                out.append("rapid-learning")
            elif n >= second:
                out.append("tail-learning")
            else:
                out.append("plateau")
        return out

    def reducible_errors(self) -> np.ndarray:
        """Error above the n -> infinity limit, floored at a tiny positive value."""
        return np.maximum(self.errors - error_limit(self.params), 1e-300)

    def mean_abs_log_slope(self, n_lo: float, n_hi: float) -> float:
        """Mean |d log reducible-error / d log n| over grid points in [n_lo, n_hi]."""
        mask = (self.sample_sizes >= n_lo) & (self.sample_sizes <= n_hi)
        if mask.sum() < 2:
            raise GridError(f"fewer than two grid points inside [{n_lo:g}, {n_hi:g}]")
        ln = np.log(self.sample_sizes[mask].astype(float))
        le = np.log(self.reducible_errors()[mask])
        return float(np.mean(np.abs(np.diff(le) / np.diff(ln))))


def log_grid(n_min: float, n_max: float, points_per_decade: int) -> np.ndarray:
    """Uniform log-spaced grid of real-valued sample sizes.

    Points are deliberately not rounded to integers: rounding perturbs
    the log spacing, and breakpoint detection divides by the spacing
    squared, which would amplify the perturbation into curvature noise.
    """
    if not 1 <= n_min < n_max < math.inf:
        raise DomainError(f"need 1 <= n_min < n_max < inf, got {n_min} and {n_max}")
    if not points_per_decade >= 1:
        raise DomainError(f"points_per_decade must be >= 1, got {points_per_decade}")
    decades = math.log10(n_max / n_min)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(math.log10(n_min), math.log10(n_max), count)


def sweep(params: ScalingParams, sample_sizes: np.ndarray) -> PhaseCurve:
    """Evaluate the exact oracle over an ascending grid of sample sizes."""
    n = np.asarray(sample_sizes, dtype=float)
    return PhaseCurve(sample_sizes=n, errors=expected_test_error_exact(params, n), params=params)


@dataclass(frozen=True)
class BreakpointReport:
    """Predicted and detected regime boundaries for one curve."""

    predicted_first: float
    predicted_second: float
    detected_first: float | None
    detected_second: float | None
    curvature: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "curvature"}


def _moving_average(y: np.ndarray, window: int) -> np.ndarray:
    # centered moving average; the window shrinks symmetrically at the edges
    half = window // 2
    out = np.empty_like(y)
    for i in range(len(y)):
        h = min(half, i, len(y) - 1 - i)
        out[i] = y[i - h : i + h + 1].mean()
    return out


def _second_derivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # three-point second derivative on a possibly non-uniform grid
    d2 = np.zeros_like(y)
    h0 = x[1:-1] - x[:-2]
    h1 = x[2:] - x[1:-1]
    d2[1:-1] = 2.0 * (
        (y[2:] - y[1:-1]) / (h1 * (h0 + h1)) - (y[1:-1] - y[:-2]) / (h0 * (h0 + h1))
    )
    return d2


def points_per_decade(sample_sizes: np.ndarray) -> float:
    n = np.asarray(sample_sizes, dtype=float)
    span = math.log10(n[-1] / n[0])
    if span <= 0:
        return 0.0
    return (len(n) - 1) / span


def detect_breakpoints(
    curve: PhaseCurve,
    smooth_window: int = 5,
    min_curvature: float = 0.02,
) -> BreakpointReport:
    """Locate regime boundaries as curvature extrema of the log-log curve.

    The log reducible error is smoothed with a centered moving average,
    its second derivative with respect to log n is taken, and the plateau
    exit is read off the strongest negative curvature dip; the plateau
    entry is the strongest positive curvature peak occurring before that
    dip.  A candidate must be a local extremum with magnitude
    >= min_curvature to count, so a curve with no regime change (a single
    power law) yields no detections.  The grid must resolve at least
    8 points per decade; edge points where the smoothing window is
    truncated are excluded from the search.
    """
    check_count(smooth_window, "smooth_window", 1)
    if not 0 <= min_curvature < math.inf:
        raise DomainError(f"min_curvature must be finite and >= 0, got {min_curvature}")
    density = points_per_decade(curve.sample_sizes)
    if density < 8.0:
        raise GridError(
            f"grid resolves {density:.1f} points per decade; breakpoint "
            "detection needs at least 8"
        )
    log_n = np.log10(curve.sample_sizes.astype(float))
    log_e = np.log10(curve.reducible_errors())
    smooth = _moving_average(log_e, smooth_window)
    d2 = _second_derivative(log_n, smooth)

    # the moving average shrinks near the edges; keep extrema where the
    # full window and the full d2 stencil both applied
    margin = smooth_window // 2 + 1
    lo, hi = margin, len(d2) - 1 - margin
    maxima, minima = [], []
    for i in range(max(1, lo), min(len(d2) - 1, hi + 1)):
        if d2[i] >= d2[i - 1] and d2[i] >= d2[i + 1] and d2[i] >= min_curvature:
            maxima.append(i)
        if d2[i] <= d2[i - 1] and d2[i] <= d2[i + 1] and d2[i] <= -min_curvature:
            minima.append(i)

    detected_second = None
    second_pos = len(d2)
    if minima:
        j = min(minima, key=lambda i: d2[i])
        detected_second = float(curve.sample_sizes[j])
        second_pos = j
    detected_first = None
    before = [i for i in maxima if i < second_pos]
    if before:
        j = max(before, key=lambda i: d2[i])
        detected_first = float(curve.sample_sizes[j])

    return BreakpointReport(
        predicted_first=curve.params.breakpoint_first,
        predicted_second=curve.params.breakpoint_second,
        detected_first=detected_first,
        detected_second=detected_second,
        curvature=d2,
    )
