"""Long-tail knowledge distributions and contributor datasets.

Knowledge is indexed 1..support_max with power-law probabilities.  Real
data follows the full power law; synthetic data follows the same law
truncated at a cutoff (the head that a generator has mastered).  A
mixture blends the two with a real-data proportion pi.  Contributors
are datasets of (feature, label) samples tagged by knowledge index.
"""

from __future__ import annotations

import csv
import io
import os
import uuid
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._seeds import substream
from .errors import (
    ConfigError,
    DomainError,
    check_count,
    check_real,
    check_reals,
    is_integer,
    prechecked,
)

# substream tags under the root seed
_PROTO_STREAM = 0
_CONTRIB_STREAM = 1
_SAMPLE_STREAM = 2

_GOLDEN = 0.6180339887498949  # frac(golden ratio), spreads labels over [0, 1)


def _check_law(beta: float, **sizes: int) -> None:
    # The rules of a power law, full or truncated, and so of ScalingParams; the sizes are
    # checked as integers before 1 <= each size <= the next one.
    check_real(beta, "beta", gt=1)
    got = ", ".join(f"{name}={v!r}" for name, v in sizes.items())
    values = tuple(sizes.values())
    if not all(map(is_integer, values)):
        raise DomainError(f"support sizes must be integers, got {got}")
    bounds = (1, *values)
    if not all(lo <= hi for lo, hi in zip(bounds, bounds[1:])):
        raise DomainError(f"need 1 <= {' <= '.join(sizes)}, got {got}")


@dataclass(frozen=True)
class PowerLawSpec:
    """Zipf-like distribution p_i proportional to i**(-beta) on 1..support_max."""

    beta: float
    support_max: int

    def __post_init__(self) -> None:
        _check_law(self.beta, support_max=self.support_max)

    def probabilities(self) -> np.ndarray:
        """Full pmf over indices 1..support_max (position 0 is index 1)."""
        raw = np.arange(1, self.support_max + 1, dtype=float) ** (-self.beta)
        return raw / raw.sum()


@dataclass(frozen=True)
class TruncatedPowerLawSpec:
    """Power law renormalized on the head 1..cutoff; zero beyond the cutoff."""

    beta: float
    cutoff: int
    support_max: int

    def __post_init__(self) -> None:
        _check_law(self.beta, cutoff=self.cutoff, support_max=self.support_max)

    def probabilities(self) -> np.ndarray:
        raw = np.zeros(self.support_max)
        raw[: self.cutoff] = np.arange(1, self.cutoff + 1, dtype=float) ** (-self.beta)
        return raw / raw.sum()


@dataclass(frozen=True)
class MixtureSpec:
    """Mixture q_i = pi * p_i + (1 - pi) * p'_i of real and synthetic laws."""

    pi: float
    real_dist: PowerLawSpec
    synth_dist: TruncatedPowerLawSpec

    def __post_init__(self) -> None:
        check_real(self.pi, "pi", ge=0, le=1)
        if self.real_dist.beta != self.synth_dist.beta:
            raise DomainError("real and synthetic distributions must share beta")
        if self.real_dist.support_max != self.synth_dist.support_max:
            raise DomainError("real and synthetic distributions must share support_max")

    @classmethod
    def power_law(
        cls, beta: float = 1.5, cutoff: int = 20, support_max: int = 200, pi: float = 0.5
    ) -> MixtureSpec:
        """The full power law and its head truncated at ``cutoff``, sharing
        ``beta`` and ``support_max``; the defaults are the generator's."""
        return cls(
            pi,
            PowerLawSpec(beta, support_max),
            TruncatedPowerLawSpec(beta, cutoff, support_max),
        )

    @property
    def support_max(self) -> int:
        return self.real_dist.support_max

    def probabilities(self) -> np.ndarray:
        return (
            self.pi * self.real_dist.probabilities()
            + (1.0 - self.pi) * self.synth_dist.probabilities()
        )


Distribution = PowerLawSpec | TruncatedPowerLawSpec | MixtureSpec


def pmf(dist: Distribution, i: int) -> float:
    """Probability of knowledge index ``i`` (1-based) under ``dist``."""
    check_count(i, "index", 1)
    if i > dist.support_max:
        raise DomainError(f"index {i} outside support 1..{dist.support_max}")
    return float(dist.probabilities()[i - 1])


def sample_knowledge(dist: Distribution, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` knowledge indices (1-based) by inverse-CDF lookup.

    Public as the one sampler of raw indices from any ``Distribution``
    (power law, truncated law or mixture) without features or labels,
    for studying a knowledge distribution apart from contributor data;
    :func:`make_contributors` draws through the same lookup from its
    own substreams.
    """
    check_count(n, "n", 0)
    rng = substream(seed, _SAMPLE_STREAM)
    return _draw_indices(dist.probabilities(), n, rng)


def _draw_indices(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0  # guard against rounding at the top end
    u = rng.random(n)
    return np.searchsorted(cdf, u, side="right").astype(np.int64) + 1


def knowledge_labels(indices: np.ndarray) -> np.ndarray:
    """Deterministic label in [0, 1) for each knowledge index."""
    return (np.asarray(indices, dtype=float) * _GOLDEN) % 1.0


def knowledge_prototype(index: int, feature_dim: int, seed: int) -> np.ndarray:
    """Unit-norm prototype feature vector for one knowledge index.

    Prototypes depend only on (seed, index, feature_dim), so every
    contributor in a run shares the same feature geometry.
    """
    check_count(index, "index", 1)
    check_count(feature_dim, "feature_dim", 1)
    rng = substream(seed, _PROTO_STREAM, index, feature_dim)
    v = rng.standard_normal(feature_dim)
    return v / np.linalg.norm(v)


def _features_for(
    indices: np.ndarray,
    feature_dim: int,
    noise_scale: float,
    seed: int,
    rng: np.random.Generator,
) -> np.ndarray:
    protos = {i: knowledge_prototype(i, feature_dim, seed) for i in np.unique(indices)}
    x = np.stack([protos[i] for i in indices]) if len(indices) else np.zeros((0, feature_dim))
    if len(indices):
        x = x + noise_scale * rng.standard_normal(x.shape)
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
    return x


@dataclass(frozen=True)
class Contributor:
    """One data contributor: real and synthetic samples with knowledge tags."""

    id: str
    real_x: np.ndarray
    real_y: np.ndarray
    real_idx: np.ndarray
    synth_x: np.ndarray
    synth_y: np.ndarray
    synth_idx: np.ndarray

    def __post_init__(self) -> None:
        if len(self.real_y) + len(self.synth_y) < 1:
            raise DomainError(f"contributor {self.id!r} has no samples")
        for name, x, y, idx in (
            ("real", self.real_x, self.real_y, self.real_idx),
            ("synth", self.synth_x, self.synth_y, self.synth_idx),
        ):
            if x.ndim != 2 or len(x) != len(y) or len(y) != len(idx):
                raise DomainError(f"contributor {self.id!r}: inconsistent {name} arrays")
            check_reals(y, f"contributor {self.id!r}: {name} labels", ge=0, le=1)
            check_reals(x, f"contributor {self.id!r}: {name} features")
        if self.real_x.shape[1] != self.synth_x.shape[1]:  # an empty part too
            raise DomainError(f"contributor {self.id!r}: feature dims differ")

    @property
    def n_real(self) -> int:
        return len(self.real_y)

    @property
    def n_synth(self) -> int:
        return len(self.synth_y)

    @property
    def n_total(self) -> int:
        return self.n_real + self.n_synth

    @property
    def pi(self) -> float:
        """Real-data proportion of this contributor."""
        return self.n_real / self.n_total

    def pooled_x(self) -> np.ndarray:
        return np.vstack([self.real_x, self.synth_x])

    def pooled_y(self) -> np.ndarray:
        return np.concatenate([self.real_y, self.synth_y])


def check_unique_ids(ids, what: str) -> None:
    """Raise :class:`DomainError` naming the first contributor id in ``ids``
    that repeats; ``what`` names where the ids come from."""
    repeated = [i for i, count in Counter(ids).items() if count > 1]
    if repeated:
        raise DomainError(f"contributor id {repeated[0]!r} repeats in the {what}")


def pool_contributors(contributors: list[Contributor], id: str = "pool") -> Contributor:
    """Merge several contributors into one (real with real, synth with synth).

    Every member passed ``Contributor``'s checks when it was built, so the
    pool, which joins their arrays, is built without scanning them again
    (a coalition value pools once per coalition); the list itself must be
    nonempty and of one feature dim.
    """
    if not contributors:
        raise DomainError("cannot pool an empty contributor list")
    widths = sorted({c.real_x.shape[1] for c in contributors})
    if len(widths) > 1:
        raise DomainError(f"cannot pool contributors of different feature dims {widths}")
    return prechecked(
        Contributor,
        id=id,
        real_x=np.vstack([c.real_x for c in contributors]),
        real_y=np.concatenate([c.real_y for c in contributors]),
        real_idx=np.concatenate([c.real_idx for c in contributors]),
        synth_x=np.vstack([c.synth_x for c in contributors]),
        synth_y=np.concatenate([c.synth_y for c in contributors]),
        synth_idx=np.concatenate([c.synth_idx for c in contributors]),
    )


def make_contributors(
    plan: list[tuple[int, int]],
    mixture: MixtureSpec,
    feature_dim: int,
    seed: int,
    noise_scale: float = 0.1,
) -> list[Contributor]:
    """Synthesize contributor datasets from a (n_real, n_synth) plan.

    Real samples draw knowledge indices from the full power law, synthetic
    samples from the truncated law.  Features are noisy unit-norm
    prototypes per index; labels are the deterministic per-index values.
    Each contributor uses its own derived substream, so output depends
    only on (plan, mixture, feature_dim, seed).
    """
    check_count(feature_dim, "feature_dim", 1)
    check_real(noise_scale, "noise_scale", ge=0)
    p_real = mixture.real_dist.probabilities()
    p_synth = mixture.synth_dist.probabilities()
    out = []
    for c, (n_real, n_synth) in enumerate(plan):
        check_count(n_real, f"plan entry {c} n_real", 0)
        check_count(n_synth, f"plan entry {c} n_synth", 0)
        if n_real + n_synth < 1:
            raise DomainError(f"plan entry {c} must have n_real + n_synth >= 1")
        rng = substream(seed, _CONTRIB_STREAM, c)
        ridx = _draw_indices(p_real, n_real, rng)
        sidx = _draw_indices(p_synth, n_synth, rng)
        out.append(
            Contributor(
                id=f"c{c:03d}",
                real_x=_features_for(ridx, feature_dim, noise_scale, seed, rng),
                real_y=knowledge_labels(ridx),
                real_idx=ridx,
                synth_x=_features_for(sidx, feature_dim, noise_scale, seed, rng),
                synth_y=knowledge_labels(sidx),
                synth_idx=sidx,
            )
        )
    return out


# ---------------------------------------------------------------------------
# CSV files.  Every file the package reads or writes goes through
# read_csv, csv_text and write_text; the contributor-row format is below.


def write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 atomically: a new temp file in the
    same directory (mode from the umask), then a rename, so a failed write
    leaves no partial file."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(value) -> str:
    """A float as its exact repr, a boolean as 0/1, anything else as str."""
    if isinstance(value, float):
        return repr(float(value))
    return str(int(value) if isinstance(value, bool) else value)


def csv_text(header, rows) -> str:
    """A header and rows as CSV text with LF line endings.

    Cells are quoted only where CSV needs it (a comma, quote or newline).
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return buffer.getvalue()


def write_csv(path: str | os.PathLike, header, rows) -> None:
    """Write :func:`csv_text` of a header and rows to ``path``, atomically."""
    write_text(path, csv_text(header, rows))


def read_csv(path: str | os.PathLike, what: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV file; blank lines are skipped.

    An unreadable file raises :class:`ConfigError`; a file with no data
    rows or broken quoting raises :class:`DomainError`.  ``what`` names
    the file's role in both messages.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = [row for row in csv.reader(handle) if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except csv.Error as exc:
        raise DomainError(f"{what} file {path} is malformed: {exc}") from exc
    if len(rows) < 2:
        raise DomainError(f"{what} file {path} has no data rows")
    return rows[0], rows[1:]


# One file per contributor, one row per sample.

CSV_HEADER = ("id", "knowledge_index", "is_real", "label")


def write_contributors(contributors: list[Contributor], directory: str) -> list[str]:
    """Write each contributor to ``<directory>/<id>.csv``, ids unique; returns the paths.

    An empty id (a hidden ``.csv``), one holding a path separator (a file
    elsewhere) or a NUL byte (no file name at all) is a :class:`DomainError`
    naming the id, raised before any file is written.
    """
    check_unique_ids((c.id for c in contributors), "contributors")
    banned = {"/", "\0", os.sep, os.altsep} - {None}
    for c in contributors:
        if not c.id or any(ch in c.id for ch in banned):
            raise DomainError(f"contributor id {c.id!r} is empty or holds a path separator or NUL")
    paths = []
    for c in contributors:
        path = os.path.join(directory, f"{c.id}.csv")
        header = [*CSV_HEADER, *(f"f{j}" for j in range(c.pooled_x().shape[1]))]
        rows = []
        for is_real, x, y, idx in ((1, c.real_x, c.real_y, c.real_idx),
                                   (0, c.synth_x, c.synth_y, c.synth_idx)):
            for xi, yi, ki in zip(x, y, idx):
                rows.append([c.id, int(ki), is_real, float(yi), *xi.tolist()])
        write_csv(path, header, rows)
        paths.append(path)
    return paths


def parse_contributor_rows(
    rows: list[list[str]], path: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columns (knowledge_index, is_real, label, features) of the data rows
    of a :data:`CSV_HEADER` file, in file order.

    A row that does not parse raises :class:`DomainError` naming ``path``.
    """
    try:
        idx = np.array([int(r[1]) for r in rows], dtype=np.int64)
        is_real = np.array([int(r[2]) for r in rows], dtype=bool)
        y = np.array([float(r[3]) for r in rows])
        x = np.array([[float(v) for v in r[len(CSV_HEADER):]] for r in rows])
    except (ValueError, IndexError) as exc:
        raise DomainError(f"{path}: malformed contributor row: {exc}") from exc
    return idx, is_real, y, x


def contributor_files(directory: str | os.PathLike) -> list[Path]:
    """The ``*.csv`` files of a contributor directory, sorted by name.

    An unreadable directory raises :class:`ConfigError`.
    """
    try:
        names = sorted(f for f in os.listdir(directory) if f.endswith(".csv"))
    except OSError as exc:
        raise ConfigError(f"cannot read contributor directory {directory}: {exc}") from exc
    return [Path(directory) / name for name in names]


def read_contributors(directory: str | os.PathLike) -> list[Contributor]:
    """Load every ``*.csv`` in a directory written by :func:`write_contributors`.

    Each file holds one contributor: rows naming two ids raise
    :class:`DomainError` naming the file and the ids.
    """
    paths = contributor_files(directory)
    if not paths:
        raise DomainError(f"no contributor CSV files in {str(directory)!r}")
    out = []
    for path in paths:
        header, rows = read_csv(path, "contributor")
        if tuple(header[: len(CSV_HEADER)]) != CSV_HEADER:
            raise DomainError(f"{path}: unexpected contributor CSV header")
        ids = list(dict.fromkeys(r[0] for r in rows))
        if len(ids) > 1:
            raise DomainError(
                f"{path}: a contributor file holds one contributor, its rows name "
                + ", ".join(map(repr, ids))
            )
        idx, is_real, y, x = parse_contributor_rows(rows, str(path))
        out.append(
            Contributor(
                id=rows[0][0],
                real_x=x[is_real], real_y=y[is_real], real_idx=idx[is_real],
                synth_x=x[~is_real], synth_y=y[~is_real], synth_idx=idx[~is_real],
            )
        )
    return out
