"""Deterministic substream derivation from a single root seed.

Every stochastic routine in the package draws from a generator obtained
here, so that one root seed fixes the whole run and independent
components (contributor sampling, subsampling, permutation draws) never
share or race for a stream.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import DomainError


def _as_key(part: int | str) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part) & 0xFFFFFFFF


def check_seed(seed: int) -> None:
    """Reject a root seed that ``SeedSequence`` cannot take: a negative one."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")


def _sequence(seed: int, path: tuple[int | str, ...]) -> np.random.SeedSequence:
    check_seed(seed)
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(_as_key(p) for p in path))


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Return a generator for the substream named by ``path`` under ``seed``.

    The same (seed, path) pair always yields the same stream; distinct
    paths yield statistically independent streams.  A negative seed is
    a :class:`DomainError`.
    """
    return np.random.default_rng(_sequence(seed, path))


def derive_seed(seed: int, *path: int | str) -> int:
    """Collapse a substream address into a plain integer seed.

    Used where an API takes a scalar seed rather than a generator; the
    derived value inherits the independence guarantees of substream.
    """
    state = _sequence(seed, path).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def cap_rows(n: int, cap: int | None, seed: int, *path: int | str) -> np.ndarray | slice:
    """Rows kept when at most ``cap`` of ``n`` may be used.

    The sorted indices of one size-``cap`` draw without replacement from
    ``substream(seed, *path)``; every row (``slice(None)``) when no cap
    fires, and then no substream is derived.
    """
    if cap is None or n <= cap:
        return slice(None)
    return np.sort(substream(seed, *path).choice(n, size=cap, replace=False))
