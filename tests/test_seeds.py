"""Substreams and derived seeds under one root seed."""

import zlib

import numpy as np
import pytest

from mixval._seeds import cap_rows, derive_seed, substream
from mixval.errors import DomainError
from mixval.longtail import make_contributors
from mixval.ntk import MLPSpec, init_params
from mixval.valuation import ValuationConfig

from conftest import small_mixture


def test_streams_are_the_seed_sequence_of_their_path():
    key = (zlib.crc32(b"a"), 7, 2**32 - 3)  # an int part is taken mod 2**32
    want = np.random.SeedSequence(entropy=11, spawn_key=key)
    assert substream(11, "a", 7, -3).random(3).tolist() == (
        np.random.default_rng(want).random(3).tolist()
    )
    state = want.generate_state(2)
    assert derive_seed(11, "a", 7, -3) == int(state[0]) << 32 | int(state[1])


@pytest.mark.parametrize(
    "call",
    [
        lambda: substream(-1, "x"),
        lambda: derive_seed(-1, "x"),
        lambda: cap_rows(10, 4, -1, "x"),
        lambda: init_params(MLPSpec((4, 8, 1), init_seed=-1)),
        lambda: make_contributors([(6, 4)], small_mixture(), 4, -1),
        lambda: ValuationConfig(seed=-1),
    ],
    ids=["substream", "derive_seed", "cap_rows", "init_params", "make_contributors",
         "ValuationConfig"],
)
def test_negative_seed_is_a_domain_error(call):
    with pytest.raises(DomainError, match=r"seed must be >= 0, got -1"):
        call()
