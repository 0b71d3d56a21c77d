"""Long-tail knowledge distributions and contributor synthesis."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from mixval.errors import ConfigError, DomainError
from mixval.longtail import (
    Contributor,
    MixtureSpec,
    PowerLawSpec,
    TruncatedPowerLawSpec,
    knowledge_labels,
    knowledge_prototype,
    make_contributors,
    pmf,
    pool_contributors,
    read_contributors,
    read_csv,
    sample_knowledge,
    write_contributors,
    write_csv,
)

from conftest import small_mixture


def plan_pi(plan: list[tuple[int, int]]) -> float:
    """Overall real proportion of a contributor plan [(n_real, n_synth), ...]."""
    return sum(r for r, _ in plan) / sum(r + s for r, s in plan)


# ---------------------------------------------------------------------------
# Distribution specs.


def test_power_law_head_value():
    p = PowerLawSpec(beta=1.5, support_max=100_000).probabilities()
    # hand normalization: p_1 = 1 / sum(i^-1.5)
    z = np.sum(np.arange(1, 100_001, dtype=float) ** -1.5)
    assert math.isclose(p[0], 1.0 / z, rel_tol=1e-14)
    assert p[0] == pytest.approx(0.3837223727483637, abs=1e-15)


def test_power_law_normalized_and_decreasing():
    p = PowerLawSpec(beta=2.0, support_max=500).probabilities()
    assert math.fsum(p) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(p) < 0)


def test_truncated_head_value_and_zero_tail():
    spec = TruncatedPowerLawSpec(beta=1.5, cutoff=100, support_max=100_000)
    q = spec.probabilities()
    assert q[0] == pytest.approx(0.4144435055841647, abs=1e-15)
    assert np.all(q[100:] == 0.0)
    assert math.fsum(q) == pytest.approx(1.0, abs=1e-12)
    # renormalized head: q_1 = 1 / sum_{i<=100}(i^-1.5)
    zk = np.sum(np.arange(1, 101, dtype=float) ** -1.5)
    assert math.isclose(q[0], 1.0 / zk, rel_tol=1e-14)


@pytest.mark.parametrize("support_max", [200, 2_000, 100_000])
def test_truncated_law_matches_masked_full_support(support_max):
    # the head alone is raised to -beta; the old whole-support expression
    # masked the tail after raising it, with the same result bit for bit
    idx = np.arange(1, support_max + 1, dtype=float)
    for cutoff in (1, 10, 100, support_max):
        for beta in (1.1, 1.5, 1.9, 2.5):
            old = np.where(idx <= cutoff, idx ** (-beta), 0.0)
            got = TruncatedPowerLawSpec(beta, cutoff, support_max).probabilities()
            assert np.array_equal(got, old / old.sum()), (cutoff, beta)


def test_mixture_combination():
    mix = MixtureSpec(
        pi=0.25,
        real_dist=PowerLawSpec(beta=1.5, support_max=100_000),
        synth_dist=TruncatedPowerLawSpec(beta=1.5, cutoff=100, support_max=100_000),
    )
    m = mix.probabilities()
    p = mix.real_dist.probabilities()
    q = mix.synth_dist.probabilities()
    assert np.allclose(m, 0.25 * p + 0.75 * q, rtol=0, atol=1e-15)
    assert m[0] == pytest.approx(0.40676322237521445, abs=1e-15)
    assert mix.support_max == 100_000
    assert MixtureSpec.power_law(1.5, 100, 100_000, pi=0.25) == mix
    # the defaults are the generator's: beta 1.5, cutoff 20, support 200
    assert MixtureSpec.power_law() == small_mixture()


def test_spec_validation():
    with pytest.raises(DomainError):
        PowerLawSpec(beta=1.0, support_max=10)
    with pytest.raises(DomainError):
        PowerLawSpec(beta=1.5, support_max=0)
    with pytest.raises(DomainError):
        TruncatedPowerLawSpec(beta=1.5, cutoff=20, support_max=10)
    with pytest.raises(DomainError):
        MixtureSpec(
            pi=1.5,
            real_dist=PowerLawSpec(beta=1.5, support_max=10),
            synth_dist=TruncatedPowerLawSpec(beta=1.5, cutoff=5, support_max=10),
        )
    with pytest.raises(DomainError):
        MixtureSpec(
            pi=0.5,
            real_dist=PowerLawSpec(beta=1.5, support_max=10),
            synth_dist=TruncatedPowerLawSpec(beta=2.0, cutoff=5, support_max=10),
        )


@pytest.mark.parametrize(
    "law, sizes",
    [
        (PowerLawSpec, (100.5,)),
        (PowerLawSpec, (True,)),
        (PowerLawSpec, ("100",)),
        (TruncatedPowerLawSpec, (10.5, 100)),
        (TruncatedPowerLawSpec, (10, np.float64(100.0))),
        (TruncatedPowerLawSpec, (None, 100)),
    ],
)
def test_spec_rejects_non_integer_sizes(law, sizes):
    # a float support_max of 100.5 would build np.arange(1, 101.5): 101 entries
    with pytest.raises(DomainError, match="integers"):
        law(1.5, *sizes)


def test_spec_accepts_numpy_integer_sizes():
    full = PowerLawSpec(1.5, np.int64(50)).probabilities()
    assert len(full) == 50
    assert np.array_equal(full, PowerLawSpec(1.5, 50).probabilities())
    head = TruncatedPowerLawSpec(1.5, np.int32(5), np.int64(50)).probabilities()
    assert np.array_equal(head, TruncatedPowerLawSpec(1.5, 5, 50).probabilities())


def test_pmf_scalar_lookup():
    spec = PowerLawSpec(beta=1.5, support_max=50)
    p = spec.probabilities()
    assert pmf(spec, 1) == p[0]
    assert pmf(spec, 50) == p[49]
    with pytest.raises(DomainError):
        pmf(spec, 0)
    with pytest.raises(DomainError):
        pmf(spec, 51)


@settings(max_examples=25, deadline=None)
@given(
    beta=st.floats(min_value=1.01, max_value=4.0),
    support=st.integers(min_value=1, max_value=500),
)
def test_probabilities_normalized_property(beta, support):
    p = PowerLawSpec(beta=beta, support_max=support).probabilities()
    assert math.fsum(p) == pytest.approx(1.0, abs=1e-9)
    assert np.all(p >= 0)


# ---------------------------------------------------------------------------
# Sampling and labels.


def test_sample_knowledge_range_and_determinism():
    spec = PowerLawSpec(beta=1.5, support_max=30)
    a = sample_knowledge(spec, 200, seed=5)
    b = sample_knowledge(spec, 200, seed=5)
    assert np.array_equal(a, b)
    assert a.min() >= 1 and a.max() <= 30
    assert not np.array_equal(a, sample_knowledge(spec, 200, seed=6))
    assert len(sample_knowledge(spec, 0, seed=1)) == 0
    with pytest.raises(DomainError):
        sample_knowledge(spec, -1, seed=1)


def test_sample_knowledge_goodness_of_fit():
    # chi-square against the exact pmf; all expected counts >= 5
    spec = PowerLawSpec(beta=1.5, support_max=20)
    n = 4000
    draws = sample_knowledge(spec, n, seed=123)
    observed = np.bincount(draws, minlength=21)[1:]
    expected = spec.probabilities() * n
    assert expected.min() > 5
    result = scipy.stats.chisquare(observed, expected)
    assert result.pvalue > 0.01


def test_knowledge_labels_golden_values():
    labels = knowledge_labels(np.array([1, 2, 3]))
    golden = (1 + math.sqrt(5)) / 2 - 1
    assert labels == pytest.approx([golden, (2 * golden) % 1, (3 * golden) % 1], abs=1e-15)
    assert labels == pytest.approx([0.61803399, 0.23606798, 0.85410197], abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=50))
def test_knowledge_labels_range_property(indices):
    labels = knowledge_labels(np.array(indices))
    assert np.all(labels >= 0.0) and np.all(labels < 1.0)


def test_prototypes_unit_norm_and_deterministic():
    a = knowledge_prototype(3, 8, seed=11)
    b = knowledge_prototype(3, 8, seed=11)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
    assert not np.allclose(a, knowledge_prototype(4, 8, seed=11))
    assert not np.allclose(a, knowledge_prototype(3, 8, seed=12))


# ---------------------------------------------------------------------------
# Contributor synthesis.


def test_make_contributors_shapes_and_pi():
    plan = [(10, 5), (0, 7), (4, 0)]
    contributors = make_contributors(plan, small_mixture(), feature_dim=6, seed=3)
    assert [c.id for c in contributors] == ["c000", "c001", "c002"]
    for c, (nr, ns) in zip(contributors, plan):
        assert (c.n_real, c.n_synth) == (nr, ns)
        assert c.pi == nr / (nr + ns)
        assert c.real_x.shape == (nr, 6)
        assert c.synth_x.shape == (ns, 6)
    assert plan_pi(plan) == pytest.approx(14 / 26)
    assert pool_contributors(contributors).pi == plan_pi(plan)


def test_make_contributors_deterministic():
    plan = [(8, 8)]
    [a] = make_contributors(plan, small_mixture(), feature_dim=4, seed=3)
    [b] = make_contributors(plan, small_mixture(), feature_dim=4, seed=3)
    assert np.array_equal(a.real_x, b.real_x)
    assert np.array_equal(a.synth_y, b.synth_y)
    [c] = make_contributors(plan, small_mixture(), feature_dim=4, seed=4)
    assert not np.array_equal(a.real_x, c.real_x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("noise_scale", [math.nan, math.inf, -0.1])
def test_make_contributors_rejects_a_noise_scale_not_finite_and_nonnegative(noise_scale):
    # NaN and inf passed a `< 0` test and failed later on the features,
    # inf with a RuntimeWarning from the row normalisation first
    shape = ">= 0" if noise_scale < 0 else "finite"
    message = f"noise_scale must be {shape}, got {noise_scale}"
    with pytest.raises(DomainError, match=re.escape(message)):
        make_contributors([(6, 4)], small_mixture(), 4, 3, noise_scale=noise_scale)


def test_features_unit_norm_labels_match_indices():
    [c] = make_contributors([(20, 20)], small_mixture(), feature_dim=5, seed=2)
    norms = np.linalg.norm(c.pooled_x(), axis=1)
    assert norms == pytest.approx(np.ones(40), abs=1e-12)
    assert np.array_equal(c.real_y, knowledge_labels(c.real_idx))
    assert np.array_equal(c.synth_y, knowledge_labels(c.synth_idx))
    # synthetic indices obey the truncation
    assert c.synth_idx.max() <= 20


def test_contributor_validation():
    x = np.zeros((2, 3))
    y = np.array([0.2, 0.4])
    idx = np.array([1, 2])
    empty_x, empty_y, empty_idx = np.zeros((0, 3)), np.zeros(0), np.zeros(0, int)
    with pytest.raises(DomainError):
        Contributor("a", empty_x, empty_y, empty_idx, empty_x, empty_y, empty_idx)
    with pytest.raises(DomainError):
        Contributor("a", x, y[:1], idx, empty_x, empty_y, empty_idx)
    with pytest.raises(DomainError):
        Contributor("a", x, np.array([0.2, 1.4]), idx, empty_x, empty_y, empty_idx)
    with pytest.raises(DomainError):
        Contributor("a", x, np.array([0.2, np.nan]), idx, empty_x, empty_y, empty_idx)
    with pytest.raises(DomainError):
        Contributor("a", empty_x, empty_y, empty_idx, x + np.inf, y, idx)


def test_pool_contributors_counts(contributors_small):
    pooled = pool_contributors(contributors_small, id="merged")
    assert pooled.id == "merged"
    assert pooled.n_real == sum(c.n_real for c in contributors_small)
    assert pooled.n_synth == sum(c.n_synth for c in contributors_small)
    assert pooled.pi == pytest.approx(36 / 60)
    stacked = np.vstack([c.real_x for c in contributors_small])
    assert np.array_equal(pooled.real_x, stacked)


def test_parts_and_pool_members_share_one_feature_dim(contributors_small):
    # an empty part has a width too; numpy cannot stack parts of two widths
    x, y, idx = np.zeros((2, 4)), np.array([0.2, 0.4]), np.array([1, 2])
    empty_x, empty_y, empty_idx = np.zeros((0, 5)), np.zeros(0), np.zeros(0, int)
    with pytest.raises(DomainError, match="'a': feature dims differ"):
        Contributor("a", x, y, idx, empty_x, empty_y, empty_idx)
    with pytest.raises(DomainError, match="'a': feature dims differ"):
        Contributor("a", empty_x, empty_y, empty_idx, x, y, idx)
    [wide] = make_contributors([(3, 2)], small_mixture(), feature_dim=5, seed=1)
    with pytest.raises(DomainError, match=r"different feature dims \[4, 5\]"):
        pool_contributors([contributors_small[0], wide])


def test_write_read_roundtrip(tmp_path, contributors_small):
    paths = write_contributors(contributors_small, str(tmp_path))
    assert len(paths) == 3
    back = read_contributors(str(tmp_path))
    assert [c.id for c in back] == [c.id for c in contributors_small]
    for a, b in zip(contributors_small, back):
        # repr round-trip is exact for float64
        assert np.array_equal(a.real_x, b.real_x)
        assert np.array_equal(a.real_y, b.real_y)
        assert np.array_equal(a.real_idx, b.real_idx)
        assert np.array_equal(a.synth_x, b.synth_x)
        assert np.array_equal(a.synth_y, b.synth_y)


def test_write_contributors_rejects_repeated_ids(tmp_path, contributors_small):
    # both would be written to c000.csv, the second over the first
    with pytest.raises(DomainError, match="'c000' repeats in the contributors"):
        write_contributors([contributors_small[0], contributors_small[0]], str(tmp_path))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "bad_id",
    ["../escaped", "a/b", pytest.param("", id="empty"), pytest.param("a\x00b", id="nul")],
)
def test_write_contributors_rejects_path_separators(tmp_path, contributors_small, bad_id):
    # <directory>/<id>.csv would land outside the directory or below it,
    # where read_contributors never looks; an empty id writes a hidden
    # .csv and a NUL byte names no file at all
    bad = dataclasses.replace(contributors_small[1], id=bad_id)
    with pytest.raises(DomainError, match=re.escape(f"contributor id {bad_id!r}")):
        write_contributors([contributors_small[0], bad], str(tmp_path / "out"))
    assert not list(tmp_path.rglob("*"))


def test_read_contributors_empty_dir(tmp_path):
    with pytest.raises(DomainError):
        read_contributors(str(tmp_path))


def test_read_contributors_rejects_two_ids_in_one_file(tmp_path, contributors_small):
    [path] = write_contributors(contributors_small[:1], str(tmp_path))
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith("c000,") and lines[2].startswith("c000,")
    lines[2] = "other" + lines[2][len("c000"):]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DomainError, match=r"c000\.csv: .*'c000', 'other'"):
        read_contributors(str(tmp_path))


def test_written_contributor_files_use_lf_and_round_trip(tmp_path, contributors_small):
    [path] = write_contributors(contributors_small[:1], str(tmp_path))
    raw = open(path, "rb").read()
    assert b"\r" not in raw and raw.endswith(b"\n")
    [back] = read_contributors(str(tmp_path))
    assert np.array_equal(back.pooled_x(), contributors_small[0].pooled_x())
    assert np.array_equal(back.pooled_y(), contributors_small[0].pooled_y())


def test_read_csv_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read samples"):
        read_csv(tmp_path / "absent.csv", "samples")
    with pytest.raises(ConfigError, match="contributor directory"):
        read_contributors(str(tmp_path / "absent"))
    path = tmp_path / "header_only.csv"
    path.write_text("a,b\n\n", encoding="utf-8")
    with pytest.raises(DomainError, match="no data rows"):
        read_csv(path, "samples")


def test_write_csv_quotes_only_where_needed(tmp_path):
    path = tmp_path / "t.csv"
    rows = [("a,b", 0.1, True), ('q"t', 2.0, False), ("c", 1, None)]
    write_csv(path, ("id", "x", "flag"), rows)
    assert path.read_bytes() == b'id,x,flag\n"a,b",0.1,1\n"q""t",2.0,0\nc,1,None\n'
    header, back = read_csv(path, "table")
    assert header == ["id", "x", "flag"]
    assert back == [["a,b", "0.1", "1"], ['q"t', "2.0", "0"], ["c", "1", "None"]]
    assert not list(tmp_path.glob("*.tmp"))
