import math

import numpy as np
import pytest
from scipy.special import softmax

from rewardroute import (
    Query,
    aggregate_tag_rewards,
    enhance_labels,
    normalize_rewards,
    reward_entropy,
)
from rewardroute.data import UNTAGGED
from rewardroute.rewards import tag_mean_for_query

from conftest import make_dataset


def test_normalize_hand_example():
    # e^0 = 1, e^ln2 = 2, so the distribution is [1/3, 2/3]
    out = normalize_rewards(np.array([0.0, math.log(2.0)]))
    np.testing.assert_allclose(out, [1 / 3, 2 / 3], atol=1e-12)


def test_normalize_matches_scipy_softmax():
    rng = np.random.default_rng(0)
    for _ in range(20):
        r = rng.normal(size=rng.integers(2, 9))
        t = float(rng.uniform(0.1, 5.0))
        np.testing.assert_allclose(normalize_rewards(r, t), softmax(r / t), atol=1e-12)


@pytest.mark.parametrize("k", [2, 9, 16, 33, 100, 1000])
def test_normalize_is_bitwise_the_one_vector_softmax(k):
    # build_targets and the router share normalize_rewards' softmax, so a
    # second, inline softmax checks it. From K = 8 numpy sums in blocks and
    # pairs, not left to right, so the larger K cover that order.
    rng = np.random.default_rng(k)
    for t in (0.05, 0.25, 1.0, 3.0):
        for _ in range(20):
            r = rng.normal(scale=3.0, size=k)
            z = r / t
            z -= z.max()
            e = np.exp(z)
            assert normalize_rewards(r, t).tobytes() == (e / e.sum()).tobytes()


def test_normalize_shift_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        r = rng.normal(scale=10.0, size=6)
        c = float(rng.normal(scale=100.0))
        base = normalize_rewards(r)
        shifted = normalize_rewards(r + c)
        assert np.max(np.abs(base - shifted)) <= 1e-9


def test_normalize_survives_huge_rewards():
    out = normalize_rewards(np.array([1e6, 1e6 - 1.0]))
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)


def test_normalize_temperature_extremes():
    r = np.array([1.0, 2.0, 3.0])
    sharp = normalize_rewards(r, temperature=0.01)
    flat = normalize_rewards(r, temperature=100.0)
    assert sharp[2] > 0.99
    np.testing.assert_allclose(flat, [1 / 3] * 3, atol=1e-2)


@pytest.mark.parametrize("bad_t", [0.0, -1.0, np.nan, np.inf])
def test_normalize_rejects_non_positive_temperature(bad_t):
    with pytest.raises(ValueError):
        normalize_rewards(np.array([1.0, 2.0]), temperature=bad_t)


def test_normalize_rejects_non_finite():
    with pytest.raises(ValueError):
        normalize_rewards(np.array([1.0, np.inf]))


@pytest.mark.parametrize("rewards", [np.float64(1.0), np.ones((2, 3))], ids=["0-d", "2-d"])
def test_normalize_rejects_what_is_not_a_reward_vector(rewards):
    # The softmax is taken per row of r[np.newaxis], so only a 1-D r is one row.
    with pytest.raises(ValueError, match=r"reward vector must be 1-D, got shape \("):
        normalize_rewards(rewards)


def test_entropy_uniform_is_log_k():
    for k in (2, 3, 7):
        assert reward_entropy(np.full(k, 1.0 / k)) == pytest.approx(math.log(k))


def test_entropy_one_hot_is_zero():
    assert reward_entropy(np.array([1.0, 0.0, 0.0])) == 0.0


def test_entropy_hand_value():
    # H(1/2, 1/4, 1/4) = 0.5 ln 2 + 2 * 0.25 ln 4 = 1.5 ln 2
    h = reward_entropy(np.array([0.5, 0.25, 0.25]))
    assert h == pytest.approx(1.5 * math.log(2.0), abs=1e-12)


def test_entropy_bounds_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        p = normalize_rewards(rng.normal(size=k))
        h = reward_entropy(p)
        assert 0.0 <= h <= math.log(k) + 1e-12


@pytest.mark.parametrize("probs, message", [
    (np.full((2, 2), 0.25), "distribution must be 1-D"),
    (np.array([1.5, -0.5]), r"distribution entries must lie in \[0, 1\]"),
    (np.array([0.5, 0.25, 0.25 + 1e-6]), r"distribution sums to \S*1\.000001\S*, expected 1"),
], ids=["not-1d", "entry-outside-unit-interval", "sum-not-1"])
def test_entropy_rejects_what_is_not_a_distribution(probs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        reward_entropy(probs)


def test_entropy_error_prints_the_sum_as_a_plain_number():
    with pytest.raises(ValueError) as info:
        reward_entropy(np.array([0.5, 0.25, 0.25 + 1e-6]))
    assert str(info.value) == "distribution sums to 1.000001, expected 1"


def _group_mean_oracle(rows):
    """Independent group-by-mean over (tags, rewards) pairs."""
    sums, counts = {}, {}
    for tags, rewards in rows:
        for tag in (tags or [UNTAGGED]):
            sums.setdefault(tag, np.zeros(len(rewards)))
            sums[tag] = sums[tag] + np.asarray(rewards, dtype=float)
            counts[tag] = counts.get(tag, 0) + 1
    return {t: sums[t] / counts[t] for t in sums}


def test_aggregate_matches_group_by_oracle():
    rows = [
        ("q1", "alpha text", ("math",), [1.0, 0.0, 0.0]),
        ("q2", "beta text", ("math",), [0.0, 1.0, 0.0]),
        ("q3", "gamma text", ("code",), [0.0, 0.0, 1.0]),
        ("q4", "delta text", ("math", "code"), [1.0, 1.0, 1.0]),
        ("q5", "epsilon text", (), [0.5, 0.5, 0.5]),
    ]
    table = aggregate_tag_rewards(make_dataset(rows))
    expected = _group_mean_oracle([(list(t), r) for _, _, t, r in rows])
    assert set(table.means) == set(expected)
    for tag in expected:
        np.testing.assert_allclose(table.means[tag], expected[tag], atol=1e-12)
    # q4 carries both tags, so it must appear in both counts
    assert table.counts["math"] == 3
    assert table.counts["code"] == 2
    assert table.counts[UNTAGGED] == 1
    np.testing.assert_allclose(
        table.global_mean, np.mean([r for _, _, _, r in rows], axis=0), atol=1e-12
    )


def test_aggregate_rejects_empty_dataset():
    ds = make_dataset([("q1", "text here", (), [1, 2, 3])])
    with pytest.raises(ValueError):
        aggregate_tag_rewards(ds.with_rows([]))


def test_tag_mean_multi_tag_is_unweighted_mean_of_tag_means():
    ds = make_dataset([
        ("q1", "a", ("x",), [1.0, 0.0, 0.0]),
        ("q2", "b", ("x",), [1.0, 0.0, 0.0]),
        ("q3", "c", ("y",), [0.0, 1.0, 0.0]),
    ])
    table = aggregate_tag_rewards(ds)
    q = Query(id="new", text="d", tags=frozenset({"x", "y"}))
    # mean of mean(x)=[1,0,0] and mean(y)=[0,1,0], not a row-weighted mean
    np.testing.assert_allclose(tag_mean_for_query(q, table), [0.5, 0.5, 0.0], atol=1e-12)


def test_unknown_tag_falls_back_to_global_mean():
    ds = make_dataset([
        ("q1", "a", ("x",), [1.0, 0.0, 0.0]),
        ("q2", "b", ("x",), [0.0, 1.0, 0.0]),
    ])
    table = aggregate_tag_rewards(ds)
    q = Query(id="new", text="c", tags=frozenset({"never-seen"}))
    np.testing.assert_allclose(tag_mean_for_query(q, table), table.global_mean, atol=1e-12)


def test_untagged_query_uses_reserved_tag_mean():
    ds = make_dataset([
        ("q1", "a", ("x",), [1.0, 0.0, 0.0]),
        ("q2", "b", (), [0.0, 0.0, 1.0]),
    ])
    table = aggregate_tag_rewards(ds)
    q = Query(id="new", text="c")
    np.testing.assert_allclose(tag_mean_for_query(q, table), [0.0, 0.0, 1.0], atol=1e-12)


def test_enhance_labels_endpoints_and_blend():
    ds = make_dataset([
        ("q1", "a", ("x",), [1.0, 0.0, 0.0]),
        ("q2", "b", ("x",), [0.0, 1.0, 0.0]),
    ])
    table = aggregate_tag_rewards(ds)
    q = Query(id="q1", text="a", tags=frozenset({"x"}))
    r = np.array([1.0, 0.0, 0.0])
    tag_mean = np.array([0.5, 0.5, 0.0])

    np.testing.assert_allclose(enhance_labels(r, q, table, beta=1.0), r, atol=1e-12)
    np.testing.assert_allclose(enhance_labels(r, q, table, beta=0.0), tag_mean, atol=1e-12)
    np.testing.assert_allclose(
        enhance_labels(r, q, table, beta=0.4), 0.4 * r + 0.6 * tag_mean, atol=1e-12
    )


@pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
def test_enhance_labels_rejects_out_of_range_beta(bad):
    ds = make_dataset([("q1", "a", ("x",), [1.0, 0.0, 0.0])])
    table = aggregate_tag_rewards(ds)
    q = Query(id="q1", text="a", tags=frozenset({"x"}))
    with pytest.raises(ValueError, match=rf"^beta must lie in \[0, 1\], got {bad}$"):
        enhance_labels(np.array([1.0, 0.0, 0.0]), q, table, beta=bad)
