"""Reward normalization, tag-wise aggregation, and label enhancement.

Per-model scalar rewards for a query are turned into a routing target by a
temperature softmax. Before that, each sample's rewards can be smoothed
toward the mean reward vector of the queries sharing its tags:

    enhanced = beta * sample_rewards + (1 - beta) * tag_mean_rewards

beta=1 keeps raw sample rewards, beta=0 uses pure tag-level means. Rewards
are aggregated raw (not normalized first); the softmax is applied to the
enhanced vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import UNTAGGED, Query, RewardDataset

DISTRIBUTION_ATOL = 1e-9


def check_temperature(temperature: float) -> None:
    """Raise ValueError unless the softmax temperature is finite and positive."""
    if not np.isfinite(temperature):
        raise ValueError(f"temperature must be finite, got {temperature}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")


def check_beta(beta: float) -> None:
    """Raise ValueError unless the smoothing weight lies in [0, 1]."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")


def normalize_rewards(rewards: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Softmax of rewards/temperature, computed with max-subtraction.

    The output sums to 1 and is invariant under adding a constant to all
    rewards. Ties in the input stay ties in the output.
    """
    check_temperature(temperature)
    r = np.asarray(rewards, dtype=np.float64)
    if not np.all(np.isfinite(r)):
        raise ValueError("reward vector has non-finite entries")
    z = r / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def reward_entropy(probs: np.ndarray) -> float:
    """Shannon entropy of a routing distribution in nats, with 0*ln(0) = 0.

    `probs` must be 1-D, with entries in [0, 1] that sum to 1 within
    DISTRIBUTION_ATOL; anything else is a ValueError.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("distribution must be 1-D")
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("distribution entries must lie in [0, 1]")
    if abs(p.sum() - 1.0) > DISTRIBUTION_ATOL:
        raise ValueError(f"distribution sums to {float(p.sum())!r}, expected 1")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


@dataclass(frozen=True)
class TagRewardTable:
    """Mean reward vector and row count per tag, plus the global mean.

    Rows with several tags contribute to each of them; untagged rows land
    under the reserved UNTAGGED key. The global mean over all rows is the
    fallback for tags never seen during aggregation.
    """

    means: dict[str, np.ndarray]
    counts: dict[str, int]
    global_mean: np.ndarray

    def tag_reward(self, tag: str) -> np.ndarray:
        return self.means.get(tag, self.global_mean)


def aggregate_tag_rewards(dataset: RewardDataset) -> TagRewardTable:
    """Group reward vectors by tag and average them.

    For each tag t, the mean is over all rows whose tag set contains t.
    """
    if len(dataset) == 0:
        raise ValueError("cannot aggregate an empty dataset")
    k = len(dataset.registry)
    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for row in dataset.rows:
        tags = sorted(row.query.tags) or [UNTAGGED]
        for tag in tags:
            if tag not in sums:
                sums[tag] = np.zeros(k, dtype=np.float64)
                counts[tag] = 0
            sums[tag] += row.rewards
            counts[tag] += 1
    means = {tag: sums[tag] / counts[tag] for tag in sums}
    global_mean = dataset.reward_matrix().mean(axis=0)
    return TagRewardTable(means=means, counts=counts, global_mean=global_mean)


def tag_mean_for_query(query: Query, table: TagRewardTable) -> np.ndarray:
    """Tag-level reward vector for a query: unweighted mean over its tags.

    Unknown tags fall back to the table's global mean; untagged queries use
    the reserved UNTAGGED entry when present, else the global mean.
    """
    tags = sorted(query.tags) or [UNTAGGED]
    vectors = [table.tag_reward(tag) for tag in tags]
    return np.mean(vectors, axis=0)


def enhance_labels(
    rewards: np.ndarray,
    query: Query,
    table: TagRewardTable,
    beta: float,
) -> np.ndarray:
    """Blend sample rewards with the query's tag-mean rewards.

    beta=1 returns the sample rewards unchanged; beta=0 returns the tag
    mean. The blend is linear entrywise.
    """
    check_beta(beta)
    r = np.asarray(rewards, dtype=np.float64)
    r_tag = tag_mean_for_query(query, table)
    return beta * r + (1.0 - beta) * r_tag
