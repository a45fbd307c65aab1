"""Seeded synthetic benchmarks and the stub backend's placeholder output.

Desk-scale experiments run on synthetic planted-expertise benchmarks where
the oracle is known by construction. The oracle and reward-ranking (RMR)
choices these benchmarks score are made in evaluation.py.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (DatasetRow, ModelRegistry, Query, RewardDataset, check_seed, check_strings,
                   read_json, to_number)
from .errors import DataFormatError


def stub_response(model_id: str, query_text: str) -> str:
    """Placeholder backend output: '<model_id>:<query hash>'."""
    digest = hashlib.sha256(query_text.encode("utf-8")).hexdigest()[:12]
    return f"{model_id}:{digest}"


# ---------------------------------------------------------------------------
# synthetic planted-expertise benchmarks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a seeded planted-expertise benchmark.

    Each cluster has a disjoint word vocabulary and one expert model whose
    true reward exceeds all others by `expertise_margin`; observed rewards
    add Gaussian noise of `noise_sigma`. With no explicit expertise map the
    i-th cluster (in mapping order) belongs to the i-th model.
    """

    num_models: int
    clusters: dict[str, list[str]]
    queries_per_cluster: int
    expertise_margin: float
    noise_sigma: float
    seed: int
    expertise: dict[str, str] | None = None
    words_per_query: tuple[int, int] = (6, 12)

    def __post_init__(self):
        if self.num_models < 2:
            raise ValueError("need at least 2 models")
        if self.queries_per_cluster < 1:
            raise ValueError("queries_per_cluster must be positive")
        if self.expertise_margin <= 0:
            raise ValueError(f"expertise margin must be positive, got {self.expertise_margin}")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be non-negative")
        check_seed(self.seed)
        for tag, vocab in self.clusters.items():
            if not vocab:
                raise ValueError(f"cluster {tag!r} has an empty vocabulary")
        if self.expertise is None and len(self.clusters) != self.num_models:
            raise ValueError(
                f"{len(self.clusters)} clusters but {self.num_models} models; "
                "give an explicit expertise map or one cluster per model"
            )
        if self.expertise is not None:
            if not isinstance(self.expertise, dict):
                raise ValueError("expertise must map each cluster to a model id")
            missing = [tag for tag in self.clusters if tag not in self.expertise]
            if missing:
                raise ValueError(f"expertise map leaves out cluster(s) {missing}")
            models = synthetic_registry(self.num_models).ids
            unknown = [m for m in self.expertise.values() if m not in models]
            if unknown:
                raise ValueError(f"expertise map names unknown model(s) {unknown}; "
                                 f"the models are {list(models)}")
        span = self.words_per_query
        if not (isinstance(span, (tuple, list)) and len(span) == 2
                and all(isinstance(n, int) for n in span) and 1 <= span[0] <= span[1]):
            raise ValueError(f"words_per_query must be two integers 1 <= lo <= hi, got {span!r}")
        object.__setattr__(self, "words_per_query", tuple(span))

    @classmethod
    def from_file(cls, path: str | Path) -> "SyntheticSpec":
        raw = read_json(path, "synthetic spec")
        where = f"synthetic spec {path}"
        try:
            if not isinstance(raw["clusters"], dict):
                raise DataFormatError(f"{where}: 'clusters' must be an object")
            return cls(
                num_models=to_number(int, raw["num_models"], where, "'num_models'"),
                clusters={tag: check_strings(words, where, f"cluster {tag!r}")
                          for tag, words in raw["clusters"].items()},
                queries_per_cluster=to_number(int, raw["queries_per_cluster"], where,
                                              "'queries_per_cluster'"),
                expertise_margin=to_number(float, raw["expertise_margin"], where,
                                           "'expertise_margin'"),
                noise_sigma=to_number(float, raw["noise_sigma"], where, "'noise_sigma'"),
                seed=to_number(int, raw["seed"], where, "'seed'"),
                expertise=raw.get("expertise"),
                words_per_query=raw.get("words_per_query", cls.words_per_query),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{where} is malformed: {exc}") from exc


def synthetic_registry(num_models: int) -> ModelRegistry:
    return ModelRegistry(tuple(f"m{i}" for i in range(num_models)))


def make_synthetic_benchmark(
    spec: SyntheticSpec,
) -> tuple[RewardDataset, dict[str, np.ndarray]]:
    """Generate a dataset of cluster-sampled queries plus its oracle map.

    Query text is words drawn from the cluster vocabulary; the observed
    reward vector is the planted true vector plus Gaussian noise. The
    oracle map holds the noiseless true vectors keyed by query id. Fully
    deterministic given spec.seed.
    """
    registry = synthetic_registry(spec.num_models)
    if spec.expertise is not None:
        expertise = dict(spec.expertise)
    else:
        expertise = {tag: registry.ids[i] for i, tag in enumerate(spec.clusters)}

    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.words_per_query
    rows: list[DatasetRow] = []
    oracle: dict[str, np.ndarray] = {}
    counter = 0
    for tag, vocab in spec.clusters.items():
        expert = registry.index_of(expertise[tag])
        true_rewards = np.zeros(spec.num_models, dtype=np.float64)
        true_rewards[expert] = spec.expertise_margin
        for _ in range(spec.queries_per_cluster):
            n_words = int(rng.integers(lo, hi + 1))
            words = [vocab[int(w)] for w in rng.integers(0, len(vocab), size=n_words)]
            qid = f"synth-{counter:05d}"
            counter += 1
            query = Query(id=qid, text=" ".join(words), tags=frozenset({tag}), subset=tag)
            observed = true_rewards + rng.normal(0.0, spec.noise_sigma, size=spec.num_models)
            rows.append(DatasetRow(query=query, rewards=observed))
            oracle[qid] = true_rewards.copy()
    return RewardDataset(registry=registry, rows=tuple(rows)), oracle
