"""Seeded inputs for every workload.

All randomness comes from numpy generators seeded by the benchmark's
--seed (queries) or by the fixed constants below (checkpoint recipe and the
ablation spec), so the same seed always yields the same inputs.
"""

from __future__ import annotations

import numpy as np

from reference import fnv1a_64

# The six planted clusters of the acceptance suite, in mapping order:
# cluster i is served best by model m<i>.
SIX_CLUSTERS = {
    "minerals": ["quartz", "basalt", "feldspar", "gypsum", "mica", "olivine", "shale", "granite"],
    "sailing": ["jib", "halyard", "tack", "leeward", "mainsail", "rudder", "keel", "spinnaker"],
    "grammar": ["clause", "gerund", "participle", "adverb", "conjunction", "tense", "plural", "syntax"],
    "baking": ["dough", "yeast", "crumb", "proofing", "gluten", "sourdough", "batter", "crust"],
    "weaving": ["warp", "weft", "loom", "shuttle", "heddle", "selvage", "twill", "bobbin"],
    "chess": ["gambit", "castling", "zugzwang", "endgame", "fianchetto", "tempo", "pawn", "rook"],
}

# train_ablate: the acceptance suite's label-smoothing spec. It does not
# depend on --seed, so its table is the same in every run.
ABLATION_SPEC = dict(num_models=6, queries_per_cluster=400, expertise_margin=0.5,
                     noise_sigma=2.0, seed=4)
ABLATION_BETAS = [0.0, 1.0]
ABLATION_TRAIN_SEED = 4
ABLATION_EPOCHS = 20          # TrainConfig default, used for throughput
EVAL_PERCENT = 20             # holdout_split default

# Serving checkpoint recipe, trained once per run before anything is timed.
SERVING_SPEC = dict(num_models=6, queries_per_cluster=100, expertise_margin=1.0,
                    noise_sigma=0.5, seed=7)
SERVING_TRAIN_SEED = 7

# route_long vocabulary: Zipf-ranked words, some with non-ASCII letters.
LONG_VOCAB_SIZE = 40000
LONG_VOCAB_SEED = 1
LONG_ZIPF_S = 0.75
LONG_WORDS = (150, 300)
LONG_NON_ASCII_SHARE = 0.08
LONG_POOL = 2000
_ASCII = "abcdefghijklmnopqrstuvwxyz"
_NON_ASCII = "éèêëüöäßñçøåąłžšćőűíóúœ"

SHORT_WORDS = (6, 12)
SHORT_POOL = 4000


def long_vocabulary(rng: np.random.Generator) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < LONG_VOCAB_SIZE:
        n = int(rng.integers(2, 11))
        letters = [_ASCII[i] for i in rng.integers(0, len(_ASCII), size=n)]
        if rng.random() < LONG_NON_ASCII_SHARE:
            for pos in rng.integers(0, n, size=int(rng.integers(1, 3))):
                letters[pos] = _NON_ASCII[int(rng.integers(0, len(_NON_ASCII)))]
        word = "".join(letters)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def long_queries(seed: int, count: int = LONG_POOL) -> list[str]:
    """150-300-word queries of Zipf-drawn words, split into capitalized sentences.

    The vocabulary is the same for every seed, so seeds differ in which
    queries they draw, not in how long or how repetitive the text is.
    """
    vocab = long_vocabulary(np.random.default_rng(LONG_VOCAB_SEED))
    rng = np.random.default_rng([seed, 1])
    weights = 1.0 / np.arange(1, len(vocab) + 1) ** LONG_ZIPF_S
    weights /= weights.sum()
    queries = []
    for _ in range(count):
        n = int(rng.integers(LONG_WORDS[0], LONG_WORDS[1] + 1))
        picks = rng.choice(len(vocab), size=n, p=weights)
        words = [vocab[int(i)] for i in picks]
        out, pos = [], 0
        while pos < n:
            length = int(rng.integers(8, 21))
            sentence = words[pos:pos + length]
            sentence[0] = sentence[0].capitalize()
            out.append(" ".join(sentence) + ".")
            pos += length
        queries.append(" ".join(out))
    return queries


def short_queries(seed: int, count: int = SHORT_POOL) -> list[tuple[str, int]]:
    """(query, cluster index) pairs of 6-12 words from one planted cluster each."""
    rng = np.random.default_rng([seed, 2])
    vocabs = list(SIX_CLUSTERS.values())
    out = []
    for _ in range(count):
        cluster = int(rng.integers(0, len(vocabs)))
        vocab = vocabs[cluster]
        n = int(rng.integers(SHORT_WORDS[0], SHORT_WORDS[1] + 1))
        out.append((" ".join(vocab[int(i)] for i in rng.integers(0, len(vocab), size=n)),
                    cluster))
    return out


def ablation_eval_counts() -> list[int]:
    """Eval-split rows per cluster, from the benchmark's own FNV-1a of query ids.

    make_synthetic_benchmark numbers queries synth-00000.. cluster by cluster,
    and holdout_split sends an id to the eval side when FNV-1a(id) % 100 < 20.
    """
    per = ABLATION_SPEC["queries_per_cluster"]
    counts = [0] * len(SIX_CLUSTERS)
    for i in range(per * len(SIX_CLUSTERS)):
        if fnv1a_64(f"synth-{i:05d}".encode("utf-8")) % 100 < EVAL_PERCENT:
            counts[i // per] += 1
    return counts


def train_serving_checkpoint(path: str) -> None:
    """Train the checkpoint the gateway serves and write it to `path`."""
    from rewardroute import (SyntheticSpec, TrainConfig, aggregate_tag_rewards,
                             init_router, make_synthetic_benchmark, save_checkpoint,
                             train)
    spec = SyntheticSpec(clusters=SIX_CLUSTERS, **SERVING_SPEC)
    dataset, _ = make_synthetic_benchmark(spec)
    model = init_router(dataset.registry, seed=SERVING_TRAIN_SEED)
    trained, _ = train(model, dataset, aggregate_tag_rewards(dataset),
                       TrainConfig(seed=SERVING_TRAIN_SEED))
    save_checkpoint(trained, path)
