"""
Benchmark decontamination by 6-token window overlap
===================================================

Training data that quotes an evaluation benchmark inflates every number
downstream. Before training, any row sharing a window of 6 consecutive
tokens with a benchmark query is dropped. Matching happens after
normalization (lowercase, Unicode whitespace split, edge punctuation
stripped), so casing and trailing commas can't hide a copy.

The CLI equivalent is:
    rewardroute ingest --data raw.jsonl --registry registry.json \
        --benchmarks benchmarks.txt --out clean.jsonl --report removed.jsonl
"""

from pathlib import Path

from rewardroute import (
    decontaminate,
    find_contaminated,
    load_dataset,
    load_registry,
    text_ngrams,
    tokenize,
)
from rewardroute.fixtures import fixture_path

# ---------------------------------------------------------------------------
# tokenization: what counts as "the same" text
# ---------------------------------------------------------------------------

samples = [
    "Write a regex THAT validates ISO dates!",
    "write a regex that validates iso dates",
    "don't strip interior apostrophes or 3.14",
]
for s in samples:
    print(f"{s!r}\n  -> {tokenize(s)}")

a, b = (text_ngrams(s) for s in samples[:2])
print(f"\nshared 6-grams between the first two: {len(a & b)} "
      "(case and punctuation fold away)")

# ---------------------------------------------------------------------------
# scan the bundled sample dataset against the bundled benchmark file
# ---------------------------------------------------------------------------

registry = load_registry(fixture_path("registry.json"))
dataset = load_dataset(fixture_path("sample_dataset.jsonl"), registry)
benchmarks = [
    line.strip()
    for line in Path(fixture_path("benchmark_queries.txt")).read_text().splitlines()
    if line.strip()
]
print(f"\n{len(dataset)} dataset rows vs {len(benchmarks)} benchmark queries:")
for query in benchmarks:
    print(f"  benchmark: {query!r}")

hits = find_contaminated(dataset, benchmarks)
for qid, ngram in hits:
    row = next(r for r in dataset.rows if r.query.id == qid)
    print(f"\nflagged {qid}: {row.query.text!r}")
    print(f"  shares the window: {' '.join(ngram)!r}")

clean, removed = decontaminate(dataset, benchmarks)
print(f"\nkept {len(clean)} rows, removed {[qid for qid, _ in removed]}")

# Five shared tokens are not enough; only a full 6-token window flags.
near_miss = "write a regex that validates timestamps for logs"
overlap = any(text_ngrams(near_miss) & text_ngrams(b) for b in benchmarks)
print(f"\nnear miss {near_miss!r} shares only 5 consecutive tokens -> "
      f"{'flagged' if overlap else 'not flagged'}")
