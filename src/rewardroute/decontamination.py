"""Word n-gram overlap screening between training queries and benchmark sets.

A training row is dropped when it shares at least one window of WINDOW (6)
consecutive tokens with any benchmark query. Tokenization: lowercase, split
on Unicode whitespace, strip leading/trailing punctuation from each token,
drop tokens that become empty.
"""

from __future__ import annotations

import unicodedata
from typing import Iterable, Sequence

from .data import RewardDataset

NGram = tuple[str, ...]

# Tokens per window; the screen has one window size, not a setting.
WINDOW = 6


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _strip_punct(token: str) -> str:
    start, end = 0, len(token)
    while start < end and _is_punct(token[start]):
        start += 1
    while end > start and _is_punct(token[end - 1]):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation per token."""
    tokens = []
    for raw in text.lower().split():
        tok = _strip_punct(raw)
        if tok:
            tokens.append(tok)
    return tokens


def token_ngrams(tokens: Sequence[str]) -> list[NGram]:
    """All WINDOW consecutive-token windows, in text order. Empty if len < WINDOW."""
    return [tuple(tokens[i:i + WINDOW]) for i in range(len(tokens) - WINDOW + 1)]


def text_ngrams(text: str) -> set[NGram]:
    return set(token_ngrams(tokenize(text)))


def find_contaminated(
    dataset: RewardDataset,
    benchmark_queries: Iterable[str],
) -> list[tuple[str, NGram]]:
    """Identify rows sharing a token window with any benchmark query.

    Returns (query_id, matching n-gram) pairs in dataset order; the reported
    n-gram is the first shared one in the query's token order.
    """
    benchmark_grams: set[NGram] = set()
    for bench in benchmark_queries:
        benchmark_grams |= text_ngrams(bench)
    hits: list[tuple[str, NGram]] = []
    if not benchmark_grams:
        return hits
    for row in dataset.rows:
        for gram in token_ngrams(tokenize(row.query.text)):
            if gram in benchmark_grams:
                hits.append((row.query.id, gram))
                break
    return hits


def decontaminate(
    dataset: RewardDataset,
    benchmark_queries: Iterable[str],
) -> tuple[RewardDataset, list[tuple[str, NGram]]]:
    """Drop every row overlapping the benchmark set.

    Returns the surviving rows, in their order, and find_contaminated's
    (query_id, n-gram) hits for the dropped ones. An empty benchmark list
    removes nothing.
    """
    hits = find_contaminated(dataset, benchmark_queries)
    removed = {qid for qid, _ in hits}
    kept = dataset.with_rows(row for row in dataset.rows if row.query.id not in removed)
    return kept, hits
