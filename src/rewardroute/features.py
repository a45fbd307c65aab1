"""Deterministic hashed n-gram featurizer.

Query text is mapped to a fixed-dimension sparse vector: word n-grams and
character n-grams are extracted, hashed with 64-bit FNV-1a modulo the
dimension, counted, and L2-normalized. No vocabulary is stored, so the
same config reproduces the same vector on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF

# Namespace prefix separating char n-grams from word n-grams of equal text.
CHAR_PREFIX = "c#"


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash; fixed offset basis, no per-process seeding."""
    h = FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & _U64
    return h


def stable_hash(text: str) -> int:
    """Platform-stable 64-bit hash of a string (UTF-8 bytes through FNV-1a)."""
    return fnv1a_64(text.encode("utf-8"))


@dataclass(frozen=True)
class FeaturizerConfig:
    dimension: int = 2 ** 16
    word_ngram_range: tuple[int, int] = (1, 2)
    char_ngram_range: tuple[int, int] = (3, 5)
    lowercase: bool = True

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dimension}")
        for name, rng in (("word_ngram_range", self.word_ngram_range),
                          ("char_ngram_range", self.char_ngram_range)):
            lo, hi = rng
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} must satisfy 1 <= lo <= hi, got {rng}")
        object.__setattr__(self, "word_ngram_range", tuple(self.word_ngram_range))
        object.__setattr__(self, "char_ngram_range", tuple(self.char_ngram_range))

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "word_ngram_range": list(self.word_ngram_range),
            "char_ngram_range": list(self.char_ngram_range),
            "lowercase": self.lowercase,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeaturizerConfig":
        return cls(
            dimension=int(d["dimension"]),
            word_ngram_range=tuple(d["word_ngram_range"]),
            char_ngram_range=tuple(d["char_ngram_range"]),
            lowercase=bool(d["lowercase"]),
        )


def extract_ngrams(
    text: str,
    word_range: tuple[int, int] | None,
    char_range: tuple[int, int] | None,
) -> list[str]:
    """All word n-grams (space-joined) then all char n-grams ("c#"-prefixed).

    Either range may be None to skip that family. Word n-grams are emitted
    shortest order first, in text order within each order; char n-grams run
    over the raw string including spaces.
    """
    grams: list[str] = []
    if word_range is not None:
        words = text.split()
        lo, hi = word_range
        for n in range(lo, hi + 1):
            for i in range(len(words) - n + 1):
                grams.append(" ".join(words[i:i + n]))
    if char_range is not None:
        lo, hi = char_range
        for n in range(lo, hi + 1):
            for i in range(len(text) - n + 1):
                grams.append(CHAR_PREFIX + text[i:i + n])
    return grams


def _hashed_counts(config: FeaturizerConfig, text: str) -> dict[int, float]:
    if not text.strip():
        return {}
    if config.lowercase:
        text = text.lower()
    counts: dict[int, float] = {}
    for gram in extract_ngrams(text, config.word_ngram_range, config.char_ngram_range):
        idx = fnv1a_64(gram.encode("utf-8")) % config.dimension
        counts[idx] = counts.get(idx, 0.0) + 1.0
    return counts


def featurize(config: FeaturizerConfig, text: str) -> sparse.csr_matrix:
    """One text as a 1 x dimension CSR row; see featurize_matrix."""
    return featurize_matrix(config, [text])


def featurize_matrix(config: FeaturizerConfig, texts: list[str]) -> sparse.csr_matrix:
    """Hash each text's n-grams into one L2-normalized CSR row.

    The result has shape (len(texts), dimension) with sorted unique column
    indices per row. Empty (or whitespace-only) text yields an all-zero row.
    """
    indptr, cols, data = [0], [], []
    for text in texts:
        counts = _hashed_counts(config, text)
        indices = sorted(counts)
        weights = np.array([counts[i] for i in indices], dtype=np.float64)
        if indices:
            weights /= np.linalg.norm(weights)
        cols.extend(indices)
        data.extend(weights.tolist())
        indptr.append(len(cols))
    return sparse.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(cols, dtype=np.int64),
         np.array(indptr, dtype=np.int64)),
        shape=(len(texts), config.dimension),
    )
