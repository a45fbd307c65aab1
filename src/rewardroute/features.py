"""Deterministic hashed n-gram featurizer.

Query text is mapped to a fixed-dimension sparse vector: word n-grams and
character n-grams are extracted, hashed with 64-bit FNV-1a modulo the
dimension, counted, and L2-normalized. No vocabulary is stored, so the
same config reproduces the same vector on any platform.

The hashing runs on uint64 numpy arrays of FNV states, one state per n-gram,
and gives the same hashes as FNV-1a run over each n-gram's UTF-8 bytes:

- Char n-grams: a code point starts at every byte of the text's UTF-8 that
  is not a continuation byte. Every position starts from the state of the
  "c#" prefix; order n extends the order n-1 states by the bytes of the n-th
  code point, so orders 1..hi take hi rounds, each one pass per byte of the
  widest code point among them.
- Word n-grams: the words of ``text.split()`` are joined by single spaces,
  so every word n-gram is one contiguous slice of those bytes. Order 1 hashes
  each word; order n continues the order n-1 state over the separating space
  and the next word.
- The states of all orders are taken modulo the dimension and counted with
  ``np.unique``; the counts, divided by their norm, are the row's weights.
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


_PRIME = np.uint64(FNV_PRIME)
# Every char n-gram's hash starts from the state after its namespace prefix.
_CHAR_SEED = np.uint64(stable_hash(CHAR_PREFIX))


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


def _extend(h: np.ndarray, data: np.ndarray, first: np.ndarray,
            width: np.ndarray) -> np.ndarray:
    """Continue each FNV-1a state h[k] over the bytes data[first[k]:first[k] + width[k]].

    Every run holds at least one byte. The runs longer than that are then
    visited longest first, so pass j steps a prefix of them: there are as many
    passes as the longest run has bytes, and their work is the bytes. uint64
    array arithmetic wraps mod 2**64, as FNV-1a requires.
    """
    h = (h ^ data[first]) * _PRIME
    longer = np.flatnonzero(width > 1)
    if longer.size:
        longer = longer[np.argsort(-width[longer], kind="stable")]
        # left[j - 1] runs are longer than j bytes, for j = 1 .. longest - 1
        left = (longer.size - np.cumsum(np.bincount(width[longer]))[1:-1]).tolist()
        hl, fl = h[longer], first[longer]
        for j, n in enumerate(left, start=1):
            hl[:n] ^= data[fl[:n] + j]
            hl[:n] *= _PRIME
        h[longer] = hl
    return h


def _grams(h: np.ndarray, data: np.ndarray, first: np.ndarray, width: np.ndarray,
           orders: tuple[int, int]) -> list[np.ndarray]:
    """Hash states of the n-grams of orders lo..hi over a sequence of units.

    h holds the order-1 state of each unit. Order n continues the order n-1
    state that starts at unit i over the bytes data[first[i+n-1]:][:width[i+n-1]],
    so its states are those of the grams in text order.
    """
    lo, hi = orders
    states = [h] if lo == 1 else []
    for n in range(2, min(hi, len(h)) + 1):
        h = _extend(h[:-1], data, first[n - 1:], width[n - 1:])
        if n >= lo:
            states.append(h)
    return states


def _word_states(config: FeaturizerConfig, text: str) -> list[np.ndarray]:
    # Words hold no whitespace, so the only 0x20 bytes of the joined words are
    # the separators, and an n-gram's bytes are one contiguous slice of them.
    data = np.frombuffer(" ".join(text.split()).encode("utf-8"), dtype=np.uint8)
    sep = np.flatnonzero(data == 0x20)
    first = np.concatenate(([0], sep + 1))
    width = np.append(sep, data.size) - first
    data = data.astype(np.uint64)
    h = _extend(np.full(first.size, FNV_OFFSET, dtype=np.uint64), data, first, width)
    # Order n > 1 continues over the separating space and the next word.
    return _grams(h, data, first - 1, width + 1, config.word_ngram_range)


def _char_states(config: FeaturizerConfig, text: str) -> list[np.ndarray]:
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    # A code point starts at every byte that is not a continuation byte 10xxxxxx.
    first = np.flatnonzero((data & 0xC0) != 0x80)
    width = np.diff(first, append=data.size)
    data = data.astype(np.uint64)
    h = _extend(np.full(first.size, _CHAR_SEED, dtype=np.uint64), data, first, width)
    return _grams(h, data, first, width, config.char_ngram_range)


def _hashed_row(config: FeaturizerConfig, text: str) -> tuple[np.ndarray, np.ndarray]:
    """Sorted bucket indices of one text and their L2-normalized counts."""
    states = [np.empty(0, dtype=np.uint64)]
    if text.strip():
        if config.lowercase:
            text = text.lower()
        states += _word_states(config, text) + _char_states(config, text)
    indices, counts = np.unique(np.concatenate(states) % np.uint64(config.dimension),
                                return_counts=True)
    weights = counts.astype(np.float64)
    weights /= np.linalg.norm(weights)   # an empty row stays empty
    return indices, weights


def featurize(config: FeaturizerConfig, text: str) -> sparse.csr_matrix:
    """One text as a 1 x dimension CSR row; see featurize_matrix."""
    return featurize_matrix(config, [text])


def featurize_matrix(config: FeaturizerConfig, texts: list[str]) -> sparse.csr_matrix:
    """Hash each text's n-grams into one L2-normalized CSR row.

    The result has shape (len(texts), dimension) with sorted unique column
    indices per row. Empty (or whitespace-only) text yields an all-zero row.
    """
    rows = [_hashed_row(config, text) for text in texts]
    indptr = np.cumsum([0] + [indices.size for indices, _ in rows])
    cols = np.concatenate([np.empty(0, dtype=np.uint64)] + [indices for indices, _ in rows])
    data = np.concatenate([np.empty(0, dtype=np.float64)] + [weights for _, weights in rows])
    # scipy stores int32 indices whenever the shape and nnz fit; handing it
    # that dtype spares it checking and converting int64 arrays on every call.
    fits = max(len(texts), config.dimension, cols.size) <= np.iinfo(np.int32).max
    index_dtype = np.int32 if fits else np.int64
    return sparse.csr_matrix(
        (data, cols.astype(index_dtype), indptr.astype(index_dtype)),
        shape=(len(texts), config.dimension),
    )
