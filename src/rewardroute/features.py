"""Deterministic hashed n-gram featurizer.

Query text is mapped to a fixed-dimension sparse vector: word n-grams and
character n-grams are extracted, hashed with 64-bit FNV-1a modulo the
dimension, counted, and L2-normalized. No vocabulary is stored, so the
same config reproduces the same vector on any platform.

The hashing runs on uint64 numpy arrays of FNV states, one state per n-gram,
and gives the same hashes as FNV-1a run over each n-gram's UTF-8 bytes. A
batch is hashed in chunks of about _CHUNK_BYTES of UTF-8, every text of a
chunk at once:

- Rows: a text is lowercased; a blank (whitespace-only) one
  gives an all-zero row and contributes no units.
- Char n-grams: the chunk's texts are laid end to end in UTF-8, and a code
  point starts at every byte that is not a continuation byte. Every position
  starts from the state of the "c#" prefix; order n extends the order n-1
  states by the bytes of the n-th code point, so orders 1..hi take hi rounds.
- Word n-grams: the words of every text's ``text.split()`` are joined by
  single spaces, so every word n-gram is one contiguous slice of those bytes.
  Order 1 hashes each word; order n continues the order n-1 state over the
  separating space and the next word.
- Every unit (code point or word) is tagged with its text, and an n-gram
  whose first and last units belong to different texts is dropped. The
  rest become keys ``row * dimension + bucket``, counted with one
  ``np.unique``; each row's counts, divided by their own norm, are its
  weights, so a row is bit-identical to the row featurized alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .data import to_number

if TYPE_CHECKING:
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

# A batch is hashed this many bytes of UTF-8 at a time, so the uint64
# working arrays stay a few MiB however many texts it holds.
_CHUNK_BYTES = 2 ** 15

# _extend steps this many long runs or fewer in Python ints, not numpy passes.
_TAIL_RUNS = 8

# The one recipe: every non-blank text is lowercased, then hashed into word
# n-grams of these orders and char n-grams of these orders. Checkpoints
# record it next to the dimension.
WORD_ORDERS = (1, 2)
CHAR_ORDERS = (3, 5)


@dataclass(frozen=True)
class FeaturizerConfig:
    dimension: int = 2 ** 16

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dimension}")

    def to_dict(self) -> dict:
        return {"dimension": self.dimension, "word_ngram_range": list(WORD_ORDERS),
                "char_ngram_range": list(CHAR_ORDERS), "lowercase": True}

    @classmethod
    def from_dict(cls, d: dict) -> "FeaturizerConfig":
        """The config a checkpoint header stores.

        A dimension that is not a JSON integer is a DataFormatError, and a
        recipe other than this one a ValueError.
        """
        config = cls(dimension=to_number(int, d["dimension"], "checkpoint featurizer",
                                         "'dimension'"))
        if {**d, "dimension": config.dimension} != config.to_dict():
            raise ValueError(f"featurizer {d} is not the recipe this build hashes, "
                             f"{config.to_dict()}")
        return config


def _extend(h: np.ndarray, data: np.ndarray, first: np.ndarray,
            width: np.ndarray) -> np.ndarray:
    """Continue each FNV-1a state h[k] over the bytes data[first[k]:first[k] + width[k]].

    Every run holds at least one byte. The runs longer than that are then
    visited longest first, so pass j steps a prefix of them and the passes'
    work is the bytes. Once _TAIL_RUNS or fewer runs are longer than the
    pass, they finish byte by byte in Python ints, so one long word costs
    its bytes, not one numpy pass each. uint64 array arithmetic wraps mod
    2**64, as FNV-1a requires.
    """
    h = (h ^ data[first]) * _PRIME
    longer = np.flatnonzero(width > 1)
    if longer.size:
        longer = longer[np.argsort(-width[longer], kind="stable")]
        # left[j - 1] runs are longer than j bytes, for j = 1 .. longest - 1
        left = (longer.size - np.cumsum(np.bincount(width[longer]))[1:-1]).tolist()
        hl, fl = h[longer], first[longer]
        passes = [n for n in left if n > _TAIL_RUNS]  # left never increases
        for j, n in enumerate(passes, start=1):
            hl[:n] ^= data[fl[:n] + j]
            hl[:n] *= _PRIME
        done = len(passes) + 1  # bytes of every run hashed so far
        for k in range(left[done - 1] if done <= len(left) else 0):
            state = int(hl[k])
            for byte in data[fl[k] + done:fl[k] + width[longer[k]]].tolist():
                state = ((state ^ byte) * FNV_PRIME) & _U64
            hl[k] = state
        h[longer] = hl
    return h


def _grams(h: np.ndarray, row: np.ndarray, data: np.ndarray, first: np.ndarray,
           width: np.ndarray, orders: tuple[int, int], dim: np.uint64) -> list[np.ndarray]:
    """Keys row * dim + bucket of the n-grams of orders lo..hi over a sequence of units.

    h holds the order-1 state of each unit and row the text it belongs to.
    Order n continues the order n-1 state that starts at unit i over the
    bytes data[first[i+n-1]:][:width[i+n-1]]; of those grams it keeps the
    ones whose first and last units belong to the same text.
    """
    lo, hi = orders
    offset = row * dim
    keys = [offset + h % dim] if lo == 1 else []
    for n in range(2, min(hi, len(h)) + 1):
        h = _extend(h[:-1], data, first[n - 1:], width[n - 1:])
        if n >= lo:
            same = row[:h.size] == row[n - 1:]
            keys.append((offset[:h.size] + h % dim)[same])
    return keys


def _word_keys(texts: list[str], dim: np.uint64) -> list[np.ndarray]:
    words = [text.split() for text in texts]
    # Words hold no whitespace, so the only 0x20 bytes of the joined words are
    # the separators, and an n-gram's bytes are one contiguous slice of them.
    joined = " ".join(chain.from_iterable(words)).encode("utf-8")
    data = np.frombuffer(joined, dtype=np.uint8)
    sep = np.flatnonzero(data == 0x20)
    first = np.concatenate(([0], sep + 1))
    width = np.append(sep, data.size) - first
    data = data.astype(np.uint64)
    h = _extend(np.full(first.size, FNV_OFFSET, dtype=np.uint64), data, first, width)
    row = np.repeat(np.arange(len(texts), dtype=np.uint64), [len(w) for w in words])
    # Order n > 1 continues over the separating space and the next word.
    return _grams(h, row, data, first - 1, width + 1, WORD_ORDERS, dim)


def _char_keys(texts: list[str], utf8: bytes, dim: np.uint64) -> list[np.ndarray]:
    data = np.frombuffer(utf8, dtype=np.uint8)
    # A code point starts at every byte that is not a continuation byte 10xxxxxx.
    first = np.flatnonzero((data & 0xC0) != 0x80)
    width = np.diff(first, append=data.size)
    data = data.astype(np.uint64)
    h = _extend(np.full(first.size, _CHAR_SEED, dtype=np.uint64), data, first, width)
    row = np.repeat(np.arange(len(texts), dtype=np.uint64), [len(text) for text in texts])
    return _grams(h, row, data, first, width, CHAR_ORDERS, dim)


def _hash_chunk(config: FeaturizerConfig, texts: list[str], utf8: list[bytes],
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row lengths, bucket indices and weights of a few texts ("" for a blank one)."""
    dim = np.uint64(config.dimension)
    keys = [np.empty(0, dtype=np.uint64)]
    if any(texts):  # a blank text has no word and no code point
        keys += _word_keys(texts, dim) + _char_keys(texts, b"".join(utf8), dim)
    keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    offsets = np.arange(len(texts) + 1, dtype=np.uint64) * dim
    bounds = np.searchsorted(keys, offsets)
    lengths = np.diff(bounds)
    weights = counts.astype(np.float64)
    ends = bounds.tolist()
    for lo, hi in zip(ends, ends[1:]):
        if hi > lo:
            # one norm per row keeps each row's bits those of the row alone
            weights[lo:hi] /= np.linalg.norm(weights[lo:hi])
    return lengths, keys - np.repeat(offsets[:-1], lengths), weights


def _chunks(sizes: list[int]):
    """Consecutive (lo, hi) row ranges of about _CHUNK_BYTES bytes each."""
    lo, total = 0, 0
    for hi, size in enumerate(sizes, start=1):
        total += size
        if total >= _CHUNK_BYTES:
            yield lo, hi
            lo, total = hi, 0
    if lo < len(sizes) or not sizes:
        yield lo, len(sizes)


def _hashed_chunks(config: FeaturizerConfig, texts: list[str]):
    """Row lengths, bucket indices (uint64) and weights of the texts, chunk by chunk."""
    if len(texts) * config.dimension >= 2 ** 64:
        raise ValueError(f"{len(texts)} rows of dimension {config.dimension} "
                         "overflow the uint64 row * dimension + bucket keys")
    texts = [text.lower() if text.strip() else "" for text in texts]
    utf8 = [text.encode("utf-8") for text in texts]
    for lo, hi in _chunks([len(b) for b in utf8]):
        yield _hash_chunk(config, texts[lo:hi], utf8[lo:hi])


def featurize(config: FeaturizerConfig, text: str) -> sparse.csr_matrix:
    """One text as a 1 x dimension CSR row; see featurize_matrix."""
    return featurize_matrix(config, [text])


def featurize_matrix(config: FeaturizerConfig, texts: list[str]) -> sparse.csr_matrix:
    """Hash each text's n-grams into one L2-normalized CSR row.

    The result has shape (len(texts), dimension) with sorted unique column
    indices per row. Empty (or whitespace-only) text yields an all-zero row.
    A row does not depend on the other texts of the batch.
    """
    from scipy import sparse  # here, not at the top: serving builds no CSR matrix
    lengths, cols, data = (np.concatenate(parts) for parts in zip(*_hashed_chunks(config, texts)))
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    # scipy stores int32 indices whenever the shape and nnz fit; handing it
    # that dtype spares it checking and converting int64 arrays on every call.
    fits = max(len(texts), config.dimension, cols.size) <= np.iinfo(np.int32).max
    index_dtype = np.int32 if fits else np.int64
    return sparse.csr_matrix(
        (data, cols.astype(index_dtype), indptr.astype(index_dtype)),
        shape=(len(texts), config.dimension),
    )
