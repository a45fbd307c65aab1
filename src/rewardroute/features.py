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
- Units: a sequence of units is runs of bytes. Its layout for FNV-1a
  (_Runs: the first byte of every unit, the runs longer than one byte in
  longest-first order with the bytes each numpy pass steps, and the bytes
  of the few long runs left to Python ints) is computed once per sequence
  and chunk, and every n-gram order extends its states through it.
- States are end-aligned: the order-n state at unit e is the n-gram that
  ends at e, the order n-1 state at e - 1 continued over unit e. So every
  order extends over the same units; the first n - 1 states of order n
  start before the sequence and are dropped.
- Char n-grams: the chunk's texts are laid end to end in UTF-8, and a code
  point starts at every byte that is not a continuation byte. Order 1
  starts from the state of the "c#" prefix, and orders 1..hi take hi
  extensions.
- Word n-grams: the words of every text's ``text.split()`` are joined by
  single spaces, so each word is one run between separators. Order 1
  hashes each word; order n continues the order n-1 state over the
  separating space, then the next word.
- Every unit (code point or word) is tagged with its text, and an n-gram
  whose first and last units belong to different texts is dropped. The
  rest become keys ``row * dimension + bucket``, counted with one
  ``np.unique``; each row's counts, divided by their own norm, are its
  weights, so a row is bit-identical to the row featurized alone. The
  bucket is ``hash % dimension``, taken as a mask when the dimension is a
  power of two.
"""

from __future__ import annotations

import math
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

# _Runs steps this many long runs or fewer in Python ints, not numpy passes.
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


class _Runs:
    """FNV-1a over a sequence of units, each a run of bytes data[first[k]:first[k] + width[k]].

    Everything that depends only on the units is laid out once: the first
    byte of every unit, the runs longer than one byte in longest-first order
    with the bytes each numpy pass steps, and the bytes of the few runs the
    passes leave to Python ints. extend() then continues any states over
    those units at the cost of the passes alone, so every n-gram order of a
    sequence shares one layout.
    """

    def __init__(self, data: np.ndarray, first: np.ndarray, width: np.ndarray):
        self.head = data[first].astype(np.uint64)
        longer = np.flatnonzero(width > 1)
        longer = longer[np.argsort(-width[longer], kind="stable")]
        # left[j - 1] runs are longer than j bytes, for j = 1 .. longest - 1
        left = (longer.size - np.cumsum(np.bincount(width[longer]))[1:-1]).tolist()
        fl = first[longer]
        passes = [n for n in left if n > _TAIL_RUNS]  # left never increases
        # pass j steps byte j of the n longest runs
        self.steps = [data[fl[:n] + j].astype(np.uint64) for j, n in enumerate(passes, start=1)]
        done = len(passes) + 1  # bytes of every run the passes hash
        tail = left[done - 1] if done <= len(left) else 0
        ends = fl[:tail] + width[longer[:tail]]
        self.tails = [data[f + done:e].tolist() for f, e in zip(fl[:tail].tolist(), ends.tolist())]
        self.longer = longer

    def extend(self, h: np.ndarray) -> np.ndarray:
        """Continue each FNV-1a state h[k] over the bytes of unit k.

        The runs longer than one byte are visited longest first, so pass j
        steps a prefix of them and the passes' work is the bytes. Once
        _TAIL_RUNS or fewer are longer than the pass, they finish byte by
        byte in Python ints, so one long word costs its bytes, not one numpy
        pass each. uint64 array arithmetic wraps mod 2**64, as FNV-1a requires.
        """
        h = (h ^ self.head) * _PRIME
        if self.longer.size:
            hl = h[self.longer]
            for step in self.steps:
                part = hl[:step.size]
                part ^= step
                part *= _PRIME
            for k, tail in enumerate(self.tails):
                state = int(hl[k])
                for byte in tail:
                    state = ((state ^ byte) * FNV_PRIME) & _U64
                hl[k] = state
            h[self.longer] = hl
        return h


def _buckets(h: np.ndarray, dimension: int) -> np.ndarray:
    """h % dimension; a mask when the dimension is a power of two, which gives the same bits."""
    mask = dimension - 1
    return h & np.uint64(mask) if dimension & mask == 0 else h % np.uint64(dimension)


def _grams(runs: _Runs, seed: int, row: np.ndarray, orders: tuple[int, int], dimension: int,
           joiner: int | None = None) -> list[np.ndarray]:
    """Keys row * dimension + bucket of the n-grams of orders lo..hi over a sequence of units.

    row holds the text each unit belongs to. The states are end-aligned: the
    order-n state at unit e is the n-gram ending at e, the order n-1 state at
    e - 1 continued over the joiner byte, if any, and then over unit e
    through runs' one layout. Of order n, the first n - 1 states start
    before the sequence and are dropped, and so is a gram whose first and
    last units belong to different texts.
    """
    lo, hi = orders
    offset = row * np.uint64(dimension)
    h = np.full(row.size, seed, dtype=np.uint64)
    keys = []
    for n in range(1, min(hi, row.size) + 1):
        if n > 1:
            h = np.concatenate((h[-1:], h[:-1]))  # h[e]: the order n-1 state at e - 1
            if joiner is not None:
                h = (h ^ np.uint64(joiner)) * _PRIME
        h = runs.extend(h)
        if n >= lo:
            same = row[n - 1:] == row[:row.size - n + 1]
            keys.append((offset[n - 1:] + _buckets(h[n - 1:], dimension))[same])
    return keys


def _word_keys(texts: list[str], dimension: int) -> list[np.ndarray]:
    words = [text.split() for text in texts]
    # Words hold no whitespace, so the only 0x20 bytes of the joined words are
    # the separators, and each word is the run between two of them.
    data = np.frombuffer(" ".join(chain.from_iterable(words)).encode("utf-8"), dtype=np.uint8)
    sep = np.flatnonzero(data == 0x20)
    first = np.concatenate(([0], sep + 1))
    width = np.append(sep, data.size) - first
    row = np.repeat(np.arange(len(texts), dtype=np.uint64), [len(w) for w in words])
    # Order n > 1 continues over the separating space, then the next word.
    return _grams(_Runs(data, first, width), FNV_OFFSET, row, WORD_ORDERS, dimension,
                  joiner=0x20)


def _char_keys(texts: list[str], utf8: bytes, dimension: int) -> list[np.ndarray]:
    data = np.frombuffer(utf8, dtype=np.uint8)
    # A code point starts at every byte that is not a continuation byte 10xxxxxx.
    first = np.flatnonzero((data & 0xC0) != 0x80)
    width = np.append(first[1:], data.size) - first
    row = np.repeat(np.arange(len(texts), dtype=np.uint64), [len(text) for text in texts])
    return _grams(_Runs(data, first, width), _CHAR_SEED, row, CHAR_ORDERS, dimension)


def _hash_chunk(config: FeaturizerConfig, texts: list[str], utf8: list[bytes],
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row lengths, bucket indices and weights of a few texts ("" for a blank one)."""
    dimension = config.dimension
    keys = [np.empty(0, dtype=np.uint64)]
    if any(texts):  # a blank text has no word and no code point
        keys += _word_keys(texts, dimension) + _char_keys(texts, b"".join(utf8), dimension)
    keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    offsets = np.arange(len(texts) + 1, dtype=np.uint64) * np.uint64(dimension)
    bounds = np.searchsorted(keys, offsets)
    lengths = np.diff(bounds)
    weights = counts.astype(np.float64)
    ends = bounds.tolist()
    for lo, hi in zip(ends, ends[1:]):
        if hi > lo:
            # one norm per row keeps each row's bits those of the row alone;
            # sqrt(w . w) is np.linalg.norm's own formula for a 1-D float64 row
            w = weights[lo:hi]
            w /= math.sqrt(w.dot(w))
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
