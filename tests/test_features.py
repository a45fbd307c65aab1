import hashlib

import numpy as np
import pytest
from scipy import sparse

from rewardroute import (
    FeaturizerConfig,
    SyntheticSpec,
    featurize,
    featurize_matrix,
    load_dataset,
    load_registry,
    make_synthetic_benchmark,
    stable_hash,
)
from rewardroute import features
from rewardroute.features import CHAR_PREFIX, FNV_OFFSET, FNV_PRIME, fnv1a_64
from rewardroute.fixtures import fixture_path

# featurize_matrix hashes in uint64 arrays, which wrap silently; a np.uint64
# scalar step would warn on every call (and print on the gateway's stderr).
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def reference_fnv1a(data: bytes) -> int:
    """Independent FNV-1a: same published constants, separate arithmetic."""
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) % 2 ** 64
    return h


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


def reference_featurize_matrix(config: FeaturizerConfig, texts: list[str]) -> sparse.csr_matrix:
    """The documented recipe one gram at a time: the reference featurize_matrix must equal."""
    indptr, cols, data = [0], [], []
    for text in texts:
        counts: dict[int, float] = {}
        if text.strip():
            if config.lowercase:
                text = text.lower()
            for gram in extract_ngrams(text, config.word_ngram_range, config.char_ngram_range):
                idx = fnv1a_64(gram.encode("utf-8")) % config.dimension
                counts[idx] = counts.get(idx, 0.0) + 1.0
        indices = sorted(counts)
        weights = np.array([counts[i] for i in indices], dtype=np.float64)
        if indices:
            weights /= np.linalg.norm(weights)
        cols.extend(indices)
        data.extend(weights.tolist())
        indptr.append(len(cols))
    fits = max(len(texts), config.dimension, len(cols)) <= np.iinfo(np.int32).max
    index_dtype = np.int32 if fits else np.int64
    return sparse.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(cols, dtype=index_dtype),
         np.array(indptr, dtype=index_dtype)),
        shape=(len(texts), config.dimension),
    )


def test_fnv1a_known_vectors():
    # offset basis for the empty input is part of the FNV spec
    assert fnv1a_64(b"") == 0xCBF29CE484222325
    for payload in (b"a", b"hello world", "naïve café".encode("utf-8"), bytes(range(256))):
        assert fnv1a_64(payload) == reference_fnv1a(payload)


def test_stable_hash_is_fixed_across_runs():
    # frozen value: any change here breaks stored splits and checkpoints
    assert stable_hash("routing") == fnv1a_64("routing".encode("utf-8"))
    assert stable_hash("") == 0xCBF29CE484222325


def test_extract_word_ngrams_example():
    grams = extract_ngrams("ab cd ef", (1, 2), None)
    assert grams == ["ab", "cd", "ef", "ab cd", "cd ef"]


def test_extract_char_ngrams_example():
    grams = extract_ngrams("abcd", None, (3, 4))
    assert grams == [CHAR_PREFIX + "abc", CHAR_PREFIX + "bcd", CHAR_PREFIX + "abcd"]


def test_char_ngrams_span_spaces():
    grams = extract_ngrams("a b", None, (3, 3))
    assert grams == [CHAR_PREFIX + "a b"]


def test_word_and_char_ngrams_cannot_collide_textually():
    word = extract_ngrams("c#x", (1, 1), None)
    char = extract_ngrams("c#x", None, (3, 3))
    assert word == ["c#x"]
    assert char == [CHAR_PREFIX + "c#x"]
    assert word[0] != char[0]


def test_featurize_l2_norm_is_one():
    config = FeaturizerConfig(dimension=512)
    vec = featurize(config, "solve the equation quickly")
    assert np.linalg.norm(vec.data) == pytest.approx(1.0, abs=1e-12)


def test_featurize_empty_text_is_zero_vector():
    config = FeaturizerConfig(dimension=512)
    vec = featurize(config, "   ")
    assert vec.shape == (1, 512)
    assert vec.nnz == 0
    assert vec.toarray().sum() == 0.0


def test_featurize_is_deterministic():
    config = FeaturizerConfig()
    a = featurize(config, "the same text twice")
    b = featurize(config, "the same text twice")
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.data, b.data)


def test_featurize_lowercases_by_default():
    config = FeaturizerConfig(dimension=2 ** 14)
    a = featurize(config, "Solve The Equation")
    b = featurize(config, "solve the equation")
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.data, b.data)

    keep_case = FeaturizerConfig(dimension=2 ** 14, lowercase=False)
    c = featurize(keep_case, "Solve The Equation")
    d = featurize(keep_case, "solve the equation")
    assert not np.array_equal(c.indices, d.indices)


def test_featurize_indices_sorted_unique_in_range():
    config = FeaturizerConfig(dimension=256)  # tiny dimension forces collisions
    vec = featurize(config, "pack many n-grams into a very small table indeed")
    assert np.all(np.diff(vec.indices) > 0)
    assert vec.indices.min() >= 0
    assert vec.indices.max() < 256
    assert np.all(vec.data > 0)


def test_repeated_gram_counts_accumulate():
    config = FeaturizerConfig(dimension=2 ** 16, char_ngram_range=(30, 31))
    # char n-grams of order 30 never fire on this short text; only words count
    vec = featurize(config, "dog dog cat")
    dense = vec.toarray().ravel()
    # "dog" appears twice, "cat" once, bigrams "dog dog" and "dog cat" once each
    counts = np.array([2.0, 1.0, 1.0, 1.0])
    expected = counts / np.linalg.norm(counts)
    np.testing.assert_allclose(np.sort(dense[dense > 0]), np.sort(expected), atol=1e-12)


def test_hash_collisions_are_rare_at_full_dimension():
    config = FeaturizerConfig()
    tokens = [f"token{i}" for i in range(1000)]
    buckets = {fnv1a_64(t.encode()) % config.dimension for t in tokens}
    assert len(buckets) > 950  # < 5% collisions at dimension 65536


def test_featurize_matrix_matches_row_featurize():
    # a row does not depend on the other texts in the batch
    config = FeaturizerConfig(dimension=1024)
    texts = ["first little query", "second one", "", "first little query"]
    m = featurize_matrix(config, texts)
    assert m.shape == (4, 1024)
    for i, text in enumerate(texts):
        one = featurize(config, text)
        row = m[i]
        np.testing.assert_array_equal(row.indices, one.indices)
        np.testing.assert_array_equal(row.data, one.data)


@pytest.mark.parametrize("kwargs", [
    {"dimension": 1},
    {"word_ngram_range": (0, 2)},
    {"word_ngram_range": (3, 2)},
    {"char_ngram_range": (2, 1)},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        FeaturizerConfig(**kwargs)


def test_config_dict_round_trip():
    config = FeaturizerConfig(dimension=4096, word_ngram_range=(1, 3),
                              char_ngram_range=(2, 4), lowercase=False)
    assert FeaturizerConfig.from_dict(config.to_dict()) == config


LONG_NON_ASCII = [
    "naïve café déjà vu " * 40,
    "Ελληνικά κείμενα και αριθμοί 12345 " * 30,
    "日本語のテキストと絵文字🙂を含む長い文 " * 25,
    "",
    "   ",
    "Straße ÆØÅ ﬁ ligature İstanbul ß " * 20,
]


def _golden_texts(name):
    if name == "sample":
        registry = load_registry(fixture_path("registry.json"))
        dataset = load_dataset(fixture_path("sample_dataset.jsonl"), registry)
    elif name == "synth":
        dataset, _ = make_synthetic_benchmark(
            SyntheticSpec.from_file(fixture_path("synthetic_spec.json")))
    else:
        return LONG_NON_ASCII
    return [row.query.text for row in dataset.rows]


# sha256 of the CSR arrays' bytes at the default config; any change to
# hashing, bucketing, ordering, normalization or index dtype shows here.
GOLDEN_DIGESTS = {
    "sample": {
        "indptr": "bd652978eb31b97c64278456c4de824bea98bf6a37252ca98e8b1bb528ffdb3c",
        "indices": "8e2c47f5e636bae0bc058bab0d0a184f075c7fae873ed2c61092fc690fc9ba9f",
        "data": "39bdd96ddb218df400a54bac9c16c963fb207a94dfaa19c64bc04fd2aa372ea4",
    },
    "synth": {
        "indptr": "79e69962d2e92c444e0c3b6302b3f6ad5c698e0e69a97fb569431205fb95fafb",
        "indices": "10d25ade80f8ba9e85e6de54de7367ff4146a9654278968b6833dd81004c557f",
        "data": "656a15840cae75e55d8831f4d728878cedc809f358fa6126b62203260a1d43b3",
    },
    "long": {
        "indptr": "7b4ba5de9e27fce371641c4f99d62e1ec2de444c85e30e47533249a134612c21",
        "indices": "31d38dd69b064f7c48b62f1210c70d43609eee7764c9bc8038e3cd52e69a869c",
        "data": "342c223973044b4e4339eecfde426968825194cc1059c25bd572a3a97a6c03e1",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_featurize_matrix_golden_digests(name):
    m = featurize_matrix(FeaturizerConfig(), _golden_texts(name))
    digests = {
        part: hashlib.sha256(np.ascontiguousarray(getattr(m, part)).tobytes()).hexdigest()
        for part in ("indptr", "indices", "data")
    }
    assert digests == GOLDEN_DIGESTS[name]


def test_featurize_matrix_hands_scipy_the_index_dtype_it_stores(monkeypatch):
    # scipy keeps int32 indices when the shape and nnz fit, int64 otherwise;
    # given that dtype up front it has nothing to check or convert.
    seen = []
    real = features.sparse.csr_matrix

    def spy(arg1, shape=None, **kwargs):
        _, indices, indptr = arg1
        seen.append((indices.dtype, indptr.dtype))
        return real(arg1, shape=shape, **kwargs)

    monkeypatch.setattr(features.sparse, "csr_matrix", spy)
    narrow = featurize_matrix(FeaturizerConfig(), ["route this query", ""])
    wide = featurize_matrix(FeaturizerConfig(dimension=2 ** 32), ["route this query"])
    assert seen == [(np.int32, np.int32), (np.int64, np.int64)]
    assert (narrow.indices.dtype, narrow.indptr.dtype) == (np.int32, np.int32)
    assert (wide.indices.dtype, wide.indptr.dtype) == (np.int64, np.int64)


# Pieces of generated text: ASCII, 2-, 3- and 4-byte code points (emoji
# among them), Unicode whitespace that str.split() breaks on, and characters
# whose lowercase has another length in code points or in UTF-8 bytes.
PIECES = [
    *"abcxyz019 .,-#",
    "é", "ß", "ñ", "Ω", "Ж", "ą",
    "日", "本", "€", "ﬁ", "한",
    "🙂", "😀", "🎉", "𝔘", "👩‍💻",
    "\u00a0", "\u2003", "\u3000", "\t", "\n", "\r\n", "\x0b", "\x1c", "\x85",
    "İ", "Ⱥ", "\u212a", "\u2126", "ẞ", "Σ",
    "word", "Word ", " the ", "c#", "  ",
]


def _generated_texts(seed: int, count: int) -> list[str]:
    rng = np.random.default_rng(seed)
    texts = []
    for _ in range(count):
        # a quarter of the texts are shorter than most orders (0-3 pieces)
        size = int(rng.integers(0, 4) if rng.random() < 0.25 else rng.integers(4, 60))
        texts.append("".join(PIECES[i] for i in rng.integers(0, len(PIECES), size)))
    return texts


@pytest.mark.parametrize("config", [
    FeaturizerConfig(),
    FeaturizerConfig(dimension=256, word_ngram_range=(2, 3), char_ngram_range=(1, 6)),
    FeaturizerConfig(dimension=2 ** 12, lowercase=False),
    FeaturizerConfig(dimension=2 ** 32),
    FeaturizerConfig(dimension=512, word_ngram_range=(3, 4), char_ngram_range=(6, 8)),
], ids=["default", "word23-char16-d256", "keep-case", "d2**32", "high-orders"])
def test_featurize_matrix_equals_reference_bytewise_on_generated_text(config):
    texts = _generated_texts(seed=20231018, count=300)
    got = featurize_matrix(config, texts)
    want = reference_featurize_matrix(config, texts)
    assert got.shape == want.shape
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype, part
        assert a.tobytes() == b.tobytes(), part
