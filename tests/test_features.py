import hashlib
import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from rewardroute import (
    FeaturizerConfig,
    ModelRegistry,
    SyntheticSpec,
    featurize,
    featurize_matrix,
    forward,
    init_router,
    load_dataset,
    load_registry,
    make_synthetic_benchmark,
    route,
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
    """The documented recipe one gram at a time: the reference featurize_matrix must equal.

    The recipe is written out here, not read from rewardroute.features: a
    non-blank text is lowercased, then split into word 1-2-grams and
    char 3-5-grams.
    """
    indptr, cols, data = [0], [], []
    for text in texts:
        counts: dict[int, float] = {}
        if text.strip():
            for gram in extract_ngrams(text.lower(), (1, 2), (3, 5)):
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


def test_featurize_indices_sorted_unique_in_range():
    config = FeaturizerConfig(dimension=256)  # tiny dimension forces collisions
    vec = featurize(config, "pack many n-grams into a very small table indeed")
    assert np.all(np.diff(vec.indices) > 0)
    assert vec.indices.min() >= 0
    assert vec.indices.max() < 256
    assert np.all(vec.data > 0)


def test_repeated_gram_counts_accumulate():
    config = FeaturizerConfig(dimension=2 ** 16)
    text = "dog dog cat"
    vec = featurize(config, text)
    # the word "dog" and the char grams "dog", "og " and "dog " occur twice;
    # the 21 other grams once, each in a bucket of its own at this dimension
    counts = np.array([2.0] * 4 + [1.0] * 21)
    assert sorted(Counter(extract_ngrams(text, (1, 2), (3, 5))).values()) == sorted(counts)
    assert vec.nnz == counts.size
    np.testing.assert_allclose(np.sort(vec.data), np.sort(counts / np.linalg.norm(counts)),
                               atol=1e-12)
    _assert_same_bytes(vec, reference_featurize_matrix(config, [text]))


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
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        FeaturizerConfig(**kwargs)


def test_config_dict_round_trip():
    config = FeaturizerConfig(dimension=4096)
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
    real = sparse.csr_matrix

    def spy(arg1, shape=None, **kwargs):
        _, indices, indptr = arg1
        seen.append((indices.dtype, indptr.dtype))
        return real(arg1, shape=shape, **kwargs)

    monkeypatch.setattr(sparse, "csr_matrix", spy)
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
    FeaturizerConfig(dimension=256),
    FeaturizerConfig(dimension=2 ** 12),
    FeaturizerConfig(dimension=2 ** 32),
    FeaturizerConfig(dimension=509),
], ids=["default", "d256", "d2**12", "d2**32", "d509"])
def test_featurize_matrix_equals_reference_bytewise_on_generated_text(config):
    texts = _generated_texts(seed=20231018, count=300)
    got = featurize_matrix(config, texts)
    want = reference_featurize_matrix(config, texts)
    assert got.shape == want.shape
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype, part
        assert a.tobytes() == b.tobytes(), part


# Pieces that str.split() never breaks, so a run of them is one word.
WORD_PIECES = [p for p in PIECES if p.split() == [p]]
BLANKS = ["", "   ", "\n\t", "　 "]


def _long_word_batch(seed: int) -> list[str]:
    """Texts holding several-kB words, among short texts and blank rows."""
    rng = np.random.default_rng(seed)
    texts = []
    for i, short in enumerate(_generated_texts(seed, 12)):
        size = int(rng.integers(1000, 3000))  # pieces: 2-6 kB of UTF-8
        word = "".join(WORD_PIECES[j] for j in rng.integers(0, len(WORD_PIECES), size))
        texts += [short, f"x {word} y", BLANKS[i % len(BLANKS)], word]
    return texts


def _spy_on_chunks(monkeypatch) -> list[list[str]]:
    """The texts of every chunk featurize_matrix hashes from now on ("" when blank)."""
    chunks = []
    real = features._hash_chunk

    def spy(config, texts, utf8):
        chunks.append(texts)
        return real(config, texts, utf8)

    monkeypatch.setattr(features, "_hash_chunk", spy)
    return chunks


def _assert_same_bytes(got, want):
    assert got.shape == want.shape
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype, part
        assert a.tobytes() == b.tobytes(), part


BATCH_CONFIGS = [
    FeaturizerConfig(),
    FeaturizerConfig(dimension=1009),
    FeaturizerConfig(dimension=3 * 2 ** 20),
]
BATCH_IDS = ["default", "d1009", "d3*2**20"]


@pytest.mark.parametrize("config", BATCH_CONFIGS, ids=BATCH_IDS)
def test_several_kb_words_across_chunks_equal_reference_bytewise(config, monkeypatch):
    texts = _long_word_batch(seed=7)
    chunks = _spy_on_chunks(monkeypatch)
    got = featurize_matrix(config, texts)
    assert len(chunks) >= 2
    _assert_same_bytes(got, reference_featurize_matrix(config, texts))


@pytest.mark.parametrize("config", BATCH_CONFIGS, ids=BATCH_IDS)
def test_blank_rows_between_texts_and_on_chunk_boundaries(config, monkeypatch):
    rng = np.random.default_rng(5)
    texts = []
    for i, text in enumerate(_generated_texts(seed=11, count=200)):
        texts += [text] + [BLANKS[j] for j in rng.integers(0, len(BLANKS), i % 3)]
    texts += ["x" * 48] + BLANKS  # the last chunk holds blank rows only
    monkeypatch.setattr(features, "_CHUNK_BYTES", 48)
    chunks = _spy_on_chunks(monkeypatch)
    got = featurize_matrix(config, texts)
    assert any(chunk[0] == "" for chunk in chunks[1:])
    assert chunks[-1] == [""] * len(BLANKS)
    _assert_same_bytes(got, reference_featurize_matrix(config, texts))


def test_chunks_cover_every_row_once():
    assert list(features._chunks([])) == [(0, 0)]
    assert list(features._chunks([0, 0, 0])) == [(0, 3)]
    big = features._CHUNK_BYTES
    assert list(features._chunks([big, 0, 1, big - 1, 5])) == [(0, 1), (1, 4), (4, 5)]


def test_rows_do_not_depend_on_their_batch():
    config = FeaturizerConfig()
    texts = _generated_texts(seed=3, count=120) + _long_word_batch(seed=3)
    batch = featurize_matrix(config, texts)
    for i, text in enumerate(texts):
        one = featurize_matrix(config, [text])
        lo, hi = batch.indptr[i], batch.indptr[i + 1]
        assert batch.indices[lo:hi].tobytes() == one.indices.tobytes(), i
        assert batch.data[lo:hi].tobytes() == one.data.tobytes(), i


def test_extend_finishes_a_few_long_runs_in_python_ints():
    rng = np.random.default_rng(2)
    # 20 short runs and, longest first once sorted, 11 long ones: passes
    # step 11, then 10 and 9 of them, and the last 8 finish in the tail.
    widths = np.concatenate([rng.integers(1, 6, 20),
                             [3000, 2500, 2200, 1800, 1500, 900, 640, 300, 200, 120, 80]])
    rng.shuffle(widths)
    data = rng.integers(0, 256, int(widths.sum()), dtype=np.uint8)
    first = np.concatenate(([0], np.cumsum(widths)[:-1]))
    runs = features._Runs(data, first, widths)
    assert len(runs.tails) == 8 and all(runs.tails)
    assert runs.steps[-1].size == 9 and {11, 10, 9} <= {step.size for step in runs.steps}
    start = np.full(widths.size, FNV_OFFSET, dtype=np.uint64)
    got = runs.extend(start)
    runs_bytes = [bytes(data[f:f + w].tolist()) for f, w in zip(first, widths)]
    assert got.tolist() == [reference_fnv1a(b) for b in runs_bytes]
    # The layout is built once and only read: a second extend continues
    # every state over its run again.
    assert runs.extend(got).tolist() == [reference_fnv1a(b + b) for b in runs_bytes]


def test_row_norm_is_bitwise_numpys_norm():
    # Each row is divided by math.sqrt(w.dot(w)), numpy's own 1-D float64
    # norm: the same bits on rows of 1 to 6000 entries, counts or not.
    rng = np.random.default_rng(8)
    for size in [*range(1, 300), *rng.integers(300, 6001, 150).tolist(), 6000]:
        w = rng.integers(1, 40, size).astype(np.float64)
        if size % 3 == 0:
            w *= rng.random(size)
        assert math.sqrt(w.dot(w)) == np.linalg.norm(w), size
        assert (w / math.sqrt(w.dot(w))).tobytes() == (w / np.linalg.norm(w)).tobytes(), size


def test_row_times_dimension_key_cannot_wrap():
    config = FeaturizerConfig(dimension=2 ** 62)
    texts = ["tide moon", "", "shore"]  # 3 * 2**62 keys fit in uint64
    _assert_same_bytes(featurize_matrix(config, texts), reference_featurize_matrix(config, texts))
    with pytest.raises(ValueError, match="overflow"):
        featurize_matrix(config, texts + ["one row too many"])


def test_featurizing_the_acceptance_texts_stays_in_bounded_memory():
    from test_acceptance import SIX_CLUSTERS

    dataset, _ = make_synthetic_benchmark(SyntheticSpec(
        num_models=6, clusters=SIX_CLUSTERS, queries_per_cluster=400,
        expertise_margin=0.5, noise_sigma=2.0, seed=4))
    texts = [row.query.text for row in dataset.rows]
    tracemalloc.start()
    try:
        featurize_matrix(FeaturizerConfig(), texts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The one-row-at-a-time featurizer peaked at 12 MiB here; hashing the
    # whole batch at once (no chunks) took 31 MiB.
    assert peak <= 12 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def _fixed_router():
    model = init_router(ModelRegistry(("m0", "m1", "m2", "m3")), FeaturizerConfig(), seed=5)
    return replace(model, bias=np.array([0.25, -0.5, 0.0, 0.125]))


# sha256 of forward()'s probability bytes for _fixed_router over each text
# set, recorded with the row-major weights and the fancy-index gather.
# numpy's matrix-vector product sums in the order of the BLAS kernel it
# runs, so the bits are those of one OpenBLAS kernel family (which
# OPENBLAS_CORETYPE selects); each entry holds one family's digests. A hash,
# bucket, gather or product that moves one bit of one probability matches
# no entry. np.exp in the softmax has other bits under numpy's AVX2 kernels
# than under its AVX-512 ones, as the checkpoint digests do (ROADMAP item
# 6); these are the AVX-512 kernels' digests.
_LONG_ROUTING = "d2bf73da066d23b9fdc0379a746dfc5c88bdc1f92515c55e4ea77c4b3cd5889e"
GOLDEN_ROUTING = {
    "SkylakeX, CooperLake, SapphireRapids": {
        "long": _LONG_ROUTING,
        "sample": "4e4197db1e02c8602250429ea59e963628902cb2bfbea79e0441ac980156b02b",
        "synth": "9e93747a28a9bacbf2e7f6d8546256fa6ade699981cb50e5c0c4f71bdcd417bc",
    },
    "Haswell, Zen": {
        "long": _LONG_ROUTING,
        "sample": "738dde38825f94a3f067c01876b096aa25dec81a399607cb64f7e2d733ef7d16",
        "synth": "6ac50d258f44452011600bba97ee29c86c1af38a9465c4233482a3430eb51e41",
    },
    "Sandybridge, Bulldozer to Excavator, Prescott to Dunnington, Opteron": {
        "long": _LONG_ROUTING,
        "sample": "e19fdae01ff62301170991be766204d09df571795fd2d8d2351c506f3485e004",
        "synth": "43c34ac1a2cdebb086aaf566f6bbf070a8b34a5156995d33457f38fdb1766bde",
    },
    "Nehalem, Atom, Barcelona, Bobcat": {
        "long": _LONG_ROUTING,
        "sample": "4e4197db1e02c8602250429ea59e963628902cb2bfbea79e0441ac980156b02b",
        "synth": "e8883a66083b01144f1bf5261c36ae5e1e64f3f5fdf8d697b55c32f77cc8dba7",
    },
}


def test_forward_probability_golden_digests():
    model = _fixed_router()
    digests = {}
    for name in sorted(GOLDEN_DIGESTS):
        probs = forward(model, featurize_matrix(model.featurizer_config, _golden_texts(name)))
        digests[name] = hashlib.sha256(probs.tobytes()).hexdigest()
    assert digests in GOLDEN_ROUTING.values()


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_forward_equals_the_row_major_fancy_index_gather_bitwise(name):
    # The gather as it was on row-major weights, written out here: it runs
    # through whatever BLAS kernel this machine has, as forward() does.
    model = _fixed_router()
    x = featurize_matrix(model.featurizer_config, _golden_texts(name))
    row_major = np.ascontiguousarray(model.weights)
    logits = np.array([row_major[:, x.indices[lo:hi]] @ x.data[lo:hi]
                       for lo, hi in zip(x.indptr, x.indptr[1:])])
    z = logits + model.bias
    e = np.exp(z - z.max(axis=1, keepdims=True))
    want = e / e.sum(axis=1, keepdims=True)
    assert forward(model, x).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_route_equals_forward_on_the_batch_bitwise(name):
    texts = _golden_texts(name)
    model = _fixed_router()
    probs = forward(model, featurize_matrix(model.featurizer_config, texts))
    for i, text in enumerate(texts):
        model_id, one = route(model, text)
        assert one.tobytes() == probs[i].tobytes(), i
        assert model_id == model.registry.ids[int(np.argmax(probs[i]))]
