import numpy as np

from rewardroute import decontaminate, find_contaminated, text_ngrams, tokenize

from conftest import make_dataset


def brute_force_overlap(text: str, benchmarks: list[str], n: int) -> bool:
    """Independent reimplementation: compare all n-token windows as lists."""
    def windows(t):
        toks = tokenize(t)
        return [toks[i:i + n] for i in range(len(toks) - n + 1)]

    bench = [w for b in benchmarks for w in windows(b)]
    return any(w in bench for w in windows(text))


def test_tokenize_lowercases_and_strips_edge_punctuation():
    assert tokenize("Hello, World!") == ["hello", "world"]
    assert tokenize("'quoted' (parenthetical).") == ["quoted", "parenthetical"]


def test_tokenize_keeps_interior_punctuation():
    assert tokenize("don't können 3.14") == ["don't", "können", "3.14"]


def test_tokenize_splits_on_unicode_whitespace():
    assert tokenize("a b c\nd") == ["a", "b", "c", "d"]


def test_text_ngrams_short_text_has_none():
    assert text_ngrams("one two three four five") == set()


def test_text_ngrams_example():
    grams = text_ngrams("a b c d e f g")
    assert grams == {("a", "b", "c", "d", "e", "f"), ("b", "c", "d", "e", "f", "g")}


def test_exact_six_gram_overlap_is_flagged():
    ds = make_dataset([
        ("q1", "please solve one two three four five six for me", (), [1, 2, 3]),
        ("q2", "a completely different question about gardening today", (), [1, 2, 3]),
    ])
    hits = find_contaminated(ds, ["benchmark says one two three four five six"])
    assert [qid for qid, _ in hits] == ["q1"]
    assert hits[0][1] == ("one", "two", "three", "four", "five", "six")


def test_five_token_overlap_is_not_flagged():
    ds = make_dataset([
        ("q1", "shared one two three four five but then diverges", (), [1, 2, 3]),
    ])
    hits = find_contaminated(ds, ["prefix one two three four five suffix"])
    assert hits == []


def test_punctuation_and_case_do_not_hide_overlap():
    ds = make_dataset([
        ("q1", "Alpha, Bravo; CHARLIE delta echo foxtrot!", (), [1, 2, 3]),
    ])
    hits = find_contaminated(ds, ["alpha bravo charlie delta echo foxtrot"])
    assert [qid for qid, _ in hits] == ["q1"]


def test_no_benchmarks_removes_nothing():
    ds = make_dataset([("q1", "one two three four five six", (), [1, 2, 3])])
    kept, hits = decontaminate(ds, [])
    assert hits == []
    assert len(kept) == 1


def test_decontaminate_partitions_dataset():
    ds = make_dataset([
        ("q1", "copy of the benchmark one two three four five six", (), [1, 2, 3]),
        ("q2", "unrelated text about cooking pasta slowly tonight", (), [1, 2, 3]),
    ])
    kept, hits = decontaminate(ds, ["one two three four five six"])
    assert hits == [("q1", ("one", "two", "three", "four", "five", "six"))]
    assert [r.query.id for r in kept.rows] == ["q2"]
    assert kept.registry is ds.registry


def test_matches_brute_force_on_random_streams():
    """Property: flags exactly the rows a window-by-window scan flags."""
    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(12)]
    benchmarks = [
        " ".join(rng.choice(vocab, size=rng.integers(6, 14)))
        for _ in range(5)
    ]
    rows = []
    for i in range(120):
        words = list(rng.choice(vocab, size=int(rng.integers(3, 15))))
        if i % 4 == 0:  # plant a verbatim benchmark window in some rows
            b = tokenize(benchmarks[int(rng.integers(0, len(benchmarks)))])
            start = int(rng.integers(0, max(1, len(b) - 6 + 1)))
            insert_at = int(rng.integers(0, len(words) + 1))
            words[insert_at:insert_at] = b[start:start + 6]
        rows.append((f"q{i}", " ".join(words), (), [1.0, 2.0, 3.0]))
    ds = make_dataset(rows)

    flagged = {qid for qid, _ in find_contaminated(ds, benchmarks)}
    expected = {
        row.query.id
        for row in ds.rows
        if brute_force_overlap(row.query.text, benchmarks, 6)
    }
    assert flagged == expected
    assert expected, "protocol error: no contaminated rows were planted"
