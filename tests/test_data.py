import json

import numpy as np
import pytest

from rewardroute import (
    DataFormatError,
    DatasetRow,
    ModelRegistry,
    Query,
    RewardDataset,
    apply_tag_rules,
    load_dataset,
    load_oracle,
    load_registry,
    load_tag_rules,
    save_dataset,
    save_oracle,
    save_registry,
)

from conftest import make_dataset


def test_query_rejects_blank_text():
    with pytest.raises(DataFormatError):
        Query(id="q1", text="   ")


def test_query_rejects_empty_id():
    with pytest.raises(DataFormatError):
        Query(id="", text="hello")


def test_query_tags_are_frozen():
    q = Query(id="q1", text="hello", tags={"a", "b"})
    assert q.tags == frozenset({"a", "b"})


def test_registry_rejects_duplicate_ids():
    with pytest.raises(DataFormatError, match="duplicate"):
        ModelRegistry(("m0", "m1", "m0"))


def test_registry_rejects_empty():
    with pytest.raises(DataFormatError):
        ModelRegistry(())


def test_registry_lookup():
    reg = ModelRegistry(["a", "b", "c"])
    assert reg.ids == ("a", "b", "c")
    assert reg.index_of("b") == 1
    with pytest.raises(DataFormatError, match="unknown"):
        reg.index_of("zzz")


def test_load_registry_ignores_other_keys(tmp_path):
    path = tmp_path / "reg.json"
    path.write_text(json.dumps({"models": [
        {"model_id": "m0", "endpoint": "http://localhost:1/", "display_name": "Zero"},
        {"model_id": "m1", "endpoint": 7},
    ]}), encoding="utf-8")
    assert load_registry(path) == ModelRegistry(("m0", "m1"))


def test_dataset_row_rejects_non_finite_rewards():
    q = Query(id="q1", text="hello")
    with pytest.raises(DataFormatError, match="non-finite"):
        DatasetRow(query=q, rewards=np.array([1.0, np.nan]))


def test_dataset_rejects_length_mismatch():
    reg = ModelRegistry(["a", "b"])
    row = DatasetRow(query=Query(id="q1", text="x y"), rewards=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DataFormatError, match="length"):
        RewardDataset(registry=reg, rows=(row,))


def test_dataset_rejects_duplicate_query_ids():
    reg = ModelRegistry(["a", "b"])
    row = DatasetRow(query=Query(id="q1", text="x y"), rewards=np.array([1.0, 2.0]))
    with pytest.raises(DataFormatError, match="duplicate"):
        RewardDataset(registry=reg, rows=(row, row))


def test_reward_matrix_shape_and_order():
    ds = make_dataset([
        ("q1", "one", (), [1.0, 2.0, 3.0]),
        ("q2", "two", (), [4.0, 5.0, 6.0]),
    ])
    m = ds.reward_matrix()
    assert m.shape == (2, 3)
    assert m.dtype == np.float64
    np.testing.assert_array_equal(m[1], [4.0, 5.0, 6.0])


def test_dataset_round_trip(tmp_path):
    ds = make_dataset([
        ("q1", "find the sum", ("math",), [0.9, 0.1, 0.5]),
        ("q2", "write a poem", ("writing", "fun"), [0.2, 0.3, 0.8]),
        ("q3", "anything else", (), [0.4, 0.4, 0.4]),
    ])
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    loaded = load_dataset(path, ds.registry)
    assert len(loaded) == 3
    for a, b in zip(ds.rows, loaded.rows):
        assert a.query == b.query
        np.testing.assert_array_equal(a.rewards, b.rewards)


def test_save_dataset_is_deterministic(tmp_path):
    ds = make_dataset([("q1", "find the sum", ("b", "a"), [0.5, 0.25, 0.25])])
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_dataset_reports_line_numbers(tmp_path):
    reg = ModelRegistry(["a", "b"])
    good = json.dumps({"id": "q1", "query": "fine", "rewards": {"a": 1, "b": 2}})
    path = tmp_path / "bad.jsonl"
    path.write_text(good + "\n{not json\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 2"):
        load_dataset(path, reg)


@pytest.mark.parametrize("record, message", [
    ({"query": "x", "rewards": {"a": 1, "b": 2}}, "missing field 'id'"),
    ({"id": "q", "rewards": {"a": 1, "b": 2}}, "missing field 'query'"),
    ({"id": "q", "query": "x"}, "missing field 'rewards'"),
    ({"id": "q", "query": "x", "rewards": {"a": 1}}, "missing reward entry for model 'b'"),
    ({"id": "q", "query": "x", "rewards": {"a": 1, "b": 2, "zz": 3}}, "unregistered model"),
])
def test_load_dataset_field_validation(tmp_path, record, message):
    reg = ModelRegistry(["a", "b"])
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=message):
        load_dataset(path, reg)


def test_load_dataset_rejects_duplicate_ids(tmp_path):
    reg = ModelRegistry(["a"])
    rec = json.dumps({"id": "q1", "query": "x", "rewards": {"a": 1}})
    path = tmp_path / "dup.jsonl"
    path.write_text(rec + "\n" + rec + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="duplicate query id"):
        load_dataset(path, reg)


def test_load_dataset_rejects_empty_file(tmp_path):
    reg = ModelRegistry(["a"])
    path = tmp_path / "empty.jsonl"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="empty"):
        load_dataset(path, reg)


def test_load_dataset_missing_file_names_path(tmp_path):
    reg = ModelRegistry(["a"])
    missing = tmp_path / "nope.jsonl"
    with pytest.raises(DataFormatError, match="nope.jsonl"):
        load_dataset(missing, reg)


def test_registry_round_trip(tmp_path):
    reg = ModelRegistry(("m1", "m0"))
    path = tmp_path / "reg.json"
    save_registry(reg, path)
    assert json.loads(path.read_text(encoding="utf-8")) == {
        "models": [{"model_id": "m1"}, {"model_id": "m0"}]
    }
    assert load_registry(path) == reg


def test_load_registry_rejects_malformed(tmp_path):
    path = tmp_path / "reg.json"
    for malformed in ({"nope": []}, {"models": 5}):
        path.write_text(json.dumps(malformed), encoding="utf-8")
        with pytest.raises(DataFormatError, match="'models' list"):
            load_registry(path)


def test_oracle_round_trip(tmp_path):
    reg = ModelRegistry(["a", "b"])
    oracle = {"q1": np.array([1.0, 0.0]), "q2": np.array([0.25, 0.75])}
    path = tmp_path / "oracle.jsonl"
    save_oracle(oracle, reg, path)
    loaded = load_oracle(path, reg)
    assert set(loaded) == {"q1", "q2"}
    np.testing.assert_array_equal(loaded["q2"], [0.25, 0.75])


def test_load_oracle_requires_all_models(tmp_path):
    reg = ModelRegistry(["a", "b"])
    path = tmp_path / "oracle.jsonl"
    path.write_text(json.dumps({"id": "q1", "scores": {"a": 1.0}}) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="missing score"):
        load_oracle(path, reg)


def test_apply_tag_rules_examples():
    ds = make_dataset([
        ("q1", "compute the integral of x", (), [1, 2, 3]),
        ("q2", "an Integral POEM about code", (), [1, 2, 3]),
        ("q3", "nothing matches here", ("kept",), [1, 2, 3]),
    ])
    rules = {"math": ["integral"], "writing": ["poem"]}
    tagged = apply_tag_rules(ds, rules)
    assert tagged.rows[0].query.tags == frozenset({"math"})
    # case-insensitive, and a query can match several rules
    assert tagged.rows[1].query.tags == frozenset({"math", "writing"})
    # non-matching rows keep their existing tags
    assert tagged.rows[2].query.tags == frozenset({"kept"})


def test_apply_tag_rules_unions_with_existing():
    ds = make_dataset([("q1", "the integral", ("handmade",), [1, 2, 3])])
    tagged = apply_tag_rules(ds, {"math": ["integral"]})
    assert tagged.rows[0].query.tags == frozenset({"handmade", "math"})


def test_load_tag_rules_rejects_non_list(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"math": "integral"}), encoding="utf-8")
    with pytest.raises(DataFormatError, match="list of strings"):
        load_tag_rules(path)


def test_bundled_fixtures_load(sample_dataset, sample_registry):
    assert len(sample_dataset) == 60
    assert len(sample_registry) == 3
    tags = set()
    for row in sample_dataset.rows:
        tags |= row.query.tags
    assert tags == {"math", "code", "writing"}
