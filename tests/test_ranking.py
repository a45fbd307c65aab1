import hashlib

import numpy as np
import pytest

from rewardroute import (
    DataFormatError,
    SyntheticSpec,
    evaluate_systems,
    make_synthetic_benchmark,
    stub_response,
)
from rewardroute.ranking import synthetic_registry

from conftest import TINY_SPEC, make_dataset


def test_stub_response_format():
    text = "what is seven times eight"
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    assert stub_response("m3", text) == f"m3:{digest}"
    # same query, different model: same digest, different prefix
    assert stub_response("m0", text).split(":")[1] == digest


def test_dataset_lookup_source():
    # RMR's scores are the dataset row's recorded rewards, row by row,
    # so the pick follows the rewards stored with each query.
    ds = make_dataset([("q1", "text one", (), [0.2, 0.8, 0.1]),
                       ("q2", "text two", (), [0.7, 0.1, 0.1])])
    np.testing.assert_array_equal(ds.reward_matrix(), [[0.2, 0.8, 0.1], [0.7, 0.1, 0.1]])
    beta_then_alpha = {"q1": np.array([0.0, 1.0, 0.0]), "q2": np.array([1.0, 0.0, 0.0])}
    alpha_then_beta = {"q1": np.array([1.0, 0.0, 0.0]), "q2": np.array([0.0, 1.0, 0.0])}
    assert evaluate_systems(ds, beta_then_alpha, rmr=True).subsets[0].scores["rmr"] == 1.0
    assert evaluate_systems(ds, alpha_then_beta, rmr=True).subsets[0].scores["rmr"] == 0.0
    with pytest.raises(DataFormatError, match="registry has 3 models"):
        make_dataset([("q1", "text one", (), [0.2, 0.8])])


def test_synthetic_registry_ids():
    assert synthetic_registry(4).ids == ("m0", "m1", "m2", "m3")


def test_synthetic_benchmark_shape_and_tags():
    dataset, oracle = make_synthetic_benchmark(TINY_SPEC)
    assert len(dataset) == 3 * 20
    assert dataset.registry.ids == ("m0", "m1", "m2")
    assert set(oracle) == {row.query.id for row in dataset.rows}
    for row in dataset.rows:
        assert len(row.query.tags) == 1
        (tag,) = row.query.tags
        assert row.query.subset == tag
        words = set(row.query.text.split())
        assert words <= set(TINY_SPEC.clusters[tag])


def test_synthetic_benchmark_plants_expertise():
    dataset, oracle = make_synthetic_benchmark(TINY_SPEC)
    cluster_order = list(TINY_SPEC.clusters)
    for row in dataset.rows:
        (tag,) = row.query.tags
        expert = cluster_order.index(tag)
        scores = oracle[row.query.id]
        assert int(np.argmax(scores)) == expert
        assert scores[expert] == TINY_SPEC.expertise_margin
        others = np.delete(scores, expert)
        np.testing.assert_array_equal(others, np.zeros(len(others)))


def test_synthetic_benchmark_is_deterministic():
    a_ds, a_or = make_synthetic_benchmark(TINY_SPEC)
    b_ds, b_or = make_synthetic_benchmark(TINY_SPEC)
    assert [r.query.text for r in a_ds.rows] == [r.query.text for r in b_ds.rows]
    np.testing.assert_array_equal(a_ds.reward_matrix(), b_ds.reward_matrix())
    for qid in a_or:
        np.testing.assert_array_equal(a_or[qid], b_or[qid])


def test_synthetic_benchmark_observed_equals_true_at_sigma_zero():
    spec = SyntheticSpec(
        num_models=2,
        clusters={"x": ["ash", "oak"], "y": ["fir", "elm"]},
        queries_per_cluster=5,
        expertise_margin=1.0,
        noise_sigma=0.0,
        seed=0,
    )
    dataset, oracle = make_synthetic_benchmark(spec)
    for row in dataset.rows:
        np.testing.assert_array_equal(row.rewards, oracle[row.query.id])


def test_synthetic_spec_validation():
    good = dict(
        num_models=2,
        clusters={"x": ["ash"], "y": ["fir"]},
        queries_per_cluster=5,
        expertise_margin=1.0,
        noise_sigma=0.1,
        seed=0,
    )
    with pytest.raises(ValueError):
        SyntheticSpec(**{**good, "num_models": 1})
    with pytest.raises(ValueError):
        SyntheticSpec(**{**good, "queries_per_cluster": 0})
    with pytest.raises(ValueError):
        SyntheticSpec(**{**good, "expertise_margin": 0.0})
    with pytest.raises(ValueError):
        SyntheticSpec(**{**good, "noise_sigma": -0.1})
    with pytest.raises(ValueError):
        SyntheticSpec(**{**good, "clusters": {"x": []}})
    with pytest.raises(ValueError, match="clusters"):
        SyntheticSpec(**{**good, "num_models": 3})


def test_synthetic_spec_rejects_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        SyntheticSpec(num_models=2, clusters={"x": ["ash"], "y": ["fir"]},
                      queries_per_cluster=5, expertise_margin=1.0, noise_sigma=0.1, seed=-1)


def test_synthetic_spec_explicit_expertise_map():
    spec = SyntheticSpec(
        num_models=3,
        clusters={"x": ["ash", "oak"]},
        queries_per_cluster=4,
        expertise_margin=1.0,
        noise_sigma=0.0,
        seed=0,
        expertise={"x": "m2"},
    )
    dataset, oracle = make_synthetic_benchmark(spec)
    for row in dataset.rows:
        assert int(np.argmax(oracle[row.query.id])) == 2


def test_synthetic_spec_from_file_errors(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text("{broken", encoding="utf-8")
    with pytest.raises(DataFormatError, match="not valid JSON"):
        SyntheticSpec.from_file(path)
    path.write_text('{"num_models": 2}', encoding="utf-8")
    with pytest.raises(DataFormatError, match="malformed"):
        SyntheticSpec.from_file(path)


def test_bundled_synthetic_spec_loads():
    from rewardroute.fixtures import fixture_path

    spec = SyntheticSpec.from_file(fixture_path("synthetic_spec.json"))
    assert spec.num_models == 6
    assert len(spec.clusters) == 6
    assert spec.queries_per_cluster == 200
    assert (spec.expertise, spec.words_per_query) == (None, (6, 12))  # unset: the defaults
