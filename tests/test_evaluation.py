from dataclasses import replace

import numpy as np
import pytest

from rewardroute import (
    DataFormatError,
    DivergenceError,
    DatasetRow,
    ModelRegistry,
    Query,
    RewardDataset,
    SyntheticSpec,
    aggregate_tag_rewards,
    beta_ablation,
    entropy_quality_analysis,
    evaluate_systems,
    featurize_matrix,
    holdout_split,
    init_router,
    make_synthetic_benchmark,
    route,
    routing_accuracy,
    train,
)
from rewardroute.evaluation import (
    SubsetScores,
    build_eval_report,
    mean_task_rank,
    subset_ranks,
    uplift_rate,
)
from rewardroute.features import FeaturizerConfig
from rewardroute.router import TrainConfig

from conftest import TINY_SPEC, make_dataset


def sort_based_ranks(scores: dict[str, float]) -> dict[str, int]:
    """Independent oracle: rank = position of the first equal score when sorted."""
    ordered = sorted(scores.values(), reverse=True)
    return {s: ordered.index(v) + 1 for s, v in scores.items()}


def test_subset_ranks_hand_example():
    subset = SubsetScores("s", {"a": 0.9, "b": 0.7, "c": 0.7, "d": 0.1})
    assert subset_ranks(subset) == {"a": 1, "b": 2, "c": 2, "d": 4}


def test_all_tied_scores_share_rank_one():
    subset = SubsetScores("s", {"a": 0.5, "b": 0.5, "c": 0.5})
    assert subset_ranks(subset) == {"a": 1, "b": 1, "c": 1}


def test_mean_task_rank_hand_example():
    subsets = [
        SubsetScores("s1", {"a": 0.9, "b": 0.1}),   # a:1 b:2
        SubsetScores("s2", {"a": 0.2, "b": 0.8}),   # a:2 b:1
        SubsetScores("s3", {"a": 0.5, "b": 0.5}),   # a:1 b:1
    ]
    assert mean_task_rank(subsets, "a") == pytest.approx(4 / 3)
    assert mean_task_rank(subsets, "b") == pytest.approx(4 / 3)


def test_uplift_rate_counts_top_ties():
    subsets = [
        SubsetScores("s1", {"a": 0.9, "b": 0.1}),
        SubsetScores("s2", {"a": 0.2, "b": 0.8}),
        SubsetScores("s3", {"a": 0.5, "b": 0.5}),
    ]
    assert uplift_rate(subsets, "a") == pytest.approx(2 / 3)
    assert uplift_rate(subsets, "b") == pytest.approx(2 / 3)


def test_metrics_require_full_system_coverage():
    subsets = [SubsetScores("s1", {"a": 1.0}), SubsetScores("s2", {"b": 1.0})]
    with pytest.raises(DataFormatError, match="missing from subset"):
        mean_task_rank(subsets, "a")
    with pytest.raises(DataFormatError, match="missing from subset"):
        uplift_rate(subsets, "a")


def test_ranks_match_sort_based_oracle_on_random_tables():
    rng = np.random.default_rng(23)
    systems = ["s0", "s1", "s2", "s3", "s4"]
    for _ in range(200):
        # quantized scores so ties actually occur
        values = np.round(rng.uniform(0, 1, size=len(systems)), 1)
        subset = SubsetScores("x", dict(zip(systems, values)))
        assert subset_ranks(subset) == sort_based_ranks(subset.scores)


def test_report_aggregates_match_direct_metric_calls():
    rng = np.random.default_rng(29)
    systems = ["s0", "s1", "s2"]
    subsets = [
        SubsetScores(f"sub{i}", dict(zip(systems, np.round(rng.uniform(0, 1, 3), 1))))
        for i in range(10)
    ]
    report = build_eval_report(subsets)
    for s in systems:
        assert report.mtr[s] == pytest.approx(mean_task_rank(subsets, s))
        assert report.uplift[s] == pytest.approx(uplift_rate(subsets, s))
    assert set(report.rank_table) == {f"sub{i}" for i in range(10)}
    records = report.to_records()
    assert {r["system"] for r in records} == set(systems)
    assert "system" in report.render_table()


def test_oracle_system_always_ranks_first(tiny_benchmark):
    dataset, oracle = tiny_benchmark
    report = evaluate_systems(dataset, oracle, rmr=True)
    assert report.mtr["oracle"] == 1.0
    assert report.uplift["oracle"] == 1.0


def test_single_model_scores_are_oracle_shares(tiny_benchmark):
    dataset, oracle = tiny_benchmark
    report = evaluate_systems(dataset, oracle)
    for subset in report.subsets:
        shares = [subset.scores[f"single:{m}"] for m in dataset.registry.ids]
        assert sum(shares) == pytest.approx(1.0)


def test_router_system_appears_when_model_given(tiny_benchmark, tiny_model):
    dataset, oracle = tiny_benchmark
    report = evaluate_systems(dataset, oracle, model=tiny_model)
    assert "router" in report.mtr
    assert "rmr" not in report.mtr


@pytest.mark.parametrize("trained", [True, False], ids=["trained", "untrained"])
def test_subset_scores_match_a_brute_force_count(tiny_benchmark, tiny_model, trained):
    dataset, oracle = tiny_benchmark
    ids = dataset.registry.ids
    # The trained router is right on every row; the untrained one is not.
    model = tiny_model if trained else init_router(dataset.registry, seed=5)
    systems = ["oracle", *(f"single:{m}" for m in ids), "router", "rmr"]
    hits, sizes = {}, {}
    for row in dataset.rows:
        best = ids[int(np.argmax(oracle[row.query.id]))]
        picks = [best, *ids, route(model, row.query.text)[0],
                 ids[int(np.argmax(row.rewards))]]
        name = row.query.subset
        sizes[name] = sizes.get(name, 0) + 1
        counts = hits.setdefault(name, dict.fromkeys(systems, 0))
        for system, pick in zip(systems, picks):
            counts[system] += pick == best
    expected = []
    for name in sorted(hits):
        scores = {system: hits[name][system] / sizes[name] for system in systems}
        expected.append(SubsetScores(name, scores))

    report = evaluate_systems(dataset, oracle, model=model, rmr=True)
    assert report.subsets == expected
    assert [list(subset.scores) for subset in report.subsets] == [systems] * len(expected)


def test_router_picks_are_read_through_its_own_registry(tiny_benchmark, tiny_model):
    # A dataset may list the router's models in another order than its checkpoint.
    dataset, oracle = tiny_benchmark
    flipped = RewardDataset(ModelRegistry(dataset.registry.ids[::-1]),
                            [replace(row, rewards=row.rewards[::-1]) for row in dataset.rows])
    flipped_oracle = {qid: scores[::-1] for qid, scores in oracle.items()}

    def router_scores(ds, truth):
        return [sub.scores["router"] for sub in evaluate_systems(ds, truth, tiny_model).subsets]

    assert router_scores(flipped, flipped_oracle) == router_scores(dataset, oracle)


def _one_row_subsets(rows):
    """Dataset with each (rewards, oracle) row in a subset of its own."""
    registry = ModelRegistry(["a", "b", "c"])
    built, oracle = [], {}
    for i, (rewards, truth) in enumerate(rows):
        query = Query(id=f"q{i}", text=f"query {i}", subset=f"s{i}")
        built.append(DatasetRow(query=query, rewards=np.asarray(rewards, dtype=np.float64)))
        oracle[query.id] = np.asarray(truth, dtype=np.float64)
    return RewardDataset(registry=registry, rows=tuple(built)), oracle


def _rmr_scores(report):
    return [sub.scores["rmr"] for sub in report.subsets]


def test_rmr_is_argmax_of_recorded_rewards():
    dataset, oracle = _one_row_subsets([
        ([0.1, 0.9, 0.3], [0, 1, 0]),   # picks b: right
        ([0.8, 0.1, 0.2], [0, 0, 1]),   # picks a: wrong
        ([0.2, 0.1, 0.7], [0, 0, 1]),   # picks c: right
    ])
    assert _rmr_scores(evaluate_systems(dataset, oracle, rmr=True)) == [1.0, 0.0, 1.0]


def test_rmr_ties_go_to_lowest_index():
    dataset, oracle = _one_row_subsets([
        ([0.5, 0.5, 0.1], [1, 0, 0]),   # a and b tie: a
        ([0.2, 0.7, 0.7], [0, 1, 0]),   # b and c tie: b
        ([0.4, 0.4, 0.0], [0, 1, 0]),   # a and b tie: a, though b is right
        ([0.3, 0.3, 0.3], [1, 0, 0]),   # all tie: a
    ])
    assert _rmr_scores(evaluate_systems(dataset, oracle, rmr=True)) == [1.0, 1.0, 0.0, 1.0]


def test_routing_accuracy_bounds(tiny_benchmark, tiny_model):
    dataset, oracle = tiny_benchmark
    acc = routing_accuracy(tiny_model, dataset, oracle)
    assert 0.0 <= acc <= 1.0
    assert acc > 1 / 3  # the trained router must beat random choice here


def test_routing_accuracy_needs_oracle_entries(tiny_model):
    ds = make_dataset([("qz", "tide moon", (), [1, 0, 0])], model_ids=("m0", "m1", "m2"))
    with pytest.raises(DataFormatError, match="oracle has no entry"):
        routing_accuracy(tiny_model, ds, {})


def test_holdout_split_partitions_and_is_stable(tiny_benchmark):
    dataset, _ = tiny_benchmark
    train_a, eval_a = holdout_split(dataset)
    train_b, eval_b = holdout_split(dataset)
    ids = lambda d: [r.query.id for r in d.rows]
    assert ids(train_a) == ids(train_b)
    assert ids(eval_a) == ids(eval_b)
    assert set(ids(train_a)).isdisjoint(ids(eval_a))
    assert len(train_a) + len(eval_a) == len(dataset)
    assert 0 < len(eval_a) < len(dataset)


def test_holdout_split_ratio_tracks_eval_percent():
    spec = SyntheticSpec(
        num_models=2,
        clusters={"x": ["ash", "oak"], "y": ["fir", "elm"]},
        queries_per_cluster=1000,
        expertise_margin=1.0,
        noise_sigma=0.0,
        seed=1,
    )
    dataset, _ = make_synthetic_benchmark(spec)
    _, held = holdout_split(dataset, eval_percent=20)
    assert 0.15 < len(held) / len(dataset) < 0.25


@pytest.mark.parametrize("bad", [0, 100, -5])
def test_holdout_split_validates_percent(bad, tiny_benchmark):
    dataset, _ = tiny_benchmark
    with pytest.raises(ValueError):
        holdout_split(dataset, eval_percent=bad)


def test_beta_ablation_shape_and_determinism():
    betas = [0.0, 0.5, 1.0]
    config = TrainConfig(epochs=3, seed=2)
    a = beta_ablation(TINY_SPEC, betas, config)
    b = beta_ablation(TINY_SPEC, betas, config)
    assert a.betas == betas
    assert len(a.accuracies) == 3
    assert a.accuracies == b.accuracies
    assert a.train_rows + a.eval_rows == 60
    assert a.as_table() == list(zip(betas, a.accuracies))
    assert [r["beta"] for r in a.to_records()] == betas


def test_beta_ablation_featurizes_each_split_once(monkeypatch):
    import rewardroute.evaluation as evaluation
    import rewardroute.router as router

    calls = []

    def counting(config, texts):
        calls.append(len(texts))
        return featurize_matrix(config, texts)

    monkeypatch.setattr(router, "featurize_matrix", counting)
    monkeypatch.setattr(evaluation, "featurize_matrix", counting, raising=False)
    betas = [0.0, 0.5, 1.0]
    config = TrainConfig(epochs=2, seed=2)
    result = beta_ablation(TINY_SPEC, betas, config)
    assert calls == [result.train_rows, result.eval_rows]
    monkeypatch.undo()

    # the shared featurization gives the same table as training each beta alone
    dataset, oracle = make_synthetic_benchmark(TINY_SPEC)
    train_ds, eval_ds = holdout_split(dataset)
    table = aggregate_tag_rewards(train_ds)
    expected = []
    for b in betas:
        model = init_router(dataset.registry, seed=config.seed)
        trained, _ = train(model, train_ds, table, TrainConfig(epochs=2, seed=2, beta=b))
        expected.append(routing_accuracy(trained, eval_ds, oracle))
    assert result.accuracies == expected


def test_default_beta_ablation_replays_no_unread_column(monkeypatch):
    import rewardroute.router as router

    replayed = []

    def spy(block, steps_per_epoch, config):
        replayed.append(block.shape[1])
        return decay(block, steps_per_epoch, config)

    decay = router._decay
    monkeypatch.setattr(router, "_decay", spy)
    beta_ablation(TINY_SPEC, [0.0, 1.0], TrainConfig(epochs=2, seed=2))
    assert replayed == []
    # train() writes every column, so it replays the ones no row touches
    dataset, _ = make_synthetic_benchmark(TINY_SPEC)
    train(init_router(dataset.registry, seed=2), dataset, aggregate_tag_rewards(dataset),
          TrainConfig(epochs=2, seed=2))
    assert len(replayed) == 1 and replayed[0] > 60000


def test_beta_ablation_stops_where_unread_columns_diverge(monkeypatch):
    # lr * l2 = 3: each L2 step doubles a weight's size. The columns neither
    # split touches start near 1e300 and overflow long before the others, so
    # the run must stop at the epoch where they do, although nothing reads them.
    import rewardroute.evaluation as evaluation

    dataset, oracle = make_synthetic_benchmark(TINY_SPEC)
    x = featurize_matrix(FeaturizerConfig(), [r.query.text for r in dataset.rows])
    unread = np.setdiff1d(np.arange(FeaturizerConfig().dimension), x.indices)

    def scaled_init(registry, featurizer_config=None, seed=0):
        model = init_router(registry, featurizer_config, seed)
        weights = model.weights.copy()
        weights[:, unread] *= 1e302
        return replace(model, weights=weights)

    config = TrainConfig(learning_rate=0.1, l2_penalty=30, epochs=40, batch_size=16, seed=2)
    betas = [0.0, 0.5, 1.0]
    train_ds, _ = holdout_split(dataset)
    table = aggregate_tag_rewards(train_ds)
    with pytest.raises(DivergenceError) as expected:  # each beta alone, in order
        for b in betas:
            train(scaled_init(dataset.registry, seed=2), train_ds, table, replace(config, beta=b))
    monkeypatch.setattr(evaluation, "init_router", scaled_init)
    with pytest.raises(DivergenceError) as got:
        beta_ablation(TINY_SPEC, betas, config)
    assert got.value.last_finite_loss == expected.value.last_finite_loss
    assert str(got.value) == str(expected.value)
    assert "non-finite weight" in str(got.value)
    # Four mini-batches an epoch: a weight near 1e300 has doubled 22 times when
    # the 23rd step's l2 * w overflows, in the sixth epoch.
    epochs_before = replace(config, beta=betas[0], epochs=5)
    _, report = train(scaled_init(dataset.registry, seed=2), train_ds, table, epochs_before)
    assert report.final_loss == got.value.last_finite_loss
    with pytest.raises(DivergenceError):
        beta_ablation(TINY_SPEC, betas, replace(config, epochs=6))
    beta_ablation(TINY_SPEC, betas, epochs_before)


def test_beta_ablation_rejects_out_of_range():
    with pytest.raises(ValueError, match="beta"):
        beta_ablation(TINY_SPEC, [0.0, 1.2], TrainConfig(epochs=1))


def test_entropy_analysis_negative_on_noisy_planted_benchmark():
    spec = SyntheticSpec(
        num_models=3,
        clusters={
            "a": ["ash", "oak", "fir"],
            "b": ["tin", "ore", "zinc"],
            "c": ["rye", "oat", "corn"],
        },
        queries_per_cluster=150,
        expertise_margin=1.0,
        noise_sigma=1.0,
        seed=13,
    )
    dataset, oracle = make_synthetic_benchmark(spec)
    analysis = entropy_quality_analysis(dataset, oracle)
    assert not analysis.degenerate
    assert analysis.correlation < 0
    assert len(analysis.pairs) == len(dataset)
    assert all({"entropy", "rmr_correct"} <= set(r) for r in analysis.to_records())


def test_entropy_analysis_degenerate_when_noiseless():
    spec = SyntheticSpec(
        num_models=2,
        clusters={"x": ["ash", "oak"], "y": ["fir", "elm"]},
        queries_per_cluster=10,
        expertise_margin=1.0,
        noise_sigma=0.0,
        seed=3,
    )
    dataset, oracle = make_synthetic_benchmark(spec)
    analysis = entropy_quality_analysis(dataset, oracle)
    assert analysis.degenerate
    assert analysis.correlation is None


def test_entropy_analysis_rejects_an_empty_dataset():
    dataset = RewardDataset(registry=ModelRegistry(("m0", "m1")), rows=())
    with pytest.raises(ValueError, match="cannot evaluate on an empty dataset"):
        entropy_quality_analysis(dataset, {})
