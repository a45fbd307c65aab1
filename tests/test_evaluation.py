import json
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


_REPORT_ORDER_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from conftest import TINY_SPEC
from rewardroute import evaluate_systems, init_router, make_synthetic_benchmark
dataset, oracle = make_synthetic_benchmark(TINY_SPEC)
report = evaluate_systems(dataset, oracle, init_router(dataset.registry, seed=5), rmr=True)
print(json.dumps([list(report.mtr), list(report.uplift), list(report.subsets[0].scores)]))
"""


def test_report_key_order_does_not_follow_the_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rewardroute

    orders = []
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": str(Path(rewardroute.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", _REPORT_ORDER_SCRIPT,
                              str(Path(__file__).parent)],
                             env=env, capture_output=True, text=True, check=True).stdout
        mtr, uplift, scores = json.loads(out)
        assert mtr == uplift == scores
        orders.append(mtr)
    assert orders == [["oracle", "single:m0", "single:m1", "single:m2", "router", "rmr"]] * 3


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


def test_oracle_argmax_and_shape_check():
    # A pick is right where the oracle scores it best; each oracle vector has K entries.
    dataset, oracle = _one_row_subsets([([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])])
    scores = evaluate_systems(dataset, oracle).subsets[0].scores
    assert scores == {"oracle": 1.0, "single:a": 0.0, "single:b": 0.0, "single:c": 1.0}
    with pytest.raises(DataFormatError,
                       match=r"oracle scores for query 'q0' have shape \(2,\), expected \(3,\)"):
        evaluate_systems(dataset, {"q0": np.array([1.0, 2.0])})


def test_a_pick_that_ties_the_oracle_best_is_a_hit():
    # m0 and m1 are both right on every row, and the rewards favour m1.
    registry = ModelRegistry(["m0", "m1", "m2"])
    rows = tuple(DatasetRow(Query(id=f"q{i}", text=f"query {i}", subset="s"),
                            np.array([0.1, 0.9, 0.0])) for i in range(4))
    dataset = RewardDataset(registry, rows)
    oracle = {row.query.id: np.array([1.0, 1.0, 0.0]) for row in rows}
    report = evaluate_systems(dataset, oracle, rmr=True)
    assert report.subsets[0].scores == {"oracle": 1.0, "single:m0": 1.0, "single:m1": 1.0,
                                        "single:m2": 0.0, "rmr": 1.0}
    assert report.mtr == {"oracle": 1.0, "single:m0": 1.0, "single:m1": 1.0,
                          "single:m2": 5.0, "rmr": 1.0}
    assert [correct for _, correct in entropy_quality_analysis(dataset, oracle).pairs] == [True] * 4
    favours_m1 = replace(init_router(registry, FeaturizerConfig(dimension=64)),
                         bias=np.array([0.0, 5.0, 0.0]))
    assert routing_accuracy(favours_m1, dataset, oracle) == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_oracle_scores_are_a_data_format_error(bad):
    dataset, oracle = _one_row_subsets([([0.1, 0.9, 0.3], [bad, 1.0, 0.0])])
    message = "oracle scores for query 'q0' have a non-finite entry"
    with pytest.raises(DataFormatError, match=message):
        evaluate_systems(dataset, oracle, rmr=True)
    with pytest.raises(DataFormatError, match=message):
        entropy_quality_analysis(dataset, oracle)


def test_a_router_naming_a_model_the_dataset_lacks_is_a_data_format_error(tiny_benchmark,
                                                                           tiny_model):
    # Its picks of m2 have no oracle score to be judged by.
    dataset, oracle = tiny_benchmark
    renamed = RewardDataset(ModelRegistry(("m0", "m1", "m9")), dataset.rows)
    message = r"the router routes to model\(s\) \['m2'\], which the dataset's registry lacks"
    with pytest.raises(DataFormatError, match=message):
        evaluate_systems(renamed, oracle, tiny_model)
    with pytest.raises(DataFormatError, match=message):
        routing_accuracy(tiny_model, renamed, oracle)


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


def _spy_optimize(monkeypatch) -> list[bool]:
    """Record the losses flag of every _optimize call, the restart's included."""
    import rewardroute.router as router

    flags = []
    optimize = router._optimize

    def spy(weights, bias, x, targets, config, nonfinite_epoch=None, losses=True):
        flags.append(losses)
        return optimize(weights, bias, x, targets, config, nonfinite_epoch, losses)

    monkeypatch.setattr(router, "_optimize", spy)
    return flags


def test_beta_ablation_runs_no_loss_pass(monkeypatch):
    import rewardroute.router as router

    calls = []
    kl_rows = router._kl_rows

    def spy(pred, target):
        calls.append(len(pred))
        return kl_rows(pred, target)

    monkeypatch.setattr(router, "_kl_rows", spy)
    flags = _spy_optimize(monkeypatch)
    config = TrainConfig(epochs=3, seed=2)
    result = beta_ablation(TINY_SPEC, [0.0, 1.0], config)
    assert calls == [] and flags == [False]
    assert result.phases.epoch_losses == []
    # train() reports every epoch's loss, so it still runs one pass an epoch
    dataset, _ = make_synthetic_benchmark(TINY_SPEC)
    train_ds, _ = holdout_split(dataset)
    _, report = train(init_router(dataset.registry, seed=2), train_ds,
                      aggregate_tag_rewards(train_ds), config)
    assert calls == [len(train_ds)] * 3 and len(report.epoch_losses) == 3


def _init_scaled_on(columns: np.ndarray, factor: float):
    """init_router, with the given weight columns started factor times larger."""
    def scaled_init(registry, featurizer_config=None, seed=0):
        model = init_router(registry, featurizer_config, seed)
        weights = model.weights.copy()
        weights[:, columns] *= factor
        return replace(model, weights=weights)
    return scaled_init


# At learning_rate 1e300 the untouched-column replay diverges too, and its
# epoch forces the restart. With the train split's columns started near
# 1e300 and lr * l2 = 3, only the descent diverges, so the finiteness bound
# alone must force it.
@pytest.mark.parametrize("factor, config", [
    (1.0, TrainConfig(learning_rate=1e300, epochs=3, seed=2)),
    (1e302, TrainConfig(learning_rate=0.1, l2_penalty=30, epochs=6, batch_size=16, seed=2)),
], ids=["replay", "bound"])
def test_beta_ablation_divergence_goes_through_the_restart(monkeypatch, factor, config):
    import rewardroute.evaluation as evaluation

    dataset, _ = make_synthetic_benchmark(TINY_SPEC)
    train_ds, _ = holdout_split(dataset)
    table = aggregate_tag_rewards(train_ds)
    x = featurize_matrix(FeaturizerConfig(), [r.query.text for r in train_ds.rows])
    scaled_init = _init_scaled_on(np.unique(x.indices), factor)
    betas = [0.0, 1.0]
    with pytest.raises(DivergenceError) as expected:  # each beta alone, in order
        for b in betas:
            train(scaled_init(dataset.registry, seed=2), train_ds, table, replace(config, beta=b))
    monkeypatch.setattr(evaluation, "init_router", scaled_init)
    flags = _spy_optimize(monkeypatch)
    with pytest.raises(DivergenceError) as got:
        beta_ablation(TINY_SPEC, betas, config)
    assert flags == [False, True]
    assert "non-finite loss" in str(got.value)
    assert str(got.value) == str(expected.value)
    assert got.value.last_finite_loss == expected.value.last_finite_loss


def test_beta_ablation_restart_keeps_a_run_that_does_not_diverge(monkeypatch):
    # The touched columns start near 1e300: too large for the finiteness
    # bound, but every logit stays finite and nothing diverges.
    import rewardroute.evaluation as evaluation

    dataset, oracle = make_synthetic_benchmark(TINY_SPEC)
    x = featurize_matrix(FeaturizerConfig(), [r.query.text for r in dataset.rows])
    scaled_init = _init_scaled_on(np.unique(x.indices), 1e302)
    config = TrainConfig(epochs=3, seed=2)
    betas = [0.0, 1.0]
    train_ds, eval_ds = holdout_split(dataset)
    table = aggregate_tag_rewards(train_ds)
    expected = []
    for b in betas:
        trained, report = train(scaled_init(dataset.registry, seed=2), train_ds, table,
                                replace(config, beta=b))
        assert np.all(np.isfinite(report.epoch_losses))
        assert np.all(np.isfinite(x @ trained.weights.T + trained.bias))
        expected.append(routing_accuracy(trained, eval_ds, oracle))
    monkeypatch.setattr(evaluation, "init_router", scaled_init)
    flags = _spy_optimize(monkeypatch)
    result = beta_ablation(TINY_SPEC, betas, config)
    assert flags == [False, True]
    assert result.accuracies == expected


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


def test_spearman_matches_scipy_on_tied_columns():
    from scipy import stats

    from rewardroute.evaluation import _spearman

    rng = np.random.default_rng(0)
    for n in (2, 3, 10, 57, 400):
        for _ in range(20):
            correct = (rng.random(n) < 0.6).astype(np.float64)
            entropies = rng.integers(0, 4, n) * 0.25  # few values, so many ties
            if np.all(correct == correct[0]) or np.all(entropies == entropies[0]):
                continue
            for a, b in ((entropies, correct), (rng.normal(size=n), correct),
                         (entropies, rng.normal(size=n))):
                assert _spearman(a, b) == pytest.approx(stats.spearmanr(a, b).statistic,
                                                        abs=1e-12, rel=0)


_ENTROPY_IMPORTS_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from conftest import TINY_SPEC
from dataclasses import replace
from rewardroute import entropy_quality_analysis, make_synthetic_benchmark
analysis = entropy_quality_analysis(*make_synthetic_benchmark(replace(TINY_SPEC, noise_sigma=2.0)))
assert not analysis.degenerate
print('scipy.stats' in sys.modules)
"""


def test_entropy_analysis_imports_no_scipy_stats():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rewardroute

    env = {**os.environ, "PYTHONPATH": str(Path(rewardroute.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _ENTROPY_IMPORTS_SCRIPT,
                          str(Path(__file__).parent)],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


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


def test_scoring_rejects_an_empty_dataset():
    registry = ModelRegistry(("m0", "m1"))
    dataset = RewardDataset(registry=registry, rows=())
    with pytest.raises(ValueError, match="cannot evaluate on an empty dataset"):
        evaluate_systems(dataset, {}, rmr=True)
    with pytest.raises(ValueError, match="cannot evaluate on an empty dataset"):
        routing_accuracy(init_router(registry, FeaturizerConfig(dimension=64)), dataset, {})
