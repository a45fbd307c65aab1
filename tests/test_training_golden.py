"""Trained bytes pinned against the full-matrix trainer.

The digests and values below were recorded from the trainer that ran
gradient descent on the whole K x D weight matrix. The trainer now descends
only on the columns the training rows touch and replays the L2 step on the
rest, which must give the same bits. A reference copy of the full-matrix
loop is kept here as well. It is written with scipy's public sparse
operators, so it shares no code with the trainer's calls to scipy's kernels.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from rewardroute import (
    DivergenceError,
    SyntheticSpec,
    TrainConfig,
    aggregate_tag_rewards,
    beta_ablation,
    build_targets,
    featurize_matrix,
    init_router,
    load_dataset,
    load_registry,
    make_synthetic_benchmark,
    train,
)
from rewardroute.checkpoint import serialize_model
from rewardroute.features import FeaturizerConfig
from rewardroute.fixtures import fixture_path
from rewardroute.rewards import softmax_rows
from rewardroute.router import TrainReport, _fit, _kl_rows

from conftest import make_dataset
from test_router import _overfit_dataset

THREE_CLUSTERS = {
    "tides": ["tide", "moon", "shore", "ebb", "current", "salt"],
    "gears": ["gear", "torque", "shaft", "bearing", "clutch", "spline"],
    "herbs": ["basil", "thyme", "sage", "mint", "fennel", "dill"],
}


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _train(dataset, featurizer, config, seed=0):
    """train() from a fresh seeded router; returns (checkpoint sha256, report)."""
    model = init_router(dataset.registry, featurizer, seed=seed)
    trained, report = train(model, dataset, aggregate_tag_rewards(dataset), config)
    return _sha256(serialize_model(trained)), report


# What `rewardroute train` writes with its default flags.
@pytest.mark.parametrize("name, digest", [
    ("synth", "b375838a6a852762facea1541a63c0199032a453561c3c1b896e24849415eb2f"),
    ("sample", "09b92ffc83a065fcf87e9eaf7aff43b8138c8c80f21a0349687157de7bf6e246"),
])
def test_default_training_checkpoint_digest(name, digest):
    if name == "synth":
        dataset, _ = make_synthetic_benchmark(
            SyntheticSpec.from_file(fixture_path("synthetic_spec.json")))
    else:
        registry = load_registry(fixture_path("registry.json"))
        dataset = load_dataset(fixture_path("sample_dataset.jsonl"), registry)
    assert _train(dataset, FeaturizerConfig(), TrainConfig())[0] == digest


def test_beta_ablation_records_digest():
    spec = SyntheticSpec(num_models=3, clusters=THREE_CLUSTERS, queries_per_cluster=40,
                         expertise_margin=0.3, noise_sigma=1.5, seed=3)
    records = beta_ablation(spec, [0.0, 0.3, 1.0], TrainConfig(seed=2)).to_records()
    # accuracies 0.667, 0.625 and 0.458: three distinct values
    assert (_sha256(json.dumps(records).encode())
            == "2cfa7348f5a3f3c32cbcf6a90ba4970a66f747fbaf2a04ceac4ed9d9c82cf61d")


def test_no_l2_penalty_leaves_untouched_columns_alone():
    digest, report = _train(
        _overfit_dataset(), FeaturizerConfig(dimension=512),
        TrainConfig(learning_rate=0.5, epochs=30, batch_size=4, l2_penalty=0.0, seed=3), seed=3)
    assert digest == "b7ec5112948dd50d62e728d8e5e62db8ac64a90471053b0561e32658fd755363"
    assert len(report.epoch_losses) == 30


def test_dimension_with_every_column_touched():
    ds = _overfit_dataset()
    x = featurize_matrix(FeaturizerConfig(dimension=16), [r.query.text for r in ds.rows])
    assert len(np.unique(x.indices)) == 16
    digest, report = _train(ds, FeaturizerConfig(dimension=16),
                            TrainConfig(epochs=25, batch_size=4, l2_penalty=1e-3, seed=1), seed=1)
    assert digest == "eb48a369ccb302572c1476bd3c5e821671ec9014f83cf93335ab076ddd437bc5"
    assert len(report.epoch_losses) == 25


def test_rows_without_features_train_the_bias_only():
    # Queries may not be blank, so train() never sees a featureless row;
    # _fit is given the zero rows that three blank texts featurize to.
    ds = make_dataset([
        ("e1", "ox", ("a",), [1.0, 0.0, 0.5]),
        ("e2", "an ox", ("b",), [0.0, 2.0, 0.0]),
        ("e3", "go", ("a",), [0.3, 0.0, 1.0]),
    ])
    featurizer = FeaturizerConfig(dimension=512)
    x = featurize_matrix(featurizer, ["", "", ""])
    assert x.nnz == 0
    config = TrainConfig(epochs=7, batch_size=2, seed=4)
    model = init_router(ds.registry, featurizer, seed=4)
    targets = build_targets(ds, aggregate_tag_rewards(ds), config.beta, config.temperature)
    _, [(_, bias, losses)] = _fit(model, x, [targets], config, TrainReport())
    assert not np.array_equal(bias, model.bias)
    assert losses == [
        0.17688670549632135, 0.17419692787135843, 0.17421835328492083,
        0.1741512429555557, 0.17409946543277988, 0.17406060332273152,
        0.17403257532299457,
    ]


def test_decay_divergence_epoch_and_last_finite_loss():
    # lr * l2 = 3 > 2: every weight's L2 step multiplies it by -2, so the
    # weights overflow during epoch 1027 (one mini-batch per epoch).
    ds = _overfit_dataset()
    featurizer = FeaturizerConfig(dimension=512)
    diverging = TrainConfig(learning_rate=0.1, l2_penalty=30, epochs=1200, batch_size=6)
    with pytest.raises(DivergenceError) as excinfo:
        _train(ds, featurizer, diverging)
    assert excinfo.value.last_finite_loss == 26.013335944901005
    _, report = _train(ds, featurizer, TrainConfig(learning_rate=0.1, l2_penalty=30,
                                                   epochs=1026, batch_size=6))
    assert report.final_loss == 26.013335944901005
    with pytest.raises(DivergenceError):
        _train(ds, featurizer, TrainConfig(learning_rate=0.1, l2_penalty=30,
                                           epochs=1027, batch_size=6))


def _full_matrix_train(model, dataset, table, config):
    """The descent on the whole K x D matrix that train() must reproduce."""
    x = featurize_matrix(model.featurizer_config, [r.query.text for r in dataset.rows])
    targets = build_targets(dataset, table, config.beta, config.temperature)
    rng = np.random.default_rng(config.seed)
    weights, bias = model.weights.copy(), model.bias.copy()
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            order = rng.permutation(x.shape[0])
            for lo in range(0, x.shape[0], config.batch_size):
                idx = order[lo:lo + config.batch_size]
                xb = x[idx]
                g = (softmax_rows(xb @ weights.T + bias) - targets[idx]) / xb.shape[0]
                weights -= config.learning_rate * ((xb.T @ g).T + config.l2_penalty * weights)
                bias -= config.learning_rate * g.sum(axis=0)
            loss = float(_kl_rows(softmax_rows(x @ weights.T + bias), targets).mean())
            if not np.isfinite(loss) or not np.all(np.isfinite(weights)):
                raise DivergenceError("diverged", last_finite_loss=losses[-1] if losses else None)
            losses.append(loss)
    return weights, bias, losses


def test_untouched_columns_alone_diverging_stop_training_at_the_same_epoch():
    # Untouched weights start at up to 1e300 and touched ones at 0.01. With
    # lr * l2 = 3 each L2 step doubles a weight's size, so only the untouched
    # columns overflow, in epoch 8 (three mini-batches per epoch), while the
    # loss stays finite.
    ds = _overfit_dataset()
    table = aggregate_tag_rewards(ds)
    model = init_router(ds.registry, FeaturizerConfig(dimension=512), seed=0)
    x = featurize_matrix(model.featurizer_config, [r.query.text for r in ds.rows])
    weights = model.weights.copy()
    untouched = np.setdiff1d(np.arange(512), x.indices)
    weights[:, untouched] *= 1e302
    model = replace(model, weights=weights)
    config = TrainConfig(learning_rate=0.1, l2_penalty=30, epochs=40, batch_size=2)
    with pytest.raises(DivergenceError) as expected:
        _full_matrix_train(model, ds, table, config)
    with pytest.raises(DivergenceError) as got:
        train(model, ds, table, config)
    assert got.value.last_finite_loss == expected.value.last_finite_loss
    _, report = train(model, ds, table, replace(config, epochs=7))
    assert report.final_loss == expected.value.last_finite_loss
    with pytest.raises(DivergenceError):
        train(model, ds, table, replace(config, epochs=8))


@pytest.mark.parametrize("config", [
    TrainConfig(epochs=6, batch_size=5, seed=2),
    TrainConfig(learning_rate=0.7, epochs=4, batch_size=64, beta=0.0, l2_penalty=0.05, seed=7),
    TrainConfig(learning_rate=0.3, epochs=3, batch_size=1, beta=1.0, temperature=0.5,
                l2_penalty=0.0, seed=1),
])
def test_train_matches_the_full_matrix_descent_bitwise(tiny_benchmark, config):
    dataset, _ = tiny_benchmark
    table = aggregate_tag_rewards(dataset)
    model = init_router(dataset.registry, FeaturizerConfig(dimension=2048), seed=config.seed)
    trained, report = train(model, dataset, table, config)
    weights, bias, losses = _full_matrix_train(model, dataset, table, config)
    assert trained.weights.tobytes() == weights.tobytes()
    assert trained.bias.tobytes() == bias.tobytes()
    assert report.epoch_losses == losses
