import numpy as np
import pytest

from rewardroute import (
    DatasetRow,
    ModelRegistry,
    Query,
    RewardDataset,
    SyntheticSpec,
    TrainConfig,
    aggregate_tag_rewards,
    init_router,
    make_synthetic_benchmark,
    train,
)
from rewardroute.features import FeaturizerConfig
from rewardroute.fixtures import fixture_path


@pytest.fixture(scope="session")
def sample_registry():
    from rewardroute import load_registry
    return load_registry(fixture_path("registry.json"))


@pytest.fixture(scope="session")
def sample_dataset(sample_registry):
    from rewardroute import load_dataset
    return load_dataset(fixture_path("sample_dataset.jsonl"), sample_registry)


def make_dataset(rows, model_ids=("alpha", "beta", "gamma")):
    """Small hand-rolled dataset: rows are (id, text, tags, rewards) tuples."""
    registry = ModelRegistry(model_ids)
    built = tuple(
        DatasetRow(
            query=Query(id=i, text=t, tags=frozenset(tags)),
            rewards=np.asarray(r, dtype=np.float64),
        )
        for i, t, tags, r in rows
    )
    return RewardDataset(registry=registry, rows=built)


TINY_SPEC = SyntheticSpec(
    num_models=3,
    clusters={
        "tides": ["tide", "moon", "shore", "ebb", "current", "salt"],
        "gears": ["gear", "torque", "shaft", "bearing", "clutch", "spline"],
        "herbs": ["basil", "thyme", "sage", "mint", "fennel", "dill"],
    },
    queries_per_cluster=20,
    expertise_margin=1.0,
    noise_sigma=0.1,
    seed=5,
)


@pytest.fixture(scope="session")
def tiny_benchmark():
    return make_synthetic_benchmark(TINY_SPEC)


@pytest.fixture(scope="session")
def tiny_model(tiny_benchmark):
    """A quickly trained router on the tiny benchmark, shared across tests."""
    dataset, _ = tiny_benchmark
    table = aggregate_tag_rewards(dataset)
    model = init_router(dataset.registry, FeaturizerConfig(dimension=4096), seed=3)
    trained, _ = train(model, dataset, table, TrainConfig(epochs=8, seed=3))
    return trained
