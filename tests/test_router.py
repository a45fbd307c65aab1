import math

import numpy as np
import pytest
from scipy import sparse
from scipy.special import softmax

from rewardroute import (
    DivergenceError,
    ModelRegistry,
    TrainConfig,
    aggregate_tag_rewards,
    build_targets,
    featurize,
    featurize_matrix,
    forward,
    init_router,
    kl_loss,
    route,
    train,
)
from rewardroute.features import FeaturizerConfig
from rewardroute.router import RouterModel, kl_objective

from conftest import make_dataset


def test_kl_hand_values():
    # KL([1,0] || [0.5,0.5]) = ln 2
    assert kl_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == pytest.approx(
        math.log(2.0), abs=1e-12
    )
    # KL([0.5,0.5] || [0.9,0.1]) = 0.5 ln(0.5/0.9) + 0.5 ln(0.5/0.1)
    expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    assert kl_loss(np.array([0.9, 0.1]), np.array([0.5, 0.5])) == pytest.approx(
        expected, abs=1e-12
    )


def test_kl_of_identical_distributions_is_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert kl_loss(p, p) == 0.0


def test_kl_non_negative_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        p = softmax(rng.normal(size=k))
        t = softmax(rng.normal(size=k))
        assert kl_loss(p, t) >= -1e-12


def test_kl_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        kl_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0]))


def _finite_difference_grads(weights, bias, x, targets, l2, reverse, step=1e-5):
    """Central differences on every coordinate, loss evaluated independently."""
    def loss_at(w, b):
        return kl_objective(w, b, x, targets, l2_penalty=l2, reverse_kl=reverse)[0]

    grad_w = np.zeros_like(weights)
    for i in range(weights.shape[0]):
        for j in range(weights.shape[1]):
            up, down = weights.copy(), weights.copy()
            up[i, j] += step
            down[i, j] -= step
            grad_w[i, j] = (loss_at(up, bias) - loss_at(down, bias)) / (2 * step)
    grad_b = np.zeros_like(bias)
    for i in range(len(bias)):
        up, down = bias.copy(), bias.copy()
        up[i] += step
        down[i] -= step
        grad_b[i] = (loss_at(weights, up) - loss_at(weights, down)) / (2 * step)
    return grad_w, grad_b


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("l2", [0.0, 1e-3])
def test_analytic_gradient_matches_finite_differences(reverse, l2):
    rng = np.random.default_rng(17)
    k, d, n = 3, 10, 12
    weights = rng.normal(scale=0.5, size=(k, d))
    bias = rng.normal(scale=0.5, size=k)
    x = sparse.csr_matrix(rng.uniform(0, 1, size=(n, d)))
    targets = softmax(rng.normal(size=(n, k)), axis=1)

    _, gw, gb = kl_objective(weights, bias, x, targets, l2_penalty=l2, reverse_kl=reverse)
    fw, fb = _finite_difference_grads(weights, bias, x, targets, l2, reverse)

    scale = max(np.abs(fw).max(), np.abs(fb).max())
    assert np.abs(gw - fw).max() / scale < 1e-4
    assert np.abs(gb - fb).max() / scale < 1e-4


def test_l2_penalty_applies_to_weights_only():
    rng = np.random.default_rng(4)
    weights = rng.normal(size=(2, 6))
    bias = rng.normal(size=2)
    x = sparse.csr_matrix(rng.uniform(0, 1, size=(5, 6)))
    targets = softmax(rng.normal(size=(5, 2)), axis=1)
    plain, _, gb_plain = kl_objective(weights, bias, x, targets, l2_penalty=0.0)
    penalized, _, gb_pen = kl_objective(weights, bias, x, targets, l2_penalty=0.1)
    assert penalized == pytest.approx(plain + 0.05 * float((weights ** 2).sum()), rel=1e-12)
    np.testing.assert_array_equal(gb_plain, gb_pen)


def test_forward_matches_dense_softmax():
    reg = ModelRegistry.from_ids(["a", "b", "c"])
    config = FeaturizerConfig(dimension=128)
    rng = np.random.default_rng(5)
    model = RouterModel(
        weights=rng.normal(size=(3, 128)), bias=rng.normal(size=3),
        featurizer_config=config, registry=reg,
    )
    vec = featurize(config, "check the forward pass")
    expected = softmax(model.weights @ vec.toarray().ravel() + model.bias)
    np.testing.assert_allclose(forward(model, vec)[0], expected, atol=1e-12)


def test_forward_distribution_sums_to_one():
    reg = ModelRegistry.from_ids(["a", "b"])
    model = init_router(reg, FeaturizerConfig(dimension=64), seed=0)
    probs = forward(model, featurize(model.featurizer_config, "any text"))[0]
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(probs > 0)


def test_forward_rows_equal_route_bitwise(tiny_model, tiny_benchmark):
    dataset, _ = tiny_benchmark
    queries = [row.query.text for row in dataset.rows[:10]] + ["", "unseen words only"]
    probs = forward(tiny_model, featurize_matrix(tiny_model.featurizer_config, queries))
    assert probs.shape == (len(queries), tiny_model.num_models)
    for i, query in enumerate(queries):
        model_id, one = route(tiny_model, query)
        assert one.tobytes() == probs[i].tobytes()
        assert model_id == tiny_model.registry.ids[int(np.argmax(probs[i]))]


def test_forward_rejects_dimension_mismatch(tiny_model):
    x = featurize_matrix(FeaturizerConfig(dimension=512), ["tide moon"])
    with pytest.raises(ValueError, match="dimension"):
        forward(tiny_model, x)


def test_build_targets_is_softmax_of_enhanced_rewards():
    ds = make_dataset([
        ("q1", "a", ("x",), [1.0, 0.0, 0.0]),
        ("q2", "b", ("x",), [0.0, 1.0, 0.0]),
    ])
    table = aggregate_tag_rewards(ds)
    targets = build_targets(ds, table, beta=1.0, temperature=2.0)
    for i, row in enumerate(ds.rows):
        np.testing.assert_allclose(targets[i], softmax(row.rewards / 2.0), atol=1e-12)
    np.testing.assert_allclose(targets.sum(axis=1), 1.0, atol=1e-12)


def _overfit_dataset():
    return make_dataset([
        ("q1", "tide moon shore", ("sea",), [3.0, 0.0, 0.0]),
        ("q2", "ebb current salt", ("sea",), [3.0, 0.0, 0.0]),
        ("q3", "gear torque shaft", ("machine",), [0.0, 3.0, 0.0]),
        ("q4", "bearing clutch spline", ("machine",), [0.0, 3.0, 0.0]),
        ("q5", "basil thyme sage", ("herb",), [0.0, 0.0, 3.0]),
        ("q6", "mint fennel dill", ("herb",), [0.0, 0.0, 3.0]),
    ])


def test_training_overfits_a_tiny_dataset():
    ds = _overfit_dataset()
    table = aggregate_tag_rewards(ds)
    model = init_router(ds.registry, FeaturizerConfig(dimension=1024), seed=0)
    config = TrainConfig(learning_rate=1.0, epochs=300, batch_size=6, beta=1.0,
                         l2_penalty=0.0, seed=0)
    trained, report = train(model, ds, table, config)
    assert report.final_loss < 1e-3
    assert report.row_count == 6
    assert len(report.epoch_losses) == 300


def test_training_reduces_loss(sample_dataset):
    table = aggregate_tag_rewards(sample_dataset)
    model = init_router(sample_dataset.registry, FeaturizerConfig(dimension=4096), seed=0)
    _, report = train(model, sample_dataset, table, TrainConfig(epochs=10))
    assert report.final_loss < report.epoch_losses[0]
    assert report.wall_seconds > 0


def test_training_is_deterministic():
    ds = _overfit_dataset()
    table = aggregate_tag_rewards(ds)
    config = TrainConfig(epochs=5, seed=9)
    runs = []
    for _ in range(2):
        model = init_router(ds.registry, FeaturizerConfig(dimension=512), seed=9)
        trained, report = train(model, ds, table, config)
        runs.append((trained.weights.tobytes(), trained.bias.tobytes(),
                     tuple(report.epoch_losses)))
    assert runs[0] == runs[1]


def test_seed_changes_the_trained_model():
    ds = _overfit_dataset()
    table = aggregate_tag_rewards(ds)
    a, _ = train(init_router(ds.registry, FeaturizerConfig(dimension=512), seed=0),
                 ds, table, TrainConfig(epochs=2, seed=0))
    b, _ = train(init_router(ds.registry, FeaturizerConfig(dimension=512), seed=1),
                 ds, table, TrainConfig(epochs=2, seed=1))
    assert not np.array_equal(a.weights, b.weights)


def test_reverse_kl_trains_a_different_model():
    ds = _overfit_dataset()
    table = aggregate_tag_rewards(ds)
    fwd, _ = train(init_router(ds.registry, FeaturizerConfig(dimension=512), seed=0),
                   ds, table, TrainConfig(epochs=3, seed=0))
    rev, _ = train(init_router(ds.registry, FeaturizerConfig(dimension=512), seed=0),
                   ds, table, TrainConfig(epochs=3, seed=0, reverse_kl=True))
    assert not np.array_equal(fwd.weights, rev.weights)


def test_train_leaves_input_model_untouched():
    ds = _overfit_dataset()
    table = aggregate_tag_rewards(ds)
    model = init_router(ds.registry, FeaturizerConfig(dimension=512), seed=0)
    before = model.weights.copy()
    train(model, ds, table, TrainConfig(epochs=2))
    np.testing.assert_array_equal(model.weights, before)


def test_divergence_raises_with_last_finite_loss():
    ds = _overfit_dataset()
    table = aggregate_tag_rewards(ds)
    model = init_router(ds.registry, FeaturizerConfig(dimension=512), seed=0)
    with pytest.raises(DivergenceError) as excinfo:
        train(model, ds, table, TrainConfig(learning_rate=1e300, epochs=8))
    assert "diverged" in str(excinfo.value)


def test_train_rejects_registry_mismatch():
    ds = _overfit_dataset()
    table = aggregate_tag_rewards(ds)
    other = ModelRegistry.from_ids(["x", "y", "z"])
    model = init_router(other, FeaturizerConfig(dimension=512), seed=0)
    with pytest.raises(ValueError, match="registry"):
        train(model, ds, table, TrainConfig(epochs=1))


def test_route_tie_breaks_to_lowest_index():
    reg = ModelRegistry.from_ids(["first", "second", "third"])
    config = FeaturizerConfig(dimension=64)
    model = RouterModel(weights=np.zeros((3, 64)), bias=np.zeros(3),
                        featurizer_config=config, registry=reg)
    chosen, probs = route(model, "all logits are equal here")
    assert chosen == "first"
    np.testing.assert_allclose(probs, [1 / 3] * 3, atol=1e-12)


def test_route_prefers_matching_expertise(tiny_model, tiny_benchmark):
    dataset, oracle = tiny_benchmark
    hits = 0
    for row in dataset.rows[:30]:
        chosen, _ = route(tiny_model, row.query.text)
        best = dataset.registry.ids[int(np.argmax(oracle[row.query.id]))]
        hits += chosen == best
    assert hits >= 24  # tiny model, but far above the 10 expected by chance


@pytest.mark.parametrize("field, value", [
    ("learning_rate", 0.0),
    ("epochs", 0),
    ("batch_size", 0),
    ("beta", 1.5),
    ("temperature", 0.0),
    ("l2_penalty", -1.0),
])
def test_train_config_validation(field, value):
    with pytest.raises(ValueError):
        TrainConfig(**{field: value})


def test_init_router_seeded_and_bounded():
    reg = ModelRegistry.from_ids(["a", "b"])
    m1 = init_router(reg, FeaturizerConfig(dimension=256), seed=7)
    m2 = init_router(reg, FeaturizerConfig(dimension=256), seed=7)
    np.testing.assert_array_equal(m1.weights, m2.weights)
    assert np.abs(m1.weights).max() <= 0.01
    np.testing.assert_array_equal(m1.bias, np.zeros(2))
