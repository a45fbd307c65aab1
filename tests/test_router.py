import json
import math
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.special import softmax

from rewardroute import (
    DatasetRow,
    DivergenceError,
    ModelRegistry,
    Query,
    TrainConfig,
    aggregate_tag_rewards,
    build_targets,
    featurize,
    featurize_matrix,
    forward,
    init_router,
    route,
    train,
)
from rewardroute.features import FeaturizerConfig
from rewardroute.rewards import (TagRewardTable, enhance_labels, normalize_rewards,
                                 softmax_rows)
from rewardroute.router import (_DECAY_CHUNK, RouterModel, TrainReport, _column_positions,
                                _csr_kernel, _decay, _fit, _kl_rows, _l2_can_grow, kl_objective)

from conftest import make_dataset


def _kl(pred, target):
    """_kl_rows on a one-row batch."""
    return float(_kl_rows(pred[None, :], target[None, :])[0])


def test_kl_hand_values():
    # KL([1,0] || [0.5,0.5]) = ln 2
    assert _kl(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == pytest.approx(
        math.log(2.0), abs=1e-12
    )
    # KL([0.5,0.5] || [0.9,0.1]) = 0.5 ln(0.5/0.9) + 0.5 ln(0.5/0.1)
    expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    assert _kl(np.array([0.9, 0.1]), np.array([0.5, 0.5])) == pytest.approx(
        expected, abs=1e-12
    )


def test_kl_of_identical_distributions_is_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert _kl(p, p) == 0.0


def test_kl_non_negative_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        p = softmax(rng.normal(size=k))
        t = softmax(rng.normal(size=k))
        assert _kl(p, t) >= -1e-12


def _finite_difference_grads(weights, bias, x, targets, l2, step=1e-5):
    """Central differences on every coordinate, loss evaluated independently."""
    def loss_at(w, b):
        return kl_objective(w, b, x, targets, l2_penalty=l2)[0]

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


@pytest.mark.parametrize("l2", [0.0, 1e-3])
def test_analytic_gradient_matches_finite_differences(l2):
    rng = np.random.default_rng(17)
    k, d, n = 3, 10, 12
    weights = rng.normal(scale=0.5, size=(k, d))
    bias = rng.normal(scale=0.5, size=k)
    x = sparse.csr_matrix(rng.uniform(0, 1, size=(n, d)))
    targets = softmax(rng.normal(size=(n, k)), axis=1)

    _, gw, gb = kl_objective(weights, bias, x, targets, l2_penalty=l2)
    fw, fb = _finite_difference_grads(weights, bias, x, targets, l2)

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


def test_kl_objective_rejects_shapes_that_do_not_match():
    rng = np.random.default_rng(8)
    weights, bias = rng.normal(size=(3, 16)), np.zeros(3)
    targets = softmax(rng.normal(size=(5, 3)), axis=1)
    for columns in (4096, 8):
        x = sparse.random(5, columns, density=0.1, format="csr", random_state=columns)
        with pytest.raises(ValueError):
            kl_objective(weights, bias, x, targets)
    x = sparse.csr_matrix(rng.uniform(0, 1, size=(5, 16)))
    for bad in (targets[:4], targets[:, :2], np.vstack([targets, targets])):
        with pytest.raises(ValueError):
            kl_objective(weights, bias, x, bad)


def _random_csr(index_dtype, n_rows=40, n_cols=30, seed=6):
    """A random CSR matrix with empty rows, its index arrays in index_dtype."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n_rows, n_cols)) * (rng.uniform(size=(n_rows, n_cols)) < 0.2)
    dense[::7] = 0.0
    x = sparse.csr_matrix(dense)
    x.indptr, x.indices = x.indptr.astype(index_dtype), x.indices.astype(index_dtype)
    return x


@pytest.mark.parametrize("l2", [0.0, 0.3])
def test_kl_objective_matches_scipy_full_products_bitwise(l2):
    # Most of the 300 columns are untouched, and some weights are -0.0:
    # the full product gives an untouched column 0.0 + l2 * w, so 0.0 there.
    x = _random_csr(np.int32, n_cols=300)
    rng = np.random.default_rng(9)
    weights, bias = rng.normal(size=(4, 300)), rng.normal(size=4)
    weights[:, ::5] = -0.0
    targets = rng.dirichlet(np.ones(4), size=x.shape[0])
    g = (softmax_rows(x @ weights.T + bias) - targets) / x.shape[0]
    _, grad_w, grad_b = kl_objective(weights, bias, x, targets, l2_penalty=l2)
    assert grad_w.tobytes() == np.ascontiguousarray((x.T @ g + l2 * weights.T).T).tobytes()
    assert grad_b.tobytes() == g.sum(axis=0).tobytes()


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_csr_kernels_match_scipy_operators_bitwise(index_dtype):
    x = _random_csr(index_dtype)
    arrays = (x.indptr, x.indices, x.data, x.shape[1])
    rng = np.random.default_rng(2)
    order = rng.permutation(x.shape[0]).astype(index_dtype)
    # A lone empty row, a lone nonempty row, then 40 rows in batches of 16: the last has 8.
    batches = [np.array([7], dtype=index_dtype), np.array([1], dtype=index_dtype)]
    batches += [order[lo:lo + 16] for lo in range(0, len(order), 16)]
    assert x[batches[0]].nnz == 0 and len(batches[-1]) == 8
    w = rng.normal(size=(x.shape[1], 12))
    assert _csr_kernel("matmul", arrays, w).tobytes() == (x @ w).tobytes()
    for idx in batches:
        rows, expected = _csr_kernel("rows", arrays, idx), x[idx]
        assert all(a.dtype == index_dtype for a in rows[:2])
        np.testing.assert_array_equal(rows[0], expected.indptr)
        np.testing.assert_array_equal(rows[1], expected.indices)
        assert rows[2].tobytes() == expected.data.tobytes() and rows[3] == x.shape[1]
        g = rng.normal(size=(len(idx), 12))
        assert _csr_kernel("matmul", rows, w).tobytes() == (expected @ w).tobytes()
        assert _csr_kernel("rmatmul", rows, g).tobytes() == (expected.T @ g).tobytes()


def test_csr_kernels_write_only_into_the_arrays_they_return(monkeypatch):
    from scipy.sparse import _sparsetools
    written = []
    for name, outputs in (("csr_row_index", 2), ("csr_matvecs", 1), ("csc_matvecs", 1)):
        def recording(*args, kernel=getattr(_sparsetools, name), outputs=outputs):
            written.extend(args[-outputs:])
            return kernel(*args)
        monkeypatch.setattr(_sparsetools, name, recording)
    x = _random_csr(np.int32)
    arrays = (x.indptr, x.indices, x.data, x.shape[1])
    idx = np.arange(3, 19, dtype=np.int32)
    w = np.random.default_rng(3).normal(size=(x.shape[1], 4))
    rows = _csr_kernel("rows", arrays, idx)
    g = _csr_kernel("matmul", rows, w)
    results = [rows[1], rows[2], g, _csr_kernel("rmatmul", rows, g)]
    assert len(written) == len(results)
    for out, result in zip(written, results):
        assert out is result or out.base is result
        assert not any(np.shares_memory(out, a) for a in (*arrays[:3], idx, w))


def test_csr_kernel_rejects_what_would_reach_c_malformed():
    x = _random_csr(np.int32)
    arrays = (x.indptr, x.indices, x.data, x.shape[1])
    w = np.ones((x.shape[1], 4))
    cases = [
        ("matmul", arrays, np.ones((4, x.shape[1])).T),             # not C-contiguous
        ("matmul", arrays, np.ones((x.shape[1] + 1, 4))),           # one row too many
        ("matmul", arrays, w.astype(np.float32)),
        ("rmatmul", arrays, w),                                     # needs x.shape[0] rows
        ("matmul", (x.indptr, x.indices.astype(np.int64), x.data, x.shape[1]), w),
        ("matmul", (x.indptr, x.indices, x.data.astype(np.float32), x.shape[1]), w),
        ("matmul", (x.indptr, x.indices, x.data[:-1], x.shape[1]), w),
        ("rows", arrays, np.array([0, x.shape[0]], dtype=np.int32)),
        ("rows", arrays, np.array([-1], dtype=np.int32)),
        ("rows", arrays, np.array([0, 1], dtype=np.int64)),
        ("rows", arrays, np.arange(4, dtype=np.int32)[::2]),
    ]
    for op, csr, operand in cases:
        with pytest.raises(ValueError):
            _csr_kernel(op, csr, operand)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_column_positions_match_searchsorted(index_dtype):
    x = _random_csr(index_dtype, n_cols=500)
    columns = np.union1d(x.indices, [3, 499])
    got = _column_positions(columns, x.indices, 500)
    assert got.dtype == index_dtype
    np.testing.assert_array_equal(got, np.searchsorted(columns, x.indices))


def test_forward_matches_dense_softmax():
    reg = ModelRegistry(["a", "b", "c"])
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
    reg = ModelRegistry(["a", "b"])
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


def _build_targets_by_row(dataset, table, beta, temperature):
    """The per-row loop build_targets replaced, kept as its reference."""
    return np.array([
        normalize_rewards(enhance_labels(row.rewards, row.query, table, beta), temperature)
        for row in dataset.rows
    ])


def _wide_dataset():
    """Nine models, enough for numpy's pairwise sums; tag sets repeat, overlap or are empty."""
    rng = np.random.default_rng(11)
    tag_sets = [("x",), ("x", "y"), ("y", "x"), (), ("z",), ("y", "z", "x"), ("w",)]
    return make_dataset(
        [(f"q{i}", f"query number {i}", tag_sets[i % len(tag_sets)],
          rng.normal(scale=10.0 ** (i % 4), size=9)) for i in range(40)],
        model_ids=tuple(f"m{i}" for i in range(9)),
    )


@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("temperature", [1.0, 0.5, 3.0])
def test_build_targets_matches_the_per_row_loop_bitwise(sample_dataset, tiny_benchmark,
                                                        beta, temperature):
    wide = _wide_dataset()
    # A table aggregated over part of the rows leaves some of their tags unknown.
    partial = wide.with_rows(r for r in wide.rows if "w" not in r.query.tags and
                             "z" not in r.query.tags)
    cases = [(sample_dataset, aggregate_tag_rewards(sample_dataset)),
             (tiny_benchmark[0], aggregate_tag_rewards(tiny_benchmark[0])),
             (wide, aggregate_tag_rewards(wide)), (wide, aggregate_tag_rewards(partial))]
    for dataset, table in cases:
        got = build_targets(dataset, table, beta, temperature)
        expected = _build_targets_by_row(dataset, table, beta, temperature)
        assert got.shape == expected.shape == (len(dataset), len(dataset.registry))
        assert got.tobytes() == expected.tobytes()


def test_build_targets_rejects_what_the_per_row_loop_rejects():
    ds = _wide_dataset()
    table = aggregate_tag_rewards(ds)
    with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\], got 1.5"):
        build_targets(ds, table, 1.5, 1.0)
    with pytest.raises(ValueError, match="temperature must be positive, got 0.0"):
        build_targets(ds, table, 0.3, 0.0)
    with pytest.raises(ValueError, match="temperature must be finite, got nan"):
        build_targets(ds, table, 0.3, np.nan)
    with pytest.raises(ValueError, match="temperature must be finite, got inf"):
        build_targets(ds, table, 0.3, np.inf)
    broken = TagRewardTable(means={**table.means, "y": np.full(9, np.inf)},
                            counts=table.counts, global_mean=table.global_mean)
    with pytest.raises(ValueError, match="non-finite"):
        build_targets(ds, broken, 0.3, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        _build_targets_by_row(ds, broken, 0.3, 1.0)
    assert build_targets(ds.with_rows([]), table, 0.3, 1.0).shape == (0, 9)


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


def test_train_report_phase_times_fit_in_wall_time(sample_dataset):
    table = aggregate_tag_rewards(sample_dataset)
    model = init_router(sample_dataset.registry, FeaturizerConfig(dimension=4096), seed=0)
    _, report = train(model, sample_dataset, table, TrainConfig(epochs=3))
    phases = [report.featurize_s, report.targets_s, report.optimize_s, report.decay_s]
    assert all(p >= 0 for p in phases)
    assert report.featurize_s > 0 and report.optimize_s > 0
    assert sum(phases) <= report.wall_seconds


# Each runs in a fresh interpreter, where scipy.sparse is not imported yet.
_COLD_SETUP = """
import json
from dataclasses import asdict, replace
from rewardroute import (FeaturizerConfig, SyntheticSpec, TrainConfig, aggregate_tag_rewards,
                         beta_ablation, init_router, load_dataset, load_registry, train)
from rewardroute.fixtures import fixture_path
"""
_COLD_RUNS = {
    "train": """
registry = load_registry(fixture_path("registry.json"))
dataset = load_dataset(fixture_path("sample_dataset.jsonl"), registry)
model = init_router(registry, FeaturizerConfig(dimension=4096))
_, report = train(model, dataset, aggregate_tag_rewards(dataset), TrainConfig(epochs=3))
""",
    "beta_ablation": """
spec = replace(SyntheticSpec.from_file(fixture_path("synthetic_spec.json")), queries_per_cluster=20)
report = beta_ablation(spec, [0.0, 1.0], TrainConfig(epochs=3)).phases
""",
}


@pytest.mark.parametrize("run", sorted(_COLD_RUNS))
def test_phase_times_add_up_in_a_fresh_interpreter(run):
    """featurize_s times the featurizing alone, not the first import of scipy.sparse."""
    script = _COLD_SETUP + _COLD_RUNS[run] + "print(json.dumps(asdict(report)))\n"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["featurize_s"] < 0.05  # with the import inside, it read 0.15-0.22 s
    phases = ("featurize_s", "targets_s", "optimize_s", "decay_s")
    assert sum(report[p] for p in phases) <= report["wall_seconds"]


def _stepwise_decay(block, steps_per_epoch, config):
    """One whole-block L2 step at a time: the replay _decay must reproduce."""
    w = block.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            for _ in range(steps_per_epoch):
                w -= config.learning_rate * (config.l2_penalty * w)
            if not np.all(np.isfinite(w)):
                return w, epoch
    return w, None


def test_decay_replay_matches_stepwise_decay_across_chunks():
    block = np.random.default_rng(0).uniform(-0.01, 0.01, size=(3, _DECAY_CHUNK))
    config = TrainConfig(learning_rate=0.3, l2_penalty=0.7, epochs=4)
    decayed, nonfinite_epoch = _decay(block, 5, config)
    expected, _ = _stepwise_decay(block, 5, config)
    assert nonfinite_epoch is None
    assert decayed.tobytes() == expected.tobytes()
    assert decayed.shape == block.shape


@pytest.mark.parametrize("where", [(0, 0), (1, -1)])
def test_decay_reports_the_first_nonfinite_epoch_of_any_chunk(where):
    # lr * l2 = 3: each step multiplies a weight by -2, so 1e-3 overflows in
    # epoch 344 and 1e300 in epoch 8, whether its chunk is replayed first or last.
    block = np.full((2, _DECAY_CHUNK + 7), 1e-3)
    config = TrainConfig(learning_rate=0.1, l2_penalty=30.0, epochs=400)
    assert _decay(block, 3, config)[1] == _stepwise_decay(block, 3, config)[1] == 343
    block[where] = 1e300
    assert _decay(block, 3, config)[1] == _stepwise_decay(block, 3, config)[1] == 7


_EXTREME_WEIGHTS = np.array([[np.finfo(float).max, -np.finfo(float).max, 1e-310, -0.3, 5e-324]])


@pytest.mark.parametrize("lr, l2", [(0.1, 1e-6), (0.5, 1.0), (1.0, 0.5), (1e300, 1e-301),
                                    (1e-300, 1.0), (0.1, 0.0)])
def test_l2_step_that_cannot_grow_keeps_every_weight_in_its_range(lr, l2):
    config = TrainConfig(learning_rate=lr, l2_penalty=l2, epochs=3)
    assert not _l2_can_grow(config)
    decayed, nonfinite_epoch = _decay(_EXTREME_WEIGHTS, 4, config)
    assert nonfinite_epoch is None
    assert np.all(np.abs(decayed) <= np.abs(_EXTREME_WEIGHTS))
    assert np.all(np.sign(decayed) * np.sign(_EXTREME_WEIGHTS) >= 0)


@pytest.mark.parametrize("lr, l2, nonfinite_epoch", [
    (0.01, 30.0, 0),   # lr * l2 is small, but l2 * w overflows for the largest weights
    (0.1, 30.0, 0),    # lr * l2 = 3: every step doubles a weight
    (1.0, 0.6, None),  # a step that shrinks every weight, but the rule cannot tell
])
def test_l2_step_that_can_grow(lr, l2, nonfinite_epoch):
    config = TrainConfig(learning_rate=lr, l2_penalty=l2, epochs=3)
    assert _l2_can_grow(config)
    assert _decay(_EXTREME_WEIGHTS, 4, config)[1] == nonfinite_epoch


def _featureless_rows(registry, count):
    """Rows that _lockstep_case featurizes as blank text: all-zero feature rows."""
    rng = np.random.default_rng(8)
    texts = ["ox", "an ox", "go", "be it", "so"]
    return [DatasetRow(query=Query(id=f"empty-{i}", text=texts[i % len(texts)],
                                   tags=frozenset({"tides"} if i % 2 else ())),
                       rewards=rng.uniform(0, 1, size=len(registry)))
            for i in range(count)]


_SPARSE_FEATURIZER = FeaturizerConfig(dimension=512)


def _lockstep_case(tiny_benchmark, rows):
    dataset, _ = tiny_benchmark
    if rows == "mixed":  # the benchmark's rows with featureless rows among them
        extra = _featureless_rows(dataset.registry, 9)
        dataset = dataset.with_rows(list(dataset.rows[:30]) + extra + list(dataset.rows[30:]))
    elif rows == "featureless":
        dataset = dataset.with_rows(_featureless_rows(dataset.registry, 7))
    # A blank text featurizes to a zero row; queries may not be blank, so
    # the featureless rows' texts are replaced here, not in the dataset.
    x = featurize_matrix(_SPARSE_FEATURIZER, ["" if r.query.id.startswith("empty-")
                                              else r.query.text for r in dataset.rows])
    assert (np.diff(x.indptr) == 0).any()
    return dataset, x


@pytest.mark.parametrize("count", [1, 2, 5])
@pytest.mark.parametrize("rows", ["mixed", "featureless"])
@pytest.mark.parametrize("config", [
    TrainConfig(epochs=6, batch_size=5, seed=2),
    TrainConfig(learning_rate=0.7, epochs=4, batch_size=64, l2_penalty=0.05, seed=7),
    TrainConfig(learning_rate=0.3, epochs=3, batch_size=1, temperature=0.5,
                l2_penalty=0.0, seed=1),
])
def test_lockstep_descent_matches_each_target_alone_bitwise(tiny_benchmark, count, rows,
                                                             config):
    dataset, x = _lockstep_case(tiny_benchmark, rows)
    table = aggregate_tag_rewards(dataset)
    model = init_router(dataset.registry, _SPARSE_FEATURIZER, seed=config.seed)
    targets = [build_targets(dataset, table, beta, config.temperature)
               for beta in [0.0, 0.3, 1.0, 0.5, 0.9][:count]]
    columns, fitted = _fit(model, x, targets, config, TrainReport())
    assert columns.tolist() == list(range(model.dimension))
    assert len(fitted) == count
    for target, (weights, bias, losses) in zip(targets, fitted):
        assert weights.shape == model.weights.shape
        assert weights.flags.f_contiguous
        _, [(alone_weights, alone_bias, alone_losses)] = _fit(model, x, [target], config,
                                                              TrainReport())
        assert weights.tobytes() == alone_weights.tobytes()
        assert bias.tobytes() == alone_bias.tobytes()
        assert losses == alone_losses
        assert len(losses) == config.epochs


def _first_divergence(model, x, targets, config):
    """Train each target alone, in list order, and return the first DivergenceError."""
    for target in targets:
        try:
            _fit(model, x, [target], config, TrainReport())
        except DivergenceError as exc:
            return exc
    return None


# Targets scaled by 3e301 overflow the logits after 4 finite epochs, by 1e302
# after 1, and unscaled ones never do.
@pytest.mark.parametrize("scales", [
    [3e301, 1e302, 1.0],   # the first to diverge in time is not the first in the list
    [1.0, 1e302, 3e301],   # the first target never diverges
    [1.0, 1.0, 3e301],     # only the last one diverges
    [1e302, 3e301, 1.0],
])
def test_lockstep_divergence_raises_what_training_in_order_raises(tiny_benchmark, scales):
    dataset, _ = tiny_benchmark
    table = aggregate_tag_rewards(dataset)
    model = init_router(dataset.registry, FeaturizerConfig(dimension=2048), seed=1)
    x = featurize_matrix(model.featurizer_config, [r.query.text for r in dataset.rows])
    config = TrainConfig(learning_rate=1e6, epochs=12, batch_size=16, seed=1)
    targets = [build_targets(dataset, table, beta, 1.0) * scale
               for beta, scale in zip([0.0, 0.5, 1.0], scales)]
    expected = _first_divergence(model, x, targets, config)
    assert expected is not None and expected.last_finite_loss is not None
    with pytest.raises(DivergenceError) as got:
        _fit(model, x, targets, config, TrainReport())
    assert got.value.last_finite_loss == expected.last_finite_loss
    assert str(got.value) == str(expected)


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


def test_divergence_names_what_went_non_finite():
    ds = _overfit_dataset()
    table = aggregate_tag_rewards(ds)
    model = init_router(ds.registry, FeaturizerConfig(dimension=512), seed=0)
    with pytest.raises(DivergenceError, match="non-finite loss"):
        train(model, ds, table, TrainConfig(learning_rate=1e300, epochs=8))
    # Columns no row touches start near 1e300 and overflow alone; the loss
    # never sees them and stays finite.
    x = featurize_matrix(model.featurizer_config, [r.query.text for r in ds.rows])
    weights = model.weights.copy()
    weights[:, np.setdiff1d(np.arange(512), x.indices)] *= 1e302
    config = TrainConfig(learning_rate=0.1, l2_penalty=30, epochs=40, batch_size=2)
    with pytest.raises(DivergenceError) as excinfo:
        train(replace(model, weights=weights), ds, table, config)
    assert "non-finite weight" in str(excinfo.value)
    assert "non-finite loss" not in str(excinfo.value)


@pytest.mark.parametrize("name", ["learning_rate", "temperature", "l2_penalty"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_train_config_rejects_non_finite_numbers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        TrainConfig(**{name: value})


def test_train_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        TrainConfig(seed=-1)


@pytest.mark.parametrize("name", ["epochs", "batch_size"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "4", None, 0, -2])
def test_train_config_rejects_a_count_that_is_not_a_positive_integer(name, value):
    # Unchecked, a float or bool count reaches the descent and fails there
    # with a TypeError that names no field.
    with pytest.raises(ValueError,
                       match=rf"^{name} must be a positive integer, got {re.escape(repr(value))}$"):
        TrainConfig(**{name: value})


def test_train_config_takes_numpy_integer_counts():
    config = TrainConfig(epochs=np.int64(3), batch_size=np.int32(8))
    assert (config.epochs, config.batch_size) == (3, 8)


def test_train_rejects_registry_mismatch():
    ds = _overfit_dataset()
    table = aggregate_tag_rewards(ds)
    other = ModelRegistry(["x", "y", "z"])
    model = init_router(other, FeaturizerConfig(dimension=512), seed=0)
    with pytest.raises(ValueError, match="registry"):
        train(model, ds, table, TrainConfig(epochs=1))


def test_route_tie_breaks_to_lowest_index():
    reg = ModelRegistry(["first", "second", "third"])
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


def test_init_router_draws_straight_into_the_column_major_layout():
    reg = ModelRegistry(tuple(f"m{i}" for i in range(6)))
    tracemalloc.start()
    try:
        model = init_router(reg, FeaturizerConfig(dimension=2 ** 16), seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The weights plus one row of draws (1/6) or the isfinite mask (1/8);
    # drawing row-major and copying would peak at twice the weights.
    assert peak <= 1.5 * model.weights.nbytes, f"peak {peak / model.weights.nbytes:.2f}x"
    assert model.weights.flags.f_contiguous
    one_call = np.random.default_rng(3).uniform(-0.01, 0.01, size=(6, 2 ** 16))
    assert model.weights.tobytes() == one_call.tobytes()


def test_init_router_seeded_and_bounded():
    reg = ModelRegistry(["a", "b"])
    m1 = init_router(reg, FeaturizerConfig(dimension=256), seed=7)
    m2 = init_router(reg, FeaturizerConfig(dimension=256), seed=7)
    np.testing.assert_array_equal(m1.weights, m2.weights)
    assert np.abs(m1.weights).max() <= 0.01
    np.testing.assert_array_equal(m1.bias, np.zeros(2))
