"""Linear softmax router trained by KL distillation of reward targets.

The router is a multinomial logistic regression over hashed text features:
logits = W @ f + b, routing distribution = softmax(logits). Training runs
plain mini-batch gradient descent on the mean KL divergence between the
target distribution (softmax of tag-enhanced rewards) and the router's
prediction, plus an L2 penalty on the weights. Everything is seeded and
single-threaded, so identical inputs give bit-identical trained models.

Training works on the feature columns the training rows touch: a few
thousand of the 65,536 hashed columns. The descent runs on those columns
with the rows compacted to them. Every other column has an exactly zero
data gradient, so all it ever takes is the L2 step w -= lr * (l2 * w)
once per mini-batch. train() replays that step on its own, and the result
is bit-identical to descending on the full K x D matrix. A caller that
reads only some columns after training (the beta ablation reads the eval
split's) adds those to the descent instead, and skips the replay of the
rest whenever the L2 step cannot make a weight grow.

The descent trains several target matrices in lockstep, one per beta of
an ablation, on the same permutations and mini-batches. Their transposed
weights sit side by side in one |columns| x (B*K) block and the softmax
is taken per group of K, so each mini-batch makes one set of sparse
products for all of them. Those products compute every output column on
its own and in the same order, so each target's weights, bias and losses
are bit-identical to training it alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from .data import ModelRegistry, RewardDataset
from .errors import DivergenceError
from .features import FeaturizerConfig, _hashed_chunks, featurize_matrix
from .rewards import TagRewardTable, check_distribution, tag_mean_for_query

# Probabilities are clamped here before any log, in loss and gradient alike.
PROB_CLAMP = 1e-12

INIT_SCALE = 0.01

MODEL_FORMAT_VERSION = 1

# The untouched-column replay runs this many weights at a time through all
# of its steps, so each chunk stays in cache.
_DECAY_CHUNK = 2 ** 15


@dataclass(frozen=True)
class RouterModel:
    """Immutable router parameters plus everything needed to reproduce inference."""

    weights: np.ndarray  # (K, D) float64
    bias: np.ndarray     # (K,) float64
    featurizer_config: FeaturizerConfig
    registry: ModelRegistry
    version: int = MODEL_FORMAT_VERSION

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        k = len(self.registry)
        if k < 2:
            raise ValueError(f"routing needs at least 2 candidate models, got {k}")
        if w.shape != (k, self.featurizer_config.dimension):
            raise ValueError(
                f"weights shape {w.shape} does not match "
                f"(K={k}, D={self.featurizer_config.dimension})"
            )
        if b.shape != (k,):
            raise ValueError(f"bias shape {b.shape} does not match K={k}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("model parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def num_models(self) -> int:
        return len(self.registry)

    @property
    def dimension(self) -> int:
        return self.featurizer_config.dimension


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 20
    batch_size: int = 64
    beta: float = 0.3
    temperature: float = 1.0
    l2_penalty: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "temperature", "l2_penalty"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be a positive integer")
        if self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be non-negative")


@dataclass
class TrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    final_loss: float = float("nan")
    wall_seconds: float = 0.0
    row_count: int = 0
    # Phases of wall_seconds: featurizing the rows, building the targets,
    # the descent on the touched columns and the untouched-column replay.
    featurize_s: float = 0.0
    targets_s: float = 0.0
    optimize_s: float = 0.0
    decay_s: float = 0.0


def init_router(
    registry: ModelRegistry,
    featurizer_config: FeaturizerConfig | None = None,
    seed: int = 0,
) -> RouterModel:
    """Fresh router: weights uniform in [-0.01, 0.01] from the seed, bias zero."""
    config = featurizer_config or FeaturizerConfig()
    k = len(registry)
    if k < 2:
        raise ValueError(f"routing needs at least 2 candidate models, got {k}")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(k, config.dimension))
    bias = np.zeros(k, dtype=np.float64)
    return RouterModel(weights=weights, bias=bias, featurizer_config=config,
                       registry=registry)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward(model: RouterModel, x: sparse.csr_matrix) -> np.ndarray:
    """Routing distributions softmax(W f + b), one row per CSR row of x.

    Each row's logits gather only the weight columns of its nonzeros, so a
    single query never touches the full K x D weight matrix.
    """
    if x.shape[1] != model.dimension:
        raise ValueError(
            f"feature dimension {x.shape[1]} does not match "
            f"model dimension {model.dimension}"
        )
    return _gather_forward(model.weights, model.bias, x)


def _gather_forward(weights: np.ndarray, bias: np.ndarray, x: sparse.csr_matrix) -> np.ndarray:
    """forward() on a C-ordered (K, x.shape[1]) weight matrix of any width."""
    logits = np.empty((x.shape[0], weights.shape[0]), dtype=np.float64)
    for i in range(x.shape[0]):
        lo, hi = x.indptr[i], x.indptr[i + 1]
        logits[i] = weights[:, x.indices[lo:hi]] @ x.data[lo:hi]
    return _softmax_rows(logits + bias)


def kl_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """KL(target || pred) in nats for one pair of distributions.

    Zero target entries contribute nothing; entries are clamped at
    PROB_CLAMP before the log, as in training.
    """
    p = check_distribution(pred)
    t = check_distribution(target)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: pred {p.shape} vs target {t.shape}")
    return float(_kl_rows(p[None, :], t[None, :])[0])


def _kl_rows(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-row KL(target || pred) over a batch; pred rows are softmax outputs (> 0)."""
    logp = np.log(np.maximum(pred, PROB_CLAMP))
    contrib = np.where(target > 0, target * (np.log(np.maximum(target, PROB_CLAMP)) - logp), 0.0)
    return contrib.sum(axis=1)


def kl_objective(
    weights: np.ndarray,
    bias: np.ndarray,
    x: sparse.csr_matrix,
    targets: np.ndarray,
    l2_penalty: float = 0.0,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean KL loss over a batch plus L2 penalty, with analytic gradients.

    Forward direction KL(t || p): dL/dlogits = (p - t) / B.
    The penalty 0.5 * l2 * ||W||^2 applies to weights only, not the bias.
    """
    n = x.shape[0]
    logits = x @ weights.T + bias
    pred = _softmax_rows(logits)
    rows = _kl_rows(pred, targets)
    loss = float(rows.mean()) + 0.5 * l2_penalty * float((weights ** 2).sum())
    g = (pred - targets) / n
    grad_w = (x.T @ g).T + l2_penalty * weights
    grad_b = g.sum(axis=0)
    return loss, grad_w, grad_b


def build_targets(
    dataset: RewardDataset,
    table: TagRewardTable,
    beta: float,
    temperature: float,
) -> np.ndarray:
    """Distillation targets: softmax of tag-enhanced rewards, one row per query.

    Row by row the same bits as enhance_labels followed by normalize_rewards,
    with all rows blended and normalized at once and each distinct tag set's
    mean computed once.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    k = len(dataset.registry)
    if len(dataset) == 0:
        return np.empty((0, k), dtype=np.float64)
    tag_means: dict[frozenset[str], np.ndarray] = {}
    for row in dataset.rows:
        if row.query.tags not in tag_means:
            tag_means[row.query.tags] = tag_mean_for_query(row.query, table)
    r_tag = np.stack([tag_means[row.query.tags] for row in dataset.rows])
    enhanced = beta * dataset.reward_matrix() + (1.0 - beta) * r_tag
    if not np.all(np.isfinite(enhanced)):
        raise ValueError("reward vector has non-finite entries")
    return _softmax_rows(enhanced / temperature)


def train(
    model: RouterModel,
    dataset: RewardDataset,
    table: TagRewardTable,
    config: TrainConfig | None = None,
) -> tuple[RouterModel, TrainReport]:
    """Distill reward targets into the router by mini-batch gradient descent.

    The input model is left untouched; a trained copy is returned together
    with a report carrying the mean dataset KL after each epoch (penalty
    excluded) and the time spent in each phase. Raises DivergenceError when
    the loss or a weight goes non-finite.
    """
    config = config or TrainConfig()
    if dataset.registry.ids != model.registry.ids:
        raise ValueError("dataset registry does not match the model registry")

    start = time.perf_counter()
    texts = [row.query.text for row in dataset.rows]
    x = featurize_matrix(model.featurizer_config, texts)
    featurized = time.perf_counter()
    targets = build_targets(dataset, table, config.beta, config.temperature)
    targeted = time.perf_counter()
    compacted = _compact(model, x, config)
    block, bias, (losses,) = _optimize(model, compacted, [targets], config)
    weights = np.empty_like(model.weights)
    weights[:, compacted.columns] = block.T
    weights[:, compacted.rest] = compacted.decayed
    report = TrainReport(epoch_losses=losses, final_loss=losses[-1], row_count=len(dataset))
    report.featurize_s = featurized - start
    report.targets_s = targeted - featurized
    report.decay_s = compacted.decay_s
    report.optimize_s = time.perf_counter() - targeted - compacted.decay_s
    report.wall_seconds = time.perf_counter() - start
    return replace(model, weights=weights, bias=bias), report


@dataclass(frozen=True)
class _Compacted:
    """Training rows compacted to the columns the descent runs on, plus the rest.

    columns are the ones the training rows touch, plus any the caller reads
    after training; one that no training row touches takes the same L2-only
    step in the descent as in the replay. When the caller reads every
    column, as train() does, rest is replayed into decayed. When it reads
    none of rest, the replay runs only if an L2 step can make a weight grow
    (_l2_can_grow), and decayed is None otherwise. nonfinite_epoch is the
    first epoch after which a replayed weight is non-finite, or None.
    Nothing here depends on the targets, beta or seed.
    """

    x: sparse.csr_matrix          # (n, |columns|)
    columns: np.ndarray           # sorted ids of the columns the descent runs on
    rest: np.ndarray              # the other column ids, sorted
    decayed: np.ndarray | None    # (K, |rest|), or None when the replay was skipped
    nonfinite_epoch: int | None
    decay_s: float


def _compact(model: RouterModel, x: sparse.csr_matrix, config: TrainConfig,
             read: np.ndarray | None = None) -> _Compacted:
    """Split the weight columns into those the descent runs on and the rest.

    read holds the column ids the caller reads after training besides the
    ones x touches; None means it reads every column.
    """
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    columns = np.unique(x.indices) if read is None else np.union1d(x.indices, read)
    rest = np.setdiff1d(np.arange(model.dimension), columns, assume_unique=True)
    x_columns = _to_columns(x, columns)
    start = time.perf_counter()
    decayed, nonfinite_epoch = None, None
    if read is None or _l2_can_grow(config):
        steps_per_epoch = -(-n // config.batch_size)
        decayed, nonfinite_epoch = _decay(model.weights[:, rest], steps_per_epoch, config)
    return _Compacted(x=x_columns, columns=columns, rest=rest, decayed=decayed,
                      nonfinite_epoch=nonfinite_epoch, decay_s=time.perf_counter() - start)


def _to_columns(x: sparse.csr_matrix, columns: np.ndarray) -> sparse.csr_matrix:
    """x with each column renumbered to its position in the sorted ids `columns`.

    columns must hold every column that x touches.
    """
    return sparse.csr_matrix(
        (x.data, np.searchsorted(columns, x.indices).astype(x.indices.dtype), x.indptr),
        shape=(x.shape[0], len(columns)),
    )


def _l2_can_grow(config: TrainConfig) -> bool:
    """Whether the L2-only step w -= lr * (l2 * w) can make a weight grow.

    It cannot when l2 <= 1 and lr * l2 <= 0.5. Then fl(w * l2) is no larger
    than |w|, so it cannot overflow, and the step fl(fl(w * l2) * lr) has
    w's sign and at most half of |w| up to rounding. So w - step stays in
    [0, w]: a finite weight stays finite, and skipping the replay of columns
    nobody reads cannot hide a divergence.
    """
    lr, l2 = config.learning_rate, config.l2_penalty
    return not (l2 <= 1 and lr * l2 <= 0.5)


def _decay(block: np.ndarray, steps_per_epoch: int, config: TrainConfig,
           ) -> tuple[np.ndarray, int | None]:
    """Replay the L2-only step w -= lr * (l2 * w) on weight columns no row touches.

    Such a column's data gradient is an exact 0.0, and w -= lr * (0.0 + l2 * w)
    leaves the same bits as this step, so it is what the full-matrix descent
    does to the column. Each weight evolves alone, so the block is replayed
    chunk by chunk, an epoch at a time. Returns the block after
    config.epochs epochs and the first epoch (0-based) that left a
    non-finite weight, or None. Training stops at that epoch, so no chunk
    is replayed past it.
    """
    block = np.array(block, order="C")  # replayed in place: never the caller's array
    lr, l2 = config.learning_rate, config.l2_penalty
    if l2 == 0:  # the step is w -= lr * 0.0, which changes no bit
        return block, None
    nonfinite_epoch = None
    flat = block.reshape(-1)
    scratch = np.empty(min(flat.size, _DECAY_CHUNK))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, flat.size, _DECAY_CHUNK):
            w = flat[lo:lo + _DECAY_CHUNK]
            step = scratch[:w.size]
            for epoch in range(config.epochs if nonfinite_epoch is None else nonfinite_epoch):
                for _ in range(steps_per_epoch):
                    np.multiply(w, l2, out=step)
                    np.multiply(step, lr, out=step)
                    np.subtract(w, step, out=w)
                if not np.all(np.isfinite(w)):
                    nonfinite_epoch = epoch
                    break
    return block, nonfinite_epoch


def _softmax_groups(logits: np.ndarray, k: int) -> np.ndarray:
    """_softmax_rows on each group of k columns of a C-ordered logits matrix."""
    return _softmax_rows(logits.reshape(-1, k)).reshape(logits.shape)


def _batch_grads(weights_t: np.ndarray, bias: np.ndarray, x: sparse.csr_matrix,
                 targets: np.ndarray, l2_penalty: float, k: int,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """kl_objective's gradients without its loss, on a stacked (|columns| x B*K) block."""
    g = (_softmax_groups(x @ weights_t + bias, k) - targets) / x.shape[0]
    return x.T @ g + l2_penalty * weights_t, g.sum(axis=0)


def _optimize(
    model: RouterModel,
    compacted: _Compacted,
    targets: list[np.ndarray],
    config: TrainConfig,
) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """The gradient-descent loop of train(), on B target matrices in lockstep.

    Returns the trained (|columns| x B*K) weight block, whose columns
    b*K to (b+1)*K - 1 are target b's transposed weights, the (B*K,) bias
    laid out the same way, and each target's epoch losses. When targets
    diverge, raises the DivergenceError of the first in list order, as
    training them one after another would. A diverged target's non-finite
    columns never enter another target's columns.
    """
    x = compacted.x
    n, k, count = x.shape[0], model.num_models, len(targets)
    rng = np.random.default_rng(config.seed)
    # C-ordered, so CSR products take it as is.
    weights_t = np.concatenate([model.weights[:, compacted.columns].T] * count, axis=1)
    bias = np.concatenate([model.bias] * count)
    stacked = np.concatenate(targets, axis=1)

    losses: list[list[float]] = [[] for _ in targets]
    failures: list[DivergenceError | None] = [None] * count
    # Overflow is handled by the explicit finiteness check below, not warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            for lo in range(0, n, config.batch_size):
                idx = order[lo:lo + config.batch_size]
                grad_w, grad_b = _batch_grads(weights_t, bias, x[idx], stacked[idx],
                                              config.l2_penalty, k)
                weights_t -= config.learning_rate * grad_w
                bias -= config.learning_rate * grad_b
            pred = _softmax_groups(x @ weights_t + bias, k)
            # One contiguous row of per-query KL per target, so each mean sums
            # in the same order as a lone target's.
            kl = _kl_rows(pred.reshape(-1, k), stacked.reshape(-1, k)).reshape(n, count).T.copy()
            weights_ok = np.isfinite(weights_t).reshape(-1, count, k).all(axis=(0, 2))
            for b in range(count):
                if failures[b] is not None:
                    continue
                epoch_loss = float(kl[b].mean())
                if np.isfinite(epoch_loss) and weights_ok[b] and epoch != compacted.nonfinite_epoch:
                    losses[b].append(epoch_loss)
                    continue
                what = "weight" if np.isfinite(epoch_loss) else "loss"
                last_finite = losses[b][-1] if losses[b] else None
                failures[b] = DivergenceError(
                    f"training diverged (non-finite {what}) at learning_rate="
                    f"{config.learning_rate}; last finite loss was {last_finite}",
                    last_finite_loss=last_finite,
                )
            if failures[0] is not None:  # no target before it is left to diverge
                break
    for failure in failures:
        if failure is not None:
            raise failure
    return weights_t, bias, losses


def route(model: RouterModel, text: str) -> tuple[str, np.ndarray]:
    """Pick the backend for a query: argmax of the routing distribution.

    Ties resolve to the lowest registry index. Returns (model_id, probs),
    bitwise equal to forward() on the featurized text, but without building
    a CSR matrix for one row.
    """
    _, indices, weights = next(_hashed_chunks(model.featurizer_config, [text]))  # one chunk
    logits = model.weights[:, indices] @ weights + model.bias
    probs = _softmax_rows(logits[None, :])[0]
    return model.registry.ids[int(np.argmax(probs))], probs
