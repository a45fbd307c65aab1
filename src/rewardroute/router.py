"""Linear softmax router trained by KL distillation of reward targets.

The router is a multinomial logistic regression over hashed text features:
logits = W @ f + b, routing distribution = softmax(logits). Training runs
plain mini-batch gradient descent on the mean KL divergence between the
target distribution (softmax of tag-enhanced rewards) and the router's
prediction, plus an L2 penalty on the weights. Everything is seeded and
single-threaded, so identical inputs give bit-identical trained models.

Training works on the feature columns the training rows touch: a few
thousand of the 65,536 hashed columns. The descent runs on that K x |u|
block with the rows compacted to it. Every other column has an exactly
zero data gradient, so all it ever takes is the L2 step w -= lr * (l2 * w)
once per mini-batch; that step is replayed on its own, and the result is
bit-identical to descending on the full K x D matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from .data import ModelRegistry, RewardDataset
from .errors import DivergenceError
from .features import FeaturizerConfig, _hashed_chunks, featurize_matrix
from .rewards import TagRewardTable, check_distribution, enhance_labels, normalize_rewards

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
    logits = np.empty((x.shape[0], model.num_models), dtype=np.float64)
    for i in range(x.shape[0]):
        lo, hi = x.indptr[i], x.indptr[i + 1]
        logits[i] = model.weights[:, x.indices[lo:hi]] @ x.data[lo:hi]
    return _softmax_rows(logits + model.bias)


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
    """Distillation targets: softmax of tag-enhanced rewards, one row per query."""
    targets = np.empty((len(dataset), len(dataset.registry)), dtype=np.float64)
    for i, row in enumerate(dataset.rows):
        enhanced = enhance_labels(row.rewards, row.query, table, beta)
        targets[i] = normalize_rewards(enhanced, temperature)
    return targets


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
    trained, report = _optimize(model, compacted, targets, config)
    report.featurize_s = featurized - start
    report.targets_s = targeted - featurized
    report.decay_s = compacted.decay_s
    report.optimize_s = time.perf_counter() - targeted - compacted.decay_s
    report.wall_seconds = time.perf_counter() - start
    return trained, report


@dataclass(frozen=True)
class _Compacted:
    """Training rows compacted to the columns they touch, plus the decayed rest.

    decayed holds the untouched columns after every L2 step of a run, and
    nonfinite_epoch the first epoch after which one of them is non-finite.
    Neither depends on the targets, beta or seed, so runs that differ only
    in those share one _Compacted.
    """

    x: sparse.csr_matrix   # (n, |touched|)
    touched: np.ndarray    # sorted column ids with a nonzero in x
    untouched: np.ndarray  # the other column ids, sorted
    decayed: np.ndarray    # (K, |untouched|)
    nonfinite_epoch: int | None
    decay_s: float


def _compact(model: RouterModel, x: sparse.csr_matrix, config: TrainConfig) -> _Compacted:
    """Split the weight columns by whether x touches them and replay the rest."""
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    touched = np.unique(x.indices)
    untouched = np.setdiff1d(np.arange(model.dimension), touched, assume_unique=True)
    x_touched = sparse.csr_matrix(
        (x.data, np.searchsorted(touched, x.indices).astype(x.indices.dtype), x.indptr),
        shape=(n, len(touched)),
    )
    start = time.perf_counter()
    steps_per_epoch = -(-n // config.batch_size)
    decayed, nonfinite_epoch = _decay(model.weights[:, untouched], steps_per_epoch, config)
    return _Compacted(x=x_touched, touched=touched, untouched=untouched, decayed=decayed,
                      nonfinite_epoch=nonfinite_epoch, decay_s=time.perf_counter() - start)


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


def _batch_grads(weights_t: np.ndarray, bias: np.ndarray, x: sparse.csr_matrix,
                 targets: np.ndarray, l2_penalty: float) -> tuple[np.ndarray, np.ndarray]:
    """kl_objective's gradients without its loss, on transposed (|touched| x K) weights."""
    g = (_softmax_rows(x @ weights_t + bias) - targets) / x.shape[0]
    return x.T @ g + l2_penalty * weights_t, g.sum(axis=0)


def _optimize(
    model: RouterModel,
    compacted: _Compacted,
    targets: np.ndarray,
    config: TrainConfig,
) -> tuple[RouterModel, TrainReport]:
    """The gradient-descent loop of train() on compacted, featurized rows."""
    x = compacted.x
    n = x.shape[0]
    rng = np.random.default_rng(config.seed)
    # Transposed (|touched| x K) and C-ordered, so CSR products take it as is.
    weights_t = model.weights[:, compacted.touched].T.copy()
    bias = model.bias.copy()

    report = TrainReport(row_count=n)
    last_finite: float | None = None
    # Overflow is handled by the explicit finiteness check below, not warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            for lo in range(0, n, config.batch_size):
                idx = order[lo:lo + config.batch_size]
                grad_w, grad_b = _batch_grads(weights_t, bias, x[idx], targets[idx],
                                              config.l2_penalty)
                weights_t -= config.learning_rate * grad_w
                bias -= config.learning_rate * grad_b
            pred = _softmax_rows(x @ weights_t + bias)
            epoch_loss = float(_kl_rows(pred, targets).mean())
            weights_ok = np.all(np.isfinite(weights_t)) and epoch != compacted.nonfinite_epoch
            if not (np.isfinite(epoch_loss) and weights_ok):
                what = "weight" if np.isfinite(epoch_loss) else "loss"
                raise DivergenceError(
                    f"training diverged (non-finite {what}) at learning_rate="
                    f"{config.learning_rate}; last finite loss was {last_finite}",
                    last_finite_loss=last_finite,
                )
            last_finite = epoch_loss
            report.epoch_losses.append(epoch_loss)

    report.final_loss = report.epoch_losses[-1]
    weights = np.empty_like(model.weights)
    weights[:, compacted.touched] = weights_t.T
    weights[:, compacted.untouched] = compacted.decayed
    return replace(model, weights=weights, bias=bias), report


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
