"""Linear softmax router trained by KL distillation of reward targets.

The router is a multinomial logistic regression over hashed text features:
logits = W @ f + b, routing distribution = softmax(logits). Training runs
plain mini-batch gradient descent on the mean KL divergence between the
target distribution (softmax of tag-enhanced rewards) and the router's
prediction, plus an L2 penalty on the weights. Everything is seeded and
single-threaded, so identical inputs give bit-identical trained models.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from .data import ModelRegistry, RewardDataset
from .errors import DivergenceError
from .features import FeaturizerConfig, featurize_matrix
from .rewards import TagRewardTable, check_distribution, enhance_labels, normalize_rewards

# Probabilities are clamped here before any log, in loss and gradient alike.
PROB_CLAMP = 1e-12

INIT_SCALE = 0.01

MODEL_FORMAT_VERSION = 1


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
    shuffle: bool = True
    # Ablation switch: distill KL(pred || target) instead of KL(target || pred).
    reverse_kl: bool = False

    def __post_init__(self):
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
    return float(_kl_rows(p[None, :], t[None, :], reverse=False)[0])


def _kl_rows(pred: np.ndarray, target: np.ndarray, reverse: bool) -> np.ndarray:
    """Per-row KL over a batch; pred rows are softmax outputs (> 0)."""
    logp = np.log(np.maximum(pred, PROB_CLAMP))
    if reverse:
        logt = np.log(np.maximum(target, PROB_CLAMP))
        return (pred * (logp - logt)).sum(axis=1)
    contrib = np.where(target > 0, target * (np.log(np.maximum(target, PROB_CLAMP)) - logp), 0.0)
    return contrib.sum(axis=1)


def kl_objective(
    weights: np.ndarray,
    bias: np.ndarray,
    x: sparse.csr_matrix,
    targets: np.ndarray,
    l2_penalty: float = 0.0,
    reverse_kl: bool = False,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean KL loss over a batch plus L2 penalty, with analytic gradients.

    Forward direction KL(t || p): dL/dlogits = (p - t) / B.
    Reverse direction KL(p || t): dL/dlogits_k = p_k (ln(p_k/t_k) - KL_row) / B.
    The penalty 0.5 * l2 * ||W||^2 applies to weights only, not the bias.
    """
    n = x.shape[0]
    logits = x @ weights.T + bias
    pred = _softmax_rows(logits)
    rows = _kl_rows(pred, targets, reverse_kl)
    loss = float(rows.mean()) + 0.5 * l2_penalty * float((weights ** 2).sum())
    if reverse_kl:
        logt = np.log(np.maximum(targets, PROB_CLAMP))
        logp = np.log(np.maximum(pred, PROB_CLAMP))
        g = pred * ((logp - logt) - rows[:, None]) / n
    else:
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
    excluded). Raises DivergenceError when the loss goes non-finite.
    """
    config = config or TrainConfig()
    if dataset.registry.ids != model.registry.ids:
        raise ValueError("dataset registry does not match the model registry")

    start = time.perf_counter()
    texts = [row.query.text for row in dataset.rows]
    x = featurize_matrix(model.featurizer_config, texts)
    targets = build_targets(dataset, table, config.beta, config.temperature)
    trained, report = _optimize(model, x, targets, config)
    report.wall_seconds = time.perf_counter() - start
    return trained, report


def _optimize(
    model: RouterModel,
    x: sparse.csr_matrix,
    targets: np.ndarray,
    config: TrainConfig,
) -> tuple[RouterModel, TrainReport]:
    """The gradient-descent loop of train() on already featurized rows."""
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    rng = np.random.default_rng(config.seed)
    weights = model.weights.copy()
    bias = model.bias.copy()

    report = TrainReport(row_count=n)
    last_finite: float | None = None
    # Overflow is handled by the explicit finiteness check below, not warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            order = rng.permutation(n) if config.shuffle else np.arange(n)
            for lo in range(0, n, config.batch_size):
                idx = order[lo:lo + config.batch_size]
                _, grad_w, grad_b = kl_objective(
                    weights, bias, x[idx], targets[idx],
                    l2_penalty=config.l2_penalty, reverse_kl=config.reverse_kl,
                )
                weights -= config.learning_rate * grad_w
                bias -= config.learning_rate * grad_b
            pred = _softmax_rows(x @ weights.T + bias)
            epoch_loss = float(_kl_rows(pred, targets, config.reverse_kl).mean())
            if not np.isfinite(epoch_loss) or not np.all(np.isfinite(weights)):
                raise DivergenceError(
                    f"training diverged (non-finite loss) at learning_rate="
                    f"{config.learning_rate}; last finite loss was {last_finite}",
                    last_finite_loss=last_finite,
                )
            last_finite = epoch_loss
            report.epoch_losses.append(epoch_loss)

    report.final_loss = report.epoch_losses[-1]
    return replace(model, weights=weights, bias=bias), report


def route(model: RouterModel, text: str) -> tuple[str, np.ndarray]:
    """Pick the backend for a query: argmax of the routing distribution.

    Ties resolve to the lowest registry index. Returns (model_id, probs).
    """
    probs = forward(model, featurize_matrix(model.featurizer_config, [text]))[0]
    return model.registry.ids[int(np.argmax(probs))], probs
