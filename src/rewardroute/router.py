"""Linear softmax router trained by KL distillation of reward targets.

The router is a multinomial logistic regression over hashed text features:
logits = W @ f + b, routing distribution = softmax(logits). Training runs
plain mini-batch gradient descent on the mean KL divergence between the
target distribution (rewards.build_targets: softmax of tag-enhanced
rewards) and the router's prediction, plus an L2 penalty on the weights.
Everything is seeded and single-threaded, so identical inputs give
bit-identical trained models.

train() and the beta ablation both train through _fit, and forward(),
route() and the ablation's scoring all gather through _gather_forward.

Training works on the feature columns the training rows touch: a few
thousand of the 65,536 hashed columns. The descent runs on those columns
with the rows compacted to them. Every other column has an exactly zero
data gradient, so all it ever takes is the L2 step w -= lr * (l2 * w)
once per mini-batch. _fit replays that step on its own, and the result
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

The descent builds no scipy matrix. It keeps the compacted rows as plain
CSR arrays and hands them to the compiled kernels that scipy's own
operators call (_csr_kernel): csr_row_index gathers a mini-batch's rows
as x[idx] would, csr_matvecs computes xb @ W and csc_matvecs xb.T @ g.
Same kernels, same inputs, same bits, without the per-call checks and
object construction of scipy's operators, which cost more per mini-batch
than the products themselves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .data import ModelRegistry, RewardDataset
from .errors import DivergenceError
from .features import FeaturizerConfig, _hashed_chunks, featurize_matrix
from .rewards import TagRewardTable, build_targets, check_beta, check_temperature, softmax_rows

if TYPE_CHECKING:
    from scipy import sparse

# Probabilities are clamped here before any log, in loss and gradient alike.
PROB_CLAMP = 1e-12

INIT_SCALE = 0.01

MODEL_FORMAT_VERSION = 1

# The untouched-column replay runs this many weights at a time through all
# of its steps, so each chunk stays in cache.
_DECAY_CHUNK = 2 ** 15

# A CSR matrix as (indptr, indices, data, n_cols): what the descent hands to
# scipy's compiled kernels in place of a scipy matrix object.
_Csr = tuple[np.ndarray, np.ndarray, np.ndarray, int]


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
        for name in ("learning_rate", "l2_penalty"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        check_temperature(self.temperature)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be a positive integer")
        if self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        check_beta(self.beta)
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
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(len(registry), config.dimension))
    bias = np.zeros(len(registry), dtype=np.float64)
    return RouterModel(weights=weights, bias=bias, featurizer_config=config,
                       registry=registry)


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
    return _gather_forward(model.weights, model.bias, x.indptr, x.indices, x.data)


def _gather_forward(weights: np.ndarray, bias: np.ndarray, indptr, indices: np.ndarray,
                    data: np.ndarray) -> np.ndarray:
    """forward() on a batch's CSR arrays and a C-ordered (K, width) weight matrix."""
    logits = np.empty((len(indptr) - 1, weights.shape[0]), dtype=np.float64)
    for i in range(len(logits)):
        lo, hi = indptr[i], indptr[i + 1]
        logits[i] = weights[:, indices[lo:hi]] @ data[lo:hi]
    return softmax_rows(logits + bias)


def _kl_rows(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-row KL(target || pred) in nats over a batch; pred rows are softmax outputs (> 0).

    Zero target entries contribute nothing; entries are clamped at PROB_CLAMP before the log.
    """
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
    The prediction and gradients come from the trainer's _batch_grads, so
    a check of these gradients checks the ones train() descends on. Like
    the trainer, it runs them on the columns x touches; every other
    column's gradient is 0.0 + l2 * w, bit for bit what the full product
    gives it.
    """
    k, dimension = weights.shape
    if x.shape[1] != dimension:
        raise ValueError(f"feature dimension {x.shape[1]} does not match "
                         f"weights dimension {dimension}")
    if targets.shape != (x.shape[0], k):
        raise ValueError(f"targets shape {targets.shape} does not match "
                         f"(rows={x.shape[0]}, K={k})")
    columns, x_columns = _compact(x.tocsr(), dimension)
    pred, grad_columns, grad_b = _batch_grads(np.ascontiguousarray(weights[:, columns].T),
                                              bias, x_columns, targets, l2_penalty, k)
    grad_w = l2_penalty * weights
    grad_w += 0.0  # the untouched columns' data gradient: it turns a -0.0 into 0.0
    grad_w[:, columns] = grad_columns.T
    loss = float(_kl_rows(pred, targets).mean()) + 0.5 * l2_penalty * float((weights ** 2).sum())
    return loss, grad_w, grad_b


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

    import scipy.sparse  # noqa: F401  before the clock: featurize_s times no import
    report = TrainReport(row_count=len(dataset))
    start = time.perf_counter()
    texts = [row.query.text for row in dataset.rows]
    x = featurize_matrix(model.featurizer_config, texts)
    featurized = time.perf_counter()
    targets = build_targets(dataset, table, config.beta, config.temperature)
    report.featurize_s = featurized - start
    report.targets_s = time.perf_counter() - featurized
    _, [(weights, bias, losses)] = _fit(model, x, [targets], config, report)
    report.epoch_losses, report.final_loss = losses, losses[-1]
    report.wall_seconds = time.perf_counter() - start
    return replace(model, weights=weights, bias=bias), report


def _fit(
    model: RouterModel,
    x: sparse.csr_matrix,
    targets: list[np.ndarray],
    config: TrainConfig,
    phases: TrainReport,
    read: np.ndarray | None = None,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, list[float]]]]:
    """Train one router from model per target matrix on the rows x, in one lockstep descent.

    read holds the column ids the caller reads after training besides the
    ones x touches; None means every column. The descent runs on x's
    columns and read's. The others are replayed (_decay) only when the
    caller reads them or an L2 step can make a weight grow (_l2_can_grow),
    since that can end training. Returns the sorted ids of the columns the caller reads and, per target,
    the C-ordered (K, |columns|) weights over them, the (K,) bias and the
    epoch losses. Adds the descent's and the replay's times to phases.
    """
    start = time.perf_counter()
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    columns, x_columns = _compact(x, model.dimension, read)
    read_columns = np.arange(model.dimension) if read is None else columns
    if not targets:
        return read_columns, []
    rest = np.delete(np.arange(model.dimension), columns)
    decay_start = time.perf_counter()
    decayed, nonfinite_epoch = None, None
    if read is None or _l2_can_grow(config):
        steps_per_epoch = -(-n // config.batch_size)
        decayed, nonfinite_epoch = _decay(model.weights[:, rest], steps_per_epoch, config)
    decay_s = time.perf_counter() - decay_start
    block, bias, losses = _optimize(model.weights[:, columns], model.bias, x_columns, targets,
                                    config, nonfinite_epoch)
    k = model.num_models
    fitted = []
    for b, target_losses in enumerate(losses):
        weights = block[:, b * k:(b + 1) * k].T
        if read is None:
            full = np.empty_like(model.weights)
            full[:, columns], full[:, rest] = weights, decayed
            weights = full
        fitted.append((np.ascontiguousarray(weights), bias[b * k:(b + 1) * k], target_losses))
    phases.decay_s += decay_s
    phases.optimize_s += time.perf_counter() - start - decay_s
    return read_columns, fitted


def _compact(x: sparse.csr_matrix, dimension: int, read: np.ndarray | None = None,
             ) -> tuple[np.ndarray, _Csr]:
    """The sorted ids of the columns x or read touch, and x's rows compacted to them."""
    touched = np.zeros(dimension, dtype=bool)
    touched[x.indices] = True
    if read is not None:
        touched[read] = True
    columns = np.flatnonzero(touched)
    return columns, (x.indptr, _column_positions(columns, x.indices, dimension), x.data,
                     len(columns))


def _column_positions(columns: np.ndarray, indices: np.ndarray, dimension: int) -> np.ndarray:
    """Where each of indices sits in columns, sorted ids that must hold them all.

    The same positions as np.searchsorted(columns, indices), in indices'
    dtype, read from a lookup table over all dimension ids.
    """
    table = np.zeros(dimension, dtype=indices.dtype)
    table[columns] = np.arange(len(columns), dtype=indices.dtype)
    return table[indices]


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
    """softmax_rows on each group of k columns of a C-ordered logits matrix."""
    return softmax_rows(logits.reshape(-1, k)).reshape(logits.shape)


def _csr_kernel(op: str, x: _Csr, operand: np.ndarray):
    """Run one of the compiled kernels behind scipy's CSR operators on x's arrays.

    op "rows" returns the _Csr of the rows operand lists, as x[operand]
    would (csr_row_index); "matmul" returns x @ operand (csr_matvecs) and
    "rmatmul" x.T @ operand (csc_matvecs). Each gives the bits of scipy's
    operator: same kernel, same inputs, a zeroed float64 output.

    x must be sound the way a scipy CSR matrix is: indptr non-decreasing
    from 0 to at most len(indices), every index below n_cols. Shapes,
    dtypes and contiguity are checked here before any pointer reaches C.
    Each kernel writes only into arrays allocated here and returned, never
    into a copy numpy made, which would lose the result.
    """
    from scipy.sparse import _sparsetools  # training only: serving loads no scipy
    indptr, indices, data, n_cols = x
    n_rows = len(indptr) - 1
    if not (indptr.dtype == indices.dtype and indptr.dtype in (np.int32, np.int64)
            and data.dtype == np.float64 and n_rows >= 0 and len(indices) == len(data)
            and all(a.ndim == 1 and a.flags.c_contiguous for a in (indptr, indices, data))):
        raise ValueError("CSR arrays must be 1-D and C-contiguous: int32 or int64 indptr and "
                         "indices of one dtype, float64 data as long as indices")
    if op == "rows":
        if not (operand.ndim == 1 and operand.dtype == indptr.dtype
                and operand.flags.c_contiguous):
            raise ValueError("row ids must be a C-contiguous 1-D array in the index dtype")
        if len(operand) and (operand.min() < 0 or operand.max() >= n_rows):
            raise ValueError(f"row ids must lie in [0, {n_rows})")
        out_indptr = np.zeros(len(operand) + 1, dtype=indptr.dtype)
        np.cumsum(indptr[operand + 1] - indptr[operand], out=out_indptr[1:])
        out_indices = np.empty(out_indptr[-1], dtype=indptr.dtype)
        out_data = np.empty(out_indptr[-1], dtype=np.float64)
        _sparsetools.csr_row_index(len(operand), operand, indptr, indices, data,
                                   out_indices, out_data)
        return out_indptr, out_indices, out_data, n_cols
    rows, cols = (n_rows, n_cols) if op == "matmul" else (n_cols, n_rows)
    if not (operand.ndim == 2 and operand.shape[0] == cols and operand.dtype == np.float64
            and operand.flags.c_contiguous):
        raise ValueError(f"{op}: operand must be a C-contiguous float64 array with {cols} "
                         f"rows, got {operand.dtype} {operand.shape}")
    out = np.zeros((rows, operand.shape[1]), dtype=np.float64)
    kernel = _sparsetools.csr_matvecs if op == "matmul" else _sparsetools.csc_matvecs
    kernel(rows, cols, operand.shape[1], indptr, indices, data, operand.reshape(-1),
           out.reshape(-1))
    return out


def _batch_grads(weights_t: np.ndarray, bias: np.ndarray, x: _Csr, targets: np.ndarray,
                 l2_penalty: float, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prediction and kl_objective's gradients on a stacked (|columns| x B*K) block."""
    pred = _softmax_groups(_csr_kernel("matmul", x, weights_t) + bias, k)
    g = (pred - targets) / (len(x[0]) - 1)
    grad_w = _csr_kernel("rmatmul", x, g)
    grad_w += l2_penalty * weights_t
    return pred, grad_w, g.sum(axis=0)


def _optimize(
    weights: np.ndarray,
    bias: np.ndarray,
    x: _Csr,
    targets: list[np.ndarray],
    config: TrainConfig,
    nonfinite_epoch: int | None = None,
) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """The gradient-descent loop of train(), on B target matrices in lockstep.

    x holds the rows compacted to the |columns| the descent runs on.
    Every target starts from the (K, |columns|) weights and (K,) bias.
    Returns the trained (|columns| x B*K) weight block, whose columns
    b*K to (b+1)*K - 1 are target b's transposed weights, the (B*K,) bias
    laid out the same way, and each target's epoch losses. When targets
    diverge, raises the DivergenceError of the first in list order, as
    training them one after another would; an epoch past nonfinite_epoch,
    when a replayed weight went non-finite, counts as diverged. A diverged
    target's non-finite columns never enter another target's columns.
    """
    (k, _), n, count = weights.shape, len(x[0]) - 1, len(targets)
    rng = np.random.default_rng(config.seed)
    # C-ordered, as the CSR kernels require.
    weights_t = np.concatenate([weights.T] * count, axis=1)
    bias = np.concatenate([bias] * count)
    stacked = np.concatenate(targets, axis=1)

    losses: list[list[float]] = [[] for _ in targets]
    failures: list[DivergenceError | None] = [None] * count
    # Overflow is handled by the explicit finiteness check below, not warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n).astype(x[0].dtype, copy=False)
            for lo in range(0, n, config.batch_size):
                idx = order[lo:lo + config.batch_size]
                _, grad_w, grad_b = _batch_grads(weights_t, bias, _csr_kernel("rows", x, idx),
                                                 stacked[idx], config.l2_penalty, k)
                weights_t -= config.learning_rate * grad_w
                bias -= config.learning_rate * grad_b
            pred = _softmax_groups(_csr_kernel("matmul", x, weights_t) + bias, k)
            # One contiguous row of per-query KL per target, so each mean sums
            # in the same order as a lone target's.
            kl = _kl_rows(pred.reshape(-1, k), stacked.reshape(-1, k)).reshape(n, count).T.copy()
            weights_ok = np.isfinite(weights_t).reshape(-1, count, k).all(axis=(0, 2))
            for b in range(count):
                if failures[b] is not None:
                    continue
                epoch_loss = float(kl[b].mean())
                if np.isfinite(epoch_loss) and weights_ok[b] and epoch != nonfinite_epoch:
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
    _, indices, data = next(_hashed_chunks(model.featurizer_config, [text]))  # one chunk
    probs = _gather_forward(model.weights, model.bias, (0, len(indices)), indices, data)[0]
    return model.registry.ids[int(np.argmax(probs))], probs
