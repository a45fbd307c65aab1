"""Comparison metrics and experiment harnesses.

Two scale-free metrics compare systems across benchmark subsets with
incompatible score scales:

  * mean task rank (MTR): a system's rank within each subset, averaged over
    subsets. Rank = 1 + number of strictly better systems (ties share the
    minimum rank), so lower is better and 1.0 means best everywhere.
  * uplift rate: fraction of subsets where the system attains the subset
    maximum (ties at the top count).

On synthetic benchmarks the quality proxy is routing accuracy against the
planted oracle. Three experiment harnesses build on these metrics: a
per-system rank table, a smoothing-weight ablation grid, and a
reward-entropy vs. selection-correctness analysis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .data import RewardDataset
from .errors import DataFormatError
from .features import featurize_matrix, stable_hash
from .ranking import SyntheticSpec, make_synthetic_benchmark
from .rewards import (aggregate_tag_rewards, build_targets, check_beta, normalize_rewards,
                      reward_entropy)
from .router import (RouterModel, TrainConfig, TrainReport, _column_positions, _fit,
                     _gather_forward, forward, init_router)


@dataclass(frozen=True)
class SubsetScores:
    """Scores of every compared system on one benchmark subset."""

    subset_name: str
    scores: dict[str, float]

    def __post_init__(self):
        if not self.scores:
            raise ValueError(f"subset {self.subset_name!r} has no systems")


def subset_ranks(subset: SubsetScores) -> dict[str, int]:
    """Competition ranks within one subset: 1 + count of strictly better."""
    ranks = {}
    for system, score in subset.scores.items():
        ranks[system] = 1 + sum(1 for other in subset.scores.values() if other > score)
    return ranks


def _covering(subsets: list[SubsetScores], system: str) -> list[SubsetScores]:
    """The subsets, once every one of them is known to score the system."""
    if not subsets:
        raise ValueError("need at least one subset")
    for subset in subsets:
        if system not in subset.scores:
            raise DataFormatError(f"system {system!r} missing from subset {subset.subset_name!r}")
    return subsets


def mean_task_rank(subsets: list[SubsetScores], system: str) -> float:
    """Average of the system's per-subset ranks; requires full coverage."""
    ranks = [subset_ranks(subset)[system] for subset in _covering(subsets, system)]
    return float(np.mean(ranks))


def uplift_rate(subsets: list[SubsetScores], system: str) -> float:
    """Fraction of subsets where the system matches the subset maximum."""
    wins = sum(subset.scores[system] == max(subset.scores.values())
               for subset in _covering(subsets, system))
    return wins / len(subsets)


@dataclass
class EvalReport:
    """Per-system MTR and uplift plus the underlying subset scores and ranks."""

    subsets: list[SubsetScores]
    mtr: dict[str, float]
    uplift: dict[str, float]
    rank_table: dict[str, dict[str, int]]  # subset -> system -> rank

    def systems(self) -> list[str]:
        return sorted(self.mtr)

    def to_records(self) -> list[dict]:
        return [
            {"system": s, "mtr": self.mtr[s], "uplift_rate": self.uplift[s]}
            for s in self.systems()
        ]

    def render_table(self) -> str:
        names = self.systems()
        width = max(len(s) for s in names + ["system"])
        lines = [f"{'system':<{width}}  {'MTR':>6}  {'uplift':>6}"]
        for s in sorted(names, key=lambda n: self.mtr[n]):
            lines.append(f"{s:<{width}}  {self.mtr[s]:>6.2f}  {self.uplift[s]:>6.2f}")
        return "\n".join(lines)


def build_eval_report(subsets: list[SubsetScores]) -> EvalReport:
    # First-seen order, so the report's key order never follows PYTHONHASHSEED.
    systems = dict.fromkeys(s for subset in subsets for s in subset.scores)
    mtr = {s: mean_task_rank(subsets, s) for s in systems}
    uplift = {s: uplift_rate(subsets, s) for s in systems}
    rank_table = {sub.subset_name: subset_ranks(sub) for sub in subsets}
    return EvalReport(subsets=subsets, mtr=mtr, uplift=uplift, rank_table=rank_table)


# ---------------------------------------------------------------------------
# routing accuracy and system comparison on oracle-labelled datasets
# ---------------------------------------------------------------------------

def _oracle_matrix(dataset: RewardDataset, oracle: Mapping[str, np.ndarray]) -> np.ndarray:
    """The oracle scores of every row, as an (N, K) matrix in registry order."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    k = len(dataset.registry)
    vectors = []
    for row in dataset.rows:
        qid = row.query.id
        if qid not in oracle:
            raise DataFormatError(f"oracle has no entry for query {qid!r}")
        scores = np.asarray(oracle[qid], dtype=np.float64)
        if scores.shape != (k,):
            raise DataFormatError(
                f"oracle scores for query {qid!r} have shape {scores.shape}, expected ({k},)")
        vectors.append(scores)
    truth = np.stack(vectors)
    bad = np.flatnonzero(~np.isfinite(truth).all(axis=1))
    if bad.size:  # json reads NaN and Infinity, so a loaded oracle file can hold them
        raise DataFormatError(f"oracle scores for query {dataset.rows[bad[0]].query.id!r} "
                              "have a non-finite entry")
    return truth


def _hits(picks: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Whether each row's pick is right: its oracle score equals the row's best, ties included."""
    return truth[np.arange(len(truth)), picks] == truth.max(axis=1)


def _router_picks(model: RouterModel, dataset: RewardDataset) -> np.ndarray:
    """The router's choice for every row, as an index into the dataset's registry.

    One featurize and one forward() over the batch. The router's own registry
    may list the models in another order, but not name one the dataset lacks.
    """
    missing = [m for m in model.registry.ids if m not in dataset.registry.ids]
    if missing:
        raise DataFormatError(f"the router routes to model(s) {missing}, "
                              "which the dataset's registry lacks")
    to_dataset = np.array([dataset.registry.index_of(m) for m in model.registry.ids])
    x = featurize_matrix(model.featurizer_config, [row.query.text for row in dataset.rows])
    return to_dataset[np.argmax(forward(model, x), axis=1)]


def routing_accuracy(
    model: RouterModel,
    dataset: RewardDataset,
    oracle: Mapping[str, np.ndarray],
) -> float:
    """Fraction of queries routed to a model the oracle scores best."""
    return float(_hits(_router_picks(model, dataset), _oracle_matrix(dataset, oracle)).mean())


def evaluate_systems(
    dataset: RewardDataset,
    oracle: Mapping[str, np.ndarray],
    model: RouterModel | None = None,
    rmr: bool = False,
) -> EvalReport:
    """Per-subset selection-accuracy table for router / RMR / oracle / singles.

    Systems compared: "oracle" (always right by construction), each constant
    "single:<model_id>" policy, optionally "router" (a trained model) and,
    with rmr=True, "rmr" (argmax of each row's recorded rewards, ties to the
    lowest registry index). Every system is an array of picks, one registry
    index per row. A pick is right when its oracle score equals the row's
    best, so of two equally good models either one counts. A system's score
    on a subset is the fraction of the subset's rows it picks right, which
    makes the report a desk-scale analog of a cross-benchmark leaderboard.
    """
    truth = _oracle_matrix(dataset, oracle)
    systems = {"oracle": np.argmax(truth, axis=1)}
    for j, model_id in enumerate(dataset.registry.ids):
        systems[f"single:{model_id}"] = np.full(len(dataset), j)
    if model is not None:
        systems["router"] = _router_picks(model, dataset)
    if rmr:
        systems["rmr"] = np.argmax(dataset.reward_matrix(), axis=1)
    hits = {system: _hits(picks, truth) for system, picks in systems.items()}
    by_subset: dict[str, list[int]] = {}
    for i, row in enumerate(dataset.rows):
        by_subset.setdefault(row.query.subset or "default", []).append(i)
    return build_eval_report([
        SubsetScores(subset_name=name,
                     scores={system: float(hit[rows].mean()) for system, hit in hits.items()})
        for name, rows in sorted(by_subset.items())
    ])


# ---------------------------------------------------------------------------
# held-out split and the smoothing-weight ablation harness
# ---------------------------------------------------------------------------

def holdout_split(
    dataset: RewardDataset, eval_percent: int = 20
) -> tuple[RewardDataset, RewardDataset]:
    """Stable 80/20-style split keyed on a hash of the query id.

    A row goes to the held-out side when stable_hash(id) % 100 falls below
    eval_percent, so the split never depends on row order, run, or platform.
    """
    if not 0 < eval_percent < 100:
        raise ValueError("eval_percent must be in (0, 100)")
    train_rows, eval_rows = [], []
    for row in dataset.rows:
        if stable_hash(row.query.id) % 100 < eval_percent:
            eval_rows.append(row)
        else:
            train_rows.append(row)
    return dataset.with_rows(train_rows), dataset.with_rows(eval_rows)


@dataclass
class AblationResult:
    betas: list[float]
    accuracies: list[float]
    train_rows: int = 0
    eval_rows: int = 0
    # The call's wall time and its training phases, summed over the betas.
    # The loss fields stay empty: the descent logs no per-epoch loss and
    # proves each epoch's losses finite instead.
    phases: TrainReport = field(default_factory=TrainReport, compare=False, repr=False)

    def as_table(self) -> list[tuple[float, float]]:
        return list(zip(self.betas, self.accuracies))

    def to_records(self) -> list[dict]:
        return [
            {"beta": b, "routing_accuracy": a}
            for b, a in zip(self.betas, self.accuracies)
        ]

    def render_table(self) -> str:
        lines = [f"{'beta':>5}  {'accuracy':>8}"]
        for b, a in zip(self.betas, self.accuracies):
            lines.append(f"{b:>5.2f}  {a:>8.4f}")
        return "\n".join(lines)


def beta_ablation(
    spec: SyntheticSpec,
    betas: list[float],
    train_config: TrainConfig | None = None,
) -> AblationResult:
    """Train one router per smoothing weight and score each on held-out data.

    Every run shares the same synthetic benchmark, split, featurizer, and
    seeds, so the table is a pure function of (spec, betas, train_config).
    The betas train in one lockstep descent, bit-identical to training each
    alone, and only the weight columns the eval split reads are kept; they
    are scored through the same per-row gather as forward().
    """
    import scipy.sparse  # noqa: F401  before the clock: featurize_s times no import
    start = time.perf_counter()
    base = train_config or TrainConfig()
    for b in betas:  # a bad beta is rejected before any work is done
        check_beta(b)
    dataset, oracle = make_synthetic_benchmark(spec)
    train_ds, eval_ds = holdout_split(dataset)
    table = aggregate_tag_rewards(train_ds)
    model = init_router(dataset.registry, seed=base.seed)
    phases = TrainReport(row_count=len(train_ds))
    mark = time.perf_counter()
    x_train = featurize_matrix(model.featurizer_config, [row.query.text for row in train_ds.rows])
    x_eval = featurize_matrix(model.featurizer_config, [row.query.text for row in eval_ds.rows])
    featurized = time.perf_counter()
    targets = [build_targets(train_ds, table, b, base.temperature) for b in betas]
    phases.featurize_s = featurized - mark
    phases.targets_s = time.perf_counter() - featurized
    columns, fitted = _fit(model, x_train, targets, base, phases, read=x_eval.indices,
                           losses=False)
    eval_indices = _column_positions(columns, x_eval.indices, model.dimension)
    truth = _oracle_matrix(eval_ds, oracle)
    accuracies = []
    for weights, bias, _ in fitted:
        probs = _gather_forward(weights, bias, x_eval.indptr, eval_indices, x_eval.data)
        accuracies.append(float(_hits(np.argmax(probs, axis=1), truth).mean()))
    phases.wall_seconds = time.perf_counter() - start
    return AblationResult(
        betas=list(betas), accuracies=accuracies,
        train_rows=len(train_ds), eval_rows=len(eval_ds), phases=phases,
    )


# ---------------------------------------------------------------------------
# reward entropy vs. selection correctness
# ---------------------------------------------------------------------------

@dataclass
class EntropyAnalysis:
    """Per-query (entropy, correct) pairs plus their rank correlation.

    correct says whether the reward argmax scores the oracle's best on that
    query; a pick that ties the best counts.

    correlation is None and degenerate is True when either column is
    constant (e.g. noiseless benchmarks where every selection is right).
    """

    pairs: list[tuple[float, bool]]
    correlation: float | None
    degenerate: bool

    def to_records(self) -> list[dict]:
        return [{"entropy": e, "rmr_correct": bool(c)} for e, c in self.pairs]


def entropy_quality_analysis(
    dataset: RewardDataset,
    oracle: Mapping[str, np.ndarray],
) -> EntropyAnalysis:
    """Does selection confidence predict correctness?

    For each query: Shannon entropy of the normalized reward distribution,
    and whether reward-ranking (argmax of the recorded rewards) picks a model
    the oracle scores best, under the same rule evaluate_systems scores by.
    The statistic is the Spearman rank correlation between entropy and the
    0/1 correctness column; a negative value means uncertain (high-entropy)
    reward vectors mis-select more often.
    """
    truth = _oracle_matrix(dataset, oracle)
    correct = _hits(np.argmax(dataset.reward_matrix(), axis=1), truth)
    pairs = [(reward_entropy(normalize_rewards(row.rewards)), hit)
             for row, hit in zip(dataset.rows, correct.tolist())]
    entropies = np.array([p[0] for p in pairs])
    correctness = correct.astype(np.float64)
    if np.all(correctness == correctness[0]) or np.all(entropies == entropies[0]):
        return EntropyAnalysis(pairs=pairs, correlation=None, degenerate=True)
    rho = _spearman(entropies, correctness)
    return EntropyAnalysis(pairs=pairs, correlation=rho, degenerate=False)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of values, each run of tied values sharing the mean of its ranks."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], len(values))
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman's rank correlation: the Pearson correlation of the tie-averaged ranks.

    Neither column may be constant.
    """
    ra, rb = _average_ranks(a), _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(ra @ rb / np.sqrt((ra @ ra) * (rb @ rb)))
