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
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .data import ModelRegistry, Query, RewardDataset
from .errors import DataFormatError
from .features import featurize_matrix, stable_hash
from .ranking import SyntheticSpec, make_synthetic_benchmark, oracle_select, rmr_choice
from .rewards import aggregate_tag_rewards, normalize_rewards, reward_entropy
from .router import (RouterModel, TrainConfig, TrainReport, _fit, _gather_forward, build_targets,
                     forward, init_router)


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


def mean_task_rank(subsets: list[SubsetScores], system: str) -> float:
    """Average of the system's per-subset ranks; requires full coverage."""
    if not subsets:
        raise ValueError("need at least one subset")
    ranks = []
    for subset in subsets:
        if system not in subset.scores:
            raise DataFormatError(f"system {system!r} missing from subset {subset.subset_name!r}")
        ranks.append(subset_ranks(subset)[system])
    return float(np.mean(ranks))


def uplift_rate(subsets: list[SubsetScores], system: str) -> float:
    """Fraction of subsets where the system matches the subset maximum."""
    if not subsets:
        raise ValueError("need at least one subset")
    wins = 0
    for subset in subsets:
        if system not in subset.scores:
            raise DataFormatError(f"system {system!r} missing from subset {subset.subset_name!r}")
        if subset.scores[system] == max(subset.scores.values()):
            wins += 1
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
    systems = set()
    for subset in subsets:
        systems |= set(subset.scores)
    mtr = {s: mean_task_rank(subsets, s) for s in systems}
    uplift = {s: uplift_rate(subsets, s) for s in systems}
    rank_table = {sub.subset_name: subset_ranks(sub) for sub in subsets}
    return EvalReport(subsets=subsets, mtr=mtr, uplift=uplift, rank_table=rank_table)


# ---------------------------------------------------------------------------
# routing accuracy and system comparison on oracle-labelled datasets
# ---------------------------------------------------------------------------

def _oracle_choice(query: Query, oracle: Mapping[str, np.ndarray],
                   registry: ModelRegistry) -> str:
    if query.id not in oracle:
        raise DataFormatError(f"oracle has no entry for query {query.id!r}")
    return oracle_select(query, oracle[query.id], registry)


def _texts(dataset: RewardDataset) -> list[str]:
    return [row.query.text for row in dataset.rows]


def _routed_ids(registry: ModelRegistry, probs: np.ndarray) -> list[str]:
    """The choice for every row of routing distributions; ties go to the lowest index."""
    return [registry.ids[i] for i in np.argmax(probs, axis=1)]


def _accuracy(routed: list[str], dataset: RewardDataset,
              oracle: Mapping[str, np.ndarray]) -> float:
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    hits = sum(
        chosen == _oracle_choice(row.query, oracle, dataset.registry)
        for chosen, row in zip(routed, dataset.rows)
    )
    return hits / len(dataset)


def routing_accuracy(
    model: RouterModel,
    dataset: RewardDataset,
    oracle: Mapping[str, np.ndarray],
) -> float:
    """Fraction of queries routed to the oracle-best model."""
    x = featurize_matrix(model.featurizer_config, _texts(dataset))
    return _accuracy(_routed_ids(model.registry, forward(model, x)), dataset, oracle)


def evaluate_systems(
    dataset: RewardDataset,
    oracle: Mapping[str, np.ndarray],
    model: RouterModel | None = None,
    rmr: bool = False,
) -> EvalReport:
    """Per-subset selection-accuracy table for router / RMR / oracle / singles.

    Systems compared: "oracle" (always right by construction), each constant
    "single:<model_id>" policy, optionally "router" (a trained model) and,
    with rmr=True, "rmr" (argmax of each row's recorded rewards). Scores are
    the fraction of subset queries whose selection matches the oracle
    choice, which makes the report a desk-scale analog of a cross-benchmark
    leaderboard.
    """
    registry = dataset.registry
    routed: dict[str, str] = {}
    if model is not None:
        x = featurize_matrix(model.featurizer_config, _texts(dataset))
        routed = {row.query.id: chosen
                  for row, chosen in zip(dataset.rows, _routed_ids(registry, forward(model, x)))}
    by_subset: dict[str, list] = {}
    for row in dataset.rows:
        by_subset.setdefault(row.query.subset or "default", []).append(row)

    subsets = []
    for name in sorted(by_subset):
        rows = by_subset[name]
        oracle_ids = [_oracle_choice(r.query, oracle, registry) for r in rows]
        scores: dict[str, float] = {"oracle": 1.0}
        for model_id in registry.ids:
            share = sum(1 for o in oracle_ids if o == model_id) / len(rows)
            scores[f"single:{model_id}"] = share
        if model is not None:
            hits = sum(routed[r.query.id] == o for r, o in zip(rows, oracle_ids))
            scores["router"] = hits / len(rows)
        if rmr:
            hits = sum(rmr_choice(r, registry) == o for r, o in zip(rows, oracle_ids))
            scores["rmr"] = hits / len(rows)
        subsets.append(SubsetScores(subset_name=name, scores=scores))
    return build_eval_report(subsets)


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
    # The call's wall time and its training phases, summed over the betas;
    # the loss fields stay empty.
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
    start = time.perf_counter()
    base = train_config or TrainConfig()
    for b in betas:  # TrainConfig rejects a bad beta before any work is done
        replace(base, beta=b)
    dataset, oracle = make_synthetic_benchmark(spec)
    train_ds, eval_ds = holdout_split(dataset)
    table = aggregate_tag_rewards(train_ds)
    model = init_router(dataset.registry, seed=base.seed)
    phases = TrainReport(row_count=len(train_ds))
    mark = time.perf_counter()
    x_train = featurize_matrix(model.featurizer_config, _texts(train_ds))
    x_eval = featurize_matrix(model.featurizer_config, _texts(eval_ds))
    featurized = time.perf_counter()
    targets = [build_targets(train_ds, table, b, base.temperature) for b in betas]
    phases.featurize_s = featurized - mark
    phases.targets_s = time.perf_counter() - featurized
    columns, fitted = _fit(model, x_train, targets, base, phases, read=x_eval.indices)
    eval_indices = np.searchsorted(columns, x_eval.indices)  # positions in the fitted weights
    accuracies = []
    for weights, bias, _ in fitted:
        probs = _gather_forward(weights, bias, x_eval.indptr, eval_indices, x_eval.data)
        accuracies.append(_accuracy(_routed_ids(dataset.registry, probs), eval_ds, oracle))
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
    and whether reward-ranking (argmax of the recorded rewards) picks the
    oracle-best model. The statistic is the Spearman rank correlation
    between entropy and the 0/1 correctness column; a negative value means
    uncertain (high-entropy) reward vectors mis-select more often.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    pairs: list[tuple[float, bool]] = []
    for row in dataset.rows:
        entropy = reward_entropy(normalize_rewards(row.rewards))
        correct = rmr_choice(row, dataset.registry) == _oracle_choice(
            row.query, oracle, dataset.registry)
        pairs.append((entropy, correct))
    entropies = np.array([p[0] for p in pairs])
    correctness = np.array([float(p[1]) for p in pairs])
    if np.all(correctness == correctness[0]) or np.all(entropies == entropies[0]):
        return EntropyAnalysis(pairs=pairs, correlation=None, degenerate=True)
    from scipy import stats  # here, not at the top: it costs serving ~0.4 s of import
    rho = float(stats.spearmanr(entropies, correctness).statistic)
    return EntropyAnalysis(pairs=pairs, correlation=rho, degenerate=False)
