"""Reward-guided query routing for mixed model pools.

Given per-query reward scores for a pool of candidate models, this package
trains a lightweight linear router that sends each new query to the model
most likely to answer it well, for the price of a single forward pass. It
covers the whole loop at desk scale: dataset ingestion and benchmark
decontamination, reward normalization with tag-level label smoothing,
hashed n-gram features, distillation training, ranking metrics against
reward-argmax and oracle baselines, synthetic planted-expertise benchmarks,
and an HTTP gateway that serves routing decisions.
"""

from .checkpoint import (
    deserialize_model,
    load_checkpoint,
    save_checkpoint,
    serialize_model,
)
from .data import (
    UNTAGGED,
    DatasetRow,
    ModelRegistry,
    ModelSpec,
    Query,
    RewardDataset,
    apply_tag_rules,
    load_dataset,
    load_oracle,
    load_registry,
    load_tag_rules,
    save_dataset,
    save_oracle,
    save_registry,
)
from .decontamination import (
    decontaminate,
    find_contaminated,
    text_ngrams,
    tokenize,
)
from .errors import (
    CheckpointError,
    DataFormatError,
    DivergenceError,
    GatewayError,
    RewardRouteError,
)
from .evaluation import (
    AblationResult,
    EntropyAnalysis,
    EvalReport,
    SubsetScores,
    beta_ablation,
    build_eval_report,
    entropy_quality_analysis,
    evaluate_systems,
    holdout_split,
    mean_task_rank,
    routing_accuracy,
    subset_ranks,
    uplift_rate,
)
from .features import (
    FeaturizerConfig,
    extract_ngrams,
    featurize,
    featurize_matrix,
    fnv1a_64,
    stable_hash,
)
from .gateway import Gateway, GatewayConfig, Metrics, serve
from .ranking import (
    SyntheticSpec,
    make_synthetic_benchmark,
    oracle_select,
    stub_response,
    synthetic_registry,
)
from .rewards import (
    DISTRIBUTION_ATOL,
    TagRewardTable,
    aggregate_tag_rewards,
    enhance_labels,
    normalize_rewards,
    reward_entropy,
    tag_mean_for_query,
)
from .router import (
    RouterModel,
    TrainConfig,
    TrainReport,
    build_targets,
    forward,
    init_router,
    kl_loss,
    kl_objective,
    route,
    train,
)
from .stub_backend import StubBackend

__version__ = "0.1.0"

__all__ = [
    "AblationResult",
    "CheckpointError",
    "DISTRIBUTION_ATOL",
    "DataFormatError",
    "DatasetRow",
    "DivergenceError",
    "EntropyAnalysis",
    "EvalReport",
    "FeaturizerConfig",
    "Gateway",
    "GatewayConfig",
    "GatewayError",
    "Metrics",
    "ModelRegistry",
    "ModelSpec",
    "Query",
    "RewardDataset",
    "RewardRouteError",
    "RouterModel",
    "StubBackend",
    "SubsetScores",
    "SyntheticSpec",
    "TagRewardTable",
    "TrainConfig",
    "TrainReport",
    "UNTAGGED",
    "aggregate_tag_rewards",
    "apply_tag_rules",
    "beta_ablation",
    "build_eval_report",
    "build_targets",
    "decontaminate",
    "deserialize_model",
    "enhance_labels",
    "entropy_quality_analysis",
    "evaluate_systems",
    "extract_ngrams",
    "featurize",
    "featurize_matrix",
    "find_contaminated",
    "fnv1a_64",
    "forward",
    "holdout_split",
    "init_router",
    "kl_loss",
    "kl_objective",
    "load_checkpoint",
    "load_dataset",
    "load_oracle",
    "load_registry",
    "load_tag_rules",
    "make_synthetic_benchmark",
    "mean_task_rank",
    "normalize_rewards",
    "oracle_select",
    "reward_entropy",
    "route",
    "routing_accuracy",
    "save_checkpoint",
    "save_dataset",
    "save_oracle",
    "save_registry",
    "serialize_model",
    "serve",
    "stable_hash",
    "stub_response",
    "subset_ranks",
    "synthetic_registry",
    "tag_mean_for_query",
    "text_ngrams",
    "tokenize",
    "train",
    "uplift_rate",
]
