"""Reward-guided query routing for mixed model pools.

Given per-query reward scores for a pool of candidate models, this package
trains a lightweight linear router that sends each new query to the model
most likely to answer it well, for the price of a single forward pass. It
covers the whole loop at desk scale: dataset ingestion and benchmark
decontamination, reward normalization with tag-level label smoothing,
hashed n-gram features, distillation training, ranking metrics against
reward-argmax and oracle baselines, synthetic planted-expertise benchmarks,
and an HTTP gateway that serves routing decisions.

The names exported here are the workflow: each step's entry points, the
values passed from one step to the next, and the exception types. Helpers
(metric pieces, hashing, serialization) are imported from their submodules.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    DatasetRow,
    ModelRegistry,
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
    beta_ablation,
    entropy_quality_analysis,
    evaluate_systems,
    holdout_split,
    routing_accuracy,
)
from .features import (
    FeaturizerConfig,
    featurize,
    featurize_matrix,
    stable_hash,
)
from .gateway import Gateway, GatewayConfig
from .ranking import SyntheticSpec, make_synthetic_benchmark, stub_response
from .rewards import (
    aggregate_tag_rewards,
    build_targets,
    enhance_labels,
    normalize_rewards,
    reward_entropy,
)
from .router import (
    RouterModel,
    TrainConfig,
    forward,
    init_router,
    kl_objective,
    route,
    train,
)
from .stub_backend import StubBackend

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "DataFormatError",
    "DatasetRow",
    "DivergenceError",
    "FeaturizerConfig",
    "Gateway",
    "GatewayConfig",
    "GatewayError",
    "ModelRegistry",
    "Query",
    "RewardDataset",
    "RewardRouteError",
    "RouterModel",
    "StubBackend",
    "SyntheticSpec",
    "TrainConfig",
    "aggregate_tag_rewards",
    "apply_tag_rules",
    "beta_ablation",
    "build_targets",
    "decontaminate",
    "enhance_labels",
    "entropy_quality_analysis",
    "evaluate_systems",
    "featurize",
    "featurize_matrix",
    "find_contaminated",
    "forward",
    "holdout_split",
    "init_router",
    "kl_objective",
    "load_checkpoint",
    "load_dataset",
    "load_oracle",
    "load_registry",
    "load_tag_rules",
    "make_synthetic_benchmark",
    "normalize_rewards",
    "reward_entropy",
    "route",
    "routing_accuracy",
    "save_checkpoint",
    "save_dataset",
    "save_oracle",
    "save_registry",
    "stable_hash",
    "stub_response",
    "text_ngrams",
    "tokenize",
    "train",
]
