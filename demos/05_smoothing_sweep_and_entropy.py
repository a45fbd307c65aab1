"""
Label smoothing under reward noise, and entropy as a mistake predictor
======================================================================

Two companion studies on noisy synthetic benchmarks.

First: when per-query rewards are mostly noise (sigma is 4x the expertise
margin), sweep the blend weight beta between pure tag means (beta=0) and
raw per-query rewards (beta=1) and watch held-out routing accuracy. Tag
means average the noise away; raw rewards let the router memorize it.

Second: the Shannon entropy of a query's normalized reward vector predicts
whether picking the argmax reward is even right. High entropy = the reward
model can't tell the candidates apart = more mistakes.
"""

import numpy as np

from rewardroute import (
    SyntheticSpec,
    TrainConfig,
    beta_ablation,
    entropy_quality_analysis,
    make_synthetic_benchmark,
)

CLUSTERS = {
    "minerals": ["quartz", "basalt", "feldspar", "gypsum", "mica", "olivine"],
    "sailing": ["jib", "halyard", "tack", "leeward", "mainsail", "rudder"],
    "grammar": ["clause", "gerund", "participle", "adverb", "conjunction", "tense"],
    "baking": ["dough", "yeast", "crumb", "proofing", "gluten", "sourdough"],
}

# ---------------------------------------------------------------------------
# study 1: the smoothing sweep
# ---------------------------------------------------------------------------

noisy = SyntheticSpec(
    num_models=4, clusters=CLUSTERS, queries_per_cluster=150,
    expertise_margin=0.5, noise_sigma=2.0, seed=7,
)
result = beta_ablation(noisy, [0.0, 0.1, 0.3, 0.5, 0.7, 1.0], TrainConfig(seed=7))
print(f"noise 4x the margin, {result.train_rows} train / {result.eval_rows} eval rows")
print(result.render_table())
best_beta, best_acc = max(result.as_table(), key=lambda t: t[1])
print(f"best: beta={best_beta} at accuracy {best_acc:.3f}; "
      f"raw rewards (beta=1) reach {result.accuracies[-1]:.3f}\n")

# ---------------------------------------------------------------------------
# study 2: reward entropy vs selection correctness
# ---------------------------------------------------------------------------

uncertain = SyntheticSpec(
    num_models=4, clusters=CLUSTERS, queries_per_cluster=500,
    expertise_margin=1.0, noise_sigma=1.0, seed=0,
)
dataset, oracle = make_synthetic_benchmark(uncertain)
analysis = entropy_quality_analysis(dataset, oracle)

print(f"{len(dataset)} queries, noise on par with the margin")
print(f"rank correlation (entropy vs correct): {analysis.correlation:.3f}")

# Bucket the queries by entropy to see the trend without statistics.
entropies = np.array([e for e, _ in analysis.pairs])
correct = np.array([c for _, c in analysis.pairs])
edges = np.quantile(entropies, [0.0, 0.25, 0.5, 0.75, 1.0])
print("\n  entropy range      share picked correctly")
for lo, hi in zip(edges[:-1], edges[1:]):
    mask = (entropies >= lo) & (entropies <= hi)
    print(f"  [{lo:.3f}, {hi:.3f}]   {correct[mask].mean():.3f}   "
          f"({int(mask.sum())} queries)")
print("\nconfident (low-entropy) reward vectors select the right model far")
print("more often, so entropy is a usable abstain/escalate signal.")
