"""
Hashed n-gram text features
===========================

The router never sees raw text: queries become sparse L2-normalized count
vectors of word 1-2-grams and character 3-5-grams, hashed into a fixed
dimension with 64-bit FNV-1a. No vocabulary is ever built or stored, which
is what lets a checkpoint be fully self-describing.
"""

import numpy as np

from rewardroute import FeaturizerConfig, featurize, featurize_matrix, stable_hash

config = FeaturizerConfig()  # dimension 65536, word (1,2), char (3,5)
print(f"dimension {config.dimension}, word grams {config.word_ngram_range}, "
      f"char grams {config.char_ngram_range}")

# ---------------------------------------------------------------------------
# one query -> one sparse row (a 1 x dimension CSR matrix)
# ---------------------------------------------------------------------------

vec = featurize(config, "write a regex that validates dates")
print(f"\nnonzeros {vec.nnz} of {vec.shape[1]}, "
      f"L2 norm {np.linalg.norm(vec.data):.6f}")
print("first indices:", vec.indices[:8])

# Hashing is a pure function of the text, so the same query always maps to
# the same vector, on any machine, with no fitted state.
again = featurize(config, "write a regex that validates dates")
print("deterministic:", np.array_equal(vec.indices, again.indices)
      and np.array_equal(vec.data, again.data))

# stable_hash is the same primitive exposed for general use (the holdout
# splitter keys on it, for instance).
print(f'stable_hash("route me") = {stable_hash("route me"):#018x}')

# ---------------------------------------------------------------------------
# cosine similarity: shared n-grams, not exact matches
# ---------------------------------------------------------------------------

def cosine(a, b):
    return float((a @ b.T)[0, 0])  # rows are L2-normalized

base = featurize(config, "find the derivative of x squared")
near = featurize(config, "find the derivative of x cubed")
far = featurize(config, "braise the lamb shanks slowly")
print(f"\ncosine(near pair) = {cosine(base, near):.3f}")
print(f"cosine(far pair)  = {cosine(base, far):.3f}")

# Case folds away by default; punctuation still contributes char grams.
print("case-insensitive:", cosine(featurize(config, "SOLVE IT"),
                                  featurize(config, "solve it")) > 0.999)

# ---------------------------------------------------------------------------
# batching for training: one CSR matrix, row per query
# ---------------------------------------------------------------------------

queries = ["integrate x", "sort a list in python", "write a short poem", "   "]
matrix = featurize_matrix(config, queries)
print(f"\nmatrix shape {matrix.shape}, nnz per row {matrix.getnnz(axis=1)}")
print("whitespace-only text gives an all-zero row (routed by bias alone)")
