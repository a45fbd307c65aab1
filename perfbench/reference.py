"""Independent reference for the router's documented inference path.

Nothing here imports rewardroute. The checkpoint is parsed from its bytes as
laid out in docs/checkpoint_format.md, the featurizer follows the documented
recipe (lowercase, word 1..2-grams, "c#"-prefixed char 3..5-grams, 64-bit
FNV-1a modulo the dimension, counts, L2 norm) and the router is a linear
softmax. Gateway replies are checked against these functions.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1
CHAR_PREFIX = "c#"


def fnv1a_64(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _MASK
    return h


@dataclass(frozen=True)
class Checkpoint:
    model_ids: list[str]
    dimension: int
    word_range: tuple[int, int]
    char_range: tuple[int, int]
    lowercase: bool
    weights: np.ndarray  # (K, D)
    bias: np.ndarray     # (K,)


def read_checkpoint(blob: bytes) -> Checkpoint:
    """Parse checkpoint format version 1, verifying magic, version and digest."""
    if blob[:4] != b"RRCP":
        raise ValueError("bad checkpoint magic")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != 1:
        raise ValueError(f"unexpected checkpoint format version {version}")
    payload, digest = blob[8:-32], blob[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError("checkpoint digest mismatch")
    (header_len,) = struct.unpack("<I", payload[:4])
    header = json.loads(payload[4:4 + header_len].decode("utf-8"))
    k, d = int(header["num_models"]), int(header["dimension"])
    body = payload[4 + header_len:]
    if len(body) != (k * d + k) * 8:
        raise ValueError("checkpoint parameter block has the wrong size")
    feat = header["featurizer"]
    return Checkpoint(
        model_ids=[m["model_id"] for m in header["registry"]],
        dimension=d,
        word_range=tuple(feat["word_ngram_range"]),
        char_range=tuple(feat["char_ngram_range"]),
        lowercase=bool(feat["lowercase"]),
        weights=np.frombuffer(body[:k * d * 8], dtype="<f8").reshape(k, d),
        bias=np.frombuffer(body[k * d * 8:], dtype="<f8"),
    )


def ngrams(text: str, word_range: tuple[int, int], char_range: tuple[int, int]) -> list[str]:
    words = text.split()
    grams = []
    for n in range(word_range[0], word_range[1] + 1):
        grams.extend(" ".join(words[i:i + n]) for i in range(len(words) - n + 1))
    for n in range(char_range[0], char_range[1] + 1):
        grams.extend(CHAR_PREFIX + text[i:i + n] for i in range(len(text) - n + 1))
    return grams


def featurize(ckpt: Checkpoint, text: str) -> dict[int, float]:
    """Bucket -> L2-normalized count; empty for whitespace-only text."""
    if not text.strip():
        return {}
    if ckpt.lowercase:
        text = text.lower()
    counts = Counter(fnv1a_64(g.encode("utf-8")) % ckpt.dimension
                     for g in ngrams(text, ckpt.word_range, ckpt.char_range))
    norm = math.sqrt(math.fsum(c * c for c in counts.values()))
    return {bucket: c / norm for bucket, c in counts.items()}


def distribution(ckpt: Checkpoint, text: str) -> list[float]:
    """softmax(W x + b) for one query, summed with math.fsum."""
    x = featurize(ckpt, text)
    logits = [
        math.fsum(float(ckpt.weights[k, j]) * v for j, v in x.items()) + float(ckpt.bias[k])
        for k in range(len(ckpt.model_ids))
    ]
    top = max(logits)
    e = [math.exp(z - top) for z in logits]
    total = math.fsum(e)
    return [v / total for v in e]


def stub_text(model_id: str, query: str) -> str:
    return f"{model_id}:{hashlib.sha256(query.encode('utf-8')).hexdigest()[:12]}"


def query_hash(query: str) -> str:
    return hashlib.sha256(query.encode("utf-8")).hexdigest()[:16]


def check_distribution(dist, model_id: str, model_ids: list[str]) -> str | None:
    """Why a (distribution, model_id) reply is malformed, or None when it is fine."""
    if not isinstance(dist, list) or len(dist) != len(model_ids):
        return f"distribution has {len(dist) if isinstance(dist, list) else '?'} entries"
    if any(not isinstance(p, float) or not 0.0 <= p <= 1.0 for p in dist):
        return "distribution entry outside [0, 1]"
    if abs(math.fsum(dist) - 1.0) > 1e-9:
        return f"distribution sums to {math.fsum(dist)!r}"
    argmax = max(range(len(dist)), key=lambda k: (dist[k], -k))
    if model_ids[argmax] != model_id:
        return f"model_id {model_id} is not the argmax {model_ids[argmax]}"
    return None


def max_abs_diff(a: list[float], b: list[float]) -> float:
    return max(abs(x - y) for x, y in zip(a, b))
