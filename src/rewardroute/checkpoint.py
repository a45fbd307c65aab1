"""Versioned binary checkpoint format for router models.

Layout (all integers little-endian, see docs/checkpoint_format.md):

    bytes 0..3    magic "RRCP"
    bytes 4..7    format version, uint32
    bytes 8..11   header length H, uint32
    next H bytes  header JSON (registry, featurizer config, shapes)
    next K*D*8    weight matrix, float64 row-major
    next K*8      bias vector, float64
    last 32       SHA-256 over all payload bytes (header length through bias)

A checkpoint is self-describing: loading needs no external registry, and
any corruption (truncation, bit flips) fails the checksum.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .data import registry_entries, registry_from_entries, to_number
from .errors import CheckpointError, DataFormatError
from .features import FeaturizerConfig
from .router import MODEL_FORMAT_VERSION, RouterModel

MAGIC = b"RRCP"
FORMAT_VERSION = 1
_DIGEST_SIZE = 32


def serialize_model(model: RouterModel) -> bytes:
    header = {
        "model_version": model.version,
        "num_models": model.num_models,
        "dimension": model.dimension,
        "featurizer": model.featurizer_config.to_dict(),
        "registry": registry_entries(model.registry),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = struct.pack("<I", len(header_bytes))
    payload += header_bytes
    payload += model.weights.astype("<f8").tobytes(order="C")
    payload += model.bias.astype("<f8").tobytes(order="C")
    digest = hashlib.sha256(payload).digest()
    return MAGIC + struct.pack("<I", FORMAT_VERSION) + payload + digest


def deserialize_model(blob: bytes) -> RouterModel:
    if len(blob) < 8 + 4 + _DIGEST_SIZE:
        raise CheckpointError("checkpoint too short to be valid")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad magic bytes {blob[:4]!r}, expected {MAGIC!r}")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {version}, "
            f"this build reads version {FORMAT_VERSION}"
        )
    # A view, so the payload, the parameter block and the weights' slice are
    # not copies of the file; only the weights and bias get their own memory.
    payload, digest = memoryview(blob)[8:-_DIGEST_SIZE], blob[-_DIGEST_SIZE:]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError("checksum mismatch: checkpoint is corrupt or truncated")
    (header_len,) = struct.unpack("<I", payload[:4])
    if len(payload) < 4 + header_len:
        raise CheckpointError("checkpoint header extends past end of file")
    try:
        header = json.loads(bytes(payload[4:4 + header_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint header is not valid JSON: {exc}") from exc
    # A valid checksum does not make the header well formed: a missing or
    # ill-typed field, or shapes that disagree, is still a CheckpointError.
    try:
        k = to_number(int, header["num_models"], "checkpoint header", "'num_models'")
        d = to_number(int, header["dimension"], "checkpoint header", "'dimension'")
        body = payload[4 + header_len:]
        expected = (k * d + k) * 8
        if len(body) != expected:
            raise CheckpointError(
                f"checkpoint parameter block has {len(body)} bytes, expected {expected}"
            )
        # The file is row-major; the one copy lays the weights out column-major,
        # as RouterModel holds them.
        weights = np.frombuffer(body[:k * d * 8], dtype="<f8").reshape(k, d).copy(order="F")
        bias = np.frombuffer(body[k * d * 8:], dtype="<f8").copy()
        return RouterModel(
            weights=weights,
            bias=bias,
            featurizer_config=FeaturizerConfig.from_dict(header["featurizer"]),
            registry=registry_from_entries(header["registry"], "checkpoint registry"),
            version=to_number(int, header.get("model_version", MODEL_FORMAT_VERSION),
                              "checkpoint header", "'model_version'"),
        )
    except (KeyError, TypeError, ValueError, OverflowError, DataFormatError) as exc:
        raise CheckpointError(f"malformed checkpoint ({type(exc).__name__}: {exc})") from exc


def save_checkpoint(model: RouterModel, path: str | Path) -> None:
    Path(path).write_bytes(serialize_model(model))


def load_checkpoint(path: str | Path) -> RouterModel:
    """Read a checkpoint; the registry comes from the file itself."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return deserialize_model(blob)
