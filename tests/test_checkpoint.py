import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from rewardroute import (
    CheckpointError,
    ModelRegistry,
    init_router,
    load_checkpoint,
    save_checkpoint,
)
from rewardroute.checkpoint import FORMAT_VERSION, MAGIC, deserialize_model, serialize_model
from rewardroute.features import FeaturizerConfig


def _model():
    reg = ModelRegistry(("m0", "m1", "m2"))
    model = init_router(reg, FeaturizerConfig(dimension=512), seed=11)
    # non-trivial bias so the round trip exercises both parameter blocks
    return type(model)(
        weights=model.weights, bias=np.array([0.1, -0.2, 0.3]),
        featurizer_config=model.featurizer_config, registry=reg,
    )


def _sealed(payload: bytes) -> bytes:
    """A version-1 checkpoint around this payload, with a valid digest."""
    return MAGIC + struct.pack("<I", 1) + payload + hashlib.sha256(payload).digest()


def _hand_built(header: dict, model) -> bytes:
    """A version-1 checkpoint with this header, the model's parameters and a valid digest."""
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = struct.pack("<I", len(header_bytes)) + header_bytes
    payload += model.weights.astype("<f8").tobytes() + model.bias.astype("<f8").tobytes()
    return _sealed(payload)


def test_round_trip_is_bit_exact(tmp_path):
    model = _model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.weights, model.weights)
    np.testing.assert_array_equal(loaded.bias, model.bias)
    assert loaded.registry == model.registry
    assert loaded.featurizer_config == model.featurizer_config
    assert loaded.version == model.version


def test_serialization_is_deterministic():
    model = _model()
    assert serialize_model(model) == serialize_model(model)


def test_layout_starts_with_magic_and_version():
    blob = serialize_model(_model())
    assert blob[:4] == MAGIC
    assert struct.unpack("<I", blob[4:8])[0] == FORMAT_VERSION


def test_header_is_self_describing():
    blob = serialize_model(_model())
    (header_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + header_len].decode("utf-8"))
    assert header["num_models"] == 3
    assert header["dimension"] == 512
    assert header["registry"] == [{"model_id": "m0"}, {"model_id": "m1"}, {"model_id": "m2"}]
    assert header["featurizer"]["word_ngram_range"] == [1, 2]


def test_truncated_checkpoint_is_rejected(tmp_path):
    blob = serialize_model(_model())
    path = tmp_path / "short.ckpt"
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="corrupt|truncated|short"):
        load_checkpoint(path)


def test_flipped_byte_fails_checksum():
    blob = bytearray(serialize_model(_model()))
    blob[100] ^= 0xFF
    with pytest.raises(CheckpointError, match="checksum"):
        deserialize_model(bytes(blob))


def test_wrong_magic_is_rejected():
    blob = b"NOPE" + serialize_model(_model())[4:]
    with pytest.raises(CheckpointError, match="magic"):
        deserialize_model(blob)


def test_future_version_is_rejected():
    blob = bytearray(serialize_model(_model()))
    blob[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
    with pytest.raises(CheckpointError, match="version"):
        deserialize_model(bytes(blob))


@pytest.mark.parametrize("rebuild, match", [
    (lambda payload: struct.pack("<I", len(payload)) + payload[4:],
     "header extends past end of file"),
    (lambda payload: struct.pack("<I", 4) + b"{\xff}}" + payload[4:],
     "header is not valid JSON"),
    (lambda payload: payload[:-8], r"parameter block has \d+ bytes, expected \d+"),
], ids=["header-length-past-the-end", "header-not-json", "parameters-8-bytes-short"])
def test_digest_valid_blob_with_a_broken_layout_is_rejected(rebuild, match):
    payload = serialize_model(_model())[8:-32]
    with pytest.raises(CheckpointError, match=match):
        deserialize_model(_sealed(rebuild(payload)))


def test_tiny_garbage_file_is_rejected(tmp_path):
    path = tmp_path / "garbage.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_missing_file_is_a_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_parse_copies_the_parameters_once():
    reg = ModelRegistry(tuple(f"m{i}" for i in range(6)))
    model = init_router(reg, FeaturizerConfig(dimension=2 ** 16), seed=3)
    blob = serialize_model(model)
    tracemalloc.start()
    try:
        loaded = deserialize_model(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The weights' own copy plus RouterModel's K x D isfinite mask is 1.125x;
    # each bytes slice of the payload or parameter block would add 1x more.
    assert peak <= 1.5 * model.weights.nbytes, f"peak {peak / model.weights.nbytes:.2f}x"
    assert loaded.weights.tobytes() == model.weights.tobytes()
    # Writeable and owning its data: no view keeps the file's bytes alive.
    assert loaded.weights.flags.writeable and loaded.weights.flags.owndata
    # That one copy is already the column-major layout RouterModel keeps.
    assert loaded.weights.flags.f_contiguous
    assert loaded.bias.flags.writeable and loaded.bias.flags.owndata


def test_router_model_holds_one_column_major_copy_of_the_weights():
    model = _model()
    assert model.weights.flags.f_contiguous
    # A column-major float64 matrix is kept as it is, not copied again.
    again = type(model)(weights=model.weights, bias=model.bias,
                        featurizer_config=model.featurizer_config, registry=model.registry)
    assert again.weights is model.weights
    # The file stays row-major whatever the layout in memory.
    k, d = model.weights.shape
    blob = serialize_model(model)
    body = blob[-32 - (k * d + k) * 8:-32 - k * 8]
    assert body == np.ascontiguousarray(model.weights).astype("<f8").tobytes()


def test_loaded_model_routes_identically(tmp_path):
    from rewardroute import route

    model = _model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for text in ["alpha beta", "gamma delta epsilon", "one more query"]:
        orig_id, orig_probs = route(model, text)
        new_id, new_probs = route(loaded, text)
        assert orig_id == new_id
        np.testing.assert_array_equal(orig_probs, new_probs)


def test_checkpoint_with_endpoints_in_its_registry_loads_and_routes_identically():
    """Version-1 checkpoints written before the registry held only ids still load."""
    from rewardroute import route

    model = _model()
    header = {
        "model_version": model.version,
        "num_models": 3,
        "dimension": 512,
        "featurizer": model.featurizer_config.to_dict(),
        "registry": [
            {"model_id": "m0", "endpoint": "http://localhost:9000/", "display_name": "Zero"},
            {"model_id": "m1", "endpoint": None, "display_name": None},
            {"model_id": "m2", "endpoint": None, "display_name": None},
        ],
    }
    loaded = deserialize_model(_hand_built(header, model))
    assert loaded.registry == model.registry
    for text in ["alpha beta", "gamma delta epsilon", "one more query"]:
        old_id, old_probs = route(loaded, text)
        new_id, new_probs = route(model, text)
        assert old_id == new_id
        np.testing.assert_array_equal(old_probs, new_probs)
    # saved again, it has the ids-only header and the same parameter blocks
    assert serialize_model(loaded) == serialize_model(model)


@pytest.mark.parametrize("malform", [
    lambda header: {**header, "registry": [{"model_id": "m0"}, {"endpoint": "http://m1/"},
                                           {"model_id": "m2"}]},
    lambda header: {k: v for k, v in header.items() if k != "featurizer"},
    lambda header: list(header.items()),
    lambda header: {**header, "registry": header["registry"][:2]},
    lambda header: {**header, "registry": [{"model_id": 5}, *header["registry"][1:]]},
    # a featurizer recipe other than the one this build hashes
    lambda header: {**header, "featurizer": {**header["featurizer"], "word_ngram_range": [1, 3]}},
    # header integers are JSON integers, never coerced
    lambda header: {**header, "featurizer": {**header["featurizer"], "dimension": "512"}},
    lambda header: {**header, "featurizer": {**header["featurizer"], "dimension": 512.9}},
    lambda header: {**header, "dimension": "512"},
    lambda header: {**header, "dimension": 512.0},
    lambda header: {**header, "num_models": 3.0},
    lambda header: {**header, "model_version": "1"},
    lambda header: {**header, "model_version": True},
], ids=["registry-entry-without-model-id", "no-featurizer", "header-is-a-list",
        "registry-shorter-than-num-models", "registry-model-id-not-a-string",
        "word-orders-1-3", "featurizer-dimension-string", "featurizer-dimension-float",
        "dimension-string", "dimension-float", "num-models-float", "model-version-string",
        "model-version-bool"])
def test_malformed_header_is_a_checkpoint_error(malform, tmp_path, capsys):
    """A header whose checksum holds but whose fields do not is refused as data."""
    from rewardroute.cli import EXIT_DATA, main

    model = _model()
    header = {
        "model_version": model.version,
        "num_models": 3,
        "dimension": 512,
        "featurizer": model.featurizer_config.to_dict(),
        "registry": [{"model_id": m} for m in model.registry.ids],
    }
    path = tmp_path / "malformed.ckpt"
    path.write_bytes(_hand_built(malform(header), model))

    with pytest.raises(CheckpointError, match="malformed"):
        load_checkpoint(path)
    assert main(["route", "--checkpoint", str(path), "--query", "alpha beta"]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("error: malformed checkpoint")
