"""Every malformed input file is a DataFormatError that names where it broke.

Each case goes through the library call and through the CLI: the CLI exits
with the data-error status after one "error:" line on stderr and no
traceback.
"""

import json
from dataclasses import dataclass
from typing import Callable

import pytest

from rewardroute import DataFormatError, SyntheticSpec, load_dataset, load_oracle, load_registry
from rewardroute.cli import EXIT_DATA, main
from rewardroute.gateway import GatewayConfig


def _json(value) -> bytes:
    return json.dumps(value).encode("utf-8")


ROW = {"id": "q1", "query": "add two numbers", "tags": ["math"], "rewards": {"a": 0.5, "b": 0.25}}
SPEC = {"num_models": 2, "clusters": {"arith": ["sum", "carry"], "chem": ["acid", "base"]},
        "queries_per_cluster": 2, "expertise_margin": 1.0, "noise_sigma": 0.1, "seed": 0}

# Well-formed files; each case replaces one of them.
BASE = {
    "registry.json": _json({"models": [{"model_id": "a", "endpoint": "http://127.0.0.1:9/"},
                                       {"model_id": "b", "endpoint": "http://127.0.0.1:9/"}]}),
    "data.jsonl": _json(ROW) + b"\n",
    "oracle.jsonl": _json({"id": "q1", "scores": {"a": 1.0, "b": 0.0}}) + b"\n",
    "gateway.json": _json({"checkpoint": "router.ckpt", "registry": "registry.json"}),
    "spec.json": _json(SPEC),
}


def _row(**fields) -> dict[str, bytes]:
    return {"data.jsonl": _json({**ROW, **fields}) + b"\n"}


def _load_dataset(d):
    return load_dataset(d / "data.jsonl", load_registry(d / "registry.json"))


def _load_oracle(d):
    return load_oracle(d / "oracle.jsonl", load_registry(d / "registry.json"))


def _ingest(d):
    return ["ingest", "--data", str(d / "data.jsonl"), "--registry", str(d / "registry.json"),
            "--out", str(d / "out.jsonl")]


def _eval(d):
    return ["eval", "--data", str(d / "data.jsonl"), "--registry", str(d / "registry.json"),
            "--oracle", str(d / "oracle.jsonl")]


def _serve(d):
    return ["serve", "--config", str(d / "gateway.json")]


def _synth(d):
    return ["synth", "--spec", str(d / "spec.json"), "--out-data", str(d / "s.jsonl"),
            "--out-oracle", str(d / "s_oracle.jsonl")]


@dataclass(frozen=True)
class Case:
    name: str
    files: dict[str, bytes]
    load: Callable
    argv: Callable
    match: str  # where the error points: the file or line, and the field


CASES = [
    Case("dataset reward 'abc'", _row(rewards={"a": "abc", "b": 0.25}), _load_dataset, _ingest,
         r"line 1: reward entry for model 'a' must be a number"),
    Case("dataset reward null", _row(rewards={"a": None, "b": 0.25}), _load_dataset, _ingest,
         r"line 1: reward entry for model 'a' must be a number"),
    Case("dataset tags 'math'", _row(tags="math"), _load_dataset, _ingest,
         r"line 1: 'tags' must be a list of strings"),
    Case("dataset tags 5", _row(tags=5), _load_dataset, _ingest,
         r"line 1: 'tags' must be a list of strings"),
    Case("dataset query null", _row(query=None), _load_dataset, _ingest,
         r"line 1: 'query' must be a string"),
    Case("registry model_id null",
         {"registry.json": _json({"models": [{"model_id": None}, {"model_id": "b"}]}),
          **_row(rewards={"None": 0.5, "b": 0.25})},
         _load_dataset, _ingest, r"registry\.json: entry 0: 'model_id' must be a string"),
    Case("oracle line 5", {"oracle.jsonl": b"5\n"}, _load_oracle, _eval,
         r"oracle line 1: record is not a JSON object"),
    Case("oracle score 'x'",
         {"oracle.jsonl": _json({"id": "q1", "scores": {"a": "x", "b": 0.0}}) + b"\n"},
         _load_oracle, _eval, r"oracle line 1: score for model 'a' must be a number"),
    Case("non-UTF-8 dataset", {"data.jsonl": b"\xff\xfe" + _json(ROW) + b"\n"},
         _load_dataset, _ingest, r"cannot read dataset file .*data\.jsonl"),
    # A list holding the required key names passes a bare `key in raw` check.
    Case("gateway config JSON list", {"gateway.json": _json(["checkpoint", "registry"])},
         lambda d: GatewayConfig.from_file(d / "gateway.json"), _serve,
         r"gateway\.json must be a JSON object"),
    Case("gateway config port 'abc'",
         {"gateway.json": _json({"checkpoint": "router.ckpt", "registry": "registry.json",
                                 "port": "abc"})},
         lambda d: GatewayConfig.from_file(d / "gateway.json"), _serve,
         r"gateway\.json: 'port' must be an integer"),
    Case("spec cluster 'sum carry'",
         {"spec.json": _json({**SPEC, "clusters": {"arith": "sum carry", "chem": ["acid"]}})},
         lambda d: SyntheticSpec.from_file(d / "spec.json"), _synth,
         r"spec\.json: cluster 'arith' must be a list of strings"),
    Case("spec expertise leaves out a cluster",
         {"spec.json": _json({**SPEC, "expertise": {"arith": "m1"}})},
         lambda d: SyntheticSpec.from_file(d / "spec.json"), _synth,
         r"spec\.json is malformed: expertise map leaves out cluster\(s\) \['chem'\]"),
    Case("spec expertise names an unknown model",
         {"spec.json": _json({**SPEC, "expertise": {"arith": "m1", "chem": "m7"}})},
         lambda d: SyntheticSpec.from_file(d / "spec.json"), _synth,
         r"spec\.json is malformed: expertise map names unknown model\(s\) \['m7'\]"),
    Case("spec words_per_query 'ab'",
         {"spec.json": _json({**SPEC, "words_per_query": "ab"})},
         lambda d: SyntheticSpec.from_file(d / "spec.json"), _synth,
         r"spec\.json is malformed: words_per_query must be two integers"),
    Case("oracle id twice",
         {"oracle.jsonl": _json({"id": "q1", "scores": {"a": 1.0, "b": 0.0}}) + b"\n"
                          + _json({"id": "q1", "scores": {"a": 5.0, "b": 0.0}}) + b"\n"},
         _load_oracle, _eval, r"oracle line 2: duplicate query id 'q1'"),
]


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_malformed_input_is_a_data_error(case, tmp_path, capsys):
    for name, content in {**BASE, **case.files}.items():
        (tmp_path / name).write_bytes(content)
    with pytest.raises(DataFormatError, match=case.match):
        case.load(tmp_path)

    code = main(case.argv(tmp_path))
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err
