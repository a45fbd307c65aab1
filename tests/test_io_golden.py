"""Files the CLI writes, pinned byte for byte.

The sha256 digests below were recorded before dataset, oracle, report and
result files shared one JSON-lines writer and one reader; every file must
still come out with the same bytes. The checkpoint and the eval run that
reads it were recorded before evaluation scored every routing policy as
one list of picks per row.
"""

import hashlib

import pytest

from rewardroute.cli import EXIT_OK, main
from rewardroute.fixtures import fixture_path

FIXTURES = {name: str(fixture_path(name)) for name in (
    "sample_dataset.jsonl", "registry.json", "tag_rules.json",
    "benchmark_queries.txt", "synthetic_spec.json",
)}

DIGESTS = {
    "synth.jsonl": "4b22cc25ee98a8c291cc3cb8a1b34203f3aafcc64b47803caf2b5dd15a33d2fc",
    "oracle.jsonl": "e32b9e6c7c7f1adf818bc755fdc663f587ce579d29b99eccf167f646afc28d82",
    "registry.json": "ed6225f88058068920828c15e2f8195cca5bc662ef58b133efeda7a1b7ad1152",
    "ingest.jsonl": "b566d3f478d56fb79961cb4be733d9ef7b409c6f6880ff3e86d309933055ffe3",
    "report.jsonl": "ab826bf6c56a214502074a018f0163b8e11757c51555fc6d952627a91b415da8",
    "tag.jsonl": "1f394dd006f1d1cd84e7c57f6f54b74a629da789d23f6f4f2c289c040b7e4feb",
    "eval.jsonl": "a2a17aa48fcf34f6ac6522475e9d2e1648ba29dcaa51607b620423c0ecf53316",
    "ablate.jsonl": "c65b5fd947ea00cd24b8ee775f3d14b8ec25a919748d91994d7d0c1ae841e1e8",
    "router.ckpt": "e589d78bff1810d4b4feaef985cb705fdf9a68ee0a8589cd2cf181aad79f3789",
    "eval_checkpoint.jsonl": "be807d041bc175caec6977bddbef8b99162e613650e252c488be938cd5270259",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(*argv: str) -> None:
    assert main(list(argv)) == EXIT_OK


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    _run("synth", "--spec", FIXTURES["synthetic_spec.json"],
         "--out-data", str(out / "synth.jsonl"), "--out-oracle", str(out / "oracle.jsonl"),
         "--out-registry", str(out / "registry.json"))
    return out


@pytest.mark.parametrize("name", ["synth.jsonl", "oracle.jsonl", "registry.json"])
def test_synth_files(synth_dir, name, capsys):
    capsys.readouterr()
    assert _digest(synth_dir / name) == DIGESTS[name]


def test_ingest_out_and_report(tmp_path, capsys):
    _run("ingest", "--data", FIXTURES["sample_dataset.jsonl"],
         "--registry", FIXTURES["registry.json"],
         "--benchmarks", FIXTURES["benchmark_queries.txt"],
         "--out", str(tmp_path / "ingest.jsonl"), "--report", str(tmp_path / "report.jsonl"))
    capsys.readouterr()
    for name in ("ingest.jsonl", "report.jsonl"):
        assert _digest(tmp_path / name) == DIGESTS[name]


def test_tag_out(tmp_path, capsys):
    _run("tag", "--data", FIXTURES["sample_dataset.jsonl"],
         "--registry", FIXTURES["registry.json"], "--rules", FIXTURES["tag_rules.json"],
         "--out", str(tmp_path / "tag.jsonl"))
    capsys.readouterr()
    assert _digest(tmp_path / "tag.jsonl") == DIGESTS["tag.jsonl"]


def test_eval_rmr_out(synth_dir, tmp_path, capsys):
    _run("eval", "--data", str(synth_dir / "synth.jsonl"),
         "--registry", str(synth_dir / "registry.json"),
         "--oracle", str(synth_dir / "oracle.jsonl"), "--rmr",
         "--out", str(tmp_path / "eval.jsonl"))
    capsys.readouterr()
    assert _digest(tmp_path / "eval.jsonl") == DIGESTS["eval.jsonl"]


def test_train_then_eval_rmr_with_checkpoint_out(synth_dir, tmp_path, capsys):
    # After one epoch the router is below the oracle on some subsets, not all.
    data, registry = str(synth_dir / "synth.jsonl"), str(synth_dir / "registry.json")
    _run("train", "--data", data, "--registry", registry, "--epochs", "1",
         "--dimension", "4096", "--out", str(tmp_path / "router.ckpt"))
    _run("eval", "--data", data, "--registry", registry,
         "--oracle", str(synth_dir / "oracle.jsonl"), "--rmr",
         "--checkpoint", str(tmp_path / "router.ckpt"),
         "--out", str(tmp_path / "eval_checkpoint.jsonl"))
    capsys.readouterr()
    for name in ("router.ckpt", "eval_checkpoint.jsonl"):
        assert _digest(tmp_path / name) == DIGESTS[name]


def test_ablate_out(tmp_path, capsys):
    _run("ablate", "--spec", FIXTURES["synthetic_spec.json"], "--betas", "0,0.3,1",
         "--out", str(tmp_path / "ablate.jsonl"))
    capsys.readouterr()
    assert _digest(tmp_path / "ablate.jsonl") == DIGESTS["ablate.jsonl"]
