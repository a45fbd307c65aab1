"""End-to-end tests for the command-line interface.

Every test drives cli.main() in process so exit codes and stdout are
checked directly; one test runs the real console entry point in a
subprocess to cover signal handling.
"""

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from rewardroute.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    build_parser,
    main,
)
from rewardroute.data import load_dataset, load_registry, save_dataset
from rewardroute.features import FeaturizerConfig
from rewardroute.fixtures import fixture_path
from rewardroute.router import TrainConfig

DATA = str(fixture_path("sample_dataset.jsonl"))
REGISTRY = str(fixture_path("registry.json"))
RULES = str(fixture_path("tag_rules.json"))
BENCHMARKS = str(fixture_path("benchmark_queries.txt"))

SUBCOMMANDS = ["ingest", "tag", "train", "eval", "ablate", "route", "synth", "serve"]

FAST_TRAIN = ["--dimension", "2048", "--epochs", "4", "--seed", "3"]


def _write_tiny_spec(path) -> str:
    spec = {
        "num_models": 3,
        "clusters": {
            "tides": ["ebb", "flood", "neap", "spring", "lunar", "swell"],
            "gears": ["cog", "sprocket", "ratio", "torque", "pinion", "mesh"],
            "herbs": ["basil", "thyme", "sage", "mint", "dill", "fennel"],
        },
        "queries_per_cluster": 30,
        "expertise_margin": 1.0,
        "noise_sigma": 0.1,
        "seed": 5,
    }
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def tiny_spec_file(tmp_path_factory):
    return _write_tiny_spec(tmp_path_factory.mktemp("spec") / "spec.json")


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory):
    """Checkpoint trained via the CLI on the bundled sample dataset."""
    path = str(tmp_path_factory.mktemp("ckpt") / "router.ckpt")
    code = main(["train", "--data", DATA, "--registry", REGISTRY,
                 "--out", path, *FAST_TRAIN])
    assert code == EXIT_OK
    return path


@pytest.fixture(scope="module")
def synth_files(tmp_path_factory, tiny_spec_file):
    """Dataset, oracle, and registry files emitted by the synth subcommand."""
    base = tmp_path_factory.mktemp("synth")
    paths = {
        "data": str(base / "bench.jsonl"),
        "oracle": str(base / "oracle.jsonl"),
        "registry": str(base / "registry.json"),
    }
    code = main(["synth", "--spec", tiny_spec_file,
                 "--out-data", paths["data"], "--out-oracle", paths["oracle"],
                 "--out-registry", paths["registry"]])
    assert code == EXIT_OK
    return paths


# ---------------------------------------------------------------------------
# help and usage errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_subcommand_help_exits_zero(subcommand, capsys):
    assert main([subcommand, "--help"]) == EXIT_OK
    assert "--help" in capsys.readouterr().out


def test_top_level_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    for subcommand in SUBCOMMANDS:
        assert subcommand in out


def test_help_has_no_side_effects(tmp_path, capsys):
    out_path = tmp_path / "never_written.ckpt"
    code = main(["train", "--help", "--data", DATA, "--registry", REGISTRY,
                 "--out", str(out_path)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert not out_path.exists()


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    code = main(["route", "--checkpoint", "x", "--query", "q", "--bogus"])
    capsys.readouterr()
    assert code == EXIT_USAGE


@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
def test_beta_out_of_range_is_usage_error(value, tmp_path, capsys):
    code = main(["train", "--data", DATA, "--registry", REGISTRY,
                 "--out", str(tmp_path / "x.ckpt"), "--beta", value])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_bad_beta_list_is_usage_error(tmp_path, capsys):
    # The betas are checked before the spec file is read.
    code = main(["ablate", "--spec", str(tmp_path / "missing.json"), "--betas", "0.2,7"])
    assert capsys.readouterr().err == "error: beta must lie in [0, 1], got 7.0\n"
    assert code == EXIT_USAGE


@pytest.mark.parametrize("flag, value", [
    ("--lr", "nan"), ("--lr", "inf"), ("--temperature", "inf"), ("--temperature", "nan"),
    ("--l2", "nan"), ("--l2", "inf"), ("--epochs", "0"), ("--dimension", "1"),
])
def test_bad_train_number_is_usage_error_before_any_file_is_read(flag, value, tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "missing.jsonl"), "--registry", REGISTRY,
                 "--out", str(tmp_path / "x.ckpt"), flag, value])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "missing.jsonl" not in err
    assert not (tmp_path / "x.ckpt").exists()


# ---------------------------------------------------------------------------
# data errors
# ---------------------------------------------------------------------------

def test_malformed_dataset_exits_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "q-1", "query": "x"\n', encoding="utf-8")
    code = main(["ingest", "--data", str(bad), "--registry", REGISTRY,
                 "--out", str(tmp_path / "out.jsonl")])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert "error:" in err


def test_unreadable_path_exits_data_error(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    code = main(["ingest", "--data", str(missing), "--registry", REGISTRY,
                 "--out", str(tmp_path / "out.jsonl")])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert str(missing) in err


def test_corrupt_checkpoint_exits_data_error(tmp_path, capsys):
    garbage = tmp_path / "garbage.ckpt"
    garbage.write_bytes(b"not a checkpoint at all")
    code = main(["route", "--checkpoint", str(garbage), "--query", "hello"])
    capsys.readouterr()
    assert code == EXIT_DATA


def test_malformed_rules_exits_data_error(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text('{"math": "not-a-list"}', encoding="utf-8")
    code = main(["tag", "--data", DATA, "--registry", REGISTRY,
                 "--rules", str(rules), "--out", str(tmp_path / "out.jsonl")])
    capsys.readouterr()
    assert code == EXIT_DATA


# ---------------------------------------------------------------------------
# runtime errors
# ---------------------------------------------------------------------------

def test_divergent_training_exits_runtime_error(tmp_path, capsys):
    code = main(["train", "--data", DATA, "--registry", REGISTRY,
                 "--out", str(tmp_path / "x.ckpt"),
                 "--dimension", "512", "--epochs", "6", "--lr", "1e300"])
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME
    assert "last finite loss" in err


def test_divergence_prints_the_last_finite_loss_once(tmp_path, capsys):
    code = main(["train", "--data", DATA, "--registry", REGISTRY,
                 "--out", str(tmp_path / "x.ckpt"),
                 "--dimension", "512", "--epochs", "6", "--lr", "1e300"])
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME
    assert err.count("last finite loss") == 1
    assert len(err.splitlines()) == 1


def test_serve_on_occupied_port_exits_runtime_error(tmp_path, ckpt, capsys):
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    port = blocker.getsockname()[1]
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({"models": [
        {"model_id": m, "endpoint": "http://127.0.0.1:1/"}
        for m in ("mathsolver", "codegen", "generalist")
    ]}), encoding="utf-8")
    config = tmp_path / "gateway.json"
    config.write_text(json.dumps({
        "checkpoint": ckpt, "registry": str(registry),
        "host": "127.0.0.1", "port": port,
    }), encoding="utf-8")
    try:
        code = main(["serve", "--config", str(config)])
    finally:
        blocker.close()
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME
    assert "bind" in err


def _serve_config(tmp_path, ckpt, port) -> str:
    """A gateway config on `port` whose backends are never called."""
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({"models": [
        {"model_id": m, "endpoint": "http://127.0.0.1:1/"}
        for m in ("mathsolver", "codegen", "generalist")
    ]}), encoding="utf-8")
    config = tmp_path / "gateway.json"
    config.write_text(json.dumps({"checkpoint": ckpt, "registry": str(registry), "port": port}),
                      encoding="utf-8")
    return str(config)


@pytest.mark.parametrize("port", [-1, 70000])
def test_serve_on_a_port_out_of_range_exits_runtime_error(tmp_path, ckpt, capsys, port):
    code = main(["serve", "--config", _serve_config(tmp_path, ckpt, port)])
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "port" in err


@pytest.mark.parametrize("endpoint", ["https://127.0.0.1:9/", "localhost:9001"])
def test_serve_with_an_endpoint_that_is_not_an_http_url_exits_runtime_error(
        tmp_path, ckpt, capsys, monkeypatch, endpoint):
    from rewardroute.gateway import Gateway

    # Were the endpoint accepted, serve would return at once instead of serving on.
    monkeypatch.setattr(Gateway, "serve_forever", Gateway.shutdown)
    config = _serve_config(tmp_path, ckpt, 0)
    registry = tmp_path / "registry.json"
    registry.write_text(registry.read_text(encoding="utf-8").replace(
        "http://127.0.0.1:1/", endpoint, 1), encoding="utf-8")
    code = main(["serve", "--config", config])
    err = capsys.readouterr().err
    assert code == EXIT_RUNTIME
    assert err.startswith("error: model 'mathsolver': endpoint") and len(err.splitlines()) == 1


def test_serving_does_not_import_scipy_stats():
    # scipy.stats is most of the CLI's import time and serving never uses it
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rewardroute.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


_SERVE_WITHOUT_SCIPY = """
import json, sys, urllib.request
import rewardroute.cli
from rewardroute import Gateway, GatewayConfig, StubBackend

ckpt, ids = sys.argv[1], sys.argv[2:]
backends = [StubBackend(m).start() for m in ids]
gw = Gateway(GatewayConfig(checkpoint_path=ckpt, port=0,
                           endpoints={m: b.endpoint for m, b in zip(ids, backends)}))
gw.start()
statuses = []
for path, payload in [("/route", {"query": "tide moon shore"}),
                      ("/generate", {"query": "tide moon shore"}),
                      ("/admin/reload", {"checkpoint_path": ckpt})]:
    req = urllib.request.Request(gw.url + path, json.dumps(payload).encode(),
                                 {"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        statuses.append(resp.status)
gw.shutdown()
for b in backends:
    b.shutdown()
print(json.dumps({"statuses": statuses, "scipy": "scipy" in sys.modules}))
"""


def test_serving_does_not_import_scipy(ckpt):
    # Serving never builds a CSR matrix; scipy.sparse alone is ~16 MiB of the process.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SERVE_WITHOUT_SCIPY, ckpt, *load_registry(REGISTRY).ids],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {"statuses": [200, 200, 200], "scipy": False}


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def test_ingest_removes_planted_contaminated_row(tmp_path, capsys):
    out = tmp_path / "clean.jsonl"
    report = tmp_path / "removed.jsonl"
    code = main(["ingest", "--data", DATA, "--registry", REGISTRY,
                 "--out", str(out), "--benchmarks", BENCHMARKS,
                 "--report", str(report)])
    printed = capsys.readouterr().out
    assert code == EXIT_OK

    registry = load_registry(REGISTRY)
    kept = load_dataset(out, registry)
    assert len(kept) == 59
    assert all(row.query.id != "q-032" for row in kept.rows)

    records = [json.loads(line) for line in report.read_text().splitlines()]
    assert [r["id"] for r in records] == ["q-032"]
    assert len(records[0]["ngram"]) == 6
    assert "kept 59 rows, removed 1" in printed
    assert "q-032" in printed


def test_ingest_screens_the_dataset_once(tmp_path, monkeypatch):
    import rewardroute.decontamination

    calls = []
    screen = rewardroute.decontamination.find_contaminated

    def counting_screen(*args, **kwargs):
        calls.append(args)
        return screen(*args, **kwargs)

    monkeypatch.setattr(rewardroute.decontamination, "find_contaminated", counting_screen)
    code = main(["ingest", "--data", DATA, "--registry", REGISTRY,
                 "--out", str(tmp_path / "clean.jsonl"), "--benchmarks", BENCHMARKS])
    assert code == EXIT_OK
    assert len(calls) == 1


def test_ingest_without_benchmarks_is_passthrough(tmp_path, capsys):
    out = tmp_path / "copy.jsonl"
    code = main(["ingest", "--data", DATA, "--registry", REGISTRY,
                 "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    assert "kept 60 rows, removed 0" in printed

    reference = tmp_path / "reference.jsonl"
    save_dataset(load_dataset(DATA, load_registry(REGISTRY)), reference)
    assert out.read_bytes() == reference.read_bytes()


# ---------------------------------------------------------------------------
# tag
# ---------------------------------------------------------------------------

def test_tag_reproduces_fixture_tags(tmp_path, capsys):
    registry = load_registry(REGISTRY)
    original = load_dataset(DATA, registry)
    stripped = tmp_path / "untagged.jsonl"
    rows = [
        json.dumps({"id": r.query.id, "query": r.query.text, "tags": [],
                    "rewards": dict(zip(registry.ids, map(float, r.rewards)))})
        for r in original.rows
    ]
    stripped.write_text("\n".join(rows) + "\n", encoding="utf-8")

    out = tmp_path / "retagged.jsonl"
    code = main(["tag", "--data", str(stripped), "--registry", REGISTRY,
                 "--rules", RULES, "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    assert "tagged 54 of 60 rows" in printed

    retagged = load_dataset(out, registry)
    for fresh, ref in zip(retagged.rows, original.rows):
        assert fresh.query.tags == ref.query.tags, fresh.query.id


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_prints_losses_and_writes_checkpoint(tmp_path, capsys):
    out = tmp_path / "router.ckpt"
    code = main(["train", "--data", DATA, "--registry", REGISTRY,
                 "--out", str(out), *FAST_TRAIN])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.exists()
    assert "epoch 1/4 loss " in printed
    assert "final loss " in printed


def test_train_same_seed_is_byte_identical(tmp_path, capsys):
    args = ["train", "--data", DATA, "--registry", REGISTRY, *FAST_TRAIN]
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    assert main(args + ["--out", str(first)]) == EXIT_OK
    assert main(args + ["--out", str(second)]) == EXIT_OK
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_train_different_seed_changes_checkpoint(tmp_path, capsys):
    base = ["train", "--data", DATA, "--registry", REGISTRY,
            "--dimension", "2048", "--epochs", "4"]
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    assert main(base + ["--seed", "3", "--out", str(first)]) == EXIT_OK
    assert main(base + ["--seed", "4", "--out", str(second)]) == EXIT_OK
    capsys.readouterr()
    assert first.read_bytes() != second.read_bytes()


def test_train_prints_phase_times_on_one_stderr_line(tmp_path, capsys):
    code = main(["train", "--data", DATA, "--registry", REGISTRY,
                 "--out", str(tmp_path / "router.ckpt"), *FAST_TRAIN])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    lines = captured.err.splitlines()
    assert len(lines) == 1
    for phase in ("featurize", "targets", "optimize", "decay"):
        assert f" {phase} " in lines[0]
        assert phase not in captured.out


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_is_deterministic(tmp_path, tiny_spec_file, capsys):
    paths = {}
    for run in ("a", "b"):
        paths[run] = (tmp_path / f"{run}.jsonl", tmp_path / f"{run}_oracle.jsonl")
        code = main(["synth", "--spec", tiny_spec_file, "--seed", "7",
                     "--out-data", str(paths[run][0]),
                     "--out-oracle", str(paths[run][1])])
        assert code == EXIT_OK
    capsys.readouterr()
    assert paths["a"][0].read_bytes() == paths["b"][0].read_bytes()
    assert paths["a"][1].read_bytes() == paths["b"][1].read_bytes()


def test_synth_seed_flag_overrides_spec(tmp_path, tiny_spec_file, capsys):
    default = tmp_path / "default.jsonl"
    seeded = tmp_path / "seeded.jsonl"
    assert main(["synth", "--spec", tiny_spec_file, "--out-data", str(default),
                 "--out-oracle", str(tmp_path / "d_oracle.jsonl")]) == EXIT_OK
    assert main(["synth", "--spec", tiny_spec_file, "--seed", "7",
                 "--out-data", str(seeded),
                 "--out-oracle", str(tmp_path / "s_oracle.jsonl")]) == EXIT_OK
    capsys.readouterr()
    assert default.read_bytes() != seeded.read_bytes()


def test_synth_writes_registry(synth_files):
    registry = load_registry(synth_files["registry"])
    assert list(registry.ids) == ["m0", "m1", "m2"]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_table_shows_perfect_oracle(synth_files, capsys):
    code = main(["eval", "--data", synth_files["data"],
                 "--registry", synth_files["registry"],
                 "--oracle", synth_files["oracle"]])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    assert "oracle" in printed
    assert "1.00" in printed


def test_eval_records_include_router_and_rmr(tmp_path, synth_files, capsys):
    ckpt = tmp_path / "synth.ckpt"
    assert main(["train", "--data", synth_files["data"],
                 "--registry", synth_files["registry"],
                 "--out", str(ckpt), *FAST_TRAIN]) == EXIT_OK
    capsys.readouterr()

    out = tmp_path / "records.jsonl"
    code = main(["eval", "--data", synth_files["data"],
                 "--registry", synth_files["registry"],
                 "--oracle", synth_files["oracle"],
                 "--checkpoint", str(ckpt), "--rmr",
                 "--out", str(out), "--format", "records"])
    printed = capsys.readouterr().out
    assert code == EXIT_OK

    records = [json.loads(line) for line in printed.splitlines()]
    systems = {r["system"] for r in records}
    assert {"oracle", "router", "rmr"} <= systems
    assert {"single:m0", "single:m1", "single:m2"} <= systems
    for record in records:
        if record["system"] == "oracle":
            assert record["mtr"] == 1.0
            assert record["uplift_rate"] == 1.0

    file_records = [json.loads(line) for line in out.read_text().splitlines()]
    assert file_records == records


def test_eval_with_a_nan_oracle_score_exits_data_error(tmp_path, capsys):
    # Python's json reads NaN, so the file loads; the score must not.
    registry = tmp_path / "registry.json"
    registry.write_text('{"models": [{"model_id": "a"}, {"model_id": "b"}]}', encoding="utf-8")
    data = tmp_path / "data.jsonl"
    data.write_text('{"id": "q1", "query": "tide moon", "rewards": {"a": 0.2, "b": 0.8}}\n',
                    encoding="utf-8")
    oracle = tmp_path / "oracle.jsonl"
    oracle.write_text('{"id":"q1","scores":{"a":NaN,"b":1.0}}\n', encoding="utf-8")
    code = main(["eval", "--data", str(data), "--registry", str(registry),
                 "--oracle", str(oracle), "--rmr"])
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert captured.out == ""
    assert captured.err == "error: oracle scores for query 'q1' have a non-finite entry\n"


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def test_ablate_emits_one_row_per_beta(tiny_spec_file, tmp_path, capsys):
    out = tmp_path / "ablation.jsonl"
    code = main(["ablate", "--spec", tiny_spec_file, "--betas", "0,0.5,1.0",
                 "--epochs", "3", "--out", str(out), "--format", "records"])
    printed = capsys.readouterr().out
    assert code == EXIT_OK

    records = [json.loads(line) for line in printed.splitlines()]
    assert [r["beta"] for r in records] == [0.0, 0.5, 1.0]
    for record in records:
        assert 0.0 <= record["routing_accuracy"] <= 1.0
    assert [json.loads(line) for line in out.read_text().splitlines()] == records


def test_ablate_prints_phase_times_on_one_stderr_line(tiny_spec_file, capsys):
    code = main(["ablate", "--spec", tiny_spec_file, "--betas", "0,1", "--epochs", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ablate ")
    for phase in ("featurize", "targets", "optimize", "decay"):
        assert f" {phase} " in lines[0]
        assert phase not in captured.out


def test_ablate_table_format(tiny_spec_file, capsys):
    code = main(["ablate", "--spec", tiny_spec_file, "--betas", "0.3",
                 "--epochs", "3"])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    assert "beta" in printed
    assert " 0.30" in printed


# ---------------------------------------------------------------------------
# route
# ---------------------------------------------------------------------------

def test_route_records_distribution_sums_to_one(ckpt, capsys):
    code = main(["route", "--checkpoint", ckpt,
                 "--query", "find the derivative of x cubed",
                 "--format", "records"])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    record = json.loads(printed)
    assert record["model_id"] in record["distribution"]
    assert set(record["distribution"]) == {"mathsolver", "codegen", "generalist"}
    assert abs(sum(record["distribution"].values()) - 1.0) < 1e-9


def test_route_table_prints_choice(ckpt, capsys):
    code = main(["route", "--checkpoint", ckpt,
                 "--query", "write a python function to sort a list"])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    assert printed.startswith("model_id: ")
    assert "codegen" in printed


def test_train_and_ablate_flags_default_to_the_config_dataclasses():
    parser = build_parser()
    train = parser.parse_args(["train", "--data", "d", "--registry", "r", "--out", "o"])
    assert TrainConfig(learning_rate=train.lr, epochs=train.epochs,
                       batch_size=train.batch_size, beta=train.beta,
                       temperature=train.temperature, l2_penalty=train.l2,
                       seed=train.seed) == TrainConfig()
    assert train.dimension == FeaturizerConfig().dimension
    ablate = parser.parse_args(["ablate", "--spec", "s"])
    assert (ablate.lr, ablate.epochs, ablate.seed) == (
        TrainConfig().learning_rate, TrainConfig().epochs, TrainConfig().seed)


def test_route_query_without_a_utf8_form_exits_data_error(ckpt, capsys):
    # Python decodes an argv byte that is not UTF-8, such as the 0xff of
    # --query "$(printf 'tide \xff moon')", to the lone surrogate U+DCFF.
    code = main(["route", "--checkpoint", ckpt, "--query", "tide \udcff moon"])
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: --query holds a lone surrogate at character 5")


@pytest.mark.parametrize("query", ["", "   ", "\t\n"])
def test_route_blank_query_exits_data_error(ckpt, capsys, query):
    code = main(["route", "--checkpoint", ckpt, "--query", query])
    captured = capsys.readouterr()
    assert code == EXIT_DATA
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0] == "error: --query is blank"


# ---------------------------------------------------------------------------
# serve (subprocess, signal handling)
# ---------------------------------------------------------------------------

def test_serve_subprocess_stops_cleanly_on_sigint(tmp_path, ckpt):
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({"models": [
        {"model_id": m, "endpoint": "http://127.0.0.1:1/"}
        for m in ("mathsolver", "codegen", "generalist")
    ]}), encoding="utf-8")
    config = tmp_path / "gateway.json"
    config.write_text(json.dumps({  # port 0: the child binds a free port itself
        "checkpoint": ckpt, "registry": str(registry), "host": "127.0.0.1", "port": 0,
    }), encoding="utf-8")

    proc = subprocess.Popen(
        [sys.executable, "-m", "rewardroute.cli", "serve", "--config", str(config)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 10.0)
        line = proc.stdout.readline() if ready else ""
        assert line.startswith("gateway listening on http://"), f"first stdout line {line!r}"
        with urllib.request.urlopen(line.split()[-1] + "/healthz", timeout=5.0) as resp:
            assert json.loads(resp.read()) == {"status": "ok", "models": 3}
        proc.send_signal(signal.SIGINT)
        proc.communicate(timeout=10.0)
        assert proc.returncode == 0
    except (AssertionError, OSError, subprocess.TimeoutExpired) as exc:
        if proc.poll() is None:
            proc.kill()
        _, stderr = proc.communicate()
        pytest.fail(f"{exc!r}; the child exited {proc.returncode} with stderr:\n{stderr}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_serve_shuts_the_gateway_down_once_on_ctrl_c(tmp_path, ckpt, monkeypatch, capsys):
    import _thread
    import threading

    from rewardroute.gateway import Gateway

    started, shutdowns = [], []
    real_start, real_shutdown = Gateway.start, Gateway.shutdown
    monkeypatch.setattr(Gateway, "start",
                        lambda self: (real_start(self), started.append(self))[0])
    monkeypatch.setattr(Gateway, "shutdown",
                        lambda self: (shutdowns.append(self), real_shutdown(self))[1])

    def interrupt_once_serving():
        deadline = time.monotonic() + 10.0
        while not started and time.monotonic() < deadline:
            time.sleep(0.01)
        if started:
            time.sleep(0.3)  # serve_forever is now waiting on the serving thread
            _thread.interrupt_main()  # what a Ctrl-C raises in the main thread

    ctrl_c = threading.Thread(target=interrupt_once_serving)
    ctrl_c.start()
    code = main(["serve", "--config", _serve_config(tmp_path, ckpt, 0)])
    ctrl_c.join(timeout=15)
    assert not ctrl_c.is_alive()
    assert code == EXIT_OK
    assert "gateway listening on" in capsys.readouterr().out
    assert len(started) == 1 and shutdowns == started
