"""Tests of the benchmark itself: reference hash vectors and smoke runs.

Run from the repository root with `python -m pytest perfbench/tests`. The
smoke runs carry no timing gate; they only show that every workload runs to
its end, passes its own output checks and prints the declared metrics.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import reference  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("data, expected", [
    (b"", 0xCBF29CE484222325),
    (b"a", 0xAF63DC4C8601EC8C),
    (b"foobar", 0x85944171F73967E8),
])
def test_reference_fnv1a_matches_published_vectors(data, expected):
    assert reference.fnv1a_64(data) == expected


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_of_every_workload(workload):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0


def test_smoke_traced_run_reports_every_layer():
    proc = run_bench(ROOT, "--workload", "route_long", "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"], proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["gateway.backend_calls_per_request"]["value"] == 1.0
    trace = json.loads((ROOT / ".perfbench_out" / "trace-route_long-seed3.json").read_text())
    assert {"features.featurize", "router.train", "cli.import"} <= set(trace["summary"])


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "route_long", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
