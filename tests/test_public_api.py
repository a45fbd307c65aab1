"""The benchmark scripts import only names that rewardroute exports."""

import ast
from pathlib import Path

import rewardroute

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_imports_only_public_names():
    imported = [
        (path.name, alias.name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "rewardroute"
        for alias in node.names
    ]
    assert imported, "found no 'from rewardroute import ...' line in perfbench"
    assert [(f, n) for f, n in imported if n not in rewardroute.__all__] == []
