"""The benchmark scripts and the demos import only names that rewardroute exports."""

import ast
from pathlib import Path

import rewardroute

ROOT = Path(__file__).resolve().parent.parent


def _names_imported_from_rewardroute(directory: Path) -> list[tuple[str, str]]:
    imported = [
        (path.name, alias.name)
        for path in sorted(directory.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "rewardroute"
        for alias in node.names
    ]
    assert imported, f"found no 'from rewardroute import ...' line in {directory.name}"
    return imported


def test_perfbench_imports_only_public_names():
    imported = _names_imported_from_rewardroute(ROOT / "perfbench")
    assert [(f, n) for f, n in imported if n not in rewardroute.__all__] == []


def test_demos_import_only_public_names():
    imported = _names_imported_from_rewardroute(ROOT / "demos")
    assert [(f, n) for f, n in imported if n not in rewardroute.__all__] == []
