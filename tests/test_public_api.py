"""rewardroute exports what its users import, and nothing else.

The benchmark scripts and the demos import only exported names, and every
exported name is used by one of them or belongs to the workflow on its own
account (listed below). A helper only the tests use is imported from its
submodule instead.
"""

import ast
from pathlib import Path

import rewardroute

ROOT = Path(__file__).resolve().parent.parent

# Library counterparts of CLI steps the demos and benchmark do not call.
CLI_STEPS = {"load_oracle", "load_tag_rules", "apply_tag_rules",
             "save_dataset", "save_oracle", "save_registry"}
EXCEPTIONS = {"RewardRouteError", "DataFormatError", "CheckpointError",
              "DivergenceError", "GatewayError"}
# Values one workflow step hands to the next.
HANDOFF_TYPES = {"Query", "DatasetRow", "RewardDataset", "ModelRegistry", "RouterModel"}


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


def test_every_public_name_has_a_user():
    imported = {
        name
        for directory in ("demos", "perfbench")
        for _, name in _names_imported_from_rewardroute(ROOT / directory)
    }
    unused = set(rewardroute.__all__) - imported - CLI_STEPS - EXCEPTIONS - HANDOFF_TYPES
    assert sorted(unused) == []
