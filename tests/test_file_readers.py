"""Input files are read in one place.

rewardroute.data reads, checks and writes every JSON and JSON-lines format,
and rewardroute.checkpoint reads the binary checkpoint. No other module
reads a file's contents or handles a JSON decode error itself, so a second
reader, with its own idea of what a field may hold, cannot come back.
"""

import ast
from pathlib import Path

import rewardroute

PACKAGE = Path(rewardroute.__file__).parent
READERS = {"data.py", "checkpoint.py"}
FORBIDDEN = {"read_text", "read_bytes", "JSONDecodeError"}


def _forbidden_names(tree: ast.AST, forbidden=FORBIDDEN) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in forbidden:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in forbidden:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in forbidden]
    return found


def test_only_the_reader_modules_read_files():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name not in READERS)
    assert len(modules) > 5
    offending = [
        (path.name, lineno, name)
        for path in modules
        for lineno, name in _forbidden_names(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offending == []


def test_the_check_sees_each_form():
    tree = ast.parse("from json import JSONDecodeError\n"
                     "p.read_text()\nPath(x).read_bytes()\njson.JSONDecodeError\n")
    assert sorted(name for _, name in _forbidden_names(tree)) == [
        "JSONDecodeError", "JSONDecodeError", "read_bytes", "read_text"]
