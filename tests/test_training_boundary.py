"""How a router is trained is decided in router.py alone.

train() and beta_ablation both train through router._fit, which picks the
columns the descent runs on and whether the others are replayed. No other
module names the descent (_optimize) or the replay (_decay, _l2_can_grow),
so a second copy of that recipe cannot come back.
"""

import ast
from pathlib import Path

import rewardroute
from test_file_readers import _forbidden_names

PACKAGE = Path(rewardroute.__file__).parent
TRAINING = {"_optimize", "_decay", "_l2_can_grow"}


def test_only_router_names_the_training_internals():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "router.py")
    assert len(modules) > 5
    offending = [
        (path.name, lineno, name)
        for path in modules
        for lineno, name in _forbidden_names(ast.parse(path.read_text(encoding="utf-8")),
                                             TRAINING)
    ]
    assert offending == []


def test_the_check_sees_each_form():
    tree = ast.parse("from .router import _optimize\nrouter._decay(b)\n_l2_can_grow(c)\n")
    assert sorted(name for _, name in _forbidden_names(tree, TRAINING)) == [
        "_decay", "_l2_can_grow", "_optimize"]
