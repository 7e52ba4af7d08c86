"""The store owns the wake path: only ``domain.py`` names the wake tables
and the delta lists, so how a subscription is filed and how a change walks
the tables stay the decision of one module."""

import ast
from pathlib import Path

import fdlab

SOURCES = sorted(Path(fdlab.__file__).parent.glob("*.py"))
WAKE_PATH = {
    "_wake_dom", "_wake_bounds", "_wake_inst", "_wake_false", "_wake_true", "_delta_lists",
}


def _wake_path_names(tree):
    """(line, name) of each name or attribute in ``tree`` that names a part
    of the wake path."""
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in WAKE_PATH:
            yield node.lineno, name


def test_only_the_store_names_its_wake_path():
    found = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found[path.name] = sorted(_wake_path_names(tree))
    assert {name for _, name in found.pop("domain.py")} == WAKE_PATH
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_guard_sees_a_wake_table():
    tree = ast.parse("store._wake_inst = {}\n_delta_lists = store.deltas\n_wake = 1\n")
    assert sorted(_wake_path_names(tree)) == [(1, "_wake_inst"), (2, "_delta_lists")]
