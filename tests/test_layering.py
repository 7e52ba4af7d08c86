"""Who may touch what.  The store owns the wake path: only ``domain.py``
names the wake tables and the delta lists, so how a subscription is filed
and how a change walks the tables stay the decision of one module.  And
each object writes only its own private state: no module assigns to a
``_``-prefixed attribute of anything but ``self``."""

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


def _foreign_private_writes(tree):
    """(line, target) of each assignment in ``tree``, plain, augmented,
    annotated or as a loop or ``with`` target, to a ``_``-prefixed
    attribute of an object other than ``self``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and node.attr.startswith("_")
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ):
            yield node.lineno, ast.unparse(node)


def _scan(finder):
    """{module file name: sorted hits of ``finder``} over fdlab's sources."""
    return {
        path.name: sorted(finder(ast.parse(path.read_text(), filename=str(path))))
        for path in SOURCES
    }


def test_only_the_store_names_its_wake_path():
    found = _scan(_wake_path_names)
    assert {name for _, name in found.pop("domain.py")} == WAKE_PATH
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_guard_sees_a_wake_table():
    tree = ast.parse("store._wake_inst = {}\n_delta_lists = store.deltas\n_wake = 1\n")
    assert sorted(_wake_path_names(tree)) == [(1, "_wake_inst"), (2, "_delta_lists")]


def test_each_object_writes_only_its_own_private_state():
    found = _scan(_foreign_private_writes)
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_guard_sees_a_foreign_private_write():
    tree = ast.parse(
        "store._state = state\n"
        "self._state = state\n"
        "twin._stamp += [0]\n"
        "eng.props: list = []\n"
        "eng.queue._bucket: list = []\n"
        "lo, store._hi = 0, 9\n"
        "store._lo[0] = 1\n"
        "for store._frame in range(3): pass\n"
    )
    assert sorted(_foreign_private_writes(tree)) == [
        (1, "store._state"), (3, "twin._stamp"), (5, "eng.queue._bucket"),
        (6, "store._hi"), (8, "store._frame"),
    ]
