"""Every name a package or test module imports is used in that module, so
deleting code cannot leave a dead import behind.  A name listed in the
module's ``__all__`` counts as used: it is imported to be re-exported."""

import ast
from pathlib import Path

import fdlab

SOURCES = sorted(Path(fdlab.__file__).parent.glob("*.py")) + sorted(
    Path(__file__).parent.glob("*.py")
)


def _unused_imports(tree):
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_package_imports_only_what_it_uses():
    assert SOURCES
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        for line, name in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import b, c as d\n"
        "from e import f\n"
        "__all__ = ['f']\n"
        "os.sep\n"
        "d()\n"
    )
    assert _unused_imports(tree) == [(3, "b")]
