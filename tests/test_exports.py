"""The package's export list matches what its __init__ binds."""

import ast
from pathlib import Path

import dercert


def _bound_public_names() -> set[str]:
    tree = ast.parse(Path(dercert.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_all_matches_the_bound_names():
    assert set(dercert.__all__) == _bound_public_names()
    assert len(dercert.__all__) == len(set(dercert.__all__))


def test_every_export_imports():
    assert [name for name in dercert.__all__ if not hasattr(dercert, name)] == []
