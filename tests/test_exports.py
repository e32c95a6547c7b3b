"""The package's export list matches what its __init__ binds, and holds
no entry point that only tests call."""

import ast
import inspect
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


def _names_the_package_loads() -> set[str]:
    """Names read in the package's modules other than __init__.py.

    A name read inside the top-level definition of the same name (a
    recursive call, say) does not count.
    """
    names = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = owner or node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name != owner:
            names.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in Path(dercert.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text()), None)
    return names


def test_every_export_is_a_type_a_verifier_or_used_by_the_package():
    # an exported function that no package module calls is reached by
    # tests alone; tests import such a helper from its module instead
    used = _names_the_package_loads()
    unused = [
        name
        for name in dercert.__all__
        if not inspect.isclass(getattr(dercert, name))
        and not name.startswith("verify_")
        and name not in used
    ]
    assert unused == []
