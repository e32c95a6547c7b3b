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


def _package_modules() -> list[tuple[str, ast.Module]]:
    """(name, syntax tree) of each package module other than __init__.py."""
    paths = sorted(Path(dercert.__file__).parent.glob("*.py"))
    return [(path.stem, ast.parse(path.read_text())) for path in paths if path.name != "__init__.py"]


def _names_the_package_loads() -> set[str]:
    """Names read in the package's modules other than __init__.py.

    A name read inside a definition of the same name (a recursive call,
    say) does not count.
    """
    names = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in owners:
            names.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    for _, tree in _package_modules():
        visit(tree, frozenset())
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


def test_every_module_level_definition_is_read():
    # what __init__ imports is public and so read; darboux_search_family_a
    # stays only for the benchmark's darboux.search hook (ROADMAP item 7)
    read = _names_the_package_loads() | _bound_public_names() | {"darboux_search_family_a"}
    unread = []
    for module, tree in _package_modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            unread.extend(f"{module}.{name}" for name in names if name not in read)
    assert unread == []


def test_every_public_method_is_read():
    # a public method or property of a package class that no package
    # module reads is reached by tests alone; ResidualResult.undecided
    # stays for the benchmark's residual counter, which reads it
    read = _names_the_package_loads() | {"undecided"}
    unread = [
        f"{module}.{node.name}.{item.name}"
        for module, tree in _package_modules()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
        and item.name not in read
    ]
    assert unread == []
