"""Source hygiene: every module of the package uses each name it imports, and
every private name it defines is referenced."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "speccert"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by import statements in ``source`` that no expression references."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_unused_names():
    source = "import json\nimport numpy as np\nfrom x import a, b\nb(np.pi)\n"
    assert unused_imports(source) == ["a", "json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(tree: ast.Module) -> dict:
    """Module-level private names of ``tree``, each with the statement that binds it."""
    found = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = stmt
    return found


def unreferenced_private_names(sources: dict) -> list:
    """``module:name`` of module-level private names that no other statement references.

    A reference is a name read, an attribute of that name, or an import of it;
    a name used only inside its own definition (say, by recursion) is unreferenced.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = []
    for tree in trees.values():
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(a.name for a in node.names)
            references.append((stmt, names))
    return sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, owner in private_definitions(tree).items()
        if not any(name in names for stmt, names in references if stmt is not owner)
    )


def test_private_checker_flags_dead_names():
    sources = {
        "a": "_LIMIT = 3\n_kept = 1\ndef _walk(k):\n    return _walk(k - 1)\n",
        "b": "from .a import _kept\n",
    }
    assert unreferenced_private_names(sources) == ["a:_LIMIT", "a:_walk"]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def test_only_operators_splits_drift_from_controls():
    # every other module reads a family through its operator stack and cached norms
    split = {"drift", "controlled", "operator_norm"}
    found = sorted(
        f"{path.name}:{node.lineno}:{node.attr}"
        for path in MODULES
        if path.name != "operators.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in split
    )
    assert found == []
