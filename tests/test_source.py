"""Checks a linter would make, written with the standard library's ``ast``:
no module imports a name it never uses, and ``errors.atomic_write_bytes`` is
the package's only file writer."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src").rglob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))

# Calls that write a file, and the one function allowed to make them.
WRITERS = {"write_text", "write_bytes", "open"}
WRITER_HOME = ("errors.py", "atomic_write_bytes")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _id(path: Path) -> str:
    return str(path.relative_to(ROOT))


# A package's __init__ imports the names it exports.
@pytest.mark.parametrize("path", [path for path in MODULES
                                  if path.name != "__init__.py"], ids=_id)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{_id(path)} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", PACKAGE, ids=_id)
def test_files_are_written_only_through_atomic_write_bytes(path):
    calls = []
    nodes = [_tree(path)]
    while nodes:
        node = nodes.pop()
        if (isinstance(node, ast.FunctionDef)
                and (path.name, node.name) == WRITER_HOME):
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name in WRITERS:
                calls.append((node.lineno, name))
        nodes.extend(ast.iter_child_nodes(node))
    assert not calls, f"{_id(path)} writes files directly: {sorted(calls)}"
