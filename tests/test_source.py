"""Checks a linter would make, written with the standard library's ``ast``:
every module parses as the oldest supported Python, no module imports a name
it never uses, no package module imports a sibling's private name, every
private module-level name of the package is used,
``errors.atomic_write_bytes`` is the package's only file writer, ``cli``
alone prints and raises only what ``EXIT_CODES`` maps,
only ``socialgraph`` reads the graph store's fields, ``simnet`` draws only
through ``getrandbits`` and ``random``, ``json.loads`` is called only where
a JSON document enters, ``post_from_record`` is named only in
``FixtureStore`` and ``HttpJsonStore``, ``detect_language`` is called only
by ``filter_english``, ``gc`` is imported and used only by
``FixtureStore.load``, and the package imports exactly the standard
library, itself and its declared dependencies."""

import ast
import builtins
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spiderveil import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src").rglob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# The oldest Python that pyproject.toml's requires-python admits.
OLDEST_PYTHON = tuple(map(int, re.search(
    r'requires-python = ">=(\d+)\.(\d+)"',
    (ROOT / "pyproject.toml").read_text(encoding="utf-8")).groups()))

# Calls that write a file, and the functions allowed to make them: the
# writer, and ``http_get``, whose ``open`` opens a URL.
WRITERS = {"write_text", "write_bytes", "open"}
WRITER_HOMES = {("errors.py", "atomic_write_bytes"), ("crawler.py", "http_get")}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _id(path: Path) -> str:
    return str(path.relative_to(ROOT))


@pytest.mark.parametrize("path", MODULES, ids=_id)
def test_parses_as_the_oldest_supported_python(path):
    source = path.read_text(encoding="utf-8")
    ast.parse(source, filename=str(path), feature_version=OLDEST_PYTHON)


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


def test_no_module_imports_a_private_name_of_a_sibling():
    private = sorted((_id(path), node.lineno, alias.name) for path in PACKAGE
                     for node in ast.walk(_tree(path))
                     if isinstance(node, ast.ImportFrom)
                     and (node.level or node.module.partition(".")[0] == "spiderveil")
                     for alias in node.names if alias.name.startswith("_"))
    assert not private, f"modules import private names of siblings: {private}"


def _bound_names(statement: ast.stmt) -> list[str]:
    """The names a module-level function, class or assignment defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = (statement.targets if isinstance(statement, ast.Assign)
               else [statement.target] if isinstance(statement, ast.AnnAssign)
               else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def test_every_private_module_name_is_used():
    """A module-level private function, class or constant of the package is
    named somewhere in the package outside its own definition; one that is
    not is a helper left behind."""
    statements = [(path, statement) for path in PACKAGE
                  for statement in _tree(path).body]
    named = [{node.id if isinstance(node, ast.Name) else node.attr
              for node in ast.walk(statement)
              if isinstance(node, (ast.Name, ast.Attribute))}
             for _, statement in statements]
    unused = sorted((_id(path), statement.lineno, name)
                    for i, (path, statement) in enumerate(statements)
                    for name in _bound_names(statement)
                    if name.startswith("_") and not name.startswith("__")
                    and not any(name in names for j, names in enumerate(named)
                                if j != i))
    assert not unused, f"private names nothing else in src/ uses: {unused}"


@pytest.mark.parametrize("path", PACKAGE, ids=_id)
def test_files_are_written_only_through_atomic_write_bytes(path):
    calls = []
    nodes = [_tree(path)]
    while nodes:
        node = nodes.pop()
        if (isinstance(node, ast.FunctionDef)
                and (path.name, node.name) in WRITER_HOMES):
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name in WRITERS:
                calls.append((node.lineno, name))
        nodes.extend(ast.iter_child_nodes(node))
    assert not calls, f"{_id(path)} writes files directly: {sorted(calls)}"


def test_only_cli_prints():
    printers = sorted({_id(path) for path in PACKAGE if path.name != "cli.py"
                       for node in ast.walk(_tree(path))
                       if isinstance(node, ast.Call)
                       and getattr(node.func, "id", None) == "print"})
    assert not printers, f"modules other than cli.py print: {printers}"


def test_cli_raises_only_what_exit_codes_maps():
    """``main`` gives every exception its exit code from ``EXIT_CODES``, so
    each class cli.py raises is a subclass of a key."""
    raised = {(node.exc.func if isinstance(node.exc, ast.Call) else node.exc).id
              for node in ast.walk(_tree(Path(cli.__file__)))
              if isinstance(node, ast.Raise) and node.exc}
    names = {**vars(builtins), **vars(cli)}
    unmapped = sorted(name for name in raised
                      if not issubclass(names[name], tuple(cli.EXIT_CODES)))
    assert not unmapped, f"cli.py raises classes EXIT_CODES does not map: {unmapped}"


def test_only_socialgraph_reads_the_graph_store():
    """Other modules reach a ``CommunityGraph`` through its methods, apart
    from ``crawler.py``'s reads of ``_ids``, the name -> node id map."""
    package = ROOT / "src" / "spiderveil"
    source = package / "socialgraph.py"
    graph_class = next(node for node in _tree(source).body
                       if isinstance(node, ast.ClassDef)
                       and node.name == "CommunityGraph")
    init = next(node for node in graph_class.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    fields = {node.attr for node in ast.walk(init)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    assert {"_ids", "_masks", "_sources", "_targets"} <= fields
    allowed = {_id(source): fields, _id(package / "crawler.py"): {"_ids"}}
    reads = sorted((_id(path), node.lineno, node.attr) for path in MODULES
                   for node in ast.walk(_tree(path))
                   if isinstance(node, ast.Attribute) and node.attr in fields
                   and node.attr not in allowed.get(_id(path), ()))
    assert not reads, f"modules outside socialgraph.py read its store: {reads}"


def test_simnet_draws_only_through_getrandbits_and_random():
    """Every other ``Random`` method goes through Python frames per draw;
    ``simnet`` makes its draws from ``getrandbits`` instead."""
    methods = {name for name in dir(random.Random) if not name.startswith("__")
               and callable(getattr(random.Random, name))}
    path = ROOT / "src" / "spiderveil" / "simnet.py"
    used = sorted((node.lineno, node.attr) for node in ast.walk(_tree(path))
                  if isinstance(node, ast.Attribute)
                  and node.attr in methods - {"getrandbits", "random"})
    assert not used, f"simnet.py uses Random methods: {used}"


# The functions that decode JSON text: the file decoder, the corpus reader
# (one document per line) and the HTTP store (a response body).
JSON_DECODERS = {("errors.py", "parse_json"), ("corpus.py", "ExemplarCorpus.load"),
                 ("crawler.py", "HttpJsonStore._get")}


def _nodes_in_scopes(path: Path):
    """(dotted name of the enclosing class and function, node) of every
    node in a module below the scopes themselves; a node at module level
    has the name ''."""
    scopes = [("", _tree(path))]
    while scopes:
        scope, node = scopes.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((f"{scope}.{child.name}".lstrip("."), child))
                continue
            yield scope, child
            scopes.append((scope, child))


def test_json_loads_is_called_only_where_json_enters():
    callers = {(path.name, scope) for path in PACKAGE
               for scope, call in _nodes_in_scopes(path)
               if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
               and call.func.attr == "loads"
               and getattr(call.func.value, "id", None) == "json"}
    assert callers, "no json.loads call found"
    assert callers <= JSON_DECODERS, \
        f"json.loads called outside {sorted(JSON_DECODERS)}: {sorted(callers - JSON_DECODERS)}"


# The classes that may parse a store record into a Post.  Each runs
# ``post_fault`` over every record it parses first; ``post_from_record``
# relies on that and checks nothing itself.
RECORD_PARSERS = {("crawler.py", "FixtureStore"), ("crawler.py", "HttpJsonStore")}


def test_post_from_record_is_named_only_in_the_stores():
    users = {(path.name, scope.partition(".")[0]) for path in PACKAGE
             for scope, node in _nodes_in_scopes(path)
             if (isinstance(node, ast.Name) and node.id == "post_from_record")
             or (isinstance(node, ast.Attribute) and node.attr == "post_from_record")}
    assert users, "no post_from_record use found"
    strays = sorted(users - RECORD_PARSERS)
    assert not strays, f"post_from_record named outside {sorted(RECORD_PARSERS)}: {strays}"


# Every post the package keeps or scores (the exemplar corpus, the seed
# bloggers' posts and the crawl's) passes the one language filter.
LANGUAGE_FILTER = {("corpus.py", "filter_english")}


def test_detect_language_is_called_only_by_filter_english():
    callers = {(path.name, scope) for path in PACKAGE
               for scope, call in _nodes_in_scopes(path)
               if isinstance(call, ast.Call)
               and "detect_language" in (getattr(call.func, "id", None),
                                         getattr(call.func, "attr", None))}
    assert callers == LANGUAGE_FILTER, \
        f"detect_language called by {sorted(callers)}, not only by filter_english"


# The one function that may import and call the garbage collector: a store
# load freezes what it leaves alive, which is a policy for the whole process.
COLLECTOR_HOME = ("crawler.py", "FixtureStore.load")


def test_gc_is_imported_and_called_only_in_the_store_load():
    uses = sorted((path.name, scope, node.lineno) for path in PACKAGE
                  for scope, node in _nodes_in_scopes(path)
                  if (isinstance(node, ast.Name) and node.id == "gc")
                  or (isinstance(node, ast.Import)
                      and any(alias.name == "gc" for alias in node.names))
                  or (isinstance(node, ast.ImportFrom) and node.module == "gc"))
    assert uses, "no gc use found"
    strays = [use for use in uses if use[:2] != COLLECTOR_HOME]
    assert not strays, f"gc used outside {COLLECTOR_HOME}: {strays}"


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_its_declared_dependencies():
    tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(
        encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
                for spec in project["dependencies"]}
    imported = set().union(*map(_top_level_imports, PACKAGE))
    undeclared = imported - set(sys.stdlib_module_names) - declared - {"spiderveil"}
    assert not undeclared, f"src/ imports undeclared modules: {sorted(undeclared)}"
    assert declared <= imported, f"unused dependencies: {sorted(declared - imported)}"


def _loaded_by_importing_cli() -> list[str]:
    """The modules a fresh interpreter holds after ``import spiderveil.cli``."""
    return subprocess.run(
        [sys.executable, "-c", "import sys, spiderveil.cli; "
         "print(' '.join(sorted(sys.modules)))"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True).stdout.split()


def test_requests_is_neither_imported_nor_loaded():
    for path in MODULES:
        assert "requests" not in _top_level_imports(path), _id(path)
    loaded = _loaded_by_importing_cli()
    assert "spiderveil.cli" in loaded
    assert "requests" not in loaded and "urllib3" not in loaded


def test_importing_cli_leaves_the_http_stack_unloaded():
    loaded = _loaded_by_importing_cli()
    assert "spiderveil.crawler" in loaded
    assert not {"http.client", "ssl", "urllib.request"} & set(loaded)
