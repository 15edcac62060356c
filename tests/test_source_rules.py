"""Static rules over src/svaa, checked with the stdlib ast module (no linter is needed).

records.py alone reads a camera's row index: no other module calls
`.index(` on a store or imports HUMAN_CLASS. Every rejected record line has
one source: records.py's batch decoder raises no line error, and only
`_parse_fields` calls `json.loads`. metrics.py, birdseye.py and heatmap.py
take and return epoch microseconds: they import nothing from `datetime` and
neither import nor call `to_us` or `from_us`. No module keeps a top-level
import it never uses, and no top-level function or class is left that no
command and no benchmark reaches.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "svaa"
MODULES = sorted(SRC.glob("*.py"))
# records.py's batch decoder, which leaves every line it does not take to _parse_fields, and the errors of a line
DECODER = ("_digits", "_instants", "_decode", "_parse_batch")
LINE_ERRORS = frozenset({"MalformedLine", "InvalidTimestamp", "InvalidBBox"})
# The analytics whose every boundary is epoch microseconds and numpy columns; the CLI parses and formats
MICROSECOND_MODULES = ("metrics.py", "birdseye.py", "heatmap.py")
CONVERSIONS = frozenset({"to_us", "from_us"})


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _dotted(node: ast.expr) -> str:
    """`a.b.c` for a chain of names and attributes, "" for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


def index_reads(tree: ast.Module) -> list[int]:
    """Lines that call `.index(` on something named like a store, or on the RecordStore class."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "index"
        and "store" in _dotted(node.func.value).lower()
    ]


def human_class_uses(tree: ast.Module) -> list[int]:
    """Lines that import HUMAN_CLASS or read it as a module attribute."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(alias.name == "HUMAN_CLASS" for alias in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "HUMAN_CLASS":
            lines.append(node.lineno)
    return lines


def unused_imports(tree: ast.Module) -> list[str]:
    """Top-level imported names that the module neither reads nor lists in __all__."""
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def datetime_uses(tree: ast.Module) -> list[str]:
    """Imports from the datetime module, and imports or calls of to_us and from_us, with their lines."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "datetime" for alias in node.names):
            found.append(f"import datetime (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "datetime":
            found.append(f"from datetime import (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and CONVERSIONS & {alias.name for alias in node.names}:
            found.append(f"import of {sorted(CONVERSIONS & {alias.name for alias in node.names})} (line {node.lineno})")
        elif isinstance(node, ast.Call) and _dotted(node.func).rsplit(".", 1)[-1] in CONVERSIONS:
            found.append(f"{_dotted(node.func)}() (line {node.lineno})")
    return found


def raised(node: ast.AST) -> set[str]:
    """Names of the exception classes raised under node, as `raise X`, `raise X(...)` or `raise mod.X(...)`."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Raise) and n.exc is not None:
            exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            names.add(_dotted(exc).rsplit(".", 1)[-1])
    return names


def json_loads_callers(tree: ast.Module) -> list[str]:
    """The top-level functions, or `Class.method`s, that call json.loads; "<module>" for a call outside them."""
    callers = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            scopes = [(f"{stmt.name}.{m.name}" if hasattr(m, "name") else stmt.name, m) for m in stmt.body]
        else:
            scopes = [(getattr(stmt, "name", "<module>"), stmt)]
        callers += [name for name, scope in scopes for n in ast.walk(scope)
                    if isinstance(n, ast.Call) and _dotted(n.func) == "json.loads"]
    return callers


def _reads(node: ast.AST) -> set[str]:
    """Names read under node, bare or as an attribute; an import or a string in __all__ is not a read."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)}


def unreached(defining: dict[str, ast.Module], readers: dict[str, ast.Module], entry_points=frozenset()) -> list[str]:
    """`module.name` of each top-level def or class that no reader reads outside the definition itself.

    A local variable of the same name, anywhere in a reader, counts as a read: the rule may miss a
    dead name, but it never flags a live one.
    """
    reads = [(stmt, _reads(stmt)) for tree in readers.values() for stmt in tree.body]
    return [
        f"{module}.{node.name}" for module, tree in defining.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in entry_points
        and not any(node.name in names for stmt, names in reads if stmt is not node)
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "records.py"], ids=lambda p: p.name)
def test_only_records_reads_the_row_index(path):
    tree = _tree(path)
    assert index_reads(tree) == [], f"{path.name} reads a store's index; ask records.human_rows instead"
    assert human_class_uses(tree) == [], f"{path.name} uses HUMAN_CLASS; records.human_rows applies it"


@pytest.mark.parametrize("name", MICROSECOND_MODULES)
def test_the_analytics_take_and_return_microseconds(name):
    assert datetime_uses(_tree(SRC / name)) == [], f"{name} converts datetimes; leave parsing and formatting to cli.py"


def test_every_rejected_line_has_one_source():
    tree = _tree(SRC / "records.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in DECODER:
        assert raised(functions[name]) & LINE_ERRORS == set(), f"records.{name} rejects a line; leave it to _parse_fields"
    assert json_loads_callers(tree) == ["_parse_fields"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(_tree(path)) == []


def test_every_top_level_name_is_reached_from_a_command_or_the_benchmark():
    """Reached means read by a module of the package other than __init__.py, by perfbench, or a console script."""
    readers = {p.name: _tree(p) for p in MODULES if p.name != "__init__.py"}
    readers.update({f"perfbench/{p.name}": _tree(p) for p in sorted((ROOT / "perfbench").glob("*.py"))})
    scripts = re.search(r"\[project\.scripts\]\n(.*?)(?:\n\[|$)", (ROOT / "pyproject.toml").read_text(), re.S)
    entry_points = frozenset(re.findall(r":(\w+)\"", scripts.group(1)))
    assert entry_points == {"entrypoint"}
    assert unreached({p.name: _tree(p) for p in MODULES}, readers, entry_points) == []


def test_the_rules_catch_what_they_forbid():
    tree = ast.parse(
        "import os\n"
        "from .records import HUMAN_CLASS, RecordStore\n"
        "def f(store: RecordStore, cid):\n"
        "    return store.index(cid), self.store.index(cid), RecordStore.index(store, cid), [1].index(1)\n"
        "print(records.HUMAN_CLASS)\n"
    )
    assert index_reads(tree) == [4, 4, 4]
    assert human_class_uses(tree) == [2, 5]
    assert unused_imports(tree) == ["os (line 1)", "HUMAN_CLASS (line 2)"]

    boundary = ast.parse(
        "import datetime as dt, numpy\n"
        "from datetime import date\n"
        "from .timeutil import WINDOW_US, to_us\n"
        "x = timeutil.from_us(to_us(dt.datetime.now()))\n"
        "def f(): return format_rfc3339(0), to_use(0)\n"
    )
    assert datetime_uses(boundary) == ["import datetime (line 1)", "from datetime import (line 2)",
                                       "import of ['to_us'] (line 3)", "timeutil.from_us() (line 4)", "to_us() (line 4)"]

    decoder = ast.parse(
        "import json\n"
        "def _decode(line):\n"
        "    if not line:\n"
        "        raise MalformedLine('blank')\n"
        "    try:\n"
        "        return json.loads(line)\n"
        "    except ValueError:\n"
        "        raise errors.InvalidBBox\n"
        "def _parse_fields(line):\n"
        "    return json.loads(line)\n"
        "class Store:\n"
        "    def load(self, line):\n"
        "        raise KeyError(json.loads(line))\n"
        "CONFIG = json.loads('{}')\n"
    )
    assert raised(decoder.body[1]) == {"MalformedLine", "InvalidBBox"}
    assert raised(decoder.body[3]) == {"KeyError"}
    assert json_loads_callers(decoder) == ["_decode", "_parse_fields", "Store.load", "<module>"]

    package = {
        "a.py": ast.parse(
            "def used(): pass\n"
            "def dead(): return dead()\n"  # read only by itself
            "class Node:\n"
            "    def parent(self) -> Node: pass\n"  # likewise
            "def by_attribute(): pass\n"
            "def entry(): used()\n"
        ),
        "__init__.py": ast.parse("from .a import dead, by_attribute\n__all__ = ['dead', 'Node']\n"),
    }
    readers = {"a.py": package["a.py"], "perfbench/b.py": ast.parse("from svaa import a\na.by_attribute()\n")}
    assert unreached(package, readers, frozenset({"entry"})) == ["a.py.dead", "a.py.Node"]
    assert unreached(package, readers) == ["a.py.dead", "a.py.Node", "a.py.entry"]
