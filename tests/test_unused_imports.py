"""Every name a ``zakvmo`` module, a test file or a ``perfbench`` script
imports is used in it, every private module-level function or class of a
``zakvmo`` module is used in that module, and every public one, and every
public method or property of a ``zakvmo`` class, is read somewhere in
``src/``, ``tests/`` or ``perfbench/``.

No linter is a dependency, so this parses each source file with ``ast``
and compares the names its imports and definitions bind with the names it
reads.  The package ``__init__.py`` is skipped: its imports are the
re-exported API, so they neither need a use nor count as a read.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "zakvmo"
BENCH = TESTS.parent / "perfbench"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
FILES = MODULES + sorted(TESTS.glob("*.py")) + sorted(BENCH.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in bound.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


def unused_private_defs(source: str) -> list[str]:
    """Module-level ``_name`` functions and classes read nowhere in the
    module outside their own definition (a recursive call does not count)."""
    tree = ast.parse(source)
    defs = [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    unused = []
    for node in defs:
        inside = {id(n) for n in ast.walk(node)}
        if not any(
            isinstance(n, ast.Name) and n.id == node.name and id(n) not in inside
            for n in ast.walk(tree)
        ):
            unused.append(f"line {node.lineno}: {node.name}")
    return unused


def read_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read in tree, bare or as an attribute, outside the node skip."""
    inside = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    names = set()
    for n in ast.walk(tree):
        if id(n) in inside:
            continue
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def unread_public_defs(source: str, other_sources) -> list[str]:
    """Module-level public functions and classes of source that neither the
    module outside their own definition nor any of other_sources reads."""
    tree = ast.parse(source)
    elsewhere = set().union(*(read_names(ast.parse(s)) for s in other_sources))
    return [
        f"line {node.lineno}: {node.name}"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in elsewhere | read_names(tree, skip=node)
    ]


def unread_public_methods(source: str, other_sources) -> list[str]:
    """Public methods and properties of the module-level classes of source
    that neither the module outside their own definition nor any of
    other_sources reads, bare or as an attribute."""
    tree = ast.parse(source)
    elsewhere = set().union(*(read_names(ast.parse(s)) for s in other_sources))
    return [
        f"line {node.lineno}: {cls.name}.{node.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in elsewhere | read_names(tree, skip=node)
    ]


def test_checker_flags_unused_and_keeps_used():
    src = "import io\nimport os\nfrom a import b as c, d\n\ndef f(x: d):\n    return os.sep\n"
    assert unused_imports(src) == ["line 1: io", "line 3: c"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_private_checker_flags_dead_helpers():
    src = (
        "def _used():\n    return 1\n\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n\n"
        "class _Dead:\n    pass\n\n"
        "def public():\n    return _used()\n"
    )
    assert unused_private_defs(src) == ["line 4: _recursive", "line 7: _Dead"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_private_helpers(path):
    assert unused_private_defs(path.read_text()) == []


def test_public_checker_flags_unread_defs():
    src = (
        "def read_here():\n    return 1\n\n"
        "def read_there():\n    return read_here()\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Unread:\n    pass\n"
    )
    other = "import m\n\nm.read_there()\n"
    assert unread_public_defs(src, [other]) == ["line 7: recursive", "line 10: Unread"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_public_defs(path):
    others = [p.read_text() for p in FILES if p != path]
    assert unread_public_defs(path.read_text(), others) == []


def test_method_checker_flags_unread_members():
    src = (
        "class C:\n"
        "    def __init__(self):\n        self.read_here()\n\n"
        "    def read_here(self):\n        return 1\n\n"
        "    @property\n    def read_there(self):\n        return 2\n\n"
        "    @property\n    def unread(self):\n        return 3\n\n"
        "    @staticmethod\n    def recursive(n):\n        return C.recursive(n - 1)\n"
    )
    other = "import m\n\nm.C().read_there\n"
    assert unread_public_methods(src, [other]) == ["line 13: C.unread", "line 17: C.recursive"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_public_methods(path):
    others = [p.read_text() for p in FILES if p != path]
    assert unread_public_methods(path.read_text(), others) == []
