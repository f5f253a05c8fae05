"""Every name a ``zakvmo`` module, a test file or a ``perfbench`` script
imports is used in it.

No linter is a dependency, so this parses each source file with ``ast``
and compares the names its imports bind with the names it reads.  The
package ``__init__.py`` is skipped: its imports are the re-exported API.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "zakvmo"
BENCH = TESTS.parent / "perfbench"
FILES = (
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    + sorted(TESTS.glob("*.py"))
    + sorted(BENCH.glob("*.py"))
)


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


def test_checker_flags_unused_and_keeps_used():
    src = "import io\nimport os\nfrom a import b as c, d\n\ndef f(x: d):\n    return os.sep\n"
    assert unused_imports(src) == ["line 1: io", "line 3: c"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
