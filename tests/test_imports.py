"""Every module and test imports only names it uses (standard-library AST scan)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package's __init__ imports names to re-export them
SOURCES = sorted(
    p
    for p in [*ROOT.glob("src/graev/*.py"), *ROOT.glob("tests/*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom a import b, c as d\nprint(sys.argv, d)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: b"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
