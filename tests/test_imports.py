"""Standard-library AST scans: every module and test imports only names it
uses, every top-level function, class and assigned name of the package is
used, and every fixture and helper of tests/conftest.py is used by a test."""

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


# --- every top-level def, class and assignment of src/graev is referenced ------------

DEFINERS = sorted(p for p in ROOT.glob("src/graev/*.py") if p.name != "__init__.py")
REFERRERS = [*ROOT.glob("src/graev/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("graevbench/*.py")]


def referenced_names(tree: ast.AST) -> set[str]:
    """Names used, as attributes too, and identifiers spelled as string
    constants ("multiply", "graev.cli.main"): the benchmark's tracer names
    functions by string.  Imports alone are not uses."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def defined_names(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def unreferenced_definitions(source: str, elsewhere: set[str]) -> list[str]:
    """Top-level def, class and assigned names of source that neither
    another of its top-level statements nor elsewhere references (recursion
    and self-reference are no use)."""
    body = ast.parse(source).body
    refs = [referenced_names(stmt) for stmt in body]
    return [
        name
        for i, stmt in enumerate(body)
        for name in defined_names(stmt)
        if name not in elsewhere and not any(name in r for j, r in enumerate(refs) if j != i)
    ]


def test_scan_finds_an_unreferenced_definition():
    source = (
        "def used():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Named:\n    pass\n"
        "def dead():\n    return Named\n"
        "def by_string():\n    pass\n"
        "TABLE = ('module', 'by_string')\n"
    )
    # TABLE itself is an assignment nothing references
    assert unreferenced_definitions(source, set()) == ["used", "recursive", "dead", "TABLE"]
    assert unreferenced_definitions(source, {"used", "recursive", "dead", "TABLE"}) == []


def test_scan_finds_an_unreferenced_assignment():
    source = (
        "ZERO = 0\n"
        "ONE: int = ZERO + 1\n"
        "UNUSED = ONE\n"
        "COUNT = 0\n"
        "COUNT = COUNT + 1\n"
        "ANNOTATED: int\n"
        "A = B = 2\n"
        "def f():\n    return A\n"
        "TABLE = ('module', 'f')\n"
    )
    assert unreferenced_definitions(source, set()) == ["UNUSED", "ANNOTATED", "B", "TABLE"]
    assert unreferenced_definitions(source, {"UNUSED", "ANNOTATED", "B", "TABLE"}) == []


@pytest.mark.parametrize("path", DEFINERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_definition_is_referenced(path):
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in REFERRERS if p != path]
    elsewhere = set().union(*map(referenced_names, trees))
    assert unreferenced_definitions(path.read_text(encoding="utf-8"), elsewhere) == []


# --- every fixture of tests/conftest.py is requested, every other definition used ----

CONFTEST = ROOT / "tests" / "conftest.py"
TEST_MODULES = sorted(ROOT.glob("tests/test_*.py"))


def requested_fixtures(tree: ast.AST) -> set[str]:
    """Parameters of test functions, and names given to usefixtures."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
            names.update(a.arg for a in node.args.args + node.args.kwonlyargs)
        elif isinstance(node, ast.Call) and "usefixtures" in referenced_names(node.func):
            names.update(a.value for a in node.args if isinstance(a, ast.Constant))
    return names


def dead_conftest_definitions(conftest: str, tests: list[str]) -> list[str]:
    """Fixtures of conftest that no test requests, and its other top-level
    names that no test module references."""
    trees = [ast.parse(source) for source in tests]
    requested = set().union(*map(requested_fixtures, trees))
    used = set().union(*map(referenced_names, trees))
    dead = []
    for stmt in ast.parse(conftest).body:
        decorators = getattr(stmt, "decorator_list", [])
        fixture = any("fixture" in referenced_names(d) for d in decorators)
        dead += [n for n in defined_names(stmt) if n not in (requested if fixture else used)]
    return dead


def test_scan_finds_a_dead_fixture():
    conftest = (
        "import pytest\n"
        "POINTS = (1, 2)\n"
        "UNUSED = POINTS\n"
        "def helper():\n    return POINTS\n"
        "@pytest.fixture\ndef asked():\n    return 1\n"
        "@pytest.fixture(autouse=False)\ndef listed():\n    return 2\n"
        "@pytest.fixture\ndef dead():\n    return POINTS\n"
    )
    tests = [
        "from conftest import POINTS, helper\n"
        "def test_a(asked):\n    assert helper() == POINTS\n",
        "import pytest\n"
        "@pytest.mark.usefixtures('listed')\ndef test_b():\n    pass\n"
        "def check(dead):\n    pass\n",
    ]
    assert dead_conftest_definitions(conftest, tests) == ["UNUSED", "dead"]


def test_conftest_has_no_dead_definitions():
    tests = [p.read_text(encoding="utf-8") for p in TEST_MODULES]
    assert dead_conftest_definitions(CONFTEST.read_text(encoding="utf-8"), tests) == []
