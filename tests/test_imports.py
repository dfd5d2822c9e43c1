"""Every name imported in src/wkit and tests is referenced in its file."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "wkit").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no expression, and no
    `__all__` entry, refers to."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_finds_unused_names():
    src = "import os\nimport math as m\nfrom a.b import c, d\n__all__ = ['d']\nprint(m)\n"
    assert unused_imports(src) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# The layers that only build: none of them may reach the checks layer
# (`suites`, with `reports` under it) or the CLI, and none may make a check
# or a report.
BUILDERS = ("params", "errors", "qseries", "rmatrix", "tensor", "wgen")
CHECKS = {"reports", "suites", "cli"}
REPORT_NAMES = {"CheckReport", "Check"}


def layering_violations(source: str) -> list:
    """(line, what) of each import from the checks layer or the CLI, each
    use of a report type, and each function annotated to return a report."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[-1]]
            if node.module in (None, "wkit"):  # from . import reports
                names += [alias.name for alias in node.names]
            out += [(node.lineno, f"import {n}") for n in names if n in CHECKS]
        elif isinstance(node, ast.Import):
            names = [alias.name.split(".")[-1] for alias in node.names]
            out += [(node.lineno, f"import {n}") for n in names if n in CHECKS]
        elif isinstance(node, ast.Name) and node.id in REPORT_NAMES:
            out.append((node.lineno, node.id))
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns
              and any(n in ast.unparse(node.returns) for n in REPORT_NAMES)):
            out.append((node.lineno, f"{node.name} returns a report"))
    return sorted(out)


def test_layering_scanner_finds_violations():
    src = ("from .reports import worst\nfrom . import suites\nimport wkit.cli\n"
           "from .tensor import compose\n"
           "def f() -> 'CheckReport':\n    return Check()\n")
    assert layering_violations(src) == [
        (1, "import reports"), (2, "import suites"), (3, "import cli"),
        (5, "f returns a report"), (6, "Check")]


@pytest.mark.parametrize("name", BUILDERS)
def test_builder_layers_make_no_reports(name):
    path = ROOT / "src" / "wkit" / f"{name}.py"
    assert layering_violations(path.read_text(encoding="utf-8")) == []


def test_rmatrix_imports_nothing_from_tensor():
    tree = ast.parse((ROOT / "src" / "wkit" / "rmatrix.py").read_text(encoding="utf-8"))
    names = [node.module or alias.name if isinstance(node, ast.ImportFrom) else alias.name
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    assert not [n for n in names if n.split(".")[-1] == "tensor"]
