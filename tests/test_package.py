"""Every name that a module of the package exports must resolve, so a
deleted function cannot leave a stale entry in ``__all__``; every name a
submodule exports must have a consumer outside the tests; and the package
needs numpy alone."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lpevo

MODULES = ["lpevo"] + sorted(f"lpevo.{m.name}" for m in pkgutil.iter_modules(lpevo.__path__))
PACKAGE = Path(lpevo.__file__).resolve().parent
BENCHMARK = PACKAGE.parents[1] / "perfbench"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_imports_no_scipy():
    # a fresh interpreter, so modules the test run imported do not count
    src = str(Path(lpevo.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import importlib\n"
        f"for name in {MODULES!r}: importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _used_names(path: Path) -> set[str]:
    """Every Name, Attribute and imported alias that a source file uses."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_export_has_a_consumer():
    # consumers are the package's own modules and the benchmark, not tests:
    # a name only its tests call is surface to delete
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted(BENCHMARK.glob("*.py"))
    used = set().union(*(_used_names(p) for p in sources))
    unused = [
        f"{name}.{export}"
        for name in MODULES[1:]
        for export in importlib.import_module(name).__all__
        if export not in used
    ]
    assert unused == []
