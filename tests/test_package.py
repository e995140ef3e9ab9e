"""Every name that a module of the package exports must resolve, so a
deleted function cannot leave a stale entry in ``__all__``; and the
package needs numpy alone."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lpevo

MODULES = ["lpevo"] + sorted(f"lpevo.{m.name}" for m in pkgutil.iter_modules(lpevo.__path__))


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
