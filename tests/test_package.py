"""Every name that a module of the package exports must resolve, so a
deleted function cannot leave a stale entry in ``__all__``; every name a
module exports, the package's own re-exports included, and every parameter
with a default that a submodule's export takes, must have a consumer
outside the tests; every private helper must have one inside the
package, and every private constant must be read in its own module; no
module reaches for another's private names; only ``grid.py`` names numpy's
FFT; only ``symbols.py`` reads a symbol's factors; and the package needs
numpy alone."""

import ast
import collections
import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lpevo

MODULES = ["lpevo"] + sorted(f"lpevo.{m.name}" for m in pkgutil.iter_modules(lpevo.__path__))
PACKAGE = Path(lpevo.__file__).resolve().parent
BENCHMARK = PACKAGE.parents[1] / "perfbench"
# the package's own modules and the benchmark: the consumers of its surface
CONSUMERS = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + sorted(
    BENCHMARK.glob("*.py")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _modules_after_import() -> set[str]:
    """sys.modules after importing every module of the package in a fresh
    interpreter, so modules the test run imported do not count."""
    src = str(Path(lpevo.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import importlib\n"
        f"for name in {MODULES!r}: importlib.import_module(name)\n"
        "print(' '.join(sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_imports_no_scipy():
    assert sorted(m for m in _modules_after_import() if m.split(".")[0] == "scipy") == []


def test_imports_no_executor_or_logging():
    # the square function starts its worker threads from threading, which
    # numpy loads anyway; concurrent.futures would import logging, and both
    # would add to every start-up
    loaded = _modules_after_import()
    assert "lpevo.gfunction" in loaded
    assert {"concurrent.futures", "logging"} & loaded == set()


def _name_uses(node: ast.AST) -> collections.Counter:
    """How often each Name, Attribute and imported alias occurs under node."""
    uses = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            uses[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            uses.update(alias.name for alias in sub.names)
    return uses


def _used_names(path: Path) -> set[str]:
    """Every Name, Attribute and imported alias that a source file uses."""
    return set(_name_uses(ast.parse(path.read_text(), filename=str(path))))


def _names_fft(node: ast.AST) -> bool:
    """Whether node is the attribute np.fft (or numpy.fft) or an import of
    numpy's FFT module."""
    if isinstance(node, ast.Attribute):
        return node.attr == "fft" and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy.fft") or (module == "numpy" and any(a.name == "fft" for a in node.names))
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.fft") for a in node.names)
    return False


def test_only_grid_names_the_fft():
    # the lattice convention lives in one module: every other one transforms
    # through lattice_forward and lattice_inverse
    named = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "grid.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _names_fft(node)
    ]
    assert named == []


def test_only_symbols_reads_the_factors():
    # how a symbol splits into c(t) p(xi) is decided in one place: every
    # other module asks SymbolSpec.factors()
    factors = {"separable", "time_coeff", "xi_profile"}
    read = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "symbols.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in factors
    ]
    assert read == []


def test_every_private_helper_has_a_consumer_in_the_package():
    # a private function or class that only its own body or the tests use
    # is a helper kept alive for its tests: surface to delete
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))]
    uses = sum((_name_uses(tree) for tree in trees), collections.Counter())
    unused = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and uses[node.name] == _name_uses(node)[node.name]
    ]
    assert unused == []


def test_every_private_constant_is_read_in_its_module():
    # per module, since two modules may hold constants of one name: a cap or
    # a tolerance that its module no longer reads is a knob that does nothing
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [
            f"{path.name}:{target.id}"
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)
            and target.id.startswith("_")
            and target.id.isupper()
            and target.id not in loaded
        ]
    assert unread == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_imports_another_modules_private_name():
    # a private name that crosses modules is a decision split between two
    # modules: it belongs to its one user, or it is public
    crossed = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "lpevo"
            and any(_private(alias.name) for alias in node.names)
        )
        or (
            isinstance(node, ast.Attribute)
            and _private(node.attr)
            and ast.unparse(node.value).startswith("lpevo.")
        )
    ]
    assert crossed == []


def test_every_export_has_a_consumer():
    # consumers are the package's own modules and the benchmark, not tests:
    # a name only its tests call is surface to delete, the package's own
    # re-exports included
    used = set().union(*(_used_names(p) for p in CONSUMERS))
    unused = [
        f"{name}.{export}"
        for name in MODULES
        for export in importlib.import_module(name).__all__
        if export not in used
    ]
    assert unused == []


# parameters with a default that only the tests set, each with its reason
UNSET_BY_CONSUMERS = {
    # the class's N, which the class-check tests sweep
    "power_symbol.n_derivs",
}


def _consumer_calls() -> dict[str, tuple[set[str], float]]:
    """Per callee name, the keywords that the consumers' calls pass and the
    most positional arguments one call passes (unbounded past a starred
    argument)."""
    calls: dict[str, tuple[set[str], float]] = {}
    for path in CONSUMERS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords, positional = calls.get(name, (set(), 0))
            keywords |= {k.arg for k in node.keywords if k.arg is not None}
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls[name] = (keywords, max(positional, float("inf") if starred else len(node.args)))
    return calls


def _read_attributes(path: Path) -> set[str]:
    """Every attribute that a source file reads (not a field's definition)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _unconsumed_defaults() -> set[str]:
    """Defaulted parameters of exported functions and dataclasses that no
    consumer sets, and defaulted dataclass fields that no consumer reads."""
    calls = _consumer_calls()
    read = set().union(*(_read_attributes(p) for p in CONSUMERS))
    unconsumed = set()
    for module in MODULES[1:]:
        for export in importlib.import_module(module).__all__:
            obj = getattr(importlib.import_module(module), export)
            if not (inspect.isfunction(obj) or dataclasses.is_dataclass(obj)):
                continue
            keywords, positional = calls.get(export, (set(), 0))
            for i, param in enumerate(inspect.signature(obj).parameters.values()):
                if param.default is inspect.Parameter.empty:
                    continue
                is_set = param.name in keywords or i < positional
                if not is_set or (dataclasses.is_dataclass(obj) and param.name not in read):
                    unconsumed.add(f"{export}.{param.name}")
    return unconsumed


def test_every_default_has_a_consumer():
    # a default that no consumer overrides is a constant, and a result field
    # that no consumer reads is dead weight: both are surface to delete
    assert _unconsumed_defaults() == UNSET_BY_CONSUMERS
