"""Surface gate: no module under ``src/repro`` that only tests reach.

Every module must be imported by code outside ``tests/`` -- another
part of ``src/repro``, a benchmark, an example or the perfbench
harness.  A package ``__init__`` re-exporting its own submodule does
not count (that is how an unused module stays loaded), but importing a
name that an ``__init__`` binds from a submodule counts for that
submodule, and so does a ``repro.obs._LAZY`` entry.  A module only a
test needs lives beside that test, as ``tests/netsim/reference_link.py``
does.  Package ``__init__`` files are exempt: any submodule import
loads them.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLERS = ("src/repro", "benchmarks", "examples", "perfbench")

#: Reached only by tests, and kept on purpose.
ALLOWED = {
    "repro.app.ping": "the seed-era tests/app/test_ping.py exercises the "
                      "RRC promotion delay through it",
}


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(path): path
           for path in sorted((SRC / "repro").rglob("*.py"))}
PACKAGES = sorted(name for name, path in MODULES.items()
                  if path.name == "__init__.py")


def _bindings(package):
    """name -> the submodule a package ``__init__`` binds it from."""
    tree = ast.parse(MODULES[package].read_text())
    bound = {}
    for node in tree.body:
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith(package + ".")):
            for alias in node.names:
                bound[alias.asname or alias.name] = node.module
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              and [getattr(t, "id", None) for t in node.targets] == ["_LAZY"]):
            bound.update(ast.literal_eval(node.value))
    return bound


def _used_modules():
    bindings = {package: _bindings(package) for package in PACKAGES}
    used = set()
    for caller in CALLERS:
        for path in sorted((ROOT / caller).rglob("*.py")):
            importer = _module_name(path) if caller == "src/repro" else ""
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    pairs = [(alias.name, None) for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    pairs = [(node.module, alias.name) for alias in node.names]
                else:
                    continue
                for module, name in pairs:
                    if (importer in PACKAGES
                            and f"{module}.".startswith(f"{importer}.")):
                        continue  # an __init__ re-exporting its own names
                    used.add(module)
                    if name is not None:
                        used.add(f"{module}.{name}")
                        used.add(bindings.get(module, {}).get(name))
    return used


def test_every_module_is_reached_outside_tests():
    used = _used_modules()
    assert set(ALLOWED) <= set(MODULES) - used, "stale ALLOWED entry"
    only_tests = sorted(name for name in MODULES
                        if name not in PACKAGES and name not in used
                        and name not in ALLOWED)
    assert only_tests == [], (
        f"only tests import {only_tests}: move a test-side reference "
        f"beside its tests, delete the rest")


@pytest.mark.parametrize("package", PACKAGES)
def test_package_all_resolves(package):
    module = importlib.import_module(package)
    unresolved = []
    for name in getattr(module, "__all__", ()):
        try:
            getattr(module, name)
        except (AttributeError, ImportError):
            unresolved.append(name)
    assert unresolved == []
