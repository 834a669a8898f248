"""Surface gate: nothing under ``src/repro`` that only tests reach.

Modules: every module must be imported by code outside ``tests/`` --
another part of ``src/repro``, an example or the perfbench harness.
A package ``__init__`` re-exporting its own submodule does not count
(that is how an unused module stays loaded), but importing a name that
an ``__init__`` binds from a submodule counts for that submodule, and
so does a ``repro.obs._LAZY`` entry.  A module only a test needs lives
beside that test, as
``tests/netsim/reference_link.py`` does.  Package ``__init__`` files
are exempt: any submodule import loads them.

Knob values: every name a registry accepts (middlebox profiles,
schedulers, ``FlowSpec.path_manager`` values, flow-size distributions)
must be selected by a string outside ``tests/`` and outside the module
that defines it.

Functions: ``tests/surface_reach.txt`` is the measured per-function
report; each def it keeps, or leaves for the next pass, must still
exist.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLERS = ("src/repro", "examples", "perfbench")

#: Reached only by tests, and kept on purpose.
ALLOWED = {
    "repro.app.ping": "the seed-era tests/app/test_ping.py exercises the "
                      "RRC promotion delay through it",
    "repro.experiments.sensitivity": "the seed-era "
                                     "tests/experiments/test_sensitivity.py "
                                     "exercises its profile-override sweeps "
                                     "until they run on execute_plan",
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


def _string_constants(paths):
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value


def _path_managers():
    """The ``FlowSpec.path_manager`` values ``FlowSpec`` accepts.  There
    is no registry to read, so offer it every string the tree holds."""
    from repro.experiments.config import FlowSpec
    trees = [ROOT / caller for caller in CALLERS] + [ROOT / "tests"]
    accepted = set()
    for text in set(_string_constants(
            path for tree in trees for path in tree.rglob("*.py"))):
        try:
            FlowSpec(mode="mp", path_manager=text)
        except (ValueError, TypeError):
            continue
        accepted.add(text.partition(":")[0])
    return accepted


#: registry -> the module that defines its names.
HOMES = {
    "middlebox profile": "middlebox/profiles.py",
    "path manager": "core/path_manager.py",
    "scheduler": "core/scheduler.py",
    "size distribution": "world/arrivals.py",
}


def _accepted(registry):
    """The names one registry accepts."""
    if registry == "path manager":
        return _path_managers()
    from repro.core.scheduler import scheduler_names
    from repro.middlebox import PROFILES
    from repro.world.arrivals import SIZE_DISTRIBUTIONS
    return {"middlebox profile": set(PROFILES),
            "scheduler": set(scheduler_names()),
            "size distribution": set(SIZE_DISTRIBUTIONS)}[registry]


@pytest.mark.parametrize("registry", sorted(HOMES))
def test_every_registered_name_is_selected_outside_tests(registry):
    selectors = [path for caller in CALLERS
                 for path in sorted((ROOT / caller).rglob("*.py"))
                 if path != SRC / "repro" / HOMES[registry]]
    selected = {text.partition(":")[0]
                for text in _string_constants(selectors)}
    unselected = sorted(_accepted(registry) - selected)
    assert unselected == [], (
        f"only tests select the {registry} names {unselected}: delete them")


def _defs(module):
    """Qualified names of every def in ``module``'s source."""
    found = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(prefix + child.name)
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(MODULES[module].read_text()), "")
    return found


def test_reach_report_names_existing_defs():
    """Every ``kept`` / ``next`` entry of the reach report is still a
    def (or, for ``NAME["key"]``, still a key of that registry)."""
    missing = []
    for line in (ROOT / "tests" / "surface_reach.txt").read_text() \
            .splitlines():
        if line.startswith("#"):
            continue
        verdict, entry = line.split("\t")[:2]
        assert verdict in ("deleted", "kept", "next"), line
        if verdict == "deleted":
            continue
        module, qualname = entry.split(":")
        name, _, key = qualname.partition("[")
        if key:
            registry = getattr(importlib.import_module(module), name)
            present = ast.literal_eval(key[:-1]) in registry
        else:
            present = qualname in _defs(module)
        if not present:
            missing.append(entry)
    assert missing == [], f"stale reach report entries: {missing}"
