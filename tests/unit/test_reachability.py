"""Unit tests: every module of the package is reached from an entry point.

A module earns its place when a paper artifact, a registered claim or a
qdbench workload reaches it.  The roots are the console scripts in
``setup.cfg`` (``dcmesh-repro`` reaches the experiment registry, every
artifact and every claim checker) and every ``repro`` import in
``qdbench/*.py``.  From there the scan follows module- and
function-level imports.  ``from pkg import name`` resolves to the
submodule that defines ``name``, so a package ``__init__`` re-export
alone reaches nothing.  A claim's ``module`` field is not a root: a
module a claim names must be reached from the console scripts, which
run the claim's checker.  No module is exempt.

The tests read source files only (``ast``); they import nothing.
"""

import ast
import configparser
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

def _package_modules():
    """``{dotted name: path}`` of every module under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _is_package(modules, name):
    return modules.get(name, Path()).name == "__init__.py"


def _binding(modules, package, name):
    """Where ``package``'s ``__init__`` takes ``name`` from, if it imports it."""
    tree = ast.parse(modules[package].read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return node.module, alias.name
    return None


def _resolve(modules, module, name):
    """The module that defines ``name`` imported ``from module``."""
    while True:
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        if not _is_package(modules, module):
            return module
        bound = _binding(modules, module, name)
        if bound is None or bound[0] not in modules:
            return module
        module, name = bound


def _imports(modules, tree):
    """Package modules that the imports in ``tree`` reach."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules:
                    yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module in modules:
            for alias in node.names:
                yield _resolve(modules, node.module, alias.name)


def _reached(modules, roots):
    """Every module reached from ``roots``; ``__init__`` imports do not count."""
    seen, todo = set(), list(roots)
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        if not _is_package(modules, module):
            todo.extend(_imports(modules, ast.parse(modules[module].read_text())))
    return seen


def _console_scripts():
    cfg = configparser.ConfigParser()
    cfg.read(ROOT / "setup.cfg")
    entries = cfg["options.entry_points"]["console_scripts"].strip().splitlines()
    return [entry.split("=")[1].split(":")[0].strip() for entry in entries]


def _qdbench_roots(modules):
    for path in sorted((ROOT / "qdbench").glob("*.py")):
        yield from _imports(modules, ast.parse(path.read_text()))


def _claim_modules():
    """Every module named in a ``Claim(...)``'s ``module`` field (its fourth
    argument), braces expanded."""
    path = SRC / "repro" / "experiments" / "claims.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Claim":
            for name in node.args[3].value.split("/"):
                name = name.strip()
                match = re.fullmatch(r"(.*)\{(.*)\}", name)
                if match:
                    for leaf in match.group(2).split(","):
                        yield match.group(1) + leaf.strip()
                else:
                    yield name


@pytest.fixture(scope="module")
def modules():
    return _package_modules()


def test_roots_exist(modules):
    roots = [*_console_scripts(), *_claim_modules()]
    assert [r for r in roots if r not in modules] == []
    assert list(_qdbench_roots(modules))


def test_every_module_is_reached(modules):
    roots = [*_console_scripts(), *_qdbench_roots(modules)]
    reached = _reached(modules, roots)
    missing = sorted(
        m for m in modules if not _is_package(modules, m) and m not in reached
    )
    assert missing == [], (
        f"{len(missing)} modules reached by no artifact, claim or qdbench "
        f"workload: {missing}"
    )


def test_claim_modules_are_reached_from_the_console_scripts(modules):
    reached = _reached(modules, _console_scripts())
    named = sorted(set(_claim_modules()))
    assert [m for m in named if m not in reached] == []

