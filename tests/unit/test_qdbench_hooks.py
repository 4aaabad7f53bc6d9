"""Unit tests: the names the ``qdbench/`` benchmark reaches into exist.

qdbench changes no program code: its traced run wraps public functions
and methods by name, and its workloads import from ``repro``.  A rename
inside the package breaks the benchmark only when it runs, so these
tests resolve every hook it names.  They read ``qdbench/`` and change
nothing there.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
QDBENCH = ROOT / "qdbench"


@pytest.fixture(scope="module", autouse=True)
def _qdbench_importable():
    added = str(ROOT) not in sys.path
    if added:
        sys.path.insert(0, str(ROOT))
    yield
    if added:
        sys.path.remove(str(ROOT))


def _repro_imports():
    """``(file, module, name)`` of every ``from repro... import name`` and
    ``(file, module, None)`` of every ``import repro...`` in qdbench."""
    for path in sorted(QDBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "repro"
            ):
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro"):
                        yield path.name, alias.name, None


def test_patch_table_resolves():
    from qdbench.tracer import patch_table

    table = patch_table()
    assert table
    for owner, attr, *_ in table:
        assert callable(getattr(owner, attr, None)), f"{owner!r}.{attr}"


def test_repro_imports_resolve():
    found = list(_repro_imports())
    assert found
    for path, module, name in found:
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{path}: from {module} import {name}"


def test_selfchecks_pass():
    from qdbench.selfcheck import run_all

    assert run_all() == []
