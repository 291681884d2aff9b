"""The names the benchmark's tracer binds in ``moebudget`` still exist.

``perfbench/spans.py`` wraps each function ``TRACED`` names, and the pool
``POOL_BINDING`` names, looked up through ``vars(owner)``. A ``src/`` change
that deletes or renames one of them would fail only traced benchmark runs,
so this test imports ``spans`` (without writing bytecode next to it) and
makes the same lookup. It installs nothing."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("spans")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))


def test_every_traced_binding_resolves(spans):
    bindings = {**spans.TRACED, "pool": spans.POOL_BINDING}
    missing = [
        name for name, (owner, attr) in bindings.items() if vars(owner).get(attr) is None
    ]
    assert missing == []
