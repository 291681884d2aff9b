"""The benchmark's contract with ``moebudget`` still holds.

``perfbench/spans.py`` wraps each function ``TRACED`` names, and the pool
``POOL_BINDING`` names, looked up through ``vars(owner)``; and
``perfbench/workloads.py`` builds, runs, checks and measures each workload
through the package's functions, fields and keywords. A ``src/`` change
that deletes or renames one of them would fail only benchmark runs, so these
tests import the benchmark's modules (without writing bytecode next to
them), make the tracer's lookup, and run every workload once, shrunk to a
few tokens. They install nothing."""

from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def import_perfbench(name: str):
    """The benchmark module ``name``, imported with the benchmark's own
    directory on the path, as its runner imports it."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def spans():
    return import_perfbench("spans")


@pytest.fixture(scope="module")
def workloads():
    return import_perfbench("workloads")


def test_every_traced_binding_resolves(spans):
    bindings = {**spans.TRACED, "pool": spans.POOL_BINDING}
    missing = [
        name for name, (owner, attr) in bindings.items() if vars(owner).get(attr) is None
    ]
    assert missing == []


def test_every_workload_runs_through_the_benchmark_runner(workloads):
    # One operation of each workload on one input of two tokens, then the
    # output checks and the metrics the benchmark computes from it.
    for workload in workloads.WORKLOADS.values():
        runner = workloads.Runner(dataclasses.replace(workload, gen_len=2, inputs=1, check=0), 1)
        runner.setup()
        [item] = runner.inputs()
        key = ("measured", 0)
        result = runner.run_op(item, workers=1)
        outputs = {o.key: o for o in runner.outputs(key, result)}
        assert len(outputs) == runner.expected(item), workload.name
        assert [p for o in outputs.values() for p in o.problems] == [], workload.name
        references = runner.ar_references(outputs, {key: item})
        assert set(workloads.modeled_metrics(runner, outputs, references)) == {
            "modeled_speedup", "mean_tau", "prefix_match_tokens",
        }
        assert workloads.report_counts(runner, outputs)
