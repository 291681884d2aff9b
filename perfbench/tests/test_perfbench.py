"""Tests of the benchmark's own helpers.

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

import spans
from metrics import END_TO_END, PER_LAYER, prefix_match, self_time, tail_percentile
from moebudget import simulator
from moebudget.coverage import CoveragePolicy
from moebudget.simulator import BudgetConfig, SweepCell, SweepSpec
from moebudget.toy_model import DraftSpec, ModelConfig
from workloads import WORKLOADS, OpRecord, Output, host_metrics

ROOT = Path(__file__).resolve().parents[2]
SMALL = ModelConfig(d_model=8, d_ff=12, n_experts=8, top_k=2, n_layers=2, vocab_size=32, seed=7)


def test_self_time_is_duration_minus_child_coverage():
    # Two overlapping children (pool workers) and one that outlives the parent.
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == pytest.approx(4.0)
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(2.0, 3.0), (2.2, 2.8)]) == pytest.approx(9.0)


def test_self_time_of_recorded_nested_spans():
    rec = spans.Recorder()
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.close(inner)
    rec.close(outer)
    assert inner.parent == outer.id
    children = [(inner.start, inner.end)]
    own = self_time(outer.start, outer.end, children)
    assert own == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))


@pytest.mark.parametrize("n", [20, 37, 100, 1000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    samples = list(np.random.default_rng(n).permutation(n) * 0.5)
    value, pct = tail_percentile(samples)
    assert sum(x > value for x in samples) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_percentile_falls_back_to_median_below_twenty_samples():
    samples = [float(x) for x in range(19)]
    assert tail_percentile(samples) == (9.0, 50.0)


@pytest.mark.parametrize(
    "stream, reference, want",
    [
        ([1, 2, 3], [1, 2, 3], 3),
        ([1, 2, 3], [1, 9, 3], 1),
        ([5, 2], [6, 2], 0),
        ([1, 2], [1, 2, 3], 2),
        ([], [1], 0),
    ],
)
def test_prefix_match(stream, reference, want):
    assert prefix_match(stream, reference) == want


def _record(index: int, wall_s: float, tokens: int, rows: int = 1, speed: float = 1.0) -> OpRecord:
    """A record timed on a host ``speed`` times as fast as the nominal one."""
    outs = [Output(("k", index, r), "ar", 0, [0] * tokens, [], "", []) for r in range(rows)]
    return OpRecord(("measured", index), wall_s, 1.0 / speed, outs, 0)


def test_host_metrics_time_each_input_by_the_median_of_its_passes():
    records = [
        _record(0, 0.3, 8), _record(1, 0.2, 4), _record(0, 0.1, 8),
        _record(1, 0.4, 4), _record(0, 0.2, 8), _record(1, 0.3, 4),
    ]
    host = host_metrics(records)
    assert host["tokens_per_s"] == pytest.approx(12 / (0.2 + 0.3))
    assert host["gen_ms_p50"] == pytest.approx(250.0)
    assert host["passes"] == 3


def test_host_metrics_scale_wall_clock_to_the_nominal_host():
    # Half the nominal speed: 0.4 s of wall-clock reads 0.2 s.
    host = host_metrics([_record(0, 0.4, 8, speed=0.5), _record(1, 0.1, 8)])
    assert host["tokens_per_s"] == pytest.approx(16 / (0.2 + 0.1))
    assert host["host_speed"] == pytest.approx(0.75)


def test_host_metrics_tail_covers_every_pass():
    records = [_record(i % 4, 0.001 * (i + 1), 8) for i in range(40)]
    host = host_metrics(records)
    assert host["gen_n"] == 40
    assert host["gen_ms_tail"] == pytest.approx(30.0)  # 10 of 40 samples beyond it
    assert host["gen_ms_p50"] == pytest.approx(20.5)  # medians of the inputs: 19, 20, 21, 22 ms


def test_host_metrics_divide_a_sweep_call_by_its_rows():
    host = host_metrics([_record(0, 0.8, 4, rows=4), _record(0, 0.4, 4, rows=4)])
    assert host["gen_ms_p50"] == pytest.approx(150.0)
    assert host["tokens_per_s"] == pytest.approx(16 / 0.6)


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_span_metrics_are_in_the_catalogue():
    assert set(spans.span_metrics([], tokens=1)) <= set(PER_LAYER)


def _outputs(target, draft):
    prompt = np.arange(16) % SMALL.vocab_size
    runs = [
        simulator.run_generation(target, draft, prompt, 8, "ar"),
        simulator.run_generation(
            target, draft, prompt, 8, "spec_budgeted",
            budget_cfg=BudgetConfig("oracle", CoveragePolicy.TRUNCATION, 3),
            tree_size=7, keep_coverage=True,
        ),
        simulator.run_generation(
            target, draft, prompt, 8, "spec_budgeted",
            budget_cfg=BudgetConfig("router", CoveragePolicy.SUBSTITUTION, 3),
            tree_size=7, keep_coverage=True,
        ),
    ]
    return json.dumps([[run.tokens, [r.to_json() for r in run.reports]] for run in runs])


def test_install_restores_bindings_and_leaves_outputs_byte_identical():
    target, draft = simulator.build_model_pair(SMALL, DraftSpec())
    plain = _outputs(target, draft)
    before = spans.snapshot()
    recorder = spans.Recorder()
    restore, missing = spans.install(recorder)
    try:
        assert not spans.restored(before)
        traced = _outputs(target, draft)
    finally:
        restore()
    assert missing == []
    assert spans.restored(before)
    assert traced == plain
    assert _outputs(target, draft) == plain
    names = {s.name for s in recorder.spans}
    assert {"simulator.run_generation", "draft_tree.expand_tree", "budgeting.rank_oracle",
            "moe_core.apply_experts", "toy_model.prefill"} <= names
    gens = {s.id for s in recorder.spans if s.name == "simulator.run_generation"}
    assert len(gens) == 3
    assert {s.gen for s in recorder.spans} == gens


def test_install_wraps_every_binding_of_a_traced_function():
    from moebudget import budgeting, moe_core

    original = moe_core.apply_experts
    found = spans.bindings(original)
    assert (simulator, "apply_experts") in found and (budgeting, "apply_experts") in found
    restore, _ = spans.install(spans.Recorder())
    try:
        assert all(getattr(o, a) is not original for o, a in found)
        assert len({id(getattr(o, a)) for o, a in found}) == 1
    finally:
        restore()
    assert all(getattr(o, a) is original for o, a in found)


def test_install_reports_a_traced_function_that_is_gone(monkeypatch):
    from moebudget import draft_tree

    monkeypatch.delattr(draft_tree, "expand_tree")
    restore, missing = spans.install(spans.Recorder())
    restore()
    assert missing == ["draft_tree.expand_tree"]


def test_traced_sweep_gathers_worker_spans():
    spec = SweepSpec(
        model_config=SMALL, draft_spec=DraftSpec(),
        cells=(SweepCell("ar"), SweepCell("spec_full", tree_size=3)), seeds=(0, 1), gen_len=4,
    )
    plain = simulator.sweep(spec, workers=2)
    recorder = spans.Recorder()
    restore, _ = spans.install(recorder)
    try:
        traced = simulator.sweep(spec, workers=2)
    finally:
        restore()
    assert traced.rows == plain.rows
    worker_spans = [s for s in recorder.spans if s.id >> 32 != os.getpid()]
    assert {s.name for s in worker_spans} >= {"simulator.sweep.task", "simulator.run_generation"}
    pool = [s for s in recorder.spans if s.name == "simulator.sweep.pool"]
    assert len(pool) == 1
    assert all(s.parent == pool[0].id for s in worker_spans if s.name == "simulator.sweep.task")
