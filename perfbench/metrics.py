"""Metric catalogue and the pure statistics the benchmark reports.

The two tables below are the benchmark's contract with ``BENCHMARK.json``:
every end-to-end metric is printed by an untraced run, every per-layer metric
by a traced run, each with its unit. ``test_perfbench.py`` checks that the
tables and ``BENCHMARK.json`` agree.
"""

from __future__ import annotations

import statistics

# name -> (unit, better)
END_TO_END: dict[str, tuple[str, str]] = {
    "tokens_per_s": ("tok/s", "higher"),
    "gen_ms_p50": ("ms", "lower"),
    "gen_ms_tail": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "modeled_speedup": ("x", "higher"),
    "mean_tau": ("tok/step", "higher"),
    "prefix_match_tokens": ("tok", "higher"),
}

_SELF = "us/tok"
PER_LAYER: dict[str, tuple[str, str]] = {
    "draft_tree.expand_tree.self_us_per_tok": (_SELF, "lower"),
    "draft_tree.expand_tree.total_us_per_tok": (_SELF, "lower"),
    "toy_model.extend.total_us_per_tok": (_SELF, "lower"),
    "moe_core.apply_experts.self_us_per_tok": (_SELF, "lower"),
    "moe_core.apply_experts.calls_per_tok": ("calls/tok", "lower"),
    "moe_core.apply_experts.slots_per_call": ("slots/call", "higher"),
    "moe_core.apply_experts.groups_per_call": ("groups/call", "lower"),
    "moe_core.route_batch.self_us_per_tok": (_SELF, "lower"),
    "moe_core.route_batch.rows_per_call": ("rows/call", "higher"),
    "numerics.top_k_indices.self_us_per_tok": (_SELF, "lower"),
    "moe_core.expert_outputs_grouped.self_us_per_tok": (_SELF, "lower"),
    "budgeting.rank_oracle.self_us_per_tok": (_SELF, "lower"),
    "numerics.masked_softmax.self_us_per_tok": (_SELF, "lower"),
    "toy_model.extend_tree.total_us_per_tok": (_SELF, "lower"),
    "toy_model.run_rows.self_us_per_tok": (_SELF, "lower"),
    "toy_model.run_rows.rows_per_call": ("rows/call", "higher"),
    "toy_model.append_tokens.total_us_per_tok": (_SELF, "lower"),
    "toy_model.prefill_ms": ("ms", "lower"),
    "budgeting.rank_router.self_us_per_tok": (_SELF, "lower"),
    "coverage.policy_assignments.self_us_per_tok": (_SELF, "lower"),
    "budgeting.calibrate_static.s": ("s", "lower"),
    "simulator.sweep.ar_phase_s": ("s", "lower"),
    "simulator.sweep.pool_s": ("s", "lower"),
    "simulator.other_us_per_tok": (_SELF, "lower"),
    "draft_tree.accept_ratio": ("share", "higher"),
    "moe_core.unique_experts_per_layer": ("experts", "lower"),
    "coverage.missing_slot_frac": ("share", "lower"),
    "coverage.fully_skipped_frac": ("share", "lower"),
    "simulator.steps_per_tok": ("steps/tok", "lower"),
    "simulator.verify_cost_per_tok": ("cost/tok", "lower"),
    "simulator.draft_cost_per_tok": ("cost/tok", "lower"),
    "trace.overhead_frac": ("share", "lower"),
}

TAIL_BEYOND = 10


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile that keeps at least ``beyond`` samples above it.

    Returns ``(value, percentile)``. With ``n`` samples that is the
    ``beyond + 1``-th largest, at percentile ``100 * (n - beyond) / n``. Below
    ``2 * beyond`` samples that percentile would fall under the median, so
    the median (percentile 50) is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail_percentile needs at least one sample")
    if n < 2 * beyond:
        return float(statistics.median(xs)), 50.0
    return float(xs[n - beyond - 1]), 100.0 * (n - beyond) / n


def prefix_match(stream, reference) -> int:
    """Number of leading tokens of ``stream`` equal to ``reference``."""
    n = 0
    for a, b in zip(stream, reference):
        if a != b:
            break
        n += 1
    return n


def covered_length(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered_length(start, end, child_intervals)
