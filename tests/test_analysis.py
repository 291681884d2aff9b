from __future__ import annotations

import numpy as np
import pytest

from moebudget.analysis import coverage_curve, pareto_table, read_trace
from moebudget.draft_tree import build_tree, tree_routing
from moebudget.simulator import SweepCell, SweepSpec, sweep
from moebudget.toy_model import DraftSpec, ModelConfig

from conftest import prompt_tokens
from reference import write_trace_dense, write_trace_topk


class TestCoverageCurve:
    def test_uniform_routing_is_linear(self):
        probs = np.full((10, 8), 1 / 8)
        curve = coverage_curve(probs)
        np.testing.assert_allclose(curve, np.arange(1, 9) / 8, atol=1e-9)

    def test_reaches_one_and_monotone(self, target, draft):
        ctx = prompt_tokens(target, 81)
        tree = build_tree(draft, ctx, (2,) * 4)
        for li, layer in enumerate(tree_routing(target, ctx, tree)):
            curve = coverage_curve(layer.probs)
            assert curve.shape == (target.config.n_experts,)
            assert curve[-1] == pytest.approx(1.0, abs=1e-9)
            assert np.all(np.diff(curve) >= -1e-12)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            coverage_curve(np.zeros((3, 4)))


class TestParetoTable:
    def test_requires_ar_baseline(self):
        class Row:
            def __init__(self):
                self.cell = SweepCell(mode="spec_full", tree_size=15)
                self.speedup = 1.2
                self.ar_match_rate = 1.0
                self.seed = 0

        with pytest.raises(ValueError):
            pareto_table([Row()])

    def test_ar_and_full_budget_rows(self):
        spec = SweepSpec(
            model_config=ModelConfig(),
            draft_spec=DraftSpec(),
            cells=(
                SweepCell(mode="ar"),
                SweepCell(
                    mode="spec_budgeted",
                    tree_size=15,
                    method="router",
                    policy="substitution",
                    budget=64,
                ),
            ),
            seeds=(1,),
            gen_len=16,
        )
        result = sweep(spec)
        table = pareto_table(result.rows)
        by_mode = {row["mode"]: row for row in table}
        assert by_mode["ar"]["quality_pct"] == pytest.approx(100.0)
        assert by_mode["ar"]["speedup"] == pytest.approx(1.0)
        assert by_mode["spec_budgeted"]["quality_pct"] == pytest.approx(100.0)
        speeds = [row["speedup"] for row in table]
        assert speeds == sorted(speeds)


class TestTraces:
    def test_dense_round_trip_exact(self, small_target, small_draft, tmp_path):
        ctx = prompt_tokens(small_target, 82, 8)
        tree = build_tree(small_draft, ctx, (2, 2))
        routing = tree_routing(small_target, ctx, tree)
        path = tmp_path / "trace_dense.jsonl"
        write_trace_dense(path, {li: layer.probs for li, layer in enumerate(routing)})
        back = read_trace(path, small_target.config.n_experts, k=small_target.config.top_k,
                          n_layers=small_target.config.n_layers)
        for li, layer in enumerate(routing):
            np.testing.assert_array_equal(back[li], layer.probs)

    def test_topk_round_trip_keeps_only_selected_probs(self, small_target, small_draft, tmp_path):
        ctx = prompt_tokens(small_target, 83, 8)
        tree = build_tree(small_draft, ctx, (2, 2))
        routing = tree_routing(small_target, ctx, tree)
        path = tmp_path / "trace_topk.jsonl"
        write_trace_topk(
            path,
            {li: layer.probs for li, layer in enumerate(routing)},
            {li: layer.selected for li, layer in enumerate(routing)},
        )
        back = read_trace(path, small_target.config.n_experts, k=small_target.config.top_k,
                          n_layers=small_target.config.n_layers)
        assert sorted(back) == list(range(len(routing)))
        for li, layer in enumerate(routing):
            # A sparse record lists each token's top-k: those probabilities
            # read back exactly, and every unlisted expert reads as 0.
            want = np.zeros_like(layer.probs)
            rows = np.arange(len(want))[:, None]
            want[rows, layer.selected] = layer.probs[rows, layer.selected]
            np.testing.assert_array_equal(back[li], want)

    def test_bad_record_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"layer": 0, "nope": 1}\n')
        with pytest.raises(ValueError):
            read_trace(path, 4, k=2, n_layers=4)

    def test_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "w.jsonl"
        write_trace_dense(path, {0: np.full((2, 4), 0.25)})
        with pytest.raises(ValueError):
            read_trace(path, 8, k=2, n_layers=4)

    @pytest.mark.parametrize(
        "bad_record, message",
        [
            ('{"layer": 0, "topk": [[-1, 0.5], [2, 0.3]]}', "expert index -1 outside"),
            ('{"layer": 0, "topk": [[99, 0.5], [2, 0.3]]}', "expert index 99 outside"),
            ('{"layer": 0, "topk": [[1, 0.5], [1, 0.3]]}', "duplicate expert index"),
            ('{"layer": 0, "topk": [[1, 1.5], [2, 0.3]]}', r"probabilities must lie in \[0, 1\]"),
            ('{"layer": 0, "topk": [[1, 0.5]]}', "1 topk pairs, need k=2"),
            ('{"layer": 0, "probs": [0.5, -0.1, 0.3, 0.3, 0, 0, 0, 0]}', r"probabilities must lie in \[0, 1\]"),
            ('{"topk": [[1, 0.5], [2, 0.3]]}', "record needs 'layer'"),
            ('{"layer": "x", "topk": [[1, 0.5], [2, 0.3]]}', "layer must be a non-negative integer"),
            ('{"layer": 4, "topk": [[1, 0.5], [2, 0.3]]}', r"layer 4 outside 0\.\.3"),
            ('{"layer": 0, "topk": [[1, 0.5], [2, 0.3]}', "invalid JSON at column"),
            ('{"layer": 0, "topk": [[1.7, 0.5], [2, 0.3]]}', "expert index must be an integer, got 1.7"),
            ('{"layer": 0, "topk": [[true, 0.5], [2, 0.3]]}', "expert index must be an integer, got true"),
            ('{"layer": 0, "topk": [[1, "0.5"], [2, 0.3]]}', 'probability must be a number, got "0.5"'),
            ('{"layer": 0, "topk": [[1, true], [2, 0.3]]}', "probability must be a number, got true"),
            ('{"layer": 0, "probs": [true, false, 0, 0, 0, 0, 0, 0]}', "probability must be a number, got true"),
            ('{"layer": 0, "probs": [0.5, null, 0, 0, 0, 0, 0, 0]}', "probability must be a number, got null"),
            ('{"layer": 0, "topk": [[5, 0.0], [6, 0.0]]}', "probabilities sum to 0"),
            ('{"layer": 0, "probs": [0, 0, 0, 0, 0, 0, 0, 0]}', "probabilities sum to 0"),
            ('{"layer": 0, "probs": [0.5, 0.5, 0, 0, 0, 0, 0, 0], "topk": [[7, 0.9], [6, 0.1]]}',
             "record takes 'probs' or 'topk', not both"),
        ],
        ids=["negative_index", "index_out_of_range", "duplicate_index", "prob_above_one",
             "shorter_than_k", "dense_negative_prob", "missing_layer", "non_integer_layer",
             "layer_past_the_model",
             "malformed_json", "fractional_index", "boolean_index", "string_prob",
             "boolean_topk_prob", "boolean_dense_probs", "null_dense_prob",
             "all_zero_topk", "all_zero_dense", "probs_and_topk"],
    )
    def test_malformed_record_names_line(self, tmp_path, bad_record, message):
        path = tmp_path / "t.jsonl"
        path.write_text('{"layer": 0, "topk": [[1, 0.5], [2, 0.3]]}\n' + bad_record + "\n")
        with pytest.raises(ValueError, match="line 2: " + message):
            read_trace(path, 8, k=2, n_layers=4)
