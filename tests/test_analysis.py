from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from moebudget.analysis import (
    coactivation,
    concentration_ratio,
    coverage_curve,
    expected_pair_probability,
    max_pair_count,
    pareto_table,
    read_trace,
)
from moebudget.budgeting import calibrate_static
from moebudget.draft_tree import build_tree, tree_routing
from moebudget.numerics import Rng
from moebudget.simulator import SweepCell, SweepSpec, sweep
from moebudget.toy_model import DraftSpec, ModelConfig, random_tokens

from conftest import prompt_tokens
from reference import forward, write_trace_dense, write_trace_topk


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


class TestCoactivation:
    def test_expected_pair_probability_exact_rational(self):
        frac = expected_pair_probability(64, 8)
        assert frac == Fraction(56, 4032)
        assert frac == Fraction(1, 72)
        assert float(frac) == pytest.approx(0.013889, abs=1e-6)

    def test_single_token_concentration(self):
        selected = np.array([[0, 1, 2, 3, 4, 5, 6, 7]])
        counts = coactivation(selected, 64)
        assert counts.shape == (64, 64) and counts.dtype == np.int64
        assert counts[0, 1] == 1 and counts[1, 0] == 1
        assert max_pair_count(counts) == 1
        conc = concentration_ratio(counts, 1, 8)
        assert conc == pytest.approx(72.0, rel=1e-9)  # 1 / (1/72)

    def test_diagonal_equals_selection_counts(self, small_target):
        seqs = [random_tokens(Rng(i), 16, small_target.config.vocab_size) for i in range(3)]
        counts = calibrate_static(small_target, seqs)
        all_selected = {li: [] for li in range(small_target.n_layers)}
        for seq in seqs:
            result = forward(small_target, seq)
            for li, trace in enumerate(result.layers):
                all_selected[li].append(trace.selected)
        for li in range(small_target.n_layers):
            sel = np.concatenate(all_selected[li])
            pairs = coactivation(sel, small_target.config.n_experts)
            np.testing.assert_array_equal(np.diag(pairs), counts[li])
            np.testing.assert_array_equal(pairs, pairs.T)
            assert pairs.max() <= len(sel)

    def test_uniform_random_concentration_in_derived_bound(self):
        # 100k uniform-random k-subsets: the max pair count concentrates
        # near its mean (std ~ sqrt(n p); the max over 2016 pairs adds ~3.3
        # sigma), so the ratio must land well inside [0.8, 1.5].
        rng = Rng(123)
        scores = rng.random(size=(100_000, 64))
        selected = np.argsort(scores, axis=1)[:, :8]
        conc = concentration_ratio(coactivation(selected, 64), len(selected), 8)
        assert 0.8 <= conc <= 1.5, conc

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coactivation(np.zeros((0, 8), dtype=np.int64), 64)


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
        back = read_trace(path, small_target.config.n_experts, k=small_target.config.top_k)
        for li, layer in enumerate(routing):
            np.testing.assert_array_equal(back[li]["probs"], layer.probs)
            np.testing.assert_array_equal(back[li]["selected"], layer.selected)

    def test_topk_round_trip_selection_and_coverage(self, small_target, small_draft, tmp_path):
        ctx = prompt_tokens(small_target, 83, 8)
        tree = build_tree(small_draft, ctx, (2, 2))
        routing = tree_routing(small_target, ctx, tree)
        path = tmp_path / "trace_topk.jsonl"
        write_trace_topk(
            path,
            {li: layer.probs for li, layer in enumerate(routing)},
            {li: layer.selected for li, layer in enumerate(routing)},
        )
        back = read_trace(path, small_target.config.n_experts, k=small_target.config.top_k)
        for li, layer in enumerate(routing):
            np.testing.assert_array_equal(back[li]["selected"], layer.selected)
            # Coverage from sparse trace equals in-process coverage: the
            # aggregate scores only involve the listed (top-k) mass for the
            # experts that would be ranked anyway.
            np.testing.assert_array_equal(
                coactivation(layer.selected, small_target.config.n_experts),
                coactivation(back[li]["selected"], small_target.config.n_experts),
            )

    def test_bad_record_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"layer": 0, "nope": 1}\n')
        with pytest.raises(ValueError):
            read_trace(path, 4, k=2)

    def test_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "w.jsonl"
        write_trace_dense(path, {0: np.full((2, 4), 0.25)})
        with pytest.raises(ValueError):
            read_trace(path, 8, k=2)

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
            ('{"layer": 0, "topk": [[1, 0.5], [2, 0.3]}', "invalid JSON at column"),
            ('{"layer": 0, "topk": [[1.7, 0.5], [2, 0.3]]}', "expert index must be an integer, got 1.7"),
            ('{"layer": 0, "topk": [[true, 0.5], [2, 0.3]]}', "expert index must be an integer, got true"),
            ('{"layer": 0, "topk": [[1, "0.5"], [2, 0.3]]}', 'probability must be a number, got "0.5"'),
            ('{"layer": 0, "topk": [[1, true], [2, 0.3]]}', "probability must be a number, got true"),
            ('{"layer": 0, "probs": [true, false, 0, 0, 0, 0, 0, 0]}', "probability must be a number, got true"),
            ('{"layer": 0, "probs": [0.5, null, 0, 0, 0, 0, 0, 0]}', "probability must be a number, got null"),
            ('{"layer": 0, "topk": [[5, 0.0], [6, 0.0]]}', "probabilities sum to 0"),
            ('{"layer": 0, "probs": [0, 0, 0, 0, 0, 0, 0, 0]}', "probabilities sum to 0"),
        ],
        ids=["negative_index", "index_out_of_range", "duplicate_index", "prob_above_one",
             "shorter_than_k", "dense_negative_prob", "missing_layer", "non_integer_layer",
             "malformed_json", "fractional_index", "boolean_index", "string_prob",
             "boolean_topk_prob", "boolean_dense_probs", "null_dense_prob",
             "all_zero_topk", "all_zero_dense"],
    )
    def test_malformed_record_names_line(self, tmp_path, bad_record, message):
        path = tmp_path / "t.jsonl"
        path.write_text('{"layer": 0, "topk": [[1, 0.5], [2, 0.3]]}\n' + bad_record + "\n")
        with pytest.raises(ValueError, match="line 2: " + message):
            read_trace(path, 8, k=2)

    def test_selection_is_listed_experts_ties_to_lower_id(self, tmp_path):
        # A listed expert at probability 0 outranks every unlisted one, and
        # equal probabilities rank by id, not by place in the record.
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"layer": 0, "topk": [[5, 0.5], [7, 0.0]]}\n'
            '{"layer": 0, "topk": [[6, 0.2], [3, 0.2], [1, 0.1]]}\n'
            '{"layer": 0, "probs": [0, 0.3, 0, 0.3, 0, 0, 0, 0.4]}\n'
        )
        selected = read_trace(path, 8, k=2)[0]["selected"]
        assert selected.tolist() == [[5, 7], [3, 6], [7, 1]]
