from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from moebudget.analysis import (
    CoactivationMatrix,
    coactivation,
    concentration_ratio,
    coverage_curve,
    expected_pair_probability,
    pareto_table,
    read_trace,
    reconstruction_analysis,
    reconstruction_error,
)
from moebudget.budgeting import calibrate_static, rank_router
from moebudget.draft_tree import build_tree, tree_routing
from moebudget.moe_core import route_batch
from moebudget.numerics import Rng
from moebudget.simulator import SweepCell, SweepSpec, sweep
from moebudget.toy_model import DraftSpec, ModelConfig, TreeDecoder, random_tokens

from conftest import prompt_tokens
from reference import forward, write_trace_dense, write_trace_topk
from test_moe_core import make_layer


class TestReconstructionError:
    @pytest.mark.parametrize("mode", ["truncation", "substitution"])
    def test_full_shortlist_zero_error(self, mode):
        layer = make_layer(n=8, k=2)
        states = Rng(1).normal(size=(5, 4))
        probs, selected = route_batch(layer, states)
        err = reconstruction_error(
            layer, states, probs, selected, np.arange(8), mode
        )
        assert err < 1e-12

    def test_fully_skipped_truncation_error_is_one(self):
        layer = make_layer(n=8, k=2)
        states = Rng(2).normal(size=(4, 4))
        probs, selected = route_batch(layer, states)
        outside = sorted(set(range(8)) - set(np.unique(selected).tolist()))
        assert outside
        err = reconstruction_error(
            layer, states, probs, selected, np.asarray(outside), "truncation"
        )
        assert err == pytest.approx(1.0, abs=1e-12)

    def test_raw_mode_matches_manual_sum(self):
        layer = make_layer(n=6, k=2, renormalize=False)
        states = Rng(3).normal(size=(3, 4))
        probs, selected = route_batch(layer, states)
        sl = np.array([0, 2, 5])
        got = reconstruction_error(layer, states, probs, selected, sl, "raw", True)
        from moebudget.moe_core import expert_outputs_grouped, selection_weights, apply_experts

        gold = apply_experts(
            layer, states, selected, selection_weights(probs, selected, False)
        )
        dense = expert_outputs_grouped(layer, states)
        approx = sum(probs[:, j, None] * dense[j] for j in [0, 2, 5])
        want = float(np.sum((approx - gold) ** 2) / np.sum(gold * gold))
        assert got == pytest.approx(want, rel=1e-12)

    def test_unknown_mode_rejected(self):
        layer = make_layer()
        states = Rng(1).normal(size=(2, 4))
        probs, selected = route_batch(layer, states)
        with pytest.raises(ValueError):
            reconstruction_error(layer, states, probs, selected, np.array([0]), "magic")

    def test_truncation_monotone_for_nested_shortlists(self, target, draft):
        # Router shortlists are prefixes of one fixed ordering, so dropping
        # fewer natural experts cannot increase the truncated residual on
        # these seeded trees.
        ctx = prompt_tokens(target, 80)
        tree = build_tree(draft, ctx, (2,) * 4)
        for li, tr in enumerate(tree_routing(target, ctx, tree)):
            states, probs, selected = tr.moe_input, tr.probs, tr.selected
            full_order = rank_router(probs, target.config.n_experts)
            errs = []
            for budget in (8, 16, 32, 48, 64):
                sl = full_order[:budget]
                errs.append(
                    reconstruction_error(
                        target.blocks[li].moe, states, probs, selected, sl, "truncation"
                    )
                )
            assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))

    def test_substitution_statistically_monotone_in_budget(self, target, draft):
        budgets = (8, 16, 32, 64)
        out = reconstruction_analysis(
            target,
            draft,
            methods=("router",),
            budgets=budgets,
            n_trees=20,
            tree_size=15,
            rng=Rng(17),
            mode="substitution",
        )
        means = [np.mean(out[("router", b)]) for b in budgets]
        assert all(means[i + 1] <= means[i] + 1e-9 for i in range(len(means) - 1))

    def test_wrong_static_counts_shape_rejected_before_any_forward(
        self, small_target, small_draft, monkeypatch
    ):
        # 7 count columns for an 8-expert model used to warn "clamping to 7"
        # and average errors over shortlists that could never hold expert 7.
        def no_forward(*args, **kwargs):
            raise AssertionError("a forward ran before the counts were checked")

        monkeypatch.setattr(TreeDecoder, "run_rows", no_forward)
        with pytest.raises(ValueError, match=r"shape \(2, 8\).*got \(2, 7\)"):
            reconstruction_analysis(
                small_target, small_draft, ["static"], [8], n_trees=1, tree_size=3,
                static_counts=np.ones((2, 7)),
            )


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
        mat = coactivation(selected, 64)
        assert mat.counts[0, 1] == 1 and mat.counts[1, 0] == 1
        conc = concentration_ratio(mat, 8)
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
            mat = coactivation(sel, small_target.config.n_experts, layer=li)
            np.testing.assert_array_equal(np.diag(mat.counts), counts[li])
            np.testing.assert_array_equal(mat.counts, mat.counts.T)
            assert mat.counts.max() <= mat.tokens_observed

    def test_uniform_random_concentration_in_derived_bound(self):
        # 100k uniform-random k-subsets: the max pair count concentrates
        # near its mean (std ~ sqrt(n p); the max over 2016 pairs adds ~3.3
        # sigma), so the ratio must land well inside [0.8, 1.5].
        rng = Rng(123)
        scores = rng.random(size=(100_000, 64))
        selected = np.argsort(scores, axis=1)[:, :8]
        mat = coactivation(selected, 64)
        conc = concentration_ratio(mat, 8)
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
        back = read_trace(path, small_target.config.n_experts)
        for li, layer in enumerate(routing):
            np.testing.assert_array_equal(back[li]["selected"], layer.selected)
            # Coverage from sparse trace equals in-process coverage: the
            # aggregate scores only involve the listed (top-k) mass for the
            # experts that would be ranked anyway.
            mat_in = coactivation(layer.selected, small_target.config.n_experts)
            mat_tr = coactivation(back[li]["selected"], small_target.config.n_experts)
            np.testing.assert_array_equal(mat_in.counts, mat_tr.counts)

    def test_dense_requires_k(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace_dense(path, {0: np.full((2, 4), 0.25)})
        with pytest.raises(ValueError, match="line 1: k is required"):
            read_trace(path, 4)

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
        ],
        ids=["negative_index", "index_out_of_range", "duplicate_index", "prob_above_one",
             "shorter_than_k", "dense_negative_prob", "missing_layer", "non_integer_layer",
             "malformed_json", "fractional_index", "boolean_index", "string_prob",
             "boolean_topk_prob", "boolean_dense_probs", "null_dense_prob"],
    )
    def test_malformed_record_names_line(self, tmp_path, bad_record, message):
        path = tmp_path / "t.jsonl"
        path.write_text('{"layer": 0, "topk": [[1, 0.5], [2, 0.3]]}\n' + bad_record + "\n")
        with pytest.raises(ValueError, match="line 2: " + message):
            read_trace(path, 8, k=2)
