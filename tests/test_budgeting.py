from __future__ import annotations

import json

import numpy as np
import pytest

from moebudget.budgeting import (
    METHODS,
    CalibrationCounts,
    Shortlist,
    calibrate_static,
    gold_outputs,
    oracle_reconstruction_weights,
    rank_oracle,
    rank_router,
    rank_static,
    save_static_ranking,
    shortlister,
)
from moebudget.draft_tree import build_tree, tree_routing
from moebudget.moe_core import route_batch
from moebudget.numerics import Rng
from moebudget.toy_model import random_tokens

from conftest import prompt_tokens
from reference import forward
from test_moe_core import expert_eval_naive, make_layer


def exhaustive_residual(layer, states, probs, selected, chosen, uses_raw_g):
    """Brute-force reconstruction residual for an explicit expert set."""
    w = oracle_reconstruction_weights(probs, selected, layer.renormalize, uses_raw_g)
    total = 0.0
    for t in range(states.shape[0]):
        gold = np.zeros(layer.d_model)
        weights = probs[t] if not layer.renormalize else probs[t] / probs[t][selected[t]].sum()
        for i in selected[t]:
            gold += weights[i] * expert_eval_naive(layer.experts[i], states[t])
        approx = np.zeros(layer.d_model)
        for j in chosen:
            approx += w[t, j] * expert_eval_naive(layer.experts[j], states[t])
        total += float(np.sum((gold - approx) ** 2))
    return total


class TestCalibration:
    def test_single_token_counts_k_experts(self, small_target):
        counts = calibrate_static(small_target, [[3]])
        k = small_target.config.top_k
        for layer_counts in counts.counts:
            assert layer_counts.sum() == k
            assert np.count_nonzero(layer_counts) == k
        assert counts.tokens == 1

    def test_duplicated_stream_doubles_counts(self, small_target):
        seq = random_tokens(Rng(1), 12, small_target.config.vocab_size)
        once = calibrate_static(small_target, [seq])
        twice = calibrate_static(small_target, [seq, seq])
        np.testing.assert_array_equal(twice.counts, 2 * once.counts)
        assert twice.tokens == 2 * once.tokens

    def test_counts_match_recount_from_routing_records(self, small_target):
        seqs = [random_tokens(Rng(i), 32, small_target.config.vocab_size) for i in range(4)]
        counts = calibrate_static(small_target, seqs)
        recount = np.zeros_like(counts.counts)
        for seq in seqs:
            result = forward(small_target, seq)
            for li, trace in enumerate(result.layers):
                for row in trace.selected:
                    for e in row:
                        recount[li, e] += 1
        np.testing.assert_array_equal(counts.counts, recount)

    def test_sum_invariant(self, small_target):
        seqs = [random_tokens(Rng(9), 20, small_target.config.vocab_size)]
        counts = calibrate_static(small_target, seqs)
        k = small_target.config.top_k
        assert np.all(counts.counts.sum(axis=1) == k * counts.tokens)

    def test_empty_stream_rejected(self, small_target):
        with pytest.raises(ValueError):
            calibrate_static(small_target, [])


class TestRankStatic:
    def test_tie_breaks_to_lower_index(self):
        counts = CalibrationCounts(counts=np.array([[3, 5, 5, 1]]), tokens=7)
        sl = rank_static(counts, 0, 2)
        assert sl.experts.tolist() == [1, 2]
        assert sl.method == "static"

    def test_full_budget_returns_all(self):
        counts = CalibrationCounts(counts=np.array([[3, 5, 5, 1]]), tokens=7)
        assert sorted(rank_static(counts, 0, 4).experts.tolist()) == [0, 1, 2, 3]

    def test_matches_sort_oracle(self):
        rng = Rng(4)
        c = rng.integers(0, 100, size=(1, 32))
        counts = CalibrationCounts(counts=c, tokens=int(c.sum() // 4))
        sl = rank_static(counts, 0, 10)
        want = sorted(range(32), key=lambda i: (-c[0, i], i))[:10]
        assert sl.experts.tolist() == want

    def test_save_static_ranking_writes_counts_and_ordering(self, tmp_path):
        counts = CalibrationCounts(counts=np.array([[3, 5, 5, 1], [0, 1, 2, 3]]), tokens=7)
        path = tmp_path / "static.json"
        save_static_ranking(counts, path)
        with open(path) as f:
            payload = json.load(f)
        assert payload["counts"] == [[3, 5, 5, 1], [0, 1, 2, 3]]
        assert payload["tokens"] == 7
        # Descending count, the tie between experts 1 and 2 to the lower.
        assert payload["ordering"] == [[1, 2, 0, 3], [3, 2, 1, 0]]
        for layer, ordering in enumerate(payload["ordering"]):
            for budget in range(1, 5):
                assert ordering[:budget] == rank_static(counts, layer, budget).experts.tolist()


class TestRankRouter:
    def test_single_token_equals_prob_ranking(self):
        layer = make_layer(n=8, k=2)
        probs, _ = route_batch(layer, Rng(1).normal(size=(1, 4)))
        sl = rank_router(probs, 0, 3)
        want = sorted(range(8), key=lambda i: (-probs[0, i], i))[:3]
        assert sl.experts.tolist() == want

    def test_uniform_scores_tie_to_low_indices(self):
        probs = np.full((5, 8), 1 / 8)
        sl = rank_router(probs, 0, 4)
        assert sl.experts.tolist() == [0, 1, 2, 3]

    def test_matches_double_loop_oracle(self, target, draft):
        ctx = prompt_tokens(target, 11)
        tree = build_tree(draft, ctx, (2,) * 5)
        routing = tree_routing(target, ctx, tree)
        for layer in range(target.n_layers):
            probs = routing[layer].probs
            scores = [sum(probs[t][i] for t in range(probs.shape[0])) for i in range(64)]
            sl = rank_router(probs, layer, 16)
            want = sorted(range(64), key=lambda i: (-scores[i], i))[:16]
            assert sl.experts.tolist() == want
            np.testing.assert_allclose(sl.scores, [scores[i] for i in want], atol=1e-9)

    def test_node_order_invariance(self):
        layer = make_layer(n=8, k=2)
        probs, _ = route_batch(layer, Rng(2).normal(size=(6, 4)))
        perm = Rng(3).permutation(6)
        a = rank_router(probs, 0, 4)
        b = rank_router(probs[perm], 0, 4)
        assert a.experts.tolist() == b.experts.tolist()
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)


class TestRankOracle:
    def test_single_expert_zero_residual(self):
        layer = make_layer(n=1, k=1)
        states = Rng(1).normal(size=(3, 4))
        probs, selected = route_batch(layer, states)
        sl = rank_oracle(layer, states, probs, selected, 0, 1, uses_raw_g=True)
        assert sl.experts.tolist() == [0]
        assert abs(sl.scores[0]) < 1e-9  # negative residual of ~0

    @pytest.mark.parametrize("uses_raw_g", [True, False])
    @pytest.mark.parametrize("renormalize", [True, False])
    def test_greedy_step_optimality_exhaustive(self, uses_raw_g, renormalize):
        # Every greedy pick must attain the exhaustive one-step minimum,
        # ties to the lower index, on small instances.
        for trial in range(6):
            layer = make_layer(n=6, k=2, d=4, seed=50 + trial, renormalize=renormalize)
            states = Rng(70 + trial).normal(size=(4, 4))
            probs, selected = route_batch(layer, states)
            budget = 4
            sl = rank_oracle(layer, states, probs, selected, 0, budget, uses_raw_g)
            chosen: list[int] = []
            for step in range(budget):
                cands = {}
                for i in range(6):
                    if i in chosen:
                        continue
                    cands[i] = exhaustive_residual(
                        layer, states, probs, selected, chosen + [i], uses_raw_g
                    )
                best = min(cands.values())
                want = min(i for i, v in cands.items() if abs(v - best) < 1e-9)
                assert sl.experts[step] == want, (trial, step, cands, sl.experts)
                chosen.append(int(sl.experts[step]))

    def test_scores_match_residual_at_selection(self):
        layer = make_layer(n=6, k=2, d=4, seed=3)
        states = Rng(5).normal(size=(4, 4))
        probs, selected = route_batch(layer, states)
        sl = rank_oracle(layer, states, probs, selected, 0, 3, uses_raw_g=True)
        for step in range(3):
            want = exhaustive_residual(
                layer, states, probs, selected, sl.experts[: step + 1].tolist(), True
            )
            assert -sl.scores[step] == pytest.approx(want, abs=1e-8)

    def test_budget_clamped_with_warning(self):
        layer = make_layer(n=4, k=2)
        states = Rng(1).normal(size=(2, 4))
        probs, selected = route_batch(layer, states)
        with pytest.warns(UserWarning):
            sl = rank_oracle(layer, states, probs, selected, 0, 9)
        assert sl.budget == 4

    def test_nonrenormalized_full_budget_residual_nonzero(self):
        # With raw-g reconstruction over all experts, non-top-k experts add
        # contributions the gold output lacks, so the residual stays > 0.
        layer = make_layer(n=6, k=2, renormalize=False)
        states = Rng(2).normal(size=(3, 4))
        probs, selected = route_batch(layer, states)
        sl = rank_oracle(layer, states, probs, selected, 0, 6, uses_raw_g=True)
        assert -sl.scores[-1] > 1e-6

    def test_gold_outputs_match_forward(self):
        from moebudget.moe_core import moe_forward_full_batch

        layer = make_layer(n=8, k=2)
        states = Rng(3).normal(size=(5, 4))
        probs, selected = route_batch(layer, states)
        want, _, _ = moe_forward_full_batch(layer, states)
        np.testing.assert_array_equal(gold_outputs(layer, states, probs, selected), want)


class TestShortlistInvariants:
    def test_all_methods_size_and_membership(self, small_target, small_draft):
        ctx = prompt_tokens(small_target, 13, 8)
        tree = build_tree(small_draft, ctx, (2, 2))
        routing = tree_routing(small_target, ctx, tree)
        counts = calibrate_static(small_target, [ctx])
        n = small_target.config.n_experts
        for budget in (1, 3, n):
            for li, tr in enumerate(routing):
                layer = small_target.blocks[li].moe
                lists = [
                    rank_static(counts, li, budget),
                    rank_router(tr.probs, li, budget),
                    rank_oracle(layer, tr.moe_input, tr.probs, tr.selected, li, budget),
                ]
                for sl in lists:
                    assert sl.budget == min(budget, n)
                    assert np.unique(sl.experts).size == sl.experts.size
                    assert sl.experts.min() >= 0 and sl.experts.max() < n
                    if budget == n:
                        assert sorted(sl.experts.tolist()) == list(range(n))

    @pytest.mark.parametrize("uses_raw_g", [True, False])
    def test_shortlister_equals_direct_ranking(self, small_target, small_draft, uses_raw_g):
        ctx = prompt_tokens(small_target, 14, 8)
        tree = build_tree(small_draft, ctx, (2, 2))
        counts = calibrate_static(small_target, [ctx])
        for budget in (1, 3):
            providers = {m: shortlister(m, budget, counts, uses_raw_g) for m in METHODS}
            for li, tr in enumerate(tree_routing(small_target, ctx, tree)):
                layer = small_target.blocks[li].moe
                args = (tr.moe_input, tr.probs, tr.selected)
                want = {
                    "static": rank_static(counts, li, budget),
                    "router": rank_router(tr.probs, li, budget),
                    "oracle": rank_oracle(layer, *args, li, budget, uses_raw_g),
                }
                for method, provider in providers.items():
                    got = provider(li, layer, *args)
                    assert (got.layer, got.method) == (li, method)
                    np.testing.assert_array_equal(got.experts, want[method].experts)
                    np.testing.assert_array_equal(got.scores, want[method].scores)

    def test_shortlister_rejects_unknown_method_and_static_without_counts(self):
        with pytest.raises(ValueError, match="unknown ranking method"):
            shortlister("magic", 4)
        with pytest.raises(ValueError, match="requires calibration counts"):
            shortlister("static", 4)

    def test_duplicate_experts_rejected(self):
        with pytest.raises(ValueError):
            Shortlist(layer=0, experts=np.array([1, 1]), method="router", scores=np.zeros(2))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            Shortlist(layer=0, experts=np.array([1]), method="magic", scores=np.zeros(1))
