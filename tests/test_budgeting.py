from __future__ import annotations

import numpy as np
import pytest

from moebudget.budgeting import (
    METHODS,
    calibrate_static,
    rank_oracle,
    rank_router,
    rank_static,
    shortlister,
    static_ranking_report,
)
from moebudget.coverage import budgeted_moe
from moebudget.draft_tree import binary_branching, build_tree, tree_routing
from moebudget.moe_core import route_batch
from moebudget.numerics import Rng
from moebudget.toy_model import random_tokens

from conftest import prompt_tokens
from reference import forward, rank_oracle_reference
from test_moe_core import expert_eval_naive, make_layer


def exhaustive_residual(layer, states, probs, selected, chosen):
    """Brute-force reconstruction residual for an explicit expert set, each
    expert weighted by its raw router probability."""
    total = 0.0
    for t in range(states.shape[0]):
        gold = np.zeros(layer.d_model)
        weights = probs[t] if not layer.renormalize else probs[t] / probs[t][selected[t]].sum()
        for i in selected[t]:
            gold += weights[i] * expert_eval_naive(layer, i, states[t])
        approx = np.zeros(layer.d_model)
        for j in chosen:
            approx += probs[t, j] * expert_eval_naive(layer, j, states[t])
        total += float(np.sum((gold - approx) ** 2))
    return total


class TestCalibration:
    def test_single_token_counts_k_experts(self, small_target):
        counts = calibrate_static(small_target, [[3]])
        k = small_target.config.top_k
        assert counts.dtype == np.int64
        for layer_counts in counts:
            assert layer_counts.sum() == k
            assert np.count_nonzero(layer_counts) == k

    def test_duplicated_stream_doubles_counts(self, small_target):
        seq = random_tokens(Rng(1), 12, small_target.config.vocab_size)
        once = calibrate_static(small_target, [seq])
        twice = calibrate_static(small_target, [seq, seq])
        np.testing.assert_array_equal(twice, 2 * once)

    def test_counts_match_recount_from_routing_records(self, small_target):
        seqs = [random_tokens(Rng(i), 32, small_target.config.vocab_size) for i in range(4)]
        counts = calibrate_static(small_target, seqs)
        recount = np.zeros_like(counts)
        for seq in seqs:
            result = forward(small_target, seq)
            for li, trace in enumerate(result.layers):
                for row in trace.selected:
                    for e in row:
                        recount[li, e] += 1
        np.testing.assert_array_equal(counts, recount)

    def test_sum_invariant(self, small_target):
        seqs = [random_tokens(Rng(9), 20, small_target.config.vocab_size)]
        counts = calibrate_static(small_target, seqs)
        k = small_target.config.top_k
        assert np.all(counts.sum(axis=1) == k * sum(len(seq) for seq in seqs))

    def test_empty_stream_rejected(self, small_target):
        with pytest.raises(ValueError):
            calibrate_static(small_target, [])


class TestRankStatic:
    def test_tie_breaks_to_lower_index(self):
        sl = rank_static(np.array([3, 5, 5, 1]), 2)
        assert sl.dtype == np.int64
        assert sl.tolist() == [1, 2]

    def test_full_budget_returns_all(self):
        assert sorted(rank_static(np.array([3, 5, 5, 1]), 4).tolist()) == [0, 1, 2, 3]

    def test_matches_sort_oracle(self):
        rng = Rng(4)
        c = rng.integers(0, 100, size=(1, 32))
        sl = rank_static(c[0], 10)
        want = sorted(range(32), key=lambda i: (-c[0, i], i))[:10]
        assert sl.tolist() == want

    def test_static_ranking_report_counts_and_ordering(self):
        # Seven tokens with k=2: each layer's counts sum to 14.
        counts = np.array([[3, 5, 5, 1], [2, 3, 4, 5]])
        payload = static_ranking_report(counts, top_k=2)
        assert payload["counts"] == [[3, 5, 5, 1], [2, 3, 4, 5]]
        assert payload["tokens"] == 7
        # Descending count, the tie between experts 1 and 2 to the lower.
        assert payload["ordering"] == [[1, 2, 0, 3], [3, 2, 1, 0]]
        for layer, ordering in enumerate(payload["ordering"]):
            for budget in range(1, 5):
                assert ordering[:budget] == rank_static(counts[layer], budget).tolist()


class TestRankRouter:
    def test_single_token_equals_prob_ranking(self):
        layer = make_layer(n=8, k=2)
        probs, _ = route_batch(layer, Rng(1).normal(size=(1, 4)))
        sl = rank_router(probs, 3)
        want = sorted(range(8), key=lambda i: (-probs[0, i], i))[:3]
        assert sl.dtype == np.int64
        assert sl.tolist() == want

    def test_uniform_scores_tie_to_low_indices(self):
        probs = np.full((5, 8), 1 / 8)
        assert rank_router(probs, 4).tolist() == [0, 1, 2, 3]

    def test_matches_double_loop_oracle(self, target, draft):
        ctx = prompt_tokens(target, 11)
        tree = build_tree(draft, ctx, (2,) * 5)
        routing = tree_routing(target, ctx, tree)
        for layer in range(target.n_layers):
            probs = routing[layer].probs
            scores = [sum(probs[t][i] for t in range(probs.shape[0])) for i in range(64)]
            want = sorted(range(64), key=lambda i: (-scores[i], i))[:16]
            assert rank_router(probs, 16).tolist() == want

    def test_node_order_invariance(self):
        layer = make_layer(n=8, k=2)
        probs, _ = route_batch(layer, Rng(2).normal(size=(6, 4)))
        perm = Rng(3).permutation(6)
        assert rank_router(probs, 4).tolist() == rank_router(probs[perm], 4).tolist()


class TestRankOracle:
    def test_single_expert_zero_residual(self):
        layer = make_layer(n=1, k=1)
        states = Rng(1).normal(size=(3, 4))
        probs, selected = route_batch(layer, states)
        sl = rank_oracle(layer, states, probs, selected, 1)
        assert sl.dtype == np.int64
        assert sl.tolist() == [0]
        residual = exhaustive_residual(layer, states, probs, selected, sl.tolist())
        assert abs(residual) < 1e-9

    @pytest.mark.parametrize("renormalize", [True, False])
    def test_greedy_step_optimality_exhaustive(self, renormalize):
        # Every greedy pick must attain the exhaustive one-step minimum,
        # ties to the lower index, on small instances.
        for trial in range(6):
            layer = make_layer(n=6, k=2, d=4, seed=50 + trial, renormalize=renormalize)
            states = Rng(70 + trial).normal(size=(4, 4))
            probs, selected = route_batch(layer, states)
            budget = 4
            sl = rank_oracle(layer, states, probs, selected, budget)
            chosen: list[int] = []
            for step in range(budget):
                cands = {}
                for i in range(6):
                    if i in chosen:
                        continue
                    cands[i] = exhaustive_residual(layer, states, probs, selected, chosen + [i])
                best = min(cands.values())
                want = min(i for i, v in cands.items() if abs(v - best) < 1e-9)
                assert sl[step] == want, (trial, step, cands, sl)
                chosen.append(int(sl[step]))

    def test_budget_above_expert_count_refused(self):
        # Clamped, budget 9 would repeat budget 4's shortlist under its own
        # label; every ranking refuses it, naming both numbers.
        layer = make_layer(n=4, k=2)
        states = Rng(1).normal(size=(2, 4))
        probs, selected = route_batch(layer, states)
        message = "budget 9 exceeds expert count 4"
        with pytest.raises(ValueError, match=message):
            rank_oracle(layer, states, probs, selected, 9)
        with pytest.raises(ValueError, match=message):
            rank_router(probs, 9)
        with pytest.raises(ValueError, match=message):
            rank_static(np.array([3, 5, 5, 1]), 9)

    def test_nonrenormalized_full_budget_residual_nonzero(self):
        # With raw-g reconstruction over all experts, non-top-k experts add
        # contributions the gold output lacks, so the residual stays > 0.
        layer = make_layer(n=6, k=2, renormalize=False)
        states = Rng(2).normal(size=(3, 4))
        probs, selected = route_batch(layer, states)
        sl = rank_oracle(layer, states, probs, selected, 6)
        assert sorted(sl.tolist()) == list(range(6))
        assert exhaustive_residual(layer, states, probs, selected, sl.tolist()) > 1e-6

    @pytest.mark.parametrize("tree_size", [15, 63, 255])
    @pytest.mark.parametrize("models", [("wide_target", "wide_draft"), ("target", "draft")],
                             ids=["qwen3-toy", "olmoe-toy"])
    def test_pick_order_matches_unblocked_reference(self, request, models, tree_size):
        # The target gathered from the blocked dense pass must pick what the
        # apply_experts target and one-dgemm contributions pick, in order,
        # with and without renormalized mixing weights.
        target, draft = (request.getfixturevalue(name) for name in models)
        ctx = prompt_tokens(target, 15)
        tree = build_tree(draft, ctx, binary_branching(tree_size))
        for li, tr in enumerate(tree_routing(target, ctx, tree)):
            args = (target.blocks[li].moe, tr.moe_input, tr.probs, tr.selected)
            for budget in (4, 32):
                np.testing.assert_array_equal(
                    rank_oracle(*args, budget), rank_oracle_reference(*args, budget)
                )

    def test_gold_outputs_match_forward(self):
        # The full-capacity hook returns the unbudgeted forward's output bit
        # for bit, and records the natural routing with no shortlist.
        from moebudget.moe_core import moe_forward_full_batch

        layer = make_layer(n=8, k=2)
        states = Rng(3).normal(size=(5, 4))
        hook, record = budgeted_moe()
        out = hook(0, layer, states)
        want, probs, selected = moe_forward_full_batch(layer, states)
        [rec] = record
        assert rec.shortlist is None
        assert np.array_equal(out, want)
        np.testing.assert_array_equal(rec.probs, probs)
        np.testing.assert_array_equal(rec.ids, selected)
        np.testing.assert_array_equal(rec.missing, np.zeros(5))


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
                    rank_static(counts[li], budget),
                    rank_router(tr.probs, budget),
                    rank_oracle(layer, tr.moe_input, tr.probs, tr.selected, budget),
                ]
                for sl in lists:
                    assert sl.dtype == np.int64
                    assert sl.shape == (min(budget, n),)
                    assert np.unique(sl).size == sl.size
                    assert sl.min() >= 0 and sl.max() < n
                    if budget == n:
                        assert sorted(sl.tolist()) == list(range(n))

    def test_shortlister_equals_direct_ranking(self, small_target, small_draft):
        ctx = prompt_tokens(small_target, 14, 8)
        tree = build_tree(small_draft, ctx, (2, 2))
        counts = calibrate_static(small_target, [ctx])
        n = small_target.config.n_experts
        # A ranking at the largest budget, cut to B, is the ranking at B.
        widest = {m: shortlister(small_target, m, n, counts) for m in METHODS}
        for budget in (1, 3):
            providers = {m: shortlister(small_target, m, budget, counts) for m in METHODS}
            for li, tr in enumerate(tree_routing(small_target, ctx, tree)):
                layer = small_target.blocks[li].moe
                args = (tr.moe_input, tr.probs, tr.selected)
                want = {
                    "static": rank_static(counts[li], budget),
                    "router": rank_router(tr.probs, budget),
                    "oracle": rank_oracle(layer, *args, budget),
                }
                for method, provider in providers.items():
                    np.testing.assert_array_equal(provider(li, layer, *args), want[method])
                    np.testing.assert_array_equal(
                        widest[method](li, layer, *args)[:budget], want[method]
                    )

    def test_shortlister_rejects_unknown_method_and_static_without_counts(self, small_target):
        with pytest.raises(ValueError, match="unknown ranking method"):
            shortlister(small_target, "magic", 4)
        with pytest.raises(ValueError, match="requires calibration counts"):
            shortlister(small_target, "static", 4)
