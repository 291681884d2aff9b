from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moebudget.budgeting import shortlister
from moebudget.coverage import CoveragePolicy, LayerBudget, budgeted_moe, policy_assignments
from moebudget.draft_tree import build_tree
from moebudget.moe_core import (
    apply_experts,
    moe_forward_full_batch,
    route_batch,
    selection_weights,
)
from moebudget.numerics import Rng, softmax, top_k_indices
from moebudget.simulator import BudgetConfig, verify_greedy
from moebudget.toy_model import TreeDecoder

from conftest import prompt_tokens
from reference import substitution_every_row
from test_moe_core import expert_eval_naive, make_layer, preset_layer, route_one

POLICIES = (CoveragePolicy.TRUNCATION, CoveragePolicy.SUBSTITUTION)


def budgeted_batch(layer, states, shortlist, policy):
    """Budgeted layer outputs and per-token missing counts of a (T, d) batch."""
    probs, selected = route_batch(layer, states)
    ids, weights, missing = policy_assignments(layer, probs, selected, shortlist, policy)
    return apply_experts(layer, states, ids, weights), missing


def budgeted_one(layer, h, shortlist, policy):
    """Budgeted output and missing count of a single token, a (1, d) batch."""
    out, missing = budgeted_batch(layer, h[None, :], shortlist, policy)
    return out[0], int(missing[0])


def budgeted_naive(layer, h, shortlist, policy):
    """Direct evaluation of the two coverage formulas, scalar loops only."""
    probs, selected = route_one(layer, h)
    members = set(int(i) for i in shortlist)
    natural = [int(i) for i in selected]
    if policy is CoveragePolicy.TRUNCATION:
        chosen = [i for i in natural if i in members]
        if layer.renormalize:
            denom = sum(probs[i] for i in natural)
            weights = {i: probs[i] / denom for i in chosen}
        else:
            weights = {i: probs[i] for i in chosen}
    else:
        ranked = sorted(members, key=lambda i: (-probs[i], i))
        chosen = ranked[: min(layer.k, len(ranked))]
        if layer.renormalize:
            denom = sum(probs[i] for i in chosen)
            weights = {i: probs[i] / denom for i in chosen}
        else:
            weights = {i: probs[i] for i in chosen}
    out = np.zeros(layer.d_model)
    for i in chosen:
        out += weights[i] * expert_eval_naive(layer, i, h)
    return out, len([i for i in natural if i not in members])


class TestSingleTokenPolicies:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("renormalize", [True, False])
    def test_full_budget_equals_unbudgeted_bitwise(self, policy, renormalize):
        layer = make_layer(n=8, k=2, renormalize=renormalize)
        for t in (1, 6):
            states = Rng(1).normal(size=(t, 4))
            out, missing = budgeted_batch(layer, states, np.arange(8), policy)
            np.testing.assert_array_equal(out, moe_forward_full_batch(layer, states)[0])
            assert np.all(missing == 0)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_covered_topk_equals_unbudgeted(self, policy):
        layer = make_layer(n=8, k=2)
        h = Rng(2).normal(size=4)
        _, selected = route_one(layer, h)
        sl = selected  # exactly the natural top-k
        out, missing = budgeted_one(layer, h, sl, policy)
        np.testing.assert_allclose(
            out, moe_forward_full_batch(layer, h[None, :])[0][0], atol=1e-15
        )
        assert missing == 0

    def test_empty_intersection_truncation_gives_zero(self):
        layer = make_layer(n=8, k=2)
        h = Rng(3).normal(size=4)
        _, selected = route_one(layer, h)
        outside = np.array([i for i in range(8) if i not in selected])[:3]
        out, missing = budgeted_one(layer, h, outside, CoveragePolicy.TRUNCATION)
        np.testing.assert_array_equal(out, np.zeros(4))
        assert missing == layer.k  # fully skipped

    def test_substitution_replaces_missing_with_best_available(self):
        layer = make_layer(n=8, k=2)
        h = Rng(3).normal(size=4)
        _, selected = route_one(layer, h)
        outside = np.array([i for i in range(8) if i not in selected])
        out, missing = budgeted_one(
            layer, h, outside, CoveragePolicy.SUBSTITUTION
        )
        assert missing == layer.k  # natural experts all missing
        assert np.any(out != 0.0)  # substitutes still run

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("renormalize", [True, False])
    def test_matches_direct_formula_oracle(self, policy, renormalize):
        # 100+ random small instances against a scalar reimplementation; each
        # layer's four tokens run as one (4, d) batch under four shortlists.
        trials = 0
        for seed in range(30):
            layer = make_layer(n=8, k=2, d=4, seed=seed, renormalize=renormalize)
            rng = Rng(1000 + seed)
            states = rng.normal(size=(4, 4))
            for _ in range(4):
                sl = np.sort(rng.permutation(8)[:4])
                got, missing = budgeted_batch(layer, states, sl, policy)
                for t in range(4):
                    want, want_missing = budgeted_naive(layer, states[t], sl, policy)
                    np.testing.assert_allclose(got[t], want, atol=1e-9)
                    assert missing[t] == want_missing
                    trials += 1
        assert trials >= 100

    def test_budget_below_k_uses_all_of_shortlist(self):
        layer = make_layer(n=8, k=3, renormalize=True)
        h = Rng(4).normal(size=4)
        _, selected = route_one(layer, h)
        sl = np.array([int(selected[0])])  # single expert, below k
        out, _ = budgeted_one(layer, h, sl, CoveragePolicy.SUBSTITUTION)
        # Renormalized single expert carries weight 1.
        want = expert_eval_naive(layer, int(selected[0]), h)
        np.testing.assert_allclose(out, want, atol=1e-9)

    def test_policy_agreement_when_fully_covered(self):
        layer = make_layer(n=8, k=2)
        rng = Rng(5)
        for _ in range(10):
            h = rng.normal(size=4)
            _, selected = route_one(layer, h)
            sl = np.unique(np.concatenate([selected, [0, 1]]))
            a, missing_a = budgeted_one(layer, h, sl, CoveragePolicy.TRUNCATION)
            b, missing_b = budgeted_one(layer, h, sl, CoveragePolicy.SUBSTITUTION)
            if missing_a == 0:
                np.testing.assert_allclose(a, b, atol=1e-12)
                assert missing_b == 0


class TestPolicyAssignments:
    def test_substitution_always_assigns_k(self):
        layer = make_layer(n=16, k=4)
        states = Rng(6).normal(size=(20, 4))
        probs, selected = route_batch(layer, states)
        sl = np.arange(0, 16, 2)  # 8 members
        ids, weights, missing = policy_assignments(
            layer, probs, selected, sl, CoveragePolicy.SUBSTITUTION
        )
        assert np.all((ids >= 0).sum(axis=1) == layer.k)
        assert np.all(np.isin(ids[ids >= 0], sl))

    def test_truncation_assigns_k_minus_missing(self):
        layer = make_layer(n=16, k=4)
        states = Rng(7).normal(size=(20, 4))
        probs, selected = route_batch(layer, states)
        sl = np.arange(5)
        ids, _, missing = policy_assignments(
            layer, probs, selected, sl, CoveragePolicy.TRUNCATION
        )
        assert np.all((ids >= 0).sum(axis=1) == layer.k - missing)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize(
        "shortlist, message",
        [
            ([-1], "shortlist ids [-1] outside 0..7"),
            ([99], "shortlist ids [99] outside 0..7"),
            ([0, 0], "shortlist repeats ids [0]"),
            ([3, 0, 3, 0], "shortlist repeats ids [0, 3]"),
            ([], "shortlist must be a non-empty 1-D array of integer ids, got array([], dtype="),
            ([[0, 1]], "1-D array of integer ids, got array([[0, 1]])"),
            ([0.0, 1.0], "1-D array of integer ids, got array([0., 1.])"),
        ],
        ids=["negative", "past_last_expert", "duplicate", "duplicates", "empty", "two_dim",
             "float"],
    )
    def test_rejects_bad_shortlist(self, shortlist, message, policy):
        # Unchecked, on mixtral-toy (k=2) a -1 marks the last expert a member,
        # [0, 0] counts twice toward k so substitution runs expert 1, and 99
        # raises a bare IndexError.
        layer = preset_layer("mixtral-toy")
        probs, selected = route_batch(layer, Rng(8).normal(size=(3, layer.d_model)))
        with pytest.raises(ValueError, match=re.escape(message)):
            policy_assignments(layer, probs, selected, np.array(shortlist), policy)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 16),
        k=st.integers(1, 16),
        size=st.integers(1, 16),
        policy=st.sampled_from(POLICIES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_executed_experts_are_shortlist_members(self, n, k, size, policy, seed):
        layer = make_layer(n=n, k=min(k, n), seed=seed % 7)
        rng = Rng(seed)
        sl = rng.permutation(n)[: min(size, n)]
        probs, selected = route_batch(layer, rng.normal(size=(5, layer.d_model)))
        ids, _, missing = policy_assignments(layer, probs, selected, sl, policy)
        assert set(ids[ids >= 0].tolist()) <= set(sl.tolist())
        assert np.all(missing == layer.k - np.isin(selected, sl).sum(axis=1))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_substitution_equals_reranking_every_row(self, data):
        # Only the tokens that miss a natural expert are re-ranked; the rest
        # keep `selected`. Logits on three levels tie within most tokens,
        # and shortlists run from one member to all n, below k included.
        n = data.draw(st.integers(1, 64), label="n")
        k = data.draw(st.integers(1, min(n, 8)), label="k")
        size = data.draw(st.integers(1, n), label="size")
        renormalize = data.draw(st.booleans(), label="renormalize")
        t = data.draw(st.integers(1, 40), label="t")
        rng = Rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        layer = make_layer(n=n, k=k, renormalize=renormalize)
        probs = softmax(rng.integers(0, 3, size=(t, n)).astype(np.float64))
        selected = top_k_indices(probs, k)
        sl = rng.permutation(n)[:size]
        got = policy_assignments(layer, probs, selected, sl, CoveragePolicy.SUBSTITUTION)
        want = substitution_every_row(layer, probs, selected, sl)
        for name, g, w in zip(("ids", "weights", "missing"), got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), name

    @pytest.mark.parametrize("shortlist", [[1, 2], [1, 2, 3, 4]], ids=["below_k", "at_k"])
    def test_substitution_on_zero_member_mass_raises(self, shortlist):
        # Every member's probability underflows to 0 on a renormalizing
        # layer. At B >= k that always raised; below k it divided 0 by 0
        # into NaN weights and a NaN layer output, with only a warning.
        layer = make_layer(n=8, k=4, bias=[0.0] + [-1000.0] * 7)
        probs, selected = route_batch(layer, Rng(9).normal(size=(3, layer.d_model)))
        assert np.all(probs[:, 1:] == 0.0)
        with pytest.raises(ValueError, match="selected probabilities sum to zero"):
            policy_assignments(
                layer, probs, selected, np.array(shortlist), CoveragePolicy.SUBSTITUTION
            )


class TestExecuted:
    """``LayerBudget.executed`` is ``np.unique`` of the active ids, by the
    sort and neighbour comparison ``np.unique`` runs."""

    @staticmethod
    def executed(ids: np.ndarray) -> np.ndarray:
        return LayerBudget(None, None, None, None, ids, None).executed

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.integers(1, 70),
        k=st.integers(1, 8),
        n=st.integers(1, 128),
        inactive=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_np_unique(self, t, k, n, inactive, seed):
        rng = Rng(seed)
        ids = rng.integers(0, n, size=(t, k))
        ids[rng.random(size=(t, k)) < inactive] = -1
        ids[0] = -1  # one token with every slot inactive
        want = np.unique(ids[ids >= 0])
        got = self.executed(ids)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_no_active_slot_is_empty(self):
        ids = np.full((3, 4), -1)
        got = self.executed(ids)
        want = np.unique(ids[ids >= 0])
        assert got.shape == want.shape == (0,) and got.dtype == want.dtype


def budgeted_tree(model, ctx, tree, shortlist_for, policy):
    """Tree logits from a fresh decoder whose MoE layers run the budgeted
    hook, plus the hook's per-layer record."""
    hook, record = budgeted_moe(shortlist_for, policy)
    return TreeDecoder(model, ctx).extend_tree(tree, hook), record


def ordered_counts(model) -> np.ndarray:
    """Calibration counts whose static top-B is experts 0..B-1 on every layer."""
    n = model.config.n_experts
    return np.tile(np.arange(n, 0, -1), (model.n_layers, 1))


class TestModelForwardBudgeted:
    """The budgeted hook inside a decoder's tree forward."""

    def test_full_shortlists_bit_compatible_with_unbudgeted(self, target, draft):
        ctx = prompt_tokens(target, 20)
        tree = build_tree(draft, ctx, (2, 2, 2))
        full = shortlister(target, "static", target.config.n_experts, ordered_counts(target))
        ref = TreeDecoder(target, ctx).extend_tree(tree)
        for policy in POLICIES:
            logits, _ = budgeted_tree(target, ctx, tree, full, policy)
            np.testing.assert_array_equal(logits, ref)

    def test_budget_enforced_per_layer(self, target, draft):
        ctx = prompt_tokens(target, 21)
        tree = build_tree(draft, ctx, (2,) * 5)
        budget = 32
        sl = shortlister(target, "router", budget)
        for policy in POLICIES:
            _, record = budgeted_tree(target, ctx, tree, sl, policy)
            assert len(record) == target.n_layers
            for rec in record:
                assert rec.executed.size <= budget
                assert set(rec.executed.tolist()) <= set(rec.shortlist.tolist())

    def test_substitution_at_budget_k_uses_exactly_shortlist(self, target, draft):
        ctx = prompt_tokens(target, 22)
        tree = build_tree(draft, ctx, (2, 2))
        _, record = budgeted_tree(
            target, ctx, tree, shortlister(target, "router", target.config.top_k),
            CoveragePolicy.SUBSTITUTION,
        )
        for rec in record:
            assert set(rec.executed.tolist()) == set(rec.shortlist.tolist())

    def test_routing_captured_is_natural_routing(self, target, draft):
        # The hook records the natural routing of the budgeted stream, not
        # the substituted selection, and returns the output of the
        # assignment it records: moe_forward_full_batch's execution with the
        # substituted ids in place of the natural ones, bit for bit.
        ctx = prompt_tokens(target, 23)
        tree = build_tree(draft, ctx, (2, 2))
        sl = shortlister(target, "static", 8, ordered_counts(target))
        hook, record = budgeted_moe(sl, CoveragePolicy.SUBSTITUTION)
        captured = []

        def capture(li, layer, states):
            out = hook(li, layer, states)
            captured.append((layer, states.copy(), out))
            return out

        TreeDecoder(target, ctx).extend_tree(tree, capture)
        assert len(captured) == target.n_layers
        for (layer, states, out), rec in zip(captured, record):
            want_probs, want_selected = route_batch(layer, states)
            np.testing.assert_array_equal(rec.moe_input, states)
            np.testing.assert_array_equal(rec.probs, want_probs)
            np.testing.assert_array_equal(rec.selected, want_selected)
            np.testing.assert_array_equal(
                rec.selected, top_k_indices(rec.probs, target.config.top_k)
            )
            weights = selection_weights(rec.probs, rec.ids, layer.renormalize)
            assert np.array_equal(out, apply_experts(layer, states, rec.ids, weights))
            assert not np.array_equal(rec.ids, rec.selected)  # substitution did act

    def test_coverage_stats_shapes_and_consistency(self, target, draft):
        ctx = prompt_tokens(target, 24)
        tree = build_tree(draft, ctx, (2, 2))
        counts = ordered_counts(target)
        sl = shortlister(target, "static", 4, counts)
        _, record = budgeted_tree(target, ctx, tree, sl, CoveragePolicy.TRUNCATION)
        cfg = BudgetConfig(method="static", policy=CoveragePolicy.TRUNCATION, budget=4)
        report = verify_greedy(TreeDecoder(target, ctx), tree, cfg, static_counts=counts)
        k = target.config.top_k
        assert [rec.shortlist.tolist() for rec in record] == [[0, 1, 2, 3]] * len(record)
        assert report.unique_experts == [rec.executed.size for rec in record]
        for rec, missing, skipped in zip(record, report.missing_counts, report.fully_skipped):
            assert rec.missing.shape == (tree.size,)
            assert missing == rec.missing.tolist()
            assert skipped == (rec.missing == k).tolist()

    def test_empty_shortlist_rejected(self, small_target, small_draft):
        # Rankings return at least one expert: a budget of 0 raises in the
        # budgeted forward instead of running with an empty shortlist.
        ctx = prompt_tokens(small_target, 26, 8)
        tree = build_tree(small_draft, ctx, (1,))
        sl = shortlister(small_target, "router", 0)
        for policy in POLICIES:
            with pytest.raises(ValueError, match="budget must be >= 1"):
                budgeted_tree(small_target, ctx, tree, sl, policy)

    def test_wrong_shortlist_count_rejected(self, small_target, small_draft):
        # Static counts must hold one row (one shortlist) per MoE layer and
        # one column per expert; a wrong expert count used to go unchecked.
        ctx = prompt_tokens(small_target, 25, 8)
        tree = build_tree(small_draft, ctx, (1,))
        layers, n = small_target.n_layers, small_target.config.n_experts
        cfg = BudgetConfig(method="static", policy=CoveragePolicy.TRUNCATION, budget=1)
        for shape in ((layers - 1, n), (layers, n - 1), (layers, n + 1)):
            counts = np.ones(shape, dtype=np.int64)
            with pytest.raises(ValueError, match="one shortlist per MoE layer"):
                verify_greedy(TreeDecoder(small_target, ctx), tree, cfg, static_counts=counts)
