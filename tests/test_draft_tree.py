from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moebudget.draft_tree import (
    DraftTree,
    binary_branching,
    build_tree,
    expand_tree,
    tree_routing,
)
from moebudget.toy_model import TreeDecoder

from conftest import prompt_tokens
from reference import expand_tree_per_node, forward, tree_mask


class TestBinaryBranching:
    def test_valid_sizes(self):
        assert binary_branching(1) == ()
        assert binary_branching(3) == (2,)
        assert binary_branching(63) == (2,) * 5
        assert binary_branching(255) == (2,) * 7

    def test_invalid_sizes_rejected(self):
        for bad in (0, 2, 4, 62, 100):
            with pytest.raises(ValueError):
                binary_branching(bad)


@st.composite
def topological_parents(draw) -> list[int]:
    """Parents of a random tree in topological order: node i > 0 hangs
    under any earlier node."""
    m = draw(st.integers(1, 40))
    return [-1] + [draw(st.integers(0, i - 1)) for i in range(1, m)]


class TestDraftTreeType:
    def test_only_tokens_and_parents_are_inputs(self):
        fields = dataclasses.fields(DraftTree)
        assert [f.name for f in fields if f.init] == ["tokens", "parents"]
        with pytest.raises(TypeError):
            DraftTree(tokens=[1, 2], parents=[-1, 0], depths=[0, 1])

    def test_invariants_checked(self):
        with pytest.raises(ValueError, match="exactly one root"):  # two roots
            DraftTree(tokens=[1, 2], parents=[-1, -1])
        with pytest.raises(ValueError, match="exactly one root"):  # root not first
            DraftTree(tokens=[1, 2], parents=[1, -1])
        with pytest.raises(ValueError, match="topological"):  # parent after child
            DraftTree(tokens=[1, 2, 3], parents=[-1, 2, 0])
        with pytest.raises(ValueError, match="topological"):  # would index from the end
            DraftTree(tokens=[1, 2, 3], parents=[-1, 0, -2])
        with pytest.raises(ValueError, match="one length"):
            DraftTree(tokens=[1, 2], parents=[-1])
        with pytest.raises(ValueError, match="one length"):
            DraftTree(tokens=[[1, 2]], parents=[[-1, 0]])
        with pytest.raises(ValueError, match="at least the root"):
            DraftTree(tokens=[], parents=[])

    @settings(max_examples=60, deadline=None)
    @given(parents=topological_parents())
    def test_depths_follow_parents(self, parents):
        tree = DraftTree(tokens=list(range(len(parents))), parents=parents)
        assert tree.depths.dtype == np.int64
        assert tree.depths[0] == 0
        for i in range(1, tree.size):
            assert tree.depths[i] == tree.depths[parents[i]] + 1
        assert tree.depth == max(len(tree.path_to(i)) - 1 for i in range(tree.size))

    @pytest.mark.parametrize(
        "fields, named",
        [
            # 1.7 and 0.9 used to be truncated to token 1 and parent 0.
            ({"tokens": [1.7, 2.2], "parents": [-1, 0.9]}, "tokens"),
            ({"parents": [-1.0, 0.0]}, "parents"),
            ({"tokens": [True, False]}, "tokens"),
            ({"parents": [True, False]}, "parents"),
        ],
        ids=["fractional", "float_parents", "bool_tokens", "bool_parents"],
    )
    def test_non_integer_field_named(self, fields, named):
        valid = {"tokens": [1, 2], "parents": [-1, 0]}
        with pytest.raises(ValueError, match=f"{named} must be integers, got dtype"):
            DraftTree(**{**valid, **fields})

    def test_path_to(self):
        tree = DraftTree(tokens=[1, 2, 3, 4], parents=[-1, 0, 0, 2])
        assert tree.path_to(3) == [0, 2, 3]
        assert tree.path_to(0) == [0]
        assert tree.depth == 2


class TestBuildTree:
    def test_empty_branching_gives_single_root(self, small_draft):
        ctx = prompt_tokens(small_draft, 0, 8)
        tree = build_tree(small_draft, ctx, ())
        assert tree.size == 1
        assert tree.depths.tolist() == [0]
        root_ref = forward(small_draft, ctx)
        assert tree.tokens[0] == int(np.argmax(root_ref.logits[-1]))

    def test_chain_equals_greedy_rollout(self, small_draft):
        # branching all 1 reproduces the draft model's greedy continuation.
        ctx = prompt_tokens(small_draft, 1, 8)
        tree = build_tree(small_draft, ctx, (1, 1, 1, 1))
        assert tree.size == 5
        seq = list(ctx)
        rollout = []
        for _ in range(5):
            nxt = int(np.argmax(forward(small_draft, np.asarray(seq)).logits[-1]))
            rollout.append(nxt)
            seq.append(nxt)
        assert tree.tokens.tolist() == rollout

    def test_default_63_tree_shape(self, draft):
        ctx = prompt_tokens(draft, 2)
        tree = build_tree(draft, ctx, binary_branching(63))
        assert tree.size == 63
        assert tree.depth == 5
        assert np.bincount(tree.depths).tolist() == [1, 2, 4, 8, 16, 32]
        # Sibling tokens are distinct.
        for node in range(tree.size):
            kids = np.nonzero(tree.parents == node)[0]
            toks = tree.tokens[kids].tolist()
            assert len(set(toks)) == len(toks)

    def test_deterministic(self, small_draft):
        ctx = prompt_tokens(small_draft, 3, 8)
        t1 = build_tree(small_draft, ctx, (2, 2))
        t2 = build_tree(small_draft, ctx, (2, 2))
        assert t1.tokens.tolist() == t2.tokens.tolist()
        assert t1.parents.tolist() == t2.parents.tolist()

    def test_binary_trees_nest(self, small_draft):
        # The deterministic expansion makes smaller binary trees prefixes of
        # larger ones built from the same context.
        ctx = prompt_tokens(small_draft, 4, 8)
        t3 = build_tree(small_draft, ctx, binary_branching(3))
        t7 = build_tree(small_draft, ctx, binary_branching(7))
        assert t7.tokens[:3].tolist() == t3.tokens.tolist()
        assert t7.parents[:3].tolist() == t3.parents.tolist()

    @pytest.mark.parametrize(
        "branching", [(2,) * 5, (3, 2, 1), (1, 1, 1), (4,)], ids=["binary63", "3-2-1", "chain", "4"]
    )
    def test_level_top_k_matches_per_node_reference(self, draft, branching):
        # One top-k per level picks each frontier node's children in the
        # order the per-node loop did: the trees are equal, not just close.
        for seed in range(3):
            ctx = prompt_tokens(draft, 20 + seed)
            got = expand_tree(TreeDecoder(draft, ctx), branching)
            want = expand_tree_per_node(TreeDecoder(draft, ctx), branching)
            for name in ("tokens", "parents"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert got.depth == len(branching)

    @pytest.mark.parametrize(
        "branching",
        [(2,) * 5, (3, 2, 1), (1, 1, 1), (4,), ()],
        ids=["binary63", "3-2-1", "chain", "4", "root"],
    )
    def test_draft_model_runs_interior_levels_only(self, small_draft, monkeypatch, branching):
        # The leaves' logits are never read, so they never reach the draft
        # model: one extend per branching factor, over the interior rows.
        calls = []
        real_extend = TreeDecoder.extend

        def counting_extend(decoder, tokens, parents):
            calls.append(len(tokens))
            return real_extend(decoder, tokens, parents)

        monkeypatch.setattr(TreeDecoder, "extend", counting_extend)
        decoder = TreeDecoder(small_draft, prompt_tokens(small_draft, 24, 8))
        tree = expand_tree(decoder, branching)
        leaves = np.setdiff1d(np.arange(tree.size), tree.parents).size
        interior = tree.size - leaves
        assert len(calls) == len(branching)
        assert sum(calls) == interior
        assert decoder.n_rows == decoder.causal_len + interior

    def test_branching_wider_than_vocab_rejected(self, small_draft):
        with pytest.raises(ValueError):
            build_tree(small_draft, [1, 2], (small_draft.config.vocab_size + 1,))

    @pytest.mark.parametrize(
        "branching, bad",
        [
            ((2.7, True), "2.7"),
            ((2, True), "True"),
            ((2, np.True_), "np.True_"),
            ((np.float64(2.0),), "np.float64(2.0)"),
            (("2",), "'2'"),
        ],
        ids=["fractional", "boolean", "numpy_boolean", "integral_float", "string"],
    )
    def test_non_integer_branching_rejected(self, small_draft, branching, bad):
        # int() would turn (2.7, True) into a (2, 1) tree of 5 nodes.
        message = re.escape(f"branching factor must be an integer, got {bad}")
        with pytest.raises(ValueError, match=message):
            build_tree(small_draft, [1, 2], branching)
        decoder = TreeDecoder(small_draft, [1, 2])
        with pytest.raises(ValueError, match=message):
            expand_tree(decoder, branching)
        assert decoder.n_rows == decoder.causal_len

    def test_decoder_holding_tree_rows_rejected(self, small_draft):
        # Node indices are passed to extend as tree rows, so a leftover row
        # would stand in for the root as its children's parent.
        decoder = TreeDecoder(small_draft, [1, 2])
        decoder.extend([3], [-1])
        with pytest.raises(ValueError, match="bare causal prefix"):
            expand_tree(decoder, (2, 2))
        decoder.rollback()
        got = expand_tree(decoder, (2, 2)).tokens
        np.testing.assert_array_equal(got, build_tree(small_draft, [1, 2], (2, 2)).tokens)


class TestExpertUnion:
    def test_single_node_union_is_topk(self, small_target, small_draft):
        ctx = prompt_tokens(small_target, 5, 8)
        tree = build_tree(small_draft, ctx, ())
        routing = tree_routing(small_target, ctx, tree)
        for layer in range(small_target.n_layers):
            union = np.unique(routing[layer].selected)
            assert union.size == small_target.config.top_k
            assert set(union.tolist()) == set(routing[layer].selected[0].tolist())

    def test_union_matches_bruteforce_set_union(self, target, draft):
        ctx = prompt_tokens(target, 6)
        tree = build_tree(draft, ctx, binary_branching(63))
        routing = tree_routing(target, ctx, tree)
        for layer in range(target.n_layers):
            want = set()
            for row in routing[layer].selected:
                want |= set(int(i) for i in row)
            got = np.unique(routing[layer].selected)
            assert set(got.tolist()) == want
            assert got.tolist() == sorted(want)

    def test_union_bounds(self, target, draft):
        k, n = target.config.top_k, target.config.n_experts
        ctx = prompt_tokens(target, 7)
        for size in (1, 7, 31):
            tree = build_tree(draft, ctx, binary_branching(size))
            routing = tree_routing(target, ctx, tree)
            for layer in range(target.n_layers):
                u = np.unique(routing[layer].selected).size
                assert k <= u <= min(n, size * k)

    def test_union_monotone_under_node_addition(self, small_target, small_draft):
        ctx = prompt_tokens(small_target, 8, 8)
        prev: dict[int, set] = {}
        for size in (1, 3, 7, 15):
            tree = build_tree(small_draft, ctx, binary_branching(size))
            routing = tree_routing(small_target, ctx, tree)
            for layer in range(small_target.n_layers):
                cur = set(np.unique(routing[layer].selected).tolist())
                if layer in prev:
                    assert prev[layer] <= cur
                prev[layer] = cur


class TestTreeMask:
    def test_rows_attend_context_ancestors_self(self):
        tree = DraftTree(tokens=[1, 2, 3], parents=[-1, 0, 1])
        mask = tree_mask(2, tree)
        assert mask[2].tolist() == [True, True, True, False, False]
        assert mask[4].tolist() == [True, True, True, True, True]
        assert mask[3, 4] == False  # noqa: E712  child cannot see its child


def test_tree_routing_matches_forward_capture(small_target, small_draft):
    # The capture is the tree rows of a tree-masked full forward, per layer:
    # the same routing, and states and probabilities equal to roundoff (the
    # decoder matches the one-shot forward to roundoff, not bit for bit).
    ctx = prompt_tokens(small_target, 9, 8)
    tree = build_tree(small_draft, ctx, (2,))
    routing = tree_routing(small_target, ctx, tree)
    all_tokens = np.concatenate([ctx, tree.tokens])
    ref = forward(small_target, all_tokens, tree_mask(len(ctx), tree))
    assert len(routing) == small_target.n_layers
    for got, want in zip(routing, ref.layers):
        np.testing.assert_allclose(got.moe_input, want.moe_input[len(ctx):], rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.probs, want.probs[len(ctx):], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got.selected, want.selected[len(ctx):])
