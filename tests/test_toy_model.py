from __future__ import annotations

import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moebudget.analysis import coverage_curve
from moebudget.coverage import CoveragePolicy, budgeted_moe
from moebudget.draft_tree import DraftTree
from moebudget.moe_core import route_batch
from moebudget.numerics import Rng
from moebudget.simulator import BudgetConfig, build_model_pair, run_generation
from moebudget.toy_model import (
    PRESETS,
    DraftSpec,
    ModelConfig,
    MoEModel,
    TreeDecoder,
    build_target,
    _check_tokens,
    causal_mask,
    derive_draft,
    preset_config,
    random_tokens,
)

from reference import check_tokens, forward, tril_causal_mask


def models_equal(a: MoEModel, b: MoEModel) -> bool:
    if a.config != b.config:
        return False
    if not np.array_equal(a.embedding, b.embedding) or not np.array_equal(a.head, b.head):
        return False
    for ba, bb in zip(a.blocks, b.blocks):
        for attr in ("wq", "wk", "wv", "wo"):
            if not np.array_equal(getattr(ba.attention, attr), getattr(bb.attention, attr)):
                return False
        if not np.array_equal(ba.moe.router.w, bb.moe.router.w):
            return False
        if not np.array_equal(ba.moe.router.bias, bb.moe.router.bias):
            return False
        if not np.array_equal(ba.moe.w_in, bb.moe.w_in):
            return False
        if not np.array_equal(ba.moe.w_out, bb.moe.w_out):
            return False
    return True


class TestBuildTarget:
    def test_same_seed_bit_identical_models(self, small_config):
        assert models_equal(build_target(small_config), build_target(small_config))

    def test_different_seed_differs(self, small_config):
        other = dataclasses.replace(small_config, seed=small_config.seed + 1)
        assert not models_equal(build_target(small_config), build_target(other))

    def test_skew_zero_experts_exchangeable_within_3_sigma(self):
        # With skew=0 experts are exchangeable, so over independent
        # (router, state) draws each expert lands in the top-k with
        # probability exactly k/N. Monte-Carlo over 10k draws, mirroring the
        # build-time router init (Gaussian 1/sqrt(d), zero bias).
        n, k, d, trials = 64, 8, 32, 10_000
        rng = Rng(99)
        routers = rng.substream(0).normal(size=(trials, n, d)) / np.sqrt(d)
        states = rng.substream(1).normal(size=(trials, d))
        logits = np.einsum("tnd,td->tn", routers, states)
        selected = np.argsort(-logits, axis=1, kind="stable")[:, :k]
        counts = np.bincount(selected.ravel(), minlength=n)
        p = k / n
        sigma = np.sqrt(p * (1 - p) / trials)
        freq = counts / trials
        assert np.all(np.abs(freq - p) <= 3 * sigma), np.abs(freq - p).max() / sigma

    def test_skew_zero_fixed_model_frequencies_sane(self):
        # A single fixed router is not exactly uniform (finite-d variance),
        # but stays in a sane band around k/N.
        cfg = ModelConfig(skew=0.0, seed=5)
        model = build_target(cfg)
        states = Rng(99).normal(size=(10_000, cfg.d_model))
        _, selected = route_batch(model.blocks[0].moe, states)
        freq = np.bincount(selected.ravel(), minlength=cfg.n_experts) / 10_000
        assert freq.min() > 0.03 and freq.max() < 0.3

    def test_skew_concentrates_routing(self):
        # Top-half coverage strictly larger under skew=2 than skew=0,
        # averaged over 10 seeds.
        diffs = []
        for seed in range(10):
            states = Rng(1000 + seed).normal(size=(256, 32))
            cover = {}
            for skew in (0.0, 2.0):
                model = build_target(ModelConfig(skew=skew, seed=seed))
                probs, _ = route_batch(model.blocks[0].moe, states)
                cover[skew] = coverage_curve(probs)[31]  # budget 32
            diffs.append(cover[2.0] - cover[0.0])
        assert np.mean(diffs) > 0
        assert np.mean(diffs) > 0.1  # concentration is substantial, not marginal

    def test_skew_zero_bias_is_zero(self):
        model = build_target(ModelConfig(skew=0.0))
        for block in model.blocks:
            np.testing.assert_array_equal(block.moe.router.bias, np.zeros(64))

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(top_k=9, n_experts=8)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=1)
        with pytest.raises(ValueError):
            ModelConfig(skew=-1.0)

    def test_presets(self):
        assert preset_config("olmoe-toy").n_experts == 64
        assert preset_config("olmoe-toy").renormalize is True
        assert preset_config("qwen3-toy").n_experts == 128
        assert preset_config("qwen3-toy").renormalize is False
        assert preset_config("mixtral-toy").n_experts == 8
        assert preset_config("mixtral-toy").top_k == 2
        with pytest.raises(ValueError):
            preset_config("nope")


class TestDeriveDraft:
    def test_zero_noise_is_exact_copy(self, small_target):
        draft = derive_draft(small_target, DraftSpec(noise_std=0.0), Rng(1))
        assert models_equal(draft, small_target)

    def test_noise_perturbs_blocks_not_embeddings(self, small_target):
        draft = derive_draft(small_target, DraftSpec(noise_std=0.1), Rng(1))
        assert np.array_equal(draft.embedding, small_target.embedding)
        assert np.array_equal(draft.head, small_target.head)
        assert not np.array_equal(
            draft.blocks[0].attention.wq, small_target.blocks[0].attention.wq
        )

    def test_invalid_spec_rejected(self, small_target):
        with pytest.raises(ValueError):
            DraftSpec(noise_std=-0.1)


# sha256 of each preset model's expert weights, every layer's stack in order,
# as C-order float64 bytes: w_in (n_experts, d_ff, d_model), then w_out
# (n_experts, d_model, d_ff). A change to the per-expert substreams, or to how
# build_target and derive_draft fill the stacks from them, shows here.
WEIGHT_PINS = {
    ("mixtral-toy", "target"): (
        "64e96cfc9871b0c1a500b5ed1712eefa11cec1489c81d013d76f8eea06379ac8",
        "878b26c58d2e90bbff4f3a0875c4d66043ba64c30137d9be03c491be90cf3505",
    ),
    ("mixtral-toy", "draft"): (
        "779878fb5baf418ee9c11144952a29933adc1a6de5cc5462292b8ab9abb47b3c",
        "4b5e8f719fe1a74149035042f2c400f21bd7b9e8c572e1747edb849825decad2",
    ),
    ("olmoe-toy", "target"): (
        "e06603e013251208a49ca810d3f956fcc058cbd26ff7582bf118444cce0c0c51",
        "b9614a5ed3433939741bc2fcf137a98041ba7ec0a252116b5a7ff23e164e18e9",
    ),
    ("olmoe-toy", "draft"): (
        "7c846517cad08eb4ac057143ae92cd9188ce39a62e1afc6a5399eac7fd314205",
        "2a845d8c10e8a3451069b28a24ab4ef69525a83a70cd3916d6bc4fc6425c377a",
    ),
    ("qwen3-toy", "target"): (
        "a81cfc093815743e6d32d560748a26a187a24dcfeeecbe4843a41e329de1ef33",
        "c6dc926a36cb21e36ebece544fc472b4c5572a0821693a1b34d4caca7b5df475",
    ),
    ("qwen3-toy", "draft"): (
        "32f61208f8c5dbb4023441e19a4dcb7274024a04e62560af989eccd9e26615dd",
        "ea2fe8944d8f615b1afc34be5efb8a5a2028806705df7853aa8bb60dd6e7a546",
    ),
}


class TestExpertStorage:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_weights_match_pins(self, preset):
        target, draft = build_model_pair(preset_config(preset), DraftSpec())
        for role, model in (("target", target), ("draft", draft)):
            got = []
            for name in ("w_in", "w_out"):
                h = hashlib.sha256()
                for block in model.blocks:
                    h.update(getattr(block.moe, name).tobytes())
                got.append(h.hexdigest())
            assert tuple(got) == WEIGHT_PINS[preset, role], (preset, role)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_stacks_perfbench_reads(self, preset):
        # perfbench's set-up reads both names on every block of both models.
        cfg = preset_config(preset)
        for model in build_model_pair(cfg, DraftSpec()):
            for block in model.blocks:
                want = (cfg.n_experts, cfg.d_ff, cfg.d_model)
                assert block.moe.w_in_stack.shape == want
                assert block.moe.w_out_stack.shape == want

    def test_router_generation_builds_no_w_out_stack(self):
        # Only the dense evaluator of oracle ranking needs the transposed
        # copy of w_out.
        cfg = dataclasses.replace(preset_config("mixtral-toy"), n_layers=2)
        target = build_target(cfg)
        draft = derive_draft(target, DraftSpec(), Rng(1))
        prompt = random_tokens(Rng(2), 8, cfg.vocab_size)
        for method in ("router", "oracle"):
            budget = BudgetConfig(method, CoveragePolicy.TRUNCATION, 4)
            run_generation(
                target, draft, prompt, 6, "spec_budgeted", budget_cfg=budget, tree_size=7
            )
            built = [["w_out" in b.moe._stacks for b in m.blocks] for m in (target, draft)]
            assert built == [[method == "oracle"] * 2, [False] * 2], method


class TestAppendChecks:
    def test_causal_mask_equals_tril_of_ones(self):
        for n in range(1, 301):
            mask = causal_mask(n)
            assert mask.dtype == bool
            assert np.array_equal(mask, tril_causal_mask(n)), n

    @pytest.mark.parametrize(
        "tokens",
        [
            [0, 31, 7],
            np.array([4], dtype=np.uint8),
            np.array([2, 30], dtype=np.int32),
            np.array([31, 0], dtype=np.uint64),
            [-1, 3],
            [32],
            np.array([40], dtype=np.uint8),
            np.array([2**63], dtype=np.uint64),
            [[1, 2]],
            [],
            [1.0, 2.0],
            [True],
            np.array([1], dtype=object),
        ],
    )
    def test_token_check_matches_reduction_reference(self, small_target, tokens):
        # The same ids back, or the same message, as the check that takes
        # min and max with numpy reductions.
        assert small_target.config.vocab_size == 32
        try:
            want = check_tokens(small_target, tokens)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                _check_tokens(small_target, tokens)
        else:
            got = _check_tokens(small_target, tokens)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)


class TestForward:
    def test_single_token_tree_mask_equals_causal(self, small_target):
        tokens = np.array([5])
        a = forward(small_target, tokens)
        b = forward(small_target, tokens, np.ones((1, 1), dtype=bool))
        np.testing.assert_array_equal(a.logits, b.logits)

    def test_chain_tree_mask_equals_sequential_causal(self, target):
        # A degenerate chain tree is exactly a causal sequence.
        tokens = random_tokens(Rng(1), 5, target.config.vocab_size)
        causal = forward(target, tokens)
        chain = forward(target, tokens, causal_mask(5))
        np.testing.assert_allclose(chain.logits, causal.logits, atol=1e-9)
        for la, lb in zip(causal.layers, chain.layers):
            np.testing.assert_allclose(la.moe_input, lb.moe_input, atol=1e-9)

    def test_path_restriction_matches_flat_sequence(self, small_target):
        # Tree-masked forward restricted to a root-to-node path equals the
        # causal forward of that path as a flat sequence, per layer.
        rng = Rng(8)
        tokens = random_tokens(rng, 7, small_target.config.vocab_size)
        # Tree over positions 3..6: parents chain 3 <- 4, 3 <- 5, 5 <- 6.
        mask = np.zeros((7, 7), dtype=bool)
        mask[:3, :3] = causal_mask(3)
        parents = {3: -1, 4: 3, 5: 3, 6: 5}
        for node in range(3, 7):
            mask[node, :3] = True
            mask[node, node] = True
            p = parents[node]
            while p != -1:
                mask[node, p] = True
                p = parents[p]
        tree_result = forward(small_target, tokens, mask)
        path = [0, 1, 2, 3, 5, 6]
        flat = forward(small_target, tokens[path])
        for row_flat, row_tree in enumerate(path):
            np.testing.assert_allclose(
                flat.logits[row_flat], tree_result.logits[row_tree], atol=1e-9
            )
            for la, lb in zip(flat.layers, tree_result.layers):
                np.testing.assert_allclose(
                    la.moe_input[row_flat], lb.moe_input[row_tree], atol=1e-9
                )

    def test_zeroed_attention_output_isolates_embedding_path(self, small_config):
        # With the attention output projection zeroed, a position's logits
        # depend only on its own token embedding.
        model = build_target(small_config)
        for block in model.blocks:
            block.attention.wo[:] = 0.0
        t1 = np.array([3, 9, 4])
        t2 = np.array([7, 1, 4])
        a = forward(model, t1)
        b = forward(model, t2)
        np.testing.assert_allclose(a.logits[2], b.logits[2], atol=1e-12)

    def test_out_of_range_token_rejected(self, small_target):
        with pytest.raises(ValueError):
            forward(small_target, [small_target.config.vocab_size])

    def test_determinism(self, small_target):
        tokens = random_tokens(Rng(2), 9, small_target.config.vocab_size)
        a = forward(small_target, tokens)
        b = forward(small_target, tokens)
        np.testing.assert_array_equal(a.logits, b.logits)


class TestTreeDecoder:
    def test_context_logits_match_forward(self, small_target):
        tokens = random_tokens(Rng(3), 6, small_target.config.vocab_size)
        dec = TreeDecoder(small_target, tokens)
        ref = forward(small_target, tokens)
        np.testing.assert_allclose(dec.context_logits, ref.logits[-1], atol=1e-12)

    def test_extend_matches_one_shot_masked_forward(self, small_target):
        vocab = small_target.config.vocab_size
        ctx = random_tokens(Rng(4), 5, vocab)
        dec = TreeDecoder(small_target, ctx)
        root = 7
        l1 = dec.extend([root], [-1])
        kids = [2, 11]
        l2 = dec.extend(kids, [0, 0])

        all_tokens = np.concatenate([ctx, [root], kids])
        mask = np.zeros((8, 8), dtype=bool)
        mask[:5, :5] = causal_mask(5)
        mask[5:, :5] = True
        mask[5, 5] = True
        mask[6, 5] = mask[6, 6] = True
        mask[7, 5] = mask[7, 7] = True
        ref = forward(small_target, all_tokens, mask)
        np.testing.assert_allclose(l1[0], ref.logits[5], atol=1e-9)
        np.testing.assert_allclose(l2, ref.logits[6:], atol=1e-9)

    def test_extend_attends_exactly_the_tree_mask(self, small_target):
        # The ancestor rows extend gathers select the columns of the one-shot
        # tree mask, also over rows a rollback freed, so extend equals
        # run_rows under that mask bit for bit.
        ctx = [3, 5, 7]
        n = len(ctx)
        dec, twin = TreeDecoder(small_target, ctx), TreeDecoder(small_target, ctx)
        rows: list[tuple[int, int]] = []  # (token, parent index into rows)
        # The first tree leaves row 3 holding rows 0 and 2, and row 4
        # holding rows 0, 2 and 3; the second tree's rows 3 and 4 must not
        # inherit them.
        levels = [
            ([1], [-1]), ([2, 4], [0, 0]), ([6], [2]), ([8], [3]), "rollback",
            ([10, 11], [-1, -1]), ([12], [1]), ([13, 14], [2, -1]),
        ]
        for level in levels:
            if level == "rollback":
                for d in (dec, twin):
                    d.rollback()
                rows.clear()
                continue
            tokens, parents = level
            start = len(rows)
            rows += list(zip(tokens, parents))
            mask = reference_mask(n, rows)
            got = dec.extend(tokens, parents)
            want = twin.run_rows(np.array(tokens), mask[n + start :, n:])
            assert np.array_equal(got, want), level

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_extend_tree_attends_exactly_the_tree_mask(self, small_target, data):
        # The twin of the test above for whole trees: extend_tree equals
        # run_rows under the one-shot tree mask bit for bit, also over
        # ancestor rows a rollback left stale. A chain of extends leaves each
        # row holding every row before it; the second tree runs over the
        # first's rows.
        ctx = [3, 5, 7]
        n = len(ctx)
        dec, twin = TreeDecoder(small_target, ctx), TreeDecoder(small_target, ctx)
        for row in range(data.draw(st.integers(0, 9), label="chain")):
            dec.extend([1], [row - 1])
        for _ in range(2):
            dec.rollback()
            tree = random_tree(data, small_target.config.vocab_size)
            mask = reference_mask(n, list(zip(tree.tokens.tolist(), tree.parents.tolist())))
            got = dec.extend_tree(tree)
            want = twin.run_rows(tree.tokens, mask[n:, n:])
            twin.rollback()
            assert np.array_equal(got, want)

    def test_traced_methods_make_no_nested_public_calls(self, small_target, monkeypatch):
        # perfbench's tracer wraps these methods on the class by name and
        # reads a run_rows call's token batch as its first argument after
        # self. Each span covers what it names only while the public
        # methods call run_rows once each and never one another.
        import inspect

        traced = ("__init__", "run_rows", "extend", "extend_tree", "append_tokens")
        assert all(name in vars(TreeDecoder) for name in traced)
        assert list(inspect.signature(TreeDecoder.run_rows).parameters)[:2] == ["self", "tokens"]
        calls = []
        for name in traced[1:]:
            def counted(self, *args, _name=name, _method=getattr(TreeDecoder, name), **kwargs):
                calls.append(_name)
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(TreeDecoder, name, counted)
        tree = DraftTree(tokens=[2, 6, 8], parents=[-1, 0, 1])
        dec = TreeDecoder(small_target, [3, 5, 7])
        assert calls == ["run_rows"]  # the prefill makes no append_tokens call
        for step, want in [
            (lambda: dec.extend([1], [-1]), ["extend", "run_rows"]),
            (lambda: dec.extend_tree(tree), ["extend_tree", "run_rows"]),
            (lambda: dec.append_tokens([4, 9]), ["append_tokens", "run_rows"]),
        ]:
            dec.rollback()
            calls.clear()
            step()
            assert calls == want

    def test_append_tokens_matches_causal_forward(self, small_target):
        vocab = small_target.config.vocab_size
        ctx = random_tokens(Rng(5), 4, vocab)
        extra = random_tokens(Rng(6), 3, vocab)
        dec = TreeDecoder(small_target, ctx)
        last = dec.append_tokens(extra)
        ref = forward(small_target, np.concatenate([ctx, extra]))
        np.testing.assert_allclose(last, ref.logits[-1], atol=1e-9)
        np.testing.assert_allclose(dec.context_logits, ref.logits[-1], atol=1e-9)

    def test_rollback_restores_state(self, small_target):
        vocab = small_target.config.vocab_size
        ctx = random_tokens(Rng(7), 4, vocab)
        dec = TreeDecoder(small_target, ctx)
        before = [dec.extend([1], [-1]).copy(), dec.extend([2, 9], [0, 0]).copy()]
        dec.rollback()
        assert dec.n_rows == dec.causal_len == 4
        again = [dec.extend([1], [-1]), dec.extend([2, 9], [0, 0])]
        for b, a in zip(before, again):
            np.testing.assert_array_equal(b, a)

    def test_fork_is_exact_and_independent(self, small_target):
        # A fork, its original and a decoder that made the same calls compute
        # the same bits from the fork on; what one appends reaches no other.
        dec, ref = TreeDecoder(small_target, [3, 5, 7]), TreeDecoder(small_target, [3, 5, 7])
        for d in (dec, ref):
            d.append_tokens([1, 4])
        twin, spare = dec.fork(), dec.fork()
        assert twin.causal_len == twin.n_rows == 5
        assert np.array_equal(twin.context_logits, dec.context_logits)
        for d in (dec, twin, ref):
            d.append_tokens([6])
        spare.append_tokens([9, 9, 9])  # would overwrite row 5 of a shared store
        tree = DraftTree(tokens=[2, 6, 8], parents=[-1, 0, 0])
        for step in ([2], [11, 12]):
            want = ref.extend_tree(tree)
            assert all(np.array_equal(d.extend_tree(tree), want) for d in (dec, twin))
            for d in (dec, twin, ref):
                d.rollback()
            want = ref.append_tokens(step)
            assert all(np.array_equal(d.append_tokens(step), want) for d in (dec, twin))
        assert spare.causal_len == 8 and dec.causal_len == twin.causal_len == 9

    def test_fork_rejects_tree_rows(self, small_target):
        dec = TreeDecoder(small_target, [3, 5, 7])
        dec.extend([1], [-1])
        with pytest.raises(ValueError, match="bare causal prefix"):
            dec.fork()

    def test_store_growth_inside_a_tree_changes_no_bit(self, small_target, monkeypatch):
        # A K/V store that doubles between the levels of a tree, and again
        # inside extend_tree, computes the same bits as one that never grows.
        import moebudget.toy_model as toy_model

        ctx = [3, 5, 7]
        monkeypatch.setattr(toy_model, "KV_ROWS", 4)
        grows = TreeDecoder(small_target, ctx)
        monkeypatch.setattr(toy_model, "KV_ROWS", 64)
        fixed = TreeDecoder(small_target, ctx)
        for tokens, parents in [([1], [-1]), ([2, 4], [0, 0]), ([6, 8, 9, 11], [1, 1, 2, 2])]:
            assert np.array_equal(grows.extend(tokens, parents), fixed.extend(tokens, parents))
        assert grows._kv.shape[2] == 16  # 4 -> 8 -> 16 rows
        parents = [-1, 0, 0, 1, 1, 2, 2] + [3, 3, 4, 4, 5, 5, 6, 6]
        tree = DraftTree(tokens=list(range(15)), parents=parents)
        for d in (grows, fixed):
            d.rollback()
        assert np.array_equal(grows.extend_tree(tree), fixed.extend_tree(tree))
        assert grows._kv.shape[2] == 32 and fixed._kv.shape[2] == 64
        for d in (grows, fixed):
            d.rollback()
        assert np.array_equal(grows.append_tokens([4, 9]), fixed.append_tokens([4, 9]))

    def test_attention_products_equal_matmul_at_decoder_shapes(self, target):
        # run_rows projects with ndarray.dot, writing keys and values straight
        # into a row block of the K/V store, and writes its two score
        # products into column blocks of one (r, n) buffer with
        # np.matmul(out=). Each must equal a plain `@` bit for bit at every
        # row count up to wide_oracle's 271 and cached counts up to 300
        # (every 37th here; a one-off run over all 301 found no difference).
        attn = target.blocks[0].attention
        d = target.config.d_model
        assert d == 32
        rng = Rng(53)
        all_keys = rng.normal(size=(300, d))
        for rows in range(1, 272):
            xn = rng.normal(size=(rows, d))
            store = np.empty((rows + 9, d))
            for w in (attn.wq, attn.wk, attn.wo):
                want = xn @ w.T
                assert np.array_equal(xn.dot(w.T), want), rows
                assert np.array_equal(xn.dot(w.T, out=store[5 : 5 + rows]), want), rows
            q, k_self = xn @ attn.wq.T, xn @ attn.wk.T
            for cached in range(rows % 37, 301, 37):
                keys = all_keys[:cached]
                scores = np.empty((rows, cached + rows))
                np.matmul(q, keys.T, out=scores[:, :cached])
                np.matmul(q, k_self.T, out=scores[:, cached:])
                assert np.array_equal(scores[:, :cached], q @ keys.T), (rows, cached)
                assert np.array_equal(scores[:, cached:], q @ k_self.T), (rows, cached)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([4, -1], "out of vocabulary range"),
            ([4, 32], "out of vocabulary range"),
            ([[1, 2], [3, 4]], "non-empty 1-D sequence"),
            (5, "non-empty 1-D sequence"),
            ([], "non-empty 1-D sequence"),
            ([1.7, 2.2], "integer ids, got dtype float64"),
            ([True, False], "integer ids, got dtype bool"),
        ],
        ids=["negative", "vocab_size", "two_d", "scalar", "empty", "fractional", "boolean"],
    )
    def test_out_of_range_token_rejected_on_every_path(self, small_target, bad, message):
        # Token batches are checked before any coercion or state change on
        # the prefill, on extend and on append_tokens.
        assert small_target.config.vocab_size == 32
        with pytest.raises(ValueError, match=message):
            TreeDecoder(small_target, bad)
        dec, ref = TreeDecoder(small_target, [3, 5]), TreeDecoder(small_target, [3, 5])
        with pytest.raises(ValueError, match=message):
            dec.append_tokens(bad)
        for d in (dec, ref):
            d.extend([1], [-1])
        with pytest.raises(ValueError, match=message):
            dec.extend(bad, [0, -1])
        # A rejected batch leaves no trace: later rows and their ancestors
        # match a decoder that never saw it.
        for d in (dec, ref):
            d.extend([4], [-1])
        np.testing.assert_array_equal(dec.extend([6], [1]), ref.extend([6], [1]))

    def test_hook_failure_leaves_decoder_unchanged(self, small_target):
        from moebudget.moe_core import moe_forward_full_batch

        def fails_at_layer_1(li, layer, states):
            if li == 1:
                raise RuntimeError("hook failure")
            return moe_forward_full_batch(layer, states)[0]

        tree = DraftTree(tokens=[5, 9], parents=[-1, 0])
        dec = TreeDecoder(small_target, [1, 2, 3])
        # Layers 0 and 1 write their K/V rows before the hook raises; those
        # rows must stay free space.
        with pytest.raises(RuntimeError, match="hook failure"):
            dec.extend_tree(tree, fails_at_layer_1)
        assert dec.n_rows == 3
        fresh = TreeDecoder(small_target, [1, 2, 3])
        np.testing.assert_array_equal(dec.append_tokens([4]), fresh.append_tokens([4]))

    def test_prefill_hook_sees_each_layer_once_and_changes_nothing(self, small_target):
        ctx = random_tokens(Rng(9), 6, small_target.config.vocab_size)
        hook, record = budgeted_moe()
        seen = []

        def recording(li, layer, states):
            seen.append((li, states.shape))
            return hook(li, layer, states)

        hooked = TreeDecoder(small_target, ctx, moe_hook=recording)
        plain = TreeDecoder(small_target, ctx)
        np.testing.assert_array_equal(hooked.context_logits, plain.context_logits)
        d = small_target.config.d_model
        assert seen == [(li, (6, d)) for li in range(small_target.n_layers)]
        assert len(record) == small_target.n_layers

    def test_prefill_hook_failure_propagates(self, small_target):
        def fails(li, layer, states):
            raise RuntimeError("hook failure")

        with pytest.raises(RuntimeError, match="hook failure"):
            TreeDecoder(small_target, [1, 2, 3], moe_hook=fails)

    @pytest.mark.parametrize(
        "parent",
        [2, 4, 6, 100, -2],
        ids=["tree_rows", "absolute_first_row", "n_rows", "far", "minus_2"],
    )
    def test_parent_outside_tree_rows_rejected(self, small_target, parent):
        # Parents are tree rows 0..1 here; an absolute row index (4 is the
        # first tree row's, 6 is n_rows) names no tree row.
        ctx = random_tokens(Rng(8), 4, small_target.config.vocab_size)
        dec, ref = TreeDecoder(small_target, ctx), TreeDecoder(small_target, ctx)
        for d in (dec, ref):
            d.extend([3, 7], [-1, -1])  # tree rows 0 and 1
        with pytest.raises(ValueError, match=r"parents .* tree row in 0\.\.1"):
            dec.extend([9], [parent])
        assert dec.n_rows == 6
        np.testing.assert_array_equal(dec.extend([9, 2], [0, 1]), ref.extend([9, 2], [0, 1]))

    def test_parent_count_must_match_tokens(self, small_target):
        dec = TreeDecoder(small_target, [1, 2])
        with pytest.raises(ValueError, match="parents"):
            dec.extend([3, 4], [-1])

    @pytest.mark.parametrize(
        "parents, dtype",
        [([0.9], "float64"), ([True], "bool"), ([False, True], "bool")],
        ids=["fractional", "boolean", "boolean_pair"],
    )
    def test_non_integer_parents_rejected(self, small_target, parents, dtype):
        # Coerced to int64, 0.9 would hang its node off tree row 0 and the
        # booleans would pass as rows 0 and 1.
        ctx = random_tokens(Rng(8), 4, small_target.config.vocab_size)
        dec, ref = TreeDecoder(small_target, ctx), TreeDecoder(small_target, ctx)
        for d in (dec, ref):
            d.extend([3, 7], [-1, -1])  # tree rows 0 and 1
        with pytest.raises(ValueError, match=f"parents must be integers, got dtype {dtype}"):
            dec.extend([5] * len(parents), parents)
        assert dec.n_rows == 6
        np.testing.assert_array_equal(dec.extend([9, 2], [0, 1]), ref.extend([9, 2], [0, 1]))

    def test_append_with_tree_rows_rejected(self, small_target):
        dec = TreeDecoder(small_target, [1, 2])
        dec.extend([3], [-1])
        with pytest.raises(ValueError):
            dec.append_tokens([4])


def reference_mask(n: int, rows) -> np.ndarray:
    """Attention mask over a causal prefix of ``n`` tokens plus tree rows,
    where ``rows`` holds (token, parent) with parent an index into ``rows``
    or -1."""
    m = len(rows)
    mask = np.zeros((n + m, n + m), dtype=bool)
    mask[:n, :n] = tril_causal_mask(n)
    for i, (_, parent) in enumerate(rows):
        if parent >= 0:
            mask[n + i] = mask[n + parent]
        mask[n + i, :n] = True
        mask[n + i, n + i] = True
    return mask


def masked_reference(model, prefix, rows) -> np.ndarray:
    """One-shot forward logits over a causal prefix plus tree rows (see
    ``reference_mask``)."""
    tokens = list(prefix) + [tok for tok, _ in rows]
    return forward(model, tokens, reference_mask(len(prefix), rows)).logits


def random_tree(data, vocab: int) -> DraftTree:
    branching = data.draw(st.lists(st.integers(1, 3), max_size=3), label="branching")
    parents, frontier = [-1], [0]
    for b in branching:
        level = []
        for node in frontier:
            for _ in range(b):
                parents.append(node)
                level.append(len(parents) - 1)
        frontier = level
    tokens = data.draw(
        st.lists(st.integers(0, vocab - 1), min_size=len(parents), max_size=len(parents))
    )
    return DraftTree(tokens=tokens, parents=parents)


class TestTreeDecoderProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_operations_match_one_shot_forward(self, small_target, data):
        vocab = small_target.config.vocab_size
        token = st.integers(0, vocab - 1)
        prefix = data.draw(st.lists(token, min_size=1, max_size=6), label="context")
        dec = TreeDecoder(small_target, prefix)
        rows: list[tuple[int, int]] = []

        def check(got, want):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
            np.testing.assert_array_equal(np.argmax(got, axis=-1), np.argmax(want, axis=-1))

        check(dec.context_logits, masked_reference(small_target, prefix, [])[-1])
        ops = st.sampled_from(["extend", "extend", "extend_tree", "rollback", "append"])
        for _ in range(data.draw(st.integers(1, 10), label="n_ops")):
            op = data.draw(ops)
            if op == "extend":
                r = data.draw(st.integers(1, 3))
                tokens = data.draw(st.lists(token, min_size=r, max_size=r))
                parents = [data.draw(st.integers(-1, len(rows) - 1)) for _ in range(r)]
                got = dec.extend(tokens, parents)
                rows += list(zip(tokens, parents))
                check(got, masked_reference(small_target, prefix, rows)[-r:])
            else:
                dec.rollback()  # extend_tree and append need a bare prefix
                rows = []
                if op == "append":
                    extra = data.draw(st.lists(token, min_size=1, max_size=4))
                    got = dec.append_tokens(extra)
                    prefix = prefix + extra
                    check(got, masked_reference(small_target, prefix, [])[-1])
                elif op == "extend_tree":
                    tree = random_tree(data, vocab)
                    got = dec.extend_tree(tree)
                    rows = list(zip(tree.tokens.tolist(), tree.parents.tolist()))
                    check(got, masked_reference(small_target, prefix, rows)[len(prefix):])
            check(dec.context_logits, masked_reference(small_target, prefix, [])[len(prefix) - 1])

