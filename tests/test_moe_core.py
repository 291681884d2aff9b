from __future__ import annotations

import dataclasses
import functools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moebudget import numerics
from moebudget.moe_core import (
    DENSE_BLOCK_DOUBLES,
    MoELayerWeights,
    RouterWeights,
    apply_experts,
    expert_outputs_grouped,
    moe_forward_full_batch,
    route_batch,
    selection_weights,
    silu,
)
from moebudget.numerics import Rng
from moebudget.toy_model import PRESETS, build_target, preset_config

from reference import apply_experts_loop, expert_outputs_one_dgemm


def make_layer(n=8, k=2, d=4, d_ff=6, renormalize=True, seed=0, bias=None) -> MoELayerWeights:
    rng = Rng(seed)
    router = RouterWeights(
        w=rng.substream(0).normal(size=(n, d)),
        bias=np.zeros(n) if bias is None else np.asarray(bias, dtype=np.float64),
    )
    w_in = np.stack([rng.substream(1, i).normal(size=(d_ff, d)) for i in range(n)])
    w_out = np.stack([rng.substream(2, i).normal(size=(d, d_ff)) for i in range(n)])
    return MoELayerWeights(router=router, w_in=w_in, w_out=w_out, renormalize=renormalize, k=k)


@functools.cache
def preset_layer(preset: str) -> MoELayerWeights:
    """The MoE layer of a one-layer model of ``preset``."""
    return build_target(dataclasses.replace(preset_config(preset), n_layers=1)).blocks[0].moe


def silu_scalar(x: float) -> float:
    return x / (1.0 + math.exp(-x)) if x > -700 else 0.0


def expert_eval_naive(layer: MoELayerWeights, e: int, h: np.ndarray) -> np.ndarray:
    """Expert ``e`` of ``layer`` as a brute-force two-layer MLP, scalar loops
    only."""
    w_in, w_out = layer.w_in[e], layer.w_out[e]
    d_ff, d = w_in.shape
    hidden = [silu_scalar(sum(w_in[f, j] * h[j] for j in range(d))) for f in range(d_ff)]
    return np.array([sum(w_out[i, f] * hidden[f] for f in range(d_ff)) for i in range(d)])


def route_highprec(layer: MoELayerWeights, h: np.ndarray) -> np.ndarray:
    """Routing distribution evaluated at 50 decimal digits."""
    with mpmath.workdps(50):
        logits = [
            mpmath.fsum(
                [mpmath.mpf(float(layer.router.w[i, j])) * mpmath.mpf(float(h[j]))
                 for j in range(h.size)]
            )
            + mpmath.mpf(float(layer.router.bias[i]))
            for i in range(layer.n_experts)
        ]
        exps = [mpmath.exp(l) for l in logits]
        total = mpmath.fsum(exps)
        return np.array([float(e / total) for e in exps])


def route_one(layer: MoELayerWeights, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Routing of a single token, as a (1, d_model) batch."""
    probs, selected = route_batch(layer, h[None, :])
    return probs[0], selected[0]


def forward_one(layer: MoELayerWeights, h: np.ndarray) -> np.ndarray:
    """Unbudgeted layer output of a single token, as a (1, d_model) batch."""
    return moe_forward_full_batch(layer, h[None, :])[0][0]


class TestRoute:
    def test_identical_router_rows_give_uniform_probs(self):
        layer = make_layer(n=6, k=3)
        layer.router.w[:] = layer.router.w[0]
        probs, selected = route_one(layer, Rng(1).normal(size=4))
        np.testing.assert_allclose(probs, np.full(6, 1 / 6), atol=1e-12)
        assert selected.tolist() == [0, 1, 2]  # tie rule

    def test_matches_high_precision_oracle(self):
        layer = make_layer(n=4, k=2, d=4)
        states = np.stack([Rng(100 + i).normal(size=4) for i in range(10)])
        probs, selected = route_batch(layer, states)
        for t in range(10):
            np.testing.assert_allclose(probs[t], route_highprec(layer, states[t]), atol=1e-12)
            assert selected[t].tolist() == sorted(
                range(4), key=lambda j: (-probs[t, j], j)
            )[:2]

    def test_expert_permutation_permutes_probs(self):
        layer = make_layer(n=6, k=2)
        h = Rng(2).normal(size=4)
        base, _ = route_one(layer, h)
        perm = Rng(3).permutation(6)
        permuted = make_layer(n=6, k=2)
        permuted.router.w[:] = layer.router.w[perm]
        got, _ = route_one(permuted, h)
        np.testing.assert_allclose(got, base[perm], atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        layer = make_layer()
        with pytest.raises(ValueError):
            route_batch(layer, np.zeros((1, 5)))
        with pytest.raises(ValueError):
            route_batch(layer, np.zeros(4))

    def test_bias_shifts_routing(self):
        h = Rng(4).normal(size=4)
        flat, _ = route_one(make_layer(n=8, k=2), h)
        boosted, _ = route_one(make_layer(n=8, k=2, bias=[10, 0, 0, 0, 0, 0, 0, 0]), h)
        assert boosted[0] > flat[0]

    def test_batch_matches_single(self):
        layer = make_layer(n=8, k=3)
        states = Rng(5).normal(size=(7, 4))
        probs, selected = route_batch(layer, states)
        for t in range(7):
            one_probs, one_selected = route_one(layer, states[t])
            np.testing.assert_allclose(probs[t], one_probs, atol=1e-15)
            assert selected[t].tolist() == one_selected.tolist()


class TestMixingWeights:
    def test_renormalized_weights_sum_to_one(self):
        layer = make_layer()
        probs, selected = route_batch(layer, Rng(1).normal(size=(5, 4)))
        w = selection_weights(probs, selected, renormalize=True)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_raw_weights_equal_probs(self):
        layer = make_layer()
        probs, selected = route_batch(layer, Rng(1).normal(size=(5, 4)))
        w = selection_weights(probs, selected, renormalize=False)
        for t in range(5):
            for j, i in enumerate(selected[t]):
                assert w[t, j] == probs[t, i]

    def test_single_expert_renormalizes_to_one(self):
        layer = make_layer()
        probs, selected = route_batch(layer, Rng(1).normal(size=(5, 4)))
        w = selection_weights(probs, selected[:, :1], renormalize=True)
        assert np.all(w == 1.0)

    def test_empty_set_rejected(self):
        layer = make_layer()
        probs, _ = route_batch(layer, Rng(1).normal(size=(1, 4)))
        with pytest.raises(ValueError):
            selection_weights(probs, np.empty((1, 0), dtype=np.int64), renormalize=True)

    def test_zero_mass_guarded(self):
        with pytest.raises(ValueError):
            selection_weights(np.zeros((1, 4)), np.array([[0, 1]]), renormalize=True)

    @pytest.mark.parametrize(
        "totals, refused",
        [([np.nan, 0.0], True), ([-0.0, 1.0], True), ([np.nan, np.nan], False), ([], False)],
        ids=["nan_and_zero", "negative_zero", "all_nan", "no_tokens"],
    )
    def test_renormalization_refuses_any_total_at_or_below_zero(self, totals, refused):
        # One selected expert per token, so each token's total is its one
        # probability. A NaN total is never refused, and it hides no zero
        # total of another token in the batch.
        probs = np.array(totals).reshape(-1, 1)
        selected = np.zeros((len(totals), 1), dtype=np.int64)
        if refused:
            with pytest.raises(ValueError, match="cannot renormalize"):
                selection_weights(probs, selected, renormalize=True)
        else:
            w = selection_weights(probs, selected, renormalize=True)
            assert w.shape == selected.shape and np.isnan(w).all()


class TestLayerStorage:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_stacks_are_the_storage(self, preset):
        layer = preset_layer(preset)
        assert layer.w_in_stack is layer.w_in
        assert np.shares_memory(layer.w_in_stack, layer.w_in)
        assert not np.shares_memory(layer.w_out_stack, layer.w_out)
        np.testing.assert_array_equal(layer.w_out_stack, layer.w_out.transpose(0, 2, 1))
        assert layer.w_out_stack.flags.c_contiguous
        w_in_t, w_out_t = layer.expert_views
        assert len(w_in_t) == len(w_out_t) == layer.n_experts
        for e in range(layer.n_experts):
            for view, stack in ((w_in_t[e], layer.w_in), (w_out_t[e], layer.w_out)):
                assert view.base is stack
                assert view.flags.f_contiguous
                assert np.array_equal(view, stack[e].T)

    def test_weights_and_layer_are_read_only(self):
        layer = make_layer()
        w_in_t, w_out_t = layer.expert_views
        for arr in (layer.w_in, layer.w_out, layer.w_out_stack, w_in_t[0], w_out_t[0]):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            layer.w_out = np.zeros_like(layer.w_out)

    def test_arguments_that_are_views_are_copied(self):
        # A view's base stays writable, so the layer keeps its own copy.
        ref = make_layer(n=4)
        w_in = np.concatenate([ref.w_in, ref.w_in])
        layer = MoELayerWeights(ref.router, w_in[:4], ref.w_out, True, 2)
        w_in[:] = 0.0
        np.testing.assert_array_equal(layer.w_in, ref.w_in)
        assert layer.w_out is ref.w_out

    @pytest.mark.parametrize(
        "w_in_shape, w_out_shape, message",
        [
            ((6, 4), (8, 4, 6), "w_in must have shape (8, d_ff, 4), got (6, 4)"),
            ((7, 6, 4), (7, 4, 6), "w_in must have shape (8, d_ff, 4), got (7, 6, 4)"),
            ((8, 6, 5), (8, 5, 6), "w_in must have shape (8, d_ff, 4), got (8, 6, 5)"),
            ((8, 6, 4), (8, 6, 4), "w_out must have shape (8, 4, 6), got (8, 6, 4)"),
            ((8, 6, 4), (7, 4, 6), "w_out must have shape (8, 4, 6), got (7, 4, 6)"),
        ],
        ids=["w_in_two_dim", "w_in_expert_count", "w_in_width", "w_out_transposed",
             "w_out_expert_count"],
    )
    def test_rejects_stacks_of_wrong_shape(self, w_in_shape, w_out_shape, message):
        router = make_layer().router
        with pytest.raises(ValueError, match=re.escape(message)):
            MoELayerWeights(router, np.zeros(w_in_shape), np.zeros(w_out_shape), True, 2)


class TestForwardFull:
    def test_zero_experts_give_zero_output(self):
        ref = make_layer()
        layer = MoELayerWeights(
            ref.router, np.zeros_like(ref.w_in), np.zeros_like(ref.w_out), ref.renormalize, ref.k
        )
        out = forward_one(layer, Rng(1).normal(size=4))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_all_experts_active_equals_dense_mixture(self):
        layer = make_layer(n=4, k=4, renormalize=True)
        h = Rng(2).normal(size=4)
        probs, _ = route_one(layer, h)
        dense = sum(probs[i] * expert_eval_naive(layer, i, h) for i in range(4))
        np.testing.assert_allclose(forward_one(layer, h), dense, atol=1e-9)

    @pytest.mark.parametrize("renormalize", [True, False])
    def test_matches_bruteforce_oracle(self, renormalize):
        layer = make_layer(n=8, k=2, d=4, renormalize=renormalize)
        states = np.stack([Rng(200 + i).normal(size=4) for i in range(10)])
        outs, probs, selected = moe_forward_full_batch(layer, states)
        for t in range(10):
            chosen = [int(i) for i in selected[t]]
            denom = sum(probs[t, i] for i in chosen) if renormalize else 1.0
            want = sum(
                probs[t, i] / denom * expert_eval_naive(layer, i, states[t])
                for i in chosen
            )
            np.testing.assert_allclose(outs[t], want, atol=1e-9)

    def test_batch_matches_single(self):
        layer = make_layer(n=8, k=3, renormalize=True)
        states = Rng(6).normal(size=(5, 4))
        outs, _, _ = moe_forward_full_batch(layer, states)
        for t in range(5):
            np.testing.assert_allclose(outs[t], forward_one(layer, states[t]), atol=1e-12)

    def test_scaled_input_stays_finite_with_k_selected(self):
        layer = make_layer(n=8, k=2)
        h = Rng(7).normal(size=4)
        for scale in (1.0, 10.0, 1000.0):
            _, selected = route_one(layer, scale * h)
            assert selected.size == 2
            assert np.all(np.isfinite(forward_one(layer, scale * h)))


def assert_random_call_matches_group_loop(layer, states, rng, inactive, routed):
    """Draw expert ids for ``states`` and check ``apply_experts`` on them.

    The ids are the routed selection (distinct per row) or uniform ids that
    may repeat within a row, each slot made inactive with probability
    ``inactive``. The result must equal the group loop bit for bit even
    when every scratch buffer starts out NaN, and must not alias a scratch
    buffer or a second call's result."""
    probs, selected = route_batch(layer, states)
    if routed:
        weights = selection_weights(probs, selected, layer.renormalize)
    else:
        selected = rng.integers(0, layer.n_experts, size=selected.shape)
        weights = rng.normal(size=selected.shape)
    ids = np.where(rng.random(size=selected.shape) < inactive, -1, selected)
    apply_experts(layer, states, ids, weights)
    for buf in numerics._scratch_store.bufs.values():
        buf.fill(np.nan)
    first = apply_experts(layer, states, ids, weights)
    assert np.array_equal(first, apply_experts_loop(layer, states, ids, weights))
    second = apply_experts(layer, states, ids, weights)
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)
    for buf in numerics._scratch_store.bufs.values():
        assert not np.shares_memory(first, buf)
        assert not np.shares_memory(second, buf)


class TestApplyExperts:
    def test_matches_naive_slot_loop(self):
        layer = make_layer(n=8, k=2, d=4)
        rng = Rng(31)
        states = rng.normal(size=(6, 4))
        ids = rng.integers(-1, 8, size=(6, 3))
        weights = rng.normal(size=(6, 3))
        got = apply_experts(layer, states, ids, weights)
        want = np.zeros((6, 4))
        for t in range(6):
            for j in range(3):
                if ids[t, j] >= 0:
                    want[t] += weights[t, j] * expert_eval_naive(layer, ids[t, j], states[t])
        np.testing.assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_matches_group_loop_bit_for_bit(self, preset):
        # Python-int group bounds and cached weight views feed BLAS the same
        # operands and shapes as the loop over numpy bounds, so the outputs
        # are equal, not just close; about a quarter of the slots are -1.
        layer = preset_layer(preset)
        for t in (1, 2, 8, 63, 271):
            rng = Rng(40, (t,))
            states = rng.normal(size=(t, layer.d_model))
            probs, selected = route_batch(layer, states)
            weights = selection_weights(probs, selected, layer.renormalize)
            ids = np.where(rng.random(size=selected.shape) < 0.25, -1, selected)
            for expert_ids in (selected, ids):
                got = apply_experts(layer, states, expert_ids, weights)
                want = apply_experts_loop(layer, states, expert_ids, weights)
                assert np.array_equal(got, want), (t, expert_ids is ids)

    def test_all_inactive_rows_are_zero(self):
        layer = make_layer()
        states = Rng(1).normal(size=(3, 4))
        ids = np.full((3, 2), -1)
        out = apply_experts(layer, states, ids, np.ones((3, 2)))
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @settings(max_examples=25, deadline=None)
    @given(
        t=st.integers(1, 300),
        inactive=st.floats(0.0, 1.0),
        routed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_calls_match_group_loop(self, preset, t, inactive, routed, seed):
        # Any inactive share from none (no zero-fill, no mask) to all, on
        # routed selections or on uniform ids that may repeat within a row.
        layer = preset_layer(preset)
        rng = Rng(seed)
        states = rng.normal(size=(t, layer.d_model))
        assert_random_call_matches_group_loop(layer, states, rng, inactive, routed)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @settings(max_examples=40, deadline=None)
    @given(
        inactive=st.floats(0.0, 1.0),
        routed=st.booleans(),
        strided=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_token_calls_match_group_loop(self, preset, inactive, routed, strided, seed):
        # A lone token runs each active slot's products directly when its
        # active ids are distinct (always, on routed selections) and takes
        # the grouped path when uniform ids repeat; both must equal the
        # group loop bit for bit, also from a strided row of states.
        layer = preset_layer(preset)
        rng = Rng(seed)
        wide = rng.normal(size=(3, 2 * layer.d_model))
        states = wide[1:2, ::2] if strided else wide[1:2, : layer.d_model]
        assert states.flags.c_contiguous != strided
        assert_random_call_matches_group_loop(layer, states, rng, inactive, routed)

    @pytest.mark.parametrize(
        "ids, message",
        [
            (np.array([[0, -2], [1, -7]]), "expert id -7 outside -1..7"),
            (np.array([[0, 8], [1, -1]]), "expert id 8 outside -1..7"),
            (np.array([[0.0, 1.0], [1.0, -1.0]]), "expert ids must be integers, got dtype float64"),
            # One token, with distinct and with repeated ids: the lowest id
            # below -1 is named first, else the highest past the last expert.
            (np.array([[0, -2, -7]]), "expert id -7 outside -1..7"),
            (np.array([[8, 0, -1]]), "expert id 8 outside -1..7"),
            (np.array([[-2, 9, 1]]), "expert id -2 outside -1..7"),
            (np.array([[3, 3, 8]]), "expert id 8 outside -1..7"),
            (np.array([[3, 3, -3]]), "expert id -3 outside -1..7"),
        ],
        ids=[
            "below_minus_one",
            "past_last_expert",
            "float_ids",
            "one_token_below_minus_one",
            "one_token_past_last_expert",
            "one_token_both_ends",
            "one_token_repeated_past",
            "one_token_repeated_below",
        ],
    )
    def test_rejects_bad_expert_ids(self, ids, message):
        layer = preset_layer("mixtral-toy")
        states = Rng(3).normal(size=(ids.shape[0], layer.d_model))
        with pytest.raises(ValueError, match=re.escape(message)):
            apply_experts(layer, states, ids, np.ones(ids.shape))

    def test_rejects_weights_of_another_shape(self):
        layer = preset_layer("mixtral-toy")
        states = Rng(3).normal(size=(2, layer.d_model))
        message = "expert_ids and weights must be (T, j) arrays of one shape, got (2, 2) and (2, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            apply_experts(layer, states, np.array([[0, 1], [1, 0]]), np.ones((2, 3)))

    def test_rejects_states_of_another_row_count(self):
        layer = preset_layer("mixtral-toy")
        states = Rng(3).normal(size=(1, layer.d_model))
        message = f"states must have shape (2, {layer.d_model}), got (1, {layer.d_model})"
        with pytest.raises(ValueError, match=re.escape(message)):
            apply_experts(layer, states, np.array([[0, 1], [1, 0]]), np.ones((2, 2)))

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_dot_equals_matmul_at_executor_group_shapes(self, preset):
        # apply_experts issues its per-group products with ndarray.dot, the
        # reference loop with np.matmul; the two are bit-identical only
        # while both reach the same BLAS call. np.dot is checked too: the
        # method is its C function without the Python dispatcher. Routed rows
        # name distinct experts, so a group has at most T rows: 1 to 271
        # covers every group of the calls perfbench makes, up to
        # wide_oracle's 271 rows.
        layer = preset_layer(preset)
        w_in_t, w_out_t = layer.expert_views
        rng = Rng(47)
        for rows in range(1, 272):
            e = rows % layer.n_experts
            for w in (w_in_t[e], w_out_t[e]):
                # Operand and output are row slices of larger buffers, as
                # the executor's groups are.
                a = rng.normal(size=(rows + 3, w.shape[0]))[3:]
                want = np.matmul(a, w)
                for name, got in (
                    ("ndarray.dot", a.dot(w, out=np.empty((rows + 2, w.shape[1]))[2:])),
                    ("np.dot", np.dot(a, w, out=np.empty((rows + 2, w.shape[1]))[2:])),
                ):
                    assert np.array_equal(got, want), (
                        f"{name} and np.matmul differ on ({rows}, {w.shape[0]}) @ {w.shape}: "
                        "moe_core.apply_experts no longer matches its np.matmul reference"
                    )

    def test_dense_expert_outputs_match_naive(self):
        layer = make_layer(n=5, k=2, d=4)
        states = Rng(2).normal(size=(3, 4))
        dense = expert_outputs_grouped(layer, states)
        assert dense.shape == (5, 3, 4)
        for t in range(3):
            for e in range(5):
                np.testing.assert_allclose(
                    dense[e, t], expert_eval_naive(layer, e, states[t]), atol=1e-9
                )

    @pytest.mark.parametrize(
        "n, t, d, d_ff, blocks",
        [(5, 1, 4, 6, [5]), (5, 2, 4, 6, [5]), (3, 4, 2, 8192, [2, 1])],
        ids=["one_token", "two_tokens", "partial_last_block"],
    )
    def test_dense_expert_blocks_match_naive(self, n, t, d, d_ff, blocks):
        layer = make_layer(n=n, k=2, d=d, d_ff=d_ff)
        block = DENSE_BLOCK_DOUBLES // (t * d_ff)
        assert [min(block, n - lo) for lo in range(0, n, block)] == blocks
        states = Rng(2).normal(size=(t, d))
        dense = expert_outputs_grouped(layer, states)
        assert dense.shape == (n, t, d)
        for i in range(t):
            for e in range(n):
                np.testing.assert_allclose(
                    dense[e, i], expert_eval_naive(layer, e, states[i]), atol=1e-9
                )

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_dense_equals_one_dgemm_bit_for_bit(self, preset):
        # At T >= 63 the expert blocks reproduce one dgemm over every expert
        # and transposed second projections exactly: 16 experts per block at
        # T=63 and 4 at T=255.
        layer = preset_layer(preset)
        for t in (63, 255):
            states = Rng(41, (t,)).normal(size=(t, layer.d_model))
            want = expert_outputs_one_dgemm(layer, states)
            assert np.array_equal(expert_outputs_grouped(layer, states), want), t

    @pytest.mark.parametrize("shape", [(4,), (3, 5)], ids=["one_dim", "wrong_width"])
    def test_dense_rejects_bad_state_shape(self, shape):
        layer = make_layer(d=4)
        message = f"states must have shape (T, 4), got {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            expert_outputs_grouped(layer, np.zeros(shape))


    @pytest.mark.parametrize("n, t", [(5, 1), (1, 3)], ids=["one_token", "one_expert"])
    def test_dense_expert_outputs_are_fresh_arrays(self, n, t):
        # Without an ``out`` buffer the result is the caller's to keep, so it
        # must not live in scratch memory that the next call overwrites,
        # whatever the shape.
        layer = make_layer(n=n, k=1, d=4)
        first = expert_outputs_grouped(layer, Rng(3).normal(size=(t, 4)))
        kept = first.copy()
        second = expert_outputs_grouped(layer, Rng(4).normal(size=(t, 4)))
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)


def test_silu_basics():
    assert silu(np.array([0.0]))[0] == 0.0
    x = np.array([-1000.0, -1.0, 1.0, 50.0])
    out = silu(x)
    assert out[0] == pytest.approx(0.0, abs=1e-300)
    assert out[1] == pytest.approx(-1.0 / (1.0 + math.e), rel=1e-12)
    assert out[3] == pytest.approx(50.0, rel=1e-12)
    assert np.all(np.isfinite(out))


def test_layer_validation():
    with pytest.raises(ValueError):
        make_layer(n=4, k=5)
    with pytest.raises(ValueError):
        RouterWeights(w=np.zeros((4, 3)), bias=np.zeros(5))
