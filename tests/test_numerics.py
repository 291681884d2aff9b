from __future__ import annotations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebudget import numerics
from moebudget.numerics import Rng, masked_softmax, softmax, top_k_indices
from reference import allocating_masked_softmax, stable_top_k


def softmax_highprec(logits) -> np.ndarray:
    """Independent oracle: softmax evaluated at 50 decimal digits."""
    with mpmath.workdps(50):
        exps = [mpmath.exp(mpmath.mpf(float(x))) for x in logits]
        total = mpmath.fsum(exps)
        return np.array([float(e / total) for e in exps])


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_extreme_logit_is_stable(self):
        out = softmax([1e30, 0.0])
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_matches_high_precision_oracle(self):
        logits = [1.0, 2.0, 3.0]
        np.testing.assert_allclose(softmax(logits), softmax_highprec(logits), atol=1e-15)

    def test_random_inputs_match_oracle(self):
        rng = Rng(11)
        for _ in range(20):
            logits = rng.normal(size=6) * 5
            np.testing.assert_allclose(
                softmax(logits), softmax_highprec(logits), atol=1e-14
            )

    def test_sums_to_one(self):
        out = softmax(Rng(3).normal(size=100))
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all(out > 0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax([1.0, np.inf])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12), st.randoms())
    def test_permutation_equivariance(self, logits, pyrandom):
        perm = list(range(len(logits)))
        pyrandom.shuffle(perm)
        x = np.array(logits)
        direct = softmax(x[perm])
        permuted = softmax(x)[perm]
        np.testing.assert_allclose(direct, permuted, atol=1e-12)


class TestMaskedSoftmax:
    @pytest.mark.parametrize("rows, n", [(1, 1), (1, 40), (8, 68), (63, 103), (271, 287)])
    def test_in_place_equals_the_allocating_form(self, rows, n):
        rng = Rng(rows)
        scores = rng.normal(size=(rows, n)) * 4
        blocked = rng.random(size=(rows, n)) < 0.5
        blocked[:, 0] = False  # every row keeps an entry
        want = allocating_masked_softmax(scores, ~blocked)
        got = masked_softmax(scores, blocked)
        assert got is scores
        assert np.array_equal(got, want)
        assert np.all(got[blocked] == 0.0)

    @pytest.mark.parametrize("rows, n", [(1, 1), (1, 40), (8, 68), (63, 103), (271, 287)])
    def test_nothing_blocked_equals_the_all_false_mask(self, rows, n):
        # run_rows passes None when its mask blocks nothing (a lone causal
        # row, a tree root), and the fill is skipped.
        scores = Rng(rows + n).normal(size=(rows, n)) * 4
        want = masked_softmax(scores.copy(), np.zeros((rows, n), dtype=bool))
        assert np.array_equal(want, allocating_masked_softmax(scores, np.ones((rows, n), bool)))
        got = masked_softmax(scores, None)
        assert got is scores
        assert np.array_equal(got, want)


class TestTopK:
    def test_tie_breaks_to_lower_index(self):
        assert top_k_indices([0.1, 0.9, 0.9, 0.2], 2).tolist() == [1, 2]

    def test_k_equals_length_returns_all(self):
        out = top_k_indices([3.0, 1.0, 2.0], 3)
        assert sorted(out.tolist()) == [0, 1, 2]
        assert out.tolist() == [0, 2, 1]  # descending by score

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            top_k_indices([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            top_k_indices([1.0, 2.0], 0)

    def test_matches_sort_oracle(self):
        rng = Rng(5)
        for i in range(100):
            scores = rng.normal(size=20)
            got = top_k_indices(scores, 8)
            want = sorted(range(20), key=lambda j: (-scores[j], j))[:8]
            assert got.tolist() == want

    def test_rows_match_per_row(self):
        rng = Rng(9)
        scores = rng.normal(size=(7, 16))
        rows = top_k_indices(scores, 4)
        for i in range(7):
            assert rows[i].tolist() == top_k_indices(scores[i], 4).tolist()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 14))
    def test_nesting(self, seed, k):
        scores = Rng(seed).normal(size=16)
        # Nesting is guaranteed when the boundary scores differ.
        order = np.argsort(-scores, kind="stable")
        if scores[order[k - 1]] == scores[order[k]]:
            return
        smaller = set(top_k_indices(scores, k).tolist())
        larger = set(top_k_indices(scores, k + 1).tolist())
        assert smaller <= larger


# Score shapes on both sides of the size from which top_k_indices sorts
# with the default argsort and a tie check: the routing, substitution and
# draft-vocabulary shapes of the benchmark workloads, and a few edge ones.
BELOW_CHECK = [(1, 64), (64,), (8, 64), (13, 64), (4, 128), (1, 256), (2, 2)]
ABOVE_CHECK = [(16, 64), (63, 64), (16, 256), (271, 128), (2048,), (512, 2), (1024, 1)]


def injected_scores(case: str, shape: tuple[int, ...], k: int, rng) -> np.ndarray:
    """Scores of ``shape`` carrying the ties or special values of ``case``."""
    n = shape[-1]
    s = rng.normal(size=shape)
    rows = s.reshape(-1, n)
    if case == "boundary_tie":
        # The k-th and (k+1)-th largest scores tie in every other row.
        if k < n:
            order = np.argsort(-rows, axis=-1, kind="stable")
            picked = np.arange(0, rows.shape[0], 2)
            rows[picked, order[picked, k]] = rows[picked, order[picked, k - 1]]
    elif case == "equal_values":
        # Static selection counts: small integers, whole rows of one value.
        rows[:] = rng.integers(0, 3, size=rows.shape)
        rows[::3] = 5.0
    elif case == "fill":
        # Substitution's input: probabilities at shortlist members, -1.0
        # at every non-member, sometimes fewer members than k.
        members = rng.random(size=rows.shape) < 0.25
        rows[:] = np.where(members, rng.random(size=rows.shape), -1.0)
    elif case == "nan_zero":
        rows[rng.random(size=rows.shape) < 0.1] = np.nan
        zeros = rng.random(size=rows.shape) < 0.2
        rows[zeros] = np.where(rng.random(size=rows.shape) < 0.5, -0.0, 0.0)[zeros]
    return s


TIE_CASES = ["distinct", "boundary_tie", "equal_values", "fill", "nan_zero"]


class TestTopKAcrossTheSortCheck:
    @pytest.mark.parametrize("shape", BELOW_CHECK + ABOVE_CHECK, ids=str)
    @pytest.mark.parametrize("case", TIE_CASES)
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k_at=st.floats(0.0, 1.0), k_is_n=st.booleans())
    def test_equals_the_stable_sort(self, shape, case, seed, k_at, k_is_n):
        n = shape[-1]
        k = n if k_is_n else 1 + int(k_at * (n - 1))
        scores = injected_scores(case, shape, k, np.random.default_rng(seed))
        got = top_k_indices(scores, k)
        assert got.shape == shape[:-1] + (k,)
        assert np.array_equal(got, stable_top_k(scores, k))

    def test_shapes_reach_both_sort_paths(self):
        # Guards the two lists above against a change of the size constant.
        assert all(np.prod(s) < numerics.SORT_CHECK_ENTRIES for s in BELOW_CHECK)
        assert all(np.prod(s) >= numerics.SORT_CHECK_ENTRIES for s in ABOVE_CHECK)


class TestRng:
    def test_identical_seed_identical_stream(self):
        a = Rng(42).normal(size=1000)
        b = Rng(42).normal(size=1000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).normal(size=100), Rng(2).normal(size=100))

    def test_substreams_independent_of_draw_order(self):
        # Drawing from substream 0 first or second never changes substream 1.
        root = Rng(7)
        s0_first = root.substream(0).normal(size=10)
        s1_after = root.substream(1).normal(size=10)
        fresh1 = Rng(7).substream(1).normal(size=10)
        np.testing.assert_array_equal(s1_after, fresh1)
        assert not np.array_equal(s0_first, s1_after)

    def test_nested_substreams_distinct(self):
        flat = Rng(7).substream(1).normal(size=8)
        nested = Rng(7).substream(1, 0).normal(size=8)
        assert not np.array_equal(flat, nested)

    def test_integers_in_range(self):
        vals = Rng(3).integers(0, 10, size=1000)
        assert vals.min() >= 0 and vals.max() < 10
