"""Per-layer expert shortlists under a budget: static, router, and oracle
ranking.

A shortlist is a plain int64 array of distinct expert ids in ranking order,
at least one and at most ``n_experts`` of them; a budget outside that range
is refused. Static ranking orders experts once from calibration selection
counts and never looks at the tree. Router ranking sums each tree's routing
probabilities. Oracle ranking is the greedy minimizer of the raw-probability
reconstruction: the squared distance between the unbudgeted layer output
and the sum of the shortlist experts' outputs, each weighted by its raw
router probability. No coverage policy executes that sum, so the oracle is
not a quality ceiling; it needs every expert's output and is not a
production method.

``shortlister`` turns a method name into the per-layer shortlist provider
of budgeted verification.
"""

from __future__ import annotations

import numpy as np

from .coverage import budgeted_moe
from .moe_core import MoELayerWeights, expert_outputs_grouped, selection_weights
from .numerics import check_int, scratch, top_k_indices
from .toy_model import MoEModel, TreeDecoder

__all__ = [
    "calibrate_static",
    "rank_oracle",
    "rank_router",
    "rank_static",
    "shortlister",
]

METHODS = ("static", "router", "oracle")


def calibrate_static(model: MoEModel, sequences) -> np.ndarray:
    """Count, per layer, how many calibration tokens select each expert: an
    (n_layers, n_experts) int64 array whose rows each sum to k * tokens.

    ``sequences`` is an iterable of token sequences, each prefilled causally
    on a ``TreeDecoder`` behind a full-capacity ``coverage.budgeted_moe``
    hook, whose records give the routing; empty sequences are skipped.
    """
    counts = np.zeros((model.n_layers, model.config.n_experts), dtype=np.int64)
    for seq in sequences:
        seq = np.asarray(seq)
        if seq.size == 0:
            continue
        hook, layers = budgeted_moe()
        TreeDecoder(model, seq, moe_hook=hook)
        for li, rec in enumerate(layers):
            np.add.at(counts[li], rec.selected.ravel(), 1)
    if not counts.any():
        raise ValueError("calibration stream must contain at least one token")
    return counts


def _checked_budget(budget: int, n_experts: int) -> int:
    budget = check_int("budget", budget)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if budget > n_experts:
        raise ValueError(f"budget {budget} exceeds expert count {n_experts}")
    return budget


def rank_static(counts: np.ndarray, budget: int) -> np.ndarray:
    """Top-B experts by one layer's (n_experts,) calibration selection
    counts, descending, ties to the lower index; no runtime dependence on
    the current tree."""
    return top_k_indices(counts, _checked_budget(budget, len(counts)))


def rank_router(tree_probs: np.ndarray, budget: int) -> np.ndarray:
    """Top-B experts by aggregate routing probability across the tree,
    descending, ties to the lower index.

    ``tree_probs`` is the (M, n_experts) router distribution of every tree
    node at this layer.
    """
    scores = np.add.reduce(np.asarray(tree_probs, dtype=np.float64), axis=0)
    return top_k_indices(scores, _checked_budget(budget, scores.size))


def rank_oracle(
    layer_weights: MoELayerWeights,
    states: np.ndarray,
    probs: np.ndarray,
    selected: np.ndarray,
    budget: int,
) -> np.ndarray:
    """Greedy expert selection minimizing summed squared reconstruction
    error against the unbudgeted output; the ids come in pick order.

    Every expert is evaluated on every token once, in the blocked dense pass
    of ``expert_outputs_grouped``. The target is read from that pass: each
    token's natural top-k outputs weighted by ``selection_weights``. A
    shortlist S reconstructs token t as the sum over i in S of
    ``probs[t, i] * E_i(h_t)``, each expert weighted by its raw router
    probability. Each greedy step then scans all remaining candidates with
    incrementally maintained residuals. Ties go to the lower expert index.
    """
    states = np.asarray(states, dtype=np.float64)
    n = layer_weights.n_experts
    b = _checked_budget(budget, n)

    # Grouped (N, M, d) layout so the Gram matrix below is a single
    # contiguous GEMM.
    contributions = expert_outputs_grouped(
        layer_weights, states, out=scratch("oracle_contrib", n, states.shape[0], states.shape[1])
    )
    # The target gathers each token's natural top-k outputs, a (M, k, d)
    # copy, before the in-place scaling below.
    natural = contributions[selected, np.arange(states.shape[0])[:, None]]
    weights = selection_weights(probs, selected, layer_weights.renormalize)
    target = np.einsum("tjd,tj->td", natural, weights)
    w = np.asarray(probs, dtype=np.float64)
    contributions *= w.T[:, :, None]  # contributions[i, t] = probs[t, i] * E_i(h_t)

    # The summed squared residual expands over inner products of the
    # per-expert contribution vectors, so the Gram matrix makes every
    # candidate scan O(N): residual(S + {i}) = residual(S) - 2(b_i - g_i)
    # + G_ii with g_i = sum_{j in S} G_ij maintained incrementally.
    flat = contributions.reshape(n, -1)  # (N, M*d)
    gram = flat @ flat.T
    overlap = flat @ target.ravel()  # b_i
    diag = gram.diagonal().copy()

    chosen = np.empty(b, dtype=np.int64)
    taken = np.zeros(n, dtype=bool)
    residual = float(np.einsum("td,td->", target, target))
    g = np.zeros(n)
    for step in range(b):
        candidate_residuals = residual - 2.0 * (overlap - g) + diag
        candidate_residuals[taken] = np.inf
        pick = int(candidate_residuals.argmin())  # first minimum = lower index
        taken[pick] = True
        chosen[step] = pick
        residual = float(candidate_residuals[pick])
        g += gram[:, pick]
    return chosen


def shortlister(
    model: MoEModel,
    method: str,
    budget: int,
    static_counts: np.ndarray | None = None,
):
    """The shortlist provider of a ranking method at budget B on ``model``:
    ``(layer_index, layer, states, probs, selected) -> expert ids``.

    ``states``/``probs``/``selected`` are one layer's MoE inputs and their
    natural routing over the tree rows. Static ranking reads only row
    ``layer_index`` of ``static_counts``, which must have the model's shape
    (n_layers, n_experts) and is checked here, before any forward runs;
    router ranking reads only ``probs``; oracle ranking needs all of them.
    """
    if method == "static":
        if static_counts is None:
            raise ValueError("static ranking requires calibration counts")
        want = (model.n_layers, model.config.n_experts)
        got = np.asarray(static_counts).shape
        if got != want:
            raise ValueError(
                f"static counts must have shape {want}, one shortlist per MoE layer "
                f"over every expert; got {got}"
            )
        return lambda li, layer, states, probs, selected: rank_static(static_counts[li], budget)
    if method == "router":
        return lambda li, layer, states, probs, selected: rank_router(probs, budget)
    if method == "oracle":
        return lambda li, layer, states, probs, selected: rank_oracle(
            layer, states, probs, selected, budget
        )
    raise ValueError(f"unknown ranking method {method!r}")


# ---------------------------------------------------------------------------
# Report of the calibration and the expert ordering static ranking uses
# ---------------------------------------------------------------------------


def static_ranking_report(counts: np.ndarray, top_k: int) -> dict:
    """``counts`` as a JSON-ready report: the calibration ``tokens`` (each
    makes ``top_k`` selections per layer), per-layer ``counts``, and each
    layer's full ``ordering`` (descending count, ties to the lower index),
    whose first B entries are ``rank_static``'s shortlist at budget B."""
    return {
        "tokens": int(counts[0].sum()) // top_k,
        "counts": counts.tolist(),
        "ordering": [top_k_indices(c, c.size).tolist() for c in counts],
    }
