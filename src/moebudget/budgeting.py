"""Per-layer expert shortlists under a budget: static, router, and oracle
ranking.

Static ranking orders experts once from calibration selection counts and
never looks at the tree. Router ranking sums each tree's routing
probabilities. Oracle ranking greedily minimizes squared reconstruction
error against the unbudgeted layer output; it needs every expert's output
and is a quality ceiling, not a production method.

``shortlister`` is the one place a method name becomes a ranking: budgeted
verification and the offline reconstruction analysis both ask it for the
per-layer shortlist provider.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .moe_core import (
    MoELayerWeights,
    apply_experts,
    expert_outputs_grouped,
    selection_weights,
)
from .numerics import scratch, top_k_indices
from .toy_model import MoEModel, TreeDecoder, routing_capture

__all__ = [
    "CalibrationCounts",
    "Shortlist",
    "calibrate_static",
    "rank_oracle",
    "rank_router",
    "rank_static",
    "shortlister",
]

METHODS = ("static", "router", "oracle")


@dataclass
class Shortlist:
    """A budgeted expert subset for one layer, in ranking order.

    For static and router ranking the order is descending score with ties to
    the lower index; for oracle ranking it is greedy selection order and
    ``scores`` holds the negative residual at each pick.
    """

    layer: int
    experts: np.ndarray  # (min(B, n_experts),) no duplicates
    method: str
    scores: np.ndarray  # parallel to experts

    def __post_init__(self):
        self.experts = np.asarray(self.experts, dtype=np.int64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.experts.size == 0:
            raise ValueError("shortlist must contain at least one expert")
        if np.unique(self.experts).size != self.experts.size:
            raise ValueError("shortlist must not contain duplicates")
        if self.method not in METHODS:
            raise ValueError(f"unknown shortlist method {self.method!r}")

    @property
    def budget(self) -> int:
        return int(self.experts.size)

    def member_table(self, n_experts: int) -> np.ndarray:
        table = np.zeros(n_experts, dtype=bool)
        table[self.experts] = True
        return table


@dataclass
class CalibrationCounts:
    """Per-layer selection frequencies over a calibration stream. Each token
    contributes exactly k selections, so counts.sum(axis=1) == k * tokens."""

    counts: np.ndarray  # (n_layers, n_experts) non-negative ints
    tokens: int

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if np.any(self.counts < 0):
            raise ValueError("calibration counts must be non-negative")


def calibrate_static(model: MoEModel, sequences) -> CalibrationCounts:
    """Count, per layer, how many calibration tokens select each expert.

    ``sequences`` is an iterable of token sequences, each prefilled causally
    at full capacity on a ``TreeDecoder`` whose MoE hook captures the
    routing; empty sequences are skipped.
    """
    counts = np.zeros((model.n_layers, model.config.n_experts), dtype=np.int64)
    tokens = 0
    for seq in sequences:
        seq = np.asarray(seq)
        if seq.size == 0:
            continue
        hook, traces = routing_capture()
        TreeDecoder(model, seq, moe_hook=hook)
        for li, trace in enumerate(traces):
            np.add.at(counts[li], trace.selected.ravel(), 1)
        tokens += int(seq.size)
    if tokens == 0:
        raise ValueError("calibration stream must contain at least one token")
    return CalibrationCounts(counts=counts, tokens=tokens)


def _clamp_budget(budget: int, n_experts: int) -> int:
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if budget > n_experts:
        warnings.warn(
            f"budget {budget} exceeds expert count {n_experts}; clamping to {n_experts}",
            stacklevel=3,
        )
        return n_experts
    return budget


def rank_static(counts: CalibrationCounts, layer: int, budget: int) -> Shortlist:
    """Top-B experts by calibration selection count; no runtime dependence
    on the current tree."""
    c = counts.counts[layer]
    b = _clamp_budget(budget, c.size)
    chosen = top_k_indices(c.astype(np.float64), b)
    return Shortlist(
        layer=layer, experts=chosen, method="static", scores=c[chosen].astype(np.float64)
    )


def rank_router(tree_probs: np.ndarray, layer: int, budget: int) -> Shortlist:
    """Top-B experts by aggregate routing probability across the tree.

    ``tree_probs`` is the (M, n_experts) router distribution of every tree
    node at this layer.
    """
    scores = np.asarray(tree_probs, dtype=np.float64).sum(axis=0)
    b = _clamp_budget(budget, scores.size)
    chosen = top_k_indices(scores, b)
    return Shortlist(layer=layer, experts=chosen, method="router", scores=scores[chosen])


def oracle_reconstruction_weights(
    probs: np.ndarray, selected: np.ndarray, renormalize: bool, uses_raw_g: bool
) -> np.ndarray:
    """Per-(token, expert) weights used in the greedy reconstruction sum.

    With ``uses_raw_g`` the weights are the raw router probabilities for
    every expert. Otherwise each token's probabilities are rescaled by the
    same normalizer its natural top-k mixing weights use, extended to all
    experts (a no-op when the model does not renormalize).
    """
    w = np.asarray(probs, dtype=np.float64)
    if uses_raw_g or not renormalize:
        return w
    top_mass = np.take_along_axis(w, selected, axis=-1).sum(axis=-1, keepdims=True)
    return w / top_mass


def gold_outputs(
    layer: MoELayerWeights, states: np.ndarray, probs: np.ndarray, selected: np.ndarray
) -> np.ndarray:
    """Unbudgeted layer outputs (the reconstruction target) on given states."""
    weights = selection_weights(probs, selected, layer.renormalize)
    return apply_experts(layer, states, selected, weights)


def rank_oracle(
    layer_weights: MoELayerWeights,
    states: np.ndarray,
    probs: np.ndarray,
    selected: np.ndarray,
    layer: int,
    budget: int,
    uses_raw_g: bool = True,
) -> Shortlist:
    """Greedy expert selection minimizing summed squared reconstruction
    error against the unbudgeted output.

    Every expert is evaluated on every token once (cached), then each greedy
    step scans all remaining candidates with incrementally maintained
    residuals. Ties go to the lower expert index. The returned ``scores``
    are the negative residual after each pick, i.e. selection order.
    """
    states = np.asarray(states, dtype=np.float64)
    n = layer_weights.n_experts
    b = _clamp_budget(budget, n)

    target = gold_outputs(layer_weights, states, probs, selected)
    w = oracle_reconstruction_weights(
        probs, selected, layer_weights.renormalize, uses_raw_g
    )
    # contributions[i, t] = w[t, i] * E_i(h_t); grouped (N, M, d) layout so
    # the Gram matrix below is a single contiguous GEMM.
    contributions = expert_outputs_grouped(
        layer_weights, states, out=scratch("oracle_contrib", n, states.shape[0], states.shape[1])
    )
    contributions *= w.T[:, :, None]

    # The summed squared residual expands over inner products of the
    # per-expert contribution vectors, so the Gram matrix makes every
    # candidate scan O(N): residual(S + {i}) = residual(S) - 2(b_i - g_i)
    # + G_ii with g_i = sum_{j in S} G_ij maintained incrementally.
    flat = contributions.reshape(n, -1)  # (N, M*d)
    gram = flat @ flat.T
    overlap = flat @ target.ravel()  # b_i
    diag = np.diag(gram).copy()

    chosen: list[int] = []
    neg_residuals: list[float] = []
    taken = np.zeros(n, dtype=bool)
    residual = float(np.einsum("td,td->", target, target))
    g = np.zeros(n)
    for _ in range(b):
        candidate_residuals = residual - 2.0 * (overlap - g) + diag
        candidate_residuals[taken] = np.inf
        pick = int(np.argmin(candidate_residuals))  # first minimum = lower index
        taken[pick] = True
        chosen.append(pick)
        residual = float(candidate_residuals[pick])
        neg_residuals.append(-residual)
        g += gram[:, pick]

    return Shortlist(
        layer=layer,
        experts=np.array(chosen),
        method="oracle",
        scores=np.array(neg_residuals),
    )


def shortlister(
    method: str,
    budget: int,
    static_counts: CalibrationCounts | None = None,
    uses_raw_g: bool = True,
):
    """The shortlist provider of a ranking method at budget B:
    ``(layer_index, layer, states, probs, selected) -> Shortlist``.

    ``states``/``probs``/``selected`` are one layer's MoE inputs and their
    natural routing over the tree rows. Static ranking reads only
    ``static_counts``, router ranking only ``probs``; oracle ranking needs
    all of them.
    """
    if method == "static":
        if static_counts is None:
            raise ValueError("static ranking requires calibration counts")
        return lambda li, layer, states, probs, selected: rank_static(static_counts, li, budget)
    if method == "router":
        return lambda li, layer, states, probs, selected: rank_router(probs, li, budget)
    if method == "oracle":
        return lambda li, layer, states, probs, selected: rank_oracle(
            layer, states, probs, selected, li, budget, uses_raw_g
        )
    raise ValueError(f"unknown ranking method {method!r}")


# ---------------------------------------------------------------------------
# Report of the calibration and the expert ordering static ranking uses
# ---------------------------------------------------------------------------


def save_static_ranking(counts: CalibrationCounts, path) -> None:
    """Write ``counts`` as JSON: ``tokens``, per-layer ``counts``, and each
    layer's full ``ordering`` (descending count, ties to the lower index),
    whose first B entries are ``rank_static``'s shortlist at budget B."""
    payload = {
        "tokens": counts.tokens,
        "counts": counts.counts.tolist(),
        "ordering": [
            top_k_indices(c.astype(np.float64), c.size).tolist() for c in counts.counts
        ],
    }
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True)
        f.write("\n")
