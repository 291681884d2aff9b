"""Budgeted MoE execution under a shortlist: truncation or substitution.

A shortlist is one layer's array of distinct expert ids, as the
``budgeting`` rankings return it.

Truncation keeps each token's natural top-k routing but zeroes the
contribution of experts outside the shortlist, with mixing weights still
computed over the original top-k set; a token whose entire top-k is missing
passes through on the residual connection alone. Substitution re-selects
top-k within the shortlist so every token gets exactly k experts (or all of
the shortlist when it is smaller than k).

Both policies reduce to per-token (expert, weight) slot assignments fed to
the same grouped executor the unbudgeted forward uses, so a full-capacity
shortlist reproduces the unbudgeted forward bit for bit. ``budgeted_moe``
is the lab's one MoE hook: it wraps route -> shortlist -> assignments ->
execution into a hook for the decoder's MoE sublayer, taking its shortlists
from the provider ``budgeting.shortlister`` builds, or runs the unbudgeted
sublayer when it has no provider. Either way it records one ``LayerBudget``
per layer, the one per-layer record that verification, calibration and the
offline analyses read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .moe_core import (
    MoELayerWeights,
    apply_experts,
    moe_forward_full_batch,
    route_batch,
    selection_weights,
)
from .numerics import top_k_indices

__all__ = [
    "CoveragePolicy",
    "LayerBudget",
    "budgeted_moe",
    "policy_assignments",
]


class CoveragePolicy(str, enum.Enum):
    TRUNCATION = "truncation"
    SUBSTITUTION = "substitution"


def policy_assignments(
    layer: MoELayerWeights,
    probs: np.ndarray,
    selected: np.ndarray,
    shortlist: np.ndarray,
    policy: CoveragePolicy,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-token expert slot assignments under a coverage policy.

    Returns (ids, weights, missing): ids is (T, k) expert indices with -1
    marking inactive slots, weights is (T, k) mixing weights, and missing is
    the per-token count of natural experts absent from the shortlist. A
    shortlist that is not a non-empty 1-D array of distinct integer ids in
    0..n_experts-1 raises ValueError.

    Substitution re-ranks only the tokens that miss a natural expert; a
    token that misses none keeps ``selected``. A shortlist below k fills
    each token's first ``min(k, B)`` slots, weighted by ``selection_weights``
    over those members alone, and leaves the rest inactive at weight 0. A
    renormalizing layer raises ValueError when those members' probabilities
    sum to zero, as it does at any budget.
    """
    policy = CoveragePolicy(policy)
    n = layer.n_experts
    sl = np.asarray(shortlist)
    if sl.ndim != 1 or sl.size == 0 or sl.dtype.kind not in "iu":
        raise ValueError(f"shortlist must be a non-empty 1-D array of integer ids, got {sl!r}")
    outside = sl[(sl < 0) | (sl >= n)]
    if outside.size:
        raise ValueError(f"shortlist ids {outside.tolist()} outside 0..{n - 1}")
    counts = np.bincount(sl.astype(np.intp), minlength=n)
    if np.maximum.reduce(counts) > 1:
        raise ValueError(f"shortlist repeats ids {np.flatnonzero(counts > 1).tolist()}")
    member = counts > 0
    in_list = member[selected]  # (T, k)
    missing = layer.k - np.add.reduce(in_list, axis=1)

    if policy is CoveragePolicy.TRUNCATION:
        weights = selection_weights(probs, selected, layer.renormalize)
        ids = np.where(in_list, selected, -1)
        return ids, weights, missing

    # Substitution: top-k constrained to the shortlist, ranked by routing
    # probability with ties to the lower expert index. Probabilities are
    # never negative, so -1 ranks non-members last. A token whose natural
    # top-k are all members keeps them: they outrank every other member, in
    # the same order, ties included. So only the other tokens are re-ranked.
    ids = selected.copy()
    miss = missing.nonzero()[0]
    if miss.size:
        ids[miss] = top_k_indices(np.where(member, probs[miss], -1.0), layer.k)
    k_eff = min(layer.k, sl.size)
    if k_eff == layer.k:
        return ids, selection_weights(probs, ids, layer.renormalize), missing
    weights = np.zeros(ids.shape)
    weights[:, :k_eff] = selection_weights(probs, ids[:, :k_eff], layer.renormalize)
    ids[:, k_eff:] = -1
    return ids, weights, missing


@dataclass
class LayerBudget:
    """What one MoE layer ran: the states it consumed and their natural
    routing; and, when budgeted, the shortlist it used. ``ids`` and
    ``missing`` are the per-token slot assignments and the per-token count
    of missing natural experts (the natural top-k and zero at full
    capacity)."""

    moe_input: np.ndarray  # (T, d_model)
    probs: np.ndarray  # (T, n_experts) natural routing
    selected: np.ndarray  # (T, k) natural top-k
    shortlist: np.ndarray | None  # expert ids in ranking order; None at full capacity
    ids: np.ndarray  # (T, k) assigned expert ids, -1 for inactive slots
    missing: np.ndarray  # (T,) |top_k \ shortlist|, in 0..k

    @property
    def executed(self) -> np.ndarray:
        """Sorted ids of the experts this layer actually ran: ``np.unique``
        of the active ids, by the sort and neighbour comparison that
        ``np.unique`` runs itself."""
        ids = self.ids[self.ids >= 0]
        ids.sort()
        first = np.empty(ids.size, dtype=bool)
        first[:1] = True
        np.not_equal(ids[1:], ids[:-1], out=first[1:])
        return ids[first]


def budgeted_moe(shortlist_for=None, policy: CoveragePolicy | None = None):
    """The MoE sublayer, as a ``TreeDecoder.run_rows`` hook.

    ``shortlist_for(layer_index, layer, states, probs, selected) -> expert
    ids`` is the provider ``budgeting.shortlister`` builds; it is asked
    mid-forward because router and oracle ranking need the budgeted stream's
    own states. Routing is computed from those states, so approximation
    compounds across layers exactly as in a real budgeted verification pass,
    and the recorded probs/selected are the natural routing, taken before
    budgeting. Without a provider the hook runs ``moe_forward_full_batch``
    and ``policy`` is not read: full capacity, with no shortlist.

    Returns ``(hook, record)``; the hook returns the layer output and
    appends one LayerBudget per layer it runs to ``record``, so a fresh hook
    per forward gives ``record[l]`` for layer ``l``.
    """
    if shortlist_for is not None:
        policy = CoveragePolicy(policy)
    record: list[LayerBudget] = []

    def hook(li: int, layer: MoELayerWeights, states: np.ndarray) -> np.ndarray:
        if shortlist_for is None:
            out, probs, selected = moe_forward_full_batch(layer, states)
            sl, ids, missing = None, selected, np.zeros(len(states), dtype=np.int64)
        else:
            probs, selected = route_batch(layer, states)
            sl = shortlist_for(li, layer, states, probs, selected)
            ids, weights, missing = policy_assignments(layer, probs, selected, sl, policy)
            out = apply_experts(layer, states, ids, weights)
        record.append(LayerBudget(states, probs, selected, sl, ids, missing))
        return out

    return hook, record
