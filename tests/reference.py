"""Test-side references: the stable-sort top-k and the allocating masked
softmax that ``numerics`` must match, and that the references below use in
its place; the every-row substitution that ``coverage`` must match; the
causal mask and token check that ``toy_model``'s must match; the one-shot
masked forward that ``TreeDecoder`` is checked against, the ancestor mask of
a drafted tree, the plain loops that the grouped expert executor and the
batched tree expansion must match bit for bit, the unblocked dense evaluator
and oracle ranking that the blocked ones must reproduce, the per-config
speculative loop that the lockstep engine must reproduce, and writers of the
routing-trace fixtures that ``read_trace`` parses."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from moebudget.coverage import LayerBudget
from moebudget.draft_tree import DraftTree, binary_branching, expand_tree
from moebudget.moe_core import (
    MoELayerWeights,
    apply_experts,
    moe_forward_full_batch,
    selection_weights,
    silu,
)
from moebudget.numerics import softmax
from moebudget.simulator import CostModelParams, GenerationRun, summarize, verify_greedy
from moebudget.toy_model import (
    AttentionWeights,
    MoEModel,
    TreeDecoder,
    rms_norm,
)


@dataclass
class ForwardResult:
    logits: np.ndarray  # (T, vocab_size)
    layers: list[LayerBudget]


def stable_top_k(scores, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores along the last axis from one
    stable argsort of the negated scores: descending, ties to the lower
    index. What ``numerics.top_k_indices`` must return on any input."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), axis=-1, kind="stable")[..., :k]


def allocating_masked_softmax(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the entries where ``mask`` is True, each step
    into a fresh array: what the in-place ``numerics.masked_softmax`` must
    equal bit for bit."""
    neg = np.where(mask, scores, -np.inf)
    shifted = neg - neg.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def substitution_every_row(
    layer: MoELayerWeights, probs: np.ndarray, selected: np.ndarray, shortlist
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``coverage.policy_assignments`` under substitution, re-ranking every
    token, also those that miss no natural expert, with ``stable_top_k``:
    (ids, weights, missing). A shortlist below k fills the first
    ``min(k, B)`` slots, weighted by their own gathered (and, on a
    renormalizing layer, renormalized) probabilities, and leaves the rest at
    id -1 and weight 0."""
    k, k_eff = layer.k, min(layer.k, len(shortlist))
    member = np.zeros(layer.n_experts, dtype=bool)
    member[np.asarray(shortlist)] = True
    ids = stable_top_k(np.where(member, probs, -1.0), k)
    w = np.take_along_axis(probs, ids[:, :k_eff], axis=-1)
    if layer.renormalize:
        w = w / w.sum(axis=-1, keepdims=True)
    weights = np.zeros(ids.shape)
    weights[:, :k_eff] = w
    ids[:, k_eff:] = -1
    return ids, weights, k - member[selected].sum(axis=1)


def tril_causal_mask(n: int) -> np.ndarray:
    """Lower-triangular (n, n) attention mask from ``np.tril`` of ones:
    what ``toy_model.causal_mask`` must equal."""
    return np.tril(np.ones((n, n), dtype=bool))


def check_tokens(model: MoEModel, tokens) -> np.ndarray:
    """``tokens`` as int64 ids, or ValueError with ``toy_model._check_tokens``'
    messages, checked with numpy reductions."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ValueError("tokens must be a non-empty 1-D sequence")
    if not np.issubdtype(tokens.dtype, np.integer):
        raise ValueError(f"tokens must be integer ids, got dtype {tokens.dtype}")
    if tokens.min() < 0 or tokens.max() >= model.config.vocab_size:
        raise ValueError("token id out of vocabulary range")
    return tokens.astype(np.int64, copy=False)


def _attend(attn: AttentionWeights, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    xn = rms_norm(x)
    q = xn @ attn.wq.T
    k = xn @ attn.wk.T
    v = xn @ attn.wv.T
    scores = (q @ k.T) / np.sqrt(x.shape[-1])
    return allocating_masked_softmax(scores, mask) @ v @ attn.wo.T


def _full_moe(layer: MoELayerWeights, states: np.ndarray):
    """``moe_core.moe_forward_full_batch`` with its routing top-k taken by
    ``stable_top_k``: (outputs, probs, selected)."""
    probs = softmax(states @ layer.router.w.T + layer.router.bias)
    selected = stable_top_k(probs, layer.k)
    weights = selection_weights(probs, selected, layer.renormalize)
    return apply_experts(layer, states, selected, weights), probs, selected


def forward(model: MoEModel, tokens, mask: np.ndarray | None = None) -> ForwardResult:
    """Run the full model over ``tokens`` under an arbitrary ancestor mask.

    ``mask`` is a (T, T) boolean matrix where entry (i, j) allows position i
    to attend to position j; ``None`` means plain causal attention. Each
    block is pre-norm residual: x += attn(norm(x)); x += moe(norm(x)), every
    MoE layer at full capacity and recorded as a full-capacity LayerBudget.
    """
    tokens = check_tokens(model, tokens)
    n = tokens.size
    if mask is None:
        mask = tril_causal_mask(n)
    if mask.shape != (n, n):
        raise ValueError(f"mask must have shape ({n}, {n})")

    x = model.embedding[tokens]
    layers = []
    for block in model.blocks:
        x = x + _attend(block.attention, x, mask)
        moe_in = rms_norm(x)
        out, probs, selected = _full_moe(block.moe, moe_in)
        layers.append(
            LayerBudget(moe_in, probs, selected, None, selected, np.zeros(n, dtype=np.int64))
        )
        x = x + out
    logits = rms_norm(x) @ model.head.T
    return ForwardResult(logits=logits, layers=layers)


def tree_mask(n_context: int, tree: DraftTree) -> np.ndarray:
    """Ancestor attention mask for [context tokens] + [tree nodes].

    Context rows are causal among themselves; each tree row attends to the
    whole context, its tree ancestors, and itself.
    """
    n = n_context + tree.size
    mask = np.zeros((n, n), dtype=bool)
    mask[:n_context, :n_context] = tril_causal_mask(n_context)
    for i in range(tree.size):
        row = n_context + i
        mask[row, :n_context] = True
        for node in tree.path_to(i):
            mask[row, n_context + node] = True
    return mask


def apply_experts_loop(
    layer: MoELayerWeights, states: np.ndarray, expert_ids: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """``moe_core.apply_experts`` as a loop over numpy group bounds that slices
    the weights per group: the same matmul shapes and operands, so the
    executor must match it bit for bit. It keeps ``np.matmul``, the
    ``np.zeros`` slot buffer and the ``np.where`` mask on purpose, where the
    executor uses ``np.dot`` and skips the fill and mask when no slot is
    inactive, so that it stays an independent reference."""
    states = np.asarray(states, dtype=np.float64)
    n_tokens, n_slots = expert_ids.shape
    out_slots = np.zeros((n_tokens * n_slots, layer.d_model))
    flat_ids = expert_ids.ravel()
    active = np.nonzero(flat_ids >= 0)[0]
    if active.size > 0:
        sorted_slots = active[np.argsort(flat_ids[active], kind="stable")]
        sorted_ids = flat_ids[sorted_slots]
        steps = np.nonzero(np.diff(sorted_ids))[0] + 1
        starts = np.concatenate(([0], steps))
        ends = np.concatenate((steps, [sorted_ids.size]))
        gathered = states[sorted_slots // n_slots]
        pre = np.empty((sorted_ids.size, layer.d_ff))
        for lo, hi in zip(starts, ends):
            np.matmul(gathered[lo:hi], layer.w_in[sorted_ids[lo]].T, out=pre[lo:hi])
        act = silu(pre)
        produced = np.empty((sorted_ids.size, layer.d_model))
        for lo, hi in zip(starts, ends):
            np.matmul(act[lo:hi], layer.w_out[sorted_ids[lo]].T, out=produced[lo:hi])
        out_slots[sorted_slots] = produced
    slot_w = np.where(expert_ids >= 0, weights, 0.0)
    return np.einsum("tjd,tj->td", out_slots.reshape(n_tokens, n_slots, -1), slot_w)


def expert_outputs_one_dgemm(layer: MoELayerWeights, states: np.ndarray) -> np.ndarray:
    """Dense (n_experts, T, d_model) expert outputs from one dgemm over every
    expert's first projection, a silu over the whole (T, n_experts * d_ff)
    pre-activation, and per-expert products with transposed ``w_out``: the
    unblocked arithmetic ``moe_core.expert_outputs_grouped`` must equal bit
    for bit at T >= 63."""
    states = np.asarray(states, dtype=np.float64)
    n, d_ff, d = layer.w_in.shape
    t = states.shape[0]
    act = silu(states @ layer.w_in.reshape(n * d_ff, d).T)
    hidden = act.reshape(t, n, d_ff).transpose(1, 0, 2)
    return np.matmul(hidden, layer.w_out.transpose(0, 2, 1))


def rank_oracle_reference(
    layer: MoELayerWeights,
    states: np.ndarray,
    probs: np.ndarray,
    selected: np.ndarray,
    budget: int,
) -> np.ndarray:
    """``budgeting.rank_oracle`` with its target rebuilt by
    ``moe_forward_full_batch`` and its contributions from ``expert_outputs_one_dgemm``: the pick order
    the blocked oracle must reproduce."""
    states = np.asarray(states, dtype=np.float64)
    n = layer.n_experts
    b = min(budget, n)
    target, _, _ = moe_forward_full_batch(layer, states)
    contributions = expert_outputs_one_dgemm(layer, states) * probs.T[:, :, None]
    flat = contributions.reshape(n, -1)
    gram = flat @ flat.T
    overlap = flat @ target.ravel()
    diag = np.diag(gram).copy()
    chosen = np.empty(b, dtype=np.int64)
    taken = np.zeros(n, dtype=bool)
    residual = float(np.einsum("td,td->", target, target))
    g = np.zeros(n)
    for step in range(b):
        candidate_residuals = residual - 2.0 * (overlap - g) + diag
        candidate_residuals[taken] = np.inf
        pick = int(np.argmin(candidate_residuals))
        taken[pick] = True
        chosen[step] = pick
        residual = float(candidate_residuals[pick])
        g += gram[:, pick]
    return chosen


def expand_tree_per_node(decoder: TreeDecoder, branching) -> DraftTree:
    """``draft_tree.expand_tree`` taking each frontier node's children with
    its own top-k call, in frontier order."""
    tokens = [int(np.argmax(decoder.context_logits))]
    parents, frontier = [-1], [0]
    frontier_logits = decoder.extend(tokens, [-1])
    for b in branching:
        new_tokens, new_parents = [], []
        for node, logits in zip(frontier, frontier_logits):
            for tok in stable_top_k(logits, b):
                new_tokens.append(int(tok))
                new_parents.append(node)
        start = len(tokens)
        tokens += new_tokens
        parents += new_parents
        frontier = list(range(start, len(tokens)))
        frontier_logits = decoder.extend(new_tokens, new_parents)
    return DraftTree(tokens=np.array(tokens), parents=np.array(parents))


def speculative_run(
    target: MoEModel,
    draft: MoEModel,
    prompt,
    gen_len: int,
    cost: CostModelParams,
    budget_cfg,
    tree_size: int,
    static_counts=None,
    keep_coverage: bool = False,
) -> GenerationRun:
    """One config's speculative loop on its own pair of decoders: each step
    drafts a tree, verifies it, and appends the emitted tokens to both
    decoders. ``wall_clock_s`` reads 0."""
    branching = binary_branching(tree_size)
    draft_dec, target_dec = TreeDecoder(draft, prompt), TreeDecoder(target, prompt)
    generated, reports = [], []
    while len(generated) < gen_len:
        tree = expand_tree(draft_dec, branching)
        draft_dec.rollback()
        report = verify_greedy(target_dec, tree, budget_cfg, cost, static_counts)
        if not keep_coverage:
            report.missing_counts = None
            report.fully_skipped = None
        report.emitted = emitted = report.emitted[: gen_len - len(generated)]
        draft_dec.append_tokens(emitted)
        target_dec.append_tokens(emitted)
        generated.extend(emitted)
        reports.append(report)
    return GenerationRun(generated, summarize(reports, cost, target.config), reports)


def write_trace_dense(path, probs_by_layer: dict[int, np.ndarray]) -> None:
    """One JSON object per (token, layer): {"layer": l, "probs": [...]}."""
    with open(path, "w") as f:
        for layer in sorted(probs_by_layer):
            for row in probs_by_layer[layer]:
                f.write(json.dumps({"layer": layer, "probs": [float(p) for p in row]}))
                f.write("\n")


def write_trace_topk(
    path, probs_by_layer: dict[int, np.ndarray], selected_by_layer: dict[int, np.ndarray]
) -> None:
    """Sparse trace: {"layer": l, "topk": [[index, prob], ...]} per token."""
    with open(path, "w") as f:
        for layer in sorted(probs_by_layer):
            probs = probs_by_layer[layer]
            for t, sel in enumerate(selected_by_layer[layer]):
                pairs = [[int(i), float(probs[t, i])] for i in sel]
                f.write(json.dumps({"layer": layer, "topk": pairs}))
                f.write("\n")
