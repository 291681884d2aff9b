"""Test-side references: the one-shot masked forward that ``TreeDecoder`` is
checked against, the ancestor mask of a drafted tree, and writers of the
routing-trace fixtures that ``read_trace`` parses."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from moebudget.draft_tree import DraftTree
from moebudget.moe_core import moe_forward_full_batch
from moebudget.numerics import masked_softmax
from moebudget.toy_model import (
    AttentionWeights,
    LayerTrace,
    MoEModel,
    _check_tokens,
    causal_mask,
    rms_norm,
)


@dataclass
class ForwardResult:
    logits: np.ndarray  # (T, vocab_size)
    layers: list[LayerTrace]


def _attend(attn: AttentionWeights, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    xn = rms_norm(x)
    q = xn @ attn.wq.T
    k = xn @ attn.wk.T
    v = xn @ attn.wv.T
    scores = (q @ k.T) / np.sqrt(x.shape[-1])
    return masked_softmax(scores, mask) @ v @ attn.wo.T


def forward(model: MoEModel, tokens, mask: np.ndarray | None = None) -> ForwardResult:
    """Run the full model over ``tokens`` under an arbitrary ancestor mask.

    ``mask`` is a (T, T) boolean matrix where entry (i, j) allows position i
    to attend to position j; ``None`` means plain causal attention. Each
    block is pre-norm residual: x += attn(norm(x)); x += moe(norm(x)), every
    MoE layer at full capacity.
    """
    tokens = _check_tokens(model, tokens)
    n = tokens.size
    if mask is None:
        mask = causal_mask(n)
    if mask.shape != (n, n):
        raise ValueError(f"mask must have shape ({n}, {n})")

    x = model.embedding[tokens]
    traces = []
    for block in model.blocks:
        x = x + _attend(block.attention, x, mask)
        moe_in = rms_norm(x)
        out, probs, selected = moe_forward_full_batch(block.moe, moe_in)
        traces.append(LayerTrace(moe_input=moe_in, probs=probs, selected=selected))
        x = x + out
    logits = rms_norm(x) @ model.head.T
    return ForwardResult(logits=logits, layers=traces)


def tree_mask(n_context: int, tree: DraftTree) -> np.ndarray:
    """Ancestor attention mask for [context tokens] + [tree nodes].

    Context rows are causal among themselves; each tree row attends to the
    whole context, its tree ancestors, and itself.
    """
    n = n_context + tree.size
    mask = np.zeros((n, n), dtype=bool)
    mask[:n_context, :n_context] = causal_mask(n_context)
    for i in range(tree.size):
        row = n_context + i
        mask[row, :n_context] = True
        for node in tree.path_to(i):
            mask[row, n_context + node] = True
    return mask


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
