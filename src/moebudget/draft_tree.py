"""Draft-tree construction and the expert-union statistics that motivate
budgeting.

Trees use a static multiplicative topology: a single root drafted at the
context end, then every node at depth j receives ``branching[j]`` children,
each chosen greedily from the draft model's logits under tree attention.
The sweep sizes 1, 3, 7, ..., 255 are the binary-branching family, and
binary trees of different depths nest, which keeps union growth monotone
per prompt, not just on average.

``tree_routing`` is the one teacher-forced capture of a tree under the full
target: the per-layer MoE inputs and natural routing of the tree rows that
the union statistics, the reconstruction analysis and the CLI's coverage and
co-activation records all read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, top_k_indices
from .toy_model import LayerTrace, MoEModel, TreeDecoder, causal_mask, forward, random_tokens

__all__ = [
    "DraftTree",
    "binary_branching",
    "build_tree",
    "expert_union",
    "tree_mask",
    "tree_routing",
    "union_growth_curve",
]

DEFAULT_CONTEXT_LEN = 16


@dataclass
class DraftTree:
    """M drafted nodes in topological order; parents[i] == -1 marks the root."""

    tokens: np.ndarray  # (M,) vocab ids
    parents: np.ndarray  # (M,) index of parent node, -1 for the root
    depths: np.ndarray  # (M,) root depth 0
    branching: tuple[int, ...]

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.parents = np.asarray(self.parents, dtype=np.int64)
        self.depths = np.asarray(self.depths, dtype=np.int64)
        m = self.tokens.size
        if m == 0:
            raise ValueError("tree must have at least the root node")
        if np.count_nonzero(self.parents == -1) != 1 or self.parents[0] != -1:
            raise ValueError("tree must have exactly one root at index 0")
        if np.any(self.parents >= np.arange(m)):
            raise ValueError("parents must precede children (topological order)")
        expected = np.where(self.parents == -1, 0, self.depths[self.parents] + 1)
        if np.any(self.depths != expected):
            raise ValueError("depth(child) must equal depth(parent) + 1")

    @property
    def size(self) -> int:
        return int(self.tokens.size)

    @property
    def depth(self) -> int:
        return int(self.depths.max())

    def path_to(self, node: int) -> list[int]:
        """Node indices from the root to ``node`` inclusive."""
        path = []
        i = int(node)
        while i != -1:
            path.append(i)
            i = int(self.parents[i])
        return path[::-1]


def binary_branching(size: int) -> tuple[int, ...]:
    """Branching factors of the nested binary family: size must be 2^j - 1."""
    if size < 1 or (size + 1) & size:
        raise ValueError(f"binary tree size must be 2^j - 1, got {size}")
    return (2,) * (size.bit_length() - 1)


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


def expand_tree(decoder: TreeDecoder, branching) -> DraftTree:
    """Grow a tree on an existing decoder whose prefix is the context.

    The root is the draft model's top token at the prefix end; thereafter
    each frontier node at depth j spawns ``branching[j]`` children, the
    top-scoring tokens of the draft logits at that node.
    """
    branching = tuple(int(b) for b in branching)
    if any(b < 1 for b in branching):
        raise ValueError("branching factors must be >= 1")
    if any(b > decoder.model.config.vocab_size for b in branching):
        raise ValueError("branching factor exceeds vocabulary size")

    base = decoder.causal_len
    root_token = int(np.argmax(decoder.context_logits))
    tokens = [root_token]
    parents = [-1]
    depths = [0]
    frontier = [0]
    frontier_logits = decoder.extend([root_token], [-1])

    for depth, b in enumerate(branching):
        new_tokens: list[int] = []
        new_parents: list[int] = []
        for node, logits in zip(frontier, frontier_logits):
            for tok in top_k_indices(logits, b):
                new_tokens.append(int(tok))
                new_parents.append(node)
        start = len(tokens)
        tokens.extend(new_tokens)
        parents.extend(new_parents)
        depths.extend([depth + 1] * len(new_tokens))
        frontier = list(range(start, len(tokens)))
        # Parent rows are absolute: prefix rows occupy 0..base-1.
        frontier_logits = decoder.extend(new_tokens, [base + p for p in new_parents])

    return DraftTree(
        tokens=np.array(tokens),
        parents=np.array(parents),
        depths=np.array(depths),
        branching=branching,
    )


def build_tree(draft: MoEModel, context_tokens, branching) -> DraftTree:
    """Breadth-first greedy tree expansion with the draft model.

    Fully deterministic given (draft weights, context, branching).
    """
    return expand_tree(TreeDecoder(draft, context_tokens), branching)


def tree_routing(target: MoEModel, context_tokens, tree: DraftTree) -> list[LayerTrace]:
    """Teacher-forced capture of the tree rows under the full target, one
    LayerTrace per MoE layer: the states each MoE sublayer consumed and the
    natural routing they induced (no budgeting)."""
    context_tokens = np.asarray(context_tokens, dtype=np.int64)
    n = context_tokens.size
    result = forward(target, np.concatenate([context_tokens, tree.tokens]), tree_mask(n, tree))
    return [LayerTrace(t.moe_input[n:], t.probs[n:], t.selected[n:]) for t in result.layers]


def expert_union(routing: list[LayerTrace], layer: int) -> np.ndarray:
    """Sorted union of every node's selected experts at ``layer``."""
    return np.unique(routing[layer].selected)


def union_growth_curve(
    target: MoEModel,
    draft: MoEModel,
    sizes,
    n_trees: int = 20,
    rng: Rng | None = None,
    context_len: int = DEFAULT_CONTEXT_LEN,
) -> dict[int, np.ndarray]:
    """Mean unique-expert count per layer as a function of tree size.

    For each size, ``n_trees`` seeded prompts are drafted into trees and
    verified (routing only) by the target; returns {size: per-layer means}.
    """
    sizes = [int(s) for s in sizes]
    if sizes != sorted(sizes):
        raise ValueError("tree sizes must be ascending")
    rng = rng if rng is not None else Rng(0)
    vocab = target.config.vocab_size

    curve: dict[int, np.ndarray] = {}
    for size in sizes:
        branching = binary_branching(size)
        counts = np.zeros((n_trees, target.n_layers))
        for t in range(n_trees):
            context = random_tokens(rng.substream(t), context_len, vocab)
            tree = build_tree(draft, context, branching)
            routing = tree_routing(target, context, tree)
            counts[t] = [expert_union(routing, l).size for l in range(target.n_layers)]
        curve[size] = counts.mean(axis=0)
    return curve
