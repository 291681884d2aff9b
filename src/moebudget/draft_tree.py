"""Draft-tree construction and the teacher-forced routing capture of a tree.

A tree is its tokens and parents, in topological order. ``expand_tree``
drafts a root at the context end, then gives every node at depth j
``branching[j]`` children, chosen greedily from the draft model's logits
under tree attention. It runs the draft model once per level that gets
children; the leaves' logits would never be read, so they never run.
The sweep sizes 1, 3, 7, ..., 255 are the binary-branching family, and
binary trees of different depths nest, which keeps the union of selected
experts monotone in tree size per prompt, not just on average.

``tree_routing`` is the one teacher-forced capture of a tree under the full
target: one full-capacity ``coverage.budgeted_moe`` record per layer. Its
one caller in the package is ``cli._captures``, which drafts the trees of
``coverage`` and reads their natural routing over the tree rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coverage import LayerBudget, budgeted_moe
from .numerics import check_int, top_k_indices
from .toy_model import MoEModel, TreeDecoder

__all__ = [
    "DraftTree",
    "binary_branching",
    "build_tree",
    "tree_routing",
]


@dataclass
class DraftTree:
    """M drafted nodes in topological order; parents[i] == -1 marks the root."""

    tokens: np.ndarray  # (M,) vocab ids
    parents: np.ndarray  # (M,) index of parent node, -1 for the root
    depths: np.ndarray = field(init=False)  # (M,) root depth 0, derived from parents

    def __post_init__(self):
        for name in ("tokens", "parents"):
            values = np.asarray(getattr(self, name))
            # Checked before the int64 coercion, which would truncate 1.7 to 1.
            if values.size and values.dtype.kind not in "iu":
                raise ValueError(f"{name} must be integers, got dtype {values.dtype}")
            setattr(self, name, values.astype(np.int64, copy=False))
        if self.tokens.ndim != 1 or self.parents.shape != self.tokens.shape:
            raise ValueError("tokens and parents must be 1-D and of one length")
        m = self.tokens.size
        if m == 0:
            raise ValueError("tree must have at least the root node")
        rest = self.parents[1:]
        if self.parents[0] != -1 or -1 in rest:
            raise ValueError("tree must have exactly one root at index 0")
        if np.logical_or.reduce((rest < 0) | (rest >= np.arange(1, m))):
            raise ValueError("parents must precede children (topological order)")
        parents = self.parents.tolist()
        depths = [0] * m
        for i in range(1, m):
            depths[i] = depths[parents[i]] + 1
        self.depths = np.array(depths, dtype=np.int64)

    @property
    def size(self) -> int:
        return int(self.tokens.size)

    @property
    def depth(self) -> int:
        return int(np.maximum.reduce(self.depths))

    def path_to(self, node: int) -> list[int]:
        """Node indices from the root to ``node`` inclusive."""
        parents = self.parents.tolist()
        path = []
        i = int(node)
        while i != -1:
            path.append(i)
            i = parents[i]
        return path[::-1]


def binary_branching(size: int) -> tuple[int, ...]:
    """Branching factors of the nested binary family: size must be an
    integer 2^j - 1."""
    size = check_int("tree_size", size)
    if size < 1 or (size + 1) & size:
        raise ValueError(f"binary tree size must be 2^j - 1, got {size}")
    return (2,) * (size.bit_length() - 1)


def expand_tree(decoder: TreeDecoder, branching) -> DraftTree:
    """Grow a tree on an existing decoder whose prefix is the context.

    The root is the draft model's top token at the prefix end; thereafter
    each frontier node at depth j spawns ``branching[j]`` children, the
    top-scoring tokens of the draft logits at that node. Only levels that
    get children run through the draft model, one ``extend`` each, so the
    decoder is left holding the interior rows only; callers roll it back.
    Branching factors must be integers, not booleans, from 1 to the
    vocabulary size; anything else raises ValueError.
    """
    branching = tuple(check_int("branching factor", b) for b in branching)
    if any(b < 1 for b in branching):
        raise ValueError("branching factors must be >= 1")
    if any(b > decoder.model.config.vocab_size for b in branching):
        raise ValueError("branching factor exceeds vocabulary size")
    # The tree's node indices are its tree rows, so it must start at row 0.
    if decoder.n_rows != decoder.causal_len:
        raise ValueError("expand_tree requires a bare causal prefix")

    root_token = int(decoder.context_logits.argmax())
    tokens = [root_token]
    parents = [-1]
    frontier = np.zeros(1, dtype=np.int64)
    level_tokens, new_parents = [root_token], [-1]

    for b in branching:
        frontier_logits = decoder.extend(level_tokens, new_parents)
        # Row f of the level's top-k holds frontier node f's children, best first.
        level_tokens = top_k_indices(frontier_logits, b).ravel()
        new_parents = frontier.repeat(b)
        start = len(tokens)
        tokens.extend(level_tokens.tolist())
        parents.extend(new_parents.tolist())
        frontier = np.arange(start, len(tokens))

    return DraftTree(tokens=np.array(tokens), parents=np.array(parents))


def build_tree(draft: MoEModel, context_tokens, branching) -> DraftTree:
    """Breadth-first greedy tree expansion with the draft model.

    Fully deterministic given (draft weights, context, branching).
    """
    return expand_tree(TreeDecoder(draft, context_tokens), branching)


def tree_routing(target: MoEModel, context_tokens, tree: DraftTree) -> list[LayerBudget]:
    """Teacher-forced capture of the tree rows under the full target, one
    full-capacity LayerBudget per MoE layer: the states each MoE sublayer
    consumed and the natural routing they induced."""
    hook, layers = budgeted_moe()
    TreeDecoder(target, context_tokens).extend_tree(tree, hook)
    return layers
