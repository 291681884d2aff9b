"""Single MoE layer: router, expert networks, mixing weights, full forward.

Every function works on a (T, d_model) batch of token states; a single
token is a batch of one. A layer stores its expert weights once, as two
read-only stacks; the executors read views of them.

The full (unbudgeted) forward is the ground truth that budgeted execution is
measured against. Expert execution is funneled through one grouped executor,
``apply_experts``, so that the full and budgeted code paths perform identical
arithmetic whenever they apply identical (expert, weight) assignments.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .numerics import scratch, softmax, top_k_indices

# Pre-activations per dense-evaluation block (512 KiB of float64): the block
# stays in L2 cache between the first projection, silu and the second.
DENSE_BLOCK_DOUBLES = 1 << 16

__all__ = [
    "MoELayerWeights",
    "RouterWeights",
    "apply_experts",
    "moe_forward_full_batch",
    "route_batch",
    "selection_weights",
]


def silu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Smooth gate nonlinearity used inside every expert.

    x / (1 + e^-x), with the exponent clipped at the float64 overflow edge:
    below -709 the result is about x * e^-709, a tiny normal number of
    magnitude |x| * e^-709, where the true value x * e^x is smaller still.
    The pipeline runs on
    one buffer (``out`` when given) because chained fresh temporaries of
    this size pay more in page faults than the arithmetic costs.
    """
    out = np.negative(x, out=out)
    np.minimum(out, 709.0, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(x, out, out=out)
    return out


@dataclass
class RouterWeights:
    """Per-expert routing vectors plus an additive logit bias.

    The bias is zero for unskewed models; skewed models use it to concentrate
    routing mass on a subset of experts.
    """

    w: np.ndarray  # (n_experts, d_model)
    bias: np.ndarray  # (n_experts,)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.w.ndim != 2:
            raise ValueError("router weight matrix must be 2-D")
        if self.bias.shape != (self.w.shape[0],):
            raise ValueError("router bias length must equal expert count")


@dataclass(frozen=True)
class MoELayerWeights:
    """One MoE layer: its router and its two expert weight stacks.

    Expert e computes ``w_out[e] @ silu(w_in[e] @ h)``. The layer is frozen
    and its stacks read-only C-contiguous float64 (copied when an argument is
    not, or does not own its data), so nothing derived from them goes stale.
    """

    router: RouterWeights
    w_in: np.ndarray  # (n_experts, d_ff, d_model)
    w_out: np.ndarray  # (n_experts, d_model, d_ff)
    renormalize: bool
    k: int
    _stacks: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        n, d = self.router.w.shape
        for name in ("w_in", "w_out"):
            w = np.require(getattr(self, name), np.float64, "CO")
            w.flags.writeable = False
            object.__setattr__(self, name, w)
        if self.w_in.ndim != 3 or self.w_in.shape[0] != n or self.w_in.shape[2] != d:
            raise ValueError(f"w_in must have shape ({n}, d_ff, {d}), got {self.w_in.shape}")
        want = (n, d, self.w_in.shape[1])
        if self.w_out.shape != want:
            raise ValueError(f"w_out must have shape {want}, got {self.w_out.shape}")
        if not (1 <= self.k <= n):
            raise ValueError(f"need 1 <= k <= n_experts, got k={self.k}, n={n}")

    @property
    def n_experts(self) -> int:
        return self.w_in.shape[0]

    @property
    def d_model(self) -> int:
        return self.router.w.shape[1]

    @property
    def d_ff(self) -> int:
        return self.w_in.shape[1]

    @property
    def w_in_stack(self) -> np.ndarray:  # (n_experts, d_ff, d_model)
        """``w_in`` itself: the dense evaluator's first projection."""
        return self.w_in

    @property
    def w_out_stack(self) -> np.ndarray:  # (n_experts, d_ff, d_model), C order
        """Every expert's ``w_out.T``, contiguous per expert, so the dense
        evaluator's second projection is a plain (no-transpose) product of
        each expert block's activations with its slice of this stack. A
        read-only copy built on first use; the layer is frozen and ``w_out``
        read-only, so it never goes stale."""
        if "w_out" not in self._stacks:
            stack = np.ascontiguousarray(self.w_out.transpose(0, 2, 1))
            stack.flags.writeable = False
            self._stacks["w_out"] = stack
        return self._stacks["w_out"]

    @property
    def expert_views(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-expert transposed views ``(w_in[e].T, w_out[e].T)``, lists
        indexed by expert id, so the grouped executor's matmuls see the same
        operands and strides on every call without slicing per call or
        copying the weights."""
        if "views" not in self._stacks:
            self._stacks["views"] = ([w.T for w in self.w_in], [w.T for w in self.w_out])
        return self._stacks["views"]


def route_batch(layer: MoELayerWeights, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Router distribution and natural top-k selection of a (T, d_model)
    batch of token states; a single token is a (1, d_model) batch.

    Returns (probs, selected) of shapes (T, n_experts) and (T, k), the
    selection descending by probability with ties to the lower index.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != layer.d_model:
        raise ValueError(f"states must have shape (T, {layer.d_model}), got {states.shape}")
    logits = states @ layer.router.w.T
    logits += layer.router.bias
    probs = softmax(logits)
    return probs, top_k_indices(probs, layer.k)


def selection_weights(
    probs: np.ndarray, selected: np.ndarray, renormalize: bool
) -> np.ndarray:
    """Mixing weights for (T, j) selections against (T, N) probs: the raw
    routing probabilities, or those renormalized to sum to 1 per token."""
    w = probs[np.arange(selected.shape[0])[:, None], selected]
    if renormalize:
        totals = np.add.reduce(w, axis=-1, keepdims=True)
        if np.logical_or.reduce(totals <= 0.0, axis=None):
            raise ValueError("cannot renormalize: selected probabilities sum to zero")
        w /= totals
    return w


def apply_experts(
    layer: MoELayerWeights,
    states: np.ndarray,
    expert_ids: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Weighted sum of expert outputs per token.

    ``expert_ids`` is a (T, j) integer array with -1 marking inactive slots;
    ``weights`` is (T, j). Tokens whose slots are all inactive produce the
    zero vector. Ids outside -1..n_experts-1, non-integer ids, ``weights``
    of another shape and ``states`` that are not (T, d_model) raise
    ValueError.

    One stable argsort over every slot sorts the inactive slots first and
    each expert's slots, in slot order, into one contiguous group; the group
    bounds are found by bisecting the sorted ids as Python ints. Each
    distinct expert then runs exactly one product per projection over its
    group, and only experts that appear are touched. The products use
    ``ndarray.dot(..., out=)``, which is ``np.dot``'s own C function without
    its Python dispatcher, and issues the same BLAS call on the same
    operands and shapes as ``np.matmul``, so its result is the same bit for
    bit (``tests/test_moe_core.py`` checks this at every group shape the
    presets produce) at less cost per call. When no slot is inactive the
    scatter writes every row of the slot buffer, so the zero-fill is skipped
    and the weights go to the final sum unmasked; both run otherwise.

    A call of one token whose active ids are distinct (every routed
    selection is) skips the sort, the gather and the scatter: each active
    slot runs its two products straight from the token's row into its own
    row of the slot buffer. Every
    group would hold that one slot, so each product is the same M=1
    ``dot`` on the same operands and shapes as the grouped path's, and
    the result is the same bit for bit. Repeated ids take the grouped path:
    one M=2 product over a group can differ in the last bits from two M=1
    products on the same rows.
    """
    if expert_ids.dtype.kind not in "iu":
        raise ValueError(f"expert ids must be integers, got dtype {expert_ids.dtype}")
    weights = np.asarray(weights)
    if expert_ids.ndim != 2 or weights.shape != expert_ids.shape:
        raise ValueError(
            f"expert_ids and weights must be (T, j) arrays of one shape, "
            f"got {expert_ids.shape} and {weights.shape}"
        )
    states = np.asarray(states, dtype=np.float64)
    n_tokens, n_slots = expert_ids.shape
    n_total = n_tokens * n_slots
    d = layer.d_model
    if states.shape != (n_tokens, d):
        raise ValueError(f"states must have shape ({n_tokens}, {d}), got {states.shape}")

    # A lone token's active ids are usually distinct; then every group would
    # be one slot, and each slot runs its products directly.
    direct = False
    if n_tokens == 1:
        ids = expert_ids[0].tolist()
        active = [(slot, e) for slot, e in enumerate(ids) if e >= 0]
        direct = len({e for _, e in active}) == len(active)
        low, high = min(ids, default=0), max(ids, default=0)
    if not direct:
        order = expert_ids.argsort(axis=None, kind="stable")
        ids = expert_ids.ravel()[order].tolist()
        low, high = (ids[0], ids[-1]) if ids else (0, 0)
    if low < -1 or high >= layer.n_experts:
        bad = low if low < -1 else high
        raise ValueError(f"expert id {bad} outside -1..{layer.n_experts - 1}")
    n_inactive = n_slots - len(active) if direct else bisect_left(ids, 0)
    n_active = n_total - n_inactive

    w_in_t, w_out_t = layer.expert_views
    out_slots = scratch("apply_slots", n_total, d)
    if n_inactive:
        out_slots[:] = 0.0
    if direct:
        pre, act = scratch("apply_hidden", 2, n_active, layer.d_ff)
        for i, (_, e) in enumerate(active):
            states.dot(w_in_t[e], out=pre[i:i + 1])
        silu(pre, out=act)
        for i, (slot, e) in enumerate(active):
            act[i:i + 1].dot(w_out_t[e], out=out_slots[slot:slot + 1])
    elif n_active:
        slots = order[n_inactive:]
        rows = states.take(slots // n_slots, axis=0, mode="clip",
                           out=scratch("apply_rows", n_active, d))
        groups = []
        lo = n_inactive
        while lo < n_total:
            e = ids[lo]
            hi = bisect_right(ids, e, lo)
            groups.append((lo - n_inactive, hi - n_inactive, e))
            lo = hi
        pre, act = scratch("apply_hidden", 2, n_active, layer.d_ff)
        for lo, hi, e in groups:
            rows[lo:hi].dot(w_in_t[e], out=pre[lo:hi])
        silu(pre, out=act)
        # The first projection has consumed the gathered rows, so the second
        # writes its outputs over them.
        for lo, hi, e in groups:
            act[lo:hi].dot(w_out_t[e], out=rows[lo:hi])
        out_slots[slots] = rows

    if n_inactive:
        slot_w = np.where(expert_ids >= 0, weights, 0.0)
    else:
        slot_w = np.ascontiguousarray(weights, dtype=np.float64)
    return np.einsum("tjd,tj->td", out_slots.reshape(n_tokens, n_slots, d), slot_w)


def moe_forward_full_batch(
    layer: MoELayerWeights, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unbudgeted layer output for a (T, d_model) batch.

    Returns (outputs, probs, selected); the outputs are the ground truth that
    budgeted execution approximates.
    """
    probs, selected = route_batch(layer, states)
    weights = selection_weights(probs, selected, layer.renormalize)
    return apply_experts(layer, states, selected, weights), probs, selected


def expert_outputs_grouped(
    layer: MoELayerWeights, states: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Every expert's output on every token, grouped by expert:
    shape (n_experts, T, d_model).

    Dense evaluation used by oracle ranking, which needs full model access
    by definition. ``out`` may be a reusable buffer; callers that let the
    result escape must pass a fresh one.

    The experts run in blocks whose (T, block * d_ff) pre-activations hold
    about ``DENSE_BLOCK_DOUBLES`` values, so they stay in cache from the
    first projection through ``silu`` to the second: 4 experts at T=255 and
    d_ff=64, 16 at T=63. Each block takes its columns of the first
    projection, ``states @ w_in_stack.T``, and multiplies its activations by
    its slice of the C-order ``w_out_stack``. At T >= 63 the result equals
    one dgemm over every expert followed by per-expert products with
    transposed ``w_out`` bit for bit; below that the second projection's
    BLAS path can move single elements in the last bits.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2 or states.shape[1] != layer.d_model:
        raise ValueError(f"states must have shape (T, {layer.d_model}), got {states.shape}")
    n, d_ff, d = layer.w_in_stack.shape
    t = states.shape[0]
    if out is None:
        out = np.empty((n, t, d))
    w_in_rows = layer.w_in_stack.reshape(n * d_ff, d)
    block = max(1, DENSE_BLOCK_DOUBLES // max(t * d_ff, 1))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        cols = (hi - lo) * d_ff
        pre = np.matmul(
            states, w_in_rows[lo * d_ff:hi * d_ff].T, out=scratch("dense_pre", t, cols)
        )
        act = silu(pre, out=scratch("dense_act", t, cols))
        hidden = act.reshape(t, hi - lo, d_ff).transpose(1, 0, 2)
        np.matmul(hidden, layer.w_out_stack[lo:hi], out=out[lo:hi])
    return out
