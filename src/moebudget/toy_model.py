"""Small L-layer causal MoE transformer: target model, derived draft model,
and ``TreeDecoder``, the one engine every forward runs on: one causal-row
path (prefill, prefix growth, calibration) and one tree-row path (drafting,
verification, the tree captures), each handing ``run_rows`` one mask.

The architecture is deliberately minimal: single-head attention, RMS-style
scale-only normalization, no positional encoding beyond the mask. Because
positions enter only through the attention mask, a tree row computed under
ancestor masking is arithmetically the causal forward of its root-to-node
path, which is what makes tree verification exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .moe_core import MoELayerWeights, RouterWeights, moe_forward_full_batch
from .numerics import Rng, check_bool, check_float, check_int, constant, masked_softmax, scratch

__all__ = [
    "DraftSpec",
    "ModelConfig",
    "MoEModel",
    "PRESETS",
    "TreeDecoder",
    "build_target",
    "causal_mask",
    "derive_draft",
    "preset_config",
    "random_tokens",
]

RMS_EPS = 1e-8
_RMS_EPS = constant(RMS_EPS)
_WIDTHS: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # d -> constants d, sqrt(d)
KV_ROWS = 256  # rows a TreeDecoder's K/V store holds before it first doubles

# Expert-count presets mirroring common production shapes at toy width.
PRESETS: dict[str, dict] = {
    "olmoe-toy": {"n_experts": 64, "top_k": 8, "renormalize": True},
    "qwen3-toy": {"n_experts": 128, "top_k": 8, "renormalize": False},
    "mixtral-toy": {"n_experts": 8, "top_k": 2, "renormalize": True},
}


@dataclass(frozen=True)
class ModelConfig:
    """The target model's shape, routing and seed; checked when built, so a
    ModelConfig that exists is valid."""

    d_model: int = 32
    d_ff: int = 64
    n_experts: int = 64
    top_k: int = 8
    n_layers: int = 4
    vocab_size: int = 256
    renormalize: bool = True
    skew: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("d_model", "d_ff", "n_experts", "top_k", "n_layers", "vocab_size", "seed"):
            check_int(name, getattr(self, name))
        check_bool("renormalize", self.renormalize)
        if self.top_k > self.n_experts:
            raise ValueError("top_k must not exceed n_experts")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if self.d_model < 1 or self.d_ff < 1:
            raise ValueError("d_model and d_ff must be >= 1")
        skew = check_float("skew", self.skew)
        if not np.isfinite(skew) or skew < 0:
            raise ValueError(f"skew must be finite and >= 0, got {self.skew}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def preset_config(name: str) -> ModelConfig:
    """ModelConfig for a named expert-shape preset."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return replace(ModelConfig(), **PRESETS[name])


@dataclass(frozen=True)
class DraftSpec:
    """How the draft model is derived from the target: a relative Gaussian
    perturbation of every block weight. Checked when built."""

    noise_std: float = 0.05

    def __post_init__(self):
        noise_std = check_float("noise_std", self.noise_std)
        if not np.isfinite(noise_std) or noise_std < 0:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")


@dataclass
class AttentionWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray


@dataclass
class TransformerBlock:
    attention: AttentionWeights
    moe: MoELayerWeights


@dataclass
class MoEModel:
    config: ModelConfig
    embedding: np.ndarray  # (vocab_size, d_model)
    blocks: list[TransformerBlock]
    head: np.ndarray  # (vocab_size, d_model)

    @property
    def n_layers(self) -> int:
        return len(self.blocks)


def _width(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants ``d`` and ``sqrt(d)`` of a row width, built once per
    width. ``math.sqrt`` and ``np.sqrt`` are both correctly rounded, so the
    two agree on every integer ``d``."""
    try:
        return _WIDTHS[d]
    except KeyError:
        return _WIDTHS.setdefault(d, (constant(d), constant(math.sqrt(d))))


def rms_norm(x: np.ndarray) -> np.ndarray:
    """Scale-only normalization: x / sqrt(mean(x^2) + eps)."""
    # add.reduce / d is np.mean's own arithmetic without its wrapper cost;
    # the steps after the square run in place, the last into its array.
    sq = np.square(x)
    ms = np.add.reduce(sq, axis=-1, keepdims=True)
    ms /= _width(x.shape[-1])[0]
    ms += _RMS_EPS
    np.sqrt(ms, out=ms)
    return np.divide(x, ms, out=sq)


def random_tokens(rng: Rng, length: int, vocab_size: int) -> np.ndarray:
    """Seeded uniform token sequence, the prompt/calibration generator."""
    return rng.integers(0, vocab_size, size=length)


def _gaussian(rng: Rng, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    return rng.normal(size=shape, scale=1.0 / np.sqrt(fan_in))


def _router_bias(rng: Rng, n_experts: int, skew: float) -> np.ndarray:
    """Additive logit bias b = skew * log(1/(rank+1)) under a seeded random
    expert permutation; skew=0 leaves experts exchangeable, larger skew
    concentrates routing mass on the low-rank experts."""
    perm = rng.permutation(n_experts)  # perm[r] = expert holding rank r
    rank = np.empty(n_experts, dtype=np.int64)
    rank[perm] = np.arange(n_experts)
    return -skew * np.log(rank + 1.0)


def build_target(config: ModelConfig) -> MoEModel:
    """Deterministically build the target model from its config.

    All weights are i.i.d. Gaussian scaled by 1/sqrt(fan_in), drawn from
    substreams keyed by component (each expert's matrix from its own, into
    its slice of the layer's stack) so the layout is stable under refactoring.
    """
    root = Rng(config.seed)
    d, dff, n, v = config.d_model, config.d_ff, config.n_experts, config.vocab_size

    embedding = _gaussian(root.substream(0), (v, d), d)
    head = _gaussian(root.substream(1), (v, d), d)

    blocks = []
    for layer in range(config.n_layers):
        lr = root.substream(2, layer)
        attn = AttentionWeights(
            wq=_gaussian(lr.substream(0), (d, d), d),
            wk=_gaussian(lr.substream(1), (d, d), d),
            wv=_gaussian(lr.substream(2), (d, d), d),
            wo=_gaussian(lr.substream(3), (d, d), d),
        )
        router = RouterWeights(
            w=_gaussian(lr.substream(4), (n, d), d),
            bias=_router_bias(lr.substream(5), n, config.skew),
        )
        w_in, w_out = np.empty((n, dff, d)), np.empty((n, d, dff))
        for e in range(n):
            w_in[e] = _gaussian(lr.substream(6, e), (dff, d), d)
            w_out[e] = _gaussian(lr.substream(7, e), (d, dff), dff)
        moe = MoELayerWeights(router, w_in, w_out, config.renormalize, config.top_k)
        blocks.append(TransformerBlock(attention=attn, moe=moe))
    return MoEModel(config=config, embedding=embedding, blocks=blocks, head=head)


def _perturb(w: np.ndarray, noise_std: float, rng: Rng) -> np.ndarray:
    scale = noise_std * float(np.std(w))
    return w + rng.normal(size=w.shape, scale=1.0) * scale


def derive_draft(target: MoEModel, spec: DraftSpec, rng: Rng) -> MoEModel:
    """Draft model: the target with every block weight matrix (each
    expert's own slice of a stack) perturbed by Gaussian noise with std
    ``noise_std`` times that matrix's weight std.

    Embedding and output head are retained unperturbed so draft and target
    share the token interface. noise_std=0 reproduces the target exactly.
    """
    blocks = []
    for layer, src in enumerate(target.blocks):
        lr = rng.substream(layer)
        attn = AttentionWeights(
            wq=_perturb(src.attention.wq, spec.noise_std, lr.substream(0)),
            wk=_perturb(src.attention.wk, spec.noise_std, lr.substream(1)),
            wv=_perturb(src.attention.wv, spec.noise_std, lr.substream(2)),
            wo=_perturb(src.attention.wo, spec.noise_std, lr.substream(3)),
        )
        router = RouterWeights(
            w=_perturb(src.moe.router.w, spec.noise_std, lr.substream(4)),
            bias=src.moe.router.bias.copy(),
        )
        w_in, w_out = np.empty_like(src.moe.w_in), np.empty_like(src.moe.w_out)
        for e in range(src.moe.n_experts):
            w_in[e] = _perturb(src.moe.w_in[e], spec.noise_std, lr.substream(5, e))
            w_out[e] = _perturb(src.moe.w_out[e], spec.noise_std, lr.substream(6, e))
        moe = MoELayerWeights(router, w_in, w_out, src.moe.renormalize, src.moe.k)
        blocks.append(TransformerBlock(attention=attn, moe=moe))

    return MoEModel(
        config=target.config,
        embedding=target.embedding.copy(),
        blocks=blocks,
        head=target.head.copy(),
    )


# ---------------------------------------------------------------------------
# Incremental forward
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def causal_mask(n: int) -> np.ndarray:
    """Lower-triangular attention mask: position i attends to 0..i.

    Built once per recent length, so a steady one-token append builds none,
    and read-only, because every caller of a length shares one array."""
    mask = np.tri(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _check_tokens(model: MoEModel, tokens) -> np.ndarray:
    """``tokens`` as int64 ids, or ValueError: they must be a non-empty 1-D
    sequence of integers (not booleans) inside the vocabulary."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ValueError("tokens must be a non-empty 1-D sequence")
    if tokens.dtype.kind not in "iu":
        raise ValueError(f"tokens must be integer ids, got dtype {tokens.dtype}")
    ids = tokens.tolist()
    if min(ids) < 0 or max(ids) >= model.config.vocab_size:
        raise ValueError("token id out of vocabulary range")
    return tokens.astype(np.int64, copy=False)


class TreeDecoder:
    """Incremental forward over a causal prefix plus a growing token tree.

    This is the lab's one execution engine: every forward runs through
    ``run_rows`` by one of two paths. Causal rows (the prefill and
    ``append_tokens``) grow the prefix; tree rows (``extend`` and
    ``extend_tree``) each attend to the prefix, their ancestors and
    themselves. A ``moe_hook`` on the prefill or on ``extend_tree`` replaces
    the full-capacity MoE sublayers; verification, calibration and the
    offline captures run that way, each through ``coverage.budgeted_moe``.
    Under ancestor masking, already-computed rows never change when new rows
    are appended, so each extension only computes the new rows against
    cached per-layer keys/values. Numerically this matches a one-shot
    forward of the whole masked sequence to floating-point roundoff.

    Every layer's keys and values live in one growable store of shape
    ``(n_layers, 2, capacity, d_model)``; ``n_rows`` is the one count of
    valid rows, the causal prefix (``causal_len`` rows) followed by the
    tree. Rows at or past ``n_rows`` are free space that the next
    ``run_rows`` overwrites.

    Which tree rows a row attends to lives in one boolean ancestor matrix
    over the tree rows: row i is True at i's ancestors and i itself. The
    tree-row path is its one writer: each new row is its parent's row plus
    itself, filled batch level by batch level, so a parent may be a row of
    the same batch. Rows are overwritten whole when appended again, so
    ``rollback`` drops the whole tree by resetting ``n_rows`` alone.

    One decoder serves a whole generation loop: draft a tree, roll it back,
    append the accepted tokens to the causal prefix, draft the next tree.
    ``fork`` copies a bare prefix into a second decoder, so that loops which
    share a history can part without recomputing it.
    """

    def __init__(self, model: MoEModel, context_tokens, moe_hook=None):
        """Prefill ``context_tokens`` causally; ``moe_hook`` runs the prefill's
        MoE sublayers as in ``run_rows``."""
        self.model = model
        context_tokens = _check_tokens(model, context_tokens)
        self.causal_len = self.n_rows = 0
        self._anc = np.zeros((0, 0), dtype=bool)  # tree-row ancestor matrix
        self._kv = np.empty((model.n_layers, 2, KV_ROWS, model.config.d_model))
        self._causal_rows(context_tokens, moe_hook)

    def run_rows(self, tokens: np.ndarray, mask: np.ndarray, moe_hook=None) -> np.ndarray:
        """Compute a batch of new rows against the cached rows; returns logits.

        ``tokens`` are int64 ids already checked by the public entry point.
        Every new row attends to the whole causal prefix; ``mask`` is the
        (r, n_rows - causal_len + r) attention mask over the rows after it:
        the cached tree rows, then the new rows themselves. ``moe_hook(
        layer_index, layer, states) -> out``, the (r, d_model) layer output,
        overrides the full-capacity MoE sublayer for the new rows
        (``coverage.budgeted_moe`` builds the hooks that verification,
        calibration and the captures pass here).

        Each layer writes its two score products, against the cached keys
        and against the new rows' own keys, into the two column blocks of
        one (r, n_rows + r) buffer with ``np.matmul(out=)``; scaling and
        ``masked_softmax`` then work on that buffer in place, under a
        blocked-entry mask built once per call, and only when ``mask``
        blocks something: a lone causal row and a tree root block nothing,
        and a fill that changes nothing is skipped. The two score products,
        and the two value products, keep their own shapes: a BLAS result can
        depend on the operand shape, and one merged score product changes
        bits at most (rows, cached) shapes. The projections use
        ``ndarray.dot``, keys and values straight into the K/V store; like
        the ``out=`` products, they equal a plain ``@`` bit for bit at every
        decoder shape (``tests/test_toy_model.py`` checks them).
        """
        r = tokens.size
        cached = self.n_rows
        n = cached + r
        d = self.model.config.d_model
        if n > self._kv.shape[2]:
            grown = np.empty(self._kv.shape[:2] + (max(n, 2 * self._kv.shape[2]), d))
            grown[:, :, :cached] = self._kv[:, :, :cached]
            self._kv = grown
        kv = self._kv
        blocked = None
        if not np.logical_and.reduce(mask, axis=None):
            blocked = np.zeros((r, n), dtype=bool)
            np.logical_not(mask, out=blocked[:, self.causal_len:])
        scores = scratch("scores", r, n)
        scale = _width(d)[1]
        x = self.model.embedding[tokens]
        for li, block in enumerate(self.model.blocks):
            attn = block.attention
            keys, values = kv[li, 0, :n], kv[li, 1, :n]
            xn = rms_norm(x)
            q = xn.dot(attn.wq.T)
            xn.dot(attn.wk.T, out=keys[cached:])
            xn.dot(attn.wv.T, out=values[cached:])
            np.matmul(q, keys[:cached].T, out=scores[:, :cached])
            np.matmul(q, keys[cached:].T, out=scores[:, cached:])
            scores /= scale
            w = masked_softmax(scores, blocked)
            att = np.matmul(w[:, :cached], values[:cached])
            att += np.matmul(w[:, cached:], values[cached:])
            x += att.dot(attn.wo.T)
            moe_in = rms_norm(x)
            if moe_hook is None:
                out, _, _ = moe_forward_full_batch(block.moe, moe_in)
            else:
                out = moe_hook(li, block.moe, moe_in)
            x += out
        # The new rows count only once every layer has run, so a hook that
        # raises leaves them as free space and the decoder as it was.
        self.n_rows += r
        return rms_norm(x) @ self.model.head.T

    def extend(self, tokens, parents) -> np.ndarray:
        """Append one tree level and return its (r, vocab) logits.

        ``parents`` holds, per new node, the tree-row index of its parent
        (0 is the first row after the causal prefix), or -1 for nodes
        hanging directly off the prefix end; anything else, non-integer and
        boolean parents included, raises ValueError before any state changes.
        Rows within one extension never attend to each other.
        """
        tokens = _check_tokens(self.model, tokens)
        parents = np.asarray(parents)
        # Checked before the int64 coercion, which would truncate 0.9 to 0.
        if parents.size and parents.dtype.kind not in "iu":
            raise ValueError(f"parents must be integers, got dtype {parents.dtype}")
        parents = parents.astype(np.int64, copy=False)
        t0 = self.n_rows - self.causal_len
        if parents.shape != tokens.shape or not np.logical_and.reduce(
            (parents >= -1) & (parents < t0)
        ):
            raise ValueError(
                f"parents must hold one entry per token, each -1 or a tree row in "
                f"0..{t0 - 1}; got {parents.tolist()}"
            )
        return self._tree_rows(tokens, parents)

    def extend_tree(self, tree, moe_hook=None) -> np.ndarray:
        """Append a whole drafted tree in one batch and return its logits.

        Every node attends to the full causal prefix, its ancestors within
        the batch, and itself. Valid only on a bare prefix.
        """
        if self.n_rows != self.causal_len:
            raise ValueError("extend_tree requires a bare causal prefix")
        return self._tree_rows(_check_tokens(self.model, tree.tokens), tree.parents, moe_hook)

    def _tree_rows(self, tokens: np.ndarray, parents: np.ndarray, moe_hook=None) -> np.ndarray:
        """Append tree rows and return their logits; ``parents`` holds each
        row's parent tree row, earlier or in this batch, or -1."""
        t0 = self.n_rows - self.causal_len
        end = t0 + tokens.size
        rows = np.arange(t0, end)
        anc = self._anc
        if end > anc.shape[0]:
            grown = np.zeros((max(end, 2 * anc.shape[0]),) * 2, dtype=bool)
            grown[: anc.shape[0], : anc.shape[0]] = anc
            self._anc = anc = grown
        anc[rows] = False
        anc[rows, rows] = True
        # Level by level, each row adds its parent's finished row.
        inside = parents >= t0
        at = np.where(inside, parents - t0, 0)  # an inside parent's batch index
        level = ~inside
        while np.logical_or.reduce(level):
            hung = level & (parents >= 0)
            anc[rows[hung]] |= anc[parents[hung]]
            level = inside & level[at]
        return self.run_rows(tokens, anc[t0:end, :end], moe_hook)

    def _causal_rows(self, tokens: np.ndarray, moe_hook=None) -> np.ndarray:
        """Grow the causal prefix by ``tokens``, causal among themselves;
        returns the last token's logits. Valid only on a bare prefix."""
        logits = self.run_rows(tokens, causal_mask(tokens.size), moe_hook)
        self.causal_len += tokens.size
        self.context_logits = logits[-1]
        return logits[-1]

    def rollback(self) -> None:
        """Drop every tree row, leaving the bare causal prefix."""
        self.n_rows = self.causal_len

    def fork(self) -> "TreeDecoder":
        """An independent decoder over a copy of this bare prefix: the same
        K/V store, ``causal_len`` and ``context_logits``, so both give the
        same results from here on. Valid only on a bare prefix."""
        if self.n_rows != self.causal_len:
            raise ValueError("fork requires a bare causal prefix")
        twin = object.__new__(TreeDecoder)
        twin.__dict__.update(self.__dict__)
        twin._kv = np.empty_like(self._kv)
        twin._kv[:, :, : self.n_rows] = self._kv[:, :, : self.n_rows]
        twin._anc = self._anc.copy()
        return twin

    def append_tokens(self, tokens) -> np.ndarray:
        """Grow the causal prefix by a run of tokens (causal among
        themselves); returns the last token's logits.

        Only valid when no tree rows are present (roll the tree back first).
        """
        if self.n_rows != self.causal_len:
            raise ValueError("cannot append to the prefix while tree rows exist")
        return self._causal_rows(_check_tokens(self.model, tokens))
