"""Deterministic numeric primitives shared by every module.

All arithmetic is 64-bit float. Ties in every ranking operation are broken
toward the lower index so that repeated runs (and runs split across workers)
produce identical results.

The per-layer and per-step code calls numpy's C entry points directly:
``a.dot(b, out=)`` for ``np.dot``, ndarray methods for the ``np.argsort``,
``np.take``, ``np.argmax``, ``np.argmin`` and ``np.repeat`` functions that
only forward to them, ``np.logical_and.reduce``/``np.logical_or.reduce`` for
``np.all``/``np.any``, and ``np.add.reduce``/``np.maximum.reduce`` for sums
and maxima. Each of those Python wrappers costs a microsecond or so per
call, and a layer pass makes dozens of calls on arrays of a few hundred
entries. The C function behind each wrapper is the one called here, on the
same operands, so every result is the same bit for bit. ``np.einsum`` keeps
its wrapper, because its C entry point is private.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["Rng", "softmax", "top_k_indices"]

_scratch_store = threading.local()

# The size, in entries, from which ``top_k_indices`` sorts with numpy's
# default argsort plus a tie check. The two timing curves cross here, also
# with both sorts called as ndarray methods: the check path takes 14.8 us
# against the stable sort's 13.7 at (16, 64), 15.9 against 15.6 at (18, 64)
# and 13.8 against 14.5 at (8, 128); 8.1 against 1.9 at (1, 64), and 43
# against 112 at (63, 64) (k=8, one core of a shared 2-vCPU Xeon, numpy 2.4).
SORT_CHECK_ENTRIES = 1024


def check_int(name: str, value) -> int:
    """``value`` as an ``int`` when it is a Python or numpy integer;
    otherwise, booleans and integral floats included, a ValueError naming
    ``name``. ``int()`` alone would truncate 1.5 to 1 and take True as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_float(name: str, value) -> float:
    """``value`` as a ``float`` when it is a Python or numpy real number,
    integers included; otherwise, booleans included, a ValueError naming
    ``name``. Arithmetic alone would take True as 1.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def check_bool(name: str, value) -> None:
    """A ValueError naming ``name`` unless ``value`` is a Python or numpy
    boolean. A truth test alone would take 2 or "no" as True."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a boolean, got {value!r}")


def scratch(name: str, *shape: int) -> np.ndarray:
    """Reusable uninitialized buffer for hot-path intermediates.

    Freshly mapped multi-hundred-KB temporaries pay page-fault costs that
    dwarf the arithmetic on them, so frequently-executed code routes its
    large intermediates through named per-thread buffers instead. Each call
    site owns a distinct ``name``; the returned view is invalidated by the
    next request for the same name.
    """
    bufs = getattr(_scratch_store, "bufs", None)
    if bufs is None:
        bufs = _scratch_store.bufs = {}
    need = 1
    for s in shape:
        need *= int(s)
    buf = bufs.get(name)
    if buf is None or buf.size < need:
        buf = bufs[name] = np.empty(max(need, 2 * (buf.size if buf is not None else 0)))
    return buf[:need].reshape(shape)


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax (max-subtraction) along the last axis.

    Raises ``ValueError`` on empty or non-finite input. The shift, the
    exponential and the normalization run in place on one fresh array.
    """
    x = np.asarray(logits, dtype=np.float64)
    if x.size == 0:
        raise ValueError("softmax requires at least one logit")
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise ValueError("softmax input must be finite")
    e = np.subtract(x, np.maximum.reduce(x, axis=-1, keepdims=True))
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def masked_softmax(scores: np.ndarray, blocked: np.ndarray | None) -> np.ndarray:
    """Row-wise softmax of ``scores`` over the entries where ``blocked`` is
    False; blocked entries get probability 0. Every row must have at least
    one unblocked entry. ``blocked`` is None when nothing is blocked.

    Works in place: ``scores`` (a float64 array) is overwritten with the
    probabilities and returned. The steps are those of the allocating form,
    in the same order, so the result is the same bit for bit. Blocked
    entries are set to -inf with ``np.putmask``; with nothing blocked that
    fill would change nothing, so it is skipped.
    """
    if blocked is not None:
        np.putmask(scores, blocked, -np.inf)
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=-1, keepdims=True)
    return scores


def top_k_indices(scores, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries along the last axis, ordered by
    descending score; equal scores rank by ascending index.

    Works on 1-D score vectors and on row batches alike. The result is
    always that of a stable argsort of the negated scores, whose stability
    keeps ties in ascending index order, the fixed tie rule. Arrays below
    ``SORT_CHECK_ENTRIES`` entries take that sort directly. Larger ones take
    numpy's default (vectorized, unstable) argsort, then re-sort stably only
    the rows whose first k + 1 sorted (negated) scores are not strictly
    increasing. In every other row the k largest scores are distinct and
    each exceeds every score left out, so any correct sort puts the same k
    indices first, in the same order. Ties, -0.0 against 0.0, and NaN (which
    never compares greater, and which every numpy sort puts last) in the
    first k + 1 all fail the check.
    """
    s = np.asarray(scores, dtype=np.float64)
    n = s.shape[-1]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds number of scores {n}")
    if s.size < SORT_CHECK_ENTRIES:
        return np.negative(s).argsort(axis=-1, kind="stable")[..., :k]
    rows = np.negative(s).reshape(-1, n)
    order = rows.argsort(axis=-1)
    head = rows.take(order[:, : k + 1] + np.arange(0, rows.size, n)[:, None])
    increasing = np.logical_and.reduce(head[:, 1:] > head[:, :-1], axis=-1)
    if not np.logical_and.reduce(increasing):
        tied = ~increasing
        order[tied] = rows[tied].argsort(axis=-1, kind="stable")
    return order.reshape(s.shape)[..., :k]


class Rng:
    """Seeded, splittable random stream backed by the Philox counter-based
    bit generator.

    The stream is identified by ``(seed, path)``: equal identifiers produce
    bit-identical output on every platform, and distinct substream paths are
    statistically independent, so parallel sweeps can draw from substreams
    keyed by cell identity instead of execution order.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = check_int("seed", seed)
        self.path = tuple(check_int("substream index", p) for p in path)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def substream(self, *indices: int) -> "Rng":
        """Independent child stream addressed by ``indices``."""
        return Rng(self.seed, self.path + indices)

    def normal(self, size=None, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size)

    def integers(self, low: int, high: int | None = None, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size)

    def random(self, size=None):
        return self._gen.random(size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed}, path={self.path})"
