"""A reference kernel that measures how fast the host runs right now.

Other tenants of a shared host change its speed by up to 40%, in stretches
that last from seconds to minutes, so a run can be slow from its first
operation to its last. No statistic of the timings alone removes that. Timing
a fixed kernel next to every operation does: both slow down together, and an
operation's wall-clock divided by the probe's slowdown reads what it would on
a host where the kernel takes its nominal time.

The kernels are written here in numpy with the shapes of the toy presets
(4 layers, 64 or 128 experts of 32 x 64, top-8 routing). They share no code
with ``moebudget``: a change to the program cannot change the reference.
"""

from __future__ import annotations

import time

import numpy as np

# Each kernel's time on the host named in BENCH_seed.json, rounded.
NOMINAL_S = {"decode": 0.003, "wide": 0.025}

_LAYERS, _EXPERTS, _WIDE_EXPERTS, _D, _FF, _K, _STEPS, _ROWS = 4, 64, 128, 32, 64, 8, 8, 128


class HostRef:
    """A reference kernel of one of two kinds.

    ``decode`` runs ``_STEPS`` one-row decode steps of the miniature decoder:
    interpreter overhead and small BLAS calls, like the decoding and drafting
    workloads. ``wide`` evaluates all 128 experts of a qwen3-toy-shaped layer
    on ``_ROWS`` rows and forms their Gram matrix, as oracle ranking does: a
    few large, memory-bound BLAS calls. A slow stretch slows the two kinds by
    different amounts, and each workload is scaled by the kind it resembles.
    """

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.nominal_s = NOMINAL_S[kind]
        if kind == "decode":
            self._kernel = self._decode
            self.h0 = rng.standard_normal(_D)
            self.router = rng.standard_normal((_LAYERS, _D, _EXPERTS))
            self.w_in = rng.standard_normal((_LAYERS, _EXPERTS, _D, _FF)) / np.sqrt(_D)
            self.w_out = rng.standard_normal((_LAYERS, _EXPERTS, _FF, _D)) / np.sqrt(_FF)
        else:
            self._kernel = self._wide
            self.states = rng.standard_normal((_ROWS, _D))
            self.w_in = rng.standard_normal((_WIDE_EXPERTS * _FF, _D)) / np.sqrt(_D)
            self.w_out = rng.standard_normal((_WIDE_EXPERTS, _D, _FF)) / np.sqrt(_FF)

    def _decode(self) -> None:
        h = self.h0.copy()
        for _ in range(_STEPS):
            for layer in range(_LAYERS):
                logits = h @ self.router[layer]
                top = np.argpartition(logits, -_K)[-_K:]
                gate = np.exp(logits[top] - logits[top].max())
                gate /= gate.sum()
                out = np.zeros(_D)
                for g, e in zip(gate, top):
                    out += g * (np.maximum(h @ self.w_in[layer, e], 0.0) @ self.w_out[layer, e])
                h = np.tanh(h + out)

    def _wide(self) -> None:
        pre = self.states @ self.w_in.T
        act = pre / (1.0 + np.exp(-pre))
        hidden = act.reshape(_ROWS, _WIDE_EXPERTS, _FF).transpose(1, 0, 2)
        flat = np.matmul(hidden, self.w_out.transpose(0, 2, 1)).reshape(_WIDE_EXPERTS, -1)
        _ = flat @ flat.T

    def probe(self) -> float:
        """How many times slower than nominal the host runs right now: the
        kernel's wall-clock over its nominal time."""
        t = time.perf_counter()
        self._kernel()
        return (time.perf_counter() - t) / self.nominal_s
