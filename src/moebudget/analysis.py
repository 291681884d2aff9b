"""Offline analytics over routing records and sweep rows: coverage curves
and Pareto tables.

A coverage curve reads one layer's (tokens, n_experts) routing
probabilities, whether they come from the lab's own trees or from an
external trace file (JSON lines, one record per token and layer, parsed by
``read_trace``), so logs from real systems are analyzed with the same code
the toy lab uses. This module builds no model and drafts no tree.
"""

from __future__ import annotations

import json

import numpy as np

from .numerics import top_k_indices
from .simulator import CELL_COORDS

__all__ = [
    "cell_summaries",
    "coverage_curve",
    "pareto_table",
    "read_trace",
]


# ---------------------------------------------------------------------------
# Coverage curves
# ---------------------------------------------------------------------------


def coverage_curve(tree_probs: np.ndarray) -> np.ndarray:
    """Cumulative aggregate routing probability captured by the top-B
    experts of one layer's (M, n_experts) tree routing: an (n_experts,)
    array whose entry B-1 is the coverage at budget B."""
    scores = np.asarray(tree_probs, dtype=np.float64).sum(axis=0)
    total = scores.sum()
    if total <= 0:
        raise ValueError("routing mass must be positive")
    order = top_k_indices(scores, scores.size)
    return np.cumsum(scores[order]) / total


# ---------------------------------------------------------------------------
# Pareto table
# ---------------------------------------------------------------------------


def cell_summaries(rows) -> list[dict]:
    """Sweep rows aggregated over seeds: one dict per cell, in cell-key
    order, with the cell's coordinates, its seed count and the mean (and
    speedup spread) of each reported metric."""
    by_cell: dict[tuple, list] = {}
    for r in rows:
        by_cell.setdefault(r.cell.key(), []).append(r)

    out = []
    for key in sorted(by_cell):
        group = by_cell[key]
        out.append(
            {
                **{name: getattr(group[0].cell, name) for name in CELL_COORDS},
                "seeds": len(group),
                "speedup_mean": float(np.mean([r.speedup for r in group])),
                "speedup_std": float(np.std([r.speedup for r in group])),
                "mean_tau": float(np.mean([r.mean_tau for r in group])),
                "mean_unique_experts": float(np.mean([r.mean_unique_experts for r in group])),
                "ar_match_rate_mean": float(np.mean([r.ar_match_rate for r in group])),
            }
        )
    return out


def pareto_table(rows) -> list[dict]:
    """Quality-versus-speedup rows normalized to the AR baseline.

    ``rows`` are sweep rows; quality is the exact-match rate of each cell's
    token stream against AR greedy (the strictest drift proxy the toy has).
    Cells are aggregated over seeds by ``cell_summaries`` and sorted by
    speedup.
    """
    rows = list(rows)
    if not any(r.cell.mode == "ar" for r in rows):
        raise ValueError("pareto table requires AR baseline cells in the sweep")
    table = [
        {
            **{name: cell[name] for name in CELL_COORDS},
            "speedup": cell["speedup_mean"],
            "quality_pct": cell["ar_match_rate_mean"] * 100.0,
        }
        for cell in cell_summaries(rows)
    ]
    table.sort(key=lambda r: (r["speedup"], str(r)))
    return table


# ---------------------------------------------------------------------------
# External trace ingestion
# ---------------------------------------------------------------------------


def _probability(value) -> float:
    """A JSON number (not a boolean) as a float; range is checked later."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"probability must be a number, got {json.dumps(value)}")
    return float(value)


def _trace_record(line: str, n_experts: int, k: int, n_layers: int) -> tuple[int, np.ndarray]:
    """One trace line as (layer, probability vector)."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON at column {exc.colno}: {exc.msg}") from None
    if not isinstance(rec, dict):
        raise ValueError("record must be a JSON object")
    if "layer" not in rec:
        raise ValueError("record needs 'layer'")
    layer = rec["layer"]
    if isinstance(layer, bool) or not isinstance(layer, int) or layer < 0:
        raise ValueError(f"layer must be a non-negative integer, got {layer!r}")
    if layer >= n_layers:
        raise ValueError(f"layer {layer} outside 0..{n_layers - 1}")
    if "probs" in rec and "topk" in rec:
        raise ValueError("record takes 'probs' or 'topk', not both")
    if "probs" in rec:
        vec = np.array([_probability(p) for p in rec["probs"]], dtype=np.float64)
        if vec.shape != (n_experts,):
            raise ValueError(f"probs length {vec.size} != n_experts {n_experts}")
    elif "topk" in rec:
        pairs = [(i, _probability(p)) for i, p in rec["topk"]]
        ids = [i for i, _ in pairs]
        for i in ids:
            if isinstance(i, bool) or not isinstance(i, int):
                raise ValueError(f"expert index must be an integer, got {json.dumps(i)}")
            if not 0 <= i < n_experts:
                raise ValueError(f"expert index {i} outside 0..{n_experts - 1}")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate expert index in topk")
        if len(pairs) < k:
            raise ValueError(f"{len(pairs)} topk pairs, need k={k}")
        vec = np.zeros(n_experts, dtype=np.float64)
        vec[ids] = [p for _, p in pairs]
    else:
        raise ValueError("record needs 'probs' or 'topk'")
    if not np.all((vec >= 0.0) & (vec <= 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    if not vec.any():
        raise ValueError("probabilities sum to 0")
    return layer, vec


def read_trace(path, n_experts: int, k: int, n_layers: int) -> dict[int, np.ndarray]:
    """Parse an external routing trace into per-layer arrays.

    Each record is a JSON object with an integer "layer" in 0..n_layers-1
    and one of "probs" and "topk", not both. Dense ("probs") records carry
    the full probability vector; sparse ("topk") records list
    (index, probability) pairs, at least k of them, with distinct integer
    indices in 0..n_experts-1; unlisted experts count as probability 0.
    Probabilities are numbers (not booleans) in [0, 1], not all 0. A
    malformed record raises ValueError naming its line, and so does a file
    with no record (empty or all blank lines), naming the file.
    Returns {layer: (T, n_experts) probabilities}, records in file order.
    """
    probs_rows: dict[int, list[np.ndarray]] = {}
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                layer, vec = _trace_record(line, n_experts, k, n_layers)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {line_no}: {exc}") from exc
            probs_rows.setdefault(layer, []).append(vec)
    if not probs_rows:
        raise ValueError(f"{path} holds no records")
    return {layer: np.stack(probs_rows[layer]) for layer in sorted(probs_rows)}
