"""Spans around moebudget's public functions, recorded from outside the package.

``install`` replaces each traced function at every module binding where it is
looked up -- moebudget modules import names with ``from .x import f``, so
wrapping only the defining module would miss most calls -- and returns a
function that restores every binding. The bindings are found by scanning every
loaded ``moebudget`` module for the function object itself, so a new
import-by-name is traced without being listed here. Spans are kept in memory
by a ``Recorder`` and written out once, when the traced run ends.

Pool workers of ``simulator.sweep`` are forked after ``install``, so they
inherit the wrappers; the pool stand-in ships each worker's spans back with
its task result. Under a start method that does not fork, workers record
nothing.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

from moebudget import budgeting, coverage, draft_tree, moe_core, numerics, simulator, toy_model
from metrics import self_time

GEN_SPAN = "simulator.run_generation"
SWEEP_SPAN = "simulator.sweep"
POOL_SPAN = "simulator.sweep.pool"
TASK_SPAN = "simulator.sweep.task"

_Decoder = toy_model.TreeDecoder

# Span name -> (owner, attribute) where the traced function is defined.
# Functions are wrapped at that binding and at every other binding of the
# same object in a loaded moebudget module; methods on their class.
TRACED: dict[str, tuple[object, str]] = {
    GEN_SPAN: (simulator, "run_generation"),
    SWEEP_SPAN: (simulator, "sweep"),
    "draft_tree.expand_tree": (draft_tree, "expand_tree"),
    "moe_core.moe_forward_full_batch": (moe_core, "moe_forward_full_batch"),
    "moe_core.route_batch": (moe_core, "route_batch"),
    "moe_core.apply_experts": (moe_core, "apply_experts"),
    "moe_core.expert_outputs_grouped": (moe_core, "expert_outputs_grouped"),
    "numerics.top_k_indices": (numerics, "top_k_indices"),
    "numerics.masked_softmax": (numerics, "masked_softmax"),
    "budgeting.rank_router": (budgeting, "rank_router"),
    "budgeting.rank_oracle": (budgeting, "rank_oracle"),
    "budgeting.calibrate_static": (budgeting, "calibrate_static"),
    "coverage.policy_assignments": (coverage, "policy_assignments"),
    "toy_model.prefill": (_Decoder, "__init__"),
    "toy_model.run_rows": (_Decoder, "run_rows"),
    "toy_model.extend": (_Decoder, "extend"),
    "toy_model.extend_tree": (_Decoder, "extend_tree"),
    "toy_model.append_tokens": (_Decoder, "append_tokens"),
}
# The pool ``simulator.sweep`` runs its cells in, replaced to gather the
# spans its workers record.
POOL_BINDING = (simulator, "ProcessPoolExecutor")


def _apply_experts_attrs(args, kwargs):
    # (layer, states, expert_ids, weights); copied because callers may hand
    # in a buffer they later reuse, and counted after the run.
    return np.array(args[2], copy=True)


def _rows_attrs(args, kwargs):
    return len(args[1])


# Counted inputs, taken after the span closes so they cost the span nothing.
ATTRS = {
    "moe_core.apply_experts": _apply_experts_attrs,
    "moe_core.route_batch": _rows_attrs,
    "toy_model.run_rows": _rows_attrs,
}


class Span:
    __slots__ = ("id", "parent", "gen", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, gen, name):
        self.id = sid
        self.parent = parent
        self.gen = gen
        self.name = name
        self.start = self.end = 0.0
        self.attrs = None


class Recorder:
    """In-memory span store with a stack of open spans.

    Span ids carry the process id in their high bits, so spans gathered from
    pool workers never collide with the parent's. A span's ``gen`` is the id
    of the ``run_generation`` span it belongs to.
    """

    def __init__(self):
        self.reset()

    def reset(self, root_parent: int | None = None) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count((os.getpid() << 32) + 1)
        self._root_parent = root_parent

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sid = next(self._ids)
        if name == GEN_SPAN:
            gen = sid
        else:
            gen = parent.gen if parent is not None else None
        span = Span(sid, parent.id if parent is not None else self._root_parent, gen, name)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def write(self, path) -> None:
        """One JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            for s in self.spans:
                f.write(
                    json.dumps(
                        {"id": s.id, "parent": s.parent, "gen": s.gen, "name": s.name,
                         "start": s.start, "end": s.end}
                    )
                    + "\n"
                )


_installed: Recorder | None = None


def _wrap(fn, name: str, recorder: Recorder):
    attrs = ATTRS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs)

    return traced


class _TracedPool:
    """Stands in for ``ProcessPoolExecutor`` inside ``simulator.sweep``.

    Records the pool's lifetime as a span and gathers the spans its workers
    record for each task.
    """

    def __init__(self, recorder: Recorder, pool_cls, *args, **kwargs):
        self._pool = pool_cls(*args, **kwargs)
        self._recorder = recorder
        self._span = recorder.open(POOL_SPAN)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            return self._pool.__exit__(*exc)
        finally:
            self._recorder.close(self._span)

    def map(self, fn, *iterables):
        job = (fn, self._span.id)
        for result, spans in self._pool.map(run_traced_task, itertools.repeat(job), *iterables):
            self._recorder.spans.extend(spans)
            yield result


def run_traced_task(job, args):
    """Pool-worker entry: run one task and return its spans with its result."""
    fn, parent = job
    recorder = _installed
    if recorder is None:
        return fn(args), []
    recorder.reset(root_parent=parent)
    span = recorder.open(TASK_SPAN)
    try:
        result = fn(args)
    finally:
        recorder.close(span)
    return result, recorder.spans


def _modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "moebudget" or name.startswith("moebudget."))]


def bindings(fn) -> list[tuple[object, str]]:
    """Every ``(module, attribute)`` of a loaded moebudget module bound to ``fn``."""
    return [(m, attr) for m in _modules() for attr, value in vars(m).items() if value is fn]


def _owners() -> list:
    return _modules() + [owner for owner, _ in TRACED.values() if isinstance(owner, type)]


def snapshot() -> dict:
    """Every callable attribute of every moebudget module and traced class,
    to confirm a restore."""
    return {(id(o), attr): v for o in _owners() for attr, v in vars(o).items() if callable(v)}


def restored(before: dict) -> bool:
    """Whether every binding in ``before`` holds its object again."""
    now = snapshot()
    return all(now.get(key) is value for key, value in before.items())


def install(recorder: Recorder):
    """Wrap every binding of every traced function.

    Returns ``(restore, missing)``: the function that restores every binding,
    and the names of traced functions not found where ``TRACED`` says they
    are defined. Their layers would read 0, so the caller counts each as a
    failed check.
    """
    global _installed
    if _installed is not None:
        raise RuntimeError("spans are already installed")
    saved: list[tuple[object, str, object]] = []
    missing = []
    for name, (owner, attr) in TRACED.items():
        original = vars(owner).get(attr)
        if original is None:
            missing.append(name)
            continue
        where = [(owner, attr)] if isinstance(owner, type) else bindings(original)
        wrapper = _wrap(original, name, recorder)
        for o, a in where:
            saved.append((o, a, original))
            setattr(o, a, wrapper)
    owner, attr = POOL_BINDING
    pool_cls = vars(owner).get(attr)
    if pool_cls is None:
        missing.append(f"{owner.__name__}.{attr}")
    else:
        saved.append((owner, attr, pool_cls))
        setattr(owner, attr, functools.partial(_TracedPool, recorder, pool_cls))
    _installed = recorder

    def restore() -> None:
        global _installed
        for o, a, value in reversed(saved):
            setattr(o, a, value)
        _installed = None

    return restore, missing


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

_SELF_TIMED = [
    "draft_tree.expand_tree",
    "moe_core.apply_experts",
    "moe_core.route_batch",
    "numerics.top_k_indices",
    "moe_core.expert_outputs_grouped",
    "budgeting.rank_oracle",
    "numerics.masked_softmax",
    "toy_model.run_rows",
    "budgeting.rank_router",
    "coverage.policy_assignments",
]
_TOTAL_TIMED = [
    "draft_tree.expand_tree",
    "toy_model.extend",
    "toy_model.extend_tree",
    "toy_model.append_tokens",
]


def span_metrics(spans: list[Span], tokens: int) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run that generated
    ``tokens`` tokens. Layers that recorded no span read 0."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        self_s[s.name] += self_time(s.start, s.end, children.get(s.id, ()))
        total_s[s.name] += s.end - s.start
        by_name[s.name].append(s)

    per_tok = 1e6 / tokens
    out: dict[str, float] = {}
    for name in _SELF_TIMED:
        out[f"{name}.self_us_per_tok"] = self_s[name] * per_tok
    for name in _TOTAL_TIMED:
        out[f"{name}.total_us_per_tok"] = total_s[name] * per_tok

    def mean(values) -> float:
        values = list(values)
        return float(sum(values) / len(values)) if values else 0.0

    applies = [s.attrs for s in by_name["moe_core.apply_experts"]]
    out["moe_core.apply_experts.calls_per_tok"] = len(applies) / tokens
    out["moe_core.apply_experts.slots_per_call"] = mean(int(np.count_nonzero(a >= 0)) for a in applies)
    out["moe_core.apply_experts.groups_per_call"] = mean(np.unique(a[a >= 0]).size for a in applies)
    out["moe_core.route_batch.rows_per_call"] = mean(s.attrs for s in by_name["moe_core.route_batch"])
    out["toy_model.run_rows.rows_per_call"] = mean(s.attrs for s in by_name["toy_model.run_rows"])
    out["toy_model.prefill_ms"] = 1e3 * mean(s.end - s.start for s in by_name["toy_model.prefill"])
    out["budgeting.calibrate_static.s"] = mean(
        s.end - s.start for s in by_name["budgeting.calibrate_static"]
    )

    sweeps = by_name[SWEEP_SPAN]
    sweep_ids = {s.id for s in sweeps}
    ar_phase = sum(s.end - s.start for s in by_name[GEN_SPAN] if s.parent in sweep_ids)
    out["simulator.sweep.ar_phase_s"] = ar_phase / len(sweeps) if sweeps else 0.0
    out["simulator.sweep.pool_s"] = total_s[POOL_SPAN] / len(sweeps) if sweeps else 0.0
    out["simulator.other_us_per_tok"] = (self_s[GEN_SPAN] + self_s[SWEEP_SPAN]) * per_tok
    return out

