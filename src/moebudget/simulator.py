"""The speculative loop: draft a tree, verify greedily, accept, append; plus
the memory-bandwidth cost model that converts measured expert loads into a
modeled speedup over autoregressive decoding.

Cost is modeled, not timed: desk-scale CPU execution is nowhere near the
bandwidth-bound regime the model describes, so every claim is expressed in
explicit cost units. An autoregressive step pays the shared cost plus k
experts per layer; a verification step pays the shared cost plus the unique
experts it actually loads per layer, an optional selection-overhead factor
when budgeting, and a per-level drafting charge. Wall-clock time is reported
for information only and never written into result files.

Every forward here runs on a ``TreeDecoder``: the draft decoder grows each
tree, and ``verify_greedy`` appends it to the target decoder -- with each
MoE layer behind the one ``coverage.budgeted_moe`` hook, at full capacity
or budgeted, whose records give each layer's executed experts -- and
judges it. Both decoders then roll the whole tree back to their causal
prefix, and the accepted tokens grow that prefix.
``run_generations`` is the one speculative loop: it runs several budget
configs from one prompt in lockstep, drafting each distinct history of
emitted tokens once and forking the decoders where the configs' tokens part.

``sweep`` runs each seed's AR baseline as one task, and the speculative
cells of each (seed, tree size) as one lockstep group, cut into contiguous
chunks so that every pool worker gets a task. The tasks and the static
calibration's shards go through one ``map``, a process pool's or the
builtin. Each row is built from its finished run and the seed's AR tokens.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from .budgeting import METHODS, calibrate_static, shortlister
from .coverage import CoveragePolicy, budgeted_moe
from .draft_tree import DraftTree, binary_branching, expand_tree
from .numerics import Rng, check_float, check_int
from .toy_model import (
    DraftSpec,
    ModelConfig,
    MoEModel,
    TreeDecoder,
    build_target,
    derive_draft,
    random_tokens,
)

__all__ = [
    "BudgetConfig",
    "CostModelParams",
    "GenerationRun",
    "RunSummary",
    "StepReport",
    "SweepCell",
    "SweepResult",
    "run_generation",
    "run_generations",
    "summarize",
    "sweep",
    "verify_greedy",
]

# Substream indices reserved off the master seed; model weights use the
# low indices inside build_target, so these stay disjoint.
DRAFT_STREAM = 100
PROMPT_STREAM = 101
CALIB_STREAM = 102

CONTEXT_LEN = 16  # tokens in every seeded prompt and analysis context

CALIBRATION_TOKENS = 2048
CALIBRATION_SEQ_LEN = 128

MODES = ("ar", "spec_full", "spec_budgeted")


@dataclass(frozen=True)
class CostModelParams:
    """Bandwidth-cost constants, in arbitrary cost units.

    The defaults put expert bytes about 4:1 over the shared cost at the
    autoregressive operating point: with the default 4 layers and k=8, an AR
    step loads 32 expert units against 8 shared ones. They also leave room
    for the unbudgeted speedup curve to peak at an interior tree size: a
    verify step pays the shared cost once for the whole tree, which favours
    larger trees, but one expert unit per unique expert per layer and 2
    units per tree level (root included), which grow with tree size. Where
    the peak falls depends on how many drafted tokens a prompt accepts.

    The draft charge per step equals the draft-model passes the lab runs:
    one ``extend`` per tree level that has children (the leaf level never
    runs), plus the ``append_tokens`` of the accepted tokens that produces
    the next root, so one pass per level of the drafted tree, root included.

    Prices follow from each step's measurements alone: its unique experts
    per layer, its tree depth and whether it was budgeted. So ``summarize``
    prices a run's step reports at any params, not only the run's own.
    Every constant is checked when the params are built.
    """

    bytes_expert: float = 1.0
    bytes_shared: float = 8.0
    draft_step_cost: float = 2.0
    selection_overhead_frac: float = 0.025

    def __post_init__(self):
        for name in ("bytes_expert", "bytes_shared", "draft_step_cost", "selection_overhead_frac"):
            value = check_float(name, getattr(self, name))
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")

    def ar_step_cost(self, n_layers: int, k: int) -> float:
        return self.bytes_shared + n_layers * k * self.bytes_expert

    def verify_step_cost(self, unique_experts, budgeted: bool) -> float:
        base = self.bytes_shared + self.bytes_expert * float(sum(unique_experts))
        if budgeted:
            base *= 1.0 + self.selection_overhead_frac
        return base

    def draft_cost(self, tree_depth: int) -> float:
        return self.draft_step_cost * tree_depth


@dataclass(frozen=True)
class BudgetConfig:
    """How verification is budgeted (method, policy, B); checked when built."""

    method: str  # static | router | oracle
    policy: CoveragePolicy
    budget: int

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown ranking method {self.method!r}")
        CoveragePolicy(self.policy)
        if check_int("budget", self.budget) < 1:
            raise ValueError("budget must be >= 1")


@dataclass
class StepReport:
    """Per-step measurement: acceptance, expert loads, modeled costs."""

    tau: int  # accepted tokens incl. the bonus token
    emitted: list[int]  # tokens actually appended (may be trimmed at gen end)
    unique_experts: list[int]  # per layer, unique experts loaded for the tree
    # Tree levels including the root, the draft-cost multiplier: it equals the
    # draft passes run, one extend per level with children plus the append of
    # the next root.
    tree_depth: int
    # Whether verification was budgeted, the one run fact that pricing needs:
    # a budgeted step pays the selection overhead.
    budgeted: bool
    verify_cost: float
    draft_cost: float
    missing_counts: list[list[int]] | None = None  # per layer, per tree token
    fully_skipped: list[list[bool]] | None = None

    @property
    def step_cost(self) -> float:
        return self.verify_cost + self.draft_cost

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class RunSummary:
    tokens: int
    steps: int
    mean_tau: float
    mean_unique_experts: list[float]  # per layer
    total_cost: float
    speedup: float
    wall_clock_s: float  # informational only; never serialized into outputs


@dataclass
class GenerationRun:
    tokens: list[int]
    summary: RunSummary
    reports: list[StepReport]


def _greedy_accept(
    tree: DraftTree, tree_logits: np.ndarray, anchor_logits: np.ndarray
) -> tuple[list[int], int]:
    """Accepted root-to-leaf node path and the bonus token.

    A node is accepted iff its parent is accepted and its token equals the
    verifier argmax at the parent position (the context end for the root).
    Drafted siblings are distinct, so at most one child of an accepted node
    can match; ties on depth resolve to the earliest node in draft order.
    """
    node_argmax = tree_logits.argmax(axis=-1).tolist()  # first maximum = lower index
    anchor_argmax = int(anchor_logits.argmax())
    tokens, parents, depths = tree.tokens.tolist(), tree.parents.tolist(), tree.depths.tolist()
    accepted = [False] * tree.size
    best_node = -1
    for i, p in enumerate(parents):
        parent_ok = p == -1 or accepted[p]
        want = anchor_argmax if p == -1 else node_argmax[p]
        if parent_ok and tokens[i] == want:
            accepted[i] = True
            if best_node == -1 or depths[i] > depths[best_node]:
                best_node = i

    if best_node == -1:
        return [], anchor_argmax
    path = tree.path_to(best_node)
    return path, node_argmax[best_node]


def _step_report(
    emitted: list[int],
    unique: list[int],
    tree_depth: int,
    budgeted: bool,
    cost: CostModelParams,
    missing: list[list[int]] | None = None,
    fully: list[list[bool]] | None = None,
) -> StepReport:
    """One step's measurements, priced at ``cost``. An AR step is one
    emitted token at ``[k] * n_layers`` experts, depth 0, unbudgeted."""
    return StepReport(
        tau=len(emitted),
        emitted=emitted,
        unique_experts=unique,
        tree_depth=tree_depth,
        budgeted=budgeted,
        verify_cost=cost.verify_step_cost(unique, budgeted),
        draft_cost=cost.draft_cost(tree_depth),
        missing_counts=missing,
        fully_skipped=fully,
    )


def verify_greedy(
    decoder: TreeDecoder,
    tree: DraftTree,
    budget_cfg: BudgetConfig | None = None,
    cost: CostModelParams = CostModelParams(),
    static_counts: np.ndarray | None = None,
) -> StepReport:
    """One verification step over a drafted tree on a target decoder.

    The tree rows are appended to the decoder's causal prefix in one batch
    (each MoE layer budgeted when ``budget_cfg`` is given, with shortlists
    from ``budgeting.shortlister``; static ranking reads ``static_counts``),
    judged, and rolled back; the deepest drafted chain consistent with the
    verifier's greedy choices is accepted and the bonus token appended. The
    prefix rows of a causal model never change when rows are appended, so
    this matches a one-shot ancestor-masked forward over context + tree to
    roundoff. Returns the step report; its ``emitted`` holds the accepted
    tokens and the bonus token.
    """
    shortlist_for = policy = None
    if budget_cfg is not None:
        shortlist_for = shortlister(
            decoder.model, budget_cfg.method, budget_cfg.budget, static_counts
        )
        policy = budget_cfg.policy
    hook, layers = budgeted_moe(shortlist_for, policy)

    anchor_logits = decoder.context_logits
    tree_logits = decoder.extend_tree(tree, hook)
    decoder.rollback()

    unique = [int(rec.executed.size) for rec in layers]
    missing = fully = None
    if budget_cfg is not None:
        k = decoder.model.config.top_k
        missing = [rec.missing.tolist() for rec in layers]
        fully = [(rec.missing == k).tolist() for rec in layers]
    path, bonus = _greedy_accept(tree, tree_logits, anchor_logits)
    tokens = tree.tokens.tolist()
    emitted = [tokens[i] for i in path] + [bonus]
    return _step_report(
        emitted, unique, tree.depth + 1, budget_cfg is not None, cost, missing, fully
    )


def _calibration_counts(target: MoEModel, rng: Rng, indices) -> np.ndarray:
    """Selection counts over the calibration sequences at ``indices``."""
    seqs = [
        random_tokens(rng.substream(i), CALIBRATION_SEQ_LEN, target.config.vocab_size)
        for i in indices
    ]
    return calibrate_static(target, seqs)


def default_calibration(target: MoEModel, rng: Rng) -> np.ndarray:
    """(n_layers, n_experts) selection counts over seeded random sequences,
    disjoint from every evaluation prompt stream."""
    return _calibration_counts(target, rng, range(CALIBRATION_TOKENS // CALIBRATION_SEQ_LEN))


def run_generation(
    target: MoEModel,
    draft: MoEModel,
    prompt,
    gen_len: int,
    mode: str,
    cost: CostModelParams = CostModelParams(),
    budget_cfg: BudgetConfig | None = None,
    tree_size: int = 63,
    static_counts: np.ndarray | None = None,
    keep_coverage: bool = False,
) -> GenerationRun:
    """Generate ``gen_len`` tokens from ``prompt`` in one of three modes:
    plain autoregressive greedy, speculative with full verification, or
    speculative with budgeted verification. The decoders check ``prompt``:
    a non-empty 1-D sequence of integer token ids. The speculative modes are
    ``run_generations`` with one config.
    """
    if check_int("gen_len", gen_len) < 1:
        raise ValueError("gen_len must be >= 1")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "spec_budgeted" and budget_cfg is None:
        raise ValueError("spec_budgeted requires a BudgetConfig")

    if mode != "ar":
        use_budget = budget_cfg if mode == "spec_budgeted" else None
        [run] = run_generations(
            target, draft, prompt, gen_len, cost, [use_budget], tree_size, static_counts,
            keep_coverage,
        )
        return run

    started = time.perf_counter()
    cfg = target.config
    generated: list[int] = []
    reports: list[StepReport] = []
    decoder = TreeDecoder(target, prompt)
    for _ in range(gen_len):
        nxt = int(decoder.context_logits.argmax())
        decoder.append_tokens([nxt])
        generated.append(nxt)
        reports.append(_step_report([nxt], [cfg.top_k] * cfg.n_layers, 0, False, cost))
    summary = summarize(reports, cost, cfg, wall_clock_s=time.perf_counter() - started)
    return GenerationRun(tokens=generated, summary=summary, reports=reports)


def run_generations(
    target: MoEModel,
    draft: MoEModel,
    prompt,
    gen_len: int,
    cost: CostModelParams = CostModelParams(),
    budget_cfgs=(None,),
    tree_size: int = 63,
    static_counts: np.ndarray | None = None,
    keep_coverage: bool = False,
    failures: dict[int, str] | None = None,
) -> list[GenerationRun | None]:
    """Speculative generation of ``gen_len`` tokens from ``prompt`` under
    each of ``budget_cfgs`` (``None`` verifies at full capacity), in
    lockstep; returns one run per config, in config order.

    Configs that have emitted the same tokens so far share one *node*: a
    draft decoder and a target decoder. Each step, every live node drafts
    one tree, and each of its configs verifies that tree on the node's
    target decoder, which verification leaves as it found it. The node's
    configs are then grouped by the tokens they emit. The first group that
    is still generating keeps the node's decoders, every other such group
    takes a ``fork`` of both, and each group appends its tokens once to its
    own pair. So a config's decoders see the same calls, with the same
    arguments, as a pair of decoders of its own would, and its run is
    bit-identical to running it alone; a distinct history is drafted and
    appended once, however many configs reach it. Each run's
    ``wall_clock_s`` is the time of the whole lockstep.

    When ``failures`` is a dict, a config whose verification raises is
    dropped: its traceback is stored under its index and its run is None,
    and the other configs carry on. Otherwise the error propagates.
    """
    if check_int("gen_len", gen_len) < 1:
        raise ValueError("gen_len must be >= 1")
    if not budget_cfgs:
        raise ValueError("budget_cfgs must hold at least one config")
    started = time.perf_counter()
    branching = binary_branching(tree_size)
    n = len(budget_cfgs)
    generated: list[list[int]] = [[] for _ in range(n)]
    reports: list[list[StepReport]] = [[] for _ in range(n)]
    # Persistent decoders serve the whole loop: tree rows are rolled back
    # each step and accepted tokens extend the causal prefix, which is exact
    # under ancestor masking (appending rows never changes earlier ones).
    # Modeled costs are computed as if the verify step re-read the context
    # (charged to the shared term), so the prefix cache changes wall-clock
    # only, never reported numbers.
    nodes = [(TreeDecoder(draft, prompt), TreeDecoder(target, prompt), list(range(n)))]
    while nodes:
        live = []
        for draft_dec, target_dec, members in nodes:
            tree = expand_tree(draft_dec, branching)
            draft_dec.rollback()
            done = len(generated[members[0]])
            groups: dict[tuple[int, ...], list[int]] = {}
            for i in members:
                try:
                    report = verify_greedy(target_dec, tree, budget_cfgs[i], cost, static_counts)
                except Exception:  # noqa: BLE001 - collected for the caller
                    if failures is None:
                        raise
                    failures[i] = traceback.format_exc()
                    continue
                if not keep_coverage:
                    report.missing_counts = None
                    report.fully_skipped = None
                report.emitted = emitted = report.emitted[: gen_len - done]
                generated[i].extend(emitted)
                reports[i].append(report)
                groups.setdefault(tuple(emitted), []).append(i)
            going = [(emitted, group) for emitted, group in groups.items()
                     if done + len(emitted) < gen_len]
            # Forks are taken before any append, while the prefix is shared.
            pairs = [(draft_dec, target_dec)] + [
                (draft_dec.fork(), target_dec.fork()) for _ in going[1:]
            ]
            for (emitted, group), (d, t) in zip(going, pairs):
                d.append_tokens(emitted)
                t.append_tokens(emitted)
                live.append((d, t, group))
        nodes = live

    wall = time.perf_counter() - started
    return [
        None if i in (failures or {}) else GenerationRun(
            tokens=generated[i],
            summary=summarize(reports[i], cost, target.config, wall_clock_s=wall),
            reports=reports[i],
        )
        for i in range(n)
    ]


def summarize(
    reports: list[StepReport],
    cost: CostModelParams,
    cfg: ModelConfig,
    wall_clock_s: float = 0.0,
) -> RunSummary:
    """Aggregate step reports into a run summary priced at ``cost``.

    Every step is priced here from its measured fields (unique experts,
    tree depth, whether it was budgeted), never from the costs stored in
    the reports, so this is a pure function of the measurements and
    ``cost``: a run's reports summarized at any cost equal the summary of
    the same run made at that cost.
    """
    if not reports:
        raise ValueError("cannot summarize an empty run")
    tokens = sum(len(r.emitted) for r in reports)
    total_cost = sum(
        cost.verify_step_cost(r.unique_experts, r.budgeted) + cost.draft_cost(r.tree_depth)
        for r in reports
    )
    return RunSummary(
        tokens=tokens,
        steps=len(reports),
        mean_tau=float(np.mean([r.tau for r in reports])),
        mean_unique_experts=np.mean(
            [r.unique_experts for r in reports], axis=0
        ).tolist(),
        total_cost=total_cost,
        speedup=cost.ar_step_cost(cfg.n_layers, cfg.top_k) / (total_cost / tokens),
        wall_clock_s=wall_clock_s,
    )


# ---------------------------------------------------------------------------
# Sweep harness
# ---------------------------------------------------------------------------


# A cell's coordinates in the order every sweep table writes them.
CELL_COORDS = ("mode", "method", "policy", "budget", "tree_size")


@dataclass(frozen=True)
class SweepCell:
    """One grid point: mode plus budgeting coordinates; checked when built."""

    mode: str  # ar | spec_full | spec_budgeted
    tree_size: int = 63
    method: str | None = None
    policy: str | None = None
    budget: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "spec_budgeted":
            if self.method is None or self.policy is None or self.budget is None:
                raise ValueError("spec_budgeted cells need method, policy and budget")
            self.budget_config()  # which checks method, policy and budget
        elif (self.method, self.policy, self.budget) != (None, None, None):
            raise ValueError(f"{self.mode} cells take no method, policy or budget")
        if self.mode == "ar":  # the size only labels the row
            check_int("tree_size", self.tree_size)
        else:
            binary_branching(self.tree_size)

    def budget_config(self) -> BudgetConfig | None:
        """How a spec_budgeted cell verifies; None for every other mode."""
        if self.mode != "spec_budgeted":
            return None
        return BudgetConfig(self.method, CoveragePolicy(self.policy), self.budget)

    def key(self) -> tuple:
        return (
            self.mode,
            self.tree_size,
            self.method or "",
            self.policy or "",
            -1 if self.budget is None else self.budget,
        )


@dataclass(frozen=True)
class SweepSpec:
    """A sweep's cells x seeds over one model pair. Its records check
    themselves; built, it checks the seeds, gen_len and how the cells fit."""

    model_config: ModelConfig
    draft_spec: DraftSpec
    cells: tuple[SweepCell, ...]
    seeds: tuple[int, ...]
    gen_len: int = 64
    cost: CostModelParams = CostModelParams()

    def __post_init__(self):
        if not self.cells:
            raise ValueError("sweep needs at least one cell")
        if not self.seeds:
            raise ValueError("sweep needs at least one seed")
        for i, seed in enumerate(self.seeds):
            check_int(f"seeds[{i}]", seed)
        if any(s < 0 for s in self.seeds):
            raise ValueError(f"seeds must all be >= 0, got {list(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must not repeat, got {list(self.seeds)}")
        if check_int("gen_len", self.gen_len) < 1:
            raise ValueError("gen_len must be >= 1")
        seen = set()
        n_experts = self.model_config.n_experts
        for cell in self.cells:
            if cell.key() in seen:
                raise ValueError(f"cells: {cell} repeats")
            seen.add(cell.key())
            if cell.budget is not None and cell.budget > n_experts:
                raise ValueError(
                    f"cells: {cell} budget {cell.budget} exceeds "
                    f"model_config.n_experts {n_experts}"
                )
        n_ar = sum(cell.mode == "ar" for cell in self.cells)
        if n_ar > 1:
            raise ValueError(f"cells: a sweep takes at most one ar cell, got {n_ar}")


@dataclass
class SweepRow:
    cell: SweepCell
    seed: int
    tokens: int
    steps: int
    mean_tau: float
    mean_unique_experts: float  # averaged across layers
    unique_experts_per_layer: list[float]
    max_unique_experts: int  # max over steps and layers
    total_cost: float
    speedup: float
    ar_match_rate: float


@dataclass
class SweepResult:
    rows: list[SweepRow]
    reports: dict[tuple, list[StepReport]] = field(default_factory=dict)
    failures: list[tuple[SweepCell, int, str]] = field(default_factory=list)


# Per-process cache so pooled sweep workers build each model pair once.
_MODEL_CACHE: dict = {}


def build_model_pair(
    model_config: ModelConfig, draft_spec: DraftSpec
) -> tuple[MoEModel, MoEModel]:
    """Target model plus its derived draft, memoized per process."""
    key = (model_config, draft_spec)
    if key not in _MODEL_CACHE:
        if len(_MODEL_CACHE) > 8:
            _MODEL_CACHE.clear()
        target = build_target(model_config)
        draft = derive_draft(
            target, draft_spec, Rng(model_config.seed).substream(DRAFT_STREAM)
        )
        _MODEL_CACHE[key] = (target, draft)
    return _MODEL_CACHE[key]


def _prompt_for_seed(spec: SweepSpec, seed: int) -> np.ndarray:
    rng = Rng(spec.model_config.seed).substream(PROMPT_STREAM, seed)
    return random_tokens(rng, CONTEXT_LEN, spec.model_config.vocab_size)


def _sweep_row(cell: SweepCell, seed: int, run: GenerationRun, ar_tokens: list[int]) -> SweepRow:
    """A finished run as a sweep row, matched against the seed's AR tokens."""
    s = run.summary
    return SweepRow(
        cell=cell,
        seed=seed,
        tokens=s.tokens,
        steps=s.steps,
        mean_tau=s.mean_tau,
        mean_unique_experts=float(np.mean(s.mean_unique_experts)),
        unique_experts_per_layer=s.mean_unique_experts,
        max_unique_experts=max(max(r.unique_experts) for r in run.reports),
        total_cost=s.total_cost,
        speedup=s.speedup,
        ar_match_rate=float(np.mean(np.array(run.tokens) == np.array(ar_tokens))),
    )


def _sweep_task(args) -> list[tuple[GenerationRun | None, str | None]]:
    """Worker entry point: one seed's AR baseline, or one chunk of a (seed,
    tree size) group's speculative cells in lockstep; one (run, traceback)
    per cell. Models are rebuilt from the spec, so results depend only on
    the cells, never on scheduling. An AR baseline raises even when
    ``strict`` is off, since every row of its seed needs it."""
    spec, cells, seed, static_counts, strict = args
    target, draft = build_model_pair(spec.model_config, spec.draft_spec)
    prompt = _prompt_for_seed(spec, seed)
    if cells[0].mode == "ar":
        return [(run_generation(target, draft, prompt, spec.gen_len, "ar", spec.cost), None)]
    failures = None if strict else {}
    try:
        runs = run_generations(
            target,
            draft,
            prompt,
            spec.gen_len,
            spec.cost,
            [cell.budget_config() for cell in cells],
            cells[0].tree_size,
            static_counts,
            failures=failures,
        )
    except Exception:  # noqa: BLE001 - collected for the failure report
        if strict:
            raise
        return [(None, traceback.format_exc())] * len(cells)
    return [(run, (failures or {}).get(i)) for i, run in enumerate(runs)]


def _calibration_task(args) -> np.ndarray:
    """Worker entry point: the static calibration counts of one contiguous
    shard of the calibration sequences."""
    model_config, draft_spec, indices = args
    target, _ = build_model_pair(model_config, draft_spec)
    return _calibration_counts(target, Rng(model_config.seed).substream(CALIB_STREAM), indices)


def _chunks(items, n: int) -> list:
    """``items`` cut into ``n`` contiguous chunks of near-equal length, or
    into one chunk per item when there are fewer than ``n``."""
    n = min(n, len(items))
    bounds = [len(items) * i // n for i in range(n + 1)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def sweep(
    spec: SweepSpec, workers: int = 1, keep_reports: bool = False, strict: bool = True
) -> SweepResult:
    """Deterministic grid evaluation over cells x seeds.

    Each seed's autoregressive baseline is one task, even when no AR cell
    is asked for: every row's ``ar_match_rate`` is matched against its
    tokens (speedups are priced from ``cost.ar_step_cost`` alone). The
    speculative cells of each (seed, tree size) form a group that runs in
    lockstep on one set of decoders (see ``run_generations``), so a draft
    tree or prefix that several cells reach is computed once. Each group is
    cut, in cell-key order, into ceil(``workers`` / groups) contiguous
    chunks, one task each, so even a one-seed sweep gives every worker a
    task.

    Tasks run in a process pool of min(``workers``, tasks) processes when
    that is above one, else in this process. The static ranking's
    calibration runs the same way, as one contiguous shard of its sequences
    per process; the shards' integer counts are summed in shard order, so
    they equal ``default_calibration`` exactly. Rows are built once every
    task is back, so results are byte-identical for any worker count. With
    ``strict=False`` failing cells are collected with their tracebacks
    instead of raised, and the other cells of their group carry on; a
    failing AR baseline still raises.
    """
    if check_int("workers", workers) < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # Built here so that forked pool workers inherit the models.
    build_model_pair(spec.model_config, spec.draft_spec)

    cells = dict(sorted({c.key(): c for c in spec.cells}.items()))
    ar_cell = next((c for c in cells.values() if c.mode == "ar"), SweepCell(mode="ar"))
    groups: dict[int, list[SweepCell]] = {}
    for cell in cells.values():
        if cell.mode != "ar":
            groups.setdefault(cell.tree_size, []).append(cell)
    n_chunks = -(-workers // max(1, len(groups) * len(spec.seeds)))
    units = [((ar_cell,), seed) for seed in spec.seeds] + [
        (tuple(chunk), seed)
        for group in groups.values()
        for seed in spec.seeds
        for chunk in _chunks(group, n_chunks)
    ]
    static = any(c.mode == "spec_budgeted" and c.method == "static" for c in cells.values())
    n = min(workers, len(units))
    shards = _chunks(range(CALIBRATION_TOKENS // CALIBRATION_SEQ_LEN), n)
    calibration = [(spec.model_config, spec.draft_spec, shard) for shard in shards]
    with ProcessPoolExecutor(max_workers=n) if n > 1 else nullcontext() as pool:
        run_all = map if pool is None else pool.map
        static_counts = sum(run_all(_calibration_task, calibration)) if static else None
        tasks = [(spec, unit, seed, static_counts, strict) for unit, seed in units]
        done = list(run_all(_sweep_task, tasks))
    results = {(cell.key(), seed): outcome for (unit, seed), outcomes in zip(units, done)
               for cell, outcome in zip(unit, outcomes)}

    rows: list[SweepRow] = []
    reports: dict[tuple, list[StepReport]] = {}
    failures: list[tuple[SweepCell, int, str]] = []
    for key, cell in cells.items():
        for seed in sorted(spec.seeds):
            run, error = results[(key, seed)]
            if error is not None:
                failures.append((cell, seed, error))
                continue
            ar_run, _ = results[(ar_cell.key(), seed)]
            rows.append(_sweep_row(cell, seed, run, ar_run.tokens))
            if keep_reports:
                reports[(key, seed)] = run.reports
    return SweepResult(rows=rows, reports=reports, failures=failures)
