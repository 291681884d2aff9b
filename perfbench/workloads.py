"""Workloads of the moebudget benchmark: their inputs, set-up, the timed
closed loop, the output checks and the metrics computed from the outputs.

moebudget is treated as a black box. Models come from ``preset_config`` and
``build_model_pair``, and every call goes through ``simulator.run_generation``
or ``simulator.sweep`` as module attributes, so that a traced run reaches
them through the wrappers of ``spans``.

Inputs. The *measured* inputs of a workload follow from its mode. AR
decoding costs the same and models to exactly 1x on every prompt, so
``ar_decode`` measures prompts drawn from ``--seed``. Per-prompt speculative
behaviour varies threefold or more between random 16-token prompts, and a run
affords only a dozen or so speculative generations, each of which has to be
repeated; any seeded measured prompt would swing every speculative metric by
more than a useful bound. The speculative and sweep workloads therefore
measure a fixed *panel* of prompts or sweep seeds. They also run ``check``
seeded inputs once, after the clock has stopped, and put them through every
output check, so that a change cannot pass by being right on the panel alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from moebudget import simulator
from moebudget.coverage import CoveragePolicy
from moebudget.numerics import Rng
from moebudget.simulator import BudgetConfig, CostModelParams, SweepCell, SweepSpec
from moebudget.toy_model import DraftSpec, preset_config

from hostref import HostRef
from metrics import prefix_match, tail_percentile

PROMPT_LEN = 16
WARMUP_LEN = 8
COST = CostModelParams()
SWEEP_WORKERS = 2

# First words of the numpy seed sequences; distinct so panel, seeded, check
# and warm-up prompts never coincide.
PANEL_STREAM, SEEDED_STREAM, WARMUP_STREAM, CHECK_STREAM = 0, 1, 2, 3
# Check sweep seeds start here, clear of the panel's 0..inputs-1.
CHECK_SWEEP_SEED = 1_000_000

SWEEP_CELLS = (
    SweepCell("ar"),
    SweepCell("spec_full", tree_size=15),
) + tuple(
    SweepCell("spec_budgeted", 15, "static", policy, budget)
    for policy in ("truncation", "substitution")
    for budget in (8, 16, 32)
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload. An operation is one ``run_generation`` on a
    prompt or, when ``seeds_per_sweep`` is set, one ``sweep`` over that many
    seeds of ``SWEEP_CELLS``. ``inputs`` prompts or sweep seeds are measured:
    seeded in mode ``ar``, a fixed panel otherwise. ``check`` seeded inputs
    are only checked. ``probe`` names the ``hostref`` kernel the workload
    resembles."""

    name: str
    preset: str
    gen_len: int
    inputs: int
    check: int = 0
    mode: str = "ar"
    tree_size: int = 63
    method: str | None = None
    policy: str | None = None
    budget: int | None = None
    seeds_per_sweep: int = 0
    probe: str = "decode"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ar_decode", "olmoe-toy", gen_len=64, inputs=12),
        Workload(
            "draft_router", "olmoe-toy", gen_len=64, inputs=8, check=2,
            mode="spec_budgeted", tree_size=63, method="router",
            policy="substitution", budget=16,
        ),
        Workload(
            "wide_oracle", "qwen3-toy", gen_len=8, inputs=4, check=2,
            mode="spec_budgeted", tree_size=255, method="oracle",
            policy="truncation", budget=32, probe="wide",
        ),
        Workload(
            "sweep_grid", "olmoe-toy", gen_len=32, inputs=4, check=2,
            seeds_per_sweep=1,
        ),
    )
}


@dataclass
class Output:
    """One checked unit of work: a generation, or one (cell, seed) sweep row."""

    key: tuple
    mode: str
    tree_size: int
    tokens: list[int]
    reports: list
    digest: str
    problems: list[str]


@dataclass
class OpRecord:
    key: tuple  # ("measured" | "check", input index)
    wall_s: float
    slowdown: float  # mean of the host probes just before and just after
    outputs: list[Output]
    failed: int  # expected outputs that are missing or raised

    @property
    def scaled_s(self) -> float:
        """Wall-clock scaled to the nominal host of ``hostref``."""
        return self.wall_s / self.slowdown


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=lambda o: o.item())
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Builds the models once and runs operations of one workload."""

    def __init__(self, workload: Workload, seed: int):
        self.w = workload
        self.seed = seed
        self.cfg = preset_config(workload.preset)
        self.target = self.draft = None

    # -- inputs ---------------------------------------------------------

    def inputs(self) -> list:
        """The measured inputs: seeded prompts in mode ``ar``, the panel
        otherwise."""
        w = self.w
        if w.seeds_per_sweep:
            return self._groups(list(range(w.inputs)))
        if w.mode == "ar":
            return [self._prompt(SEEDED_STREAM, self.seed, i) for i in range(w.inputs)]
        return [self._prompt(PANEL_STREAM, i) for i in range(w.inputs)]

    def check_inputs(self) -> list:
        """Seeded inputs that are run once, untimed, and only checked."""
        w = self.w
        if w.seeds_per_sweep:
            return self._groups([CHECK_SWEEP_SEED + self.seed * w.check + i for i in range(w.check)])
        return [self._prompt(CHECK_STREAM, self.seed, i) for i in range(w.check)]

    def _groups(self, seeds: list[int]) -> list[tuple[int, ...]]:
        k = self.w.seeds_per_sweep
        return [tuple(seeds[i : i + k]) for i in range(0, len(seeds), k)]

    def _prompt(self, *key: int) -> np.ndarray:
        rng = np.random.default_rng(list(key))
        return rng.integers(0, self.cfg.vocab_size, PROMPT_LEN)

    # -- set-up ---------------------------------------------------------

    def setup(self) -> None:
        """Model build, weight stacks, static calibration where used, and a
        warm-up that fills lazy stacks and scratch buffers."""
        self.target, self.draft = simulator.build_model_pair(self.cfg, DraftSpec())
        for model in (self.target, self.draft):
            for block in model.blocks:
                _ = block.moe.w_in_stack, block.moe.w_out_stack
        # A fixed prompt and a short run: the warm-up only has to reach every
        # code path at full tree size, and a seeded prompt would make its cost
        # vary with the seed.
        warm = self._prompt(WARMUP_STREAM)
        if self.w.seeds_per_sweep:
            counts = simulator.default_calibration(
                self.target, Rng(self.cfg.seed).substream(simulator.CALIB_STREAM)
            )
            simulator.run_generation(self.target, self.draft, warm, WARMUP_LEN, "ar", COST)
            simulator.run_generation(
                self.target, self.draft, warm, WARMUP_LEN, "spec_budgeted", COST,
                BudgetConfig("static", CoveragePolicy.TRUNCATION, 8), tree_size=15,
                static_counts=counts,
            )
        else:
            self.generate(warm, gen_len=WARMUP_LEN)

    # -- operations -----------------------------------------------------

    def generate(self, prompt, mode: str | None = None, gen_len: int | None = None):
        w = self.w
        mode = mode or w.mode
        budget = None
        if mode == "spec_budgeted":
            budget = BudgetConfig(w.method, CoveragePolicy(w.policy), w.budget)
        return simulator.run_generation(
            self.target, self.draft, prompt, gen_len or w.gen_len, mode, COST, budget,
            tree_size=w.tree_size, keep_coverage=True,
        )

    def sweep_spec(self, seeds) -> SweepSpec:
        return SweepSpec(
            model_config=self.cfg, draft_spec=DraftSpec(), cells=SWEEP_CELLS,
            seeds=tuple(seeds), gen_len=self.w.gen_len, cost=COST,
        )

    def expected(self, item) -> int:
        return len(SWEEP_CELLS) * len(item) if self.w.seeds_per_sweep else 1

    def run_op(self, item, workers: int = SWEEP_WORKERS):
        if self.w.seeds_per_sweep:
            return simulator.sweep(
                self.sweep_spec(item), workers=workers, keep_reports=True, strict=False
            )
        return self.generate(item)

    # -- checks ---------------------------------------------------------

    def outputs(self, key: tuple, result) -> list[Output]:
        if self.w.seeds_per_sweep:
            return self._sweep_outputs(result)
        run = result
        problems = []
        recomputed = simulator.summarize(run.reports, COST, self.cfg, run.summary.wall_clock_s)
        if recomputed != run.summary:
            problems.append(f"summarize(reports) does not reproduce the summary of {key}")
        if len(run.tokens) != self.w.gen_len:
            problems.append(f"{key} generated {len(run.tokens)} tokens, want {self.w.gen_len}")
        summary = dataclasses.asdict(run.summary)
        del summary["wall_clock_s"]
        digest = _digest(
            {"tokens": run.tokens, "summary": summary, "reports": [r.to_json() for r in run.reports]}
        )
        return [Output(key, self.w.mode, self.w.tree_size, run.tokens, run.reports, digest, problems)]

    def _sweep_outputs(self, result) -> list[Output]:
        outs = []
        for row in result.rows:
            key = (row.cell.key(), row.seed)
            reports = result.reports[key]
            problems = []
            s = simulator.summarize(reports, COST, self.cfg)
            if (s.tokens, s.steps, s.mean_tau, s.total_cost, s.speedup, s.mean_unique_experts) != (
                row.tokens, row.steps, row.mean_tau, row.total_cost, row.speedup,
                row.unique_experts_per_layer,
            ):
                problems.append(f"summarize(reports) does not reproduce row {key}")
            if row.cell.mode == "spec_full" and row.ar_match_rate != 1.0:
                problems.append(f"spec_full row {key} is not lossless: {row.ar_match_rate}")
            tokens = [t for r in reports for t in r.emitted]
            digest = _digest(
                {"row": dataclasses.asdict(row), "reports": [r.to_json() for r in reports]}
            )
            outs.append(Output(key, row.cell.mode, row.cell.tree_size, tokens, reports, digest, problems))
        return outs

    def ar_references(self, outputs: dict, prompts: dict) -> dict:
        """AR greedy stream per output key: an untimed AR run of the same
        prompt, or, for sweeps, the sweep's own AR row of the same seed."""
        if self.w.seeds_per_sweep:
            ar = {key[1]: o.tokens for key, o in outputs.items() if o.mode == "ar"}
            return {key: ar.get(key[1]) for key in outputs}
        return {key: self.generate(prompts[key], "ar").tokens for key in outputs}

    def check_ar(self, outputs: dict, references: dict) -> None:
        """AR outputs must equal their references token for token."""
        for key, out in outputs.items():
            if out.mode == "ar" and references[key] != out.tokens:
                out.problems.append(f"AR output {key} differs from its untimed reference")

    def check_replay(self, items, first: dict) -> None:
        """Sweep only: the first input group replayed with ``workers=1`` must
        give byte-identical rows and reports."""
        if not self.w.seeds_per_sweep:
            return
        for o in self._sweep_outputs(self.run_op(items[0], workers=1)):
            if o.key in first and first[o.key].digest != o.digest:
                first[o.key].problems.append(f"row {o.key} differs from its workers=1 replay")


def timed_loop(
    runner: Runner, items: list, seconds: float, ref: HostRef, passes: int | None = None
) -> list:
    """Closed loop: one operation at a time, in whole passes over ``items``.

    Runs one pass, then further passes while the next one is expected to end
    within ``seconds``; or exactly ``passes`` passes when that is given.
    Whole passes weigh every input equally. The host probe runs between
    operations, so every operation has one just before and one just after
    it. Returns the raw ``(index, wall_s, slowdown, result, error)`` tuples;
    ``to_records`` checks them after the clock has stopped.
    """
    raw = []
    start = time.perf_counter()
    done = 0
    before = ref.probe()
    while True:
        pass_start = time.perf_counter()
        for index, item in enumerate(items):
            wall, result, error = run_timed(runner, item)
            after = ref.probe()
            raw.append((index, wall, (before + after) / 2, result, error))
            before = after
        done += 1
        now = time.perf_counter()
        if passes is not None:
            if done >= passes:
                return raw
        elif now - start + (now - pass_start) > seconds:
            return raw


def run_timed(runner: Runner, item) -> tuple[float, object, str | None]:
    t = time.perf_counter()
    try:
        result, error = runner.run_op(item), None
    except Exception:  # noqa: BLE001 - counted as failed operations
        result, error = None, traceback.format_exc()
    return time.perf_counter() - t, result, error


def to_records(runner: Runner, items: list, raw: list, kind: str = "measured") -> list[OpRecord]:
    records = []
    for index, wall, slowdown, result, error in raw:
        key = (kind, index)
        expected = runner.expected(items[index])
        if error is not None:
            print(f"operation on {key} raised:\n{error}", file=sys.stderr)
            records.append(OpRecord(key, wall, slowdown, [], expected))
            continue
        outs = runner.outputs(key, result)
        for cell, seed, message in getattr(result, "failures", []):
            print(f"sweep cell {cell.key()} seed {seed} failed: {message}", file=sys.stderr)
        records.append(OpRecord(key, wall, slowdown, outs, expected - len(outs)))
    return records


def run_checks(runner: Runner, items: list) -> list[OpRecord]:
    """Run each check input once, untimed."""
    raw = []
    for index, item in enumerate(items):
        wall, result, error = run_timed(runner, item)
        raw.append((index, wall, float("nan"), result, error))
    return to_records(runner, items, raw, kind="check")


def by_key(records: list[OpRecord]) -> dict:
    """Outputs by key; the first record of each key wins."""
    out: dict = {}
    for r in records:
        for o in r.outputs:
            out.setdefault(o.key, o)
    return out


def mark_mismatches(records: list[OpRecord], reference: dict) -> None:
    """Every output must repeat the reference output for its key exactly."""
    for r in records:
        for o in r.outputs:
            ref = reference.get(o.key)
            if ref is not None and ref is not o and ref.digest != o.digest:
                o.problems.append(f"output {o.key} differs from its earlier run")


def failure_counts(records: list[OpRecord]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): one operation per generation or row."""
    attempted = failed = 0
    problems = []
    for r in records:
        attempted += len(r.outputs) + r.failed
        failed += r.failed
        for o in r.outputs:
            if o.problems:
                failed += 1
                problems += o.problems
    return attempted, failed, problems


def outputs_sha256(outputs: dict) -> str:
    return _digest([outputs[k].digest for k in sorted(outputs, key=repr)])


def host_metrics(records: list[OpRecord]) -> dict:
    """Host-time metrics over the measured inputs, from wall-clock scaled to
    the nominal host. ``tokens_per_s`` and ``gen_ms_p50`` time each input by
    the median of its passes; ``gen_ms_tail`` is taken over every timed
    generation of every pass. ``gen_ms_*`` is per generation; a ``sweep``
    call is divided by its rows."""
    times: dict[tuple, list[float]] = {}
    tokens: dict[tuple, int] = {}
    rows: dict[tuple, int] = {}
    passes: dict[tuple, int] = {}
    every: list[float] = []
    for r in records:
        passes[r.key] = passes.get(r.key, 0) + 1
        if r.failed:
            continue
        times.setdefault(r.key, []).append(r.scaled_s)
        tokens[r.key] = sum(len(o.tokens) for o in r.outputs)
        rows[r.key] = len(r.outputs)
        every.append(1e3 * r.scaled_s / len(r.outputs))
    typical = {k: statistics.median(v) for k, v in times.items()}
    ms = [1e3 * typical[k] / rows[k] for k in sorted(typical)]
    tail, pct = tail_percentile(every)
    return {
        "tokens_per_s": sum(tokens.values()) / sum(typical.values()),
        "gen_ms_p50": float(statistics.median(ms)),
        "gen_ms_tail": tail,
        "gen_ms_tail_pct": pct,
        "gen_n": len(every),
        "passes": min(passes.values()),
        "host_speed": statistics.median(1.0 / r.slowdown for r in records),
    }


def modeled_metrics(runner: Runner, outputs: dict, references: dict) -> dict:
    """The paper's metrics, pooled over the outputs: every generation, or
    every non-AR row of a sweep."""
    outs = [o for o in outputs.values() if o.mode != "ar"] or list(outputs.values())
    tokens = sum(len(o.tokens) for o in outs)
    cost = sum(r.step_cost for o in outs for r in o.reports)
    steps = sum(len(o.reports) for o in outs)
    tau = sum(r.tau for o in outs for r in o.reports)
    # A missing reference (its AR row failed) counts as no match at all.
    matches = [prefix_match(o.tokens, references.get(o.key) or []) for o in outs]
    ar_cost = COST.ar_step_cost(runner.cfg.n_layers, runner.cfg.top_k)
    return {
        "modeled_speedup": ar_cost * tokens / cost,
        "mean_tau": tau / steps,
        "prefix_match_tokens": sum(matches) / len(matches),
    }


def report_counts(runner: Runner, outputs: dict) -> dict:
    """Per-layer counts from the step reports; a change that only speeds the
    program up leaves every one of them exactly equal."""
    outs = list(outputs.values())
    reports = [r for o in outs for r in o.reports]
    tokens = sum(len(o.tokens) for o in outs)
    spec = [(o, r) for o in outs if o.mode != "ar" for r in o.reports]
    drafted = sum(o.tree_size for o, _ in spec)
    k = runner.cfg.top_k
    missing = slots = skipped = rows = 0
    for r in reports:
        for layer_missing, layer_skipped in zip(r.missing_counts or (), r.fully_skipped or ()):
            missing += sum(layer_missing)
            slots += k * len(layer_missing)
            skipped += sum(layer_skipped)
            rows += len(layer_skipped)
    return {
        "draft_tree.accept_ratio": sum(r.tau - 1 for _, r in spec) / drafted if drafted else 0.0,
        "moe_core.unique_experts_per_layer": float(
            np.mean([u for r in reports for u in r.unique_experts])
        ),
        "coverage.missing_slot_frac": missing / slots if slots else 0.0,
        "coverage.fully_skipped_frac": skipped / rows if rows else 0.0,
        "simulator.steps_per_tok": len(reports) / tokens,
        "simulator.verify_cost_per_tok": sum(r.verify_cost for r in reports) / tokens,
        "simulator.draft_cost_per_tok": sum(r.draft_cost for r in reports) / tokens,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (the
    sweep's pool workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
