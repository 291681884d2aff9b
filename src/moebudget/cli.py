"""Command-line entry point: wires experiment configs to the simulator and
analysis modules and emits every artifact deterministically.

Configuration precedence is CLI flag > config file > built-in default; each
flag's destination is the name of the config field it sets, and each
subcommand carries its ``cmd_*`` function. Every output file starts with a
header block carrying the tool version, the full config echo, and the master
seed, so results are self-describing; reruns of the same config produce
byte-identical files at any worker count. ``simulate`` and ``ablate`` write
each ``SweepRow``'s fields as one CSV row, and their summary JSON and Pareto
table both aggregate cells through ``analysis.cell_summaries``.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    cell_summaries,
    coactivation,
    concentration_ratio,
    coverage_curve,
    expected_pair_probability,
    max_pair_count,
    pareto_table,
    read_trace,
    reconstruction_analysis,
    tree_captures,
)
from .budgeting import METHODS, static_ranking_report
from .coverage import CoveragePolicy
from .draft_tree import binary_branching
from .numerics import Rng
from .simulator import (
    CALIB_STREAM,
    CostModelParams,
    SweepCell,
    SweepSpec,
    build_model_pair,
    default_calibration,
    sweep,
)
from .toy_model import DraftSpec, ModelConfig, PRESETS, preset_config

DEFAULT_TREE_SIZES = (3, 7, 15, 31, 63, 127, 255)
ANALYSIS_STREAM = 103


class ConfigError(Exception):
    """Invalid experiment configuration; the message names the field."""


@dataclass
class ExperimentConfig:
    preset: str | None = None
    model: ModelConfig = field(default_factory=ModelConfig)
    draft: DraftSpec = field(default_factory=DraftSpec)
    tree_size: int = 63
    tree_sizes: tuple[int, ...] = DEFAULT_TREE_SIZES
    budgets: tuple[int, ...] = (8, 16, 24, 32, 40, 48, 56)
    methods: tuple[str, ...] = ("router",)
    policies: tuple[str, ...] = ("substitution",)
    seeds: tuple[int, ...] = ()
    prompts: int = 4
    gen_len: int = 64
    context_len: int = 16
    trees: int = 20
    cost: CostModelParams = field(default_factory=CostModelParams)
    uses_raw_g: bool = True
    out_dir: str = "out"
    workers: int = 1

    def eval_seeds(self) -> tuple[int, ...]:
        return self.seeds if self.seeds else tuple(range(self.prompts))

    def validate(self) -> None:
        if self.preset is not None and self.preset not in PRESETS:
            raise ConfigError(f"preset: unknown preset {self.preset!r}; choose from {sorted(PRESETS)}")
        try:
            self.model.validate()
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc
        try:
            self.draft.validate(self.model.n_layers)
        except ValueError as exc:
            raise ConfigError(f"draft: {exc}") from exc
        try:
            self.cost.validate()
        except ValueError as exc:
            raise ConfigError(f"cost: {exc}") from exc
        if not self.budgets:
            raise ConfigError("budgets: list must not be empty")
        if any(b < 1 for b in self.budgets):
            raise ConfigError("budgets: every budget must be >= 1")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds: every seed must be >= 0")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds: a seed must not repeat")
        if not self.methods:
            raise ConfigError("methods: list must not be empty")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"methods: unknown ranking method {m!r}")
        if not self.policies:
            raise ConfigError("policies: list must not be empty")
        for p in self.policies:
            try:
                CoveragePolicy(p)
            except ValueError as exc:
                raise ConfigError(f"policies: {exc}") from exc
        if not self.tree_sizes:
            raise ConfigError("tree_sizes: list must not be empty")
        for size in (self.tree_size, *self.tree_sizes):
            try:
                binary_branching(size)
            except ValueError as exc:
                raise ConfigError(f"tree_size: {exc}") from exc
        if self.gen_len < 1:
            raise ConfigError("gen_len: must be >= 1")
        if self.prompts < 1 and not self.seeds:
            raise ConfigError("prompts: must be >= 1 when seeds is empty")
        if self.context_len < 1:
            raise ConfigError("context_len: must be >= 1")
        if self.trees < 1:
            raise ConfigError("trees: must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers: must be >= 1")

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


# The JSON type of every scalar or list field, and of each list's items.
_INT_FIELDS = {"tree_size", "prompts", "gen_len", "context_len", "trees", "workers"}
_LIST_FIELDS = {"tree_sizes": int, "budgets": int, "methods": str, "policies": str, "seeds": int}
_OTHER_FIELDS = {"preset": str, "uses_raw_g": bool, "out_dir": str}
_BLOCKS = {"model": ModelConfig(), "draft": DraftSpec(), "cost": CostModelParams()}
_KINDS = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
          list: "a list", dict: "an object"}


def _typed(name: str, value, kind: type):
    """``value`` if it has JSON type ``kind`` (a number may be an integer;
    a boolean is neither); otherwise a ConfigError naming the field."""
    ok = isinstance(value, {float: (int, float), list: (list, tuple)}.get(kind, kind))
    if not ok or (kind in (int, float) and isinstance(value, bool)):
        raise ConfigError(f"{name}: expected {_KINDS[kind]}, got {json.dumps(value)}")
    return value


def _field(name: str, value):
    """A top-level field's value, type-checked; lists become tuples."""
    if name in _INT_FIELDS:
        return _typed(name, value, int)
    if name in _LIST_FIELDS:
        _typed(name, value, list)
        return tuple(_typed(f"{name}[{i}]", v, _LIST_FIELDS[name]) for i, v in enumerate(value))
    if name == "preset" and value is None:
        return None
    return _typed(name, value, _OTHER_FIELDS[name])


def _block(name: str, value) -> dict:
    """A model/draft/cost object; each key must name a field and match the
    type of its default."""
    if value is None:
        return {}
    _typed(name, value, dict)
    default = _BLOCKS[name]
    known = {f.name for f in dataclasses.fields(default)}
    for key, v in value.items():
        if key not in known:
            raise ConfigError(f"{name}.{key}: unknown configuration field")
        want = getattr(default, key)
        if v is not None or want is not None:
            _typed(f"{name}.{key}", v, int if want is None else type(want))
    return value


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    """Merge defaults, an optional JSON config file, and CLI overrides. An
    override of a model/draft/cost key (--seed sets model.seed) merges into
    the file's block instead of replacing it."""
    data: dict = {}
    if path is not None:
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config: top level must be a JSON object")
    overrides = {k: v for k, v in overrides.items() if v is not None}
    merged = {**data, **overrides}

    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key in merged:
        if key not in known:
            raise ConfigError(f"{key}: unknown configuration field")
    if "seed" in merged:  # master seed shortcut folded into the model config
        raise ConfigError("seed: set model.seed or use the --seed flag")

    blocks = {n: {**_block(n, data.get(n)), **_block(n, overrides.get(n))} for n in _BLOCKS}
    kwargs = {name: _field(name, merged[name]) for name in merged if name not in _BLOCKS}
    preset = kwargs.get("preset")
    base_model = ModelConfig()
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"preset: unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        base_model = preset_config(preset)
    kwargs["model"] = dataclasses.replace(base_model, **blocks["model"])
    kwargs["draft"] = DraftSpec(**blocks["draft"])
    kwargs["cost"] = CostModelParams(**blocks["cost"])
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Deterministic file output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def _config_echo(config: ExperimentConfig) -> str:
    return json.dumps(config.to_json(), sort_keys=True)


def _header_lines(command: str, config: ExperimentConfig) -> list[str]:
    return [
        f"# moebudget {__version__}",
        f"# command: {command}",
        f"# master_seed: {config.model.seed}",
        f"# config: {_config_echo(config)}",
    ]


def write_csv(path: Path, command: str, config: ExperimentConfig, columns, rows) -> None:
    lines = _header_lines(command, config)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, command: str, config: ExperimentConfig, payload: dict) -> None:
    doc = {
        "header": {
            "tool": f"moebudget {__version__}",
            "command": command,
            "master_seed": config.model.seed,
            "config": config.to_json(),
        },
        **payload,
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


SWEEP_COLUMNS = (
    "mode",
    "method",
    "policy",
    "budget",
    "tree_size",
    "seed",
    "tokens",
    "steps",
    "mean_tau",
    "mean_unique_experts",
    "max_unique_experts",
    "total_cost",
    "speedup",
    "ar_match_rate",
)

PARETO_COLUMNS = ("mode", "method", "policy", "budget", "tree_size", "speedup", "quality_pct")

COVERAGE_COLUMNS = ("layer", "budget", "coverage_mean", "coverage_std", "records")

COACTIVATION_COLUMNS = (
    "layer",
    "tokens",
    "expected_pair_probability",
    "max_pair_count",
    "concentration",
)

# The error is always the raw weighted sum of the shortlisted experts, so
# ``mode`` always reads "raw"; the column stays so that reconstruct.csv keeps
# its bytes.
RECONSTRUCT_COLUMNS = ("method", "budget", "mode", "trees", "error_mean", "error_std")


def _run_sweep_command(command: str, config: ExperimentConfig, sizes) -> int:
    """Sweep the AR baseline, full verification at each tree size in
    ``sizes``, and budgeted verification at each size x method x policy x
    budget; write the rows, the Pareto table and the cell summaries."""
    cells = [SweepCell(mode="ar")]
    for size in sizes:
        cells.append(SweepCell(mode="spec_full", tree_size=size))
        for method, policy, budget in itertools.product(
            config.methods, config.policies, config.budgets
        ):
            cells.append(SweepCell("spec_budgeted", size, method, policy, budget))
    spec = SweepSpec(
        model_config=config.model,
        draft_spec=config.draft,
        cells=tuple(cells),
        seeds=config.eval_seeds(),
        gen_len=config.gen_len,
        context_len=config.context_len,
        cost=config.cost,
        uses_raw_g=config.uses_raw_g,
    )
    result = sweep(spec, workers=config.workers, strict=False)

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(
        out_dir / f"{command}.csv",
        command,
        config,
        SWEEP_COLUMNS,
        [{**dataclasses.asdict(r), **dataclasses.asdict(r.cell)} for r in result.rows],
    )
    write_csv(
        out_dir / f"{command}_pareto.csv",
        command,
        config,
        PARETO_COLUMNS,
        pareto_table(result.rows),
    )
    write_json(
        out_dir / f"{command}_summary.json",
        command,
        config,
        {"cells": cell_summaries(result.rows)},
    )
    for r in result.rows:
        print(
            f"[{command}] {r.cell.mode} method={r.cell.method or '-'} "
            f"policy={r.cell.policy or '-'} B={r.cell.budget or '-'} "
            f"M={r.cell.tree_size} seed={r.seed}: speedup={r.speedup:.3f} "
            f"tau={r.mean_tau:.2f} match={r.ar_match_rate:.3f}",
            file=sys.stderr,
        )
    if result.failures:
        for cell, seed, err in result.failures:
            print(f"FAILED cell {cell} seed {seed}: {err}", file=sys.stderr)
        return 1
    return 0


def cmd_simulate(config: ExperimentConfig) -> int:
    """Tree-size sweep: AR baseline, full verification, and budgeted
    verification at each configured method, policy and budget."""
    return _run_sweep_command("simulate", config, config.tree_sizes)


def cmd_ablate(config: ExperimentConfig) -> int:
    """Design-space grid at a fixed tree size: every ranking method crossed
    with every coverage policy and budget."""
    return _run_sweep_command("ablate", config, (config.tree_size,))


def _collect_tree_records(config: ExperimentConfig) -> dict[int, dict]:
    """Routing records of `trees` seeded draft trees under the full target."""
    target, draft = build_model_pair(config.model, config.draft)
    rng = Rng(config.model.seed).substream(ANALYSIS_STREAM)
    trees = list(
        tree_captures(target, draft, config.trees, config.tree_size, config.context_len, rng)
    )
    return {
        li: {
            "probs_per_tree": [layers[li].probs for layers in trees],
            "selected": np.concatenate([layers[li].selected for layers in trees]),
        }
        for li in range(target.n_layers)
    }


def _load_records(config: ExperimentConfig, trace: str | None):
    if trace is not None:
        parsed = read_trace(trace, config.model.n_experts, k=config.model.top_k)
        return {
            li: {"probs_per_tree": [rec["probs"]], "selected": rec["selected"]}
            for li, rec in parsed.items()
        }
    return _collect_tree_records(config)


def cmd_coverage(config: ExperimentConfig, trace: str | None = None) -> int:
    """Cumulative routing-probability coverage by expert budget, per layer."""
    records = _load_records(config, trace)
    rows = []
    for li in sorted(records):
        curves = np.stack([coverage_curve(p) for p in records[li]["probs_per_tree"]])
        for b in range(curves.shape[1]):
            rows.append(
                {
                    "layer": li,
                    "budget": b + 1,
                    "coverage_mean": float(curves[:, b].mean()),
                    "coverage_std": float(curves[:, b].std()),
                    "records": curves.shape[0],
                }
            )
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "coverage.csv", "coverage", config, COVERAGE_COLUMNS, rows)
    return 0


def cmd_coactivation(config: ExperimentConfig, trace: str | None = None) -> int:
    """Pairwise expert co-activation counts and the concentration ratio of
    the most frequent pair against uniform-random expectation."""
    n = config.model.n_experts
    k = config.model.top_k
    if k < 2:
        raise ConfigError(f"model.top_k: coactivation needs top_k >= 2 to form pairs, got {k}")
    records = _load_records(config, trace)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_rows = []
    for li in sorted(records):
        selected = records[li]["selected"]
        counts = coactivation(selected, n)
        summary_rows.append(
            {
                "layer": li,
                "tokens": len(selected),
                "expected_pair_probability": float(expected_pair_probability(n, k)),
                "max_pair_count": max_pair_count(counts),
                "concentration": concentration_ratio(counts, len(selected), k),
            }
        )
        lines = _header_lines("coactivation", config)
        lines.append(f"# layer: {li}")
        for row in counts:
            lines.append(",".join(str(int(v)) for v in row))
        (out_dir / f"coactivation_layer{li}.csv").write_text("\n".join(lines) + "\n")
    write_csv(
        out_dir / "coactivation_summary.csv",
        "coactivation",
        config,
        COACTIVATION_COLUMNS,
        summary_rows,
    )
    return 0


def cmd_reconstruct(config: ExperimentConfig) -> int:
    """Teacher-forced reconstruction error per ranking method and budget,
    averaged over layers and seeded trees."""
    target, draft = build_model_pair(config.model, config.draft)
    static_counts = None
    if "static" in config.methods:
        static_counts = default_calibration(
            target, Rng(config.model.seed).substream(CALIB_STREAM)
        )
    errors = reconstruction_analysis(
        target,
        draft,
        methods=config.methods,
        budgets=config.budgets,
        n_trees=config.trees,
        tree_size=config.tree_size,
        context_len=config.context_len,
        rng=Rng(config.model.seed).substream(ANALYSIS_STREAM),
        static_counts=static_counts,
        uses_raw_g=config.uses_raw_g,
    )
    rows = []
    for method in config.methods:
        for budget in config.budgets:
            errs = errors[(method, int(budget))]
            rows.append(
                {
                    "method": method,
                    "budget": int(budget),
                    "mode": "raw",
                    "trees": len(errs),
                    "error_mean": float(np.mean(errs)),
                    "error_std": float(np.std(errs)),
                }
            )
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "reconstruct.csv", "reconstruct", config, RECONSTRUCT_COLUMNS, rows)
    return 0


def cmd_calibrate_static(config: ExperimentConfig) -> int:
    """Selection-frequency calibration and the fixed expert ordering it
    induces, written as a JSON report of what static ranking uses."""
    target, _ = build_model_pair(config.model, config.draft)
    counts = default_calibration(target, Rng(config.model.seed).substream(CALIB_STREAM))
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(
        out_dir / "static_ranking.json",
        "calibrate-static",
        config,
        static_ranking_report(counts, config.model.top_k),
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moebudget",
        description="Expert-budgeted speculative decoding laboratory",
    )
    parser.add_argument("--version", action="version", version=f"moebudget {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, run, help: str, trace: bool = False, one_size: bool = False):
        # ``one_size`` commands run at tree_size, so a list of sizes is an error.
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, one_size=one_size)
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--seed", type=int, help="master seed (model weights and streams)")
        p.add_argument("--workers", type=int, help="parallel sweep workers")
        p.add_argument("--out-dir", help="output directory")
        p.add_argument("--preset", choices=sorted(PRESETS), help="model shape preset")
        p.add_argument(
            "--budget", dest="budgets", type=_int_list, help="comma-separated expert budgets"
        )
        p.add_argument(
            "--method", dest="methods", type=_str_list, help="ranking methods (static,router,oracle)"
        )
        p.add_argument(
            "--policy", dest="policies", type=_str_list,
            help="coverage policies (truncation,substitution)",
        )
        p.add_argument(
            "--tree-size", dest="tree_sizes", type=_int_list, help="draft tree sizes (2^j - 1)"
        )
        p.add_argument("--gen-len", type=int, help="tokens to generate per run")
        p.add_argument("--prompts", type=int, help="number of evaluation prompts")
        p.add_argument("--trees", type=int, help="trees per analysis")
        if trace:
            p.add_argument("--trace", help="external routing trace (JSON lines)")

    add_command("simulate", cmd_simulate, "tree-size sweep with budgeted verification")
    add_command("ablate", cmd_ablate, "method x policy x budget grid", one_size=True)
    add_command("coverage", cmd_coverage, "routing-probability coverage curves",
                trace=True, one_size=True)
    add_command("coactivation", cmd_coactivation, "expert co-activation analysis",
                trace=True, one_size=True)
    add_command("reconstruct", cmd_reconstruct, "teacher-forced reconstruction error",
                one_size=True)
    add_command("calibrate-static", cmd_calibrate_static, "static ranking calibration")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Every flag whose destination names a config field overrides it; --seed
    # sets model.seed, and a single --tree-size also sets tree_size.
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in fields}
    if args.seed is not None:
        overrides["model"] = {"seed": args.seed}
    if args.tree_sizes is not None and len(args.tree_sizes) == 1:
        overrides["tree_size"] = args.tree_sizes[0]
    try:
        if args.one_size and args.tree_sizes is not None and len(args.tree_sizes) > 1:
            sizes = ",".join(map(str, args.tree_sizes))
            raise ConfigError(f"tree_sizes: {args.command} runs one tree size, got {sizes}")
        config = load_config(args.config, overrides)
        if "trace" in args:
            return args.run(config, args.trace)
        return args.run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
