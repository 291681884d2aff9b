"""Command-line entry point: wires experiment configs to the simulator and
analysis modules and emits every artifact deterministically.

Three commands: ``simulate`` sweeps the expert budget at every configured
tree size, ``coverage`` measures routing coverage by budget, and
``calibrate-static`` writes the static expert ordering. ``coverage`` is the
one command that runs one tree size (63 unless set).

Each run coordinate is one ``ExperimentConfig`` field, and its annotation
is its JSON type: ``tree_sizes`` holds the tree sizes, ``seeds`` the
evaluation seeds (``--prompts N`` spells seeds 0..N-1). ``READS`` names
the fields each command reads. A command takes a flag only for a field it
reads, besides ``--config``, ``--seed`` (which sets ``model.seed``) and, on
``coverage``, ``--trace``. A run on a trace reads only ``TRACE_READS`` and
refuses the flags of the other fields. Precedence is CLI flag > config file
> command default (``coverage``'s one tree size) > built-in default.
Every config record checks itself when it is built, so the merged config
is checked as ``load_config`` builds it; then every field the command
does not read goes back to its built-in default. Each flag's destination
is the name of the config field it sets, and each subcommand carries its
``cmd_*`` function. ``main`` builds one header record per run: the tool
version, the command, the master seed and the echo of exactly the fields
the command reads. ``write_csv`` renders it as the leading ``# `` lines
and ``write_json`` as the ``header`` object, so every output file is
self-describing; reruns of the same config produce byte-identical files at
any worker count.
``cmd_sweep`` writes each ``SweepRow`` as one CSV row: its columns are the
cell coordinates ``CELL_COORDS``, then the row's scalar fields in their
declared order. Its summary JSON and Pareto table both aggregate cells
through ``analysis.cell_summaries``.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import cell_summaries, coverage_curve, pareto_table, read_trace
from .budgeting import METHODS, static_ranking_report
from .coverage import CoveragePolicy, LayerBudget
from .draft_tree import binary_branching, build_tree, tree_routing
from .numerics import Rng
from .simulator import (
    CALIB_STREAM,
    CELL_COORDS,
    CONTEXT_LEN,
    CostModelParams,
    SweepCell,
    SweepRow,
    SweepSpec,
    build_model_pair,
    default_calibration,
    sweep,
)
from .toy_model import DraftSpec, ModelConfig, PRESETS, preset_config, random_tokens

DEFAULT_TREE_SIZES = (3, 7, 15, 31, 63, 127, 255)
ONE_TREE_SIZE = 63  # the default tree size of coverage, which runs one
ANALYSIS_STREAM = 103


class ConfigError(Exception):
    """Invalid experiment configuration; the message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Every run coordinate of a command. Checked when built, each error a
    ConfigError naming the field: every plain field against its annotation
    by ``_checked``, the JSON path's own check, and model, draft and cost
    as instances of their records, which check themselves."""

    preset: str | None = None
    model: ModelConfig = field(default_factory=ModelConfig)
    draft: DraftSpec = field(default_factory=DraftSpec)
    tree_sizes: tuple[int, ...] = DEFAULT_TREE_SIZES
    budgets: tuple[int, ...] = (8, 16, 24, 32, 40, 48, 56)
    methods: tuple[str, ...] = ("router",)
    policies: tuple[str, ...] = ("substitution",)
    seeds: tuple[int, ...] = (0, 1, 2, 3)
    gen_len: int = 64
    trees: int = 20
    cost: CostModelParams = field(default_factory=CostModelParams)
    out_dir: str = "out"
    workers: int = 1

    def __post_init__(self):
        for name, hint in _CONFIG_HINTS.items():
            value = getattr(self, name)
            if not dataclasses.is_dataclass(hint):
                object.__setattr__(self, name, _checked(name, value, hint))
            elif not isinstance(value, hint):
                raise ConfigError(f"{name}: expected a {hint.__name__}, got {value!r}")
        for name in ("tree_sizes", "budgets", "methods", "policies", "seeds"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name}: list must not be empty")
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:
                raise ConfigError(f"{name}: {json.dumps(repeats[0])} repeats")
        if any(b < 1 for b in self.budgets):
            raise ConfigError("budgets: every budget must be >= 1")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds: every seed must be >= 0")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"methods: unknown ranking method {m!r}")
        for p in self.policies:
            try:
                CoveragePolicy(p)
            except ValueError as exc:
                raise ConfigError(f"policies: {exc}") from exc
        for size in self.tree_sizes:
            try:
                binary_branching(size)
            except ValueError as exc:
                raise ConfigError(f"tree_sizes: {exc}") from exc
        if self.gen_len < 1:
            raise ConfigError("gen_len: must be >= 1")
        if self.trees < 1:
            raise ConfigError("trees: must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers: must be >= 1")


_CONFIG_HINTS = typing.get_type_hints(ExperimentConfig)

# The config fields each command reads: the flags it takes, the fields it
# echoes, and whether its budgets are checked all follow from this table.
_MODEL_READS = ("preset", "model", "draft", "out_dir")
READS = {
    "simulate": tuple(f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "trees"),
    "coverage": _MODEL_READS + ("tree_sizes", "trees"),
    "calibrate-static": _MODEL_READS,
}
# A coverage run on an external routing trace builds no model and draws no
# trees: it reads only these.
TRACE_READS = ("preset", "model", "out_dir")


_KINDS = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
          list: "a list", dict: "an object"}


def _typed(name: str, value, kind: type):
    """``value`` if it has JSON type ``kind`` (a number may be an integer;
    a boolean is neither); otherwise a ConfigError naming the field."""
    ok = isinstance(value, {float: (int, float), list: (list, tuple)}.get(kind, kind))
    if not ok or (kind in (int, float) and isinstance(value, bool)):
        got = json.dumps(value, default=repr)
        raise ConfigError(f"{name}: expected {_KINDS[kind]}, got {got}")
    return value


def _checked(name: str, value, hint):
    """``value`` checked against the field annotation ``hint``: ``X | None``
    also takes null, ``tuple[X, ...]`` takes a list (returned as a tuple),
    and a config dataclass takes an object (returned as a dict of its
    checked keys)."""
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
    if dataclasses.is_dataclass(hint):
        return _fields(hint, _typed(name, value, dict), f"{name}.")
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        items = _typed(name, value, list)
        return tuple(_checked(f"{name}[{i}]", v, item) for i, v in enumerate(items))
    return _typed(name, value, hint)


def _fields(cls: type, data: dict, prefix: str = "") -> dict:
    """The keys of the JSON object ``data``, each naming a field of the
    config dataclass ``cls`` and checked against its annotation."""
    hints = typing.get_type_hints(cls)
    for key in data:
        if key not in hints:
            raise ConfigError(f"{prefix}{key}: unknown configuration field")
    return {key: _checked(prefix + key, value, hints[key]) for key, value in data.items()}


def load_config(
    path: str | None, overrides: dict, defaults: dict, reads: tuple[str, ...]
) -> ExperimentConfig:
    """Merge the built-in defaults, a command's ``defaults``, an optional
    JSON config file, and CLI overrides, later ones winning. An override of
    a model/draft/cost key (--seed sets model.seed) merges into the file's
    block instead of replacing it. Each record checks itself as it is built
    from the merge, a model/draft/cost error named by its block; then the
    fields outside ``reads`` go back to their built-in defaults."""
    data: dict = {}
    if path is not None:
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config: top level must be a JSON object")
    file = _fields(ExperimentConfig, data)
    flags = _fields(ExperimentConfig, {k: v for k, v in overrides.items() if v is not None})
    merged = {**defaults, **file, **flags}

    preset = merged.get("preset")
    if preset is not None and preset not in PRESETS:
        raise ConfigError(f"preset: unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    base_model = ModelConfig() if preset is None else preset_config(preset)
    builders = {"model": lambda **kw: dataclasses.replace(base_model, **kw),
                "draft": DraftSpec, "cost": CostModelParams}
    for name, build in builders.items():
        try:
            merged[name] = build(**{**file.get(name, {}), **flags.get(name, {})})
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    cfg = ExperimentConfig(**merged)
    return ExperimentConfig(**{name: getattr(cfg, name) for name in reads})


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


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_csv(path: Path, header: dict, columns, rows) -> None:
    """``header`` as four ``# `` lines, then the column names and ``rows``."""
    lines = [
        f"# {header['tool']}",
        f"# command: {header['command']}",
        f"# master_seed: {header['master_seed']}",
        f"# config: {json.dumps(header['config'], sort_keys=True)}",
        ",".join(columns),
    ]
    lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
    _write_lines(path, lines)


def write_json(path: Path, header: dict, payload: dict) -> None:
    """``payload`` with ``header`` as its ``header`` object."""
    _write_lines(path, [json.dumps({"header": header, **payload}, sort_keys=True, indent=1)])


SWEEP_COLUMNS = CELL_COORDS + tuple(
    f.name for f in dataclasses.fields(SweepRow) if f.type in ("int", "float")
)

PARETO_COLUMNS = CELL_COORDS + ("speedup", "quality_pct")

COVERAGE_COLUMNS = ("layer", "budget", "coverage_mean", "coverage_std", "records")


def cmd_sweep(config: ExperimentConfig, header: dict) -> int:
    """Sweep the AR baseline, full verification at each configured tree
    size, and budgeted verification at each size x method x policy x
    budget; write the rows, the Pareto table and the cell summaries."""
    cells = [SweepCell(mode="ar")]
    for size in config.tree_sizes:
        cells.append(SweepCell(mode="spec_full", tree_size=size))
        for method, policy, budget in itertools.product(
            config.methods, config.policies, config.budgets
        ):
            cells.append(SweepCell("spec_budgeted", size, method, policy, budget))
    spec = SweepSpec(
        model_config=config.model,
        draft_spec=config.draft,
        cells=tuple(cells),
        seeds=config.seeds,
        gen_len=config.gen_len,
        cost=config.cost,
    )
    result = sweep(spec, workers=config.workers, strict=False)

    out_dir = Path(config.out_dir)
    write_csv(
        out_dir / "simulate.csv",
        header,
        SWEEP_COLUMNS,
        [{**dataclasses.asdict(r), **dataclasses.asdict(r.cell)} for r in result.rows],
    )
    write_csv(out_dir / "simulate_pareto.csv", header, PARETO_COLUMNS, pareto_table(result.rows))
    write_json(out_dir / "simulate_summary.json", header, {"cells": cell_summaries(result.rows)})
    for r in result.rows:
        print(
            f"[simulate] {r.cell.mode} method={r.cell.method or '-'} "
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


def _captures(config: ExperimentConfig) -> list[list[LayerBudget]]:
    """The full-capacity per-layer records of the config's ``trees`` seeded
    draft trees of size ``tree_sizes[0]`` on its target model, teacher
    forced: the tree population of ``coverage``. Tree ``t`` grows from a
    random context of ``CONTEXT_LEN`` tokens drawn from substream ``t`` of
    ``ANALYSIS_STREAM``."""
    target, draft = build_model_pair(config.model, config.draft)
    rng = Rng(config.model.seed).substream(ANALYSIS_STREAM)
    branching = binary_branching(config.tree_sizes[0])
    trees = []
    for t in range(config.trees):
        context = random_tokens(rng.substream(t), CONTEXT_LEN, target.config.vocab_size)
        trees.append(tree_routing(target, context, build_tree(draft, context, branching)))
    return trees


def _load_records(config: ExperimentConfig, trace: str | None) -> dict[int, list[np.ndarray]]:
    """Each layer's (tokens, n_experts) routing probabilities, one array per
    tree, or one array holding the whole ``trace``."""
    if trace is not None:
        try:
            parsed = read_trace(
                trace, config.model.n_experts, k=config.model.top_k, n_layers=config.model.n_layers
            )
        except (OSError, ValueError) as exc:
            raise ConfigError(f"trace: {exc}") from exc
        return {li: [probs] for li, probs in parsed.items()}
    trees = _captures(config)
    return {li: [layers[li].probs for layers in trees] for li in range(config.model.n_layers)}


def cmd_coverage(config: ExperimentConfig, header: dict, trace: str | None = None) -> int:
    """Cumulative routing-probability coverage by expert budget, per layer."""
    records = _load_records(config, trace)
    rows = []
    for li in sorted(records):
        curves = np.stack([coverage_curve(p) for p in records[li]])
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
    write_csv(Path(config.out_dir, "coverage.csv"), header, COVERAGE_COLUMNS, rows)
    return 0


def cmd_calibrate_static(config: ExperimentConfig, header: dict) -> int:
    """Selection-frequency calibration and the fixed expert ordering it
    induces, written as a JSON report of what static ranking uses."""
    target, _ = build_model_pair(config.model, config.draft)
    counts = default_calibration(target, Rng(config.model.seed).substream(CALIB_STREAM))
    write_json(
        Path(config.out_dir, "static_ranking.json"),
        header,
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


def _seed_range(text: str) -> tuple[int, ...]:
    try:
        return tuple(range(int(text)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc


# Each config field that has a flag: the flag and its argparse settings.
# The flag's destination is the field.
_FLAGS = {
    "workers": ("--workers", dict(type=int, help="parallel sweep workers")),
    "out_dir": ("--out-dir", dict(help="output directory")),
    "preset": ("--preset", dict(choices=sorted(PRESETS), help="model shape preset")),
    "budgets": ("--budget", dict(type=_int_list, help="comma-separated expert budgets")),
    "methods": ("--method", dict(type=_str_list, help="ranking methods (static,router,oracle)")),
    "policies": (
        "--policy", dict(type=_str_list, help="coverage policies (truncation,substitution)")
    ),
    "tree_sizes": ("--tree-size", dict(type=_int_list, help="draft tree sizes (2^j - 1)")),
    "gen_len": ("--gen-len", dict(type=int, help="tokens to generate per run")),
    "seeds": ("--prompts", dict(type=_seed_range, help="N evaluation prompts: seeds 0..N-1")),
    "trees": ("--trees", dict(type=int, help="trees per analysis")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moebudget",
        description="Expert-budgeted speculative decoding laboratory",
    )
    parser.add_argument("--version", action="version", version=f"moebudget {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, run, help: str, trace: bool = False, one_size: bool = False):
        # A ``one_size`` command runs at tree_sizes[0], so a list of sizes is
        # an error.
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, one_size=one_size)
        p.add_argument("--config", help="JSON experiment config file")
        p.add_argument("--seed", type=int, help="master seed (model weights and streams)")
        for field_name, (flag, settings) in _FLAGS.items():
            if field_name in READS[name]:
                p.add_argument(flag, dest=field_name, **settings)
        if trace:
            p.add_argument("--trace", help="external routing trace (JSON lines)")

    add_command("simulate", cmd_sweep, "tree-size sweep with budgeted verification")
    add_command("coverage", cmd_coverage, "routing-probability coverage curves",
                trace=True, one_size=True)
    add_command("calibrate-static", cmd_calibrate_static, "static ranking calibration")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Every flag whose destination names a config field overrides it; --seed
    # sets model.seed.
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in fields}
    if args.seed is not None:
        overrides["model"] = {"seed": args.seed}
    defaults = {"tree_sizes": (ONE_TREE_SIZE,)} if args.one_size else {}
    trace = getattr(args, "trace", None)
    reads = READS[args.command] if trace is None else TRACE_READS
    try:
        # A --trace run refuses the flags of the fields it does not read.
        for name, value in overrides.items():
            if value is not None and name not in reads:
                raise ConfigError(f"{name}: {args.command} --trace does not read this field")
        config = load_config(args.config, overrides, defaults, reads)
        if "tree_sizes" in reads and args.one_size and len(config.tree_sizes) > 1:
            sizes = ",".join(map(str, config.tree_sizes))
            raise ConfigError(f"tree_sizes: {args.command} runs one tree size, got {sizes}")
        # A budget above the expert count is refused wherever budgets run, as
        # the rankers refuse it.
        n_experts = config.model.n_experts
        over = [b for b in config.budgets if b > n_experts]
        if "budgets" in reads and over:
            raise ConfigError(f"budgets: {over[0]} exceeds model.n_experts {n_experts}")
        data = dataclasses.asdict(config)
        header = {
            "tool": f"moebudget {__version__}",
            "command": args.command,
            "master_seed": config.model.seed,
            "config": {key: data[key] for key in reads},
        }
        if "trace" in args:
            return args.run(config, header, trace)
        return args.run(config, header)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
