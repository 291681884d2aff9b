"""End-to-end checks of the command-line entry point on a tiny model: bad
configs fail cleanly, flags merge over the config file, and outputs are
deterministic across reruns and worker counts, with their data bytes
pinned."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json

import numpy as np
import pytest

from moebudget import __version__, cli
from moebudget.cli import main
from reference import write_trace_dense

TINY = {
    "preset": "mixtral-toy",
    "model": {"n_layers": 2, "d_model": 8, "d_ff": 12, "vocab_size": 32},
    "gen_len": 6,
    "seeds": [0, 1],
    "trees": 2,
    "tree_sizes": [7],
    "budgets": [2, 4],
    "methods": ["static", "router", "oracle"],
    "policies": ["truncation"],
}


def run(tmp_path, command, config, *flags, out="out"):
    path = tmp_path / f"{out}.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / out
    code = main([command, "--config", str(path), "--out-dir", str(out_dir), *flags])
    return code, out_dir


def config_echo(csv_path) -> dict:
    [line] = [l for l in csv_path.read_text().splitlines() if l.startswith("# config: ")]
    return json.loads(line[len("# config: "):])


@pytest.mark.parametrize(
    "config, flags, field",
    [
        ({"gen_len": "64"}, (), "gen_len: expected an integer"),
        ({"budgets": 8}, (), "budgets: expected a list"),
        ({"model": [1]}, (), "model: expected an object"),
        ([1, 2], (), "config: top level must be a JSON object"),
        ({"methods": ["router", 3]}, (), "methods[1]: expected a string"),
        ({"model": {"n_layers": "4"}}, (), "model.n_layers: expected an integer"),
        ({"draft": {"noise": 0.1}}, (), "draft.noise: unknown configuration field"),
        ({"cost": {"bytes_shared": True}}, (), "cost.bytes_shared: expected a number"),
        ({}, ("--seed", "-1"), "model: seed must be >= 0"),
        ({"model": {"seed": -3}}, (), "model: seed must be >= 0"),
        ({"seeds": [0, -3]}, (), "seeds: every seed must be >= 0"),
        ({"seeds": [2, 0, 2]}, (), "seeds: 2 repeats"),
        ({"model": {"skew": float("nan")}}, (), "model: skew must be finite"),
        ({"draft": {"noise_std": float("inf")}}, (), "draft: noise_std must be finite"),
        ({"cost": {"bytes_shared": float("nan")}}, (), "cost: bytes_shared must be finite"),
        ({"tree_size": 3}, (), "tree_size: unknown configuration field"),
        ({"prompts": 3}, (), "prompts: unknown configuration field"),
        ({"seeds": []}, (), "seeds: list must not be empty"),
        ({}, ("--prompts", "0"), "seeds: list must not be empty"),
        ({"tree_sizes": [7, 7]}, (), "tree_sizes: 7 repeats"),
        ({"budgets": [2, 2]}, (), "budgets: 2 repeats"),
        ({"methods": ["router", "router"]}, (), 'methods: "router" repeats'),
        ({"policies": ["truncation", "truncation"]}, (), 'policies: "truncation" repeats'),
        ({"tree_sizes": [10]}, (), "tree_sizes: "),
        ({"preset": "gpt-toy"}, (), "preset: unknown preset 'gpt-toy'"),
        ({"preset": 3}, (), "preset: expected a string"),
        ({"model": {"renormalize": 1}}, (), "model.renormalize: expected a boolean"),
        ({"uses_raw_g": True}, (), "uses_raw_g: unknown configuration field"),
        ({"draft": {"layers_kept": 2}}, (), "draft.layers_kept: unknown configuration field"),
        ({"context_len": 16}, (), "context_len: unknown configuration field"),
    ],
    ids=["string_int", "scalar_list", "array_model", "top_level_array", "list_item",
         "nested_string_int", "unknown_nested_key", "bool_number", "negative_seed_flag",
         "negative_model_seed", "negative_eval_seed", "repeated_eval_seed", "nan_skew",
         "infinite_noise_std", "nan_bytes_shared", "old_tree_size_field", "old_prompts_field",
         "empty_seeds", "zero_prompts_flag", "repeated_tree_size", "repeated_budget",
         "repeated_method", "repeated_policy", "non_binary_tree_size", "unknown_preset",
         "optional_nested_int", "int_bool", "old_uses_raw_g_field", "old_layers_kept_field",
         "old_context_len_field"],
)
def test_bad_config_exits_2_naming_the_field(tmp_path, capsys, monkeypatch, config, flags, field):
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built before the config was checked")

    monkeypatch.setattr(cli, "build_model_pair", no_model)
    monkeypatch.setattr(cli, "sweep", no_model)
    # Each case runs on a command that reads the field it names: coverage
    # where it does, else simulate, which reads every field but trees.
    name = field.split(":")[0].split(".")[0].split("[")[0]
    command = "coverage" if name in cli.READS["coverage"] else "simulate"
    code, _ = run(tmp_path, command, config, *flags)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: " + field)
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [c for c, reads in cli.READS.items() if "budgets" in reads])
def test_budget_above_n_experts_refused_before_any_model_is_built(
    tmp_path, capsys, monkeypatch, command
):
    # Run clamped to the model's 8 experts, B=16 would repeat B=8's numbers
    # under its own label.
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built before the budgets were checked")

    monkeypatch.setattr(cli, "build_model_pair", no_model)
    code, out_dir = run(tmp_path, command, TINY, "--budget", "4,16,32")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: budgets: 16 exceeds model.n_experts 8")
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command", [c for c, reads in cli.READS.items() if "budgets" not in reads]
)
def test_commands_that_run_no_budget_ignore_its_size(tmp_path, command):
    # The default budget ladder reaches 56, past mixtral-toy's 8 experts,
    # and none of these commands runs a budget.
    config = {key: value for key, value in TINY.items() if key != "budgets"}
    code, out_dir = run(tmp_path, command, {**config, "trees": 1})
    assert code == 0
    assert any(out_dir.iterdir())


@pytest.mark.parametrize(
    "field, value, message",
    [("budgets", (), "budgets: list must not be empty"), ("workers", 0, "workers: must be >= 1")],
    ids=["empty_budgets", "zero_workers"],
)
def test_experiment_config_checked_when_built_and_frozen(field, value, message):
    with pytest.raises(cli.ConfigError, match=f"^{message}$"):
        cli.ExperimentConfig(**{field: value})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cli.ExperimentConfig(), field, value)


@pytest.mark.parametrize("command", ["coverage"])
@pytest.mark.parametrize(
    "trace, message",
    [
        ('{"layer": 0, "probs": [0, 0, 0, 0, 0, 0, 0, 0]}\n', "line 1: probabilities sum to 0"),
        (None, "No such file or directory"),
        ("", "trace.jsonl holds no records"),
        ("\n  \n\t\n", "trace.jsonl holds no records"),
        ('{"layer": 2, "probs": [0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125]}\n',
         "line 1: layer 2 outside 0..1"),
        ('{"layer": 0, "probs": [0.5, 0.5, 0, 0, 0, 0, 0, 0], "topk": [[7, 0.9], [6, 0.1]]}\n',
         "line 1: record takes 'probs' or 'topk', not both"),
    ],
    ids=["all_zero_dense", "missing", "empty", "all_blank", "layer_past_the_model",
         "probs_and_topk"],
)
def test_bad_trace_exits_2_naming_the_trace(tmp_path, capsys, command, trace, message):
    path = tmp_path / "trace.jsonl"
    if trace is not None:
        path.write_text(trace)
    code, out_dir = run(tmp_path, command, TINY, "--trace", str(path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: trace: ")
    assert message in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def write_tiny_trace(tmp_path):
    """A dense routing trace for TINY's 8 experts: 3 tokens on each of 2 layers."""
    probs = np.random.default_rng(4).dirichlet(np.ones(8), size=3)
    path = tmp_path / "trace.jsonl"
    write_trace_dense(path, {0: probs, 1: probs[::-1]})
    return path


@pytest.mark.parametrize("command", ["coverage"])
@pytest.mark.parametrize(
    "flags, field", [(("--trees", "5"), "trees"), (("--tree-size", "7"), "tree_sizes")]
)
def test_trace_run_refuses_flags_it_does_not_read(tmp_path, capsys, command, flags, field):
    # A trace run draws no trees, so a tree count or size would only be echoed.
    code, out_dir = run(tmp_path, command, TINY, "--trace", str(write_tiny_trace(tmp_path)),
                        *flags)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {field}: {command} --trace does not read this field")
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["coverage"])
def test_trace_run_echoes_only_what_it_reads(tmp_path, command):
    # TINY's file sets trees and tree_sizes; a trace run reads neither, nor
    # the draft, so none of them may appear in its echo.
    code, out_dir = run(tmp_path, command, TINY, "--trace", str(write_tiny_trace(tmp_path)),
                        "--seed", "3")
    assert code == 0
    files = sorted(out_dir.iterdir())
    assert files
    for path in files:
        echo = header_of(path)["config"]
        assert set(echo) == set(cli.TRACE_READS) == {"preset", "model", "out_dir"}
        assert echo["model"]["seed"] == 3


def test_seed_flag_merges_into_config_model_block(tmp_path):
    code, out_dir = run(tmp_path, "coverage", {**TINY, "trees": 1}, "--seed", "5")
    assert code == 0
    model = config_echo(out_dir / "coverage.csv")["model"]
    assert model["seed"] == 5
    assert {k: model[k] for k in TINY["model"]} == TINY["model"]


@pytest.mark.parametrize(
    "flags, field, value",
    [
        (["--budget", "3,5"], "budgets", [3, 5]),
        (["--method", "oracle,static"], "methods", ["oracle", "static"]),
        (["--policy", "substitution"], "policies", ["substitution"]),
        pytest.param(["--tree-size", "3"], "tree_sizes", [3], id="--tree-size-tree_sizes-single"),
        (["--tree-size", "3,15"], "tree_sizes", [3, 15]),
        (["--gen-len", "9"], "gen_len", 9),
        (["--prompts", "3"], "seeds", [0, 1, 2]),
        (["--trees", "2"], "trees", 2),
        (["--workers", "2"], "workers", 2),
        (["--preset", "olmoe-toy"], "preset", "olmoe-toy"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_every_flag_reaches_its_config_field(tmp_path, capsys, flags, field, value):
    # Every command that reads the field takes the flag and echoes its value;
    # every other command refuses the flag.
    config = {**TINY, "trees": 1, "seeds": [0], "gen_len": 2}
    for command, reads in cli.READS.items():
        if field not in reads:
            with pytest.raises(SystemExit) as exc:
                main([command, *flags])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
            continue
        code, out_dir = run(tmp_path, command, config, *flags, out=command)
        if value == [3, 15] and cli.build_parser().parse_args([command]).one_size:
            assert code == 2  # test_tree_size_list_rejected_where_one_size_runs
            continue
        assert code == 0, command
        echo = header_of(sorted(out_dir.iterdir())[0])["config"]
        assert echo[field] == value
        assert echo[field] != config.get(field)
        assert echo["out_dir"] == str(out_dir)


# A file value of each field that fails its check, with the error's start.
BAD_VALUES = {
    "tree_sizes": ([10], "tree_sizes: "),
    "budgets": ([0], "budgets: every budget must be >= 1"),
    "methods": (["beam"], "methods: unknown ranking method 'beam'"),
    "policies": (["beam"], "policies: "),
    "seeds": ([0, -3], "seeds: every seed must be >= 0"),
    "gen_len": (0, "gen_len: must be >= 1"),
    "trees": (0, "trees: must be >= 1"),
    "cost": ({"bytes_shared": float("nan")}, "cost: bytes_shared must be finite"),
    "workers": (0, "workers: must be >= 1"),
}


@pytest.mark.parametrize(
    "command, name",
    [
        (command, f.name)
        for command, reads in cli.READS.items()
        for f in dataclasses.fields(cli.ExperimentConfig)
        if f.name not in reads
    ],
)
def test_unread_field_is_still_checked(tmp_path, capsys, command, name):
    # A command leaves the fields it does not read at their defaults, but
    # checks them first, so one config file is valid or invalid for every
    # command alike.
    value, message = BAD_VALUES[name]
    code, out_dir = run(tmp_path, command, {**TINY, name: value})
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: " + message)
    assert not out_dir.exists()


def test_every_field_is_read_and_every_command_has_reads():
    fields = {f.name for f in dataclasses.fields(cli.ExperimentConfig)}
    [commands] = [
        a.choices for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    assert set(commands) == set(cli.READS)
    assert set().union(*cli.READS.values()) == fields
    assert set(cli._FLAGS) <= fields


@pytest.mark.parametrize("command", ["coverage"])
def test_tree_size_list_rejected_where_one_size_runs(tmp_path, capsys, command):
    config = {**TINY, "trees": 1, "budgets": [2], "gen_len": 2, "seeds": [0]}
    # A list of sizes is an error whether it comes from the flag or the file.
    for out, file_sizes, flags in [("flag", [7], ("--tree-size", "7,15")),
                                   ("file", [7, 15], ())]:
        code, out_dir = run(tmp_path, command, {**config, "tree_sizes": file_sizes}, *flags,
                            out=out)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: tree_sizes: {command} runs one tree size, got 7,15")
        assert not out_dir.exists()
    # Unset, the command runs, and echoes, its own one-size default.
    default_sizes = {k: v for k, v in config.items() if k != "tree_sizes"}
    code, out_dir = run(tmp_path, command, default_sizes, out="default")
    assert code == 0
    assert config_echo(next(out_dir.glob("*.csv")))["tree_sizes"] == [63]


def csv_rows(path) -> list[dict]:
    lines = [l for l in path.read_text().splitlines() if l[0] != "#"]
    return [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]


def test_file_tree_size_reaches_simulate(tmp_path):
    config = {**TINY, "tree_sizes": [3], "methods": ["router"], "budgets": [2], "gen_len": 2}
    code, out_dir = run(tmp_path, "simulate", config)
    assert code == 0
    sizes = {(r["mode"], r["tree_size"]) for r in csv_rows(out_dir / "simulate.csv")}
    # The AR baseline's cell keeps its default size label.
    assert sizes == {("ar", "63"), ("spec_full", "3"), ("spec_budgeted", "3")}


def test_prompts_flag_overrides_file_seeds(tmp_path):
    config = {**TINY, "seeds": [5], "methods": ["router"], "budgets": [2], "gen_len": 2}
    code, out_dir = run(tmp_path, "simulate", config, "--prompts", "2")
    assert code == 0
    assert config_echo(out_dir / "simulate.csv")["seeds"] == [0, 1]
    assert {r["seed"] for r in csv_rows(out_dir / "simulate.csv")} == {"0", "1"}


def test_export_model_is_an_unknown_command(capsys):
    for command in ("export-model", "reconstruct", "coactivation", "ablate"):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["coverage"])
def test_analysis_outputs_byte_identical_across_runs(tmp_path, command):
    first = run(tmp_path, command, TINY, out="a")
    second = run(tmp_path, command, TINY, out="b")
    assert first[0] == second[0] == 0
    csv = f"{command}.csv"
    body_a = (first[1] / csv).read_bytes().replace(str(first[1]).encode(), b"OUT")
    body_b = (second[1] / csv).read_bytes().replace(str(second[1]).encode(), b"OUT")
    assert body_a == body_b


def test_simulate_rows_identical_at_any_worker_count(tmp_path):
    config = {**TINY, "methods": ["static", "router"], "budgets": [2]}
    serial = run(tmp_path, "simulate", config, "--workers", "1", out="w1")
    pooled = run(tmp_path, "simulate", config, "--workers", "2", out="w2")
    assert serial[0] == pooled[0] == 0
    for name in ("simulate.csv", "simulate_pareto.csv"):
        # The header echoes the config, worker count included; the rows
        # below it must not depend on it.
        rows = [
            [l for l in (d / name).read_text().splitlines() if not l.startswith("#")]
            for d in (serial[1], pooled[1])
        ]
        assert len(rows[0]) > 1
        assert rows[0] == rows[1]


def test_simulate_runs_every_method_and_policy(tmp_path):
    flags = ("--method", "static,router", "--policy", "truncation,substitution",
             "--budget", "2", "--tree-size", "3", "--gen-len", "4", "--prompts", "1")
    code, out_dir = run(tmp_path, "simulate", TINY, *flags)
    assert code == 0
    budgeted = sorted(
        (r["method"], r["policy"], r["budget"], r["tree_size"])
        for r in csv_rows(out_dir / "simulate.csv") if r["mode"] == "spec_budgeted"
    )
    assert budgeted == [
        (m, p, "2", "3") for m in ("router", "static") for p in ("substitution", "truncation")
    ]


def header_of(path) -> dict:
    """The header block of an output file: the leading ``# key: value``
    lines of a CSV file, the ``header`` object of a JSON file."""
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)["header"]
    lines = text.splitlines()
    assert lines[0] == f"# moebudget {__version__}"
    fields = dict(l[2:].split(": ", 1) for l in lines[1:4])
    assert all(l.startswith("# ") for l in lines[:4]) and list(fields) == [
        "command", "master_seed", "config"
    ]
    return {
        "tool": lines[0][2:],
        "command": fields["command"],
        "master_seed": int(fields["master_seed"]),
        "config": json.loads(fields["config"]),
    }


@pytest.mark.parametrize("command", ["simulate", "coverage", "calibrate-static"])
def test_every_output_file_starts_with_the_header_block(tmp_path, command):
    config = {**TINY, "methods": ["static"], "budgets": [2], "gen_len": 2, "seeds": [0]}
    code, out_dir = run(tmp_path, command, config, "--seed", "3")
    assert code == 0
    files = sorted(out_dir.iterdir())
    assert files
    for path in files:
        header = header_of(path)
        assert header["tool"] == f"moebudget {__version__}"
        assert header["command"] == command
        assert header["master_seed"] == 3
        assert header["config"]["model"]["seed"] == 3
        assert header["config"]["out_dir"] == str(out_dir)
        assert set(header["config"]) == set(cli.READS[command])


def test_one_run_writes_one_header_in_every_format(tmp_path):
    # The CSV header lines and the JSON header object render the same record.
    config = {**TINY, "methods": ["static"], "budgets": [2], "gen_len": 2, "seeds": [0]}
    code, out_dir = run(tmp_path, "simulate", config, "--seed", "3")
    assert code == 0
    names = ("simulate.csv", "simulate_pareto.csv", "simulate_summary.json")
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(names)
    first, *rest = [header_of(out_dir / name) for name in names]
    assert all(header == first for header in rest)


@pytest.mark.parametrize("command", ["simulate", "coverage", "calibrate-static"])
def test_config_echo_loads_back_to_the_config_that_ran(tmp_path, monkeypatch, command):
    ran = []
    load_config = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda *args: ran.append(load_config(*args)) or ran[-1])
    config = {**TINY, "methods": ["static"], "budgets": [2], "gen_len": 2, "seeds": [0]}
    prompts = ("--prompts", "1") if "seeds" in cli.READS[command] else ()
    code, out_dir = run(tmp_path, command, config, "--seed", "3", *prompts)
    assert code == 0
    for path in sorted(out_dir.iterdir()):
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(header_of(path)["config"]))
        assert load_config(str(echo), {}, {}, cli.READS[command]) == ran[0]


def test_calibrate_static_echoes_only_what_it_reads(tmp_path):
    # TINY sets tree sizes, budgets, methods and seeds, none of which
    # calibration reads, so none of them may appear in its echo.
    code, out_dir = run(tmp_path, "calibrate-static", TINY)
    assert code == 0
    echo = header_of(out_dir / "static_ranking.json")["config"]
    assert set(echo) == {"preset", "model", "draft", "out_dir"}


# sha256 of the data of each CLI output below, its header lines left out (the
# payload of a JSON file, without its "header", as sorted-key JSON), from TINY
# with each command's flags. A key names the output file, after the label of
# its run where one file is pinned for two runs. They pin the bytes across changes to the code:
# a change that is meant to move no number must leave every one of them.
SIMULATE_FLAGS = ("--tree-size", "7,15", "--prompts", "2", "--gen-len", "8")
DATA_PINS = {
    "coverage.csv": (
        "coverage", (), "e11c4f285fc2ba3c7876583c2dfd1b4c28e86feb9ef367cfc2b82bc06a6968fd",
    ),
    "static_ranking.json": (
        "calibrate-static", (), "a707e5a8e0238bb0c8276990c89fb76b73e3faf36af7dd41760ddb8ef8b52ec2",
    ),
    "simulate.csv": (
        "simulate", SIMULATE_FLAGS,
        "d5ccc401f44820b6af1c51f76bebb87e536f7aa37e858f0cb9a9b28e136b446f",
    ),
    "simulate_pareto.csv": (
        "simulate", SIMULATE_FLAGS,
        "32f35f3ffc6a1392265548bbd3153fa12f4908f7639edd02b2ffa7f32bd47ea5",
    ),
    "simulate_summary.json": (
        "simulate", SIMULATE_FLAGS,
        "37e95ea5118631e0511515e910d3f5d88a8dbc31149d030dcbc6ba3c41f403e4",
    ),
    # simulate at TINY's one tree size, with no flags.
    "one-size/simulate.csv": (
        "simulate", (), "20324c8ee6e6d12f99d7effae02b2d3bfd4900bb3bbccebd61be76a2537d5edd",
    ),
}


def data_sha256(path) -> str:
    text = path.read_text()
    if path.suffix == ".json":
        doc = json.loads(text)
        del doc["header"]
        data = json.dumps(doc, sort_keys=True)
    else:
        data = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    return hashlib.sha256(data.encode()).hexdigest()


@pytest.mark.parametrize("name", list(DATA_PINS))
def test_output_data_matches_pin(tmp_path, name):
    command, flags, want = DATA_PINS[name]
    code, out_dir = run(tmp_path, command, TINY, *flags)
    assert code == 0
    assert data_sha256(out_dir / name.split("/")[-1]) == want
