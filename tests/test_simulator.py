from __future__ import annotations

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moebudget import simulator
from moebudget.coverage import CoveragePolicy, budgeted_moe
from moebudget.draft_tree import DraftTree, binary_branching, build_tree
from moebudget.numerics import Rng
from moebudget.simulator import (
    BudgetConfig,
    CostModelParams,
    SweepCell,
    SweepSpec,
    default_calibration,
    run_generation,
    run_generations,
    summarize,
    sweep,
    verify_greedy,
)
from moebudget.toy_model import DraftSpec, ModelConfig, TreeDecoder

from conftest import prompt_tokens
from reference import forward, speculative_run


def ar_rollout(model, context, steps):
    """Brute-force greedy continuation, one full forward per token."""
    seq = list(np.asarray(context))
    out = []
    for _ in range(steps):
        nxt = int(np.argmax(forward(model, np.asarray(seq)).logits[-1]))
        out.append(nxt)
        seq.append(nxt)
    return out


class TestCostModel:
    def test_ar_step_cost(self):
        p = CostModelParams(bytes_expert=1.0, bytes_shared=8.0)
        assert p.ar_step_cost(4, 8) == 8.0 + 32.0

    def test_verify_cost_overhead_only_when_budgeting(self):
        p = CostModelParams(selection_overhead_frac=0.1)
        unique = [10, 10, 10, 10]
        assert p.verify_step_cost(unique, budgeted=False) == pytest.approx(8.0 + 40.0)
        assert p.verify_step_cost(unique, budgeted=True) == pytest.approx(48.0 * 1.1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(*[st.floats(0.0, allow_infinity=False)] * 4),
        st.integers(1, 64),
        st.integers(1, 64),
    )
    def test_ar_step_priced_as_a_verify_step(self, params, n_layers, k):
        # An AR step is priced by the same formulas as a speculative one: k
        # experts per layer, unbudgeted, at depth 0, bit for bit.
        p = CostModelParams(*params)
        assert p.verify_step_cost([k] * n_layers, False) + p.draft_cost(0) == p.ar_step_cost(
            n_layers, k
        )

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            CostModelParams(bytes_expert=-1.0)


class TestVerifyGreedy:
    def test_perfect_draft_chain_accepts_everything(self, small_target):
        # Draft == target on a chain of M nodes: tau = M + 1.
        ctx = prompt_tokens(small_target, 30, 8)
        for m in (1, 3, 5):
            tree = build_tree(small_target, ctx, (1,) * (m - 1))
            report = verify_greedy(TreeDecoder(small_target, ctx), tree)
            assert report.tau == m + 1
            assert report.emitted[:-1] == tree.tokens.tolist()

    def test_wrong_root_gives_bonus_only(self, small_target):
        ctx = prompt_tokens(small_target, 31, 8)
        truth = ar_rollout(small_target, ctx, 1)[0]
        wrong = (truth + 1) % small_target.config.vocab_size
        tree = DraftTree(tokens=[wrong], parents=[-1])
        report = verify_greedy(TreeDecoder(small_target, ctx), tree)
        assert report.tau == 1
        assert report.emitted == [truth]

    @pytest.mark.parametrize(
        "parents, levels",
        [
            ([-1, 0, 1, 2, 3], 5),
            ([-1, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 8, 9], 4),
            ([-1, 0, 0, 1, 3, 3], 4),
        ],
        ids=["chain", "3-2-1", "lopsided"],
    )
    def test_draft_charge_counts_the_tree_levels(self, small_target, parents, levels):
        # One draft pass per level, root included, on shapes no branching
        # tuple describes as well as on ones it does.
        tree = DraftTree(tokens=list(range(len(parents))), parents=parents)
        cost = CostModelParams()
        report = verify_greedy(TreeDecoder(small_target, prompt_tokens(small_target, 32, 8)), tree)
        assert report.tree_depth == tree.depth + 1 == levels
        assert report.draft_cost == cost.draft_cost(levels)

    def test_accepted_path_matches_ar_replay_oracle(self, target, draft):
        # The accepted chain must equal the longest root path matching the
        # AR greedy continuation, and the bonus its next token.
        for seed in (40, 41, 42):
            ctx = prompt_tokens(target, seed)
            tree = build_tree(draft, ctx, binary_branching(15))
            emitted = verify_greedy(TreeDecoder(target, ctx), tree).emitted
            truth = ar_rollout(target, ctx, tree.depth + 2)
            match_len = 0
            for tok, want in zip(emitted[:-1], truth):
                if tok != want:
                    break
                match_len += 1
            assert match_len == len(emitted) - 1
            assert emitted == truth[: len(emitted)]

    def test_full_run_unique_experts_are_union_sizes(self, target, draft):
        from moebudget.draft_tree import tree_routing

        ctx = prompt_tokens(target, 43)
        tree = build_tree(draft, ctx, binary_branching(31))
        report = verify_greedy(TreeDecoder(target, ctx), tree)
        routing = tree_routing(target, ctx, tree)
        assert report.unique_experts == [
            np.unique(routing[l].selected).size for l in range(target.n_layers)
        ]


class TestRunGeneration:
    def test_ar_mode_tau_one_speedup_one(self, small_target, small_draft):
        run = run_generation(
            small_target, small_draft, prompt_tokens(small_target, 50, 8), 12, "ar"
        )
        assert all(r.tau == 1 for r in run.reports)
        assert run.summary.speedup == pytest.approx(1.0)
        assert run.summary.tokens == 12
        assert run.tokens == ar_rollout(small_target, prompt_tokens(small_target, 50, 8), 12)

    def test_spec_full_is_lossless(self, target, draft):
        prompt = prompt_tokens(target, 51)
        ar = run_generation(target, draft, prompt, 48, "ar")
        spec = run_generation(target, draft, prompt, 48, "spec_full", tree_size=15)
        assert spec.tokens == ar.tokens

    def test_full_budget_stream_identical_to_spec_full(self, target, draft, calib):
        prompt = prompt_tokens(target, 52)
        n = target.config.n_experts
        full = run_generation(target, draft, prompt, 32, "spec_full", tree_size=15)
        for method in ("static", "router", "oracle"):
            for policy in CoveragePolicy:
                cfg = BudgetConfig(method, policy, n)
                run = run_generation(
                    target,
                    draft,
                    prompt,
                    32,
                    "spec_budgeted",
                    budget_cfg=cfg,
                    tree_size=15,
                    static_counts=calib,
                )
                assert run.tokens == full.tokens, (method, policy)

    def test_budget_enforced_in_reports(self, target, draft, calib):
        prompt = prompt_tokens(target, 53)
        budget = 16
        for method in ("static", "router"):
            cfg = BudgetConfig(method, CoveragePolicy.SUBSTITUTION, budget)
            run = run_generation(
                target,
                draft,
                prompt,
                24,
                "spec_budgeted",
                budget_cfg=cfg,
                tree_size=15,
                static_counts=calib,
            )
            for r in run.reports:
                assert max(r.unique_experts) <= budget
                assert r.tau >= 1

    def test_summary_recomputable_from_reports(self, target, draft):
        prompt = prompt_tokens(target, 54)
        cost = CostModelParams()
        run = run_generation(target, draft, prompt, 24, "spec_full", cost, tree_size=15)
        again = summarize(run.reports, cost, target.config)
        assert again.speedup == run.summary.speedup
        assert again.total_cost == run.summary.total_cost
        assert again.mean_tau == run.summary.mean_tau

    @pytest.mark.parametrize("mode", ["ar", "spec_full", "spec_budgeted"])
    def test_summary_at_other_cost_equals_a_run_at_that_cost(self, target, draft, mode):
        # Step reports carry measurements, not prices: summarizing them at
        # other cost params gives the summary of a run made at those params.
        prompt = prompt_tokens(target, 58)
        budget_cfg = BudgetConfig("router", CoveragePolicy.SUBSTITUTION, 8)
        other = CostModelParams(bytes_shared=18.8, draft_step_cost=3.0, selection_overhead_frac=0.1)
        first, second = (
            run_generation(target, draft, prompt, 16, mode, cost, budget_cfg, tree_size=15)
            for cost in (CostModelParams(), other)
        )
        assert second.tokens == first.tokens
        assert summarize(first.reports, other, target.config) == dataclasses.replace(
            second.summary, wall_clock_s=0.0
        )

    def test_emitted_trimmed_to_gen_len(self, target, draft):
        prompt = prompt_tokens(target, 55)
        run = run_generation(target, draft, prompt, 10, "spec_full", tree_size=15)
        assert len(run.tokens) == 10
        assert sum(len(r.emitted) for r in run.reports) == 10

    def test_invalid_modes_rejected(self, small_target, small_draft):
        p = prompt_tokens(small_target, 56, 8)
        with pytest.raises(ValueError):
            run_generation(small_target, small_draft, p, 4, "warp")
        with pytest.raises(ValueError):
            run_generation(small_target, small_draft, p, 0, "ar")
        with pytest.raises(ValueError):
            run_generation(small_target, small_draft, p, 4, "spec_budgeted")

    @pytest.mark.parametrize("mode", ["ar", "spec_full"])
    @pytest.mark.parametrize("prompt", [[1.7, 2.2], [True, False], []], ids=["float", "bool", "empty"])
    def test_non_integer_or_empty_prompt_rejected(self, small_target, small_draft, mode, prompt):
        # The prompt reaches the decoders as given, so 1.7 never runs as 1.
        with pytest.raises(ValueError, match="tokens must be"):
            run_generation(small_target, small_draft, prompt, 2, mode, tree_size=3)

    def test_static_requires_counts(self, small_target, small_draft):
        cfg = BudgetConfig("static", CoveragePolicy.TRUNCATION, 4)
        with pytest.raises(ValueError):
            run_generation(
                small_target,
                small_draft,
                prompt_tokens(small_target, 57, 8),
                4,
                "spec_budgeted",
                budget_cfg=cfg,
            )

    def test_mean_tau_bounds(self, target, draft):
        # Acceptance stays strictly inside (1, depth+2) for the default
        # noisy draft; regression band frozen from a calibration run.
        taus = []
        for seed in (60, 61, 62):
            run = run_generation(
                target, draft, prompt_tokens(target, seed), 32, "spec_full", tree_size=15
            )
            taus.append(run.summary.mean_tau)
        depth_plus_one = 4 + 1
        assert 1.0 < np.mean(taus) < depth_plus_one + 1
        assert 1.3 < np.mean(taus) < 4.5  # frozen regression band


# Discrete outputs of the speculative loop on prompt 0 of the default config,
# gen_len 12, M=15, B=8, recorded before the drafter stopped running the leaf
# level, and of AR greedy on the same prompt, recorded before apply_experts
# moved to np.dot. A speed-only change to any layer must leave all of them
# unchanged.
STATIC_SHORTLIST = [
    [45, 54, 63, 13, 11, 44, 32, 33],
    [17, 35, 51, 14, 10, 60, 31, 26],
    [62, 29, 8, 27, 32, 13, 20, 36],
    [35, 15, 5, 11, 63, 22, 33, 2],
]
PINNED_RUNS = {
    "ar": {
        "tokens": [152, 87, 152, 214, 55, 55, 55, 152, 232, 129, 152, 232],
        "tau": [1] * 12,
        "unique": [[8, 8, 8, 8]] * 12,
        "shortlists": [],
    },
    "spec_full": {
        "tokens": [152, 87, 152, 214, 55, 55, 55, 152, 232, 129, 152, 232],
        "tau": [5, 1, 1, 2, 1, 5],
        "unique": [
            [22, 21, 17, 17],
            [21, 13, 14, 15],
            [21, 15, 13, 17],
            [19, 21, 18, 17],
            [22, 21, 14, 14],
            [21, 22, 15, 15],
        ],
        "shortlists": [],
    },
    "static": {
        "tokens": [152, 214, 55, 55, 55, 55, 55, 55, 55, 55, 55, 55],
        "tau": [2, 5, 5],
        "unique": [[8, 7, 6, 8], [8, 7, 7, 7], [7, 6, 6, 6]],
        "shortlists": [STATIC_SHORTLIST] * 3,
    },
    "router": {
        "tokens": [152, 87, 152, 214, 55, 55, 55, 152, 171, 129, 55, 152],
        "tau": [5, 1, 1, 2, 5],
        "unique": [[8, 8, 8, 8]] * 5,
        "shortlists": [
            [[45, 54, 6, 11, 44, 32, 13, 33], [17, 35, 10, 51, 26, 7, 52, 62],
             [8, 29, 13, 52, 32, 27, 62, 40], [15, 35, 33, 9, 5, 13, 11, 22]],
            [[45, 54, 6, 13, 11, 44, 4, 63], [17, 35, 10, 51, 26, 7, 52, 38],
             [29, 8, 13, 27, 62, 32, 52, 40], [35, 15, 33, 5, 9, 3, 11, 45]],
            [[45, 54, 6, 4, 13, 33, 63, 11], [17, 35, 10, 26, 51, 7, 52, 5],
             [29, 8, 13, 27, 62, 52, 32, 40], [35, 15, 33, 9, 5, 3, 11, 17]],
            [[45, 54, 13, 11, 33, 6, 4, 63], [35, 17, 10, 51, 26, 52, 7, 38],
             [8, 29, 13, 27, 62, 52, 40, 32], [35, 15, 9, 33, 5, 3, 11, 17]],
            [[45, 54, 33, 13, 4, 6, 63, 11], [17, 35, 10, 26, 52, 51, 5, 38],
             [8, 29, 13, 27, 62, 52, 40, 32], [15, 35, 33, 9, 5, 3, 11, 17]],
        ],
    },
    "oracle": {
        "tokens": [152, 87, 152, 214, 55, 55, 55, 152, 232, 129, 152, 232],
        "tau": [5, 1, 1, 2, 1, 4],
        "unique": [[8, 8, 8, 8], [8, 7, 8, 8], [8, 8, 8, 8], [8, 8, 8, 8], [8, 8, 8, 8],
                   [8, 8, 8, 8]],
        "shortlists": [
            [[45, 54, 6, 13, 11, 44, 32, 30], [17, 35, 10, 26, 51, 52, 7, 40],
             [8, 29, 13, 32, 52, 62, 48, 39], [35, 15, 33, 9, 11, 13, 47, 5]],
            [[45, 54, 13, 6, 4, 44, 11, 63], [17, 35, 10, 26, 51, 7, 52, 0],
             [29, 8, 13, 32, 62, 52, 22, 27], [35, 15, 33, 9, 3, 5, 11, 45]],
            [[45, 54, 13, 6, 4, 33, 11, 44], [17, 35, 10, 26, 51, 52, 0, 7],
             [29, 8, 13, 52, 62, 32, 27, 22], [35, 15, 33, 9, 3, 11, 5, 45]],
            [[45, 54, 13, 6, 11, 33, 4, 39], [17, 35, 10, 51, 26, 52, 63, 0],
             [29, 8, 13, 52, 62, 27, 22, 32], [35, 15, 33, 9, 11, 3, 5, 52]],
            [[45, 54, 13, 6, 11, 4, 33, 39], [17, 35, 10, 26, 51, 52, 63, 7],
             [29, 8, 13, 62, 40, 27, 52, 22], [35, 15, 33, 9, 11, 3, 52, 5]],
            [[45, 54, 13, 6, 11, 33, 4, 39], [17, 35, 10, 26, 51, 52, 63, 0],
             [29, 8, 13, 62, 52, 40, 27, 32], [35, 15, 33, 9, 3, 52, 11, 5]],
        ],
    },
}
PINNED_CONFIGS = {
    "ar": None,
    "spec_full": None,
    "static": BudgetConfig("static", CoveragePolicy.TRUNCATION, 8),
    "router": BudgetConfig("router", CoveragePolicy.SUBSTITUTION, 8),
    "oracle": BudgetConfig("oracle", CoveragePolicy.TRUNCATION, 8),
}


def discrete_outputs(monkeypatch, target, draft, prompt, gen_len, budget_cfg, tree_size,
                     static_counts=None, mode=None):
    """Tokens, per-step taus, unions and per-layer shortlists of one run; the
    mode is spec_full or spec_budgeted, after ``budget_cfg``, unless given.
    Full-capacity records carry no shortlist and are skipped."""
    records = []

    def recording_moe(shortlist_for=None, policy=None):
        hook, record = budgeted_moe(shortlist_for, policy)
        if shortlist_for is not None:
            records.append(record)
        return hook, record

    monkeypatch.setattr(simulator, "budgeted_moe", recording_moe)
    run = run_generation(
        target,
        draft,
        prompt,
        gen_len,
        mode or ("spec_full" if budget_cfg is None else "spec_budgeted"),
        budget_cfg=budget_cfg,
        tree_size=tree_size,
        static_counts=static_counts,
    )
    return {
        "tokens": run.tokens,
        "tau": [r.tau for r in run.reports],
        "unique": [r.unique_experts for r in run.reports],
        "shortlists": [[rec.shortlist.tolist() for rec in step] for step in records],
    }


@pytest.mark.parametrize("name", list(PINNED_CONFIGS))
def test_pinned_discrete_outputs(target, draft, calib, monkeypatch, name):
    got = discrete_outputs(
        monkeypatch, target, draft, prompt_tokens(target, 0), 12, PINNED_CONFIGS[name], 15, calib,
        mode="ar" if name == "ar" else None,
    )
    assert got == PINNED_RUNS[name]


# Discrete outputs of wide oracle ranking: qwen3-toy, oracle truncation at
# B=32, M=63, gen_len 12, on prompt 3 (prompts 0-2 settle into one repeated
# token at once). Recorded while the oracle still rebuilt its target with
# apply_experts from one unblocked dense pass.
PINNED_WIDE_ORACLE = {
    "tokens": [137, 69, 137, 69, 137, 69, 137, 166, 137, 166, 137, 214],
    "tau": [7, 5],
    "unique": [[16, 12, 10, 10], [16, 15, 10, 10]],
    "shortlists": [
        [
            [64, 69, 100, 68, 102, 43, 72, 28, 96, 118, 117, 57, 47, 14, 70, 89,
             12, 104, 32, 97, 52, 75, 122, 18, 119, 23, 95, 33, 20, 61, 111, 112],
            [33, 17, 85, 86, 35, 53, 110, 105, 74, 57, 12, 46, 24, 90, 114, 123,
             116, 113, 20, 111, 100, 36, 9, 51, 88, 127, 89, 104, 11, 47, 28, 38],
            [86, 66, 43, 47, 100, 45, 13, 40, 90, 103, 78, 18, 9, 98, 10, 67,
             51, 72, 0, 12, 81, 105, 37, 7, 2, 59, 64, 14, 125, 104, 60, 26],
            [87, 75, 55, 12, 122, 109, 17, 29, 117, 11, 67, 81, 104, 26, 99, 30,
             66, 48, 105, 121, 72, 124, 107, 68, 119, 4, 73, 63, 103, 2, 59, 54],
        ],
        [
            [64, 69, 68, 102, 72, 80, 100, 43, 77, 96, 28, 117, 107, 32, 24, 47,
             97, 3, 103, 15, 115, 84, 18, 121, 78, 110, 48, 42, 22, 61, 104, 108],
            [33, 17, 85, 86, 46, 35, 53, 110, 57, 105, 42, 0, 12, 115, 24, 20,
             116, 108, 96, 31, 83, 68, 74, 27, 36, 111, 1, 71, 38, 113, 49, 91],
            [86, 66, 44, 47, 100, 43, 67, 40, 103, 56, 102, 57, 18, 85, 19, 74,
             64, 29, 107, 71, 112, 81, 9, 116, 15, 99, 79, 26, 23, 95, 127, 37],
            [87, 75, 122, 12, 55, 109, 17, 15, 29, 9, 72, 88, 67, 71, 32, 2,
             68, 124, 74, 30, 77, 40, 52, 92, 78, 0, 82, 113, 112, 119, 3, 70],
        ],
    ],
}


def test_pinned_wide_oracle_outputs(wide_target, wide_draft, monkeypatch):
    cfg = BudgetConfig("oracle", CoveragePolicy.TRUNCATION, 32)
    got = discrete_outputs(
        monkeypatch, wide_target, wide_draft, prompt_tokens(wide_target, 3), 12, cfg, 63
    )
    assert got == PINNED_WIDE_ORACLE


@pytest.fixture(scope="module")
def calib(target):
    from moebudget.simulator import CALIB_STREAM

    return default_calibration(target, Rng(target.config.seed).substream(CALIB_STREAM))


@pytest.fixture(scope="module")
def wide_calib(wide_target):
    from moebudget.simulator import CALIB_STREAM

    return default_calibration(wide_target, Rng(wide_target.config.seed).substream(CALIB_STREAM))


@pytest.mark.parametrize("tree_size", [7, 15])
@pytest.mark.parametrize("preset", ["olmoe-toy", "qwen3-toy"])
def test_lockstep_engine_equals_per_config_runs(request, preset, tree_size):
    # Every ranking under both policies, at a budget that binds and one
    # that cannot, plus full verification; gen_len 10 trims some config's
    # last step.
    wide = preset == "qwen3-toy"
    target, draft, calib = (
        request.getfixturevalue(name)
        for name in (("wide_target", "wide_draft", "wide_calib") if wide
                     else ("target", "draft", "calib"))
    )
    n = target.config.n_experts
    cfgs = [None] + [
        BudgetConfig(method, policy, budget)
        for method in ("static", "router", "oracle")
        for policy in CoveragePolicy
        for budget in (n // 16, n)
    ]
    prompt, cost = prompt_tokens(target, 7), CostModelParams()
    runs = run_generations(target, draft, prompt, 10, cost, cfgs, tree_size, calib, True)
    assert any(r.reports[-1].tau > len(r.reports[-1].emitted) for r in runs)
    assert len({tuple(r.tokens) for r in runs}) > 1  # the configs do part ways
    for cfg, run in zip(cfgs, runs):
        ref = speculative_run(target, draft, prompt, 10, cost, cfg, tree_size, calib, True)
        assert run.tokens == ref.tokens, cfg
        assert [r.to_json() for r in run.reports] == [r.to_json() for r in ref.reports], cfg
        assert dataclasses.replace(run.summary, wall_clock_s=0.0) == ref.summary, cfg


def test_run_generations_rejects_empty_budget_cfgs(target, draft):
    with pytest.raises(ValueError, match="budget_cfgs"):
        run_generations(target, draft, prompt_tokens(target, 7), 4, budget_cfgs=[])


def small_sweep_spec(**overrides):
    base = dict(
        model_config=ModelConfig(),
        draft_spec=DraftSpec(),
        cells=(
            SweepCell(mode="ar"),
            SweepCell(mode="spec_full", tree_size=15),
            SweepCell(
                mode="spec_budgeted",
                tree_size=15,
                method="router",
                policy="substitution",
                budget=16,
            ),
        ),
        seeds=(1, 2),
        gen_len=16,
    )
    base.update(overrides)
    return SweepSpec(**base)


def sweep_bytes(result) -> str:
    """Every row and report of a sweep as one JSON string."""
    return json.dumps(
        [
            [dataclasses.asdict(row) for row in result.rows],
            [[list(key), [r.to_json() for r in reports]] for key, reports in result.reports.items()],
        ]
    )


class TestSweep:
    def test_single_cell_matches_run_generation(self, target, draft):
        spec = small_sweep_spec(cells=(SweepCell(mode="spec_full", tree_size=15),), seeds=(3,))
        result = sweep(spec)
        assert len(result.rows) == 1
        row = result.rows[0]
        run = run_generation(
            target, draft, prompt_tokens(target, 3), 16, "spec_full", tree_size=15
        )
        assert row.mean_tau == run.summary.mean_tau
        assert row.speedup == run.summary.speedup

    def test_seed_order_independent(self):
        a = sweep(small_sweep_spec(seeds=(1, 2)))
        b = sweep(small_sweep_spec(seeds=(2, 1)))
        rows_a = [(dataclasses.astuple(r.cell), r.seed, r.speedup, r.ar_match_rate) for r in a.rows]
        rows_b = [(dataclasses.astuple(r.cell), r.seed, r.speedup, r.ar_match_rate) for r in b.rows]
        assert rows_a == rows_b

    def test_worker_count_does_not_change_results(self):
        a = sweep(small_sweep_spec(), workers=1)
        b = sweep(small_sweep_spec(), workers=2)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.cell == rb.cell and ra.seed == rb.seed
            assert ra.speedup == rb.speedup
            assert ra.mean_tau == rb.mean_tau
            assert ra.ar_match_rate == rb.ar_match_rate

    @pytest.mark.parametrize(
        "sizes, seeds",
        [((15,), (4,)), ((3, 7), (1, 2))],
        ids=["one_group", "four_groups"],
    )
    def test_scheduling_never_changes_results(self, sizes, seeds):
        # One group is cut into one, two and three chunks; four groups run
        # whole at any worker count. Both grids need the static counts.
        cells = [SweepCell(mode="ar")]
        for size in sizes:
            cells += [SweepCell("spec_full", size)] + [
                SweepCell("spec_budgeted", size, method, policy, budget)
                for method in ("static", "router")
                for policy in ("truncation", "substitution")
                for budget in (4, 16)
            ]
        spec = small_sweep_spec(cells=tuple(cells), seeds=seeds, gen_len=8)
        results = [sweep(spec, workers=w, keep_reports=True) for w in (1, 2, 3)]
        assert not results[0].failures
        assert len({sweep_bytes(r) for r in results}) == 1

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_calibration_shards_sum_to_default_calibration(self, target, calib, workers):
        from moebudget.simulator import CALIBRATION_SEQ_LEN, CALIBRATION_TOKENS

        shards = simulator._chunks(range(CALIBRATION_TOKENS // CALIBRATION_SEQ_LEN), workers)
        assert len(shards) == workers
        counts = sum(
            simulator._calibration_task((target.config, DraftSpec(), shard)) for shard in shards
        )
        assert counts.dtype == calib.dtype and np.array_equal(counts, calib)

    def test_budget_enforcement_from_reports(self):
        spec = small_sweep_spec()
        result = sweep(spec, keep_reports=True)
        budgeted = [c for c in spec.cells if c.mode == "spec_budgeted"]
        assert budgeted
        for (key, seed), reports in result.reports.items():
            cell_budget = key[4]
            if cell_budget < 0:
                continue
            for r in reports:
                assert max(r.unique_experts) <= cell_budget

    def test_ar_rows_have_unit_speedup_and_quality(self):
        result = sweep(small_sweep_spec())
        ar_rows = [r for r in result.rows if r.cell.mode == "ar"]
        assert len(ar_rows) == 2
        for row in ar_rows:
            assert row.speedup == pytest.approx(1.0)
            assert row.ar_match_rate == 1.0

    def test_full_budget_rows_match_ar_exactly(self):
        spec = small_sweep_spec(
            cells=(
                SweepCell(mode="ar"),
                SweepCell(
                    mode="spec_budgeted",
                    tree_size=15,
                    method="router",
                    policy="truncation",
                    budget=64,
                ),
            ),
            seeds=(5,),
        )
        result = sweep(spec)
        budgeted = [r for r in result.rows if r.cell.mode == "spec_budgeted"]
        assert all(r.ar_match_rate == 1.0 for r in budgeted)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            small_sweep_spec(cells=())
        with pytest.raises(ValueError):
            small_sweep_spec(seeds=())
        with pytest.raises(ValueError):
            SweepCell(mode="spec_budgeted", method="router")
        for method, policy, budget in [("rank", "truncation", 4), ("router", "drop", 4),
                                       ("router", "truncation", 0)]:
            with pytest.raises(ValueError):
                SweepCell("spec_budgeted", 15, method, policy, budget)
        with pytest.raises(ValueError):
            SweepCell(mode="spec_full", tree_size=10)

    @pytest.mark.parametrize("mode", ["ar", "spec_full"])
    @pytest.mark.parametrize(
        "labels",
        [{"method": "router"}, {"policy": "truncation"}, {"budget": 2}],
        ids=["method", "policy", "budget"],
    )
    def test_unbudgeted_cells_reject_budget_labels(self, mode, labels):
        # The run would ignore them, but the row, summary and Pareto table
        # would carry them as if the cell were budgeted.
        with pytest.raises(ValueError, match=f"{mode} cells take no method, policy or budget"):
            SweepCell(mode, 3, **labels)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"seeds": (1, -1)}, "seeds must all be >= 0"),
            ({"seeds": (1, 1)}, "seeds must not repeat"),
            ({"gen_len": 0}, "gen_len must be >= 1"),
            (
                {"cells": (SweepCell("ar"), SweepCell("ar", tree_size=15))},
                "cells: a sweep takes at most one ar cell, got 2",
            ),
            (
                {"cells": (SweepCell("spec_full", 3), SweepCell("spec_full", 3))},
                r"cells: SweepCell\(mode='spec_full', tree_size=3, .*\) repeats",
            ),
            (
                {"cells": (SweepCell("spec_budgeted", 3, "router", "truncation", 65),)},
                r"cells: SweepCell\(mode='spec_budgeted', .*budget=65\) budget 65 exceeds "
                r"model_config.n_experts 64",
            ),
        ],
        ids=["negative_seed", "repeated_seed", "zero_gen_len", "two_ar_cells", "repeated_cell",
             "budget_above_n_experts"],
    )
    def test_bad_spec_rejected_before_any_model_is_built(self, monkeypatch, overrides, field):
        from moebudget import simulator

        def no_model(*args, **kwargs):
            raise AssertionError("a model was built before the spec was checked")

        monkeypatch.setattr(simulator, "build_model_pair", no_model)
        with pytest.raises(ValueError, match=field):
            sweep(small_sweep_spec(**overrides))

    @pytest.mark.parametrize("workers", [0, -1])
    def test_bad_workers_rejected_before_any_model_is_built(self, monkeypatch, workers):
        def no_model(*args, **kwargs):
            raise AssertionError("a model was built before workers was checked")

        monkeypatch.setattr(simulator, "build_model_pair", no_model)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            sweep(small_sweep_spec(), workers=workers)

    @pytest.mark.parametrize("workers", [2.5, True])
    def test_non_integer_workers_refused_before_any_model_is_built(self, monkeypatch, workers):
        # 2.5 failed inside the chunking with a TypeError, and True ran as 1.
        def no_model(*args, **kwargs):
            raise AssertionError("a model was built before workers was checked")

        monkeypatch.setattr(simulator, "build_model_pair", no_model)
        with pytest.raises(ValueError, match=rf"^workers must be an integer, got {workers!r}$"):
            sweep(small_sweep_spec(), workers=workers)

    @pytest.mark.parametrize("workers, pool_size", [(1, None), (2, 2), (64, 4)])
    def test_pool_never_outnumbers_its_tasks(self, monkeypatch, workers, pool_size):
        # One seed and one group of three cells: an AR task plus at most one
        # task per cell, so at most four tasks.
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(simulator, "ProcessPoolExecutor", InProcessPool)
        cells = small_sweep_spec().cells[1:] + (
            SweepCell("spec_budgeted", 15, "static", "truncation", 4),
        )
        spec = small_sweep_spec(cells=cells, seeds=(1,), gen_len=4)
        result = sweep(spec, workers=workers, keep_reports=True)
        assert sizes == ([] if pool_size is None else [pool_size])
        assert sweep_bytes(result) == sweep_bytes(sweep(spec, keep_reports=True))

    def test_failure_keeps_traceback(self, monkeypatch):
        # One budgeted cell of a shared group raises; its siblings carry on
        # as if it had never been asked for.
        real = simulator.shortlister

        def _forced_shortlist_failure(model, method, budget, *args):
            if budget == 5:
                raise RuntimeError("forced cell failure")
            return real(model, method, budget, *args)

        monkeypatch.setattr(simulator, "shortlister", _forced_shortlist_failure)
        failing = SweepCell("spec_budgeted", 15, "router", "truncation", 5)
        spec = small_sweep_spec(cells=small_sweep_spec().cells + (failing,), seeds=(1,))
        result = sweep(spec, workers=1, strict=False, keep_reports=True)
        [(cell, seed, error)] = result.failures
        assert cell == failing and seed == 1
        assert error.startswith("Traceback")
        assert "in _forced_shortlist_failure" in error  # the raising frame
        assert "RuntimeError: forced cell failure" in error
        without = sweep(small_sweep_spec(seeds=(1,)), workers=1, keep_reports=True)
        assert sweep_bytes(result) == sweep_bytes(without)
        with pytest.raises(RuntimeError, match="forced cell failure"):
            sweep(spec, workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ar_baseline_failure_raises_when_not_strict(self, monkeypatch, workers):
        real = simulator.run_generation

        def _forced_ar_failure(target, draft, prompt, gen_len, mode, *args, **kwargs):
            if mode == "ar":
                raise RuntimeError("forced AR failure")
            return real(target, draft, prompt, gen_len, mode, *args, **kwargs)

        monkeypatch.setattr(simulator, "run_generation", _forced_ar_failure)
        cells = (SweepCell(mode="spec_full", tree_size=15),)
        with pytest.raises(RuntimeError, match="forced AR failure"):
            sweep(small_sweep_spec(cells=cells, seeds=(1,)), workers=workers, strict=False)

    def test_match_rate_does_not_depend_on_an_ar_cell(self):
        budgeted = SweepCell(
            mode="spec_budgeted", tree_size=15, method="router", policy="truncation", budget=4
        )
        with_ar = sweep(small_sweep_spec(cells=(SweepCell(mode="ar"), budgeted)))
        without_ar = sweep(small_sweep_spec(cells=(budgeted,)))
        assert [r for r in with_ar.rows if r.cell.mode != "ar"] == without_ar.rows
        assert all(r.cell.mode != "ar" for r in without_ar.rows)
        assert any(r.ar_match_rate < 1.0 for r in without_ar.rows)

    def test_step_report_json_round_trip(self, target, draft):
        run = run_generation(
            target, draft, prompt_tokens(target, 70), 8, "spec_full", tree_size=15
        )
        payload = run.reports[0].to_json()
        assert set(payload) == {
            "tau", "emitted", "unique_experts", "tree_depth", "budgeted", "verify_cost",
            "draft_cost", "missing_counts", "fully_skipped",
        }
        assert payload["tau"] == run.reports[0].tau
        assert payload["unique_experts"] == run.reports[0].unique_experts


@pytest.mark.parametrize("seed", [1.5, 1.0, True])
def test_non_integer_seeds_refused_not_truncated(monkeypatch, seed):
    # int() turned 1.5 and True into 1: the sweep ran seed 1's prompt under
    # a row labelled 1.5, and ModelConfig(seed=1.5) built the seed-1 model.
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built before the seeds were checked")

    monkeypatch.setattr(simulator, "build_model_pair", no_model)
    with pytest.raises(ValueError, match=rf"seeds\[1\] must be an integer, got {seed!r}"):
        sweep(small_sweep_spec(seeds=(0, seed)))
    with pytest.raises(ValueError, match=rf"^seed must be an integer, got {seed!r}$"):
        ModelConfig(seed=seed)
    with pytest.raises(ValueError, match=rf"^seed must be an integer, got {seed!r}$"):
        Rng(seed)
    with pytest.raises(ValueError, match=r"substream index must be an integer"):
        Rng(0).substream(seed)


def test_numpy_integers_accepted_as_ints():
    np.testing.assert_array_equal(Rng(np.int64(1)).normal(size=4), Rng(1).normal(size=4))
    small_sweep_spec(seeds=(np.int64(1), np.uint8(2)), gen_len=np.int64(4))
    ModelConfig(top_k=np.int64(2), n_experts=np.int32(8), seed=np.int64(3))
    assert binary_branching(np.int64(7)) == (2, 2)
    SweepCell("spec_budgeted", np.int64(3), "router", "truncation", np.int16(2))


@pytest.mark.parametrize(
    "field, value, check",
    [
        ("budget", True, lambda v: SweepCell("spec_budgeted", 3, "router", "truncation", v)),
        ("budget", 2.5, lambda v: SweepCell("spec_budgeted", 3, "router", "truncation", v)),
        ("budget", True, lambda v: BudgetConfig("router", CoveragePolicy.TRUNCATION, v)),
        ("tree_size", True, lambda v: SweepCell("spec_full", v)),
        ("tree_size", 3.0, lambda v: SweepCell("spec_full", v)),
        ("tree_size", 63.0, lambda v: SweepCell("ar", v)),
        ("gen_len", 4.0, lambda v: small_sweep_spec(gen_len=v)),
        ("gen_len", True, lambda v: small_sweep_spec(gen_len=v)),
        ("top_k", True, lambda v: ModelConfig(top_k=v)),
        ("n_experts", 64.0, lambda v: ModelConfig(n_experts=v)),
        ("n_layers", True, lambda v: ModelConfig(n_layers=v)),
        ("d_model", 32.0, lambda v: ModelConfig(d_model=v)),
        ("d_ff", True, lambda v: ModelConfig(d_ff=v)),
        ("vocab_size", 256.0, lambda v: ModelConfig(vocab_size=v)),
    ],
    ids=["cell_budget_true", "cell_budget_float", "budget_config_true", "tree_size_true",
         "tree_size_float", "ar_tree_size_float", "gen_len_float", "gen_len_true", "top_k_true",
         "n_experts_float", "n_layers_true", "d_model_float", "d_ff_true", "vocab_size_float"],
)
def test_non_integer_size_fields_refused_naming_the_field(field, value, check):
    # budget=True ran at B=1, tree_size=True drafted a root-only tree,
    # top_k=True built a model with k=True, an ar row took 63.0 as its size
    # label, and the other floats failed deep inside with a TypeError.
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value!r}$"):
        check(value)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ModelConfig(top_k=9, n_experts=8), "top_k must not exceed n_experts"),
        (lambda: DraftSpec(noise_std=-0.1), "noise_std must be finite and >= 0, got -0.1"),
        (
            lambda: CostModelParams(bytes_shared=-100.0),
            "bytes_shared must be finite and >= 0, got -100.0",
        ),
        (lambda: BudgetConfig("router", "truncation", 0), "budget must be >= 1"),
        (lambda: SweepCell("spec_full", 10), "binary tree size must be 2^j - 1, got 10"),
        (lambda: small_sweep_spec(cells=()), "sweep needs at least one cell"),
    ],
    ids=["model_config", "draft_spec", "cost_model_params", "budget_config", "sweep_cell",
         "sweep_spec"],
)
def test_invalid_record_refused_when_built(build, message):
    # Each record was checked only where a caller remembered to: summarize
    # priced a run at bytes_shared=-100, and verify_greedy re-checked its
    # BudgetConfig on every step.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "field, value, kind, overrides",
    [
        ("noise_std", True, "a number", lambda: {"draft_spec": DraftSpec(noise_std=True)}),
        ("skew", True, "a number", lambda: {"model_config": ModelConfig(skew=True)}),
        ("skew", "1.0", "a number", lambda: {"model_config": ModelConfig(skew="1.0")}),
        ("bytes_shared", True, "a number", lambda: {"cost": CostModelParams(bytes_shared=True)}),
        ("renormalize", 2, "a boolean", lambda: {"model_config": ModelConfig(renormalize=2)}),
        (
            "renormalize", "no", "a boolean",
            lambda: {"model_config": ModelConfig(renormalize="no")},
        ),
    ],
    ids=["noise_std_true", "skew_true", "skew_string", "bytes_shared_true", "renormalize_two",
         "renormalize_string"],
)
def test_config_fields_of_the_wrong_type_refused_naming_the_field(
    monkeypatch, field, value, kind, overrides
):
    # The booleans ran as 1.0, 2 and "no" built a renormalizing model, and
    # the string skew failed deep inside with a TypeError. Each record now
    # refuses the field when built, so no model (and no sweep) is reached.
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built before the config was checked")

    monkeypatch.setattr(simulator, "build_model_pair", no_model)
    message = rf"^{field} must be {kind}, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        sweep(small_sweep_spec(**overrides()))


def test_generation_refuses_a_non_integer_gen_len(small_target, small_draft):
    prompt = prompt_tokens(small_target, 71, 8)
    for mode in ("ar", "spec_full"):
        with pytest.raises(ValueError, match=r"^gen_len must be an integer, got 4\.0$"):
            run_generation(small_target, small_draft, prompt, 4.0, mode)
