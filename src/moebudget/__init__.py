"""Desk-scale laboratory for expert budgeting in speculative decoding of
mixture-of-experts transformers.

Builds a toy MoE transformer, drafts and verifies token trees, enforces
per-layer expert budgets under three ranking strategies and two coverage
policies, and quantifies the bandwidth/quality tradeoff with an explicit
memory-cost model.
"""

from .analysis import coverage_curve, pareto_table, read_trace
from .budgeting import (
    calibrate_static,
    rank_oracle,
    rank_router,
    rank_static,
    shortlister,
)
from .coverage import CoveragePolicy, budgeted_moe
from .draft_tree import DraftTree, binary_branching, build_tree, tree_routing
from .moe_core import MoELayerWeights, RouterWeights
from .numerics import Rng, softmax, top_k_indices
from .simulator import (
    BudgetConfig,
    CostModelParams,
    RunSummary,
    StepReport,
    SweepCell,
    SweepSpec,
    run_generation,
    run_generations,
    summarize,
    sweep,
    verify_greedy,
)
from .toy_model import (
    DraftSpec,
    ModelConfig,
    MoEModel,
    PRESETS,
    TreeDecoder,
    build_target,
    derive_draft,
    preset_config,
)

__version__ = "0.1.0"
