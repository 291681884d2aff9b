"""The per-step path calls numpy's C entry points, never the Python wrappers
of ``fromnumeric`` (``np.argsort``, ``np.take``, ``np.argmax``, ``np.all``,
``np.shape``, ...) or of the set routines (``np.unique``), which only
forward to them at a microsecond or more per call. A steady one-token step
also builds no causal mask with ``np.tri``."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from moebudget.budgeting import METHODS
from moebudget.coverage import CoveragePolicy
from moebudget.draft_tree import build_tree, expand_tree
from moebudget.simulator import BudgetConfig, verify_greedy
from moebudget.toy_model import TreeDecoder

from conftest import prompt_tokens

# Matched as module-name suffixes, so that numpy 1's numpy.core.fromnumeric
# and numpy.lib.arraysetops count as well as numpy 2's
# numpy._core.fromnumeric and numpy.lib._arraysetops_impl.
WRAPPER_MODULES = ("fromnumeric", "arraysetops", "_arraysetops_impl")
# The module of np.tri: numpy.lib._twodim_base_impl, numpy.lib.twodim_base
# on numpy 1.
TRI_MODULES = ("_twodim_base_impl", "twodim_base")


def wrapper_calls(run, modules=WRAPPER_MODULES) -> list[str]:
    """Run ``run()`` under ``sys.setprofile``; return, sorted, each function
    of ``modules`` entered from outside them, with its caller."""
    seen = set()

    def profile(frame, event, arg):
        if event != "call":
            return
        module = frame.f_globals.get("__name__", "")
        caller = frame.f_back
        caller_module = caller.f_globals.get("__name__", "") if caller else ""
        if module.endswith(modules) and not caller_module.endswith(modules):
            where = f"{caller_module}.{caller.f_code.co_name}" if caller else "?"
            seen.add(f"{module}.{frame.f_code.co_name} called from {where}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return sorted(seen)


def assert_no_wrapper(run) -> None:
    calls = wrapper_calls(run)
    assert not calls, "numpy Python wrappers on the per-step path: " + "; ".join(calls)


def test_the_check_sees_a_wrapper():
    assert wrapper_calls(lambda: np.argsort(np.arange(3))) != []
    assert wrapper_calls(lambda: np.unique(np.arange(3))) != []
    assert wrapper_calls(lambda: np.arange(3).argsort()) == []


def test_ar_step(target):
    decoder = TreeDecoder(target, prompt_tokens(target, 30))
    assert_no_wrapper(lambda: decoder.append_tokens([int(decoder.context_logits.argmax())]))


def test_the_mask_check_sees_np_tri():
    assert wrapper_calls(lambda: np.tri(2), TRI_MODULES) != []


def test_steady_ar_step_builds_no_mask(target):
    decoder = TreeDecoder(target, prompt_tokens(target, 33))

    def step():
        decoder.append_tokens([int(decoder.context_logits.argmax())])

    step()  # the warm-up token
    calls = wrapper_calls(step, TRI_MODULES)
    assert not calls, "a steady one-token step builds its causal mask: " + "; ".join(calls)


def test_expand_tree(draft):
    decoder = TreeDecoder(draft, prompt_tokens(draft, 31))
    assert_no_wrapper(lambda: expand_tree(decoder, (2,) * 5))


CONFIGS = [None] + [
    BudgetConfig(method, policy, budget)
    for method in METHODS
    for policy in CoveragePolicy
    for budget in (4, 16)  # below and above k = 8
]


@pytest.mark.parametrize(
    "cfg", CONFIGS,
    ids=lambda c: "full" if c is None else f"{c.method}-{c.policy.value}-{c.budget}",
)
def test_verify_greedy(target, draft, cfg):
    prompt = prompt_tokens(target, 32)
    tree = build_tree(draft, prompt, (2,) * 5)
    decoder = TreeDecoder(target, prompt)
    n, layers = target.config.n_experts, target.n_layers
    counts = np.tile(np.arange(n, 0, -1), (layers, 1))
    assert_no_wrapper(lambda: verify_greedy(decoder, tree, cfg, static_counts=counts))
