from __future__ import annotations

import numpy as np
import pytest

from moebudget import DraftSpec, ModelConfig, build_target, derive_draft
from moebudget.numerics import Rng
from moebudget.simulator import DRAFT_STREAM
from moebudget.toy_model import preset_config


@pytest.fixture(scope="session")
def default_config() -> ModelConfig:
    return ModelConfig()


@pytest.fixture(scope="session")
def target(default_config):
    return build_target(default_config)


@pytest.fixture(scope="session")
def draft(target):
    return derive_draft(target, DraftSpec(), Rng(target.config.seed).substream(DRAFT_STREAM))


@pytest.fixture(scope="session")
def wide_target():
    """qwen3-toy: 128 experts without renormalization, the oracle's widest
    preset."""
    return build_target(preset_config("qwen3-toy"))


@pytest.fixture(scope="session")
def wide_draft(wide_target):
    return derive_draft(
        wide_target, DraftSpec(), Rng(wide_target.config.seed).substream(DRAFT_STREAM)
    )


@pytest.fixture(scope="session")
def small_config() -> ModelConfig:
    """Tiny instance for brute-force oracles."""
    return ModelConfig(d_model=8, d_ff=12, n_experts=8, top_k=2, n_layers=2, vocab_size=32, seed=7)


@pytest.fixture(scope="session")
def small_target(small_config):
    return build_target(small_config)


@pytest.fixture(scope="session")
def small_draft(small_target):
    return derive_draft(
        small_target, DraftSpec(), Rng(small_target.config.seed).substream(DRAFT_STREAM)
    )


def prompt_tokens(model, seed: int, length: int = 16) -> np.ndarray:
    from moebudget.simulator import PROMPT_STREAM
    from moebudget.toy_model import random_tokens

    rng = Rng(model.config.seed).substream(PROMPT_STREAM, seed)
    return random_tokens(rng, length, model.config.vocab_size)
