"""Shared fixtures: small reference models with known solutions."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CTMC, RewardStructure
from repro.models import random_ctmc, two_state_availability


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a test that takes tens of seconds")


@pytest.fixture
def two_state():
    """(model, rewards, fail, repair) of the canonical up/down machine."""
    model, rewards = two_state_availability(1.0, 10.0)
    return model, rewards, 1.0, 10.0


@pytest.fixture
def erlang3():
    """3-stage Erlang absorption chain with rate 2."""
    from repro.models import erlang_chain
    return erlang_chain(3, 2.0)


@pytest.fixture
def random_irreducible():
    """A 15-state random strongly-connected chain with mixed rates."""
    return random_ctmc(15, density=0.3, seed=7)


@pytest.fixture
def random_absorbing():
    """A 14-state random chain with 2 absorbing states."""
    return random_ctmc(14, density=0.3, seed=11, absorbing=2)


def exact_two_state_ua(t, fail=1.0, repair=10.0):
    s = fail + repair
    return fail / s * (1.0 - np.exp(-s * np.asarray(t, dtype=float)))


def exact_two_state_mrr(t, fail=1.0, repair=10.0):
    s = fail + repair
    t = np.asarray(t, dtype=float)
    return fail / s * (1.0 - (1.0 - np.exp(-s * t)) / (s * t))


@pytest.fixture
def uniform_reward_model():
    """Irreducible model with constant rewards: TRR(t) == MRR(t) == c."""
    model = random_ctmc(8, density=0.4, seed=3)
    return model, RewardStructure.constant(8, 2.5)


def make_stiff_model() -> tuple[CTMC, RewardStructure]:
    """3-state stiff chain: rates spanning 6 orders of magnitude."""
    trans = [(0, 1, 1e-4), (1, 0, 100.0), (1, 2, 1e-3), (2, 0, 50.0)]
    model = CTMC.from_transitions(3, trans, initial=0)
    return model, RewardStructure.indicator(3, [2])
