"""Truncation-point selection: minimality, validity, budget splitting."""

import numpy as np
import pytest

from repro import RewardStructure
from repro.core.schedules import ScheduleBuilder
from repro.core.truncation import (
    _FIRST_CHUNK,
    TruncationChoice,
    select_truncation,
    truncation_error_bound,
)
from repro.exceptions import TruncationError
from repro.markov.poisson import poisson_expected_excess, poisson_sf
from repro.models import erlang_chain, random_ctmc


def builders_for(model, rewards, reg=0):
    main, primed, rate, _ = ScheduleBuilder.for_model(model, rewards, reg)
    return main, primed, rate


class TestSelection:
    def test_bound_achieved(self, random_irreducible):
        rewards = RewardStructure.constant(15)
        main, primed, rate = builders_for(random_irreducible, rewards)
        choice = select_truncation(main, primed, rate, t=10.0,
                                   eps_budget=1e-10, r_max=1.0)
        assert choice.error_bound <= 1e-10

    def test_minimality(self, random_irreducible):
        rewards = RewardStructure.constant(15)
        main, primed, rate = builders_for(random_irreducible, rewards)
        choice = select_truncation(main, primed, rate, t=10.0,
                                   eps_budget=1e-10, r_max=1.0)
        k = choice.k_point
        if k > 0:
            prev = (main.a_at(k - 1)
                    * poisson_expected_excess(rate * 10.0, k - 1))
            assert prev > 1e-10  # k-1 would not satisfy the budget

    def test_steps_property(self):
        c = TruncationChoice(k_point=7, l_point=3, error_bound=0.0)
        assert c.steps == 10
        c2 = TruncationChoice(k_point=7, l_point=None, error_bound=0.0)
        assert c2.steps == 7

    def test_k_grows_with_t(self, random_irreducible):
        rewards = RewardStructure.constant(15)
        main, primed, rate = builders_for(random_irreducible, rewards)
        ks = [select_truncation(main, primed, rate, t, 1e-10, 1.0).k_point
              for t in (1.0, 10.0, 100.0)]
        assert ks[0] <= ks[1] <= ks[2]

    def test_k_shrinks_with_eps(self, random_irreducible):
        rewards = RewardStructure.constant(15)
        main, primed, rate = builders_for(random_irreducible, rewards)
        loose = select_truncation(main, primed, rate, 10.0, 1e-4, 1.0)
        tight = select_truncation(main, primed, rate, 10.0, 1e-13, 1.0)
        assert loose.k_point <= tight.k_point

    def test_zero_rmax_trivial(self, random_irreducible):
        rewards = RewardStructure.constant(15)
        main, primed, rate = builders_for(random_irreducible, rewards)
        choice = select_truncation(main, primed, rate, 10.0, 1e-10, 0.0)
        assert choice.k_point == 0
        assert choice.error_bound == 0.0

    def test_exhausted_schedule_short_circuit(self, two_state):
        model, rewards, *_ = two_state
        main, primed, rate = builders_for(model, rewards)
        choice = select_truncation(main, primed, rate, 1e6, 1e-13, 1.0)
        assert choice.k_point <= 2  # schedule exhausts at a(2) = 0
        assert choice.error_bound == 0.0

    def test_hard_cap_raises(self):
        # An Erlang chain never regenerates: a(k) stays ~1 for many steps,
        # so a tiny cap must trip the guard.
        model, rewards = erlang_chain(50, 1.0)
        main, primed, rate = builders_for(model, rewards)
        with pytest.raises(TruncationError):
            select_truncation(main, primed, rate, 50.0, 1e-12, 1.0,
                              hard_cap=5)

    def test_validation(self, random_irreducible):
        rewards = RewardStructure.constant(15)
        main, primed, rate = builders_for(random_irreducible, rewards)
        with pytest.raises(ValueError):
            select_truncation(main, primed, rate, -1.0, 1e-10, 1.0)
        with pytest.raises(ValueError):
            select_truncation(main, primed, rate, 1.0, 0.0, 1.0)


class TestBoundFunction:
    def test_additivity(self):
        b_main = truncation_error_bound(0.5, 3, None, None, 10.0, 2.0)
        b_both = truncation_error_bound(0.5, 3, 0.25, 2, 10.0, 2.0)
        assert b_both > b_main

    def test_scales_with_rmax(self):
        b1 = truncation_error_bound(0.5, 3, None, None, 10.0, 1.0)
        b2 = truncation_error_bound(0.5, 3, None, None, 10.0, 3.0)
        assert b2 == pytest.approx(3.0 * b1)

    def test_primed_uses_tail_probability(self):
        # With a'(L)=1 and L=0 the primed term is r_max·P[N >= 1] <= r_max.
        b = truncation_error_bound(0.0, 0, 1.0, 0, 5.0, 1.0)
        assert 0.9 < b <= 1.0


# -- the scalar forward scan the vectorized one replaced ------------------
#
# A frozen copy of the one-k-at-a-time selection, with the scalar
# expected-excess formula: the reference the vectorized ``_scan`` must
# reproduce bit for bit, including how far it steps the builders.

def _ref_excess(rate, k):
    if k < 0:
        return float(rate - k)
    val = rate * poisson_sf(k - 1, rate) - k * poisson_sf(k, rate)
    return max(float(val), 0.0)


def _ref_scan(builder, weight, budget, hard_cap):
    k = 0
    while True:
        builder.extend_to(k)
        n = builder.n_recorded
        if k >= n:
            return n - 1
        if builder.a_at(k) * weight(k) <= budget:
            return k
        if builder.exhausted and k >= n - 1:
            return n - 1
        k += 1
        if k > hard_cap:
            raise TruncationError("hard cap")


def _ref_select(main, primed, rate, t, eps_budget, r_max,
                hard_cap=2_000_000):
    rate_time = rate * t
    share = eps_budget / (2.0 if primed is not None else 1.0)
    k = _ref_scan(main, lambda k: r_max * _ref_excess(rate_time, k),
                  share, hard_cap)
    l = None
    if primed is not None:
        l = _ref_scan(primed, lambda k: r_max * poisson_sf(k, rate_time),
                      share, hard_cap)
    err = r_max * main.a_at(k) * _ref_excess(rate_time, k)
    if primed is not None:
        err += r_max * primed.a_at(l) * poisson_sf(l, rate_time)
    return k, l, float(err)


def _reference_models():
    initial = np.zeros(12)
    initial[0], initial[4] = 0.7, 0.3
    return {
        # Primed chain (α_r < 1) with absorbing states: both scans.
        "primed": (random_ctmc(12, density=0.35, seed=4, absorbing=2,
                               initial=initial),
                   RewardStructure(np.linspace(0.2, 1.5, 12))),
        "irreducible": (random_ctmc(15, density=0.3, seed=7),
                        RewardStructure.constant(15)),
        # Never regenerates; mass reaches the absorbing end after 30 steps.
        "erlang": erlang_chain(30, 1.0),
    }


TIMES = (1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5)
EPSILONS = (1e-4, 1e-8, 1e-12)

#: Horizon of the chunk-edge queries: Λt is in the hundreds, so the
#: main chain's bound strictly decreases across the first chunks.
EDGE_T = 100.0


def _chunk_edge_queries(model, rewards, n_recorded, primed):
    """``(t, eps, K)`` queries, to run in order, whose first admissible
    ``K`` falls on an edge of the scan's weight chunks past the prefix
    the previous query left: the last ``k`` of a first chunk, the first
    and the last of a second chunk, the first and the last of a third.
    Each budget is the main chain's bound at ``K`` exactly (doubled when
    a primed chain halves it). Empty where the schedule is exhausted
    before an edge."""
    oracle, _, rate, _ = ScheduleBuilder.for_model(model, rewards, 0)
    oracle.extend_to(10**6)
    r_max = rewards.max_rate
    queries = []
    n = n_recorded
    for offset in (_FIRST_CHUNK - 1, _FIRST_CHUNK, 3 * _FIRST_CHUNK - 1,
                   3 * _FIRST_CHUNK, 7 * _FIRST_CHUNK - 1):
        k = n + offset
        if k >= oracle.n_recorded - 1:
            break
        bound = oracle.a_at(k) * (r_max * _ref_excess(rate * EDGE_T, k))
        queries.append((EDGE_T, bound * (2.0 if primed else 1.0), k))
        n = k + 1
    return queries


def _builder_pairs(model, rewards, start):
    """Two identical ``(main, primed, rate)`` triples, both at ``start``:
    one for the scan under test, one for the scalar reference."""
    pairs = [ScheduleBuilder.for_model(model, rewards, 0)[:3]
             for _ in range(2)]
    for main, primed, _ in pairs:
        if start == "partly_extended":
            main.extend_to(9)
            if primed is not None:
                primed.extend_to(4)
        elif start == "exhausted":
            main.extend_to(10**6)
            if primed is not None:
                primed.extend_to(10**6)
    return pairs


@pytest.mark.parametrize("start", ["fresh", "partly_extended", "exhausted"])
@pytest.mark.parametrize("name", ["primed", "irreducible", "erlang"])
def test_vectorized_scan_matches_scalar_reference(name, start):
    model, rewards = _reference_models()[name]
    r_max = rewards.max_rate

    def checker(pairs):
        (main, primed, rate), (ref_main, ref_primed, _) = pairs

        def check(t, eps):
            got = select_truncation(main, primed, rate, t, eps, r_max)
            want = _ref_select(ref_main, ref_primed, rate, t, eps, r_max)
            assert (got.k_point, got.l_point) == want[:2], (t, eps)
            assert got.error_bound.hex() == want[2].hex(), (t, eps)
            assert main.steps_done == ref_main.steps_done
            if primed is not None:
                assert primed.steps_done == ref_primed.steps_done
            return got
        return main, primed, check

    main, primed, check = checker(_builder_pairs(model, rewards, start))
    if start == "exhausted":
        assert main.exhausted and (primed is None or primed.exhausted)
    # A shuffled query order moves back and forth over the prefix.
    queries = [(t, eps) for t in TIMES for eps in EPSILONS]
    order = np.random.default_rng(0).permutation(len(queries))
    for i in order:
        check(*queries[i])

    # On a second pair at the same start: the first admissible K exactly
    # on a chunk edge, up to the third (doubled) chunk.
    main, primed, check = checker(_builder_pairs(model, rewards, start))
    edges = _chunk_edge_queries(model, rewards, main.n_recorded,
                                primed is not None)
    if start != "exhausted" and name != "erlang":
        assert len(edges) == 5
    for t, eps, k in edges:
        assert check(t, eps).k_point == k
    # Then no budget is met before the mass runs out, partway through a
    # chunk (from a fresh erlang builder: a(30) = 0 inside the first).
    got = check(1e7, 1e-320)
    assert main.exhausted and got.k_point == main.n_recorded - 1


def _outcome(select):
    """``(K, L, bound.hex())`` of a selection, or ``"raised"``."""
    try:
        k, l, bound = select()
    except TruncationError:
        return "raised"
    return k, l, float(bound).hex()


@pytest.mark.parametrize("stages, hard_cap", [
    (50, 5),
    # The cap on a chunk edge: the whole first chunk, then one k more.
    (200, _FIRST_CHUNK),
    (200, _FIRST_CHUNK + 1),
    # Admissible (a(K) = 0) exactly at the cap, on the last k of the
    # first chunk and on the first k of the second.
    (_FIRST_CHUNK, _FIRST_CHUNK),
    (_FIRST_CHUNK + 1, _FIRST_CHUNK + 1),
    # The mass runs out partway through the first chunk, below the cap.
    (50, 100),
])
@pytest.mark.parametrize("extended", [0, 3, 40, 1000])
def test_hard_cap_matches_scalar_reference(stages, hard_cap, extended):
    # Whether the cap falls inside the recorded prefix or past it, both
    # scans raise, after stepping the builder equally far — even when the
    # prefix holds an admissible point beyond the cap (the chain is
    # exhausted at ``stages`` when extended to 1000) — or both return the
    # same selection.
    model, rewards = erlang_chain(stages, 1.0)
    main, _, rate, _ = ScheduleBuilder.for_model(model, rewards, 0)
    ref_main, _, _, _ = ScheduleBuilder.for_model(model, rewards, 0)
    main.extend_to(extended)
    ref_main.extend_to(extended)

    def selected():
        c = select_truncation(main, None, rate, 50.0, 1e-12, 1.0,
                              hard_cap=hard_cap)
        return c.k_point, c.l_point, c.error_bound

    got = _outcome(selected)
    want = _outcome(lambda: _ref_select(ref_main, None, rate, 50.0, 1e-12,
                                        1.0, hard_cap=hard_cap))
    assert got == want
    assert (got == "raised") == (stages > hard_cap)
    assert main.steps_done == ref_main.steps_done


def test_exhausted_prefix_below_every_budget():
    # An exhausted schedule whose last a(k) is tiny but non-zero, against
    # a budget even smaller: with Λt far beyond the prefix every weight is
    # about Λt, no k is admissible, and both scans settle on the last
    # recorded step.
    model, rewards = _reference_models()["irreducible"]
    main, _, rate, _ = ScheduleBuilder.for_model(model, rewards, 0)
    ref_main, _, _, _ = ScheduleBuilder.for_model(model, rewards, 0)
    for builder in (main, ref_main):
        builder.extend_to(10**6)
    assert main.exhausted and main.a_at(main.n_recorded - 1) > 0.0
    got = select_truncation(main, None, rate, 1e7, 1e-320, 1.0)
    want = _ref_select(ref_main, None, rate, 1e7, 1e-320, 1.0)
    assert got.k_point == want[0] == main.n_recorded - 1
    assert got.error_bound.hex() == want[2].hex()
