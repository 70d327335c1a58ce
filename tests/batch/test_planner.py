"""Unit tests for the model-fused execution planner: request identity,
plan shape (fusion groups, coalescing), scatter bookkeeping, per-worker
caching, failure isolation and the bit-for-bit fused == unfused promise."""

import numpy as np
import pytest

from repro.analysis.runner import get_solver
from repro.batch.kernel import kernel_build_count
from repro.batch.planner import (
    SolveRequest,
    cached_model,
    execute_requests,
    model_fingerprint,
    plan_requests,
    run_request,
    solve_requests,
    worker_cache_clear,
    worker_cache_info,
)
from repro.batch.runner import BatchRunner
from repro.batch.scenarios import (
    Scenario,
    generate_scenarios,
    scenario_requests,
    solve_scenarios,
)
from repro.exceptions import ModelError, UnknownMethodError
from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure


def _bd_scenario(name="bd", n=8, birth=0.5, death=1.5, times=(0.5, 2.0),
                 eps=1e-8, measure=Measure.TRR):
    return Scenario(name=name, family="birth_death",
                    params={"n": n, "birth": birth, "death": death},
                    measure=measure, times=times, eps=eps)


def _request(method="SR", eps=1e-8, times=(0.5, 2.0),
             measure=Measure.TRR, key=None, **scenario_kwargs):
    scenario = _bd_scenario(times=times, eps=eps, **scenario_kwargs)
    return SolveRequest(scenario=scenario, measure=measure, times=times,
                        eps=eps, method=method,
                        key=key or (scenario.name, method, eps))


class TestSolveRequest:
    def test_requires_exactly_one_model_source(self):
        model = CTMC(np.array([[-1.0, 1.0], [2.0, -2.0]]))
        rewards = RewardStructure.indicator(2, [1])
        with pytest.raises(ModelError, match="exactly one"):
            SolveRequest(measure=Measure.TRR, times=(1.0,))
        with pytest.raises(ModelError, match="exactly one"):
            SolveRequest(measure=Measure.TRR, times=(1.0,), model=model,
                         rewards=rewards, scenario=_bd_scenario())

    def test_model_backed_needs_rewards(self):
        model = CTMC(np.array([[-1.0, 1.0], [2.0, -2.0]]))
        with pytest.raises(ModelError, match="rewards"):
            SolveRequest(measure=Measure.TRR, times=(1.0,), model=model)

    def test_normalization(self):
        req = _request(method="sr", times=[1, 10])
        assert req.method == "SR"
        assert req.times == (1.0, 10.0)

    def test_resolve_scenario_default_rewards(self):
        req = _request()
        model, rewards = req.resolve()
        assert rewards.n_states == model.n_states

    def test_hashable_transport_shape(self):
        # The request is the future job-queue's unit of work: it must be
        # usable as a set member / dict key despite the dict field.
        a = _request(key="a")
        b = _request(key="a")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert {a: 1}[b] == 1


class TestFingerprints:
    def test_same_scenario_same_fingerprint(self):
        assert model_fingerprint(_request(eps=1e-8)) == \
            model_fingerprint(_request(eps=1e-10, method="RSD"))

    def test_different_params_different_fingerprint(self):
        assert model_fingerprint(_request(n=8)) != \
            model_fingerprint(_request(n=9))

    def test_live_model_fingerprint_is_content_based(self):
        q = np.array([[-1.0, 1.0], [2.0, -2.0]])
        rewards = RewardStructure.indicator(2, [1])
        a = SolveRequest(measure=Measure.TRR, times=(1.0,), model=CTMC(q),
                         rewards=rewards)
        b = SolveRequest(measure=Measure.TRR, times=(1.0,), model=CTMC(q),
                         rewards=rewards)
        c = SolveRequest(measure=Measure.TRR, times=(1.0,),
                         model=CTMC(2.0 * q), rewards=rewards)
        assert model_fingerprint(a) == model_fingerprint(b)
        assert model_fingerprint(a) != model_fingerprint(c)


class TestPlanShape:
    def test_fuses_same_model_same_method(self):
        reqs = [_request(eps=1e-6, key="a"), _request(eps=1e-8, key="b"),
                _request(eps=1e-10, key="c")]
        plan = plan_requests(reqs)
        assert plan.n_tasks == 1
        assert plan.fused_tasks == 1
        assert plan.fused_cells == 3
        # The fused task carries the group's worth of timeout budget.
        assert plan.tasks[0].weight == 3

    def test_does_not_fuse_across_methods_or_models(self):
        reqs = [_request(method="SR"), _request(method="RSD"),
                _request(method="SR", n=9), _request(method="RRL")]
        plan = plan_requests(reqs)
        assert plan.fused_tasks == 0
        assert plan.n_tasks == 4

    def test_coalesces_identical_requests(self):
        reqs = [_request(key="x"), _request(key="y"), _request(key="z")]
        plan = plan_requests(reqs)
        assert plan.n_tasks == 1
        assert plan.coalesced == 2
        # One solve fans out to all three keys.
        outs = plan.scatter(BatchRunner(max_workers=1).run(plan.tasks))
        assert [o.key for o in outs] == ["x", "y", "z"]
        assert np.array_equal(outs[0].value.values, outs[1].value.values)

    def test_no_fuse_is_identity_plan(self):
        reqs = [_request(eps=1e-6), _request(eps=1e-8), _request(eps=1e-8)]
        plan = plan_requests(reqs, fuse=False)
        assert plan.n_tasks == 3
        assert plan.fused_tasks == 0
        assert plan.coalesced == 0

    def test_summary_mentions_shape(self):
        plan = plan_requests([_request(eps=1e-6), _request(eps=1e-8)])
        assert "2 requests" in plan.summary()
        assert "1 fused" in plan.summary()


class TestExecution:
    @pytest.mark.parametrize("method", ["SR", "RSD"])
    def test_fused_equals_unfused_bitwise(self, method):
        reqs = [_request(method=method, eps=eps, key=eps)
                for eps in (1e-6, 1e-8, 1e-10)]
        fused = execute_requests(reqs, fuse=True)
        unfused = execute_requests(reqs, fuse=False)
        for a, b in zip(fused, unfused):
            assert a.ok and b.ok
            assert np.array_equal(a.value.values, b.value.values)
            assert np.array_equal(a.value.steps, b.value.steps)
            assert a.value.stats["fused_width"] == 3
            assert "fused_width" not in b.value.stats

    def test_fused_equals_direct_solver(self):
        req = _request(eps=1e-9)
        (out,) = execute_requests([req, _request(eps=1e-7)])[:1]
        model, rewards = req.resolve()
        direct = get_solver("SR").solve(model, rewards, req.measure,
                                        list(req.times), req.eps)
        assert np.array_equal(out.value.values, direct.values)

    def test_pooled_equals_inline(self):
        scens = generate_scenarios(families=("birth_death",), seed=3,
                                   random_count=2, times=(0.5, 2.0),
                                   eps=1e-8,
                                   measures=(Measure.TRR, Measure.MRR))
        reqs = scenario_requests(scens, methods=("SR", "RRL"))
        inline = execute_requests(reqs, BatchRunner(max_workers=1))
        pooled = execute_requests(reqs, BatchRunner(max_workers=2))
        assert [o.key for o in pooled] == [o.key for o in inline]
        for a, b in zip(inline, pooled):
            assert a.ok and b.ok
            assert np.array_equal(a.value.values, b.value.values)

    def test_solve_requests_unwraps(self):
        sols = solve_requests([_request(eps=1e-8), _request(method="RRL")])
        assert len(sols) == 2
        assert sols[0].method == "SR"
        assert sols[1].method == "RRL"

    def test_solve_scenarios_convenience(self):
        scens = generate_scenarios(families=("birth_death",), seed=3,
                                   random_count=2, times=(0.5, 2.0),
                                   eps=1e-8)
        outs = solve_scenarios(scens, methods=("RSD",))
        assert [o.key for o in outs] == [(s.name, "RSD") for s in scens]
        assert all(o.ok for o in outs)

    def test_unknown_method_rejected_at_construction(self):
        # Since the solver registry became the dispatch authority, a bad
        # method tag fails when the request is *built* (with the known-
        # method list), not deep inside a worker. UnknownMethodError
        # subclasses ValueError for pre-registry callers.
        with pytest.raises(UnknownMethodError, match="unknown method"):
            _request(method="FFT")
        with pytest.raises(ValueError, match="known methods"):
            _request(method="FFT")


class TestFailureIsolation:
    def test_over_budget_cell_fails_alone_in_fused_group(self):
        # max_steps=1 makes every real solve raise TruncationError; fuse
        # a failing cell with a healthy one via solver_kwargs on only...
        # solver_kwargs differ -> would not fuse. Instead: one cell with
        # a horizon far past the group's budget under shared kwargs.
        kwargs = {"max_steps": 2000}
        good = SolveRequest(scenario=_bd_scenario(times=(0.5,)),
                            measure=Measure.TRR, times=(0.5,), eps=1e-8,
                            method="SR", solver_kwargs=kwargs, key="good")
        bad = SolveRequest(scenario=_bd_scenario(times=(5000.0,)),
                           measure=Measure.TRR, times=(5000.0,), eps=1e-8,
                           method="SR", solver_kwargs=kwargs, key="bad")
        plan = plan_requests([good, bad])
        assert plan.fused_tasks == 1
        outs = execute_requests([good, bad])
        assert outs[0].ok is True
        assert outs[1].ok is False
        assert outs[1].error_type == "TruncationError"
        # And the surviving cell's numbers match its standalone solve.
        solo = run_request(good)
        assert np.array_equal(outs[0].value.values, solo.values)


class TestWorkerCache:
    def test_kernel_built_once_per_model(self):
        worker_cache_clear()
        reqs = [_request(method=m, eps=e, key=(m, e))
                for m in ("SR", "RSD", "RRL") for e in (1e-6, 1e-8)]
        before = kernel_build_count()
        outs = execute_requests(reqs, fuse=False)
        assert all(o.ok for o in outs)
        built = kernel_build_count() - before
        # Six unfused cells over one model: exactly one kernel build.
        assert built == 1
        info = worker_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == len(reqs) - 1

    def test_cached_model_is_the_solve_model(self):
        # Analytic work reads the model its cell's solve uses: one build,
        # shared both ways, and no kernel built for the model-only read.
        worker_cache_clear()
        req = _request(method="RRL")
        before = kernel_build_count()
        model, rewards = cached_model(req)
        assert kernel_build_count() == before
        assert np.array_equal(rewards.rates,
                              req.scenario.build()[1].rates)
        run_request(req)
        assert cached_model(req)[0] is model
        info = worker_cache_info()
        assert info["misses"] == 1 and info["hits"] == 2

    def test_cache_serves_scenario_default_rewards(self):
        worker_cache_clear()
        sol = run_request(_request())
        assert sol.method == "SR"
        assert worker_cache_info()["size"] == 1
