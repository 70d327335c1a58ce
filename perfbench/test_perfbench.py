"""Tests of the benchmark's own code: seeded generators, self-time
arithmetic of the tracer, the output checks, and ``BENCHMARK.json``
naming every metric the code reports."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, self_times  # noqa: E402


def test_same_seed_gives_same_queries():
    assert workloads.rrl_query_design(7) == workloads.rrl_query_design(7)
    other = workloads.rrl_query_design(8)
    assert other != workloads.rrl_query_design(7)
    # Every seed carries the same work, in its own order.
    assert sorted(other) == sorted(workloads.rrl_query_design(7))
    mrr = sum(q[4] == "mrr" for q in other)
    assert mrr * 4 == len(other)


def test_same_seed_gives_same_batch():
    scenarios = workloads.service_batch_scenarios()
    assert scenarios == workloads.service_batch_scenarios()
    assert {s.family for s in scenarios} == {
        "raid5", "multiprocessor", "birth_death", "block"}
    jobs = list(range(3 * workloads.CHECKPOINT + 2))
    first = workloads.shuffle_within_checkpoints(jobs, 3)
    assert first == workloads.shuffle_within_checkpoints(jobs, 3)
    other = workloads.shuffle_within_checkpoints(jobs, 4)
    assert other != first
    # Each checkpoint batch holds the same jobs whatever the seed.
    size = workloads.CHECKPOINT
    for start in range(0, len(jobs), size):
        assert sorted(first[start:start + size]) == \
            sorted(other[start:start + size]) == jobs[start:start + size]


def test_self_times_of_nested_spans_on_two_threads():
    spans = [
        Span("root", 0.0, 10.0, None, thread=1),                    # 0
        Span("a", 1.0, 4.0, 0, thread=1,
             leaves={"leaf": [3, 0.5, 0.0]}),                        # 1
        Span("b", 5.0, 9.0, 0, thread=1),                           # 2
        Span("c", 6.0, 7.0, 2, thread=1),                           # 3
        # Another thread: overlaps the root in time but is not nested in
        # it, so it must not reduce the root's self time.
        Span("worker", 2.0, 8.0, None, thread=2),                   # 4
        Span("task", 3.0, 5.0, 4, thread=2),                        # 5
        # A parent on another thread does not cover its child.
        Span("handoff", 8.5, 9.5, 2, thread=2),                     # 6
    ]
    assert self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 4.0, 3.0 - 0.5, 4.0 - 1.0, 1.0,
         6.0 - 2.0, 2.0, 1.0])
    # Main-thread self times (leaf time included) add up to the root.
    main = [s for s, span in zip(self_times(spans), spans)
            if span.thread == 1]
    assert sum(main) + 0.5 == pytest.approx(10.0)


def test_tracer_records_nesting_per_thread():
    import threading

    tracer = tracing.Tracer()
    outer = tracer.span_wrapper(lambda f: f(), "outer")
    inner = tracer.span_wrapper(lambda: None, "inner")
    leaf = tracer.leaf_wrapper(lambda: None, "leaf")

    def body():
        inner()
        leaf()

    worker = threading.Thread(target=outer, args=(body,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    outer(body)
    names = [(s.name, s.parent) for s in tracer.spans]
    assert sorted(names) == sorted([("outer", None), ("inner", 0),
                                    ("outer", None), ("inner", 2)])
    for span in tracer.spans:
        if span.name == "outer":
            assert span.leaves["leaf"][0] == 1


@pytest.fixture(scope="module")
def refs():
    return workloads.load_references()


def test_query_check_rejects_ten_eps(refs):
    eps = 1e-8
    ref, roundoff = workloads.reference_for(refs, "G20-UA", "trr", 1.0)
    assert roundoff <= 0.1 * eps
    query = (20, "availability", 1.0, eps, "trr")
    assert workloads.check_queries([(query, ref)], refs).failed == 0
    bad = workloads.check_queries([(query, ref + 10 * eps)], refs)
    assert (bad.attempted, bad.failed) == (1, 1)
    # Without a reference able to settle it, a cell stays unchecked.
    late = (40, "reliability", 1e5, 1e-12, "trr")
    assert workloads.reference_for(refs, "G40-UR", "trr", 1e5) is None
    assert workloads.check_queries([(late, 0.75)], refs).unchecked == 1
    ref, roundoff = workloads.reference_for(refs, "G40-UR", "trr", 1e4)
    assert roundoff > 0.1 * 1e-12
    unsettled = (40, "reliability", 1e4, 1e-12, "trr")
    assert workloads.check_queries([(unsettled, ref)], refs).unchecked == 1


def _paper_grid(refs) -> dict:
    from repro.analysis.experiments import (
        PAPER_TABLE1, PAPER_TABLE2, PAPER_UR_1E5)

    times = [1.0, 10.0, 100.0, 1e3, 1e4, 1e5]
    table1 = {f"G={g} RR/RRL": list(rrl) for g, (rrl, _) in
              PAPER_TABLE1.items()}
    table1.update({f"G={g} RSD": [66, 355, 2267, 2267, 2267, 2267]
                   for g in PAPER_TABLE1})
    table2 = {}
    for g, (rrl, sr) in PAPER_TABLE2.items():
        table2[f"G={g} RR/RRL"] = list(rrl)
        table2[f"G={g} SR"] = list(sr)
    ur = {str(g): [workloads.reference_for(
        refs, workloads.model_name(g, "reliability"), "trr", t)[0]
        for t in times[:-1]] + [PAPER_UR_1E5[g]] for g in (20, 40)}
    return {"table1": {"times": times, "columns": table1},
            "table2": {"times": times, "columns": table2},
            "ur_values": ur}


def test_grid_check_rejects_ten_eps(refs):
    grid = _paper_grid(refs)
    good = workloads.check_grid(grid, refs)
    assert good.failed == 0 and good.attempted > good.unchecked
    grid["ur_values"]["20"][0] += 10 * 1e-12
    bad = workloads.check_grid(grid, refs)
    assert bad.failed == 1


def test_batch_check_rejects_ten_eps():
    from repro import BatchOutcome, SolveRequest, TRR, TransientSolution
    from repro.batch.scenarios import Scenario

    scenario = Scenario(name="bd", family="birth_death",
                        params={"n": 5, "birth": 1.0, "death": 2.0},
                        times=(1.0, 10.0), eps=1e-10)

    def job(method, values):
        request = SolveRequest(scenario=scenario, measure=TRR,
                               times=scenario.times, eps=scenario.eps,
                               method=method)
        solution = TransientSolution(
            times=np.array(scenario.times), values=np.array(values),
            measure=TRR, eps=scenario.eps, steps=np.array([20, 60]),
            method=method)
        return request, BatchOutcome(key=method, ok=True, value=solution)

    def tally(rrl_values):
        pairs = [job("SR", [0.25, 0.5]), job("RRL", rrl_values)]
        requests = [r for r, _ in pairs]
        outcomes = [o for _, o in pairs]
        return workloads.check_batch(requests, outcomes, outcomes,
                                     {"bd": 3})

    assert tally([0.25, 0.5]).failed == 0
    assert tally([0.25, 0.5 + 10 * 1e-10]).failed == 1


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
