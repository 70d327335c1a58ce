"""Span tracer for the traced benchmark run.

The program has no phase timers of its own yet, so the traced run wraps
the public functions of each layer *from the benchmark's side*: at the
consumer's import site for module-level functions (``rrl_solver`` imports
``select_truncation`` by name, so the wrapper must replace
``repro.core.rrl_solver.select_truncation``), and on the class for
methods. Nothing under ``src/`` changes.

Three kinds of wrapper, by call volume:

* a *span* records ``(name, start, end, parent, thread)`` plus optional
  facts about the call (``info``); spans nest through a per-thread stack;
* a *leaf* (the kernel's matrix–vector step, one Wynn-epsilon update) is
  called up to a million times per run, so it is timed and counted into
  its parent span instead of getting a record of its own — it must not
  call anything traced;
* a *counter* only counts calls (schedule steps, which wrap a leaf).

A span's self time is its duration minus the part covered by its child
spans on the same thread, minus the leaf time charged to it
(:func:`self_times`). Over every span of the main thread, including the
benchmark's root span, self times add up to the traced wall clock.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: dict = field(default_factory=dict)
    leaves: dict = field(default_factory=dict)
    """leaf name -> [calls, seconds, extra]"""


def _interval_union(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals on the same thread (clipped to the span) minus
    the leaf time charged to it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            if parent.thread == span.thread:
                children[span.parent].append(
                    (max(span.start, parent.start),
                     min(span.end, parent.end)))
    return [span.end - span.start - _interval_union(children[i])
            - sum(leaf[1] for leaf in span.leaves.values())
            for i, span in enumerate(spans)]


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, self._clock(), 0.0,
                    stack[-1] if stack else None, threading.get_ident())
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = self._clock()
        self._stack().pop()
        return span

    def charge_leaf(self, name: str, seconds: float, extra: float) -> None:
        # Every leaf call of the program runs inside a traced task or
        # solver span, so the stack is never empty here.
        leaf = self.spans[self._stack()[-1]].leaves.setdefault(
            name, [0, 0.0, 0.0])
        leaf[0] += 1
        leaf[1] += seconds
        leaf[2] += extra

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(self, fn, name: str, describe=None):
        """Wrap ``fn`` in a span; ``describe(result, args)`` returns the
        facts to store in ``span.info``."""
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(index)
            if describe is not None:
                span.info.update(describe(result, args))
            return result
        traced.__wrapped__ = fn
        return traced

    def leaf_wrapper(self, fn, name: str, extra=None):
        """Time and count ``fn`` into the enclosing span;
        ``extra(args)`` adds a number (bytes moved) per call."""
        clock = self._clock

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.charge_leaf(name, clock() - start,
                                 extra(args) if extra is not None else 0.0)
        traced.__wrapped__ = fn
        return traced

    def counter_wrapper(self, fn, name: str):
        def traced(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced


# -- the program's layers ------------------------------------------------

#: Per-layer metrics of the traced run, ``(name, unit)``; every workload
#: reports all of them (zero where a layer does no work). The end-to-end
#: metric each layer should move, written down before measuring:
#:
#: * models — paper_grid wall_s, rrl_queries setup_s;
#: * markov.steady_state — paper_grid wall_s only;
#: * batch.kernel — paper_grid wall_s (20k-state matrices), service_batch
#:   solves_per_s (tiny matrices), nothing on rrl_queries;
#: * core.schedules / schedule_cache — paper_grid wall_s (misses),
#:   rrl_queries latency_p50_ms (hits, snapshot);
#: * core.truncation — rrl_queries latency_p50_ms, service_batch
#:   solves_per_s; core.transforms — rrl_queries latency_p50_ms;
#: * laplace — rrl_queries latency_p95_ms (the stall), paper_grid wall_s;
#: * solvers — each workload's wall_s;
#: * batch.planner, batch.backends — service_batch solves_per_s;
#: * service.protocol / service.queue — service_batch wall_s (small today).
PER_LAYER = (
    ("models.explore_s", "s"), ("models.explores", "count"),
    ("models.explores_per_model", "ratio"),
    ("markov.steady_state.solve_s", "s"),
    ("markov.steady_state.calls", "count"),
    ("batch.kernel.builds", "count"), ("batch.kernel.steps", "count"),
    ("batch.kernel.step_s", "s"),
    ("batch.kernel.bytes_moved_computed", "B"),
    ("core.schedules.steps", "count"), ("core.schedules.snapshot_s", "s"),
    ("core.schedule_cache.hits", "count"),
    ("core.schedule_cache.misses", "count"),
    ("core.truncation.calls", "count"), ("core.truncation.self_s", "s"),
    ("core.transforms.evals", "count"), ("core.transforms.self_s", "s"),
    ("laplace.inversions", "count"), ("laplace.abscissae_mean", "count"),
    ("laplace.abscissae_max", "count"), ("laplace.self_s", "s"),
    ("laplace.epsilon.self_s", "s"),
    ("solvers.RRL.solve_s", "s"), ("solvers.RRL.calls", "count"),
    ("solvers.RR.solve_s", "s"), ("solvers.RR.calls", "count"),
    ("solvers.SR.solve_s", "s"), ("solvers.SR.calls", "count"),
    ("solvers.RSD.solve_s", "s"), ("solvers.RSD.calls", "count"),
    ("batch.planner.plan_s", "s"), ("batch.planner.tasks", "count"),
    ("batch.planner.coalesced", "count"),
    ("batch.planner.fused_cells", "count"),
    ("batch.planner.worker_cache_hits", "count"),
    ("batch.planner.worker_cache_misses", "count"),
    ("batch.backends.busy_s", "s"), ("batch.backends.idle_s", "s"),
    ("batch.backends.utilization", "ratio"),
    ("service.protocol.encode_s", "s"), ("service.protocol.decode_s", "s"),
    ("service.protocol.bytes", "B"), ("service.queue.appends", "count"),
    ("service.queue.append_s", "s"), ("service.queue.replay_s", "s"),
    ("service.queue.journal_bytes", "B"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)

SOLVERS = ("RRL", "RR", "SR", "RSD")
ROOT = "bench.timed"


def _kernel_step_bytes(args) -> float:
    """Bytes one CSR product ``Pᵀ @ stack`` must touch, computed from the
    shapes (not measured): the matrix once, plus a gather of ``x`` per
    non-zero and a write of ``y`` per row, for every stack column."""
    kernel, stack = args[0], args[1]
    pt = kernel._pt
    width = stack.shape[1] if stack.ndim == 2 else 1
    return float(pt.data.nbytes + pt.indices.nbytes + pt.indptr.nbytes
                 + width * 8 * (pt.nnz + pt.shape[0]))


def _plan_facts(plan, args) -> dict:
    cells = sum(len(slots) for slots in plan.assignments)
    return {"tasks": plan.n_tasks, "fused_cells": plan.fused_cells,
            "coalesced": plan.n_requests - cells}


def _encoded_bytes(result, args) -> dict:
    import json
    return {"bytes": len(json.dumps(result, separators=(",", ":")))}


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the program (for the rest of the
    process: a traced run is its own interpreter)."""
    import repro.batch.runner as runner
    import repro.core.bounds as bounds
    import repro.core.rr_solver as rr_solver
    import repro.core.rrl_solver as rrl_solver
    import repro.markov.rsd as rsd
    import repro.service.queue as queue
    import repro.service.service as service
    from repro import (
        JobQueue, RegenerativeRandomizationSolver, RRLSolver, SerialBackend,
        SolveService, StandardRandomizationSolver,
        SteadyStateDetectionSolver, ThreadBackend, UniformizationKernel)
    from repro.core import ScheduleBuilder, ScheduleCache, VklTransform
    from repro.laplace.epsilon import EpsilonAccelerator
    from repro.models.builder import StateSpaceBuilder

    def span(owner, attr, name, describe=None):
        setattr(owner, attr, tracer.span_wrapper(getattr(owner, attr), name,
                                                 describe))

    span(SolveService, "execute", "service.execute")
    span(service, "plan_requests", "batch.planner.plan", _plan_facts)
    for backend in (SerialBackend, ThreadBackend):
        span(backend, "run", "batch.backends.run",
             lambda result, args: {"workers": args[0].max_workers})
    # The runner's per-task boundary is private; it is the one place that
    # sees every task, analytic passthroughs included.
    span(runner, "_run_one", "batch.backends.task")
    span(StateSpaceBuilder, "explore", "models.explore",
         lambda result, args: {"model": (result.model.n_states,
                                         result.model.generator.nnz)})
    span(rsd, "stationary_distribution", "markov.steady_state.solve")
    for cls, tag in ((RRLSolver, "RRL"),
                     (RegenerativeRandomizationSolver, "RR"),
                     (StandardRandomizationSolver, "SR"),
                     (SteadyStateDetectionSolver, "RSD")):
        for attr in ("solve", "solve_fused"):
            if hasattr(cls, attr):
                span(cls, attr, f"solvers.{tag}")
    span(ScheduleCache, "setup_for", "core.schedule_cache.setup_for",
         lambda result, args: {"hit": bool(result[1])})
    span(ScheduleBuilder, "snapshot", "core.schedules.snapshot")
    for module in (rrl_solver, rr_solver, bounds):
        span(module, "select_truncation", "core.truncation.select")
    # ``cumulative`` calls ``trr``: one wrapper counts both measures.
    span(VklTransform, "trr", "core.transforms.eval")
    for module in (rrl_solver, bounds):
        for attr in ("invert_bounded", "invert_cumulative"):
            span(module, attr, "laplace.invert",
                 lambda result, args: {"abscissae": result.n_abscissae})
    for attr in ("request_to_dict", "outcome_to_dict"):
        span(queue, attr, "service.protocol.encode", _encoded_bytes)
    for attr in ("request_from_dict", "outcome_from_dict"):
        span(queue, attr, "service.protocol.decode")
    span(JobQueue, "submit", "service.queue.submit")
    span(JobQueue, "run", "service.queue.run")
    # Private, but it is the fsynced journal write itself.
    span(JobQueue, "_append", "service.queue.append")
    resume = JobQueue.__dict__["resume"].__func__
    JobQueue.resume = classmethod(
        tracer.span_wrapper(resume, "service.queue.replay"))

    UniformizationKernel.step = tracer.leaf_wrapper(
        UniformizationKernel.step, "batch.kernel.step", _kernel_step_bytes)
    EpsilonAccelerator.add = tracer.leaf_wrapper(
        EpsilonAccelerator.add, "laplace.epsilon.add")
    ScheduleBuilder.step = tracer.counter_wrapper(
        ScheduleBuilder.step, "core.schedules.step")


def _solver_ancestor(spans: list[Span], span: Span) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name.startswith("solvers."):
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(tracer: Tracer, *, wall_s: float, kernel_builds: int,
                  worker_cache: dict, journal_bytes: int
                  ) -> tuple[dict, dict]:
    """Per-layer metrics of a finished traced run (all but
    ``trace.overhead_s``, which needs an untraced run), plus the self time
    of every span and leaf name, split into the main thread (whose self
    times add up to the traced wall clock) and the worker threads."""
    spans = tracer.spans
    selfs = self_times(spans)
    main_thread = next(s.thread for s in spans if s.name == ROOT)
    by_name: dict[str, list[int]] = defaultdict(list)
    self_by_name: dict[str, float] = defaultdict(float)
    attribution = {"main": defaultdict(float), "workers": defaultdict(float)}
    leaves: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for i, span in enumerate(spans):
        table = attribution["main" if span.thread == main_thread
                            else "workers"]
        by_name[span.name].append(i)
        self_by_name[span.name] += selfs[i]
        table[span.name] += selfs[i]
        for leaf, (calls, seconds, extra) in span.leaves.items():
            totals = leaves[leaf]
            totals[0] += calls
            totals[1] += seconds
            totals[2] += extra
            table[leaf] += seconds

    def total(name: str) -> float:
        return sum(spans[i].end - spans[i].start for i in by_name[name])

    def info(name: str, key: str) -> list:
        return [spans[i].info[key] for i in by_name[name]
                if key in spans[i].info]

    m: dict[str, float] = {}
    explored = info("models.explore", "model")
    m["models.explore_s"] = total("models.explore")
    m["models.explores"] = len(explored)
    m["models.explores_per_model"] = (len(explored) / len(set(explored))
                                      if explored else 0.0)
    m["markov.steady_state.solve_s"] = total("markov.steady_state.solve")
    m["markov.steady_state.calls"] = len(by_name["markov.steady_state.solve"])
    m["batch.kernel.builds"] = kernel_builds
    calls, seconds, moved = leaves["batch.kernel.step"]
    m["batch.kernel.steps"] = calls
    m["batch.kernel.step_s"] = seconds
    m["batch.kernel.bytes_moved_computed"] = moved
    m["core.schedules.steps"] = tracer.counts["core.schedules.step"]
    m["core.schedules.snapshot_s"] = total("core.schedules.snapshot")
    hits = info("core.schedule_cache.setup_for", "hit")
    m["core.schedule_cache.hits"] = sum(hits)
    m["core.schedule_cache.misses"] = len(hits) - sum(hits)
    m["core.truncation.calls"] = len(by_name["core.truncation.select"])
    m["core.truncation.self_s"] = self_by_name["core.truncation.select"]
    m["core.transforms.evals"] = len(by_name["core.transforms.eval"])
    m["core.transforms.self_s"] = self_by_name["core.transforms.eval"]
    abscissae = info("laplace.invert", "abscissae")
    m["laplace.inversions"] = len(abscissae)
    m["laplace.abscissae_mean"] = (sum(abscissae) / len(abscissae)
                                   if abscissae else 0.0)
    m["laplace.abscissae_max"] = max(abscissae, default=0)
    m["laplace.self_s"] = self_by_name["laplace.invert"]
    m["laplace.epsilon.self_s"] = leaves["laplace.epsilon.add"][1]
    for tag in SOLVERS:
        # RR solves its truncated chain with an inner SR: only outermost
        # solver spans count as solves.
        outer = [spans[i] for i in by_name[f"solvers.{tag}"]
                 if not _solver_ancestor(spans, spans[i])]
        m[f"solvers.{tag}.solve_s"] = sum(s.end - s.start for s in outer)
        m[f"solvers.{tag}.calls"] = len(outer)
    m["batch.planner.plan_s"] = total("batch.planner.plan")
    for key in ("tasks", "coalesced", "fused_cells"):
        m[f"batch.planner.{key}"] = sum(info("batch.planner.plan", key))
    m["batch.planner.worker_cache_hits"] = worker_cache["hits"]
    m["batch.planner.worker_cache_misses"] = worker_cache["misses"]
    busy = total("batch.backends.task")
    capacity = sum((spans[i].end - spans[i].start) * spans[i].info["workers"]
                   for i in by_name["batch.backends.run"])
    m["batch.backends.busy_s"] = busy
    m["batch.backends.idle_s"] = max(0.0, capacity - busy)
    m["batch.backends.utilization"] = busy / capacity if capacity else 0.0
    m["service.protocol.encode_s"] = total("service.protocol.encode")
    m["service.protocol.decode_s"] = total("service.protocol.decode")
    m["service.protocol.bytes"] = sum(info("service.protocol.encode",
                                           "bytes"))
    m["service.queue.appends"] = len(by_name["service.queue.append"])
    m["service.queue.append_s"] = total("service.queue.append")
    m["service.queue.replay_s"] = total("service.queue.replay")
    m["service.queue.journal_bytes"] = journal_bytes
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = self_by_name[ROOT]
    return m, {k: dict(v) for k, v in attribution.items()}
