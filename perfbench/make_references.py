"""Regenerate ``perfbench/references.json``: standard-randomization (SR)
reference values for the ``rrl_queries`` and ``paper_grid`` checks.

SR is independent of the method under test (RRL): it steps the
randomized chain ``N ≈ Λt`` times instead of inverting a Laplace
transform. Every reference carries its own error statement: the SR
truncation budget ``eps_ref`` plus a first-order round-off bound. One
product ``x ↦ xP`` of a probability vector adds at most
``u·Σ_j (m_j + 2)(xP)_j`` in the 1-norm, where ``m_j`` is the number of
non-zeros in column ``j`` of ``P`` (the terms summed into entry ``j``),
``2u`` covers forming ``P = I + Q/Λ``, and ``u`` is the unit round-off;
``P`` does not amplify earlier errors, so after ``N`` steps the bound is
``u·Σ_{n=1..N} π_n·(m + 2)`` — a reward sequence of the same chain, which
the kernel computes in a second sweep. The weighting by ``π_n`` matters:
the FAILED column of the RAID models holds a non-zero from nearly every
state, but little mass reaches it early.

References stop at t = 10⁴ h: SR to 10⁵ h takes 4.4 million steps of the
20k-state G=40 chain, over an hour on one core. Queries beyond the last
reference horizon count as unchecked.

Run from the repository root (a few minutes on one core):

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro import MRR, TRR, StandardRandomizationSolver  # noqa: E402
from repro.analysis.experiments import ExperimentConfig  # noqa: E402
from repro.batch.kernel import UniformizationKernel  # noqa: E402
from repro.markov.base import SolveCell  # noqa: E402
from repro.models.raid5 import (  # noqa: E402
    build_raid5_availability,
    build_raid5_reliability,
)

import workloads  # noqa: E402

EPS_REF = 1e-13
LAST_HORIZON = 1e4


def reference_table(groups: int, kind: str) -> dict:
    params = ExperimentConfig.paper().params_for(groups)
    build = (build_raid5_availability if kind == "availability"
             else build_raid5_reliability)
    model, rewards, _ = build(params)
    kernel = UniformizationKernel.from_model(model)[0]
    times = tuple(t for t in workloads.QUERY_HORIZONS if t <= LAST_HORIZON)
    start = time.perf_counter()
    solutions = StandardRandomizationSolver().solve_fused(
        model, [SolveCell(rewards=rewards, measure=m, times=times,
                          eps=EPS_REF) for m in (TRR, MRR)], kernel=kernel)
    n_max = max(int(sol.steps.max()) for sol in solutions) + 1
    weights = np.diff(kernel.dtmc.transition_matrix.tocsc().indptr) + 2.0
    mass = kernel.reward_sequence(kernel.dtmc.initial, weights, n_max + 1)
    # roundoff[N] bounds the error after N steps: u · Σ_{n=1..N} π_n·(m+2).
    roundoff = np.concatenate(([0.0], np.cumsum(mass[1:]))) \
        * workloads.UNIT_ROUNDOFF
    table = {"n_states": model.n_states, "rate": kernel.rate,
             "seconds": time.perf_counter() - start}
    for sol in solutions:
        table[sol.measure.value] = [
            [t, float(v), float(roundoff[int(n)])]
            for t, v, n in zip(times, sol.values, sol.steps)]
    return table


def main() -> None:
    out = {"method": "SR", "eps_ref": EPS_REF,
           "entries": "[t, value, round-off bound]", "models": {}}
    for groups, kind in workloads.QUERY_MODELS:
        name = workloads.model_name(groups, kind)
        out["models"][name] = reference_table(groups, kind)
        print(name, f"{out['models'][name]['seconds']:.1f} s", flush=True)
    (HERE / "references.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
