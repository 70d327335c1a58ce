"""ODE (Chapman–Kolmogorov) baseline solver.

Integrates ``dπ/dt = π Q`` with scipy's stiff BDF integrator. For MRR the
state is augmented with the accumulated reward ``c(t) = ∫_0^t π(τ) r dτ``
(one extra component, ``dc/dt = π r``), so both measures come out of a
single integration.

This solver exists purely as an *independent cross-check* of the
randomization-based methods (it shares no code path with them) and for the
tiny analytical models in the test-suite; it is not a competitor in the
paper's evaluation and makes no guaranteed-error claims — BDF's local error
control is heuristic, which is exactly the weakness randomization methods
avoid (paper, Section 1).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConvergenceError
from repro.markov.base import TransientSolution, as_time_array
from repro.markov.ctmc import CTMC
from repro.markov.rewards import Measure, RewardStructure
from repro.solvers.registry import SolverSpec, register

__all__ = ["OdeSolver"]


class OdeSolver:
    """Stiff ODE transient solver (cross-validation baseline).

    Parameters
    ----------
    rtol, atol:
        Tolerances handed to ``solve_ivp``; defaults are tight because the
        test-suite compares against methods with ``eps = 1e-12`` budgets.
    method:
        Any ``solve_ivp`` method; BDF by default (dependability models are
        stiff: repair rates exceed failure rates by orders of magnitude).
    """

    method_name = "ODE"

    def __init__(self, rtol: float = 1e-10, atol: float = 1e-12,
                 method: str = "BDF") -> None:
        self._rtol = rtol
        self._atol = atol
        self._method = method

    def solve(self,
              model: CTMC,
              rewards: RewardStructure,
              measure: Measure,
              times: np.ndarray | list[float],
              eps: float = 1e-12) -> TransientSolution:
        """Integrate to every requested time (``eps`` is recorded but the
        actual accuracy is governed by ``rtol``/``atol``)."""
        # Imported here: scipy.integrate costs every ``import repro`` about
        # 0.2 s, and only this cross-check baseline needs it.
        from scipy.integrate import solve_ivp

        rewards.check_model(model)
        t_arr = as_time_array(times)
        order = np.argsort(t_arr)
        t_sorted = t_arr[order]

        qt = model.generator.T.tocsr()
        r = rewards.rates
        n = model.n_states

        def rhs(_t: float, y: np.ndarray) -> np.ndarray:
            pi = y[:n]
            out = np.empty_like(y)
            out[:n] = qt @ pi
            out[n] = r @ pi
            return out

        y0 = np.concatenate([model.initial, [0.0]])
        sol = solve_ivp(rhs, (0.0, float(t_sorted[-1])), y0,
                        method=self._method, t_eval=t_sorted,
                        rtol=self._rtol, atol=self._atol)
        if not sol.success:
            raise ConvergenceError(f"solve_ivp failed: {sol.message}")

        vals_sorted = np.empty(t_sorted.size)
        for j in range(t_sorted.size):
            pi = sol.y[:n, j]
            if measure is Measure.TRR:
                vals_sorted[j] = float(r @ pi)
            else:
                vals_sorted[j] = float(sol.y[n, j]) / float(t_sorted[j])
        values = np.empty_like(vals_sorted)
        values[order] = vals_sorted
        return TransientSolution(times=t_arr, values=values, measure=measure,
                                 eps=eps,
                                 steps=np.full(t_arr.size, sol.t.size,
                                               dtype=int),
                                 method=self.method_name,
                                 stats={"rate": model.max_output_rate,
                                        "nfev": sol.nfev,
                                        "njev": getattr(sol, "njev", 0)})


register(SolverSpec(
    name="ODE",
    constructor=OdeSolver,
    summary="Stiff ODE integration baseline (cross-validation, no error "
            "guarantee)",
))
