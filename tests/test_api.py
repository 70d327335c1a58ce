"""Public API surface: exports, version, and the README quickstart."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.exceptions import (
    ConvergenceError,
    InversionError,
    MeasureError,
    ModelError,
    ReproError,
    TruncationError,
)


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_solver_method_names_unique(self):
        from repro.analysis import SOLVER_REGISTRY
        tags = [factory().method_name  # type: ignore[attr-defined]
                for factory in SOLVER_REGISTRY.values()]
        assert len(set(tags)) == len(tags)

    def test_markov_and_core_reexports_consistent(self):
        from repro.core import RRLSolver as core_rrl
        assert repro.RRLSolver is core_rrl

    def test_import_leaves_scipy_integrate_unloaded(self):
        # Only the ODE baseline needs scipy.integrate; importing it eagerly
        # would tax every CLI call and spawned worker. A fresh interpreter
        # is the only place sys.modules is not already polluted.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__))]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        code = ("import sys, repro; "
                "print('scipy.integrate' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestExceptionHierarchy:
    @pytest.mark.parametrize("exc", [ModelError, MeasureError,
                                     ConvergenceError, TruncationError,
                                     InversionError])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_convergence_error_payload(self):
        e = ConvergenceError("nope", iterations=5, residual=0.1)
        assert e.iterations == 5
        assert e.residual == 0.1

    def test_catch_all(self):
        from repro import CTMC
        with pytest.raises(ReproError):
            CTMC(np.zeros((2, 3)))


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        from repro import CTMC, RewardStructure, TRR, RRLSolver
        model = CTMC(np.array([[-1.0, 1.0], [10.0, -10.0]]))
        rewards = RewardStructure.indicator(2, [1])
        sol = RRLSolver().solve(model, rewards, TRR,
                                times=[1.0, 1e3, 1e5], eps=1e-12)
        # Steady-state unavailability of the λ=1, μ=10 machine is 1/11.
        assert sol.values[-1] == pytest.approx(1.0 / 11.0, abs=1e-11)
        assert sol.steps.shape == (3,)

    def test_package_docstring_value(self):
        # The __init__ docstring promises UA(100) ≈ 0.090909.
        from repro import CTMC, RewardStructure, TRR, RRLSolver
        model = CTMC(np.array([[-1.0, 1.0], [10.0, -10.0]]))
        rewards = RewardStructure.indicator(2, [1])
        sol = RRLSolver().solve(model, rewards, TRR, [100.0], eps=1e-10)
        assert round(sol.values[0], 6) == 0.090909
