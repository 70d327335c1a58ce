"""Stationary solvers: GTH vs the sparse pinned solve vs closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu, spsolve

from repro import CTMC, TRR, SteadyStateDetectionSolver
from repro.analysis.experiments import ExperimentConfig
from repro.exceptions import ModelError
from repro.markov import steady_state
from repro.markov.steady_state import gth_solve, stationary_distribution
from repro.models import (birth_death, block_structured_ctmc,
                          build_raid5_availability, random_ctmc)


class TestGth:
    def test_two_state(self):
        q = np.array([[-1.0, 1.0], [10.0, -10.0]])
        pi = gth_solve(q)
        assert np.allclose(pi, [10.0 / 11.0, 1.0 / 11.0])

    def test_birth_death_geometric(self):
        model = birth_death(6, birth=2.0, death=3.0)
        pi = gth_solve(model.generator.toarray())
        rho = 2.0 / 3.0
        expected = rho ** np.arange(6)
        expected /= expected.sum()
        assert np.allclose(pi, expected, rtol=1e-12)

    def test_diagonal_ignored(self):
        q = np.array([[5.0, 1.0], [10.0, 77.0]])  # garbage diagonals
        pi = gth_solve(q)
        assert np.allclose(pi, [10.0 / 11.0, 1.0 / 11.0])

    def test_reducible_raises(self):
        q = np.array([[-1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ModelError):
            gth_solve(q)

    def test_stiff_rates_stable(self):
        # GTH is subtraction-free: 12 orders of magnitude are fine.
        q = np.array([[-1e-6, 1e-6, 0.0],
                      [1e6, -1e6 - 1e-6, 1e-6],
                      [0.0, 1e6, -1e6]])
        pi = gth_solve(q)
        flow = pi @ q
        np.fill_diagonal(q, 0.0)
        assert np.all(pi > 0.0)
        assert np.allclose(flow, 0.0, atol=1e-12 * np.abs(q).max())


class TestDispatch:
    @pytest.mark.parametrize("method", ["gth", "sparse"])
    def test_methods_agree(self, method, random_irreducible):
        pi = stationary_distribution(random_irreducible, method=method)
        q = random_irreducible.generator
        assert np.allclose(pi @ q, 0.0, atol=1e-10)
        assert pi.sum() == pytest.approx(1.0)

    def test_dtmc_input(self, random_irreducible):
        dtmc, _ = random_irreducible.uniformize(slack=1.1)
        pi_c = stationary_distribution(random_irreducible)
        pi_d = stationary_distribution(dtmc)
        assert np.allclose(pi_c, pi_d, atol=1e-10)

    def test_unknown_method(self, random_irreducible):
        with pytest.raises(ValueError):
            stationary_distribution(random_irreducible, method="magic")

    def test_bad_type(self):
        with pytest.raises(TypeError):
            stationary_distribution(np.eye(2))  # type: ignore[arg-type]

    def test_auto_uses_sparse_for_large(self):
        model = birth_death(1500, 1.0, 2.0)
        pi = stationary_distribution(model)  # must not take O(n^3) forever
        rho = 0.5
        expected = rho ** np.arange(1500)
        expected /= expected.sum()
        assert np.allclose(pi[:50], expected[:50], rtol=1e-8)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=12),
       seed=st.integers(min_value=0, max_value=10_000))
def test_gth_sparse_agree_property(n, seed):
    """Property: both solvers produce the same stationary vector."""
    model = random_ctmc(n, density=0.5, seed=seed)
    pi_g = stationary_distribution(model, method="gth")
    pi_s = stationary_distribution(model, method="sparse")
    assert np.allclose(pi_g, pi_s, atol=1e-9)


# --- Sparse pinned solve: ILU + GMRES, escalating to SuperLU ------------

def _pinned_system(q, j):
    n = q.shape[0]
    qt = q.T.tocsc()
    keep = np.arange(n) != j
    return (qt[keep][:, keep].tocsc(),
            -np.asarray(qt[keep][:, [j]].todense()).ravel())


def _superlu_answer(q):
    """The direct solve alone: SuperLU on the system pinned at the bulk
    state, clipped and normalized."""
    j = steady_state._bulk_state(q)
    a, b = _pinned_system(q, j)
    pi = np.insert(np.asarray(spsolve(a, b)).ravel(), j, 1.0)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _refined_reference(q):
    """The stationary vector of the stored generator to well below
    double round-off: SuperLU on the pinned system, refined three times
    with residuals in extended precision."""
    j = steady_state._bulk_state(q)
    a, b = _pinned_system(q, j)
    lu = splu(a)
    a_ext = a.astype(np.longdouble)
    x = lu.solve(b).astype(np.longdouble)
    for _ in range(3):
        x += lu.solve((b - a_ext @ x).astype(np.float64))
    pi = np.insert(x, j, 1.0)
    return pi / pi.sum()


def _relative_residual(pi, q):
    return float(np.abs(pi @ q).max() / np.abs(q.data).max())


def _singular_spilu(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


@pytest.fixture
def no_escalation(monkeypatch):
    """Fail the test if any pinned solve escalates to SuperLU."""
    def fail(a, b):
        raise AssertionError("the iterative solve escalated to SuperLU")
    monkeypatch.setattr(steady_state, "_superlu", fail)


@pytest.fixture(scope="module")
def raid_g20():
    """The paper's G=20 RAID-5 availability chain (5,521 states)."""
    model, rewards, _ = build_raid5_availability(
        ExperimentConfig.paper().params_for(20))
    return model, rewards


_LARGE_CHAINS = {
    "birth_death_underflow": lambda: birth_death(1500, 1.0, 2.0),
    "birth_death_near_critical": lambda: birth_death(5000, 1.0, 1.0001),
    "random_sparse": lambda: random_ctmc(2000, density=0.005),
    "ncd_stiff": lambda: block_structured_ctmc(
        40, 50, intra_scale=1.0, inter_scale=1e-6)[0],
}


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the reference needs extended precision")
class TestIterativeAccuracy:
    """Chains above the GTH threshold: the iterative answer reaches the
    round-off residual and is as accurate as the direct one.

    Accuracy is measured against the extended-precision reference, not
    against the direct answer: two double-precision solves of a poorly
    conditioned system differ at the conditioning level (6.6e-13 in L1
    on the near-critical birth-death chain, 1.3e-7 on the NCD chain),
    and which of them is closer to the reference varies from chain to
    chain. The bound allows the iterative answer up to twice the direct
    one's error, plus 1e-15 for chains where both sit at round-off."""

    def check(self, model):
        q = model.generator
        reference = _refined_reference(q)
        direct_error = np.abs(_superlu_answer(q) - reference).sum()
        pi = stationary_distribution(model)
        assert q.shape[0] > steady_state._GTH_MAX_STATES
        assert _relative_residual(pi, q) <= 1e-15
        assert pi.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.abs(pi - reference).sum() <= 2.0 * direct_error + 1e-15

    @pytest.mark.parametrize("name", sorted(_LARGE_CHAINS))
    def test_chain(self, name, no_escalation):
        self.check(_LARGE_CHAINS[name]())

    def test_raid_g20(self, raid_g20, no_escalation):
        model, _ = raid_g20
        self.check(model)
        # On the paper's chain both solves sit at round-off.
        q = model.generator
        direct = _superlu_answer(q)
        assert np.abs(stationary_distribution(model) - direct).sum() <= 1e-15


class TestEscalation:
    """A failed factorization, a failed iteration or a rejected answer
    escalates that pin to SuperLU, whose answer comes back unchanged."""

    @pytest.fixture
    def chain(self):
        return random_ctmc(1300, density=0.005, seed=1)

    def test_spilu_raises(self, chain, monkeypatch):
        monkeypatch.setattr(steady_state, "spilu", _singular_spilu)
        pi = stationary_distribution(chain)
        assert np.array_equal(pi, _superlu_answer(chain.generator))

    def test_gmres_does_not_converge(self, chain, monkeypatch):
        real_gmres = steady_state.gmres

        def stalled(*args, **kwargs):
            x, _ = real_gmres(*args, **kwargs)
            return x, 120
        monkeypatch.setattr(steady_state, "gmres", stalled)
        pi = stationary_distribution(chain)
        assert np.array_equal(pi, _superlu_answer(chain.generator))

    def test_certificate_rejects_perturbed_answer(self, chain, monkeypatch):
        q = chain.generator
        j = steady_state._bulk_state(q)
        real_gmres = steady_state.gmres
        perturbed_pi = []

        def perturbed(a, b, **kwargs):
            x, info = real_gmres(a, b, **kwargs)
            signs = np.where(np.arange(x.size) % 2 == 0, 1.0, -1.0)
            x = x + 1e-10 * x.sum() * signs  # 1e-10 on the normalized π
            perturbed_pi.append(np.insert(x, j, 1.0))
            return x, info
        monkeypatch.setattr(steady_state, "gmres", perturbed)
        pi = stationary_distribution(chain)
        assert np.array_equal(pi, _superlu_answer(q))
        # The perturbation sits between the certificate (1e-13) and the
        # 1e-8 one it replaced, which would have accepted it.
        rejected = perturbed_pi[0] / perturbed_pi[0].sum()
        assert 1e-13 < _relative_residual(rejected, q) < 1e-8

    def test_no_escalation_on_unperturbed_chain(self, chain, no_escalation):
        pi = stationary_distribution(chain)
        assert _relative_residual(pi, chain.generator) <= 1e-15


def test_rsd_unchanged_by_escalation(raid_g20, monkeypatch):
    """RSD's Table 1 cell at G=20: π∞ from GMRES and from SuperLU give
    the same detection step and the same values to 1e-15."""
    model, rewards = raid_g20
    times = ExperimentConfig.paper().times

    def solve():
        return SteadyStateDetectionSolver().solve(model, rewards, TRR, times,
                                                  eps=1e-12)
    iterative = solve()
    monkeypatch.setattr(steady_state, "spilu", _singular_spilu)
    direct = solve()
    assert np.array_equal(iterative.steps, direct.steps)
    assert iterative.stats["k_ss"] == direct.stats["k_ss"]
    assert np.abs(iterative.values - direct.values).max() <= 1e-15
