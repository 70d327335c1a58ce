"""Unit tests for the shared uniformization kernel.

The load-bearing property: batching vectors into a stack must be
*bit-for-bit* identical to stepping each vector alone — the solvers that
were rewired onto the kernel may not change a single ulp.
"""

import sys
import threading

import numpy as np
import pytest
from scipy import sparse

from repro.batch.kernel import (
    UniformizationKernel,
    ensure_model_kernel,
    fox_glynn_cache_clear,
    fox_glynn_cache_info,
    kernel_build_count,
    shared_fox_glynn,
)
from repro.exceptions import ModelError
from repro.markov.poisson import fox_glynn
from repro.models.library import random_ctmc, two_state_availability


def count_steps(kernel):
    """Wrap ``kernel.step`` (on the instance) so every call — including
    the kernel's own, which go through ``self.step`` — is counted."""
    calls = {"steps": 0}
    step = kernel.step

    def counted(stack):
        calls["steps"] += 1
        return step(stack)

    kernel.step = counted
    return calls


@pytest.fixture
def kernel_and_model():
    model = random_ctmc(40, density=0.2, seed=7)
    kernel, dtmc, rate = UniformizationKernel.from_model(model)
    return kernel, dtmc, rate, model


class TestStackedPropagation:
    def test_stack_equals_per_vector_bitwise(self, kernel_and_model):
        kernel, dtmc, _, model = kernel_and_model
        rng = np.random.default_rng(3)
        stack = rng.dirichlet(np.ones(model.n_states), size=5).T  # (n, 5)
        out_stack = kernel.propagate(stack.copy(), 17)
        for j in range(stack.shape[1]):
            out_one = kernel.propagate(stack[:, j].copy(), 17)
            assert np.array_equal(out_stack[:, j], out_one)

    def test_step_matches_dtmc_step_bitwise(self, kernel_and_model):
        kernel, dtmc, _, _ = kernel_and_model
        pi = dtmc.initial.copy()
        assert np.array_equal(kernel.step(pi), dtmc.step(pi))

    def test_reward_sequence_stack_columns(self, kernel_and_model):
        kernel, dtmc, _, model = kernel_and_model
        rng = np.random.default_rng(11)
        r = rng.random(model.n_states)
        stack = rng.dirichlet(np.ones(model.n_states), size=3).T
        d_stack = kernel.reward_sequence(stack, r, 12)
        assert d_stack.shape == (12, 3)
        for j in range(3):
            d_one = kernel.reward_sequence(stack[:, j], r, 12)
            assert np.array_equal(d_stack[:, j], d_one)

    def test_reward_sequence_matches_manual_loop(self, kernel_and_model):
        kernel, dtmc, _, model = kernel_and_model
        r = np.linspace(0.0, 1.0, model.n_states)
        d = kernel.reward_sequence(dtmc.initial, r, 9)
        pi = dtmc.initial.copy()
        for n in range(9):
            assert d[n] == r @ pi
            pi = dtmc.step(pi)

    def test_reward_sequences_columns_bitwise(self, kernel_and_model):
        # The fused-solver primitive: one initial, a stack of reward
        # vectors — every column must equal its single-reward run ulp
        # for ulp, because SR/RSD fusion relies on exactly this.
        kernel, dtmc, _, model = kernel_and_model
        rng = np.random.default_rng(23)
        rewards = rng.random((model.n_states, 4))
        d = kernel.reward_sequences(dtmc.initial, rewards, 15)
        assert d.shape == (15, 4)
        for j in range(4):
            d_one = kernel.reward_sequence(dtmc.initial,
                                           rewards[:, j], 15)
            assert np.array_equal(d[:, j], d_one)

    def test_reward_sequences_steps_once_per_level(self, kernel_and_model):
        kernel, dtmc, _, model = kernel_and_model
        calls = count_steps(kernel)
        kernel.reward_sequences(dtmc.initial, np.ones((model.n_states, 6)),
                                10)
        # 9 steps for 10 levels, independent of the 6 reward columns.
        assert calls["steps"] == 9

    def test_reward_sequences_shape_checks(self, kernel_and_model):
        kernel, dtmc, _, model = kernel_and_model
        with pytest.raises(ModelError):
            kernel.reward_sequences(np.ones((model.n_states, 2)),
                                    np.ones((model.n_states, 2)), 3)
        with pytest.raises(ModelError):
            kernel.reward_sequences(dtmc.initial, np.ones(model.n_states),
                                    3)
        with pytest.raises(ValueError):
            kernel.reward_sequences(dtmc.initial,
                                    np.ones((model.n_states, 2)), 0)

    def test_propagate_zero_steps_is_identity(self, kernel_and_model):
        kernel, dtmc, _, _ = kernel_and_model
        out = kernel.propagate(dtmc.initial, 0)
        assert np.array_equal(out, dtmc.initial)

    def test_step_counter(self, kernel_and_model):
        kernel, dtmc, _, _ = kernel_and_model
        calls = count_steps(kernel)
        kernel.propagate(dtmc.initial, 4)
        assert calls["steps"] == 4


class TestStepRate:
    def test_matches_explicit_generator_step(self):
        model, _ = two_state_availability()
        kernel, _, _ = UniformizationKernel.from_model(model)
        v = model.initial.copy()
        lam = model.max_output_rate
        expected = v + (model.generator.T @ v) / lam
        assert np.allclose(kernel.step_rate(v, lam), expected,
                           rtol=0.0, atol=0.0)

    def test_requires_generator(self):
        model, _ = two_state_availability()
        dtmc, rate = model.uniformize()
        kernel = UniformizationKernel.from_dtmc(dtmc, rate)
        with pytest.raises(ModelError):
            kernel.step_rate(dtmc.initial, 1.0)

    def test_rejects_nonpositive_rate(self):
        model, _ = two_state_availability()
        kernel, dtmc, _ = UniformizationKernel.from_model(model)
        with pytest.raises(ValueError):
            kernel.step_rate(dtmc.initial, 0.0)

    def test_generator_only_kernel(self):
        # AU's cheap construction: no P is built, step_rate still works
        # and fixed-rate stepping is refused.
        model, _ = two_state_availability()
        kernel = UniformizationKernel.from_generator(model)
        assert kernel.n_states == model.n_states
        v = model.initial.copy()
        lam = model.max_output_rate
        expected = v + (model.generator.T @ v) / lam
        assert np.array_equal(kernel.step_rate(v, lam), expected)
        with pytest.raises(ModelError):
            kernel.step(v)
        with pytest.raises(ModelError):
            UniformizationKernel(None)


def _zero_row_chain():
    """A sub-stochastic ``P`` with an all-zero row (state 3 leaks all its
    mass) and an all-zero column (nothing enters state 5)."""
    dtmc, _ = random_ctmc(12, density=0.4, seed=5).uniformize()
    p = dtmc.transition_matrix.tolil()
    p[3, :] = 0.0
    p[:, 5] = 0.0
    return sparse.csr_matrix(p)


def _int64_chain():
    """A CSR input with int64 index arrays (a ``csr_array`` keeps them;
    ``csr_matrix`` would downcast)."""
    dtmc, _ = random_ctmc(25, density=0.3, seed=9).uniformize()
    p = dtmc.transition_matrix.tocsr()
    return sparse.csr_array((p.data, p.indices.astype(np.int64),
                             p.indptr.astype(np.int64)), shape=p.shape)


def _stack_inputs(n):
    """Every stack layout ``step`` takes: a vector, C- and F-ordered
    stacks, a one-column stack and a strided column view."""
    rng = np.random.default_rng(17)
    wide = rng.random((n, 4))
    return {"vector": rng.random(n),
            "c_stack": wide,
            "f_stack": np.asfortranarray(wide),
            "one_column": rng.random((n, 1)),
            "column_view": wide[:, 2]}


def _at(mat, x):
    """``matᵀ @ x`` through scipy's ``@``: the product the kernel's
    direct call must reproduce bit for bit."""
    return sparse.csr_matrix(mat).T.tocsr() @ x


class TestDirectStepping:
    """``step``/``step_rate`` call scipy's compiled CSR product directly;
    they must equal what ``@`` gives, bit for bit and shape for shape."""

    @pytest.mark.parametrize("chain", ["random", "zero_row", "int64"])
    @pytest.mark.parametrize("layout", ["vector", "c_stack", "f_stack",
                                        "one_column", "column_view"])
    def test_step_equals_matmul_bitwise(self, chain, layout):
        p = {"random": lambda: random_ctmc(40, density=0.2, seed=7)
             .uniformize()[0].transition_matrix,
             "zero_row": _zero_row_chain, "int64": _int64_chain}[chain]()
        kernel = UniformizationKernel(p)
        x = _stack_inputs(p.shape[0])[layout]
        got = kernel.step(x)
        want = _at(p, x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        if chain == "int64":
            # The transpose is downcast to int32 at this size; only
            # matrices past 2³¹ non-zeros keep int64 indices. Step
            # through the int64 routines explicitly.
            wide = kernel._pt.copy()
            wide.indptr = wide.indptr.astype(np.int64)
            wide.indices = wide.indices.astype(np.int64)
            assert np.array_equal(kernel._product(wide, x), want)
        if chain == "zero_row":
            assert np.all(got[5] == 0.0)  # no inflow into state 5

    @pytest.mark.parametrize("absorbing", [0, 2])
    @pytest.mark.parametrize("layout", ["vector", "c_stack", "f_stack",
                                        "one_column", "column_view"])
    def test_step_rate_equals_matmul_bitwise(self, absorbing, layout):
        # Absorbing states give the generator all-zero rows.
        model = random_ctmc(20, density=0.3, seed=11, absorbing=absorbing)
        kernel = UniformizationKernel.from_generator(model)
        x = _stack_inputs(model.n_states)[layout]
        rate = 1.5 * model.max_output_rate
        got = kernel.step_rate(x, rate)
        want = x + _at(model.generator, x) / rate
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_returns_fresh_arrays(self, kernel_and_model):
        kernel, dtmc, _, _ = kernel_and_model
        pi = dtmc.initial.copy()
        first = kernel.step(pi)
        second = kernel.step(pi)
        assert first is not second and first is not pi
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("shape", [(39,), (41, 2), (40, 2, 1)])
    def test_rejects_mismatched_shapes(self, kernel_and_model, shape):
        # The compiled routine does not check lengths; the kernel must.
        kernel, *_ = kernel_and_model
        with pytest.raises(ValueError):
            kernel.step(np.ones(shape))
        with pytest.raises(ValueError):
            kernel.step_rate(np.ones(shape), 10.0)

    def test_shared_kernel_across_threads(self, kernel_and_model):
        # Threads stepping one kernel at once — vectors and stacks, more
        # threads than cores, frequent switches — must each get exactly
        # the serial result.
        kernel, _, _, model = kernel_and_model
        rng = np.random.default_rng(29)
        starts = [rng.dirichlet(np.ones(model.n_states)),
                  rng.dirichlet(np.ones(model.n_states), size=3).T] * 3
        serial = [kernel.propagate(x, 300) for x in starts]
        barrier = threading.Barrier(len(starts))
        results = [None] * len(starts)

        def run(i):
            barrier.wait()
            results[i] = kernel.propagate(starts[i], 300)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(starts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, serial):
            assert np.array_equal(got, want)


class TestFoxGlynnCache:
    def test_hit_behavior(self):
        fox_glynn_cache_clear()
        w1 = shared_fox_glynn(50.0, 1e-10)
        info = fox_glynn_cache_info()
        assert info.misses == 1 and info.hits == 0
        w2 = shared_fox_glynn(50.0, 1e-10)
        info = fox_glynn_cache_info()
        assert info.hits == 1
        assert w1 is w2  # same cached object, not a recomputation
        shared_fox_glynn(50.0, 1e-8)  # different eps → different key
        assert fox_glynn_cache_info().misses == 2

    def test_cached_window_matches_direct(self):
        fox_glynn_cache_clear()
        cached = shared_fox_glynn(123.5, 1e-9)
        direct = fox_glynn(123.5, 1e-9)
        assert cached.left == direct.left and cached.right == direct.right
        assert np.array_equal(cached.weights, direct.weights)

    def test_kernel_window_uses_shared_cache(self):
        model, _ = two_state_availability()
        kernel, _, rate = UniformizationKernel.from_model(model)
        fox_glynn_cache_clear()
        kernel.window(5.0, 1e-10)
        kernel.window(5.0, 1e-10)
        info = fox_glynn_cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_window_requires_rate(self):
        model, _ = two_state_availability()
        dtmc, _ = model.uniformize()
        kernel = UniformizationKernel.from_dtmc(dtmc)
        with pytest.raises(ModelError):
            kernel.window(1.0, 1e-10)


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ModelError):
            UniformizationKernel(np.ones((2, 3)))

    def test_rejects_negative_steps(self):
        model, _ = two_state_availability()
        kernel, dtmc, _ = UniformizationKernel.from_model(model)
        with pytest.raises(ValueError):
            kernel.propagate(dtmc.initial, -1)

    def test_reward_sequence_shape_checks(self):
        model, _ = two_state_availability()
        kernel, dtmc, _ = UniformizationKernel.from_model(model)
        with pytest.raises(ModelError):
            kernel.reward_sequence(dtmc.initial, np.ones(5), 3)
        with pytest.raises(ValueError):
            kernel.reward_sequence(dtmc.initial, np.ones(2), 0)


class TestEnsureModelKernel:
    def test_builds_when_none(self):
        model, _ = two_state_availability()
        kernel, dtmc, rate = ensure_model_kernel(model, None)
        assert kernel.dtmc is dtmc
        assert rate == pytest.approx(model.max_output_rate)

    def test_accepts_matching_injected_kernel(self):
        model, _ = two_state_availability()
        built, _, _ = UniformizationKernel.from_model(model)
        before = kernel_build_count()
        kernel, dtmc, rate = ensure_model_kernel(model, built)
        assert kernel is built
        assert dtmc is built.dtmc
        assert kernel_build_count() == before  # no rebuild

    def test_rejects_kernel_without_dtmc(self):
        model, _ = two_state_availability()
        dtmc, rate = model.uniformize()
        bare = UniformizationKernel.from_dtmc(dtmc, rate)
        with pytest.raises(ModelError, match="from_model"):
            ensure_model_kernel(model, bare)

    def test_rejects_size_and_rate_mismatch(self):
        model, _ = two_state_availability()
        other = random_ctmc(5, density=0.5, seed=1)
        wrong_size, _, _ = UniformizationKernel.from_model(other)
        with pytest.raises(ModelError, match="states"):
            ensure_model_kernel(model, wrong_size)
        built, _, _ = UniformizationKernel.from_model(model)
        with pytest.raises(ModelError, match="rate"):
            ensure_model_kernel(model, built,
                                rate=2.0 * model.max_output_rate)

    def test_rejects_kernel_from_different_same_size_model(self):
        import numpy as _np
        from repro.markov.ctmc import CTMC

        slow = CTMC(_np.array([[-0.5, 0.5], [1.0, -1.0]]))
        fast = CTMC(_np.array([[-4.0, 4.0], [8.0, -8.0]]))
        slow_kernel, _, _ = UniformizationKernel.from_model(slow)
        # Same size, but the kernel's rate cannot dominate fast's rates.
        with pytest.raises(ModelError, match="max output rate"):
            ensure_model_kernel(fast, slow_kernel)
        # Same size and compatible rates, different initial distribution.
        shifted = CTMC(_np.array([[-0.5, 0.5], [1.0, -1.0]]),
                       initial=_np.array([0.25, 0.75]))
        shifted_kernel, _, _ = UniformizationKernel.from_model(shifted)
        with pytest.raises(ModelError, match="initial"):
            ensure_model_kernel(slow, shifted_kernel)
