"""Wynn epsilon algorithm: acceleration of classic slowly-convergent
series and degeneracy handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.laplace.epsilon import EpsilonAccelerator, wynn_epsilon


def partial_sums(terms):
    return np.cumsum(np.asarray(terms, dtype=float))


class TestAcceleration:
    def test_geometric_series_exact(self):
        # Σ x^k = 1/(1-x): the Shanks transform is exact for geometric
        # sequences after a handful of terms.
        x = 0.7
        sums = partial_sums(x ** np.arange(12))
        est = wynn_epsilon(sums)
        assert est == pytest.approx(1.0 / (1.0 - x), abs=1e-12)

    def test_alternating_log2(self):
        # Σ (-1)^{k+1}/k = ln 2 converges like 1/n; epsilon makes 20 terms
        # worth ~1e-12 — the same mechanism Crump's inversion relies on.
        k = np.arange(1, 22, dtype=float)
        sums = partial_sums((-1.0) ** (k + 1) / k)
        est = wynn_epsilon(sums)
        assert est == pytest.approx(np.log(2.0), abs=1e-10)
        # Raw partial sums are nowhere near that accurate.
        assert abs(sums[-1] - np.log(2.0)) > 1e-2

    def test_pi_leibniz(self):
        k = np.arange(0, 25, dtype=float)
        sums = partial_sums((-1.0) ** k / (2.0 * k + 1.0))
        est = wynn_epsilon(sums)
        assert est == pytest.approx(np.pi / 4.0, abs=1e-10)

    def test_incremental_matches_batch(self):
        x = 0.5
        sums = partial_sums(x ** np.arange(10))
        acc = EpsilonAccelerator()
        last = None
        for s in sums:
            last = acc.add(s)
        assert last == pytest.approx(wynn_epsilon(sums), abs=0.0)
        assert acc.n_terms == 10
        assert acc.estimate == last


class TestDegeneracy:
    def test_constant_sequence(self):
        # Identical partial sums (already converged): no division blowup.
        acc = EpsilonAccelerator()
        for _ in range(8):
            est = acc.add(4.25)
        assert est == 4.25

    def test_eventually_constant(self):
        sums = [1.0, 1.5, 1.75, 2.0, 2.0, 2.0, 2.0]
        acc = EpsilonAccelerator()
        for s in sums:
            est = acc.add(s)
        assert est == pytest.approx(2.0)
        assert np.isfinite(est)

    def test_zero_terms(self):
        acc = EpsilonAccelerator()
        assert acc.n_terms == 0
        assert acc.estimate == 0.0

    def test_single_term(self):
        acc = EpsilonAccelerator()
        assert acc.add(3.0) == 3.0


@settings(max_examples=40, deadline=None)
@given(ratio=st.floats(min_value=-0.9, max_value=0.9),
       scale=st.floats(min_value=0.1, max_value=100.0),
       n=st.integers(min_value=6, max_value=25))
def test_geometric_property(ratio, scale, n):
    """Property: epsilon recovers the limit of any geometric series to
    near machine precision, regardless of sign/scale."""
    if abs(ratio) < 1e-6:
        ratio = 0.5
    sums = partial_sums(scale * ratio ** np.arange(n))
    est = wynn_epsilon(sums)
    limit = scale / (1.0 - ratio)
    assert est == pytest.approx(limit, rel=1e-8, abs=1e-8)


# -- edge cases against the numpy-predicate accelerator ---------------------

class _NumpyPredicateAccelerator:
    """Frozen copy of ``EpsilonAccelerator.add`` as it was when its
    finiteness tests called ``np.isfinite`` on Python floats: the oracle
    the ``math.isfinite`` version must match bit for bit."""

    def __init__(self):
        self._diag = []
        self._degenerate = False

    def add(self, partial_sum):
        s = float(partial_sum)
        old = self._diag
        new = [s]
        for k in range(1, len(old) + 1):
            denom = new[k - 1] - old[k - 1]
            prev = old[k - 2] if k >= 2 else 0.0
            scale = abs(new[k - 1]) + abs(old[k - 1])
            if (not np.isfinite(denom)
                    or abs(denom) <= 5e-14 * scale + 1e-300):
                self._degenerate = True
                break
            nxt = prev + 1.0 / denom
            if not np.isfinite(nxt):
                self._degenerate = True
                break
            new.append(nxt)
        self._diag = new
        top = len(new) - 1
        if top % 2 == 1:
            top -= 1
        return new[top]


def struct_bits(value: float) -> bytes:
    """Exact bit pattern (distinguishes nan payloads, -0.0 and inf)."""
    return np.float64(value).tobytes()


GEOMETRIC = list(partial_sums(0.5 ** np.arange(30)))

EDGE_STREAMS = {
    "exact_geometric": GEOMETRIC,
    "inf_term": [1.0, 1.5, 1.75, np.inf, 1.9, 1.95, 1.975, 1.99],
    "nan_term": [1.0, 1.5, np.nan, 1.8, 1.9, 1.95, 1.975],
    "inf_first": [np.inf, 1.0, 0.5, 0.25, 0.125],
    "neg_inf_then_inf": [2.0, -np.inf, np.inf, 3.0, 3.5, 3.25, 3.375],
    "tiny_denominators": [0.0, 1e-300, 0.0, 1e-300, 0.0, 2.0, 1.0],
    "geometric_then_nan": GEOMETRIC[:12] + [np.nan] + GEOMETRIC[12:20],
}


@pytest.mark.parametrize("name", sorted(EDGE_STREAMS))
def test_edge_streams_match_numpy_predicate_oracle(name):
    acc = EpsilonAccelerator()
    oracle = _NumpyPredicateAccelerator()
    for term in EDGE_STREAMS[name]:
        got, want = acc.add(term), oracle.add(term)
        assert struct_bits(got) == struct_bits(want)
        assert acc._degenerate == oracle._degenerate
        assert [struct_bits(v) for v in acc._diag] \
            == [struct_bits(v) for v in oracle._diag]


def test_exact_geometric_stream_breaks_degenerate():
    # ε_2 is already exact on a geometric stream: the table must stop
    # deepening there instead of dividing by round-off.
    acc = EpsilonAccelerator()
    for term in GEOMETRIC:
        est = acc.add(term)
    assert acc._degenerate
    assert len(acc._diag) < len(GEOMETRIC)
    assert est == pytest.approx(2.0, rel=1e-15)
