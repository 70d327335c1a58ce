"""Poisson probability machinery (Fox–Glynn algorithm and tail bounds).

Randomization-based transient solvers weight DTMC step distributions with
Poisson probabilities ``e^{-Λt} (Λt)^n / n!``. For the large ``Λt`` regime
of dependability models (the paper's RAID examples reach ``Λt ≈ 4.4e6``)
naive evaluation under- and over-flows, so we implement the classic
Fox–Glynn scheme [Fox & Glynn, CACM 1988]:

* locate the mode ``m = floor(Λt)``,
* recur multiplicatively left and right from the mode with on-the-fly
  rescaling,
* find left/right truncation points ``L, R`` with
  ``sum_{n<L} + sum_{n>R} <= eps``,
* normalize the retained window.

Tail quantities needed by the truncation analysis of regenerative
randomization (survival function, right-tail quantile, expected excess
``E[(N-K)^+]``) are computed through the regularized incomplete gamma
function, which is numerically exact in the tiny-tail regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from repro.exceptions import TruncationError

__all__ = [
    "FoxGlynnWindow",
    "fox_glynn",
    "poisson_sf",
    "poisson_cdf",
    "poisson_right_quantile",
    "poisson_left_quantile",
    "poisson_expected_excess",
]

# Largest window we are ever willing to materialize. Λt beyond ~2e8 would
# need more memory than a workstation has; the RRL method exists precisely
# to avoid that regime for the original chain.
_MAX_WINDOW = 300_000_000


@dataclass(frozen=True)
class FoxGlynnWindow:
    """Truncated, normalized Poisson pmf window.

    Attributes
    ----------
    left:
        First retained step index ``L`` (inclusive).
    right:
        Last retained step index ``R`` (inclusive).
    weights:
        ``weights[j]`` is the (normalized) probability of ``L + j`` events.
    rate:
        The Poisson rate ``Λt`` the window was built for.
    mass_dropped:
        Upper bound on the probability mass outside ``[L, R]`` *before*
        normalization (the truncation error the caller asked for).
    """

    left: int
    right: int
    weights: np.ndarray
    rate: float
    mass_dropped: float

    @property
    def size(self) -> int:
        """Number of retained steps (``R - L + 1``)."""
        return self.right - self.left + 1

    def pmf(self, n: int) -> float:
        """Normalized weight of ``n`` events (0.0 outside the window)."""
        if n < self.left or n > self.right:
            return 0.0
        return float(self.weights[n - self.left])


def poisson_sf(n: np.ndarray | int, rate: float) -> np.ndarray | float:
    """Survival function ``P[N > n]`` for ``N ~ Poisson(rate)``.

    Uses ``P[N > n] = P(n+1, rate)`` (regularized *lower* incomplete gamma),
    which evaluates tiny right tails to full relative accuracy — essential
    for the ``eps = 1e-12`` budgets used throughout the paper.
    """
    n_arr = np.asarray(n, dtype=np.float64)
    out = special.gammainc(n_arr + 1.0, rate)
    if np.isscalar(n) or n_arr.ndim == 0:
        return float(out)
    return out


def poisson_cdf(n: np.ndarray | int, rate: float) -> np.ndarray | float:
    """Cumulative probability ``P[N <= n]`` via the upper incomplete gamma."""
    n_arr = np.asarray(n, dtype=np.float64)
    out = special.gammaincc(n_arr + 1.0, rate)
    if np.isscalar(n) or n_arr.ndim == 0:
        return float(out)
    return out


def poisson_right_quantile(rate: float, eps: float) -> int:
    """Smallest ``R`` with ``P[N > R] <= eps`` for ``N ~ Poisson(rate)``.

    This is exactly the number of steps (minus one) standard randomization
    must perform for a reward bounded by 1; the paper's Tables 1–2 "SR"
    columns are ``R + 1``-style counts derived from it.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if rate < 0.0:
        raise ValueError("rate must be non-negative")
    if rate == 0.0:
        return 0
    # Normal-approximation bracket, then bisect on the exact sf.
    sigma = np.sqrt(rate)
    lo = int(rate)
    hi = int(np.ceil(rate + (8.0 + 1.5 * np.sqrt(-np.log10(eps))) * sigma + 30.0))
    while poisson_sf(hi, rate) > eps:
        lo = hi
        hi *= 2
        if hi > _MAX_WINDOW:
            raise TruncationError(
                f"Poisson right quantile exceeds {_MAX_WINDOW} for rate={rate}, eps={eps}"
            )
    while lo < hi:
        mid = (lo + hi) // 2
        if poisson_sf(mid, rate) <= eps:
            hi = mid
        else:
            lo = mid + 1
    return lo


def poisson_left_quantile(rate: float, eps: float) -> int:
    """Largest ``L`` with ``P[N < L] <= eps`` (0 when no mass can be cut)."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if rate <= 0.0:
        return 0
    if poisson_cdf(0, rate) > eps:
        return 0
    lo, hi = 0, int(rate) + 1
    # Find largest L with cdf(L-1) <= eps  <=>  P[N < L] <= eps.
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if poisson_cdf(mid - 1, rate) <= eps:
            lo = mid
        else:
            hi = mid - 1
    return lo


def poisson_expected_excess(rate: float,
                            k: np.ndarray | int) -> np.ndarray | float:
    """``E[(N - k)^+]`` for ``N ~ Poisson(rate)``.

    Used by the regenerative-randomization truncation bound: the chance of
    ever taking ``K+1`` consecutive non-regenerative steps is bounded by
    ``a(K) * E[(N(t) - K)^+]`` (union bound over restart epochs).

    Identity: ``E[(N-k)^+] = rate * P[N >= k] - k * P[N >= k+1]``.
    ``k`` may be an int or an int array (elementwise, bit-for-bit the
    scalar result); a scalar ``k`` gives a float.
    """
    if np.ndim(k) == 0 and k < 0:
        return float(rate - k)
    k = np.asarray(k)
    # P[N > k-1] = P[N >= k], then P[N >= k+1].
    val = rate * poisson_sf(k - 1, rate) - k * poisson_sf(k, rate)
    # Guard against the tiny negative values cancellation can produce when
    # both tails underflow to ~0: max(val, 0.0), which keeps -0.0 and nan.
    if k.ndim == 0:
        return max(float(val), 0.0)
    val[val < 0.0] = 0.0
    negative = k < 0
    if negative.any():
        val[negative] = rate - k[negative]
    return val


def fox_glynn(rate: float, eps: float) -> FoxGlynnWindow:
    """Compute a normalized Poisson pmf window covering mass ``>= 1 - eps``.

    Parameters
    ----------
    rate:
        Poisson rate ``Λt`` (non-negative).
    eps:
        Total truncation budget; the mass outside ``[L, R]`` is ``<= eps``.

    Returns
    -------
    FoxGlynnWindow

    Notes
    -----
    The weights are computed from the mode outward with the pure
    multiplicative recursions ``p(n+1) = p(n) * rate/(n+1)`` and
    ``p(n-1) = p(n) * n/rate`` starting from an *unnormalized* mode weight
    of 1, then normalized by their sum. This never over/underflows inside
    the retained window because the retained weights are all within a
    factor ``~1/eps`` of the mode.
    """
    if eps <= 0.0 or eps >= 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if rate < 0.0:
        raise ValueError("rate must be non-negative")
    if rate == 0.0:
        return FoxGlynnWindow(left=0, right=0,
                              weights=np.array([1.0]), rate=0.0,
                              mass_dropped=0.0)

    left = poisson_left_quantile(rate, eps / 2.0)
    right = poisson_right_quantile(rate, eps / 2.0)
    if right - left + 1 > _MAX_WINDOW:
        raise TruncationError(
            f"Fox-Glynn window of size {right - left + 1} exceeds limit")

    mode = int(rate)
    mode = min(max(mode, left), right)
    size = right - left + 1
    w = np.empty(size, dtype=np.float64)
    w[mode - left] = 1.0
    # Right of the mode: p(n+1) = p(n) * rate / (n+1)
    if mode < right:
        n = np.arange(mode + 1, right + 1, dtype=np.float64)
        w[mode - left + 1:] = np.cumprod(rate / n)
    # Left of the mode: p(n-1) = p(n) * n / rate
    if mode > left:
        n = np.arange(mode, left, -1, dtype=np.float64)
        w[mode - left - 1::-1] = np.cumprod(n / rate)
    total = w.sum()
    w /= total
    return FoxGlynnWindow(left=left, right=right, weights=w, rate=rate,
                          mass_dropped=eps)
