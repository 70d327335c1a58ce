"""Stationary distribution solvers for irreducible chains.

Two algorithms:

* **GTH elimination** (Grassmann–Taksar–Heyman) — subtraction-free Gaussian
  elimination on the generator; numerically exact to relative precision and
  the reference method, but dense ``O(n^3)``, so reserved for chains up to a
  size threshold.
* **Sparse pinned solve** — pin one component of ``π`` and solve the
  remaining balance equations ``Qᵀ[keep, keep] x = b``, a sparse
  nonsingular system, with ILU-preconditioned GMRES. An answer that the
  residual certificate rejects, or a factorization or iteration that
  fails, escalates to SuperLU on the same system. This is what the RSD
  baseline uses on the RAID chains (5,521 and 20,641 states at paper
  scale).

Both accept a :class:`~repro.markov.ctmc.CTMC` or a
:class:`~repro.markov.dtmc.DTMC` (for a DTMC, ``Q = P - I``; for a
uniformized chain the two stationary vectors coincide).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, gmres, spilu, spsolve

from repro.exceptions import ModelError
from repro.markov.ctmc import CTMC
from repro.markov.dtmc import DTMC

__all__ = ["stationary_distribution", "gth_solve"]

_GTH_MAX_STATES = 1200

#: ILU preconditioner of the pinned system. The fill cap (``fill_factor``
#: times the system's non-zeros) bounds its cost and memory; the small
#: drop tolerance keeps weak couplings, so that on a nearly decomposable
#: chain (inter-block rates 1e-6 of intra-block ones, or less) the factor
#: still links the blocks and GMRES converges. Minimum degree on the
#: structure of ``Aᵀ + A`` fills less than COLAMD under that cap.
_ILU_DROP_TOL = 1e-8
_ILU_FILL_FACTOR = 5
_ILU_ORDERING = "MMD_AT_PLUS_A"
#: GMRES stops at this relative residual, which the pinned systems reach
#: in 2–20 iterations. A tolerance below the round-off level where their
#: residual levels off is never met and runs to ``maxiter``; a stall is
#: cut off after ``_GMRES_MAX_CYCLES`` restart cycles of
#: ``_GMRES_RESTART`` iterations and escalates to SuperLU.
_GMRES_RTOL = 1e-12
_GMRES_RESTART = 30
_GMRES_MAX_CYCLES = 4
#: Residual certificate: an accepted ``π`` has ``max|πQ| <= tol·max|Q|``.
#: Both solvers reach at most 2e-16 on the chains in the tests and on
#: the paper's RAID chains, so the bound sits just above round-off.
_RESIDUAL_TOL = 1e-13


def gth_solve(generator: np.ndarray) -> np.ndarray:
    """GTH elimination on a dense generator matrix.

    Parameters
    ----------
    generator:
        Dense ``(n, n)`` generator of an irreducible CTMC (or ``P - I`` of
        an irreducible DTMC). The diagonal is ignored — GTH only ever uses
        off-diagonal rates, which is where its subtraction-free stability
        comes from.

    Returns
    -------
    numpy.ndarray
        Stationary probability vector.
    """
    a = np.array(generator, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ModelError("generator must be square")
    np.fill_diagonal(a, 0.0)
    if np.any(a < 0.0):
        raise ModelError("negative off-diagonal rate")
    # Forward elimination: censor state k out of the chain on {0..k}. After
    # the loop, column k above the diagonal holds the censored rates j -> k
    # of the chain restricted to {0..k}, and s_vals[k] the exit rate of k in
    # that censored chain.
    s_vals = np.zeros(n)
    for k in range(n - 1, 0, -1):
        total = a[k, :k].sum()
        if total <= 0.0:
            raise ModelError(
                f"state {k} cannot reach lower-numbered states; "
                "chain not irreducible (or needs reordering)")
        s_vals[k] = total
        a[k, :k] /= total
        # Rank-1 update with only additions/multiplications of positives.
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    # Back substitution: flow balance of state k in the censored chain,
    # π_k s_k = Σ_{j<k} π_j ã_{jk}.
    x = np.zeros(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = (x[:k] @ a[:k, k]) / s_vals[k]
    total = x.sum()
    return x / total


def _bulk_state(q: sparse.csr_matrix) -> int:
    """Cheap guess of a high-probability state: a few uniformized power
    steps from the uniform vector (finds the bulk of the stationary
    mass, which is where the pinned component must sit to avoid
    overflow in the fixed-component solve)."""
    n = q.shape[0]
    out_rates = -q.diagonal()
    lam = float(out_rates.max())
    if lam <= 0.0:
        return 0
    pt = (q.T.multiply(1.0 / lam)).tocsr()
    pi = np.full(n, 1.0 / n)
    for _ in range(64):
        pi = pi + pt @ pi
        pi /= pi.sum()
    return int(np.argmax(pi))


def _ilu_gmres(a: sparse.csc_matrix, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` by GMRES, preconditioned with an incomplete LU
    factor of ``a``; raises :class:`ModelError` when the factorization
    or the iteration fails."""
    try:
        ilu = spilu(a, drop_tol=_ILU_DROP_TOL, fill_factor=_ILU_FILL_FACTOR,
                    permc_spec=_ILU_ORDERING)
    except RuntimeError as exc:
        raise ModelError(f"incomplete LU failed: {exc}") from exc
    x, info = gmres(a, b, M=LinearOperator(a.shape, ilu.solve),
                    rtol=_GMRES_RTOL, atol=0.0, restart=_GMRES_RESTART,
                    maxiter=_GMRES_MAX_CYCLES)
    if info != 0:
        raise ModelError(f"GMRES did not converge (info={info})")
    return x


def _superlu(a: sparse.csc_matrix, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` with a full SuperLU factorization. COLAMD (the
    default ordering) suits the pinned system; MMD_AT_PLUS_A took about
    six times as long on the G=40 RAID chain."""
    return np.asarray(spsolve(a, b)).ravel()


def _certified(x: np.ndarray, j: int, q: sparse.csr_matrix,
               scale: float) -> np.ndarray:
    """``π`` from the pinned solution ``x`` (``π_j = 1``), clipped at 0
    and normalized; raises :class:`ModelError` unless it passes the
    residual certificate."""
    if np.any(~np.isfinite(x)):
        raise ModelError(f"fixed-component solve at state {j} produced "
                         "non-finite entries")
    pi = np.insert(x, j, 1.0)
    pi = np.clip(pi, 0.0, None)
    s = pi.sum()
    if not np.isfinite(s) or s <= 0.0:
        raise ModelError("stationary solve produced a zero or non-finite "
                         "vector")
    pi /= s
    resid = float(np.abs(pi @ q).max())
    if resid > _RESIDUAL_TOL * scale:
        raise ModelError(f"stationary residual {resid} too large")
    return pi


def _sparse_stationary(q: sparse.csr_matrix) -> np.ndarray:
    """Solve ``π Q = 0`` by pinning one component and renormalizing.

    Setting ``π_j = 1`` for a bulk state ``j`` and dropping that state's
    balance equation leaves a sparse nonsingular system (a dense
    normalization row would make it expensive to factorize). Pinning a
    *bulk* state keeps the remaining components ``<= O(1/π_j)``,
    avoiding overflow on strongly skewed chains.

    Each pin is solved by ILU-preconditioned GMRES first. On the G=40
    RAID chain (20,641 states) that takes 2 iterations and about 0.8 s,
    where a full SuperLU factorization takes about 5 s and sets the peak
    memory of an RSD run. If the incomplete factorization or GMRES
    fails, or the answer fails the residual certificate, the same pin
    escalates to SuperLU; either way an accepted ``π`` has its residual
    at round-off. If a pin still misfires numerically, states 0 and
    ``n-1`` are tried as fallbacks.
    """
    n = q.shape[0]
    qt = q.T.tocsc()
    scale = float(np.abs(q.data).max()) if q.nnz else 1.0
    candidates = [_bulk_state(q), 0, n - 1]
    last_error: Exception | None = None
    for j in dict.fromkeys(candidates):
        keep = np.arange(n) != j
        a = qt[keep][:, keep].tocsc()
        b = -np.asarray(qt[keep][:, [j]].todense()).ravel()
        for solve in (_ilu_gmres, _superlu):
            try:
                with np.errstate(all="ignore"):
                    x = solve(a, b)
                return _certified(x, j, q, scale)
            except ModelError as exc:
                last_error = exc
    raise ModelError(
        "sparse stationary solve failed (chain not irreducible, or "
        f"numerically degenerate): {last_error}")


def stationary_distribution(chain: CTMC | DTMC, *,
                            method: str = "auto") -> np.ndarray:
    """Stationary distribution of an irreducible CTMC or DTMC.

    Parameters
    ----------
    chain:
        The chain. A DTMC is converted through ``Q = P - I``.
    method:
        ``"gth"`` (dense, exact), ``"sparse"`` (pinned solve: ILU plus
        GMRES, escalating to SuperLU), or ``"auto"``
        (GTH below ``1200`` states, sparse above).
    """
    if isinstance(chain, CTMC):
        q = chain.generator
    elif isinstance(chain, DTMC):
        n = chain.n_states
        q = (chain.transition_matrix - sparse.eye(n, format="csr")).tocsr()
    else:
        raise TypeError("chain must be a CTMC or DTMC")
    n = q.shape[0]
    if method == "auto":
        method = "gth" if n <= _GTH_MAX_STATES else "sparse"
    if method == "gth":
        return gth_solve(q.toarray())
    if method == "sparse":
        return _sparse_stationary(q)
    raise ValueError(f"unknown method {method!r}")
