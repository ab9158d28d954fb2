"""Co-location probability (Section V-A, Eq. 8–9, Algorithm 1).

The co-location probability of two objects at time ``t`` is the probability
that both are in the same grid cell at ``t``:

    CP(t | Tra₁, Tra₂) = Σ_{r ∈ R} STP(r, t, Tra₁) · STP(r, t, Tra₂)

i.e. the inner product of the two (normalized) spatial-temporal probability
vectors.  Algorithm 1 of the paper distinguishes three cases — ``t``
observed in both trajectories, in one, or implicitly in neither — but all
three reduce to "normalize both STP distributions and take their inner
product", which is exactly what :class:`TrajectorySTP` already hands us.

:func:`colocation_batch` is the vectorized entry point: it resolves both
objects' distributions for *all* query times in one
:meth:`~repro.core.stprob.TrajectorySTP.stp_batch` call each (amortizing
per-segment kernel and FFT work) and then takes the sparse inner products
with a sorted-merge — no per-time ``np.intersect1d`` sort.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from .stprob import SparseDistribution, TrajectorySTP

__all__ = [
    "sparse_inner",
    "colocation_probability",
    "colocation_batch",
]


def sparse_inner(a: SparseDistribution, b: SparseDistribution) -> float:
    """Inner product of two sparse cell distributions.

    Both inputs are ``(cells, probs)`` pairs with sorted cell indices; the
    product is summed over the intersection of the supports, found by
    binary-searching the smaller support into the larger one (cheaper than
    ``np.intersect1d``, which re-sorts the concatenation).  An empty
    distribution (object outside its observed time span) yields 0.
    """
    cells_a, probs_a = a
    cells_b, probs_b = b
    if cells_a.size == 0 or cells_b.size == 0:
        return 0.0
    if cells_b.size > cells_a.size:
        cells_a, probs_a, cells_b, probs_b = cells_b, probs_b, cells_a, probs_a
    pos = np.searchsorted(cells_a, cells_b)
    pos[pos == cells_a.size] = 0  # out-of-range probes can never match
    mask = cells_a[pos] == cells_b
    if not mask.any():
        return 0.0
    return float(np.dot(probs_a[pos[mask]], probs_b[mask]))


def colocation_probability(stp_a: TrajectorySTP, stp_b: TrajectorySTP, t: float) -> float:
    """Eq. 9: co-location probability of two trajectories at time ``t``.

    The value lies in ``[0, 1]``: both STP vectors are probability
    distributions over the same grid, so their inner product is at most 1
    (reached only when both are the same point mass).
    """
    return sparse_inner(stp_a.stp(t), stp_b.stp(t))


def colocation_batch(
    stp_a: TrajectorySTP, stp_b: TrajectorySTP, times: np.ndarray
) -> np.ndarray:
    """Eq. 9 at each of ``times``, resolved through the batched STP path.

    Equivalent to ``[colocation_probability(stp_a, stp_b, t) for t in
    times]`` but each object's distributions are computed with one
    :meth:`~repro.core.stprob.TrajectorySTP.stp_batch` call, grouping query
    times by bracketing segment.
    """
    times_arr = np.asarray(times, dtype=float).ravel()
    if times_arr.size == 0:
        return np.empty(0)
    t0 = perf_counter()
    dists_a = stp_a.stp_batch(times_arr)
    dists_b = stp_b.stp_batch(times_arr)
    t1 = perf_counter()
    result = np.array([sparse_inner(a, b) for a, b in zip(dists_a, dists_b)])
    # Stage handles are prebound on the estimator (see TrajectorySTP._init_obs).
    stp_a._t_coloc_resolve.inc(t1 - t0)
    stp_a._t_coloc_inner.inc(perf_counter() - t1)
    return result
