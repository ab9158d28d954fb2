"""Spatial-temporal probability estimation (Section IV, Eq. 4–5).

Given a trajectory, its noise model and its transition model,
:class:`TrajectorySTP` answers: *where was this object at time t, as a
probability distribution over grid cells?*  Following Eq. 5:

* at an observation time, the answer is the (normalized) location-noise
  distribution of that observation;
* strictly between two observations, it is the Markov-bridge interpolation
  of Eq. 4 — forward transition weights from the earlier observation times
  backward weights into the later one, renormalized;
* outside the trajectory's time span, it is zero everywhere.

Four evaluation modes:

* ``"dense"`` — Eq. 4 over every grid cell pair, exactly as written
  (``O(|R|²)`` per query); the reference implementation.
* ``"pruned"`` — restricts the computation to cells both reachable from
  the earlier observation and able to reach the later one within the
  object's plausible speed range (plus the noise supports); the discarded
  cells carry negligible probability.
* ``"fft"`` — for *isotropic* transition models (STS proper: the weight
  depends only on distance), the forward and backward sums of Eq. 4 are
  2-D convolutions of the noise distribution with a radial kernel over the
  grid lattice, evaluated with FFT convolution.  Exact at lattice level
  (agrees with ``"dense"`` to FFT round-off; outputs at the transform's
  round-off floor read as zero, so a bridge that underflows in ``"dense"``
  takes the same fallback here) and much faster on large grids.
* ``"auto"`` (default) — ``"fft"`` when the transition model is isotropic,
  else ``"pruned"``.

The test suite verifies all modes agree to tight tolerance.

Batched evaluation
------------------
:meth:`TrajectorySTP.stp_batch` evaluates many query times in one call.
Queries are grouped by the pair of observations bracketing them, and each
group is evaluated in a single vectorized pass:

* FFT mode evaluates each segment on a *local window*: the product of
  Eq. 4 vanishes outside the intersection of the two observations' noise
  bounding boxes, each grown by the segment's full-gap kernel span.  Each
  observation's bounding-box plane is transformed once per transform
  shape, the kernels of both sides of the whole batch share one stacked
  ``rfft2``/``irfft2`` round-trip, and normalize/sparsify run over the
  whole ``(batch, window)`` array at once;
* pruned/dense mode builds the candidate set union and both distance
  matrices once per segment and slices them per query.

``stp(t)`` is ``stp_batch([t])``, and a time's result is the same
whatever other times share its batch: every shape a query meets is fixed
by its segment and its own ``t``.  Kernels, noise planes, their
transforms and segment windows are memoized in bounded LRU caches (see
``cache_size``), so long-lived estimators serving many queries stay fast
without growing memory unboundedly.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from time import perf_counter

import numpy as np
from scipy import fft as _fft

from ..errors import DegenerateTrajectoryError
from ..obs import get_registry
from .cache import LRUCache, cache_samples
from .grid import Grid
from .noise import NoiseModel
from .transition import TransitionModel
from .trajectory import Trajectory

__all__ = ["TrajectorySTP", "SparseDistribution"]

# A sparse distribution over grid cells: sorted cell indices and their
# probabilities (summing to 1), or a pair of empty arrays meaning
# "zero everywhere" (Eq. 5 case 3).
SparseDistribution = tuple[np.ndarray, np.ndarray]

_EMPTY: SparseDistribution = (np.empty(0, dtype=int), np.empty(0))

#: Normalized probabilities below this are dropped from sparse results.
_SPARSE_EPS = 1e-15

#: FFT-convolution outputs at or below this fraction of the kernel's peak
#: are round-off, not probability, and read as zero (see
#: ``TrajectorySTP._windowed_planes``).
_FFT_FLOOR = 1e-13


def _dt_key(dt: float) -> float:
    """Cache key for a time gap: quantized to kill float jitter.

    1e-12 s is far below any meaningful timestamp resolution, so distinct
    physical gaps never collide, while gaps that differ only by float
    round-off (``t - t_lo`` computed along different code paths) share one
    kernel.
    """
    return round(dt, 12)


class TrajectorySTP:
    """Spatial-temporal probability of one object given its trajectory.

    Parameters
    ----------
    trajectory:
        The object's observations.  Must be non-empty.
    grid:
        Spatial partition ``R``.
    noise_model:
        Location-noise distribution ``f`` of the sensing system.
    transition_model:
        Transition scorer; for STS proper this is a
        :class:`~repro.core.transition.SpeedTransitionModel` built from the
        trajectory's *own* speed samples (personalized).
    mode:
        ``"auto"`` (default), ``"fft"``, ``"pruned"`` or ``"dense"`` — see
        the module docstring.
    cache_size:
        Capacity of the per-query result cache; the kernel, noise-plane and
        FFT caches are sized proportionally.  ``None`` means unbounded,
        ``0`` disables all memoization (every query recomputes from
        scratch — useful for benchmarking the cold path).
    registry:
        Metrics registry receiving stage timings, plane-FFT reuse and
        fallback counters and (at snapshot time) cache statistics.
        Defaults to the process-wide registry; a no-op registry when
        ``REPRO_OBS=off``.
    cache_collector:
        When ``True`` (default) the estimator registers its own
        snapshot-time cache collector.  An owning :class:`~.sts.STS`
        passes ``False`` and sums cache counters across its whole
        estimator pool in one collector instead, keeping registry
        snapshots O(caches) rather than O(estimators × caches).
    """

    _MODES = ("auto", "fft", "pruned", "dense")

    def __init__(
        self,
        trajectory: Trajectory,
        grid: Grid,
        noise_model: NoiseModel,
        transition_model: TransitionModel,
        mode: str = "auto",
        cache_size: int | None = 4096,
        registry=None,
        cache_collector: bool = True,
    ):
        if len(trajectory) == 0:
            raise DegenerateTrajectoryError(
                "cannot estimate S-T probability for an empty trajectory"
            )
        if mode not in self._MODES:
            raise ValueError(f"mode must be one of {self._MODES}, got {mode!r}")
        if mode == "fft" and not transition_model.isotropic:
            raise ValueError(
                "mode='fft' requires an isotropic transition model; "
                f"{type(transition_model).__name__} is not"
            )
        self.trajectory = trajectory
        self.grid = grid
        self.noise_model = noise_model
        self.transition_model = transition_model
        self.mode = mode
        if mode == "auto":
            self._resolved_mode = "fft" if transition_model.isotropic else "pruned"
        else:
            self._resolved_mode = mode
        # An owning STS passes cache_collector=False and publishes one
        # aggregated cache collector for its whole estimator pool; a
        # standalone estimator keeps its own (the plain-int attribute
        # survives pickling, so rebinds honour the choice).
        self._cache_collector = bool(cache_collector)
        self._init_obs(registry)
        # Per-observation noise distributions, precomputed once: these are
        # the f(·, ℓ_i) terms every Eq. 4 evaluation reuses.
        t0 = perf_counter()
        self._observed: list[SparseDistribution] = [
            noise_model.cell_distribution(grid, p.x, p.y) for p in trajectory
        ]
        self._t_noise.inc(perf_counter() - t0)
        self.cache_size = cache_size
        scaled = (lambda frac, floor: None) if cache_size is None else (
            lambda frac, floor: 0 if cache_size == 0 else max(floor, cache_size // frac)
        )
        self._cache = LRUCache(cache_size)  # query time -> SparseDistribution
        self._kernel_cache = LRUCache(scaled(8, 64))  # dt -> kernel
        self._plane_cache = LRUCache(scaled(16, 16))  # obs index -> bounding-box plane
        self._plane_fft_cache = LRUCache(scaled(16, 16))  # (idx, shape) -> rfft2
        self._segment_cache = LRUCache(scaled(16, 16))  # fft windows, dense distances

    # ------------------------------------------------------------------
    def _init_obs(self, registry=None) -> None:
        """Bind metric handles once; hot paths then pay one dict-add each.

        ``bridge-interp`` is the inclusive wall time of segment
        interpolation (Eq. 4); ``kernel-fft`` and ``normalize`` are
        components within it on the FFT path.
        """
        reg = registry if registry is not None else get_registry()
        self._registry = reg
        stage = reg.counter(
            "repro_stage_seconds_total", "Wall seconds spent per pipeline stage"
        )
        self._t_noise = stage.child(component="stp", stage="noise-eval")
        self._t_bridge = stage.child(component="stp", stage="bridge-interp")
        self._t_kernel = stage.child(component="stp", stage="kernel-fft")
        self._t_norm = stage.child(component="stp", stage="normalize")
        # Bound here so colocation_batch pays no per-call instrument lookup.
        self._t_coloc_resolve = stage.child(component="colocation", stage="stp-resolve")
        self._t_coloc_inner = stage.child(component="colocation", stage="inner-product")
        self._m_plane_transforms = reg.counter(
            "repro_fft_plane_transforms_total", "Noise-plane forward FFTs computed"
        ).child()
        self._m_canvas_reuse = reg.counter(
            "repro_fft_canvas_reuse_total",
            "Noise-plane FFTs served from the plane-transform cache",
        ).child()
        self._m_fallback = reg.counter(
            "repro_stp_fallback_total",
            "Eq. 4 bridges that underflowed to the linear-interpolation fallback",
        ).child(mode=self._resolved_mode)
        if getattr(self, "_cache_collector", True):
            reg.register_collector(self._collect_cache_samples)

    def _named_caches(self) -> tuple[tuple[str, LRUCache], ...]:
        return (
            ("stp-results", self._cache),
            ("stp-kernels", self._kernel_cache),
            ("stp-planes", self._plane_cache),
            ("stp-plane-ffts", self._plane_fft_cache),
            ("stp-segments", self._segment_cache),
        )

    def _collect_cache_samples(self):
        """Snapshot-time cache samples; summed across live estimators."""
        return cache_samples(self._named_caches())

    def stp(self, t: float) -> SparseDistribution:
        """Eq. 5: sparse distribution ``STP(·, t, Tra)`` over grid cells.

        Returns ``(cells, probs)`` with ``probs`` summing to 1, or two empty
        arrays when ``t`` lies outside the trajectory's time span.
        """
        return self.stp_batch((t,))[0]

    def stp_batch(self, times) -> list[SparseDistribution]:
        """Eq. 5 at many query times in one vectorized pass.

        ``times`` is any 1-D sequence of timestamps (duplicates allowed).
        Returns one :data:`SparseDistribution` per input time, in input
        order.  Queries that share a bracketing segment are evaluated
        together, in one pass per segment (see module docstring), and each
        result is the same as that time evaluated alone.  One
        ``searchsorted`` sorts every time into outside-span, observed or
        bridged; only bridged times consult the result cache.
        """
        times_arr = np.asarray(times, dtype=float).ravel()
        results: list[SparseDistribution] = [_EMPTY] * len(times_arr)
        if not times_arr.size:
            return results
        stamps = self.trajectory.timestamps
        pos = np.searchsorted(stamps, times_arr)
        inside = (times_arr >= stamps[0]) & (times_arr <= stamps[-1])
        observed = inside & (stamps[np.minimum(pos, len(stamps) - 1)] == times_arr)
        obs_at = np.flatnonzero(observed)
        for i, k in zip(obs_at.tolist(), pos[obs_at].tolist()):
            results[i] = self._observed[k]
        cache = self._cache
        missing = []
        bridged = np.flatnonzero(inside & ~observed)
        for i, t in zip(bridged.tolist(), times_arr[bridged].tolist()):
            cached = cache.get(t)
            if cached is None:
                missing.append(i)
            else:
                results[i] = cached
        if not missing:
            return results
        miss = np.array(missing)
        miss = miss[np.lexsort((times_arr[miss], pos[miss]))]
        ts = times_arr[miss]
        his = pos[miss]
        # Sorted, so each distinct time starts a run; runs group by segment.
        first = np.ones(len(ts), dtype=bool)
        first[1:] = ts[1:] != ts[:-1]
        uniq, uniq_his = ts[first], his[first]
        bounds = [0, *(np.flatnonzero(np.diff(uniq_his)) + 1).tolist(), len(uniq)]
        computed: list[SparseDistribution] = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            hi = int(uniq_his[a])
            computed.extend(self._segment_batch(hi - 1, hi, uniq[a:b]))
        for t, result in zip(uniq.tolist(), computed):
            cache.put(t, result)
        for i, j in zip(miss.tolist(), (np.cumsum(first) - 1).tolist()):
            results[i] = computed[j]
        return results

    def stp_dense(self, t: float) -> np.ndarray:
        """Eq. 5 as a dense ``|R|``-vector (zeros outside the span)."""
        cells, probs = self.stp(t)
        dense = np.zeros(self.grid.n_cells)
        dense[cells] = probs
        return dense

    def credible_cells(self, t: float, mass: float = 0.9) -> np.ndarray:
        """Smallest set of cells holding at least ``mass`` probability at ``t``.

        The highest-probability cells are accumulated until the requested
        mass is covered — the discrete credible region of the object's
        position, useful for geofencing ("was the object plausibly inside
        this area at time t?") and for visualizing uncertainty.  Returns
        sorted cell indices; empty when ``t`` is outside the time span.
        """
        if not 0.0 < mass <= 1.0:
            raise ValueError(f"mass must be in (0, 1], got {mass}")
        cells, probs = self.stp(t)
        if cells.size == 0:
            return cells
        order = np.argsort(-probs, kind="stable")
        covered = np.cumsum(probs[order])
        # number of cells needed to reach the mass (at least one)
        needed = int(np.searchsorted(covered, mass - 1e-12)) + 1
        return np.sort(cells[order[:needed]])

    def cache_stats(self) -> dict[str, dict[str, int | None]]:
        """Per-cache ``{size, max, hits, misses, evictions}`` stats.

        Observability hook for long-lived estimators on the serving path:
        a memory-ceiling trip (``Budget.max_rss_mb``) says *that* the
        process grew, these counters say *where*.  The same numbers feed
        the registry's ``repro_cache_*`` metrics at snapshot time.  Pair
        with :meth:`clear_cache` to release the memoized state.
        """
        return {
            "results": self._cache.stats(),
            "kernels": self._kernel_cache.stats(),
            "planes": self._plane_cache.stats(),
            "plane_ffts": self._plane_fft_cache.stats(),
            "segments": self._segment_cache.stats(),
        }

    def clear_cache(self) -> None:
        """Drop memoized query results (the noise distributions stay)."""
        self._cache.clear()
        self._kernel_cache.clear()
        self._plane_cache.clear()
        self._plane_fft_cache.clear()
        self._segment_cache.clear()

    # ------------------------------------------------------------------
    def _segment_batch(self, lo: int, hi: int, ts: np.ndarray) -> list[SparseDistribution]:
        """All interpolation queries of one segment, in one pass."""
        t0 = perf_counter()
        try:
            if self._resolved_mode == "fft":
                return self._interpolate_fft_batch(lo, hi, ts)
            return self._interpolate_pairwise_batch(lo, hi, ts)
        finally:
            self._t_bridge.inc(perf_counter() - t0)

    # ------------------------------------------------------------------
    # Pairwise evaluation (pruned / dense)
    # ------------------------------------------------------------------
    def _interpolate_pairwise_batch(
        self, lo: int, hi: int, ts: np.ndarray
    ) -> list[SparseDistribution]:
        """Eq. 4 by explicit summation over candidate cells.

        The candidate union and (for isotropic models) both distance
        matrices are built once for the whole segment; each query then only
        evaluates the transition kernel on its slice.
        """
        traj = self.trajectory
        p_lo, p_hi = traj[lo], traj[hi]
        dts1 = ts - p_lo.t
        dts2 = p_hi.t - ts
        candidate_sets = [
            self._candidate_cells(p_lo, p_hi, float(d1), float(d2))
            for d1, d2 in zip(dts1, dts2)
        ]
        if len(candidate_sets) == 1:
            union = candidate_sets[0]
        else:
            union = np.unique(np.concatenate(candidate_sets))
        centers = self.grid.centers()
        centers_union = centers[union]
        cells_lo, probs_lo = self._observed[lo]
        cells_hi, probs_hi = self._observed[hi]
        src_lo = centers[cells_lo]
        src_hi = centers[cells_hi]
        model = self.transition_model
        isotropic = model.isotropic
        if isotropic:
            dist_lo, dist_hi = self._segment_distances(
                lo, src_lo, src_hi, union, centers_union
            )
        results: list[SparseDistribution] = []
        for i, candidates in enumerate(candidate_sets):
            dt1, dt2 = float(dts1[i]), float(dts2[i])
            full = candidates.size == union.size
            # forward(r)  = Σ_j f(r_j, ℓ_i)     · P(r, t | r_j, t_i)
            # backward(r) = Σ_k f(r_k, ℓ_{i+1}) · P(r_k, t_{i+1} | r, t)
            if isotropic:
                sel = slice(None) if full else np.searchsorted(union, candidates)
                forward = probs_lo @ model.distance_weights(dist_lo[:, sel], dt1)
                backward = model.distance_weights(dist_hi[sel, :], dt2) @ probs_hi
            else:
                dst = centers_union if full else centers[candidates]
                forward = probs_lo @ model.weights(src_lo, dst, dt1)
                backward = model.weights(dst, src_hi, dt2) @ probs_hi
            unnorm = forward * backward
            total = float(unnorm.sum())
            if total <= 0.0 or not np.isfinite(total):
                results.append(self._fallback(float(ts[i]), p_lo, p_hi))
            else:
                results.append(self._sparsify(candidates, unnorm / total))
        return results

    def _segment_distances(
        self,
        lo: int,
        src_lo: np.ndarray,
        src_hi: np.ndarray,
        union: np.ndarray,
        centers_union: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distance matrices from both noise supports to the candidate union.

        In dense mode the union is always the full grid, so the matrices
        are memoized per segment; pruned unions vary per batch and are
        rebuilt (still once per segment *per call*, not per query).
        """

        def build() -> tuple[np.ndarray, np.ndarray]:
            diff_lo = src_lo[:, None, :] - centers_union[None, :, :]
            dist_lo = np.hypot(diff_lo[..., 0], diff_lo[..., 1])
            diff_hi = centers_union[:, None, :] - src_hi[None, :, :]
            dist_hi = np.hypot(diff_hi[..., 0], diff_hi[..., 1])
            return dist_lo, dist_hi

        if self._resolved_mode == "dense":
            return self._segment_cache.get_or_compute(("dense-dist", lo), build)
        return build()

    def _candidate_cells(self, p_lo, p_hi, dt1: float, dt2: float) -> np.ndarray:
        """Cells where Eq. 4 can be non-negligible (pruned mode).

        Cells reachable from the earlier observation within ``dt1`` *and*
        able to reach the later one within ``dt2`` (each radius widened by
        the noise support).  Falls back to the union, then to the merged
        noise supports, so the candidate set is never empty.
        """
        if self._resolved_mode == "dense":
            return np.arange(self.grid.n_cells)
        pad = self.noise_model.support_radius(self.grid) + self.grid.cell_size
        r1 = self.transition_model.reachable_radius(dt1) + pad
        r2 = self.transition_model.reachable_radius(dt2) + pad
        if not (np.isfinite(r1) and np.isfinite(r2)):
            return np.arange(self.grid.n_cells)
        from_lo = self.grid.cells_within(p_lo.x, p_lo.y, r1)
        from_hi = self.grid.cells_within(p_hi.x, p_hi.y, r2)
        both = np.intersect1d(from_lo, from_hi, assume_unique=True)
        if both.size:
            return both
        either = np.union1d(from_lo, from_hi)
        if either.size:
            return either
        supports = [cells for cells, _ in self._observed]
        return np.unique(np.concatenate(supports))

    # ------------------------------------------------------------------
    # FFT-convolution evaluation (isotropic transition models)
    # ------------------------------------------------------------------
    def _interpolate_fft_batch(
        self, lo: int, hi: int, ts: np.ndarray
    ) -> list[SparseDistribution]:
        """Eq. 4 via 2-D convolution, evaluated on the segment's window.

        With an isotropic transition model, ``forward = f_lo ⊛ K_{dt1}``
        and ``backward = f_hi ⊛ K_{dt2}`` where ``K_dt`` is the radial
        kernel of transition weights between cell offsets.  Their product
        is zero outside the segment window (see :meth:`_segment_window`),
        so both convolutions are evaluated only there, and the
        normalization, ``1e-15`` sparsification and cell lookup run over
        the whole ``(batch, window)`` array at once.  Every shape involved
        is fixed by the segment, and each row's reductions see only that
        row, so a query's result does not depend on which other times
        share the batch.
        """
        traj = self.trajectory
        p_lo, p_hi = traj[lo], traj[hi]
        window = self._segment_window(lo)
        if window is None:  # disjoint supports: every product is zero
            return [self._fallback(float(t), p_lo, p_hi) for t in ts]
        t0 = perf_counter()
        forward, backward = self._windowed_planes(lo, ts - p_lo.t, p_hi.t - ts, window)
        t1 = perf_counter()
        self._t_kernel.inc(t1 - t0)
        unnorm = (forward * backward).reshape(len(ts), -1)
        totals = unnorm.sum(axis=1)
        ok = (totals > 0.0) & np.isfinite(totals)
        probs = unnorm / np.where(ok, totals, 1.0)[:, None]
        keep = probs > _SPARSE_EPS
        keep[~ok] = False
        kept = np.where(keep, probs, 0.0).sum(axis=1)
        ok &= kept > 0.0
        probs /= np.where(ok, kept, 1.0)[:, None]
        cells = window[-1]
        rows, cols = np.nonzero(keep)
        kept_cells = cells[cols]
        kept_probs = probs[rows, cols]
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        results: list[SparseDistribution] = []
        start = 0
        for i, end in enumerate(ends):
            if ok[i]:
                results.append((kept_cells[start:end], kept_probs[start:end]))
            else:
                results.append(self._fallback(float(ts[i]), p_lo, p_hi))
            start = end
        self._t_norm.inc(perf_counter() - t1)
        return results

    def _segment_window(self, lo: int):
        """Where segment ``(lo, lo + 1)``'s Eq. 4 product can be non-zero.

        Every query of the segment has ``dt ≤`` the segment's gap, so its
        kernel fits within the gap kernel's half-extents ``(h_r, h_c)``;
        ``forward`` then vanishes outside the earlier observation's noise
        bounding box grown by ``h``, ``backward`` outside the later one's,
        and the product outside their intersection (clipped to the grid).

        Each side's plane is the observation's bounding box ``[b0, b1)``
        (per axis); its full linear convolution with a ``2h + 1`` kernel
        has support ``[0, S)``, ``S = b1 - b0 + 2h``, index ``k`` landing
        on grid row ``b0 - h + k``.  A circular transform of size ``M``
        aliases ``k`` onto ``k ± M``, so the window's slice ``[k0, k1)``
        stays alias-free iff ``M ≥ max(S - k0, k1)``.  Both sides share
        the larger size, so one stacked round-trip serves the segment;
        since the window lies inside the grid, ``M`` never exceeds the
        whole-grid ``n + h``.

        Returns ``None`` when the window is empty, else ``((h_r, h_c),
        fft_shape, slices_lo, slices_hi, cells)`` with ``cells`` the
        window's flat cell ids in row-major (sorted) order.  Memoized per
        segment.
        """

        def build():
            traj = self.trajectory
            grid = self.grid
            halves = self._kernel_halves(_dt_key(traj[lo + 1].t - traj[lo].t))
            boxes = (self._noise_plane(lo)[1], self._noise_plane(lo + 1)[1])
            fft_shape, slices, ranges = [], ([], []), []
            for axis, n, h in ((0, grid.n_rows, halves[0]), (1, grid.n_cols, halves[1])):
                spans = [box[2 * axis : 2 * axis + 2] for box in boxes]
                w0 = max(spans[0][0], spans[1][0], h) - h
                w1 = min(spans[0][1], spans[1][1], n - h) + h
                if w0 >= w1:
                    return None
                size = 0
                for (b0, b1), side in zip(spans, slices):
                    k0, k1 = w0 - b0 + h, w1 - b0 + h
                    size = max(size, b1 - b0 + 2 * h - k0, k1)
                    side.append(slice(k0, k1))
                fft_shape.append(_fft.next_fast_len(size, True))
                ranges.append(np.arange(w0, w1))
            cells = (ranges[0][:, None] * grid.n_cols + ranges[1][None, :]).ravel()
            return halves, tuple(fft_shape), tuple(slices[0]), tuple(slices[1]), cells

        return self._segment_cache.get_or_compute(("window", lo), build)

    def _windowed_planes(
        self, lo: int, dts1: np.ndarray, dts2: np.ndarray, window
    ) -> tuple[np.ndarray, np.ndarray]:
        """Forward and backward sums of Eq. 4 for each query, on the window.

        Each query's kernel is drawn on its own bucketed canvas
        (:meth:`_radial_kernel`) and centered on the segment's
        ``(2h_r + 1, 2h_c + 1)`` canvas, so both sides of the whole batch
        are one stacked ``rfft2``/``irfft2`` round-trip against the two
        planes' cached transforms.  Outputs at or below the transform's
        round-off floor — ``_FFT_FLOOR`` times the kernel's peak, which
        bounds every exact output since a plane sums to 1 — are set to
        zero: there the exact convolution is zero or below what the
        transform resolves, and keeping the noise would spread a bridge
        that underflows in ``dense`` mode over arbitrary cells instead of
        taking the fallback.
        """
        (h_r, h_c), fft_shape, slices_lo, slices_hi, _cells = window
        stack = np.zeros((2, len(dts1), 2 * h_r + 1, 2 * h_c + 1))
        for side, dts in enumerate((dts1, dts2)):
            for i, dt in enumerate(dts.tolist()):
                kernel = self._radial_kernel(dt)
                q_r, q_c = kernel.shape[0] // 2, kernel.shape[1] // 2
                stack[side, i, h_r - q_r : h_r + q_r + 1, h_c - q_c : h_c + q_c + 1] = kernel
        floors = _FFT_FLOOR * stack.max(axis=(2, 3))[:, :, None, None]
        spectra = _fft.rfft2(stack, s=fft_shape)
        spectra[0] *= self._plane_fft(lo, fft_shape)
        spectra[1] *= self._plane_fft(lo + 1, fft_shape)
        conv = _fft.irfft2(spectra, s=fft_shape)
        forward = conv[(0, slice(None), *slices_lo)]
        backward = conv[(1, slice(None), *slices_hi)]
        return (
            np.where(forward > floors[0], forward, 0.0),
            np.where(backward > floors[1], backward, 0.0),
        )

    def _kernel_halves(self, dt: float) -> tuple[int, int]:
        """Kernel half-extents (rows, cols) for a time gap, clipped to the grid.

        The natural half-extent covering the transition radius is rounded
        up to a geometric bucket series (1, 2, 3, 5, 8, 12, ...), so only a
        handful of kernel canvases — and cached distance lattices — exist
        per grid.  Callers pass the quantized gap (:func:`_dt_key`), so
        the extent is a function of the kernel's cache key and never
        shrinks as the gap grows.
        """
        grid = self.grid
        span = math.ceil(self.transition_model.reachable_radius(dt) / grid.cell_size) + 1
        series = self._span_buckets()
        bucket = series[min(bisect_left(series, span), len(series) - 1)]
        return min(grid.n_rows - 1, bucket), min(grid.n_cols - 1, bucket)

    def _span_buckets(self) -> list[int]:
        """Ascending kernel half-extent bucket series covering the grid."""
        series = getattr(self, "_span_bucket_series", None)
        if series is None:
            top = max(self.grid.n_rows, self.grid.n_cols)
            series = [1]
            while series[-1] < top:
                series.append(max(series[-1] + 1, (series[-1] * 3 + 1) // 2))
            self._span_bucket_series = series
        return series

    def _noise_plane(self, index: int) -> tuple[np.ndarray, tuple[int, int, int, int]]:
        """Observation ``index``'s noise distribution on its bounding box.

        Returns the dense plane and its box ``(row0, row1, col0, col1)``
        (half-open) on the grid.
        """

        def build():
            cells, probs = self._observed[index]
            rows = cells // self.grid.n_cols
            cols = cells % self.grid.n_cols
            r0, c0 = int(rows.min()), int(cols.min())
            plane = np.zeros((int(rows.max()) - r0 + 1, int(cols.max()) - c0 + 1))
            plane[rows - r0, cols - c0] = probs
            return plane, (r0, r0 + plane.shape[0], c0, c0 + plane.shape[1])

        return self._plane_cache.get_or_compute(index, build)

    def _plane_fft(self, index: int, fft_shape: tuple[int, int]) -> np.ndarray:
        """Forward real FFT of observation ``index``'s bounding-box plane."""
        cached = self._plane_fft_cache.get((index, fft_shape))
        if cached is not None:
            self._m_canvas_reuse.inc()
            return cached
        value = _fft.rfft2(self._noise_plane(index)[0], s=fft_shape)
        self._plane_fft_cache.put((index, fft_shape), value)
        self._m_plane_transforms.inc()
        return value

    def _canvas_lattice(
        self, rows_half: int, cols_half: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Offset-distance lattice of a kernel canvas, with its unique values.

        Returns ``(dist, unique, inverse)``: the dense distance canvas, its
        sorted unique distances and the inverse mapping (``unique[inverse]``
        rebuilds ``dist.ravel()``).  The lattice depends only on the canvas
        shape, so it is cached across every ``dt`` sharing a bucket.
        """

        def build() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            dx = np.arange(-cols_half, cols_half + 1)
            dy = np.arange(-rows_half, rows_half + 1)
            dist = np.hypot(dx[None, :], dy[:, None]) * self.grid.cell_size
            unique, inverse = np.unique(dist.ravel(), return_inverse=True)
            return dist, unique, inverse

        return self._kernel_cache.get_or_compute(("lattice", rows_half, cols_half), build)

    def _radial_kernel(self, dt: float) -> np.ndarray:
        """Transition weights between cell offsets, as an odd-sized kernel.

        The canvas is the bucketed extent of this ``dt``'s own transition
        radius (:meth:`_kernel_halves`), so a kernel depends on its ``dt``
        alone.  Memoized by quantized ``dt``.

        The canvas holds far fewer *distinct* distances than points (the
        lattice is 8-fold symmetric), so the transition model is evaluated
        on the unique distances and scattered back — but only when the
        unique set is large enough (> 64) to take the same vectorized path
        a full-canvas evaluation would, keeping results bitwise identical.
        """
        key = _dt_key(dt)

        def build() -> np.ndarray:
            dist, unique, inverse = self._canvas_lattice(*self._kernel_halves(key))
            if unique.size > 64:
                weights = self.transition_model.distance_weights(unique, dt)
                return weights[inverse].reshape(dist.shape)
            return self.transition_model.distance_weights(dist, dt)

        return self._kernel_cache.get_or_compute(key, build)

    # ------------------------------------------------------------------
    @staticmethod
    def _sparsify(cells: np.ndarray, probs: np.ndarray) -> SparseDistribution:
        """Drop negligible entries and renormalize."""
        keep = probs > _SPARSE_EPS
        if not keep.all():
            cells = cells[keep]
            probs = probs[keep]
            probs = probs / probs.sum()
        return cells, probs

    def _fallback(self, t: float, p_lo, p_hi) -> SparseDistribution:
        """Numerical-underflow fallback.

        When every candidate weight underflows (the object moved far faster
        than its speed model considers plausible — e.g. after heavy
        downsampling of a single long gap), Eq. 4 is 0/0.  We resolve it by
        placing the mass at the time-weighted linear interpolation between
        the two bracketing observations, the least-informative consistent
        answer.  Each use counts in ``repro_stp_fallback_total{mode}``.
        """
        self._m_fallback.inc()
        span = p_hi.t - p_lo.t
        w = (t - p_lo.t) / span if span > 0 else 0.5
        x = p_lo.x + w * (p_hi.x - p_lo.x)
        y = p_lo.y + w * (p_hi.y - p_lo.y)
        cell = self.grid.cell_of(x, y)
        return np.array([cell], dtype=int), np.ones(1)

    # Metric handles hold locks, which do not pickle; an estimator
    # crossing a process boundary rebinds to the worker's own registry.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for key in (
            "_registry", "_t_noise", "_t_bridge", "_t_kernel", "_t_norm",
            "_t_coloc_resolve", "_t_coloc_inner",
            "_m_plane_transforms", "_m_canvas_reuse", "_m_fallback",
        ):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_obs()

    def __repr__(self) -> str:
        return (
            f"<TrajectorySTP n={len(self.trajectory)} mode={self.mode!r} "
            f"grid={self.grid.n_cols}x{self.grid.n_rows}>"
        )
