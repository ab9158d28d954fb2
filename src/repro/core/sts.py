"""The STS measure (Section V-B, Eq. 10) and its ablation variants.

``STS(Tra, Tra')`` is the average co-location probability over the union of
the two trajectories' timestamps:

    STS = ( Σ_i CP(t_i) + Σ_j CP(t'_j) ) / ( |Tra| + |Tra'| )

Averaging (rather than summing) makes the measure insensitive to trajectory
length, which varies under sporadic sampling.

:class:`STS` is configured once with a grid, a noise model and a transition
policy, then applied to any number of trajectory pairs.  The ablation
variants of Section VI-C are thin configurations of the same machinery:

* :func:`sts_n` — no noise model (deterministic locations);
* :func:`sts_g` — one global speed distribution pooled from a corpus
  instead of a personalized one per trajectory;
* :func:`sts_f` — frequency-based Markov transitions fitted on a corpus.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import DegenerateTrajectoryError
from ..obs import get_registry, trace_span
from .cache import LRUCache, cache_samples
from .colocation import colocation_batch, sparse_inner
from .grid import Grid
from .noise import DeterministicNoiseModel, GaussianNoiseModel, NoiseModel
from .speed import GaussianSpeedModel, KDESpeedModel
from .stprob import TrajectorySTP
from .transition import FrequencyTransitionModel, SpeedTransitionModel, TransitionModel
from .trajectory import Trajectory

__all__ = ["STS", "sts_n", "sts_g", "sts_f", "sts_b"]

TransitionFactory = Callable[[Trajectory], TransitionModel]


def _personalized_transition(trajectory: Trajectory) -> TransitionModel:
    """Default policy: Eq. 6–7, a KDE speed model from the trajectory itself."""
    return SpeedTransitionModel(KDESpeedModel.from_trajectory(trajectory))


class _SharedTransition:
    """Factory returning one shared model for every trajectory.

    A named class rather than a lambda so that measures configured with a
    shared transition model (STS-G, STS-F) stay picklable — the process
    backend of :mod:`repro.parallel` ships the measure to each worker.
    """

    def __init__(self, model: TransitionModel):
        self.model = model

    def __call__(self, _trajectory: Trajectory) -> TransitionModel:
        return self.model

    def __repr__(self) -> str:
        return f"_SharedTransition({self.model!r})"


def _brownian_transition(trajectory: Trajectory) -> TransitionModel:
    """Per-trajectory Gaussian speed law (the STS-B ablation policy)."""
    speeds = trajectory.speeds()
    if speeds.size == 0:
        return SpeedTransitionModel(GaussianSpeedModel(mean=0.0, std=1e-3))
    mean = float(speeds.mean())
    std = max(float(speeds.std()), 0.05 * max(mean, 1e-3), 1e-3)
    return SpeedTransitionModel(GaussianSpeedModel(mean=mean, std=std))


class STS:
    """Spatial-Temporal Similarity measure for trajectory pairs.

    Parameters
    ----------
    grid:
        Spatial partition of the area of interest.  The paper recommends a
        cell size close to the localization error (Section VI-E).
    noise_model:
        Location-noise distribution of the sensing system.  Defaults to a
        Gaussian with ``sigma = grid.cell_size`` (the paper's "grid size ≈
        location error" operating point).
    transition:
        One of: ``None`` (default — personalized KDE speed transitions per
        trajectory, Eq. 6–7); a :class:`TransitionModel` instance shared by
        all trajectories (the STS-G / STS-F ablations); or a callable
        ``Trajectory -> TransitionModel`` for custom policies.
    mode:
        ``"auto"`` (default), ``"fft"``, ``"pruned"`` or ``"dense"`` —
        passed to :class:`TrajectorySTP`; see :mod:`repro.core.stprob`.
    cache_size:
        Maximum number of trajectories whose estimator state is kept alive
        at once (LRU eviction beyond that).  ``None`` means unbounded — the
        pre-bounded historical behaviour.  Size it to the working set: a
        pairwise matrix over a gallery wants ``cache_size >= len(gallery)``
        to avoid rebuilding estimators, while a streaming service matching
        one query at a time is happy with a small cache.
    stp_cache_size:
        Per-trajectory query/kernel cache capacity, forwarded to
        :class:`TrajectorySTP` (``0`` disables memoization entirely).
    registry:
        Metrics registry receiving similarity-call counters, latency
        histograms and stage timings, and forwarded to every estimator
        this measure builds.  Defaults to the process-wide registry
        (:func:`repro.obs.get_registry`); a no-op when ``REPRO_OBS=off``.

    Notes
    -----
    Similarities lie in ``[0, 1]`` and the measure is symmetric.  Instances
    cache per-trajectory state (noise distributions, speed models,
    interpolation results) keyed by trajectory identity, so reusing one
    instance across a whole similarity matrix is much cheaper than
    constructing it per pair.  Call :meth:`clear_cache` between unrelated
    datasets to release memory.
    """

    name = "STS"
    #: STS is a similarity (duck-types :class:`repro.similarity.base.Measure`).
    higher_is_better = True

    def __init__(
        self,
        grid: Grid,
        noise_model: NoiseModel | None = None,
        transition: TransitionModel | TransitionFactory | None = None,
        mode: str = "auto",
        cache_size: int | None = 512,
        stp_cache_size: int | None = 4096,
        registry=None,
    ):
        self.grid = grid
        self.noise_model = noise_model if noise_model is not None else GaussianNoiseModel(grid.cell_size)
        if transition is None:
            self._transition_factory: TransitionFactory = _personalized_transition
        elif isinstance(transition, TransitionModel):
            self._transition_factory = _SharedTransition(transition)
        elif callable(transition):
            self._transition_factory = transition
        else:
            raise TypeError(
                "transition must be None, a TransitionModel, or a callable "
                f"Trajectory -> TransitionModel; got {type(transition).__name__}"
            )
        self.mode = mode
        self.stp_cache_size = stp_cache_size
        self._stp_cache = LRUCache(cache_size)  # id -> (Trajectory, TrajectorySTP)
        self._init_obs(registry)

    # ------------------------------------------------------------------
    def _init_obs(self, registry=None) -> None:
        """Bind metric handles once (hot paths pay one dict-add each)."""
        reg = registry if registry is not None else get_registry()
        self._registry = reg
        self._m_calls = reg.counter(
            "repro_sts_similarity_calls_total", "similarity() evaluations (Eq. 10)"
        ).child()
        self._h_similarity = reg.histogram(
            "repro_similarity_seconds", "Wall seconds per similarity() call"
        ).child()
        self._h_pairwise = reg.histogram(
            "repro_pairwise_seconds", "Wall seconds per pairwise() call"
        ).child()
        stage = reg.counter(
            "repro_stage_seconds_total", "Wall seconds spent per pipeline stage"
        )
        self._t_prewarm = stage.child(component="sts", stage="prewarm")
        self._t_pairloop = stage.child(component="sts", stage="pair-loop")
        reg.register_collector(self._collect_cache_samples)

    def _collect_cache_samples(self):
        """Snapshot-time cache samples, aggregated across the estimator pool.

        Estimators built by :meth:`stp_for` skip their own collectors
        (``cache_collector=False``); this single collector walks them and
        sums their cache counters in plain Python, so a registry snapshot
        folds ~30 samples instead of ~25 per live estimator — the
        difference between a 0.1 ms and a 2 ms worker delta on a hot
        gallery shard.  Eviction from ``_stp_cache`` drops an estimator's
        contribution, matching the old weak-collector lifetime.
        """
        named = [("sts-estimators", self._stp_cache)]
        for entry in self._stp_cache.values():
            named.extend(entry[1]._named_caches())
        return cache_samples(named)

    def stp_for(self, trajectory: Trajectory) -> TrajectorySTP:
        """The (cached) S-T probability estimator for ``trajectory``."""
        key = id(trajectory)
        hit = self._stp_cache.get(key)
        if hit is not None and hit[0] is trajectory:
            return hit[1]
        stp = TrajectorySTP(
            trajectory,
            self.grid,
            self.noise_model,
            self._transition_factory(trajectory),
            mode=self.mode,
            cache_size=self.stp_cache_size,
            registry=self._registry,
            cache_collector=False,
        )
        self._stp_cache.put(key, (trajectory, stp))
        return stp

    def clear_cache(self) -> None:
        """Release all cached per-trajectory state."""
        self._stp_cache.clear()

    # ------------------------------------------------------------------
    def similarity(self, tra1: Trajectory, tra2: Trajectory, budget=None) -> float:
        """Eq. 10: average co-location probability over both timestamp sets.

        Timestamps at which one trajectory is outside its observed span
        contribute 0 (Eq. 5 case 3) but still count in the denominator,
        exactly as the paper defines the average.

        ``budget`` (a :class:`repro.serving.Budget`) routes the call
        through the anytime evaluator: if the budget expires mid-pair the
        returned float is the midpoint of a rigorous ``[lower, upper]``
        interval around the exact score (use
        :func:`repro.serving.anytime_similarity` directly to see the
        bound).  An exhausted-free budget returns the exact score,
        bitwise identical to the unbudgeted path.
        """
        t0 = perf_counter()
        try:
            if budget is not None and budget.bounded:
                from ..serving.anytime import anytime_similarity

                return anytime_similarity(self, tra1, tra2, budget=budget).value
            if len(tra1) == 0 or len(tra2) == 0:
                raise DegenerateTrajectoryError("STS is undefined for empty trajectories")
            with trace_span("sts.similarity"):
                stp1 = self.stp_for(tra1)
                stp2 = self.stp_for(tra2)
                times = np.concatenate([tra1.timestamps, tra2.timestamps])
                cps = colocation_batch(stp1, stp2, times)
                return float(cps.sum()) / (len(tra1) + len(tra2))
        finally:
            self._m_calls.inc()
            self._h_similarity.observe(perf_counter() - t0)

    def __call__(self, tra1: Trajectory, tra2: Trajectory) -> float:
        return self.similarity(tra1, tra2)

    def score(self, tra1: Trajectory, tra2: Trajectory) -> float:
        """Measure-protocol alias: STS already orients higher = more similar."""
        return self.similarity(tra1, tra2)

    def colocation_profile(self, tra1: Trajectory, tra2: Trajectory) -> tuple[np.ndarray, np.ndarray]:
        """Per-timestamp co-location probabilities (for inspection/plots).

        Returns the sorted union of both timestamp sets and the co-location
        probability at each — the terms whose average is Eq. 10.

        .. warning::
           The union **deduplicates** timestamps shared by both
           trajectories, so ``cps.mean()`` is *not* Eq. 10 when the two
           timestamp sets overlap: :meth:`similarity` follows the paper and
           counts a shared timestamp once per trajectory (i.e. twice — once
           in ``Σ_i CP(t_i)`` and once in ``Σ_j CP(t'_j)``, with the
           denominator ``|Tra| + |Tra'|``), while the profile lists it
           once.  The profile is an inspection view of *where in time* the
           co-location mass lives, not a term-for-term expansion of the
           measure.  ``tests/test_sts.py`` pins both behaviours.
        """
        stp1 = self.stp_for(tra1)
        stp2 = self.stp_for(tra2)
        times = np.union1d(tra1.timestamps, tra2.timestamps)
        cps = colocation_batch(stp1, stp2, times)
        return times, cps

    def pairwise(
        self,
        gallery: Sequence[Trajectory],
        queries: Sequence[Trajectory] | None = None,
        n_jobs: int | None = None,
        checkpoint: str | None = None,
        deadline: float | None = None,
        cluster=None,
    ) -> np.ndarray:
        """Similarity matrix between two trajectory collections.

        Returns ``S[i, j] = STS(queries[i], gallery[j])``.  With
        ``queries=None`` the matrix is ``gallery`` against itself, computed
        symmetrically (each unordered pair once).

        ``n_jobs`` > 1 shards the pair list across worker processes that
        read the corpus from one shared-memory arena (see
        :class:`repro.parallel.ParallelSTS`); ``-1`` uses every available
        core.  The parallel matrix matches the serial one to float
        round-off regardless of worker count, and the pool is supervised:
        dead/hung workers are retried and the run degrades to serial
        rather than failing.

        ``checkpoint`` names a chunk journal file (atomic write-rename);
        an interrupted run pointed at the same file resumes from the last
        completed chunk.  Resume requires the same ``n_jobs``.

        ``deadline`` caps the whole call at that many wall-clock seconds;
        pairs not scored in time come back NaN (see
        :meth:`repro.parallel.ParallelSTS.pairwise`, which deadlined
        calls always route through).

        ``cluster`` (a :class:`repro.cluster.ClusterService` built from
        this exact ``gallery``) scatter-gathers each row across the
        service's shard workers instead of scoring in-process: replica
        death fails over, and entries owned by a shard the service had to
        skip come back NaN — the same partial-result convention as
        ``deadline``.  Healthy cluster → bitwise identical to the serial
        matrix.
        """
        if cluster is not None:
            if not cluster.matches_gallery(gallery):
                raise ValueError(
                    "cluster service was packed from a different gallery than "
                    "the one passed to pairwise(); rebuild the ClusterService"
                )
            from ..serving.budget import Budget

            rows = list(gallery) if queries is None else list(queries)
            budget = (
                Budget(deadline_ms=deadline * 1000.0) if deadline is not None else None
            )
            t_start = perf_counter()
            out, _reports = cluster.pairwise(rows, budget=budget)
            self._h_pairwise.observe(perf_counter() - t_start)
            return out
        if (n_jobs is not None and n_jobs != 1) or checkpoint is not None or deadline is not None:
            from ..parallel import ParallelSTS

            return ParallelSTS(self, n_jobs=n_jobs).pairwise(
                gallery, queries, checkpoint=checkpoint, deadline=deadline
            )
        t_start = perf_counter()
        with trace_span(
            "sts.pairwise",
            gallery=len(gallery),
            queries=len(queries) if queries is not None else len(gallery),
        ):
            everything = list(gallery) if queries is None else list(gallery) + list(queries)
            with trace_span("sts.prewarm"):
                t0 = perf_counter()
                resolved = self._prewarm(everything)
                self._t_prewarm.inc(perf_counter() - t0)
            t0 = perf_counter()
            with trace_span("sts.pair-loop"):
                if queries is None:
                    n = len(gallery)
                    out = np.zeros((n, n))
                    for i in range(n):
                        for j in range(i, n):
                            out[i, j] = out[j, i] = _pair_score(
                                resolved[id(gallery[i])], resolved[id(gallery[j])]
                            )
                    pairs = n * (n + 1) // 2
                else:
                    out = np.zeros((len(queries), len(gallery)))
                    for i, q in enumerate(queries):
                        for j, g in enumerate(gallery):
                            out[i, j] = _pair_score(resolved[id(q)], resolved[id(g)])
                    pairs = out.size
                self._m_calls.inc(pairs)
            self._t_pairloop.inc(perf_counter() - t0)
        self._h_pairwise.observe(perf_counter() - t_start)
        return out

    def _prewarm(self, trajectories: Sequence[Trajectory]) -> dict[int, tuple]:
        """Resolve every STP query the pair loop will make, once, batched.

        Per-pair evaluation presents each estimator with the partner's
        timestamps a handful at a time — too few per bracketing segment to
        amortize the vectorized segment pass.  Instead every trajectory
        resolves the part of the corpus time axis (the union of all
        timestamps in play) that falls inside its own span, with one
        ``stp_batch`` call.  Returns ``{id(trajectory): (stamps, lo, hi,
        dists)}``: ``stamps`` are the trajectory's timestamps as positions
        on the axis, ``[lo, hi)`` its span on the axis, and ``dists`` the
        distributions at axis positions ``lo .. hi - 1``.  Because a
        query's distribution depends only on the estimator and ``t``, the
        pair loop then reproduces :meth:`similarity` bit for bit.
        """
        if not trajectories:
            return {}
        axis = np.unique(np.concatenate([t.timestamps for t in trajectories]))
        resolved: dict[int, tuple] = {}
        for trajectory in trajectories:
            if id(trajectory) in resolved:
                continue
            stp = self.stp_for(trajectory)  # raises on an empty trajectory
            stamps = trajectory.timestamps
            lo = int(np.searchsorted(axis, stamps[0]))
            hi = int(np.searchsorted(axis, stamps[-1], side="right"))
            resolved[id(trajectory)] = (
                np.searchsorted(axis, stamps).tolist(), lo, hi, stp.stp_batch(axis[lo:hi])
            )
        return resolved

    # Metric handles hold locks, which do not pickle; a measure shipped to
    # a process worker rebinds to that worker's own registry on arrival.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for key in (
            "_registry", "_m_calls", "_h_similarity", "_h_pairwise",
            "_t_prewarm", "_t_pairloop",
        ):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_obs()

    def __repr__(self) -> str:
        return f"<{self.name} grid={self.grid!r} noise={self.noise_model!r} mode={self.mode!r}>"


def _pair_score(a: tuple, b: tuple) -> float:
    """Eq. 10 for one pair from two :meth:`STS._prewarm` resolutions.

    Sums the same :func:`sparse_inner` terms, in the same order, as
    :meth:`STS.similarity` over ``concat(stamps_a, stamps_b)``; terms at
    which either trajectory is outside its span are the exact zeros that
    ``sparse_inner`` returns for an empty distribution.  Pairs whose spans
    do not overlap score ``0.0`` without touching a distribution.
    """
    stamps_a, lo_a, hi_a, dists_a = a
    stamps_b, lo_b, hi_b, dists_b = b
    lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
    if lo >= hi:
        return 0.0
    cps = np.zeros(len(stamps_a) + len(stamps_b))
    for n, k in enumerate(stamps_a + stamps_b):
        if lo <= k < hi:
            cps[n] = sparse_inner(dists_a[k - lo_a], dists_b[k - lo_b])
    return float(cps.sum()) / len(cps)


# ----------------------------------------------------------------------
# Ablation variants (Section VI-C, Figure 10)
# ----------------------------------------------------------------------
def sts_n(grid: Grid, mode: str = "auto") -> STS:
    """STS-N: locations are deterministic points (no noise model)."""
    measure = STS(grid, noise_model=DeterministicNoiseModel(), mode=mode)
    measure.name = "STS-N"
    return measure


def sts_g(
    grid: Grid,
    corpus: Iterable[Trajectory],
    noise_model: NoiseModel | None = None,
    mode: str = "auto",
) -> STS:
    """STS-G: one global speed distribution pooled from ``corpus``."""
    global_speed = KDESpeedModel.from_trajectories(corpus)
    measure = STS(
        grid,
        noise_model=noise_model,
        transition=SpeedTransitionModel(global_speed),
        mode=mode,
    )
    measure.name = "STS-G"
    return measure


def sts_f(
    grid: Grid,
    corpus: Iterable[Trajectory],
    noise_model: NoiseModel | None = None,
    mode: str = "auto",
    max_steps: int = 8,
) -> STS:
    """STS-F: frequency-based Markov transitions fitted on ``corpus``."""
    freq = FrequencyTransitionModel(grid, max_steps=max_steps).fit(corpus)
    measure = STS(grid, noise_model=noise_model, transition=freq, mode=mode)
    measure.name = "STS-F"
    return measure


def sts_b(grid: Grid, noise_model: NoiseModel | None = None, mode: str = "auto") -> STS:
    """STS-B: Brownian-bridge-style Gaussian speed law per trajectory.

    Section II of the paper notes the Brownian bridge is the special case
    of STS where the speed distribution is assumed Gaussian.  This variant
    fits a per-trajectory Gaussian to the speed samples (mean/std) instead
    of the non-parametric KDE — an extra ablation isolating what the
    arbitrary-distribution property of Eq. 6 buys (e.g. under the bimodal
    walk/dwell speeds of mall visitors).
    """
    measure = STS(grid, noise_model=noise_model, transition=_brownian_transition, mode=mode)
    measure.name = "STS-B"
    return measure
