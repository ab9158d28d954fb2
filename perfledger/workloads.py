"""The four benchmark workloads: inputs, set-up, timed operations, checks.

Every workload is closed loop with one client: the next operation starts
only when the previous one returned.  The amount of work is fixed by the
seed and ``--seconds`` alone (see :meth:`Workload.scaled`), so two runs with
one seed do exactly the same work and their work fingerprints match.

Each workload is a list of *phases*.  A phase has a set-up (timed, run
``setup_repeats`` times, the median counted), a list of timed operations,
a teardown, and correctness checks that run after the whole timed region.
"""

from __future__ import annotations

import math
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import STS, Grid, Trajectory
from repro.cluster import ClusterService
from repro.datasets import mall_dataset, taxi_dataset
from repro.index import FilteredMatcher
from repro.simulation import alternate_split
from repro.streaming import SightingEvent, StreamingColocationDetector
from repro.streaming_wal import StreamingWAL
from repro.verify import ORACLE_ATOL, OracleSTS

import procs
from calib import Calibrator

#: Fixed grids, so the canvas geometry does not change with the seed.
TAXI_GRID = (-450.0, -450.0, 2150.0, 2150.0, 100.0)  # 26 x 26 cells of 100 m
MALL_GRID = (-40.0, -44.0, 116.0, 88.0, 3.0)  # 52 x 44 cells of 3 m

#: Taxi corpora of the matrix workloads: 40 taxis with 15 s periodic
#: reports, one starting every 15 s, each cut to 24 reports (345 s).
TAXI_CORPUS = 40
TAXI_WINDOW_S = 600.0
TAXI_POINTS = 24
#: Link queries return the top ``K`` survivors.
K = 10
#: Latency percentiles need at least ten samples beyond p90.
MIN_LATENCY_OPS = 100
#: Every ``SAMPLE_EVERY``-th operation (and the first) gets the deep checks.
SAMPLE_EVERY = 10
#: Cheap set-ups repeat until they add up to ``SETUP_MIN_S`` (at most
#: ``SETUP_MAX_REPEATS`` times), so their median is not a single timer tick.
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 25
#: Oracle-checked cells must score at least this (ORACLE_ATOL is 1e-3).
ORACLE_MIN_SCORE = 0.01
#: Added to one score when ``--perturb`` asks the gate to prove it bites.
PERTURBATION = 0.01


def sub_seed(seed: int, *tags: int) -> int:
    """A stable 32-bit seed derived from the run seed and ``tags``."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def fresh_copy(trajectory: Trajectory) -> Trajectory:
    """A new object with the same points, so no estimator cache knows it."""
    return Trajectory(list(trajectory.points), object_id=trajectory.object_id)


def regular_schedule(trajectories, period_s: float, max_points: int) -> list[Trajectory]:
    """The ``i``-th trajectory (by start time) starts in the ``i``-th slot
    of ``period_s`` seconds, cut to its first ``max_points`` observations.

    Random start times and lengths make how many trajectories overlap in
    time, and so the Eq. 4 work, vary with the seed; on a regular
    schedule the seed changes the paths but hardly the amount of work.
    Each keeps its start's offset within the slot, so periodic reports of
    different trajectories do not fall on shared timestamps.
    """
    ordered = sorted(trajectories, key=lambda t: (t.start_time, t.object_id))
    out = []
    for i, t in enumerate(ordered):
        head = Trajectory(list(t.points)[:max_points], object_id=t.object_id)
        start = i * period_s + t.start_time % period_s
        out.append(head.shifted(dt=start - t.start_time))
    return out


def taxi_corpora(seed: int, count: int) -> list[list[Trajectory]]:
    return [
        regular_schedule(
            taxi_dataset(
                n_trajectories=TAXI_CORPUS, seed=sub_seed(seed, 1, c), time_window=TAXI_WINDOW_S
            ).trajectories,
            TAXI_WINDOW_S / TAXI_CORPUS,
            TAXI_POINTS,
        )
        for c in range(count)
    ]


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One timed operation's outcome, kept for the deferred checks."""

    seconds: float
    output: object
    pairs: int = 0
    #: The operation's time scaled to the reference host speed.
    scaled: float = 0.0
    failures: list[str] = field(default_factory=list)


class Phase:
    """Set-up, timed operations and checks of one stretch of a workload."""

    name = "phase"
    workers = 0

    def __init__(self, n_ops: int):
        self.n_ops = n_ops
        self.ops: list[Op] = []

    def setup(self):  # pragma: no cover - interface
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def run(self, state, k: int):  # pragma: no cover - interface
        """Run operation ``k``; returns ``(output, pairs_scored)``."""
        raise NotImplementedError

    def after_op(self, state, k: int, output) -> None:
        """Untimed bookkeeping right after operation ``k``."""

    def worker_pids(self, state) -> list[int]:
        return []

    def check(self, perturb: bool) -> None:
        """Fill each :class:`Op`'s ``failures`` (runs after timing)."""

    def fingerprint(self) -> dict[str, int]:
        return {}


def check_matrix(m: np.ndarray) -> list[str]:
    out = []
    if not np.all(np.isfinite(m)):
        out.append("non-finite cell")
    elif m.min() < 0.0 or m.max() > 1.0:
        out.append("cell outside [0, 1]")
    if not np.array_equal(m, m.T):
        out.append("matrix not symmetric")
    return out


class MatrixPhase(Phase):
    """``STS.pairwise(corpus)`` on fresh measures, serial or ``n_jobs``."""

    name = "matrix"

    def __init__(self, corpora, warm, n_jobs: int | None, oracle_cells: int, seed: int):
        super().__init__(len(corpora))
        self.corpora = corpora
        self.warm = warm
        self.n_jobs = n_jobs
        self.workers = n_jobs or 0
        self.oracle_cells = oracle_cells
        self.rng = np.random.default_rng(sub_seed(seed, 9))

    def setup(self):
        grid = Grid(*TAXI_GRID)
        STS(grid).pairwise(self.warm, n_jobs=self.n_jobs)
        return grid

    def run(self, grid, k):
        corpus = self.corpora[k]
        n = len(corpus)
        return STS(grid).pairwise(corpus, n_jobs=self.n_jobs), n * (n + 1) // 2

    def _sample_cells(self, m: np.ndarray) -> list[tuple[int, int]]:
        """Three nonzero upper-triangle cells and one anywhere on or
        above the diagonal."""
        upper = np.argwhere(np.triu(m > 0.0, 1))
        picks = [tuple(int(v) for v in upper[i]) for i in self.rng.permutation(len(upper))[:3]]
        i, j = sorted(int(v) for v in self.rng.integers(0, m.shape[0], 2))
        return picks + [(i, j)]

    @staticmethod
    def _bridged(a: Trajectory, b: Trajectory) -> int:
        """Eq. 4 interpolations the oracle pays for this pair."""
        def inside(x, y):
            ts = y.timestamps
            mask = (ts > x.start_time) & (ts < x.end_time)
            return int(np.sum(~np.isin(ts[mask], x.timestamps)))

        return inside(a, b) + inside(b, a)

    def check(self, perturb):
        grid = Grid(*TAXI_GRID)
        # Oracle on the first matrix's cheapest cells scoring at least
        # ORACLE_MIN_SCORE: the dense transcription costs O(|R|^2 |S|) per
        # Eq. 4 interpolation, several seconds per taxi pair.
        first, corpus = self.ops[0], self.corpora[0]
        upper = [
            tuple(int(v) for v in c)
            for c in np.argwhere(np.triu(first.output >= ORACLE_MIN_SCORE, 1))
        ]
        upper.sort(key=lambda c: (self._bridged(corpus[c[0]], corpus[c[1]]), c))
        targets = upper[: self.oracle_cells]
        if self.oracle_cells and not targets:
            first.failures.append(f"no cell scores >= {ORACLE_MIN_SCORE} for the oracle")
        if perturb:
            first.output = first.output.copy()
            first.output[(targets or [(0, 1)])[0]] += PERTURBATION
        oracle = OracleSTS(grid, sigma=grid.cell_size)
        for i, j in targets:
            ref = oracle.similarity(corpus[i], corpus[j])
            if abs(first.output[i, j] - ref) > ORACLE_ATOL:
                first.failures.append(
                    f"cell ({i},{j}) {first.output[i, j]:.6f} vs oracle {ref:.6f}"
                )
        for k, op in enumerate(self.ops):
            m, corpus = op.output, self.corpora[k]
            op.failures += check_matrix(m)
            # Orchestration contract: every path equals the serial
            # in-process score bit for bit (upper-triangle orientation).
            for i, j in self._sample_cells(m) + (targets if k == 0 else []):
                ref = STS(grid).similarity(corpus[i], corpus[j])
                if m[i, j] != ref:
                    op.failures.append(f"cell ({i},{j}) {m[i, j]!r} != serial {ref!r}")

    def fingerprint(self):
        return {
            "matrices": len(self.ops),
            "pairs": sum(op.pairs for op in self.ops),
        }


class LinkPhase(Phase):
    """Top-``K`` link queries through a warm ``FilteredMatcher``."""

    name = "link"

    def __init__(self, gallery, queries, warm_query, grid_args, cluster_shards: int = 0):
        super().__init__(len(queries))
        self.gallery = gallery
        self.queries = queries
        self.warm_query = warm_query
        self.grid_args = grid_args
        self.cluster_shards = cluster_shards
        self.workers = cluster_shards

    def setup(self):
        grid = Grid(*self.grid_args)
        measure = STS(grid)
        service = None
        if self.cluster_shards:
            service = ClusterService(
                measure, self.gallery, n_shards=self.cluster_shards, n_replicas=1
            )
        else:
            for trajectory in self.gallery:
                measure.stp_for(trajectory)
        matcher = FilteredMatcher(measure, grid=grid, cluster=service)
        matcher.query(fresh_copy(self.warm_query), self.gallery, k=K)
        return matcher

    def teardown(self, matcher):
        if matcher.cluster is not None:
            matcher.cluster.close()

    def worker_pids(self, matcher):
        if matcher.cluster is None:
            return []
        return [pid for pid in matcher.cluster.replica_pids().values() if pid]

    def run(self, matcher, k):
        report = matcher.query(self.queries[k], self.gallery, k=K)
        return report, report.candidates_scored

    def check(self, perturb):
        grid = Grid(*self.grid_args)
        for k, op in enumerate(self.ops):
            report = op.output
            matches = [(m.index, m.score) for m in report.matches]
            if perturb and k == 0 and matches:
                matches[0] = (matches[0][0], matches[0][1] + PERTURBATION)
            scores = [s for _i, s in matches]
            if not all(math.isfinite(s) and 0.0 <= s <= 1.0 for s in scores):
                op.failures.append("score not finite or outside [0, 1]")
            if scores != sorted(scores, reverse=True):
                op.failures.append("matches not ranked")
            if len(matches) != min(K, report.candidates_scored):
                op.failures.append("wrong number of matches")
            if report.coverage != 1.0:
                op.failures.append(f"coverage {report.coverage}")
            if (k % SAMPLE_EVERY == 0) and matches:
                # The serving paths equal the in-process serial score bit
                # for bit (the cluster included).
                index, score = matches[0]
                ref = STS(grid).similarity(self.queries[k], self.gallery[index])
                if score != ref:
                    op.failures.append(f"top-1 {score!r} != serial {ref!r}")

    def fingerprint(self):
        return {
            "queries": len(self.ops),
            "survivors": sum(op.pairs for op in self.ops),
        }


class StreamPhase(Phase):
    """Ticks of a WAL-backed ``StreamingColocationDetector``."""

    name = "stream"

    def __init__(self, events, ticks, preroll_end, window_s, work_dir: Path):
        super().__init__(len(ticks))
        self.events = events
        self.ticks = ticks
        self.preroll_end = preroll_end
        self.window_s = window_s
        self.work_dir = work_dir
        self.windows: dict[int, dict] = {}
        self.offered = 0
        self.wal_records = 0
        self.shed_events = 0

    def setup(self):
        """Open the WAL and feed the stream up to its steady active set."""
        wal_dir = self.work_dir / "wal"
        shutil.rmtree(wal_dir, ignore_errors=True)
        grid = Grid(*MALL_GRID)
        detector = StreamingColocationDetector(
            grid, window=self.window_s, wal=StreamingWAL(wal_dir)
        )
        state = {"detector": detector, "next": 0}
        self.offered = self._offer_through(state, self.preroll_end)
        detector.evaluate()
        return state

    def _offer_through(self, state, until: float) -> int:
        detector, k = state["detector"], state["next"]
        events = self.events
        while k < len(events) and events[k].t <= until:
            detector.offer(events[k])
            k += 1
        offered = k - state["next"]
        state["next"] = k
        return offered

    def teardown(self, state):
        detector = state["detector"]
        self.wal_records = detector.wal.next_lsn
        self.shed_events = detector.shed_events
        detector.close()

    def run(self, state, k):
        self.offered += self._offer_through(state, self.ticks[k])
        detector = state["detector"]
        scores = detector.evaluate()
        health = detector.last_health
        return (scores, health.pairs_shed), health.pairs_scored

    def after_op(self, state, k, output):
        if k % SAMPLE_EVERY == 0:
            detector = state["detector"]
            scores = output[0]
            self.windows[k] = {
                oid: detector.window_of(oid)
                for s in scores[:3]
                for oid in (s.object_a, s.object_b)
            }

    def check(self, perturb):
        grid = Grid(*MALL_GRID)
        for k, op in enumerate(self.ops):
            scores, shed = op.output
            values = [s.similarity for s in scores]
            if perturb and k == 0 and values:
                values[0] += PERTURBATION
            if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
                op.failures.append("score not finite or outside [0, 1]")
            if shed or not all(s.completed for s in scores):
                op.failures.append(f"{shed} pair(s) shed")
            if k in self.windows:
                win = self.windows[k]
                for s, value in list(zip(scores, values))[:3]:
                    ref = STS(grid).similarity(win[s.object_a], win[s.object_b])
                    if value != ref:
                        op.failures.append(
                            f"{s.object_a}~{s.object_b} {value!r} != STS {ref!r}"
                        )
        if self.shed_events:
            self.ops[-1].failures.append(f"{self.shed_events} sighting(s) shed")

    def fingerprint(self):
        return {
            "ticks": len(self.ops),
            "sightings": self.offered,
            "wal_records": self.wal_records,
            "stream_pairs": sum(op.pairs for op in self.ops),
        }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """A named list of phases.  The first phase's pairs and wall give
    ``pairs_per_s``; ``latency_phase``'s operations give the latencies."""

    name = ""
    latency_phase = 0

    def __init__(self, seed: int, seconds: float, work_dir: Path):
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.phases: list[Phase] = []

    def build(self) -> None:
        """Generate the inputs and phases (not timed)."""
        raise NotImplementedError

    @staticmethod
    def scaled(seconds: float, per_second: float, floor: int) -> int:
        return max(floor, int(round(seconds * per_second)))


class PairwiseTaxi(Workload):
    name = "pairwise-taxi"

    def build(self):
        n = self.scaled(self.seconds, 0.5, 2)
        corpora = taxi_corpora(self.seed, n)
        warm = taxi_corpora(sub_seed(self.seed, 2), 1)[0][:6]
        self.phases = [MatrixPhase(corpora, warm, None, oracle_cells=1, seed=self.seed)]


class LinkMall(Workload):
    name = "link-mall"

    GALLERY = 200
    WINDOW_S = 43200.0  # one visitor arrives every 216 s
    VISITOR_POINTS = 40
    #: A query is the first points of a visitor's alternate-split half.
    QUERY_POINTS = 12

    def build(self):
        n = self.scaled(self.seconds, 8.0, MIN_LATENCY_OPS)
        visitors = regular_schedule(
            mall_dataset(
                n_trajectories=self.GALLERY, seed=sub_seed(self.seed, 3), time_window=self.WINDOW_S
            ).trajectories,
            self.WINDOW_S / self.GALLERY,
            self.VISITOR_POINTS,
        )
        halves = [alternate_split(t) for t in visitors]
        gallery = [second for _first, second in halves]
        order = np.random.default_rng(sub_seed(self.seed, 4)).permutation(self.GALLERY)
        heads = [
            Trajectory(list(first.points)[: self.QUERY_POINTS], object_id=first.object_id)
            for first, _second in halves
        ]
        queries = [fresh_copy(heads[int(order[k % self.GALLERY])]) for k in range(n)]
        warm = heads[int(order[-1])]
        self.phases = [LinkPhase(gallery, queries, warm, MALL_GRID)]


class StreamMall(Workload):
    name = "stream-mall"

    DURATION_S = 300.0  # each visitor is tracked for exactly this long
    WINDOW_S = 300.0
    #: One visitor arrives per tick, half a tick before it, so every tick
    #: sees the same number of visitors in its window and a new one.
    TICK_S = 100.0
    ARRIVAL_S = TICK_S
    PLAN_VISITORS = 5

    def build(self):
        n = self.scaled(self.seconds, 16.0, MIN_LATENCY_OPS)
        preroll_end = self.DURATION_S + self.WINDOW_S
        horizon = preroll_end + n * self.TICK_S
        needed = int(horizon // self.ARRIVAL_S) + 2
        visitors: list[Trajectory] = []
        batch = 0
        while len(visitors) < needed:
            # Each mall dataset draws its own floor plan, and a plan sets
            # how much the visitors meet: a new plan every PLAN_VISITORS
            # visitors keeps one seed's plan from setting a whole run's cost.
            pool = mall_dataset(
                n_trajectories=4 * self.PLAN_VISITORS, seed=sub_seed(self.seed, 5, batch)
            )
            long = [t for t in pool.trajectories if t.duration >= self.DURATION_S]
            visitors += long[: self.PLAN_VISITORS]
            batch += 1
        events = []
        for i, visitor in enumerate(visitors[:needed]):
            ts = visitor.timestamps - visitor.start_time
            keep = ts <= self.DURATION_S
            for (x, y), t in zip(visitor.xy[keep], ts[keep]):
                events.append(
                    SightingEvent(f"v{i:04d}", float(x), float(y), float(t + i * self.ARRIVAL_S))
                )
        events.sort(key=lambda e: (e.t, e.object_id))
        ticks = [preroll_end + (k + 0.5) * self.TICK_S for k in range(n)]
        self.phases = [StreamPhase(events, ticks, preroll_end, self.WINDOW_S, self.work_dir)]


class FanoutTaxi(Workload):
    name = "fanout-taxi"
    latency_phase = 1
    #: One taxi starts every ``SLOT_S``; the fleet is large enough that a
    #: run's queries are mostly distinct taxis.
    FLEET = 180
    SLOT_S = 30.0
    CITY_TAXIS = 15

    def build(self):
        n_matrices = self.scaled(self.seconds, 0.35, 1)
        n_queries = self.scaled(self.seconds, 24.0, MIN_LATENCY_OPS)
        corpora = taxi_corpora(self.seed, n_matrices)
        warm = taxi_corpora(sub_seed(self.seed, 2), 1)[0][:6]
        # Each taxi dataset draws its own road network; a new city every
        # CITY_TAXIS taxis (after the previous city's last start) keeps one
        # seed's network from setting a whole run's cost.
        fleet = []
        span = self.CITY_TAXIS * self.SLOT_S
        for c in range(self.FLEET // self.CITY_TAXIS):
            city = taxi_dataset(
                n_trajectories=self.CITY_TAXIS, seed=sub_seed(self.seed, 6, c), time_window=span
            )
            fleet += [
                t.shifted(dt=c * span).with_object_id(f"c{c}-{t.object_id}")
                for t in regular_schedule(city.trajectories, self.SLOT_S, TAXI_POINTS)
            ]
        halves = [alternate_split(t) for t in fleet]
        gallery = [second for _first, second in halves]
        order = np.random.default_rng(sub_seed(self.seed, 7)).permutation(self.FLEET)
        queries = [fresh_copy(halves[int(order[k % self.FLEET])][0]) for k in range(n_queries)]
        warm_query = halves[int(order[-1])][0]
        self.phases = [
            # Its cells are pinned bit for bit to the serial path, which
            # pairwise-taxi pins to the oracle.
            MatrixPhase(corpora, warm, 2, oracle_cells=0, seed=self.seed),
            LinkPhase(gallery, queries, warm_query, TAXI_GRID, cluster_shards=2),
        ]


WORKLOADS = {w.name: w for w in (PairwiseTaxi, LinkMall, StreamMall, FanoutTaxi)}


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    """One pass's timings: raw, and scaled to the reference host speed."""

    setup_s: float = 0.0
    setup_raw_s: float = 0.0
    wall_s: float = 0.0
    wall_raw_s: float = 0.0
    peak_rss_mb: float = 0.0
    worker_cpu_s: float = 0.0


def run_pass(
    workload: Workload,
    setup_repeats: int,
    recorder=None,
    min_setup_s: float = SETUP_MIN_S,
    sample: bool = True,
) -> PassResult:
    """Set up and time every phase; the checks run later (:func:`check`).

    Every set-up and operation is timed by :class:`Calibrator`, which
    scales it to the reference host speed; ``sample=False`` keeps its
    in-call sampler out of the timed calls (see :mod:`calib`).
    """
    result = PassResult()
    cal = Calibrator(sample)
    worker_peak = 0.0
    for phase in workload.phases:
        phase.ops = []
        setups: list[tuple[float, float]] = []
        state = None
        while True:
            procs.reap(stop_tracker=True)
            state, raw, scaled = cal.time(phase.setup, workers=phase.workers > 0)
            setups.append((raw, scaled))
            if len(setups) >= setup_repeats and (
                sum(t for t, _ in setups) >= min_setup_s or len(setups) >= SETUP_MAX_REPEATS
            ):
                break
            phase.teardown(state)
            state = None
        result.setup_raw_s += statistics.median(t for t, _ in setups)
        result.setup_s += statistics.median(t for _, t in setups)
        # Stragglers from the set-up would steal CPU from the timer.  Live
        # workers hold shared memory, which needs the resource tracker.
        pids = phase.worker_pids(state)
        procs.reap(keep=pids, stop_tracker=not pids)
        cpu0 = sum(procs.proc_cpu_s(pid) for pid in pids)
        for k in range(phase.n_ops):
            if recorder is not None:
                recorder.request = k
            (output, pairs), raw, scaled = cal.time(
                phase.run, state, k, workers=phase.workers > 0
            )
            phase.ops.append(Op(raw, output, pairs, scaled=scaled))
            result.wall_s += scaled
            result.wall_raw_s += raw
            phase.after_op(state, k, output)
        result.worker_cpu_s += sum(procs.proc_cpu_s(pid) for pid in pids) - cpu0
        worker_peak = max(worker_peak, procs.peak_rss_mb(pids))
        phase.teardown(state)
        procs.reap(stop_tracker=True)
    result.peak_rss_mb = max(worker_peak, procs.peak_rss_mb())
    return result


def check(workload: Workload, perturb: bool) -> None:
    for phase in workload.phases:
        phase.check(perturb)


def fingerprint(workload: Workload) -> dict[str, int]:
    keys = ("matrices", "pairs", "queries", "survivors", "ticks", "sightings",
            "wal_records", "stream_pairs")
    fp = dict.fromkeys(keys, 0)
    for phase in workload.phases:
        for key, value in phase.fingerprint().items():
            fp[key] += value
    return fp


def end_to_end(workload: Workload, result: PassResult, raw: bool = False) -> dict[str, float]:
    """The end-to-end metrics; ``raw`` gives unscaled timings."""
    ops = [op for phase in workload.phases for op in phase.ops]
    failed = sum(1 for op in ops if op.failures)

    def seconds(op: Op) -> float:
        return op.seconds if raw else op.scaled

    pairs_phase = workload.phases[0]
    latency_ms = [seconds(op) * 1000.0 for op in workload.phases[workload.latency_phase].ops]
    return {
        "setup_s": result.setup_raw_s if raw else result.setup_s,
        "peak_rss_mb": result.peak_rss_mb,
        "success_rate": (len(ops) - failed) / len(ops),
        "pairs_per_s": sum(op.pairs for op in pairs_phase.ops)
        / sum(seconds(op) for op in pairs_phase.ops),
        "op_p50_ms": percentile(latency_ms, 50),
        "op_p90_ms": percentile(latency_ms, 90),
    }
