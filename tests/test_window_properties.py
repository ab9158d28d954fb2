"""Property tests for the local-window FFT bridge and the pre-resolved pair loop.

Three configurations stress the window geometry differently:

* ``taxi`` — 100 m cells on a 26×26 grid: kernels of a few cells, so the
  window is a small box around the segment;
* ``mall`` — 3 m cells with slow walkers and long gaps: the kernel spans
  the whole grid, so the window is the whole grid;
* ``nonsquare`` — a 30×10 grid, where rows and columns clip differently.

In each, three properties hold:

1. ``stp_batch`` over random subsets, permutations and duplicates of query
   times equals per-time ``stp`` on an independent estimator, bit for bit;
2. ``STS.pairwise`` cells equal ``STS.similarity`` bit for bit, and pairs
   whose time spans do not overlap score exactly ``0.0``;
3. ``fft`` agrees with ``dense`` to ``FFT_DENSE_ATOL`` per cell when both
   evaluate the KDE exactly (the interpolation table is a separate,
   mode-independent approximation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.grid import Grid
from repro.core.noise import GaussianNoiseModel
from repro.core.speed import KDESpeedModel
from repro.core.stprob import TrajectorySTP
from repro.core.sts import STS
from repro.core.trajectory import Trajectory
from repro.core.transition import SpeedTransitionModel

#: Largest per-cell gap between ``fft`` and ``dense`` distributions.  The
#: FFT round-off is ~1e-16 of the kernel peak; it reaches ~1e-8 only in
#: bridges whose mass sits in the far tails of both noise planes.
FFT_DENSE_ATOL = 1e-7

PROPERTY_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@dataclass(frozen=True)
class Config:
    grid: Grid
    sigma: float
    gaps: tuple[float, float]
    speeds: tuple[float, float]

    def noise(self) -> GaussianNoiseModel:
        return GaussianNoiseModel(self.sigma)


CONFIGS = {
    "taxi": Config(Grid(0, 0, 2600, 2600, 100.0), 100.0, (10.0, 40.0), (3.0, 15.0)),
    "mall": Config(Grid(0, 0, 60, 48, 3.0), 3.0, (20.0, 120.0), (0.3, 1.5)),
    "nonsquare": Config(Grid(0, 0, 3000, 1000, 100.0), 150.0, (10.0, 60.0), (2.0, 20.0)),
}


@st.composite
def trajectories(draw, config: Config, start: float = 0.0, max_points: int = 6):
    """A random walk inside the grid with gaps and speeds from ``config``."""
    grid = config.grid
    n = draw(st.integers(2, max_points))
    gaps = draw(st.lists(st.floats(*config.gaps), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(0.0, grid.max_x - 1e-6))
    y = draw(st.floats(0.0, grid.max_y - 1e-6))
    xs, ys, ts = [x], [y], [start]
    for gap in gaps:
        speed = draw(st.floats(*config.speeds))
        heading = draw(st.floats(0.0, 2.0 * np.pi))
        xs.append(float(np.clip(xs[-1] + speed * gap * np.cos(heading), 0.0, grid.max_x - 1e-6)))
        ys.append(float(np.clip(ys[-1] + speed * gap * np.sin(heading), 0.0, grid.max_y - 1e-6)))
        ts.append(ts[-1] + gap)
    return Trajectory.from_arrays(xs, ys, ts)


@st.composite
def trajectory_and_times(draw, config: Config):
    """A trajectory and a query list mixing observed, bridged, duplicated
    and out-of-span times in random order."""
    traj = draw(trajectories(config))
    stamps = traj.timestamps
    fractions = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=12))
    segments = draw(
        st.lists(st.integers(0, len(stamps) - 2), min_size=len(fractions), max_size=len(fractions))
    )
    bridged = [stamps[k] + f * (stamps[k + 1] - stamps[k]) for k, f in zip(segments, fractions)]
    pool = [*bridged, *stamps.tolist(), stamps[0] - 7.0, stamps[-1] + 7.0]
    times = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    return traj, times


def make_stp(config: Config, traj: Trajectory, mode: str, approx: bool = True) -> TrajectorySTP:
    model = SpeedTransitionModel(KDESpeedModel.from_trajectory(traj, approx=approx))
    return TrajectorySTP(traj, config.grid, config.noise(), model, mode=mode)


@pytest.mark.parametrize("name", sorted(CONFIGS))
class TestWindowProperties:
    def test_batch_equals_per_time_bitwise(self, name):
        config = CONFIGS[name]

        @PROPERTY_SETTINGS
        @given(data=trajectory_and_times(config), order=st.randoms(use_true_random=False))
        def check(data, order):
            traj, times = data
            shuffled = list(times)
            order.shuffle(shuffled)
            batch = make_stp(config, traj, "fft").stp_batch(times)
            reordered = make_stp(config, traj, "fft").stp_batch(shuffled)
            single = make_stp(config, traj, "fft")
            by_time = {t: single.stp(t) for t in times}
            for t, (cells, probs) in zip(times, batch):
                assert np.array_equal(cells, by_time[t][0])
                assert np.array_equal(probs, by_time[t][1])
            for t, (cells, probs) in zip(shuffled, reordered):
                assert np.array_equal(cells, by_time[t][0])
                assert np.array_equal(probs, by_time[t][1])

        check()

    def test_pairwise_equals_similarity_bitwise(self, name):
        config = CONFIGS[name]
        late = 1.0e5  # far beyond any drawn span: disjoint from the others

        @PROPERTY_SETTINGS
        @given(
            corpus=st.lists(trajectories(config, max_points=5), min_size=2, max_size=3),
            loner=trajectories(config, start=late, max_points=3),
        )
        def check(corpus, loner):
            gallery = [*corpus, loner]
            matrix = STS(config.grid, config.noise()).pairwise(gallery)
            for i in range(len(gallery)):
                for j in range(i, len(gallery)):
                    ref = STS(config.grid, config.noise()).similarity(gallery[i], gallery[j])
                    assert matrix[i, j] == ref and matrix[j, i] == ref
            assert all(matrix[k, -1] == 0.0 for k in range(len(corpus)))
            rect = STS(config.grid, config.noise()).pairwise(corpus, queries=[loner, corpus[0]])
            for j, g in enumerate(corpus):
                assert rect[0, j] == 0.0
                assert rect[1, j] == STS(config.grid, config.noise()).similarity(corpus[0], g)

        check()

    def test_fft_agrees_with_dense(self, name):
        config = CONFIGS[name]

        @PROPERTY_SETTINGS
        @given(data=trajectory_and_times(config))
        def check(data):
            traj, times = data
            fft = make_stp(config, traj, "fft", approx=False)
            dense = make_stp(config, traj, "dense", approx=False)
            for t in times:
                np.testing.assert_allclose(
                    fft.stp_dense(t), dense.stp_dense(t), rtol=0.0, atol=FFT_DENSE_ATOL
                )

        check()
