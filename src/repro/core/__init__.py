"""Core STS machinery: data model, grid, noise, speed, transitions, measure."""

from .cache import LRUCache
from .colocation import colocation_batch, colocation_probability, sparse_inner
from .events import ColocationEvent, colocation_timeline, detect_colocation_events
from .grid import Grid
from .noise import (
    DeterministicNoiseModel,
    GaussianNoiseModel,
    NoiseModel,
    UniformDiskNoiseModel,
)
from .speed import GaussianSpeedModel, KDESpeedModel, SpeedModel, silverman_bandwidth
from .stprob import TrajectorySTP
from .sts import STS, sts_b, sts_f, sts_g, sts_n
from .transition import FrequencyTransitionModel, SpeedTransitionModel, TransitionModel
from .trajectory import Path, Trajectory, TrajectoryPoint

__all__ = [
    "Grid",
    "NoiseModel",
    "GaussianNoiseModel",
    "DeterministicNoiseModel",
    "UniformDiskNoiseModel",
    "SpeedModel",
    "KDESpeedModel",
    "GaussianSpeedModel",
    "silverman_bandwidth",
    "TransitionModel",
    "SpeedTransitionModel",
    "FrequencyTransitionModel",
    "TrajectorySTP",
    "colocation_probability",
    "colocation_batch",
    "sparse_inner",
    "LRUCache",
    "ColocationEvent",
    "colocation_timeline",
    "detect_colocation_events",
    "STS",
    "sts_n",
    "sts_g",
    "sts_f",
    "sts_b",
    "Trajectory",
    "TrajectoryPoint",
    "Path",
]
