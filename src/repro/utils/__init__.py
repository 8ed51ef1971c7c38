"""Shared utilities: RNG management, statistics, tables."""

from repro.utils.rng import RngFactory, as_generator, spawn_generators
from repro.utils.stats import (
    RunningStats,
    empirical_cdf,
    geometric_mean,
    lognormal_noise_factor,
)
from repro.utils.tables import format_table

__all__ = [
    "RngFactory",
    "as_generator",
    "spawn_generators",
    "RunningStats",
    "empirical_cdf",
    "geometric_mean",
    "lognormal_noise_factor",
    "format_table",
]
