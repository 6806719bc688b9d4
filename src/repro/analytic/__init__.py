"""Analytic models of the paper's Section 4: closed-form conditional
QoS distributions, the SAN-based orbital-plane capacity model, and the
Eq. (3) composition."""

from repro.analytic.capacity import (
    CapacityModelConfig,
    build_capacity_san,
    capacity_cache_stats,
    capacity_caches_disabled,
    capacity_distribution,
    capacity_distribution_exponential,
    capacity_distribution_simulated,
    capacity_transient,
    clear_capacity_caches,
)
from repro.analytic.solve_cache import CacheStats, LRUSolveCache
from repro.analytic.composition import compose, composed_distribution
from repro.analytic.multiplane import best_of_planes, multi_plane_distribution
from repro.analytic.distributions import (
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
    HyperExponential,
    Uniform,
    Weibull,
)
from repro.analytic.qos_model import (
    conditional_distribution,
    conditional_distribution_general,
    g2_oaq,
    g3_baq,
    g3_oaq,
    miss_probability,
    window_success_integral,
)

__all__ = [
    "CacheStats",
    "CapacityModelConfig",
    "Deterministic",
    "Distribution",
    "Erlang",
    "Exponential",
    "HyperExponential",
    "LRUSolveCache",
    "Uniform",
    "Weibull",
    "build_capacity_san",
    "capacity_cache_stats",
    "capacity_caches_disabled",
    "capacity_distribution",
    "capacity_distribution_exponential",
    "capacity_distribution_simulated",
    "capacity_transient",
    "clear_capacity_caches",
    "best_of_planes",
    "compose",
    "composed_distribution",
    "conditional_distribution",
    "conditional_distribution_general",
    "g2_oaq",
    "g3_baq",
    "g3_oaq",
    "miss_probability",
    "multi_plane_distribution",
    "window_success_integral",
]
