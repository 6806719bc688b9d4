"""Analytic models of the paper's Section 4: closed-form conditional
QoS distributions, the SAN-based orbital-plane capacity model, and the
Eq. (3) composition."""

from repro.analytic.capacity import (
    CapacityModelConfig,
    build_capacity_san,
    capacity_cache_stats,
    capacity_distribution,
    capacity_transient,
    clear_capacity_caches,
)
from repro.analytic.composition import compose
from repro.analytic.multiplane import best_of_planes, multi_plane_distribution
from repro.analytic.qos_model import (
    conditional_distribution,
    conditional_distribution_general,
    g2_oaq,
    g3_baq,
    g3_oaq,
    miss_probability,
    window_success_integral,
)
from repro.analytic.solve_cache import CacheStats, LRUSolveCache

__all__ = [
    "CacheStats",
    "CapacityModelConfig",
    "LRUSolveCache",
    "build_capacity_san",
    "capacity_cache_stats",
    "capacity_distribution",
    "capacity_transient",
    "clear_capacity_caches",
    "best_of_planes",
    "compose",
    "conditional_distribution",
    "conditional_distribution_general",
    "g2_oaq",
    "g3_baq",
    "g3_oaq",
    "miss_probability",
    "multi_plane_distribution",
    "window_success_integral",
]
