"""Core OAQ concepts: QoS spectrum and measures, schemes,
configuration, opportunity calculus and the timing distributions."""

from repro.core.config import (
    REFERENCE_CONSTELLATION,
    ConstellationConfig,
    EvaluationParams,
)
from repro.core.opportunity import max_chain_length
from repro.core.qos import QOS_SPECTRUM, QoSDistribution, QoSLevel
from repro.core.schemes import Scheme

__all__ = [
    "ConstellationConfig",
    "EvaluationParams",
    "QOS_SPECTRUM",
    "QoSDistribution",
    "QoSLevel",
    "REFERENCE_CONSTELLATION",
    "Scheme",
    "max_chain_length",
]
