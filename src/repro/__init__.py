"""repro -- full reproduction of "Opportunity-Adaptive QoS Enhancement
in Satellite Constellations: A Case Study" (Tai, Tso, Alkalai, Chau,
Sanders; DSN 2003).

Subpackages
-----------
``repro.core``
    QoS spectrum and measures, schemes (OAQ/BAQ), configuration and the
    timing distributions.
``repro.geometry``
    Orbital-plane footprint geometry (``Tr[k]``, ``Tc``, ``L1``, ``L2``,
    ``M[k]``, Theorems 1-2).
``repro.analytic``
    Closed-form QoS model, SAN capacity model, Eq. (3) composition and
    the :class:`~repro.analytic.framework.OAQFramework` facade.
``repro.san``
    Stochastic-activity-network engine (the UltraSAN substitute).
``repro.orbits``
    Orbital mechanics and coverage analytics (the SOAP substitute).
``repro.geolocation``
    Doppler/TOA measurements, iterative WLS, sequential localization.
``repro.desim`` / ``repro.protocol``
    Discrete-event kernel and the OAQ coordination protocol.
``repro.simulation``
    Monte-Carlo and end-to-end cross-validation scenarios.
``repro.experiments``
    Regeneration of every table and figure of the paper's evaluation.

Quick start::

    from repro import OAQFramework, EvaluationParams, Scheme, QoSLevel

    params = EvaluationParams(node_failure_rate_per_hour=5e-5)
    framework = OAQFramework(params)
    print(framework.compare_schemes(QoSLevel.SEQUENTIAL_DUAL))
"""

from repro.analytic.framework import OAQFramework
from repro.core import (
    ConstellationConfig,
    EvaluationParams,
    QoSDistribution,
    QoSLevel,
    REFERENCE_CONSTELLATION,
    Scheme,
)
from repro.geometry import PlaneGeometry

__version__ = "1.0.0"

__all__ = [
    "ConstellationConfig",
    "EvaluationParams",
    "OAQFramework",
    "PlaneGeometry",
    "QoSDistribution",
    "QoSLevel",
    "REFERENCE_CONSTELLATION",
    "Scheme",
    "__version__",
]
