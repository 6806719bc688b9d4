"""Scenario-case schema and on-disk corpus format.

A **scenario case** is one fully-specified evaluation cell: a
constellation design (a Walker-style plane population), the paper's
Section-4 evaluation knobs, a capacity-model parameterisation, a
signal-duration model, a traffic intensity, a QoS scheme and --
optionally -- a fault plan.  Cases are pure frozen data, JSON
round-trippable (``case == case_from_dict(case_to_dict(case))``) and
rendered to *canonical* bytes (sorted keys, two-space indent, trailing
newline) so a corpus regenerated from its recorded seed is
byte-identical to the checked-in one.

A **corpus** is a directory::

    <corpus>/
      metadata.json        # CorpusMetadata: schema version, seed, counts
      cases/<case_id>.json # one canonical JSON file per case

See ``docs/SCENARIOS.md`` for the field-by-field schema description and
the rules for adding a scenario family.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.analytic.capacity import CapacityModelConfig
from repro.core.config import ConstellationConfig, EvaluationParams
from repro.core.distributions import (
    Deterministic,
    Distribution,
    Exponential,
    HyperExponential,
)
from repro.core.schemes import Scheme
from repro.errors import (
    ConfigurationError,
    check_fields,
    require_integer,
    require_text,
)
from repro.faults.plan import FaultPlan
from repro.geometry.plane import PlaneGeometry

__all__ = [
    "SCHEMA_VERSION",
    "CHECKS",
    "DURATION_MODELS",
    "ScenarioCase",
    "CorpusMetadata",
    "duration_distribution",
    "case_to_dict",
    "case_from_dict",
    "dumps_canonical",
    "dump_case",
    "load_case",
    "load_json_file",
    "write_corpus",
    "read_corpus",
]

#: Version of the on-disk case/corpus layout.  Bump on any
#: backwards-incompatible field change and keep :func:`case_from_dict`
#: rejecting mismatches loudly.
SCHEMA_VERSION = 1

#: The per-cell conformance checks a case may declare (see
#: :mod:`repro.scenarios.runner` for their definitions).
CHECKS = (
    "analytic_vs_mc",
    "alert_deadline",
    "lumped_vs_counted",
    "lumped_vs_unlumped",
    "fault_campaign",
    "protocol_mc",
)

#: Supported signal-duration models (mean always ``1/mu``); the
#: hyperexponential mirrors the robustness experiment's bursty mixture
#: (rates ``[3r, 0.6r]``, equal weights, CV^2 = 17/9).
DURATION_MODELS = ("exponential", "hyperexponential", "deterministic")


def duration_distribution(kind: str, mean_minutes: float) -> Distribution:
    """The signal-duration :class:`Distribution` for ``kind`` with the
    given mean."""
    if mean_minutes <= 0:
        raise ConfigurationError(
            f"mean_minutes must be positive, got {mean_minutes}"
        )
    rate = 1.0 / mean_minutes
    if kind == "exponential":
        return Exponential(rate)
    if kind == "hyperexponential":
        return HyperExponential(
            rates=[3.0 * rate, 0.6 * rate], weights=[0.5, 0.5]
        )
    if kind == "deterministic":
        return Deterministic(mean_minutes)
    raise ConfigurationError(
        f"unknown duration model {kind!r}; expected one of {DURATION_MODELS}"
    )


@dataclass(frozen=True)
class ScenarioCase:
    """One corpus cell (see the module docstring).

    The constellation / evaluation / capacity fields mirror
    :class:`~repro.core.config.ConstellationConfig`,
    :class:`~repro.core.config.EvaluationParams` and
    :class:`~repro.analytic.capacity.CapacityModelConfig`; the
    remaining fields configure the Monte-Carlo side and declare which
    conformance checks apply to the cell.
    """

    case_id: str
    family: str
    # Constellation design ------------------------------------------------
    planes: int = 7
    active_per_plane: int = 14
    in_orbit_spares: int = 2
    orbit_period_minutes: float = 90.0
    coverage_time_minutes: float = 9.0
    # Evaluation parameters ----------------------------------------------
    deadline_minutes: float = 5.0
    signal_termination_rate: float = 0.2
    computation_rate: float = 30.0
    # Capacity model ------------------------------------------------------
    failure_rate_per_hour: float = 1e-5
    deployment_threshold: int = 10
    scheduled_deployment_hours: float = 30000.0
    replacement_latency_hours: float = 168.0
    stages: int = 24
    # Signal / scheme / traffic -------------------------------------------
    duration_model: str = "exponential"
    scheme: str = "OAQ"
    traffic_signals_per_hour: float = 40.0
    observation_hours: float = 500.0
    min_samples: int = 2_000
    max_samples: int = 200_000
    mc_seed: int = 0
    # Fault injection (protocol-level cells only) -------------------------
    fault_plan: Optional[FaultPlan] = None
    fault_runs: int = 80
    fault_capacity: int = 9
    # Declared conformance metrics ----------------------------------------
    checks: Tuple[str, ...] = ("analytic_vs_mc", "alert_deadline")
    confidence: float = 0.9999
    lumped_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        # Type checks first, so that the range checks below compare
        # numbers: a case read from JSON may hold any JSON value.
        check_fields(self)
        if not isinstance(self.checks, (list, tuple)) or not all(
            isinstance(check, str) for check in self.checks
        ):
            raise ConfigurationError(
                f"checks must be a list of check names, got {self.checks!r}"
            )
        if not self.case_id:
            raise ConfigurationError("case_id must be non-empty")
        if not self.family:
            raise ConfigurationError("family must be non-empty")
        if self.duration_model not in DURATION_MODELS:
            raise ConfigurationError(
                f"unknown duration model {self.duration_model!r}; "
                f"expected one of {DURATION_MODELS}"
            )
        if self.scheme not in Scheme.__members__:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; expected one of "
                f"{tuple(Scheme.__members__)}"
            )
        object.__setattr__(self, "checks", tuple(self.checks))
        unknown = set(self.checks) - set(CHECKS)
        if unknown:
            raise ConfigurationError(
                f"unknown checks {sorted(unknown)}; expected among {CHECKS}"
            )
        if "fault_campaign" in self.checks and self.fault_plan is None:
            raise ConfigurationError(
                "the fault_campaign check requires a fault_plan"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ConfigurationError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.lumped_tolerance <= 0.0:
            raise ConfigurationError(
                f"lumped_tolerance must be positive, got {self.lumped_tolerance}"
            )
        if self.stages < 1:
            raise ConfigurationError(f"stages must be >= 1, got {self.stages}")
        if self.traffic_signals_per_hour <= 0:
            raise ConfigurationError(
                "traffic_signals_per_hour must be positive, got "
                f"{self.traffic_signals_per_hour}"
            )
        if self.observation_hours <= 0:
            raise ConfigurationError(
                f"observation_hours must be positive, got {self.observation_hours}"
            )
        if not 1 <= self.min_samples <= self.max_samples:
            raise ConfigurationError(
                "need 1 <= min_samples <= max_samples, got "
                f"[{self.min_samples}, {self.max_samples}]"
            )
        if self.fault_runs < 1:
            raise ConfigurationError(
                f"fault_runs must be >= 1, got {self.fault_runs}"
            )
        if not 1 <= self.fault_capacity <= self.active_per_plane:
            raise ConfigurationError(
                "fault_capacity must be in [1, active_per_plane], got "
                f"{self.fault_capacity}"
            )
        if self.mc_seed < 0:
            raise ConfigurationError(f"mc_seed must be >= 0, got {self.mc_seed}")
        # The period and coverage time must be valid (positive, Tc <
        # theta) before the overlap limit divides by Tc.
        self.constellation()
        # The analytic model assumes at most *pairwise* footprint
        # overlap (L2 <= L1, paper Figure 5); triple coverage at full
        # strength (Tc > 2 * Tr[active]) is outside its domain.
        limit = PlaneGeometry.pairwise_overlap_limit(
            self.orbit_period_minutes, self.coverage_time_minutes
        )
        if self.active_per_plane > limit:
            raise ConfigurationError(
                f"active_per_plane must be <= {limit} = floor(2 * orbit_period "
                "/ coverage_time) (the QoS model covers at most pairwise "
                f"footprint overlap); got Tc={self.coverage_time_minutes}, "
                f"theta={self.orbit_period_minutes}, k={self.active_per_plane}"
            )
        # Delegate the heavy validation to the model configs: anything
        # the solvers would reject is rejected at case-construction
        # time, so a corpus on disk is runnable by construction.
        self.params()
        self.capacity_config()

    # ------------------------------------------------------------------
    # Derived model objects
    # ------------------------------------------------------------------
    def constellation(self) -> ConstellationConfig:
        """The constellation design of this case."""
        return ConstellationConfig(
            planes=self.planes,
            active_per_plane=self.active_per_plane,
            in_orbit_spares_per_plane=self.in_orbit_spares,
            orbit_period_minutes=self.orbit_period_minutes,
            coverage_time_minutes=self.coverage_time_minutes,
        )

    def params(self) -> EvaluationParams:
        """The evaluation parameters of this case."""
        return EvaluationParams(
            deadline_minutes=self.deadline_minutes,
            signal_termination_rate=self.signal_termination_rate,
            computation_rate=self.computation_rate,
            node_failure_rate_per_hour=self.failure_rate_per_hour,
            deployment_threshold=self.deployment_threshold,
            scheduled_deployment_hours=self.scheduled_deployment_hours,
            replacement_latency_hours=self.replacement_latency_hours,
            constellation=self.constellation(),
        )

    def capacity_config(self) -> CapacityModelConfig:
        """The orbital-plane capacity model of this case."""
        return CapacityModelConfig(
            full_capacity=self.active_per_plane,
            in_orbit_spares=self.in_orbit_spares,
            failure_rate_per_hour=self.failure_rate_per_hour,
            threshold=self.deployment_threshold,
            scheduled_period_hours=self.scheduled_deployment_hours,
            replacement_latency_hours=self.replacement_latency_hours,
        )

    def geometry(self, k: int) -> PlaneGeometry:
        """Plane geometry with ``k`` active satellites."""
        return self.constellation().plane_geometry(k)

    @property
    def scheme_enum(self) -> Scheme:
        """The :class:`Scheme` this case evaluates."""
        return Scheme[self.scheme]

    @property
    def samples(self) -> int:
        """Monte-Carlo sample count: the expected signal count over the
        observation window (traffic intensity x duration), clamped to
        ``[min_samples, max_samples]``."""
        expected = round(self.traffic_signals_per_hour * self.observation_hours)
        return int(min(self.max_samples, max(self.min_samples, expected)))

    def signal_duration(self) -> Distribution:
        """The signal-duration distribution (mean ``1/mu``)."""
        return duration_distribution(
            self.duration_model, 1.0 / self.signal_termination_rate
        )



# ----------------------------------------------------------------------
# JSON serialization
# ----------------------------------------------------------------------
def case_to_dict(case: ScenarioCase) -> Dict[str, object]:
    """Pure-data dictionary of ``case``, round-trippable through
    :func:`case_from_dict`."""
    data: Dict[str, object] = {"schema_version": SCHEMA_VERSION}
    for spec in fields(ScenarioCase):
        value = getattr(case, spec.name)
        if spec.name == "fault_plan":
            value = value.to_dict() if value is not None else None
        elif spec.name == "checks":
            value = list(value)
        data[spec.name] = value
    return data


def case_from_dict(data: Mapping[str, object]) -> ScenarioCase:
    """Rebuild a :class:`ScenarioCase` from :func:`case_to_dict` output
    (full validation runs again)."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"a case must be a JSON object, got {data!r}")
    payload = dict(data)
    version = payload.pop("schema_version", None)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported case schema_version {version!r}; this build "
            f"reads version {SCHEMA_VERSION}"
        )
    known = {spec.name for spec in fields(ScenarioCase)}
    unknown = set(payload) - known
    if unknown:
        raise ConfigurationError(f"unknown case fields: {sorted(unknown)}")
    missing = {"case_id", "family"} - set(payload)
    if missing:
        raise ConfigurationError(f"missing case fields: {sorted(missing)}")
    plan = payload.get("fault_plan")
    if plan is not None:
        if not isinstance(plan, Mapping):
            raise ConfigurationError(
                f"fault_plan must be an object or null, got {plan!r}"
            )
        payload["fault_plan"] = FaultPlan.from_dict(plan)
    return ScenarioCase(**payload)


def dumps_canonical(data: object) -> str:
    """Canonical JSON text: sorted keys, two-space indent, ``allow_nan``
    off (non-finite floats must be encoded explicitly upstream), one
    trailing newline.  Byte-identical across runs and platforms for
    equal inputs -- the property the golden-corpus pin relies on."""
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def dump_case(case: ScenarioCase) -> str:
    """Canonical JSON text of one case."""
    return dumps_canonical(case_to_dict(case))


def load_case(text: str) -> ScenarioCase:
    """Parse one case from JSON text."""
    return case_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Corpus-level metadata and directory layout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CorpusMetadata:
    """Provenance of one generated corpus.

    ``seed`` and ``n_cells`` are sufficient to regenerate the corpus
    byte-identically with the same package version; ``families`` pins
    the per-family cell allocation and ``git_describe`` (optional,
    filled only when requested at generation time) records the source
    tree the corpus was generated from.
    """

    name: str
    seed: int
    n_cells: int
    families: Tuple[Tuple[str, int], ...]
    schema_version: int = SCHEMA_VERSION
    generator: str = "repro.scenarios.generator"
    package_version: str = ""
    git_describe: Optional[str] = None

    def __post_init__(self) -> None:
        check_fields(self)
        require_integer("seed", self.seed, 0)
        require_integer("n_cells", self.n_cells, 0)
        for family, count in self.families:
            require_text("families name", family)
            require_integer(f"families count of {family!r}", count, 0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "seed": self.seed,
            "n_cells": self.n_cells,
            # A list of pairs, not an object: canonical JSON sorts
            # object keys, and the family *order* is part of the
            # regeneration contract (uneven splits hand the remainder
            # to the earliest families).
            "families": [[family, count] for family, count in self.families],
            "generator": self.generator,
            "package_version": self.package_version,
            "git_describe": self.git_describe,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CorpusMetadata":
        """Rebuild from :meth:`to_dict` output; a malformed field raises
        a :class:`ConfigurationError` naming it."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"corpus metadata must be a JSON object, got {data!r}"
            )
        version = data.get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported corpus schema_version {version!r}; this "
                f"build reads version {SCHEMA_VERSION}"
            )
        unknown = set(data) - {spec.name for spec in fields(cls)}
        if unknown:
            raise ConfigurationError(
                f"unknown corpus metadata fields: {sorted(unknown)}"
            )
        for required in ("name", "seed", "n_cells"):
            if required not in data:
                raise ConfigurationError(
                    f"corpus metadata field {required!r} is missing"
                )
        families = data.get("families", [])
        if not isinstance(families, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in families
        ):
            raise ConfigurationError(
                "families must be a list of [family, count] pairs, got "
                f"{families!r}"
            )
        return cls(
            name=data["name"],
            seed=data["seed"],
            n_cells=data["n_cells"],
            families=tuple((family, count) for family, count in families),
            schema_version=version,
            generator=data.get("generator", "repro.scenarios.generator"),
            package_version=data.get("package_version", ""),
            git_describe=data.get("git_describe"),
        )


def write_corpus(
    directory: str, metadata: CorpusMetadata, cases: List[ScenarioCase]
) -> None:
    """Write ``metadata.json`` + ``cases/<case_id>.json`` under
    ``directory`` (created if missing).  Case ids must be unique."""
    ids = [case.case_id for case in cases]
    if len(set(ids)) != len(ids):
        duplicates = sorted({i for i in ids if ids.count(i) > 1})
        raise ConfigurationError(f"duplicate case ids: {duplicates}")
    if metadata.n_cells != len(cases):
        raise ConfigurationError(
            f"metadata says {metadata.n_cells} cells, got {len(cases)}"
        )
    cases_dir = os.path.join(directory, "cases")
    os.makedirs(cases_dir, exist_ok=True)
    with open(os.path.join(directory, "metadata.json"), "w") as handle:
        handle.write(dumps_canonical(metadata.to_dict()))
    for case in cases:
        with open(os.path.join(cases_dir, f"{case.case_id}.json"), "w") as handle:
            handle.write(dump_case(case))


def load_json_file(path: str, parse: Callable[[object], object]):
    """``parse`` applied to the JSON in ``path``; unreadable JSON and
    every :class:`ConfigurationError` of ``parse`` name the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except ValueError as error:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigurationError(f"{path}: not valid JSON ({error})") from None
    try:
        return parse(data)
    except ConfigurationError as error:
        raise ConfigurationError(f"{path}: {error}") from None


def read_corpus(directory: str) -> Tuple[CorpusMetadata, List[ScenarioCase]]:
    """Load a corpus directory: ``(metadata, cases sorted by case_id)``.

    Consistency is enforced -- the file name must match the case id
    inside it and the metadata cell count must match the files found.
    A malformed file raises a :class:`ConfigurationError` naming the
    file and the field."""
    metadata_path = os.path.join(directory, "metadata.json")
    if not os.path.isfile(metadata_path):
        raise ConfigurationError(f"no corpus metadata at {metadata_path}")
    metadata = load_json_file(metadata_path, CorpusMetadata.from_dict)
    cases_dir = os.path.join(directory, "cases")
    if not os.path.isdir(cases_dir):
        raise ConfigurationError(
            f"{metadata_path}: the corpus has no cases directory {cases_dir}"
        )
    cases: List[ScenarioCase] = []
    for name in sorted(os.listdir(cases_dir)):
        if not name.endswith(".json"):
            continue
        case = load_json_file(os.path.join(cases_dir, name), case_from_dict)
        expected = name[: -len(".json")]
        if case.case_id != expected:
            raise ConfigurationError(
                f"case file {name!r} holds case_id {case.case_id!r}"
            )
        cases.append(case)
    if len(cases) != metadata.n_cells:
        raise ConfigurationError(
            f"{metadata_path}: metadata says {metadata.n_cells} cells "
            f"(n_cells), found {len(cases)} case files in {cases_dir}"
        )
    return metadata, cases
