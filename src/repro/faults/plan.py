"""Declarative fault plans for the DES/protocol stack.

A :class:`FaultPlan` is pure data -- no callables, fully picklable --
describing *what goes wrong* in one scenario configuration:

* **fail-silent schedules**: named satellites go fail-silent at given
  times (the paper's failure model);
* **successor failures**: every satellite after the initial detector
  (optionally capped at a count) goes fail-silent at a given time --
  the worst case for OAQ's coordination chain, which degrades it to
  BAQ behaviour on an underlapping plane;
* **crosslink loss**: i.i.d. per-message erasure, plus per-link rates
  (with ``"*"`` wildcards) for asymmetric degradation;
* **downlink blackout windows**: intervals during which every message
  to the ground station is lost (ground-segment outage);
* **membership-view staleness**: the coordination layer picks the next
  peer from a failure view that lags reality by a fixed delay, instead
  of the default static next-in-visit-order rule.

Plans are *resolved* against a concrete scenario by
:mod:`repro.faults.injector` and executed in bulk by
:mod:`repro.faults.campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, check_fields, require_finite

__all__ = ["FaultPlan", "GROUND", "ANY"]

#: Destination name of the satellite-to-ground downlink.
GROUND = "ground"

#: Wildcard endpoint for per-link loss entries.
ANY = "*"

_LinkLoss = Tuple[str, str, float]
_Window = Tuple[float, float]


def _real(field: str, value: object) -> float:
    """``value`` as a float, if it is a finite number (NaN would compare
    False everywhere and silently mean "never")."""
    return float(require_finite(field, value))


def _entries(field: str, value: object, arity: int) -> list:
    """``value`` as a list of ``arity``-tuples, or a
    :class:`ConfigurationError` naming ``field``."""
    items = value.items() if isinstance(value, Mapping) else value
    try:
        entries = [tuple(item) for item in items]
    except TypeError:
        raise ConfigurationError(
            f"{field} must be a sequence of {arity}-field entries, got {value!r}"
        ) from None
    for entry in entries:
        if len(entry) != arity:
            raise ConfigurationError(
                f"{field} entries need {arity} fields, got {list(entry)!r}"
            )
    return entries


def _as_fail_silent(value: object) -> Tuple[Tuple[str, float], ...]:
    return tuple(
        sorted(
            (str(name), _real(f"fail_silent time for {name!r}", time))
            for name, time in _entries("fail_silent", value, 2)
        )
    )


def _as_link_loss(value: object) -> Tuple[_LinkLoss, ...]:
    return tuple(
        (str(source), str(destination), _real("link_loss probability", p))
        for source, destination, p in _entries("link_loss", value, 3)
    )


def _as_windows(value: object) -> Tuple[_Window, ...]:
    return tuple(
        sorted(
            (
                _real("downlink_blackouts start", start),
                _real("downlink_blackouts end", end),
            )
            for start, end in _entries("downlink_blackouts", value, 2)
        )
    )


@dataclass(frozen=True)
class FaultPlan:
    """One named fault configuration (see the module docstring).

    Attributes
    ----------
    name:
        Identifier used in campaign tables and golden files.
    fail_silent:
        ``(satellite, time)`` pairs: the node goes fail-silent at
        ``time`` minutes (accepts a mapping too; normalised to a
        sorted tuple).
    fail_successors_at:
        If set, every satellite *after the initial detector* in visit
        order goes fail-silent at this time (in addition to
        ``fail_silent`` entries).
    fail_successor_count:
        Caps how many successors ``fail_successors_at`` affects
        (None = all of them).
    crosslink_loss:
        i.i.d. loss probability applied to every message.
    link_loss:
        ``(source, destination, probability)`` triples adding loss on
        specific links; ``"*"`` matches any endpoint.  Multiple
        matching entries act as independent erasure channels.
    downlink_blackouts:
        ``[start, end)`` windows during which every message to
        ``ground`` is lost.
    membership_staleness:
        If set, next-peer selection uses a failure view that lags the
        true failure times by this many minutes (0 = omniscient view
        that skips known-failed satellites immediately).
    """

    name: str = "fault-free"
    fail_silent: Tuple[Tuple[str, float], ...] = ()
    fail_successors_at: Optional[float] = None
    fail_successor_count: Optional[int] = None
    crosslink_loss: float = 0.0
    link_loss: Tuple[_LinkLoss, ...] = ()
    downlink_blackouts: Tuple[_Window, ...] = ()
    membership_staleness: Optional[float] = None

    def __post_init__(self) -> None:
        check_fields(self)
        object.__setattr__(self, "fail_silent", _as_fail_silent(self.fail_silent))
        object.__setattr__(self, "link_loss", _as_link_loss(self.link_loss))
        object.__setattr__(
            self, "downlink_blackouts", _as_windows(self.downlink_blackouts)
        )
        for field in ("crosslink_loss", "fail_successors_at", "membership_staleness"):
            value = getattr(self, field)
            if value is not None:
                object.__setattr__(self, field, float(value))
        if not self.name:
            raise ConfigurationError("a fault plan needs a non-empty name")
        for satellite, time in self.fail_silent:
            if time < 0.0:
                raise ConfigurationError(
                    f"fail-silent time for {satellite!r} must be >= 0, got {time}"
                )
        if self.fail_successors_at is not None and self.fail_successors_at < 0.0:
            raise ConfigurationError(
                f"fail_successors_at must be >= 0, got {self.fail_successors_at}"
            )
        if self.fail_successor_count is not None:
            if self.fail_successors_at is None:
                raise ConfigurationError(
                    "fail_successor_count requires fail_successors_at"
                )
            if self.fail_successor_count < 1:
                raise ConfigurationError(
                    f"fail_successor_count must be >= 1, got "
                    f"{self.fail_successor_count}"
                )
        if not 0.0 <= self.crosslink_loss <= 1.0:
            raise ConfigurationError(
                f"crosslink_loss must be in [0, 1], got {self.crosslink_loss}"
            )
        for source, destination, probability in self.link_loss:
            if not 0.0 <= probability <= 1.0:
                raise ConfigurationError(
                    f"link loss {source!r}->{destination!r} must be in "
                    f"[0, 1], got {probability}"
                )
        for start, end in self.downlink_blackouts:
            if start < 0.0 or end <= start:
                raise ConfigurationError(
                    f"blackout windows need 0 <= start < end, got "
                    f"[{start}, {end})"
                )
        if self.membership_staleness is not None and self.membership_staleness < 0.0:
            raise ConfigurationError(
                "membership_staleness must be >= 0, got "
                f"{self.membership_staleness}"
            )

    # ------------------------------------------------------------------
    # JSON-friendly serialization (used by the scenario corpus)
    # ------------------------------------------------------------------
    def to_dict(self) -> "dict[str, object]":
        """Pure-data dictionary representation, round-trippable through
        :meth:`from_dict` (``FaultPlan.from_dict(plan.to_dict()) ==
        plan``).  Tuples become lists so the result serialises as plain
        JSON."""
        return {
            "name": self.name,
            "fail_silent": [list(item) for item in self.fail_silent],
            "fail_successors_at": self.fail_successors_at,
            "fail_successor_count": self.fail_successor_count,
            "crosslink_loss": self.crosslink_loss,
            "link_loss": [list(item) for item in self.link_loss],
            "downlink_blackouts": [list(item) for item in self.downlink_blackouts],
            "membership_staleness": self.membership_staleness,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (validation runs
        again, so a hand-edited dictionary is checked like any other
        constructor call)."""
        known = {field.name for field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault-plan fields: {sorted(unknown)}"
            )
        if "name" not in data:
            raise ConfigurationError("fault-plan field 'name' is missing")
        return cls(**data)

    # ------------------------------------------------------------------
    # Queries used by the injector
    # ------------------------------------------------------------------
    @property
    def is_fault_free(self) -> bool:
        """Whether this plan injects nothing at all."""
        return (
            not self.fail_silent
            and self.fail_successors_at is None
            and self.crosslink_loss == 0.0
            and not self.link_loss
            and not self.downlink_blackouts
            and self.membership_staleness is None
        )

    def link_probability(self, source: str, destination: str) -> float:
        """Combined loss probability of the ``link_loss`` entries
        matching one link: independent erasure channels."""
        survive = 1.0
        for src, dst, probability in self.link_loss:
            if src in (source, ANY) and dst in (destination, ANY):
                survive *= 1.0 - probability
        return 1.0 - survive

    def failure_times(
        self, names: Sequence[str], detector: str
    ) -> "dict[str, float]":
        """Resolve the full ``satellite -> fail time`` schedule for a
        concrete visit order, expanding ``fail_successors_at`` relative
        to ``detector``.  Explicit ``fail_silent`` entries win over the
        successor rule (earliest time wins when both apply)."""
        times = dict(self.fail_silent)
        unknown = set(times) - set(names)
        if unknown:
            raise ConfigurationError(
                f"fail-silent entries for unknown satellites: {sorted(unknown)}"
            )
        if self.fail_successors_at is not None:
            if detector not in names:
                raise ConfigurationError(
                    f"detector {detector!r} is not among {list(names)}"
                )
            successors = list(names[list(names).index(detector) + 1 :])
            if self.fail_successor_count is not None:
                successors = successors[: self.fail_successor_count]
            for name in successors:
                if name in times:
                    times[name] = min(times[name], self.fail_successors_at)
                else:
                    times[name] = self.fail_successors_at
        return times

    # ------------------------------------------------------------------
    # Fluent helpers for building plan batteries
    # ------------------------------------------------------------------
    @classmethod
    def fault_free(cls) -> "FaultPlan":
        """The no-fault reference plan."""
        return cls()

    @classmethod
    def lossy(cls, probability: float) -> "FaultPlan":
        """Uniform i.i.d. crosslink/downlink loss."""
        return cls(name=f"loss-{probability:g}", crosslink_loss=probability)

    @classmethod
    def successors_fail_silent(
        cls,
        at: float = 0.0,
        *,
        count: Optional[int] = None,
        name: Optional[str] = None,
    ) -> "FaultPlan":
        """Every satellite after the detector fails at ``at`` minutes."""
        if name is None:
            suffix = "all" if count is None else str(count)
            name = f"successors-fail-{suffix}"
        return cls(
            name=name, fail_successors_at=at, fail_successor_count=count
        )

    @classmethod
    def downlink_blackout(cls, start: float, end: float) -> "FaultPlan":
        """Ground-segment outage over ``[start, end)`` minutes."""
        return cls(
            name=f"blackout-{start:g}-{end:g}", downlink_blackouts=((start, end),)
        )
