"""The RF signal (target) being geolocated."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, check_fields

__all__ = ["Signal"]


@dataclass(frozen=True)
class Signal:
    """An emitter transmission with finite duration.

    Attributes
    ----------
    signal_id:
        Unique identifier (the protocol keys its per-signal state on
        it).
    start_time:
        Onset, in scenario minutes.
    duration:
        Emission length in minutes (TC-3 fires when it elapses).
    """

    signal_id: str
    start_time: float
    duration: float

    def __post_init__(self) -> None:
        check_fields(self)
        if self.duration < 0:
            raise ConfigurationError(f"duration must be >= 0, got {self.duration}")

    @property
    def end_time(self) -> float:
        """Time at which the signal stops."""
        return self.start_time + self.duration

    def active(self, time: float) -> bool:
        """Whether the signal is emitting at ``time``."""
        return self.start_time <= time < self.end_time
