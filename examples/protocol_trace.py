"""Trace one OAQ coordination episode message by message.

Walks through the paper's Figure 3 storyline on a degraded
(underlapping) plane: the first satellite detects the signal, computes
a preliminary geolocation, invites the next-arriving peer over the
crosslink, the peer refines the result and the 'coordination done'
notification propagates back while the final alert goes to the ground.
A second scenario shows Figure 4: the signal dies early and the
detector's wait timeout produces the guaranteed report.

Run with::

    python examples/protocol_trace.py
"""

from repro.core.config import EvaluationParams
from repro.faults.injector import fault_schedule
from repro.faults.plan import FaultPlan
from repro.protocol.messages import (
    AlertMessage,
    CoordinationDone,
    CoordinationRequest,
)
from repro.simulation.batch import ScenarioTemplate


def describe(record) -> str:
    message = record.message
    stamp = f"t={record.time_delivered:6.3f} min"
    if isinstance(message, CoordinationRequest):
        return (
            f"{stamp}  {record.source} -> {record.destination}: coordination "
            f"request (ordinal {message.next_ordinal}, preliminary error "
            f"{message.estimate.error_km:.1f} km)"
        )
    if isinstance(message, CoordinationDone):
        return (
            f"{stamp}  {record.source} -> {record.destination}: coordination "
            f"done (final by {message.terminated_by})"
        )
    if isinstance(message, AlertMessage):
        return (
            f"{stamp}  {record.source} -> ground: ALERT level "
            f"{message.estimate.qos_level}, error "
            f"{message.estimate.error_km:.1f} km, sent "
            f"{message.latency:.2f} min after detection"
        )
    return f"{stamp}  {record.source} -> {record.destination}: {message!r}"


def run_scenario(title: str, seed: int, plan=None, **kwargs) -> None:
    params = EvaluationParams(signal_termination_rate=0.2)
    geometry = params.constellation.plane_geometry(9)  # degraded: underlap
    template = ScenarioTemplate(geometry, params, record_log=True)
    if plan is not None:
        kwargs["faults"] = fault_schedule(plan, template.names)
    replication = template.replicate(seed, **kwargs)
    outcome = replication.run()
    print(title)
    print("-" * len(title))
    print(
        f"signal: onset at cycle position {replication.onset_position:.2f} "
        f"min, duration {replication.signal.duration:.2f} min"
    )
    for record in outcome.message_log:
        if not record.dropped:
            print("  " + describe(record))
        else:
            print(
                f"  t={record.time_sent:6.3f} min  {record.source} -> "
                f"{record.destination}: DROPPED (fail-silent)"
            )
    print(f"achieved QoS level: {outcome.achieved_level.name}")
    print()


def main() -> None:
    # Figure 3: successful sequential coordination.  The signal starts
    # near the end of the covered interval, so the next satellite
    # arrives just 2 minutes later -- inside the window of opportunity.
    run_scenario(
        "Sequential coordination (Figure 3)",
        onset_position=8.0,
        signal_duration=6.0,
        seed=1,
    )

    # Figure 4: the signal stops before the invited peer arrives; the
    # detector's timeout guarantees the report at the deadline.
    run_scenario(
        "Guaranteed report after TC-3 (Figure 4)",
        onset_position=8.0,
        signal_duration=0.5,
        seed=2,
    )

    # Fail-silent peer: same situation, but the invited satellite dies.
    # Backward messaging (done-propagation) still delivers on time.
    run_scenario(
        "Fail-silent successor, tolerated by backward messaging",
        onset_position=8.0,
        signal_duration=6.0,
        plan=FaultPlan(name="s2-dies", fail_silent={"S2": 0.5}),
        seed=3,
    )


if __name__ == "__main__":
    main()
