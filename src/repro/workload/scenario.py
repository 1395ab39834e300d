"""Phased workload scenarios (the paper's 6-hour A → B → C schedule).

Beyond the workload skew itself, each phase can carry environment knobs the
event-driven transport and the simulator react to:

* ``fail_servers`` — how many randomly chosen servers abruptly fail when the
  phase begins (churn; recovery follows
  :meth:`~repro.core.protocol.ClashSystem.handle_server_failure`).
* ``join_rate`` / ``fail_rate`` — Poisson-arrival churn *within* the phase:
  servers join (:meth:`~repro.core.protocol.ClashSystem.handle_server_join`)
  and fail at seeded exponential inter-arrival times, scheduled as mid-phase
  events on the simulation engine for the event transport and drained at
  period boundaries for the inline and async transports.
* ``link_latency`` — a per-phase one-way message latency override, applied to
  the event transport's latency model for the duration of the phase.

All default to "off", so existing scenarios are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_non_negative, check_positive
from repro.workload.distributions import (
    WorkloadSpec,
    workload_a,
    workload_b,
    workload_c,
)

__all__ = [
    "ScenarioPhase",
    "PhasedScenario",
    "paper_scenario",
    "churn_latency_scenario",
]


@dataclass(frozen=True)
class ScenarioPhase:
    """One phase of a workload scenario.

    Attributes:
        spec: The workload active during the phase.
        duration: Phase length in seconds.
        fail_servers: Number of randomly selected servers that fail at the
            start of the phase (0 = no churn).
        join_rate: Poisson arrival rate (events/sec) of servers *joining*
            mid-phase; inter-arrival times are exponential draws from the
            simulator's seeded churn streams (0 = no joins).
        fail_rate: Poisson arrival rate (events/sec) of abrupt server
            *failures* mid-phase (0 = no mid-phase failures;
            ``fail_servers`` remains the phase-entry special case).
        link_latency: One-way message latency in seconds enforced while the
            phase is active (``None`` = keep the transport's current model).
    """

    spec: WorkloadSpec
    duration: float
    fail_servers: int = 0
    join_rate: float = 0.0
    fail_rate: float = 0.0
    link_latency: float | None = None

    def __post_init__(self) -> None:
        check_positive("duration", self.duration)
        if self.fail_servers < 0:
            raise ValueError(
                f"fail_servers must be non-negative, got {self.fail_servers}"
            )
        check_non_negative("join_rate", self.join_rate)
        check_non_negative("fail_rate", self.fail_rate)
        if self.link_latency is not None:
            check_non_negative("link_latency", self.link_latency)


class PhasedScenario:
    """A piecewise-constant sequence of workloads.

    The paper runs workload A for the first two hours, workload B for the next
    two and workload C for the final two (:func:`paper_scenario`); arbitrary
    schedules can be constructed for other experiments.
    """

    def __init__(self, phases: list[ScenarioPhase]) -> None:
        if not phases:
            raise ValueError("a scenario needs at least one phase")
        base_bits = phases[0].spec.base_bits
        if any(phase.spec.base_bits != base_bits for phase in phases):
            raise ValueError("all phases must use the same number of base bits")
        self._phases = list(phases)

    @property
    def phases(self) -> list[ScenarioPhase]:
        """The scenario's phases in order."""
        return list(self._phases)

    @property
    def total_duration(self) -> float:
        """Total scenario length in seconds."""
        return sum(phase.duration for phase in self._phases)

    def workload_at(self, time: float) -> WorkloadSpec:
        """The workload active at an absolute simulation time.

        Times at or beyond the end of the scenario return the final workload,
        so simulations may run slightly past the nominal duration.
        """
        if time < 0:
            raise ValueError(f"time must be non-negative, got {time}")
        elapsed = 0.0
        for phase in self._phases:
            elapsed += phase.duration
            if time < elapsed:
                return phase.spec
        return self._phases[-1].spec

    def phase_index_at(self, time: float) -> int:
        """Index of the phase active at an absolute simulation time."""
        if time < 0:
            raise ValueError(f"time must be non-negative, got {time}")
        elapsed = 0.0
        for index, phase in enumerate(self._phases):
            elapsed += phase.duration
            if time < elapsed:
                return index
        return len(self._phases) - 1

    def phase_boundaries(self) -> list[float]:
        """Absolute start times of every phase."""
        boundaries = [0.0]
        for phase in self._phases[:-1]:
            boundaries.append(boundaries[-1] + phase.duration)
        return boundaries

    def phase_at(self, index: int) -> ScenarioPhase:
        """The phase with the given index."""
        return self._phases[index]


def paper_scenario(
    base_bits: int = 8,
    phase_duration: float = 7200.0,
    join_rate: float = 0.0,
    fail_rate: float = 0.0,
) -> PhasedScenario:
    """The paper's evaluation scenario: 2 hours each of workloads A, B and C.

    ``join_rate`` / ``fail_rate`` apply the same Poisson churn rates to every
    phase; both default to 0, which keeps the scenario identical to the
    paper's churn-free schedule.
    """
    return PhasedScenario(
        [
            ScenarioPhase(
                spec=spec,
                duration=phase_duration,
                join_rate=join_rate,
                fail_rate=fail_rate,
            )
            for spec in (
                workload_a(base_bits),
                workload_b(base_bits),
                workload_c(base_bits),
            )
        ]
    )


def churn_latency_scenario(
    base_bits: int = 8,
    phase_duration: float = 7200.0,
    fail_servers: tuple[int, int, int] = (0, 2, 0),
    link_latency: tuple[float | None, float | None, float | None] = (
        0.005,
        0.02,
        0.05,
    ),
) -> PhasedScenario:
    """An A → B → C scenario with churn and rising per-phase link latency.

    The defaults model a deployment that degrades as it heats up: cheap links
    under the uniform workload, a couple of node failures and slower links
    when the moderate skew arrives, and WAN-like latency during the hot-spot
    phase.  Designed for the event transport; with the inline transport the
    latency knobs are ignored and only churn takes effect.
    """
    specs = (workload_a(base_bits), workload_b(base_bits), workload_c(base_bits))
    return PhasedScenario(
        [
            ScenarioPhase(
                spec=spec,
                duration=phase_duration,
                fail_servers=fails,
                link_latency=latency,
            )
            for spec, fails, latency in zip(specs, fail_servers, link_latency)
        ]
    )
