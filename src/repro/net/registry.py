"""The single source of truth for which transports exist.

Every surface that enumerates transports — the CLI ``--transport`` choices,
:class:`~repro.sim.simulator.SimulationParams` /
:class:`~repro.experiments.runner.ExperimentScale` validation,
:func:`repro.net.build_transport` construction and the test suite's
equivalence parametrization — derives from :data:`TRANSPORTS` instead of
maintaining its own list.  Adding a transport means adding one
:class:`TransportSpec` here; everything else follows.

Every registered transport makes the same base *equivalence contract*,
which the golden test harness (``tests/net/equivalence.py``) enforces: with
a zero-latency model, a flow simulation on it produces
:class:`~repro.sim.metrics.PeriodSample` streams bit-identical to
:class:`~repro.net.inline.InlineTransport`.  ``churn_equivalence`` records
whether that also holds under period-boundary membership churn — the event
transport executes churn *mid-phase* on its engine clock (a deliberately
different, more realistic schedule), so it opts out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.net.inline import InlineTransport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.latency import LatencyModel
    from repro.net.transport import Transport
    from repro.sim.engine import SimulationEngine
    from repro.util.rng import RandomStream

__all__ = ["TransportSpec", "TRANSPORTS", "TRANSPORT_KINDS", "transport_spec"]


@dataclass(frozen=True)
class TransportSpec:
    """Everything the rest of the system needs to know about one transport.

    Attributes:
        kind: The user-facing name (the ``--transport`` value).
        summary: One-line description (CLI help, reports).
        factory: Builds a configured instance; receives the shared
            construction context as keyword arguments (``latency`` — a ready
            :class:`~repro.net.latency.LatencyModel` or ``None``, ``engine`` —
            a :class:`~repro.sim.engine.SimulationEngine` or ``None``,
            ``ready_rng`` — a seeded stream or ``None``) and ignores what it
            does not use.
        needs_engine: The simulator must create (and expose) a
            :class:`~repro.sim.engine.SimulationEngine` for this transport;
            scenario churn is scheduled as engine events instead of being
            drained at period boundaries.
        models_time: Deliveries are priced by a latency model and the
            transport keeps a clock (``link_latency`` & friends apply).
        churn_equivalence: Zero-latency runs reproduce inline
            ``PeriodSample`` streams bit for bit under membership churn too.
    """

    kind: str
    summary: str
    factory: Callable[..., "Transport"]
    needs_engine: bool = False
    models_time: bool = False
    churn_equivalence: bool = True


def _build_event(
    engine: "SimulationEngine | None" = None,
    latency: "LatencyModel | None" = None,
    **_ignored,
) -> "Transport":
    # Imported lazily: repro.net.event pulls in the simulation engine, whose
    # package imports the protocol layer, which imports repro.net.
    from repro.net.event import EventTransport

    return EventTransport(engine=engine, latency=latency)


def _build_async(
    latency: "LatencyModel | None" = None,
    ready_rng: "RandomStream | None" = None,
    **_ignored,
) -> "Transport":
    from repro.net.asyncio_transport import AsyncTransport

    return AsyncTransport(latency=latency, ready_rng=ready_rng)


TRANSPORTS: dict[str, TransportSpec] = {
    spec.kind: spec
    for spec in (
        TransportSpec(
            kind="inline",
            summary="synchronous in-process dispatch (the paper-faithful default)",
            factory=lambda **_ignored: InlineTransport(),
        ),
        TransportSpec(
            kind="event",
            summary="discrete-event kernel delivery with simulated latency "
            "and mid-phase churn",
            factory=_build_event,
            needs_engine=True,
            models_time=True,
            # Mid-phase churn runs on the engine clock (after the period's
            # balance pass), a deliberately different schedule from the
            # period-boundary drain inline and async share.
            churn_equivalence=False,
        ),
        TransportSpec(
            kind="async",
            summary="asyncio event loop with awaitable handlers, per-endpoint "
            "inboxes and seeded ready-order",
            factory=_build_async,
            models_time=True,
        ),
    )
}

TRANSPORT_KINDS = tuple(TRANSPORTS)
"""The transport names accepted by the CLI / experiment runner."""


def transport_spec(kind: str) -> TransportSpec:
    """The registered spec for ``kind`` (raises ``ValueError`` if unknown)."""
    spec = TRANSPORTS.get(kind)
    if spec is None:
        raise ValueError(
            f"unknown transport kind {kind!r}; expected one of "
            f"{', '.join(TRANSPORT_KINDS)}"
        )
    return spec
