"""The pluggable transport abstraction all CLASH traffic flows through.

A :class:`Transport` owns the mapping from endpoint names to message handlers
and knows how to resolve :class:`~repro.net.envelope.DhtAddress` destinations
through the DHT.  The protocol layer
(:class:`~repro.core.protocol.ClashSystem`) never calls a server directly —
it wraps every exchange in an :class:`~repro.net.envelope.Envelope` and hands
it to the transport, which makes latency models and event-driven delivery
a matter of configuration rather than new protocol code paths.

Three interchangeable implementations ship with the package (registered in
:data:`repro.net.TRANSPORTS`):

* :class:`~repro.net.inline.InlineTransport` — zero-overhead synchronous
  dispatch, preserving the original direct-call semantics bit for bit.
* :class:`~repro.net.event.EventTransport` — routes envelopes through a
  :class:`~repro.sim.engine.SimulationEngine` with a pluggable latency model.
* :class:`~repro.net.asyncio_transport.AsyncTransport` — awaitable handlers
  on a privately owned asyncio event loop with per-endpoint inboxes and a
  seeded (or recorded) ready order.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Callable

from repro.net.envelope import Delivery, DhtAddress, Envelope

__all__ = [
    "DELIVERY_LOG_LIMIT",
    "DeliveryFailed",
    "Handler",
    "RouteResolver",
    "Transport",
    "TransportError",
]

DELIVERY_LOG_LIMIT = 65536
"""Default ring-buffer capacity of :attr:`Transport.delivery_log`.  Recording
is opt-in and, once enabled, bounded: a paper-scale run with the log left on
keeps the most recent entries instead of accumulating one tuple per delivery
for the whole run."""

Handler = Callable[[Envelope], object]
"""An endpoint's message handler: receives an envelope, returns the reply
payload (or ``None`` for one-way messages)."""

RouteResolver = Callable[[object], object]
"""Resolves an identifier key to a DHT lookup result with ``owner`` and
``hops`` attributes (:class:`~repro.dht.ring.LookupResult`)."""


class TransportError(RuntimeError):
    """Raised when an envelope cannot be delivered (unknown endpoint, no
    resolver for a DHT-addressed destination, ...)."""


class DeliveryFailed(TransportError):
    """A request/reply exchange was cancelled because its destination failed
    while the request was in flight.

    Transports that model time can have a destination endpoint unbind (server
    failure) between scheduling a request and delivering it.  The exchange is
    cancelled — the lost request is counted in
    :attr:`Transport.dropped_messages` — and this typed error is raised so
    protocol-level callers can recover (retry against the re-stabilised DHT,
    skip the merge, re-root the orphaned group) instead of a generic
    :class:`TransportError` aborting the whole run.

    Attributes:
        destination: Name of the endpoint that failed mid-flight.
        envelope: The envelope whose delivery was cancelled.
    """

    def __init__(self, destination: str, envelope: Envelope) -> None:
        super().__init__(
            f"request to {destination!r} cancelled: the endpoint failed while "
            f"the {type(envelope.payload).__name__} exchange was in flight"
        )
        self.destination = destination
        self.envelope = envelope


class Transport(abc.ABC):
    """Carries envelopes between named endpoints.

    Lifecycle: the owner (normally :class:`~repro.core.protocol.ClashSystem`)
    binds one handler per server with :meth:`bind`, installs a DHT resolver
    with :meth:`set_resolver`, and then sends traffic with :meth:`request`
    (synchronous request/reply) and :meth:`post` (one-way, possibly deferred
    until :meth:`flush`).
    """

    def __init__(self) -> None:
        self._handlers: dict[str, Handler] = {}
        self._resolver: RouteResolver | None = None
        self.envelopes_delivered = 0
        self.routes_resolved = 0
        #: One-way envelopes dropped because their destination endpoint was
        #: unbound (server failure) between send and delivery.  Synchronous
        #: transports never defer, so they never drop; the event and async
        #: transports count their in-flight losses here symmetrically.
        self.dropped_messages = 0
        #: Ring buffer of ``(time, server, payload type name)`` entries, one
        #: per delivery, appended by the transports that model time while
        #: :attr:`log_deliveries` is on (see :meth:`enable_delivery_log`).
        self.delivery_log: deque[tuple[float, str, str]] = deque(
            maxlen=DELIVERY_LOG_LIMIT
        )
        #: Whether deliveries are recorded into :attr:`delivery_log`
        #: (off by default — recording is opt-in for the fuzzer and tests).
        self.log_deliveries = False
        #: True once :meth:`close` has run.  The simulator closes its
        #: transport deterministically at the end of every run; sweep tests
        #: assert this flag so a leaked event loop cannot ride on
        #: garbage-collection timing.
        self.closed = False

    # ------------------------------------------------------------------ #
    # Delivery recording
    # ------------------------------------------------------------------ #

    def enable_delivery_log(self, limit: int | None = DELIVERY_LOG_LIMIT) -> None:
        """Turn on delivery recording with a fresh ring buffer.

        Args:
            limit: Ring-buffer capacity — only the most recent ``limit``
                deliveries are kept.  ``None`` removes the bound (short
                diagnostic runs that need the complete schedule).
        """
        if limit is not None and limit <= 0:
            raise ValueError(f"delivery log limit must be positive, got {limit}")
        self.delivery_log = deque(maxlen=limit)
        self.log_deliveries = True

    def disable_delivery_log(self) -> None:
        """Stop recording and drop the buffered entries."""
        self.log_deliveries = False
        self.delivery_log = deque(maxlen=DELIVERY_LOG_LIMIT)

    # ------------------------------------------------------------------ #
    # Endpoint management
    # ------------------------------------------------------------------ #

    def bind(self, name: str, handler: Handler) -> None:
        """Register (or replace) the handler for endpoint ``name``."""
        if not name:
            raise ValueError("endpoint name must be non-empty")
        self._handlers[name] = handler

    def unbind(self, name: str) -> None:
        """Remove an endpoint (e.g. after a server failure)."""
        self._handlers.pop(name, None)

    def endpoints(self) -> list[str]:
        """Names of every bound endpoint."""
        return list(self._handlers)

    def is_bound(self, name: str) -> bool:
        """True while ``name`` has a handler (False once it fails/unbinds)."""
        return name in self._handlers

    def set_resolver(self, resolver: RouteResolver) -> None:
        """Install the DHT lookup used for :class:`DhtAddress` destinations."""
        self._resolver = resolver

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def resolve(self, virtual_key) -> tuple[str, int]:
        """Resolve a virtual key to ``(owner, hops)`` through the DHT.

        Exposed separately from delivery because the protocol sometimes needs
        the route before deciding what to send (a splitting server must know
        whether the right child maps back to itself).
        """
        if self._resolver is None:
            raise TransportError("transport has no DHT resolver installed")
        lookup = self._resolver(virtual_key)
        self.routes_resolved += 1
        return lookup.owner, lookup.hops

    def _route(self, envelope: Envelope) -> tuple[str, int]:
        """The concrete endpoint and hop charge for an envelope."""
        destination = envelope.destination
        if isinstance(destination, DhtAddress):
            return self.resolve(destination.virtual_key)
        return destination, 0

    def _dispatch(self, name: str, envelope: Envelope) -> object:
        """Invoke the handler bound to ``name`` (the actual delivery)."""
        handler = self._handlers.get(name)
        if handler is None:
            raise TransportError(f"no endpoint bound for {name!r}")
        self.envelopes_delivered += 1
        return handler(envelope)

    # ------------------------------------------------------------------ #
    # Latency surface (no-ops unless the transport models time)
    # ------------------------------------------------------------------ #

    def set_latency_model(self, latency) -> None:
        """Install a latency model; ignored by transports that don't model time."""

    def drain_latency_samples(self) -> list[float]:
        """Per-delivery latencies recorded since the last drain (empty unless
        the transport models time)."""
        return []

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def request(self, envelope: Envelope) -> Delivery:
        """Deliver an envelope and wait for the endpoint's reply."""

    @abc.abstractmethod
    def post(self, envelope: Envelope) -> Delivery:
        """Send a one-way envelope.

        Implementations may defer the actual handler invocation until
        :meth:`flush`; the returned :class:`Delivery` always carries the
        resolved endpoint and hop charge so the caller can account for the
        message immediately.
        """

    def flush(self) -> int:
        """Deliver every deferred envelope; returns how many left flight.

        The count includes envelopes dropped because their destination
        unbound while they were in flight (see :attr:`dropped_messages`),
        not only the ones a handler received.  Called at least once per
        load-check period by the protocol layer.  Transports with no
        deferred delivery return 0.
        """
        return 0

    def close(self) -> None:
        """Release any resources the transport holds.

        Inline and event hold none; the asyncio transport closes its event
        loop here.  Safe to call more than once.  Subclasses must call ``super().close()``
        so :attr:`closed` flips for every implementation."""
        self.closed = True
