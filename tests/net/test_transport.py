"""Unit tests for the pluggable transport layer (repro.net)."""

from __future__ import annotations

import pytest

from repro.net import TRANSPORT_KINDS, TRANSPORTS, build_transport, transport_spec
from repro.net.asyncio_transport import AsyncTransport
from repro.net.envelope import DhtAddress, Envelope
from repro.net.event import EventTransport
from repro.net.inline import InlineTransport
from repro.net.latency import (
    ConstantLatency,
    PerHopLatency,
    UniformLatency,
    ZeroLatency,
)
from repro.net.transport import DeliveryFailed, TransportError
from repro.sim.engine import SimulationEngine
from repro.util.rng import RandomStream


class _Recorder:
    """A handler that records payloads and echoes a canned reply."""

    def __init__(self, reply=None):
        self.received: list[Envelope] = []
        self.reply = reply

    def __call__(self, envelope: Envelope):
        self.received.append(envelope)
        return self.reply


class _FakeLookup:
    def __init__(self, owner: str, hops: int):
        self.owner = owner
        self.hops = hops


class _FakeKey:
    """Stands in for an IdentifierKey: value/width are all resolve() needs."""

    def __init__(self, value: int, width: int = 8):
        self.value = value
        self.width = width


class TestInlineTransport:
    def test_request_dispatches_synchronously(self):
        transport = InlineTransport()
        handler = _Recorder(reply="pong")
        transport.bind("srv", handler)
        delivery = transport.request(
            Envelope(source="cli", destination="srv", payload="ping")
        )
        assert delivery.reply == "pong"
        assert delivery.server == "srv"
        assert delivery.hops == 0
        assert handler.received[0].payload == "ping"

    def test_post_delivers_immediately_and_flush_is_noop(self):
        transport = InlineTransport()
        handler = _Recorder()
        transport.bind("srv", handler)
        transport.post(Envelope(source="cli", destination="srv", payload=1))
        assert len(handler.received) == 1
        assert transport.flush() == 0

    def test_dht_destination_uses_resolver_and_reports_hops(self):
        transport = InlineTransport()
        handler = _Recorder(reply="ok")
        transport.bind("owner", handler)
        transport.set_resolver(lambda key: _FakeLookup("owner", 3))
        delivery = transport.request(
            Envelope(source="cli", destination=DhtAddress(_FakeKey(5)), payload="p")
        )
        assert delivery.server == "owner"
        assert delivery.hops == 3

    def test_unknown_endpoint_raises(self):
        transport = InlineTransport()
        with pytest.raises(TransportError):
            transport.request(Envelope(source="a", destination="ghost", payload=1))

    def test_dht_destination_without_resolver_raises(self):
        transport = InlineTransport()
        transport.bind("srv", _Recorder())
        with pytest.raises(TransportError):
            transport.request(
                Envelope(source="a", destination=DhtAddress(_FakeKey(1)), payload=1)
            )

    def test_unbind_removes_endpoint(self):
        transport = InlineTransport()
        transport.bind("srv", _Recorder())
        transport.unbind("srv")
        with pytest.raises(TransportError):
            transport.post(Envelope(source="a", destination="srv", payload=1))


class TestEventTransport:
    def test_request_advances_the_clock_by_the_round_trip(self):
        engine = SimulationEngine()
        transport = EventTransport(engine=engine, latency=ConstantLatency(0.25))
        transport.bind("srv", _Recorder(reply="pong"))
        delivery = transport.request(
            Envelope(source="cli", destination="srv", payload="ping")
        )
        assert delivery.reply == "pong"
        assert delivery.latency == pytest.approx(0.5)
        assert engine.now == pytest.approx(0.5)

    def test_posted_envelopes_fire_in_scheduled_order_at_flush(self):
        engine = SimulationEngine()
        transport = EventTransport(engine=engine, latency=ZeroLatency())
        handler = _Recorder()
        transport.bind("srv", handler)
        for index in range(5):
            transport.post(Envelope(source="cli", destination="srv", payload=index))
        assert len(handler.received) == 0  # not delivered until the engine runs
        assert transport.flush() == 5
        assert [envelope.payload for envelope in handler.received] == [0, 1, 2, 3, 4]

    def test_delivery_order_is_deterministic_across_runs(self):
        """Two identically seeded runs deliver the same envelopes at the same
        times in the same order — the determinism EventTransport inherits from
        the engine's (time, sequence) ordering and seeded jitter."""

        def run() -> list[tuple[float, str, str]]:
            engine = SimulationEngine()
            transport = EventTransport(
                engine=engine,
                latency=UniformLatency(0.0, 1.0, RandomStream(77)),
            )
            transport.log_deliveries = True
            for name in ("a", "b", "c"):
                transport.bind(name, _Recorder(reply=name))
            for index in range(20):
                destination = ("a", "b", "c")[index % 3]
                transport.post(
                    Envelope(source="cli", destination=destination, payload=index)
                )
            transport.flush()
            transport.request(Envelope(source="cli", destination="a", payload="r"))
            return list(transport.delivery_log)

        first, second = run(), run()
        assert first == second
        assert len(first) == 21

    def test_jittered_posts_reorder_by_sampled_latency(self):
        engine = SimulationEngine()
        transport = EventTransport(
            engine=engine, latency=UniformLatency(0.0, 10.0, RandomStream(3))
        )
        handler = _Recorder()
        transport.bind("srv", handler)
        for index in range(10):
            transport.post(Envelope(source="cli", destination="srv", payload=index))
        transport.flush()
        delivered = [envelope.payload for envelope in handler.received]
        assert sorted(delivered) == list(range(10))
        assert delivered != list(range(10))  # jitter actually reordered them

    def test_latency_samples_drain(self):
        transport = EventTransport(latency=ConstantLatency(0.1))
        transport.bind("srv", _Recorder())
        transport.post(Envelope(source="cli", destination="srv", payload=1))
        transport.flush()
        samples = transport.drain_latency_samples()
        assert samples == [pytest.approx(0.1)]
        assert transport.drain_latency_samples() == []

    def test_post_to_endpoint_unbound_after_scheduling_is_dropped(self):
        """Regression: a one-way delivery whose destination was unbound after
        scheduling (server failed with the message in flight) used to let
        TransportError escape run_until and abort the run."""
        engine = SimulationEngine()
        transport = EventTransport(engine=engine, latency=ConstantLatency(0.5))
        survivor = _Recorder()
        transport.bind("doomed", _Recorder())
        transport.bind("survivor", survivor)
        transport.post(Envelope(source="cli", destination="doomed", payload=1))
        transport.post(Envelope(source="cli", destination="survivor", payload=2))
        transport.unbind("doomed")
        flushed = transport.flush()  # must not raise
        assert flushed == 2  # both envelopes left the calendar
        assert transport.dropped_messages == 1
        assert [e.payload for e in survivor.received] == [2]

    def test_request_to_endpoint_unbound_mid_flight_raises_delivery_failed(self):
        """The PR 3 follow-up: a request whose destination fails while the
        request is travelling is cancelled with a *typed* error and counted,
        instead of a bare TransportError aborting the run."""
        engine = SimulationEngine()
        transport = EventTransport(engine=engine, latency=ConstantLatency(1.0))
        transport.bind("doomed", _Recorder(reply="never"))
        engine.schedule_at(0.5, lambda now: transport.unbind("doomed"))
        with pytest.raises(DeliveryFailed) as failure:
            transport.request(
                Envelope(source="cli", destination="doomed", payload="req")
            )
        assert failure.value.destination == "doomed"
        assert transport.dropped_messages == 1
        # Only the forward leg was travelled; no reply-leg sample exists.
        assert transport.drain_latency_samples() == [pytest.approx(1.0)]

    def test_per_hop_latency_prices_dht_routes(self):
        engine = SimulationEngine()
        transport = EventTransport(
            engine=engine, latency=PerHopLatency(base=0.01, per_hop=0.05)
        )
        transport.bind("owner", _Recorder(reply="ok"))
        transport.set_resolver(lambda key: _FakeLookup("owner", 4))
        delivery = transport.request(
            Envelope(source="cli", destination=DhtAddress(_FakeKey(9)), payload="p")
        )
        # forward: base + 4 hops; reply: direct (0 hops), base only.
        assert delivery.latency == pytest.approx(0.01 + 4 * 0.05 + 0.01)


class TestBuildTransport:
    def test_kinds(self):
        assert isinstance(build_transport("inline"), InlineTransport)
        assert isinstance(build_transport("event"), EventTransport)
        built = build_transport("async")
        assert isinstance(built, AsyncTransport)
        built.close()

    def test_registry_is_the_single_source_of_truth(self):
        """Every enumeration derives from net.TRANSPORTS."""
        assert TRANSPORT_KINDS == ("inline", "event", "async")
        assert TRANSPORT_KINDS == tuple(TRANSPORTS)
        for kind, spec in TRANSPORTS.items():
            assert spec.kind == kind
            assert transport_spec(kind) is spec
            built = spec.factory(engine=None, latency=None, ready_rng=None)
            try:
                assert built.endpoints() == []
            finally:
                built.close()

    def test_registry_flags_are_exact(self):
        """Every registered spec's flags, pinned exactly:
        (needs_engine, models_time, churn_equivalence).
        """
        flags = {
            kind: (spec.needs_engine, spec.models_time, spec.churn_equivalence)
            for kind, spec in TRANSPORTS.items()
        }
        assert flags == {
            "inline": (False, False, True),
            "event": (True, True, False),
            "async": (False, True, True),
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_transport("carrier-pigeon")
        with pytest.raises(ValueError):
            transport_spec("carrier-pigeon")

    def test_event_latency_selection(self):
        constant = build_transport("event", link_latency=0.5)
        assert isinstance(constant.latency_model, ConstantLatency)
        per_hop = build_transport("event", link_latency=0.1, per_hop_latency=0.05)
        assert isinstance(per_hop.latency_model, PerHopLatency)
        jittered = build_transport(
            "event", link_latency=0.1, latency_jitter=0.05, rng=RandomStream(1)
        )
        assert isinstance(jittered.latency_model, UniformLatency)
        zero = build_transport("event")
        assert isinstance(zero.latency_model, ZeroLatency)

    def test_jitter_requires_rng(self):
        with pytest.raises(ValueError):
            build_transport("event", link_latency=0.1, latency_jitter=0.05)

    def test_per_hop_and_jitter_cannot_be_combined(self):
        with pytest.raises(ValueError):
            build_transport(
                "event",
                per_hop_latency=0.01,
                latency_jitter=0.01,
                rng=RandomStream(1),
            )
