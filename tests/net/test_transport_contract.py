"""The behavioural contract every registered transport keeps.

Parametrized over :data:`repro.net.TRANSPORT_KINDS`: each test builds the
transport through :func:`repro.net.build_transport` (zero latency, no ready
stream) and checks one piece of the :class:`~repro.net.transport.Transport`
surface the protocol layer relies on — endpoint management and shard
namespaces, request/reply, one-way posts and :meth:`flush`, delivery
recording, latency accounting and lifecycle.  A transport registered later
gets the whole battery without touching this file.

Transports that keep a clock (``models_time``) defer every post until
:meth:`~repro.net.transport.Transport.flush`; the clock-less inline
transport dispatches on the caller's stack.  Tests whose expectation
depends on that split say so and read it from the registry.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import ExperimentScale
from repro.net import TRANSPORT_KINDS, TRANSPORTS, build_transport
from repro.net.envelope import DhtAddress, Envelope
from repro.net.latency import ConstantLatency
from repro.net.transport import TransportError
from repro.sim.simulator import FlowSimulator

DEFERRING_KINDS = [kind for kind, spec in TRANSPORTS.items() if spec.models_time]
SYNCHRONOUS_KINDS = [
    kind for kind, spec in TRANSPORTS.items() if not spec.models_time
]


class _Recorder:
    """A handler that records envelopes and returns a canned reply."""

    def __init__(self, reply=None):
        self.received: list[Envelope] = []
        self.reply = reply

    def __call__(self, envelope: Envelope):
        self.received.append(envelope)
        return self.reply

    @property
    def payloads(self) -> list:
        return [envelope.payload for envelope in self.received]


class _FakeLookup:
    def __init__(self, owner: str, hops: int):
        self.owner = owner
        self.hops = hops


class _FakeKey:
    """Stands in for an IdentifierKey: resolve() only forwards it."""

    def __init__(self, value: int, width: int = 8):
        self.value = value
        self.width = width


def _defers(kind: str) -> bool:
    return TRANSPORTS[kind].models_time


def _post(transport, destination, payload, source="cli"):
    return transport.post(
        Envelope(source=source, destination=destination, payload=payload)
    )


def _request(transport, destination, payload, source="cli"):
    return transport.request(
        Envelope(source=source, destination=destination, payload=payload)
    )


@pytest.fixture(params=TRANSPORT_KINDS)
def kind(request) -> str:
    return request.param


@pytest.fixture
def transport(kind):
    instance = build_transport(kind)
    yield instance
    instance.close()


@pytest.fixture(params=DEFERRING_KINDS)
def deferring(request):
    instance = build_transport(request.param)
    yield instance
    instance.close()


class TestEndpoints:
    def test_fresh_transport_is_empty_and_open(self, transport):
        assert transport.endpoints() == []
        assert transport.envelopes_delivered == 0
        assert transport.routes_resolved == 0
        assert transport.dropped_messages == 0
        assert not transport.closed
        assert transport.flush() == 0

    def test_endpoints_list_in_bind_order(self, transport):
        for name in ("c", "a", "b"):
            transport.bind(name, _Recorder())
        assert transport.endpoints() == ["c", "a", "b"]
        assert all(transport.is_bound(name) for name in ("a", "b", "c"))
        assert not transport.is_bound("d")

    def test_rebind_replaces_the_handler(self, transport):
        old, new = _Recorder(reply="old"), _Recorder(reply="new")
        transport.bind("srv", old)
        transport.bind("srv", new)
        assert _request(transport, "srv", 1).reply == "new"
        assert old.received == []
        assert transport.endpoints() == ["srv"]

    def test_unbind_removes_the_endpoint_and_is_idempotent(self, transport):
        transport.bind("srv", _Recorder())
        transport.unbind("srv")
        transport.unbind("srv")
        transport.unbind("never-bound")
        assert not transport.is_bound("srv")
        assert transport.endpoints() == []

    def test_empty_name_rejected(self, transport):
        with pytest.raises(ValueError):
            transport.bind("", _Recorder())


class TestRequest:
    def test_round_trip_returns_the_reply(self, transport):
        handler = _Recorder(reply="pong")
        transport.bind("srv", handler)
        delivery = _request(transport, "srv", "ping")
        assert delivery.reply == "pong"
        assert delivery.server == "srv"
        assert delivery.hops == 0
        assert handler.payloads == ["ping"]
        assert transport.envelopes_delivered == 1

    def test_unbound_destination_raises(self, transport):
        with pytest.raises(TransportError):
            _request(transport, "ghost", 1)

    def test_dht_destination_resolves_through_the_resolver(self, transport):
        keys = []

        def resolver(key):
            keys.append(key)
            return _FakeLookup("owner", 3)

        transport.bind("owner", _Recorder(reply="ok"))
        transport.set_resolver(resolver)
        key = _FakeKey(5)
        delivery = _request(transport, DhtAddress(key), "p")
        assert (delivery.server, delivery.hops, delivery.reply) == ("owner", 3, "ok")
        assert keys == [key]
        assert transport.routes_resolved == 1

    def test_dht_destination_without_resolver_raises(self, transport):
        transport.bind("srv", _Recorder())
        with pytest.raises(TransportError):
            _request(transport, DhtAddress(_FakeKey(1)), 1)

    def test_resolve_reports_owner_and_hops(self, transport):
        transport.set_resolver(lambda key: _FakeLookup(f"owner-{key.value}", 2))
        assert transport.resolve(_FakeKey(7)) == ("owner-7", 2)
        assert transport.routes_resolved == 1

    def test_handler_error_reaches_the_requester(self, transport):
        def broken(envelope):
            raise ValueError("handler bug")

        transport.bind("srv", broken)
        with pytest.raises(ValueError, match="handler bug"):
            _request(transport, "srv", 1)

    def test_requests_between_posts_keep_working(self, transport):
        handler = _Recorder(reply="r")
        transport.bind("srv", handler)
        _post(transport, "srv", 1)
        assert _request(transport, "srv", 2).reply == "r"
        _post(transport, "srv", 3)
        transport.flush()
        assert sorted(handler.payloads) == [1, 2, 3]
        assert transport.envelopes_delivered == 3


class TestPostAndFlush:
    def test_post_reports_the_route_immediately(self, transport):
        transport.bind("owner", _Recorder())
        transport.set_resolver(lambda key: _FakeLookup("owner", 4))
        delivery = _post(transport, DhtAddress(_FakeKey(9)), "p")
        assert (delivery.server, delivery.hops, delivery.reply) == ("owner", 4, None)
        assert transport.routes_resolved == 1
        transport.flush()

    def test_posts_land_by_flush_at_the_latest(self, kind, transport):
        handler = _Recorder()
        transport.bind("srv", handler)
        for payload in range(4):
            _post(transport, "srv", payload)
        assert handler.payloads == ([] if _defers(kind) else [0, 1, 2, 3])
        transport.flush()
        assert handler.payloads == [0, 1, 2, 3]

    def test_flush_counts_the_envelopes_that_left_flight(self, kind, transport):
        transport.bind("srv", _Recorder())
        for payload in range(5):
            _post(transport, "srv", payload)
        assert transport.flush() == (5 if _defers(kind) else 0)
        assert transport.flush() == 0

    def test_flush_preserves_per_destination_order(self, transport):
        handlers = {name: _Recorder() for name in ("a", "b", "c")}
        for name, handler in handlers.items():
            transport.bind(name, handler)
        for payload in range(12):
            _post(transport, "abc"[payload % 3], payload)
        transport.flush()
        assert handlers["a"].payloads == [0, 3, 6, 9]
        assert handlers["b"].payloads == [1, 4, 7, 10]
        assert handlers["c"].payloads == [2, 5, 8, 11]
        assert transport.envelopes_delivered == 12

    def test_posts_sent_by_a_handler_land_in_the_same_flush(self, transport):
        relayed = _Recorder()

        def relay(envelope):
            _post(transport, "sink", envelope.payload * 10, source="relay")

        transport.bind("relay", relay)
        transport.bind("sink", relayed)
        for payload in (1, 2, 3):
            _post(transport, "relay", payload)
        transport.flush()
        assert relayed.payloads == [10, 20, 30]
        assert transport.envelopes_delivered == 6
        assert transport.flush() == 0

    def test_envelope_reaches_the_handler_unchanged(self, transport):
        handler = _Recorder()
        transport.bind("srv", handler)
        envelope = Envelope(source="cli", destination="srv", payload=("x", 1))
        transport.post(envelope)
        transport.flush()
        assert handler.received == [envelope]


class TestSynchronousPost:
    @pytest.mark.parametrize("kind", SYNCHRONOUS_KINDS)
    def test_post_to_an_unbound_endpoint_raises(self, kind):
        transport = build_transport(kind)
        try:
            with pytest.raises(TransportError):
                _post(transport, "ghost", 1)
            assert transport.dropped_messages == 0
        finally:
            transport.close()


class TestDeferredDrops:
    """Transports that hold posts in flight drop, count and survive the
    envelopes whose destination is gone by delivery time."""

    def test_post_to_an_endpoint_unbound_in_flight_is_dropped(self, deferring):
        survivor = _Recorder()
        deferring.bind("doomed", _Recorder())
        deferring.bind("survivor", survivor)
        _post(deferring, "doomed", 1)
        _post(deferring, "survivor", 2)
        deferring.unbind("doomed")
        assert deferring.flush() == 2
        assert deferring.dropped_messages == 1
        assert survivor.payloads == [2]
        assert deferring.envelopes_delivered == 1

    def test_handler_unbinding_its_own_endpoint_drops_the_remainder(self, deferring):
        """A handler that unbinds its own endpoint mid-flush (a failure
        triggered by the message itself) must not let the envelopes queued
        behind it reach a missing handler; they are dropped and counted,
        and flush still counts them as having left flight."""
        received = []

        def self_unbinding(envelope):
            received.append(envelope.payload)
            deferring.unbind("srv")

        other = _Recorder()
        deferring.bind("srv", self_unbinding)
        deferring.bind("other", other)
        for payload in (1, 2, 3):
            _post(deferring, "srv", payload)
        _post(deferring, "other", 4)
        assert deferring.flush() == 4
        assert received == [1]
        assert other.payloads == [4]
        assert deferring.dropped_messages == 2

    def test_rebind_mid_flush_resumes_delivery(self, deferring):
        received = []

        def flapping(envelope):
            received.append(envelope.payload)
            deferring.unbind("srv")
            deferring.bind("srv", flapping)

        deferring.bind("srv", flapping)
        for payload in (1, 2, 3):
            _post(deferring, "srv", payload)
        assert deferring.flush() == 3
        assert received == [1, 2, 3]
        assert deferring.dropped_messages == 0


class TestDeliveryLogAndLatency:
    def test_log_is_off_by_default(self, transport):
        transport.bind("srv", _Recorder())
        _post(transport, "srv", 1)
        transport.flush()
        assert not transport.log_deliveries
        assert list(transport.delivery_log) == []

    def test_enabled_log_records_every_clocked_delivery(self, kind, transport):
        transport.bind("srv", _Recorder(reply="r"))
        transport.enable_delivery_log()
        _post(transport, "srv", 1)
        transport.flush()
        _request(transport, "srv", "q")
        rows = list(transport.delivery_log)
        if _defers(kind):
            assert [(server, name) for _, server, name in rows] == [
                ("srv", "int"),
                ("srv", "str"),
            ]
        else:
            assert rows == []

    def test_invalid_log_limit_rejected(self, transport):
        with pytest.raises(ValueError):
            transport.enable_delivery_log(limit=0)
        assert not transport.log_deliveries

    def test_disable_drops_the_log(self, transport):
        transport.enable_delivery_log(limit=2)
        transport.delivery_log.append((0.0, "srv", "int"))
        transport.disable_delivery_log()
        assert not transport.log_deliveries
        assert list(transport.delivery_log) == []

    def test_zero_latency_samples_drain_once(self, kind, transport):
        transport.bind("srv", _Recorder())
        _post(transport, "srv", 1)
        _post(transport, "srv", 2)
        transport.flush()
        _request(transport, "srv", 3)
        expected = [0.0] * 4 if _defers(kind) else []
        assert transport.drain_latency_samples() == expected
        assert transport.drain_latency_samples() == []

    def test_latency_model_prices_only_clocked_transports(self, kind, transport):
        transport.bind("srv", _Recorder(reply="r"))
        transport.set_latency_model(ConstantLatency(0.25))
        request = _request(transport, "srv", 1)
        post = _post(transport, "srv", 2)
        transport.flush()
        if _defers(kind):
            assert request.latency == pytest.approx(0.5)
            assert post.latency == pytest.approx(0.25)
        else:
            assert (request.latency, post.latency) == (0.0, 0.0)


class TestLifecycle:
    def test_close_marks_closed_and_is_idempotent(self, transport):
        transport.close()
        assert transport.closed
        transport.close()
        assert transport.closed

    def test_flow_simulator_closes_its_transport(self, kind):
        scale = ExperimentScale.scaled(factor=200, phase_periods=1)
        simulator = FlowSimulator(
            scale.config(), scale.params(transport=kind), scale.scenario()
        )
        assert simulator.transport.endpoints()
        assert not simulator.transport.closed
        result = simulator.run()
        assert simulator.transport.closed
        assert len(result.metrics.samples) == 3
