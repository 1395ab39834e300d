"""Schedule replay: tie tapes, recorders and forced delivery order.

A recorded delivery order is forced by handing the async transport a
:class:`~repro.net.replay.TieTape` as its ready source.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import ExperimentScale
from repro.net import build_transport
from repro.net.asyncio_transport import AsyncTransport
from repro.net.envelope import Envelope
from repro.net.replay import ReplaySchedule, TieRecorder, TieTape
from repro.sim.simulator import FlowSimulator
from repro.util.rng import RandomStream


class TestTieRecorder:
    def test_passes_through_and_records(self):
        source = RandomStream(7)
        twin = RandomStream(7)
        recorder = TieRecorder(source)
        values = [recorder.uniform(0.0, 1.0) for _ in range(5)]
        assert values == [twin.uniform(0.0, 1.0) for _ in range(5)]
        assert recorder.draws == values

    def test_none_source_records_fifo_zeros(self):
        recorder = TieRecorder(None)
        assert [recorder.uniform(0.0, 1.0) for _ in range(3)] == [0.0, 0.0, 0.0]
        assert recorder.draws == [0.0, 0.0, 0.0]


class TestTieTape:
    def test_replays_sparse_recording_in_draw_order(self):
        tape = TieTape({0: 0.5, 2: 0.25})
        assert [tape.uniform(0.0, 1.0) for _ in range(4)] == [0.5, 0.0, 0.25, 0.0]
        assert tape.draws == [0.5, 0.0, 0.25, 0.0]

    def test_empty_tape_is_fifo(self):
        tape = TieTape()
        assert [tape.uniform(0.0, 1.0) for _ in range(3)] == [0.0, 0.0, 0.0]

    def test_record_then_replay_identical(self):
        recorder = TieRecorder(RandomStream(11))
        recorded = [recorder.uniform(0.0, 1.0) for _ in range(8)]
        tape = TieTape(dict(enumerate(recorded)))
        assert [tape.uniform(0.0, 1.0) for _ in range(8)] == recorded


class _Log:
    def __init__(self, sink, name):
        self.sink = sink
        self.name = name

    def __call__(self, envelope):
        self.sink.append((self.name, envelope.payload))
        return None


class TestForcedTieOrder:
    def test_default_schedule_is_empty(self):
        schedule = ReplaySchedule()
        assert schedule.ties == {}
        assert schedule.churn is None
        assert schedule.rebalances is None

    def test_forced_tie_order_reverses_simultaneous_posts(self):
        """Two same-instant posts deliver in tie order, not send order."""
        # Send-order (FIFO) reference: empty tape.
        for schedule, expected in [
            (ReplaySchedule(), [("a", 1), ("b", 2)]),
            # Force the second send to sort first.
            (ReplaySchedule(ties={0: 0.9, 1: 0.1}), [("b", 2), ("a", 1)]),
        ]:
            transport = AsyncTransport(ready_rng=TieTape(schedule.ties))
            sink: list = []
            try:
                transport.bind("a", _Log(sink, "a"))
                transport.bind("b", _Log(sink, "b"))
                transport.post(Envelope(source="c", destination="a", payload=1))
                transport.post(Envelope(source="c", destination="b", payload=2))
                transport.flush()
                assert sink == expected
            finally:
                transport.close()

    def test_simulator_installs_the_schedule_tape(self):
        """FlowSimulator(schedule=...) hands the async transport the
        schedule's tie tape instead of the seeded ready stream."""
        scale = ExperimentScale.scaled(factor=100, phase_periods=1)
        simulator = FlowSimulator(
            scale.config(),
            scale.params(transport="async"),
            scale.scenario(),
            schedule=ReplaySchedule(ties={0: 0.25}),
        )
        tape = simulator.transport.ready_source
        try:
            assert isinstance(tape, TieTape)
            simulator.run()
        finally:
            simulator.transport.close()
        assert tape.draws[0] == 0.25
        assert set(tape.draws[1:]) == {0.0}


class TestDeliveryLogRingBuffer:
    def test_log_is_opt_in(self):
        transport = build_transport("event")
        transport.bind("srv", _Log([], "srv"))
        transport.post(Envelope(source="c", destination="srv", payload=1))
        transport.flush()
        assert list(transport.delivery_log) == []

    def test_enable_records_and_cap_bounds_growth(self):
        transport = build_transport("event")
        transport.bind("srv", _Log([], "srv"))
        transport.enable_delivery_log(limit=4)
        for index in range(10):
            transport.post(Envelope(source="c", destination="srv", payload=index))
        transport.flush()
        rows = list(transport.delivery_log)
        assert len(rows) == 4  # only the most recent entries are kept
        assert all(server == "srv" for _, server, _ in rows)

    def test_unbounded_mode(self):
        transport = build_transport("event")
        transport.bind("srv", _Log([], "srv"))
        transport.enable_delivery_log(limit=None)
        for index in range(10):
            transport.post(Envelope(source="c", destination="srv", payload=index))
        transport.flush()
        assert len(transport.delivery_log) == 10

    def test_disable_drops_entries(self):
        transport = build_transport("event")
        transport.bind("srv", _Log([], "srv"))
        transport.enable_delivery_log()
        transport.post(Envelope(source="c", destination="srv", payload=1))
        transport.flush()
        assert len(transport.delivery_log) == 1
        transport.disable_delivery_log()
        assert not transport.log_deliveries
        assert len(transport.delivery_log) == 0

    def test_invalid_limit_rejected(self):
        transport = build_transport("event")
        with pytest.raises(ValueError):
            transport.enable_delivery_log(limit=0)
