"""FuzzCase round trips and record→replay bit-identity."""

from __future__ import annotations

import pytest

from repro.fuzz.harness import FuzzCase, run_case
from repro.fuzz.oracle import build_oracle
from repro.net.asyncio_transport import AsyncTransport
from repro.net.replay import ReplaySchedule, TieTape


class TestFuzzCase:
    def test_dict_round_trip(self):
        case = FuzzCase(
            transport="event",
            seed=99,
            delivery_seed=None,
            churn_seed=7,
            join_rate=0.02,
            fail_rate=0.01,
            shards=2,
            scale_factor=50,
            phase_periods=3,
        )
        assert FuzzCase.from_dict(case.to_dict()) == case

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            FuzzCase.from_dict({"transport": "async", "warp_factor": 9})

    def test_case_id_distinguishes_axes(self):
        base = FuzzCase(transport="async", seed=1)
        assert base.case_id() != FuzzCase(transport="async", seed=2).case_id()
        assert (
            FuzzCase(transport="async", seed=1, delivery_seed=5).case_id()
            != base.case_id()
        )
        assert FuzzCase(transport="async", seed=1, shards=4).case_id() != base.case_id()

    def test_case_id_carries_the_partition_axis(self):
        static = FuzzCase(transport="async", seed=1, shards=4)
        adaptive = FuzzCase(transport="async", seed=1, shards=4, partition="adaptive")
        assert adaptive.case_id() != static.case_id()
        assert adaptive.case_id().endswith("adaptive")
        # The default mode stays out of the id so existing artifact names
        # (and the golden fuzz reports) are unchanged.
        assert "static" not in static.case_id()

    def test_scale_carries_case_axes(self):
        case = FuzzCase(
            transport="event", seed=42, join_rate=0.05, fail_rate=0.01, shards=2
        )
        scale = case.scale()
        assert scale.transport == "event"
        assert scale.seed == 42
        assert scale.join_rate == 0.05
        assert scale.shards == 2

    def test_scale_carries_the_partition(self):
        case = FuzzCase(transport="event", shards=4, partition="adaptive")
        assert case.scale().partition == "adaptive"

    def test_replay_build_forces_async_onto_the_tie_tape(self):
        case = FuzzCase(transport="async", scale_factor=100, phase_periods=1)
        simulator = case.build_simulator(schedule=ReplaySchedule())
        try:
            assert isinstance(simulator.transport, AsyncTransport)
            assert isinstance(simulator.transport.ready_source, TieTape)
        finally:
            simulator.transport.close()


class TestRecordReplayBitIdentity:
    @pytest.mark.parametrize("transport", ["async", "event"])
    def test_churned_run_replays_bit_identically(self, transport):
        case = FuzzCase(
            transport=transport,
            seed=20040324,
            delivery_seed=11 if transport == "async" else None,
            churn_seed=3,
            join_rate=0.01,
            fail_rate=0.01,
            scale_factor=100,
            phase_periods=1,
        )
        recorded = run_case(case, oracle=build_oracle("invariants"), record=True)
        assert recorded.violation is None
        assert recorded.result is not None
        assert recorded.trace.churn  # churn rates high enough to fire events
        replayed = run_case(
            case,
            oracle=build_oracle("invariants"),
            schedule=recorded.trace.schedule(),
        )
        assert replayed.violation is None
        assert replayed.result.diff(recorded.result) == []

    @pytest.mark.parametrize("transport", ["async", "event"])
    def test_adaptive_run_replays_its_rebalances_bit_identically(self, transport):
        """A recorded adaptive run pins its partition history: the replay
        installs the recorded maps verbatim instead of recomputing them, and
        the sample streams must still match bit for bit."""
        case = FuzzCase(
            transport=transport,
            seed=20040324,
            delivery_seed=11 if transport == "async" else None,
            shards=4,
            partition="adaptive",
            scale_factor=100,
            phase_periods=2,
        )
        recorded = run_case(case, oracle=build_oracle("invariants"), record=True)
        assert recorded.violation is None
        assert recorded.trace.rebalances  # skewed workloads always move a cut
        versions = [event.version for event in recorded.trace.rebalances]
        assert versions == sorted(versions)
        replayed = run_case(
            case,
            oracle=build_oracle("invariants"),
            schedule=recorded.trace.schedule(),
        )
        assert replayed.violation is None
        assert replayed.result.diff(recorded.result) == []

    def test_static_recording_pins_an_empty_rebalance_schedule(self):
        case = FuzzCase(transport="event", shards=2, scale_factor=100, phase_periods=1)
        recorded = run_case(case, record=True)
        # Recorded (not None) but empty: the replay knows the run installed
        # no maps, rather than being free to recompute its own.
        assert recorded.trace.rebalances == ()

    def test_recording_captures_tie_draws_on_async(self):
        case = FuzzCase(
            transport="async", delivery_seed=5, scale_factor=100, phase_periods=1
        )
        recorded = run_case(case, record=True)
        assert len(recorded.trace.ties) > 0
        assert all(0.0 <= value <= 1.0 for value in recorded.trace.ties)
        assert recorded.trace.deliveries  # the delivery ring buffer was on

    def test_unrecorded_run_keeps_trace_empty(self):
        case = FuzzCase(transport="async", scale_factor=100, phase_periods=1)
        outcome = run_case(case)
        assert outcome.trace.ties == ()
        assert outcome.trace.churn is None
        assert outcome.trace.rebalances is None
        assert outcome.violation is None
