"""The incremental balance pass must equal the reference full scan, bit for bit.

``ClashSystem.run_load_check`` drains dirty-server work queues (split pass,
report exchange, consolidation pass) instead of scanning every server, and on
clock-less transports the exchange skips re-posting report sets that already
stand on their parents.  ``force_full_load_scan`` restores the reference
probe-everyone scan with a full exchange.  These tests pin the contract:

* **End-to-end equivalence** — full simulations in both modes emit
  bit-identical ``PeriodSample`` streams across transports, churn, shard
  counts and partition modes.
* **Randomized mutation battery** — twin systems fed identical random rate
  mutations and membership events produce identical splits, merges, message
  charges and ownership after every load check.
* **Steady-state sparsity** — once converged, a load check performs zero
  verdict probes, zero consolidation candidate sweeps and delivers zero
  envelopes (standing reports are reused, counted in ``reports_skipped``).
* **Drop accounting** — a report whose destination unbinds while the
  envelope is in flight is counted once, in ``dropped_messages``, and is
  neither charged as a MERGE message nor counted as delivered.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.config import ClashConfig
from repro.core.messages import MessageCategory
from repro.core.protocol import ClashSystem
from repro.experiments.runner import ExperimentScale
from repro.net import build_transport
from repro.net.event import EventTransport
from repro.net.latency import ConstantLatency
from repro.sim.engine import SimulationEngine
from repro.sim.simulator import FlowSimulator
from repro.util.rng import RandomStream


def _run(scale: ExperimentScale, scenario, full_scan: bool):
    simulator = FlowSimulator(
        config=scale.config(),
        params=scale.params(force_full_load_scan=full_scan),
        scenario=scenario,
    )
    try:
        result = simulator.run()
        simulator.system.verify_invariants()
    finally:
        simulator.transport.close()
    return result


# One combination per axis value: the inline and async transports,
# calm and churning phases, single and 4-shard rings, static and adaptive
# partition maps — without paying for the full cross product on every CI run.
BATTERY = [
    pytest.param("inline", 0.0, 1, "static", id="inline-calm-1-static"),
    pytest.param("inline", 0.01, 4, "adaptive", id="inline-churn-4-adaptive"),
    pytest.param("async", 0.0, 4, "static", id="async-calm-4-static"),
    pytest.param("async", 0.01, 1, "static", id="async-churn-1-static"),
]


class TestWorkQueueEqualsFullScan:
    @pytest.mark.parametrize("transport, churn_rate, shards, partition", BATTERY)
    def test_period_streams_bit_identical(self, transport, churn_rate, shards, partition):
        scale = dataclasses.replace(
            ExperimentScale.scaled(factor=100, phase_periods=2),
            transport=transport,
            join_rate=churn_rate,
            fail_rate=churn_rate,
            shards=shards,
            partition=partition,
        )
        scenario = scale.scenario()
        incremental = _run(scale, scenario, full_scan=False)
        full = _run(scale, scenario, full_scan=True)
        differences = incremental.diff(full)
        assert not differences, "; ".join(differences)
        # The equivalence must not be vacuous: the incremental run has to
        # have actually probed fewer servers than the reference scan.
        assert incremental.notes["load_check_probes"] < full.notes["load_check_probes"]
        assert (
            incremental.notes["consolidation_probes"]
            <= full.notes["consolidation_probes"]
        )


def _twin_system(full_scan: bool) -> ClashSystem:
    # build_transport stamps the registry's report_diff capability, so the
    # incremental twin also exercises the report-diff exchange.
    system = ClashSystem.create(
        ClashConfig.small_scale(),
        server_count=16,
        rng=RandomStream(99),
        transport=build_transport("inline"),
    )
    system.force_full_load_scan = full_scan
    return system


class TestRandomizedMutationBattery:
    def test_twin_systems_stay_identical_under_random_mutations(self):
        incremental = _twin_system(full_scan=False)
        reference = _twin_system(full_scan=True)
        rng = random.Random(20040324)
        capacity = incremental.config.server_capacity
        joins = 0
        for round_index in range(40):
            groups = sorted(incremental.active_groups().items())
            assert groups == sorted(reference.active_groups().items())
            # A handful of random rate mutations, applied to both twins.
            for _ in range(rng.randrange(0, 4)):
                group, owner = groups[rng.randrange(len(groups))]
                rate = rng.uniform(0.0, 2.0 * capacity)
                incremental.server(owner).set_group_rate(group, rate)
                reference.server(owner).set_group_rate(group, rate)
            # Occasional membership churn so the work queues see joins and
            # failures mid-battery, not just rate dirt.
            if rng.random() < 0.15:
                joins += 1
                incremental.handle_server_join(f"fz{joins}")
                reference.handle_server_join(f"fz{joins}")
            elif rng.random() < 0.10:
                names = sorted(incremental.server_names())
                victim = names[rng.randrange(len(names))]
                incremental.handle_server_failure(victim)
                reference.handle_server_failure(victim)
            a = incremental.run_load_check()
            b = reference.run_load_check()
            assert a.splits == b.splits, f"round {round_index}: split streams diverged"
            assert a.merges == b.merges, f"round {round_index}: merge streams diverged"
            assert incremental.messages == reference.messages, (
                f"round {round_index}: message accounting diverged"
            )
            assert incremental.active_groups() == reference.active_groups()
            incremental.verify_invariants()
        # The battery must have exercised real work on both paths.
        assert incremental.load_probes > 0
        assert incremental.load_probes < reference.load_probes


class TestSteadyState:
    def test_converged_check_probes_and_delivers_nothing(self):
        system = _twin_system(full_scan=False)
        groups = sorted(system.active_groups().items())
        group, owner = groups[0]
        # 1.5× capacity forces one split; the halves settle between the
        # underload and overload thresholds, so the pair is stable and the
        # child keeps a standing report on its parent.
        system.server(owner).set_group_rate(group, 1.5 * system.config.server_capacity)
        converged = False
        for _ in range(10):
            report = system.run_load_check()
            if report.split_count == 0 and report.merge_count == 0:
                converged = True
                break
        assert converged, "the single-split workload never settled"
        # Drain any residual dirt from the settling passes.
        system.run_load_check()
        probes = system.load_probes
        sweeps = system.consolidation_probes
        delivered_before = system.transport.envelopes_delivered
        skipped_before = system.reports_skipped
        report = system.run_load_check()
        assert report.split_count == 0 and report.merge_count == 0
        assert system.load_probes == probes, "steady state re-probed a verdict"
        assert system.consolidation_probes == sweeps, (
            "steady state re-swept consolidation candidates"
        )
        assert system.transport.envelopes_delivered == delivered_before, (
            "steady state delivered report envelopes whose content already stood"
        )
        assert system.reports_skipped > skipped_before, (
            "the standing reports should have been reused, not absent"
        )


class TestMidFlightDropAccounting:
    def test_dropped_report_is_not_charged_or_counted_delivered(self):
        """A parent unbinding mid-flight costs exactly one dropped_messages.

        Regression test: the exchange used to charge MERGE and count the
        report as delivered even when the transport dropped the envelope
        because its destination failed between post and delivery.
        """
        engine = SimulationEngine()
        transport = EventTransport(engine=engine, latency=ConstantLatency(1.0))
        system = ClashSystem.create(
            ClashConfig.small_scale(),
            server_count=16,
            rng=RandomStream(7),
            transport=transport,
        )
        # Overload servers until some split sheds a child to a *different*
        # server — only cross-server children address load reports.
        for group, owner in sorted(system.active_groups().items()):
            system.server(owner).set_group_rate(
                group, 2.0 * system.config.server_capacity
            )
        system.run_load_check()
        pairs = [
            (name, parent)
            for name in system.server_names()
            for parent, _report in system.server(name).addressed_load_reports()
        ]
        assert pairs, "the seeded workload produced no cross-server children"
        doomed_parent = pairs[0][1]
        expected_posts = len(pairs)
        expected_drops = sum(1 for _child, parent in pairs if parent == doomed_parent)
        # The failure fires on the engine clock *between* the posts (t=now)
        # and their deliveries (t=now+1.0): every report addressed to the
        # doomed parent is in flight when its endpoint unbinds.
        engine.schedule_in(
            0.5, lambda now: system.handle_server_failure(doomed_parent)
        )
        drops_before = transport.dropped_messages
        merge_before = system.messages.counts[MessageCategory.MERGE]
        delivered = system.exchange_load_reports()
        assert transport.dropped_messages - drops_before == expected_drops
        assert delivered == expected_posts - expected_drops
        assert (
            system.messages.counts[MessageCategory.MERGE] - merge_before == delivered
        ), "a dropped report must not be charged as a MERGE delivery"
