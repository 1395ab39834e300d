"""Overload-set tracking: load checks re-probe only servers whose load changed.

``ClashSystem.run_load_check`` probes a server's overload/underload status
only when the server notified the system of a load change since the last
probe (``ClashServer.set_load_listener``); every other server's cached
verdicts are reused.  These tests pin the two properties that make that safe:

* **Equivalence** — a full simulation whose system re-probes every verdict
  at every read (the cache bypassed on the test side) emits a
  ``PeriodSample`` stream bit-identical to the cached run, across churn,
  shard counts, transports and partition modes.
* **Sparsity** — with no load changes between two checks, the second check
  performs zero fresh probes; a rate change, a membership event or a period
  boundary re-probes exactly the servers it touched.

That each reused verdict is exact after every check of a randomized mutation
run is held by the test-side oracle in ``test_incremental_balance.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import ClashConfig
from repro.core.protocol import ClashSystem
from repro.core.server import ClashServer
from repro.experiments.runner import ExperimentScale
from repro.sim.simulator import FlowSimulator
from repro.util.rng import RandomStream


def _bypass_verdict_cache(system: ClashSystem) -> None:
    """Make ``system`` probe every verdict afresh at every read."""

    def fresh_verdicts(name: str, server: ClashServer) -> tuple[bool, bool]:
        system.load_probes += 1
        return (server.is_overloaded(), server.is_underloaded())

    system._load_verdicts = fresh_verdicts


def _run(scale: ExperimentScale, scenario, cached: bool):
    simulator = FlowSimulator(
        config=scale.config(), params=scale.params(), scenario=scenario
    )
    if not cached:
        _bypass_verdict_cache(simulator.system)
    try:
        result = simulator.run()
        simulator.system.verify_invariants()
    finally:
        simulator.transport.close()
    return result, simulator.system.load_probes


def _assert_cache_is_exact_and_used(scale: ExperimentScale) -> None:
    scenario = scale.scenario()
    tracked, tracked_probes = _run(scale, scenario, cached=True)
    fresh, fresh_probes = _run(scale, scenario, cached=False)
    differences = tracked.diff(fresh)
    assert not differences, "; ".join(differences)
    # The equivalence must not be vacuous: the cache has to have served
    # verdicts the reference probed afresh.
    assert 0 < tracked_probes < fresh_probes


class TestTrackedEqualsFullScan:
    def test_reference_run_bit_identical(self):
        _assert_cache_is_exact_and_used(ExperimentScale.scaled(factor=50, phase_periods=2))

    def test_churn_run_bit_identical(self):
        _assert_cache_is_exact_and_used(
            dataclasses.replace(
                ExperimentScale.scaled(factor=50, phase_periods=2),
                join_rate=0.005,
                fail_rate=0.005,
            )
        )

    def test_sharded_run_bit_identical(self):
        _assert_cache_is_exact_and_used(
            dataclasses.replace(ExperimentScale.scaled(factor=50, phase_periods=2), shards=4)
        )

    # One combination per axis value: the inline and async transports, calm
    # and churning phases, single and 4-shard rings, static and adaptive
    # partition maps — without paying for the full cross product.
    @pytest.mark.parametrize(
        "transport, churn_rate, shards, partition",
        [
            pytest.param("inline", 0.0, 1, "static", id="inline-calm-1-static"),
            pytest.param("inline", 0.01, 4, "adaptive", id="inline-churn-4-adaptive"),
            pytest.param("async", 0.0, 4, "static", id="async-calm-4-static"),
            pytest.param("async", 0.01, 1, "static", id="async-churn-1-static"),
        ],
    )
    def test_period_streams_bit_identical(self, transport, churn_rate, shards, partition):
        _assert_cache_is_exact_and_used(
            dataclasses.replace(
                ExperimentScale.scaled(factor=100, phase_periods=2),
                transport=transport,
                join_rate=churn_rate,
                fail_rate=churn_rate,
                shards=shards,
                partition=partition,
            )
        )


class TestSteadyStateProbes:
    def _quiet_system(self) -> ClashSystem:
        config = ClashConfig.small_scale()
        return ClashSystem.create(config, server_count=16, rng=RandomStream(42))

    def test_unchanged_servers_are_not_reprobed(self):
        system = self._quiet_system()
        system.run_load_check()
        first_pass = system.load_probes
        assert first_pass > 0  # every server starts dirty
        system.run_load_check()
        assert system.load_probes == first_pass, (
            "a steady-state load check re-probed servers whose load never changed"
        )

    def test_first_check_probes_every_server_once(self):
        system = self._quiet_system()
        system.run_load_check()
        assert system.load_probes == len(system.servers())

    def test_period_boundary_reprobes_every_server(self):
        system = self._quiet_system()
        system.run_load_check()
        baseline = system.load_probes
        # reset_interval clears the interval's measurements: every verdict
        # is stale, even where the cleared values happen to be unchanged.
        for server in system.servers().values():
            server.reset_interval()
        system.run_load_check()
        assert system.load_probes == baseline + len(system.servers())

    def test_a_rate_change_dirties_exactly_the_touched_server(self):
        system = self._quiet_system()
        system.run_load_check()
        baseline = system.load_probes
        group, owner = next(iter(sorted(system.active_groups().items())))
        system.server(owner).set_group_rate(group, 1.0)
        system.run_load_check()
        assert system.load_probes == baseline + 1, (
            "changing one server's measured rate must re-probe that server only"
        )

    def test_membership_events_dirty_the_touched_servers(self):
        system = self._quiet_system()
        system.run_load_check()
        baseline = system.load_probes
        handed_off = system.handle_server_join("late-joiner")
        system.run_load_check()
        # The joiner plus every former owner it drained must be re-probed;
        # untouched servers must not be.
        touched = {"late-joiner"} | set(handed_off.values())
        assert system.load_probes == baseline + len(touched)
