"""Oracle behaviour: the invariant oracle, liveness, metric sanity, tie-witness."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core.config import ClashConfig
from repro.core.protocol import ClashSystem, MergeOutcome, SplitOutcome, _LoadCheckReport
from repro.core.server import ClashServer
from repro.fuzz import FuzzPlan, enumerate_cases
from repro.fuzz.harness import run_case
from repro.fuzz.oracle import (
    ORACLES,
    InvariantOracle,
    OracleViolation,
    TieWitnessOracle,
    build_oracle,
)
from repro.keys.keygroup import KeyGroup
from repro.sim.metrics import PeriodSample
from repro.util.rng import RandomStream


def _healthy_sample(**overrides) -> PeriodSample:
    values = dict(
        time=300.0,
        workload="A",
        max_load_percent=60.0,
        avg_load_percent=40.0,
        active_servers=10,
        min_depth=4.0,
        avg_depth=5.5,
        max_depth=8.0,
        splits=2,
        merges=1,
        messages_per_server_per_second=0.5,
        message_breakdown={"LOOKUP": 0.1},
        mean_message_latency=0.01,
    )
    values.update(overrides)
    return PeriodSample(**values)


@pytest.fixture
def small_system() -> ClashSystem:
    system = ClashSystem.create(
        ClashConfig.small_scale(), server_count=4, rng=RandomStream(7)
    )
    return system


def _drop_split_estimate(monkeypatch) -> None:
    """Reintroduce the split/merge livelock: a shed right child arrives
    without the parent's rate estimate, so it reports load 0.0 until its
    new owner measures it."""
    accept = ClashServer.accept_keygroup

    def unmeasured(server, message, queries=None):
        accept(server, dataclasses.replace(message, estimated_rate=None), queries)

    monkeypatch.setattr(ClashServer, "accept_keygroup", unmeasured)


def _one_hot_group(system: ClashSystem) -> KeyGroup:
    """Load one group of the busiest server to 95% of capacity and idle the
    rest of its groups: one split then leaves the server under-loaded, so
    the same load check runs its consolidation pass."""
    owner = max(
        system.server_names(), key=lambda name: len(system.server(name).active_groups())
    )
    server = system.server(owner)
    groups = sorted(server.active_groups())
    for group in groups:
        server.set_group_rate(group, 0.0)
    server.set_group_rate(groups[-1], 0.95 * system.config.server_capacity)
    return groups[-1]


def _split_and_merge_back(system: ClashSystem, oracle: InvariantOracle) -> None:
    """Split one group off a hot server, then consolidate it straight back,
    showing the oracle the system and the step's report after each step."""
    capacity = system.config.server_capacity
    for group, owner in sorted(system.active_groups().items()):
        system.server(owner).set_group_rate(group, 2.0 * capacity)
        outcome = system.split_server(owner)
        if outcome is not None and outcome.shed:
            break
    else:
        raise AssertionError("no split shed a child to another server")
    oracle.check_system(system)
    oracle.check_load_check(system, _LoadCheckReport(splits=[outcome]))
    system.server(outcome.parent_server).set_group_rate(outcome.left, 0.0)
    system.server(outcome.child_server).set_group_rate(outcome.right, 0.0)
    system.exchange_load_reports()
    merges = system.consolidate_server(outcome.parent_server)
    assert [merge.parent_group for merge in merges] == [outcome.group]
    oracle.check_system(system)
    oracle.check_load_check(system, _LoadCheckReport(merges=merges))


class TestLivenessChecks:
    def test_unconverged_steady_period_is_a_violation(self, small_system):
        oracle = InvariantOracle()
        oracle.check_sample(small_system, _healthy_sample())
        with pytest.raises(OracleViolation) as info:
            oracle.check_sample(
                small_system,
                _healthy_sample(time=600.0, balance_iterations=30, balance_converged=False),
            )
        assert info.value.check == "liveness:converged"

    @pytest.mark.parametrize(
        "previous", [{"workload": "B"}, {"partition_version": 1}], ids=["new-workload", "new-map"]
    )
    def test_unconverged_period_after_a_change_is_reported_not_flagged(
        self, small_system, previous
    ):
        oracle = InvariantOracle()
        oracle.check_sample(small_system, _healthy_sample(**previous))
        oracle.check_sample(
            small_system,
            _healthy_sample(time=600.0, balance_iterations=30, balance_converged=False),
        )

    @pytest.mark.parametrize("mean_load", [0.55, 0.45], ids=["saturated", "cool"])
    def test_saturation_waiver_starts_at_half_the_overload_threshold(
        self, small_system, mean_load
    ):
        """``mean_load`` is the shard's mean server load as a fraction of the
        overload threshold; the waiver applies above one half."""
        oracle = InvariantOracle()
        oracle.check_sample(small_system, _healthy_sample())
        groups = sorted(small_system.active_groups().items())
        for group, owner in groups:
            small_system.server(owner).set_group_rate(group, 0.0)
        group, owner = groups[0]
        total = mean_load * small_system.config.overload_load * len(small_system.server_names())
        small_system.server(owner).set_group_rate(group, total)
        unconverged = _healthy_sample(
            time=600.0, balance_iterations=30, balance_converged=False
        )
        if mean_load > 0.5:
            oracle.check_sample(small_system, unconverged)
            return
        with pytest.raises(OracleViolation) as info:
            oracle.check_sample(small_system, unconverged)
        assert info.value.check == "liveness:converged"

    def test_split_and_merge_back_in_a_steady_period_is_thrash(self, small_system):
        oracle = InvariantOracle()
        oracle.check_sample(small_system, _healthy_sample())
        _split_and_merge_back(small_system, oracle)
        with pytest.raises(OracleViolation) as info:
            oracle.check_sample(small_system, _healthy_sample(time=600.0))
        assert info.value.check == "liveness:no-thrash"

    def test_split_and_merge_back_across_a_phase_change_is_not_thrash(self, small_system):
        oracle = InvariantOracle()
        oracle.check_sample(small_system, _healthy_sample(workload="B"))
        _split_and_merge_back(small_system, oracle)
        oracle.check_sample(small_system, _healthy_sample(time=600.0))

    def test_merge_then_resplit_is_not_thrash(self, small_system):
        """A merge undone by a later split is not a merge-back: load shed onto
        the merging server later in the period may overload it again."""
        oracle = InvariantOracle()
        oracle.check_sample(small_system, _healthy_sample())
        group, owner = sorted(small_system.active_groups().items())[0]
        left, right = group.split()
        merge = MergeOutcome(
            parent_server=owner, parent_group=group, child_server="s0", returned_queries=0
        )
        split = SplitOutcome(
            parent_server=owner,
            group=group,
            left=left,
            right=right,
            child_server="s0",
            migrated_queries=0,
            self_collisions=0,
            shed=True,
        )
        oracle.check_load_check(small_system, _LoadCheckReport(merges=[merge]))
        oracle.check_load_check(small_system, _LoadCheckReport(splits=[split]))
        oracle.check_sample(small_system, _healthy_sample(time=600.0))

    def test_split_and_merge_back_inside_one_load_check_is_thrash(
        self, small_system, monkeypatch
    ):
        """The original livelock: the split pass sheds a child, the child
        reports 0.0 and the same check's consolidation pass merges it back,
        so the active groups are unchanged at every point the oracle sees."""
        _drop_split_estimate(monkeypatch)
        oracle = InvariantOracle()
        oracle.check_sample(small_system, _healthy_sample())
        hot = _one_hot_group(small_system)
        before = set(small_system.active_groups())
        report = small_system.run_load_check(max_splits_per_server=1)
        assert hot in {outcome.group for outcome in report.splits if outcome.shed}
        assert hot in {outcome.parent_group for outcome in report.merges}
        assert set(small_system.active_groups()) == before
        oracle.check_system(small_system)
        oracle.check_load_check(small_system, report)
        with pytest.raises(OracleViolation) as info:
            oracle.check_sample(small_system, _healthy_sample(time=600.0))
        assert info.value.check == "liveness:no-thrash"

    @pytest.mark.parametrize("estimate", [True, False], ids=["fixed", "livelock"])
    def test_fuzz_run_flags_the_livelock(self, monkeypatch, estimate):
        """Through the harness and simulator wiring: a calm single-ring run
        is clean, and the same run without the split estimate thrashes."""
        if not estimate:
            _drop_split_estimate(monkeypatch)
        plan = FuzzPlan(
            transports=("async",),
            shards=(1,),
            seeds=(0,),
            churn_rates=((0.0, 0.0),),
            budget=1,
            scale_factor=100,
            phase_periods=2,
        )
        (case,) = enumerate_cases(plan)
        outcome = run_case(case, oracle=InvariantOracle())
        if estimate:
            assert outcome.violation is None
        else:
            assert outcome.violation is not None
            assert outcome.violation.check == "liveness:no-thrash"


class TestInvariantOracle:
    def test_healthy_system_passes(self, small_system):
        oracle = InvariantOracle()
        oracle.check_system(small_system)
        oracle.check_sample(small_system, _healthy_sample())

    def test_assertion_becomes_typed_violation(self, small_system):
        oracle = InvariantOracle()
        # Corrupt the ownership registry behind the servers' backs: register
        # a child of an active group, creating an overlapping pair.
        group = next(iter(small_system.active_groups()))
        owner = small_system._group_owner[group]
        small_system._group_owner[group.child(0)] = owner
        with pytest.raises(OracleViolation) as info:
            oracle.check_system(small_system)
        assert info.value.check == "invariants"

    @pytest.mark.parametrize(
        "overrides, check",
        [
            ({"avg_load_percent": 70.0, "max_load_percent": 60.0}, "metrics:load"),
            ({"max_load_percent": math.nan}, "metrics:load"),
            ({"avg_depth": 3.0, "min_depth": 4.0}, "metrics:depth"),
            ({"messages_per_server_per_second": -1.0}, "metrics:rates"),
            ({"message_breakdown": {"LOOKUP": math.inf}}, "metrics:rates"),
            ({"mean_message_latency": -0.5}, "metrics:latency"),
            ({"dropped_messages": -1}, "metrics:churn"),
            ({"server_failures": -2}, "metrics:churn"),
            ({"shard_count": 4, "shard_peak_loads": (1.0, 2.0)}, "metrics:shards"),
            ({"cross_shard_imbalance": -1.0}, "metrics:shards"),
            ({"groups_migrated": -1}, "metrics:partition"),
            ({"partition_version": -1}, "metrics:partition"),
            # A single ring has no shard boundary to move a group across.
            ({"groups_migrated": 3}, "metrics:partition"),
        ],
    )
    def test_metric_sanity_checks(self, small_system, overrides, check):
        oracle = InvariantOracle()
        with pytest.raises(OracleViolation) as info:
            oracle.check_sample(small_system, _healthy_sample(**overrides))
        assert info.value.check == check

    def test_sharded_sample_checks_group_shard_locality(self):
        system = ClashSystem.create(
            ClashConfig.small_scale(), server_count=8, rng=RandomStream(21), shards=2
        )
        oracle = InvariantOracle()
        sample = _healthy_sample(
            shard_count=2, shard_peak_loads=(50.0, 40.0), cross_shard_imbalance=1.1
        )
        oracle.check_sample(system, sample)
        # Re-home one group onto the wrong shard behind the routers' backs.
        router = system.router
        group = next(iter(system.active_groups()))
        home = router.shard_of_key(group.virtual_key)
        stray = next(
            name
            for name in sorted(system.server_names())
            if router.server_shard(name) != home
        )
        system._group_owner[group] = stray
        # check_sample trips on it too, but verify_invariants (which also
        # polices shard registration) runs first and claims the violation;
        # the partition cross-check must flag the same corruption on its own.
        with pytest.raises(OracleViolation) as info:
            InvariantOracle._check_partition(system)
        assert info.value.check == "metrics:partition"
        with pytest.raises(OracleViolation):
            oracle.check_sample(system, sample)


class _FakeSimulator:
    """Just enough simulator surface for the tie-witness oracle."""

    def __init__(self, draws):
        self.transport = dataclasses.make_dataclass("T", ["ready_source"])(
            ready_source=dataclasses.make_dataclass("S", ["draws"])(draws=draws)
        )


class TestTieWitnessOracle:
    def test_fires_when_all_witnesses_exceed_threshold(self):
        oracle = TieWitnessOracle(indices=[1, 3], threshold=0.0)
        oracle.bind(_FakeSimulator([0.5, 0.9, 0.1, 0.7]))
        with pytest.raises(OracleViolation) as info:
            oracle.check_sample(None, _healthy_sample())
        assert info.value.check == "tie-witness"

    def test_passes_when_a_witness_is_masked_to_fifo(self):
        oracle = TieWitnessOracle(indices=[1, 3], threshold=0.0)
        oracle.bind(_FakeSimulator([0.5, 0.9, 0.1, 0.0]))
        oracle.check_sample(None, _healthy_sample())

    def test_passes_before_enough_draws_exist(self):
        oracle = TieWitnessOracle(indices=[10], threshold=0.0)
        oracle.bind(_FakeSimulator([0.5, 0.9]))
        oracle.check_sample(None, _healthy_sample())

    def test_requires_indices(self):
        with pytest.raises(ValueError):
            TieWitnessOracle(indices=[])


class TestRegistry:
    def test_build_by_name(self):
        assert isinstance(build_oracle("invariants"), InvariantOracle)
        witness = build_oracle("tie-witness", {"indices": [4], "threshold": 0.25})
        assert isinstance(witness, TieWitnessOracle)
        assert witness.indices == (4,)
        assert witness.threshold == 0.25

    def test_fresh_instance_per_build(self):
        assert build_oracle("invariants") is not build_oracle("invariants")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_oracle("psychic")

    def test_params_round_trip(self):
        params = {"indices": [2, 9], "threshold": 0.0}
        oracle = build_oracle("tie-witness", params)
        assert build_oracle(oracle.name, oracle.params()).params() == oracle.params()

    def test_registry_names_match(self):
        for name in ORACLES:
            assert build_oracle(name, {"indices": [0]} if name == "tie-witness" else {}).name == name
