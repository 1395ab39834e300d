"""Invariant oracles the schedule fuzzer runs at every quiescent point.

An oracle is a set of callbacks the harness installs on a
:class:`~repro.sim.simulator.FlowSimulator` (via ``set_oracles``):
``check_system`` fires after membership events, after each balance
iteration's load check and at period boundaries; ``check_load_check``
additionally sees each load check's report of splits and merges;
``check_sample`` additionally sees each freshly built
:class:`~repro.sim.metrics.PeriodSample`.  A violated property raises
:class:`OracleViolation`, which carries a stable ``check`` name — the
shrinker's predicate compares check names, not messages, so a minimised
schedule counts as reproducing the failure even when the detail text differs.

Two oracles ship:

* :class:`InvariantOracle` (``"invariants"``) — the real one: the full
  protocol invariant pass (prefix-freeness, coverage, ownership registry,
  shard locality), liveness of the balance loop (in every steady period the
  loop converges and no group splits and merges back) and metric sanity
  checks on every period sample.
* :class:`TieWitnessOracle` (``"tie-witness"``) — a synthetic oracle for
  testing the fuzz loop itself: it "fails" exactly when every one of its
  witness tie-break draws exceeded a threshold, which makes the minimal
  failing schedule *predictable* (precisely the witness entries, since a
  masked tie draws the FIFO default 0.0).
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

from repro.sim.metrics import PeriodSample

__all__ = [
    "ORACLES",
    "FuzzOracle",
    "InvariantOracle",
    "OracleViolation",
    "TieWitnessOracle",
    "build_oracle",
]


class OracleViolation(AssertionError):
    """An oracle property failed.

    Attributes:
        check: Stable name of the violated property (e.g. ``"invariants"``
            or ``"metrics:load"``) — the shrinker's reproduction criterion.
        detail: Human-readable description of the violation.
    """

    def __init__(self, check: str, detail: str) -> None:
        super().__init__(f"{check}: {detail}")
        self.check = check
        self.detail = detail


class FuzzOracle:
    """Base oracle: named, parameterisable, bound to one simulator run."""

    name = "oracle"

    def params(self) -> dict:
        """JSON-ready constructor parameters (for the repro artifact)."""
        return {}

    def bind(self, simulator) -> None:
        """Attach to the simulator about to run (default: nothing)."""

    def check_system(self, system) -> None:
        """Verify system-state properties at a quiescent point."""

    def check_load_check(self, system, report) -> None:
        """See one balance iteration's load-check report (its splits and
        merges); called right after that iteration's ``check_system``."""

    def check_sample(self, system, sample: PeriodSample) -> None:
        """Verify a period's freshly built metrics sample."""


class InvariantOracle(FuzzOracle):
    """The production oracle: protocol invariants, liveness, metric sanity.

    ``check_system`` wraps
    :meth:`~repro.core.protocol.ClashSystem.verify_invariants`.
    ``check_load_check`` records which key groups the period split (shed
    splits only: a split that collapsed back onto its server moved nothing)
    and which of those it then merged back.  It reads them from each load
    check's report, not from the active-group set, which a split and
    merge-back inside one check leaves unchanged (a check's splits all
    precede its merges).  ``check_sample`` re-runs the invariants and then
    checks the liveness of every *steady* period, one that kept the
    previous period's workload and partition map: ``liveness:no-thrash``
    (no group split and then merged back) and ``liveness:converged`` (the
    balance loop ended before ``max_balance_iterations``).

    The convergence check is waived while some shard is saturated, i.e. its
    mean server load is above half the overload threshold: a server
    overloaded by one hot group sheds half of it, more than half the
    threshold, onto a hash-chosen peer of the same shard, and a peer
    carrying that shard's mean load then is overloaded in turn, so
    splitting cascades instead of cooling the shard (the static partition
    puts a skewed workload's whole hot region on one shard; docs/FUZZING.md
    has the measured loads).  A phase-entry or re-partitioned period may
    legitimately need more iterations than the cap to absorb the change;
    the simulator still reports every cap hit (sample flag,
    ``balance_cap_hits`` note, warning).  Last come the period metrics
    (loads, depths, rates, latency and shard fields must be finite, ordered
    and non-negative).
    """

    name = "invariants"

    def __init__(self) -> None:
        self._split: set = set()
        self._merged_back: set = set()
        self._last_period: tuple[str, int] | None = None

    def check_system(self, system) -> None:
        try:
            system.verify_invariants()
        except OracleViolation:
            raise
        except AssertionError as error:
            raise OracleViolation("invariants", str(error)) from error

    def check_load_check(self, system, report) -> None:
        self._split.update(outcome.group for outcome in report.splits if outcome.shed)
        self._merged_back.update(
            outcome.parent_group for outcome in report.merges
            if outcome.parent_group in self._split
        )

    def check_sample(self, system, sample: PeriodSample) -> None:
        self.check_system(system)
        period = (sample.workload, sample.partition_version)
        steady = period == self._last_period
        thrashed = sorted(self._merged_back) if steady else []
        self._last_period = period
        self._split, self._merged_back = set(), set()
        if thrashed:
            raise OracleViolation(
                "liveness:no-thrash",
                f"{len(thrashed)} group(s) split and merged back within the "
                f"steady period ending at t={sample.time}, first {thrashed[0]}",
            )
        if steady and not sample.balance_converged and not self._saturated(system):
            raise OracleViolation(
                "liveness:converged",
                f"the balance loop hit its cap after {sample.balance_iterations} "
                f"iterations with splits={sample.splits} merges={sample.merges} "
                f"at t={sample.time}",
            )
        for check, passed, detail in self._sample_checks(sample):
            if not passed:
                raise OracleViolation(check, detail)
        self._check_partition(system)

    @staticmethod
    def _saturated(system) -> bool:
        """True when some shard's mean server load is above half the
        overload threshold."""
        router = system.router
        totals = [0.0] * router.shard_count
        counts = [0] * router.shard_count
        for name, server in system.servers().items():
            shard = router.server_shard(name)
            totals[shard] += server.total_load()
            counts[shard] += 1
        limit = system.config.overload_load / 2.0
        return any(total > limit * count for total, count in zip(totals, counts))

    @staticmethod
    def _check_partition(system) -> None:
        """Every registered group's key lands on the shard that owns it.

        The partition map is the single routing authority after a rebalance:
        a group registered to a server of some other shard would be
        unreachable through ``shard_of_key`` routing.  Single-ring systems
        have no partition to check.
        """
        router = system.router
        if router.shard_count <= 1:
            return
        for group, owner in sorted(system.active_groups().items()):
            key_shard = router.shard_of_key(group.virtual_key)
            owner_shard = router.server_shard(owner)
            if key_shard != owner_shard:
                raise OracleViolation(
                    "metrics:partition",
                    f"group {group} maps to shard {key_shard} (partition "
                    f"version {router.partition_version}) but its owner "
                    f"{owner!r} lives on shard {owner_shard}",
                )

    @staticmethod
    def _sample_checks(sample: PeriodSample):
        """Yield ``(check name, passed, detail)`` for one period sample."""

        def finite(*values: float) -> bool:
            return all(math.isfinite(value) for value in values)

        yield (
            "metrics:load",
            finite(sample.max_load_percent, sample.avg_load_percent)
            and 0.0 <= sample.avg_load_percent <= sample.max_load_percent,
            f"avg={sample.avg_load_percent} max={sample.max_load_percent} "
            f"at t={sample.time}",
        )
        yield (
            "metrics:depth",
            finite(sample.min_depth, sample.avg_depth, sample.max_depth)
            and sample.min_depth <= sample.avg_depth <= sample.max_depth,
            f"min={sample.min_depth} avg={sample.avg_depth} "
            f"max={sample.max_depth} at t={sample.time}",
        )
        yield (
            "metrics:rates",
            finite(sample.messages_per_server_per_second)
            and sample.messages_per_server_per_second >= 0.0
            and sample.splits >= 0
            and sample.merges >= 0
            and all(
                finite(rate) and rate >= 0.0
                for rate in sample.message_breakdown.values()
            ),
            f"msgs/server/s={sample.messages_per_server_per_second} "
            f"splits={sample.splits} merges={sample.merges} at t={sample.time}",
        )
        yield (
            "metrics:latency",
            finite(sample.mean_message_latency)
            and sample.mean_message_latency >= 0.0,
            f"mean latency={sample.mean_message_latency} at t={sample.time}",
        )
        yield (
            "metrics:churn",
            sample.server_joins >= 0
            and sample.server_failures >= 0
            and sample.groups_reassigned >= 0
            and sample.dropped_messages >= 0,
            f"joins={sample.server_joins} failures={sample.server_failures} "
            f"reassigned={sample.groups_reassigned} "
            f"dropped={sample.dropped_messages} at t={sample.time}",
        )
        yield (
            "metrics:shards",
            sample.shard_count >= 1
            and len(sample.shard_peak_loads) in (0, sample.shard_count)
            and finite(sample.cross_shard_imbalance)
            and sample.cross_shard_imbalance >= 0.0,
            f"shard_count={sample.shard_count} "
            f"peaks={len(sample.shard_peak_loads)} "
            f"imbalance={sample.cross_shard_imbalance} at t={sample.time}",
        )
        yield (
            "metrics:partition",
            sample.groups_migrated >= 0
            and sample.partition_version >= 0
            and (sample.shard_count > 1 or sample.groups_migrated == 0),
            f"migrated={sample.groups_migrated} "
            f"version={sample.partition_version} "
            f"shard_count={sample.shard_count} at t={sample.time}",
        )


class TieWitnessOracle(FuzzOracle):
    """Synthetic oracle: fails iff every witness tie draw exceeds a threshold.

    With the default threshold 0.0 and a strictly-greater comparison, a
    seeded-RNG recording fails with probability one (genuine uniform draws
    are positive) while any schedule that *masks* one witness entry passes
    (a masked tie replays the FIFO default 0.0).  Delta debugging on such a
    failure therefore converges to exactly the witness entries — a known
    minimal set the shrinker tests assert on.

    Args:
        indices: Tie-tape draw indices that must all exceed the threshold.
        threshold: The strict lower bound on each witness draw.
    """

    name = "tie-witness"

    def __init__(self, indices: Sequence[int], threshold: float = 0.0) -> None:
        self.indices = tuple(sorted(int(index) for index in indices))
        if not self.indices:
            raise ValueError("tie-witness oracle needs at least one index")
        self.threshold = float(threshold)
        self._simulator = None

    def params(self) -> dict:
        return {"indices": list(self.indices), "threshold": self.threshold}

    def bind(self, simulator) -> None:
        self._simulator = simulator

    def _draws(self) -> Sequence[float]:
        if self._simulator is None:
            return ()
        source = getattr(self._simulator.transport, "ready_source", None)
        return getattr(source, "draws", ())

    def check_sample(self, system, sample: PeriodSample) -> None:
        draws = self._draws()
        if not draws or self.indices[-1] >= len(draws):
            return
        if all(draws[index] > self.threshold for index in self.indices):
            raise OracleViolation(
                "tie-witness",
                f"tie draws at {list(self.indices)} all exceed "
                f"{self.threshold} at t={sample.time}",
            )


ORACLES: dict[str, Callable[[Mapping], FuzzOracle]] = {
    InvariantOracle.name: lambda params: InvariantOracle(),
    TieWitnessOracle.name: lambda params: TieWitnessOracle(**params),
}
"""Oracle constructors by name; each takes the artifact's parameter dict."""


def build_oracle(name: str, params: Mapping | None = None) -> FuzzOracle:
    """Construct a *fresh* oracle instance by registry name."""
    if name not in ORACLES:
        raise ValueError(
            f"unknown oracle {name!r}; expected one of {', '.join(sorted(ORACLES))}"
        )
    return ORACLES[name](dict(params or {}))
