"""The balance pass: one path, a verdict cache held to a test-side oracle.

``ClashSystem.run_load_check`` visits every server in both passes (split,
then report exchange, then consolidation) but re-probes a server's
overload/underload verdicts only when one of its load inputs changed since
the last probe.  These tests pin the contract:

* **Verdict-cache oracle** — in a randomized mutation run (rate and query
  overrides, joins, failures), every verdict the cache would serve equals a
  fresh ``(is_overloaded(), is_underloaded())`` probe after every load check.
* **Fresh splits are not merge candidates** — a pair split off an overloaded
  server carries the parent's half-rate estimate on both children, so the
  parent does not merge it back before anyone has measured it (the
  split/merge livelock).
* **Steady-state sparsity** — once converged, a load check performs zero
  verdict probes and delivers exactly the standing load reports.
* **Drop accounting** — a report whose destination unbinds while the
  envelope is in flight is counted once, in ``dropped_messages``, and is
  neither charged as a MERGE message nor counted as delivered.
"""

from __future__ import annotations

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.config import ClashConfig
from repro.core.messages import MessageCategory
from repro.core.protocol import ClashSystem
from repro.net import build_transport
from repro.net.event import EventTransport
from repro.net.latency import ConstantLatency
from repro.sim.engine import SimulationEngine
from repro.util.rng import RandomStream


def _system(seed: int = 99, initial_depth: int = 2) -> ClashSystem:
    return ClashSystem.create(
        ClashConfig.small_scale().with_overrides(initial_depth=initial_depth),
        server_count=16,
        rng=RandomStream(seed),
        transport=build_transport("inline"),
    )


def _assert_cached_verdicts_exact(system: ClashSystem) -> int:
    """Every verdict the cache would serve equals a fresh probe.

    A server whose load inputs changed since its last probe is in the dirty
    set and gets re-probed on its next read, so only clean cache entries are
    served as-is.  Returns how many such entries were checked.
    """
    checked = 0
    for name, server in system.servers().items():
        if name in system._dirty_load_servers or name not in system._load_flags:
            continue
        fresh = (server.is_overloaded(), server.is_underloaded())
        assert system._load_flags[name] == fresh, (
            f"{name}: cached verdicts {system._load_flags[name]} but a fresh "
            f"probe says {fresh}"
        )
        checked += 1
    return checked


class TestVerdictCacheOracle:
    def test_cached_verdicts_match_fresh_probes_under_random_mutations(self):
        system = _system()
        rng = random.Random(20040324)
        capacity = system.config.server_capacity
        joins = 0
        checked = 0
        splits = merges = 0
        for _round in range(60):
            groups = sorted(system.active_groups().items())
            for _ in range(rng.randrange(0, 4)):
                group, owner = groups[rng.randrange(len(groups))]
                server = system.server(owner)
                if rng.random() < 0.7:
                    server.set_group_rate(group, rng.uniform(0.0, 2.0 * capacity))
                else:
                    server.set_group_query_count(group, rng.uniform(0.0, 50.0))
            if rng.random() < 0.3:
                # Cool one server's groups off so cold sibling pairs appear.
                _group, owner = groups[rng.randrange(len(groups))]
                server = system.server(owner)
                for group in server.active_groups():
                    server.set_group_rate(group, rng.uniform(0.0, 0.05 * capacity))
            if rng.random() < 0.15:
                joins += 1
                system.handle_server_join(f"fz{joins}")
            elif rng.random() < 0.10:
                names = sorted(system.server_names())
                system.handle_server_failure(names[rng.randrange(len(names))])
            _assert_cached_verdicts_exact(system)
            report = system.run_load_check()
            splits += report.split_count
            merges += report.merge_count
            checked += _assert_cached_verdicts_exact(system)
            system.verify_invariants()
        # The run must have exercised real work and real cache hits.
        assert splits > 0 and merges > 0
        assert checked > 0
        assert system.load_probes > 0


def _hot_server(system: ClashSystem) -> str:
    """The server holding the most active groups (ties: the first name)."""
    counts: dict[str, int] = {}
    for owner in system.active_groups().values():
        counts[owner] = counts.get(owner, 0) + 1
    return min(counts, key=lambda name: (-counts[name], name))


class TestFreshSplitIsNotMergeable:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=40),
        hot=st.floats(min_value=0.05, max_value=2.0),
        others=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6),
    )
    def test_split_pair_is_not_a_candidate_before_it_is_measured(self, seed, hot, others):
        """Split, exchange reports, and the pair must not be mergeable yet."""
        system = _system(seed=seed, initial_depth=4)
        capacity = system.config.server_capacity
        name = _hot_server(system)
        server = system.server(name)
        groups = sorted(server.active_groups())
        server.set_group_rate(groups[0], hot * capacity)
        for group, fraction in zip(groups[1:], others):
            server.set_group_rate(group, fraction * capacity)
        assume(server.is_overloaded())
        outcome = system.split_server(name)
        assume(outcome is not None and outcome.shed)
        # The shed child reports the parent's estimate, not an unmeasured 0.0.
        child = system.server(outcome.child_server)
        assert child.group_loads()[outcome.right].data_rate == (
            server.group_loads()[outcome.left].data_rate
        )
        system.exchange_load_reports()
        assert outcome.group not in server.consolidation_candidates()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=40),
        rates=st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=16, max_size=16),
    )
    def test_a_load_check_never_merges_back_what_it_split(self, seed, rates):
        system = _system(seed=seed, initial_depth=4)
        capacity = system.config.server_capacity
        for (group, owner), fraction in zip(sorted(system.active_groups().items()), rates):
            system.server(owner).set_group_rate(group, fraction * capacity)
        report = system.run_load_check(max_splits_per_server=1)
        split = {outcome.group for outcome in report.splits if outcome.shed}
        merged = {outcome.parent_group for outcome in report.merges}
        assert not split & merged


class TestSteadyState:
    def test_converged_check_probes_nothing_and_posts_only_standing_reports(self):
        system = _system()
        groups = sorted(system.active_groups().items())
        group, owner = groups[0]
        # 1.5× capacity forces one split; the halves settle between the
        # underload and overload thresholds, so the pair is stable and the
        # child reports to its parent every check.
        system.server(owner).set_group_rate(group, 1.5 * system.config.server_capacity)
        converged = False
        for _ in range(10):
            report = system.run_load_check()
            if report.split_count == 0 and report.merge_count == 0:
                converged = True
                break
        assert converged, "the single-split workload never settled"
        probes = system.load_probes
        standing = sum(
            len(server.addressed_load_reports()) for server in system.servers().values()
        )
        assert standing > 0, "the split should have left a cross-server child"
        delivered_before = system.transport.envelopes_delivered
        report = system.run_load_check()
        assert report.split_count == 0 and report.merge_count == 0
        assert system.load_probes == probes, "steady state re-probed a verdict"
        assert system.transport.envelopes_delivered - delivered_before == standing, (
            "a steady-state check must deliver exactly the standing load reports"
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
