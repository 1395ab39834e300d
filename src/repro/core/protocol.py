"""The CLASH redirection layer: servers + Chord ring + message accounting.

:class:`ClashSystem` is the package's main entry point.  It owns the routing
tier (a :class:`~repro.dht.router.RingRouter` over one Chord ring, or a
sharded federation of them), the :class:`~repro.core.server.ClashServer`
instances, and the global message counters, and it mediates every inter-node
interaction:

* routing ``ACCEPT_OBJECT`` probes from clients to the DHT-resolved server,
* orchestrating splits (including the "right child maps back to myself, so
  split again" retry described in Section 5),
* orchestrating bottom-up consolidation (load reports, ``RELEASE_KEYGROUP``),
* bookkeeping of which server currently owns each active key group.

Every exchange travels as an :class:`~repro.net.envelope.Envelope` through a
pluggable :class:`~repro.net.transport.Transport`: the default
:class:`~repro.net.inline.InlineTransport` dispatches synchronously (the
original semantics), while the event-driven and asyncio transports add
simulated latency or awaitable delivery without touching protocol code.

The ownership registry kept here is *simulator-side* state used for metrics
and invariant checking; the protocol itself never consults it — clients
discover groups exclusively through ``ACCEPT_OBJECT`` probes and servers know
only their own tables, exactly as in the paper.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

from repro.core.client import ClashClient
from repro.core.config import ClashConfig
from repro.core.messages import (
    AcceptKeyGroup,
    AcceptObject,
    AcceptObjectReply,
    LoadReport,
    MessageCategory,
    MessageStats,
    ReleaseKeyGroup,
)
from repro.core.policy import MergePolicy, SplitPolicy
from repro.core.server import ClashServer
from repro.core.server_table import SELF_PARENT
from repro.dht.hashspace import HashSpace
from repro.dht.partition import PartitionMap
from repro.dht.ring import ChordRing
from repro.dht.router import RingRouter, build_router
from repro.keys.identifier import IdentifierKey
from repro.keys.keygroup import KeyGroup, first_overlapping_pair
from repro.net.envelope import DhtAddress, Envelope
from repro.net.inline import InlineTransport
from repro.net.transport import DeliveryFailed, Transport, TransportError
from repro.util.rng import RandomStream
from repro.util.validation import check_positive, check_power_of_two, check_type

__all__ = ["AwaitableHandler", "ClashSystem", "SplitOutcome", "MergeOutcome"]


class AwaitableHandler:
    """The thin sync/async bridge every server endpoint is bound behind.

    Synchronous transports (inline, event) call the handler like a plain
    function — dispatch runs on the caller's stack, exactly as before.
    The asyncio transport awaits :meth:`handle_async` instead, which also
    unwraps handlers that themselves return awaitables, so individual server
    handlers may become native coroutines without touching the transports.
    """

    __slots__ = ("_handle",)

    def __init__(self, handle) -> None:
        self._handle = handle

    def __call__(self, envelope: Envelope):
        reply = self._handle(envelope)
        if inspect.isawaitable(reply):
            if inspect.iscoroutine(reply):
                reply.close()  # silence the never-awaited warning
            raise TransportError(
                "handler returned an awaitable on a synchronous transport; "
                "use the async transport for coroutine handlers"
            )
        return reply

    async def handle_async(self, envelope: Envelope):
        """Awaitable dispatch (used by the asyncio transport)."""
        reply = self._handle(envelope)
        if inspect.isawaitable(reply):
            reply = await reply
        return reply


@dataclass(frozen=True)
class SplitOutcome:
    """Result of one attempt by an overloaded server to shed load.

    Attributes:
        parent_server: Name of the splitting server.
        group: The key group that was split (the deepest one actually split,
            after any self-collision retries).
        left: The left child, retained by the parent.
        right: The right child, transferred to ``child_server``.
        child_server: Name of the server that accepted the right child.
        migrated_queries: Number of persistent queries migrated with the group.
        self_collisions: How many times the DHT mapped the right child back to
            the splitting server before a distinct child was found.
        shed: True if responsibility was actually transferred to another
            server; False if every retry collapsed back onto the parent.
    """

    parent_server: str
    group: KeyGroup
    left: KeyGroup
    right: KeyGroup
    child_server: str
    migrated_queries: int
    self_collisions: int
    shed: bool


@dataclass(frozen=True)
class MergeOutcome:
    """Result of one bottom-up consolidation.

    Attributes:
        parent_server: Server that resumed management of the parent group.
        parent_group: The group whose children were merged back.
        child_server: Server that released the right child.
        returned_queries: Queries migrated back to the parent.
    """

    parent_server: str
    parent_group: KeyGroup
    child_server: str
    returned_queries: int


@dataclass
class _LoadCheckReport:
    """Aggregate outcome of one system-wide load check.

    Attributes:
        splits: Every split performed during the check.
        merges: Every consolidation performed during the check.
        touched_groups: Every key group whose assignment (owner, measured
            rate or query override) may have changed during the check —
            split parents and both children (including self-collision
            intermediates), merge parents and the released children, and
            shed/handoff targets.  An incremental load assigner only needs
            to refresh these groups; all others still carry exact values.
        retired_assignments: ``(group, former owner)`` pairs for every
            deactivation during the check.  A full reassignment implicitly
            discards the former owner's measurements via ``reset_interval``;
            an incremental assigner must prune them explicitly (stale query
            overrides would otherwise be resurrected if the same group is
            re-activated on that server in a later check).
    """

    splits: list[SplitOutcome] = field(default_factory=list)
    merges: list[MergeOutcome] = field(default_factory=list)
    touched_groups: set[KeyGroup] = field(default_factory=set)
    retired_assignments: list[tuple[KeyGroup, str]] = field(default_factory=list)

    @property
    def split_count(self) -> int:
        return len(self.splits)

    @property
    def merge_count(self) -> int:
        return len(self.merges)


class ClashSystem:
    """A complete CLASH deployment over one Chord ring or a sharded federation.

    Args:
        config: Protocol configuration.
        server_names: Names of the participating servers.
        rng: Random stream used for node placement on the ring (``None``
            derives node ids from names by hashing, which is also valid Chord
            behaviour).
        split_policy_factory: Optional callable producing a per-server split
            policy (ablation hook).
        merge_policy_factory: Optional callable producing a per-server merge
            policy (ablation hook).
        transport: The transport every inter-node envelope travels through
            (defaults to a fresh :class:`~repro.net.inline.InlineTransport`,
            which preserves direct synchronous dispatch).
        shards: Number of independent Chord rings the key space is
            partitioned across (power of two).  ``1`` — the default — routes
            through a :class:`~repro.dht.router.SingleRingRouter` and is
            bit-identical to the pre-sharding behaviour; higher values
            prefix-partition keys and servers across a
            :class:`~repro.dht.router.ShardedRingRouter` federation.
            ``log2(shards)`` may not exceed ``config.initial_depth``: root
            groups and all their descendants must be shard-local so that
            splits, merges and parent links never cross shards.
    """

    def __init__(
        self,
        config: ClashConfig,
        server_names: list[str],
        rng: RandomStream | None = None,
        split_policy_factory=None,
        merge_policy_factory=None,
        transport: Transport | None = None,
        shards: int = 1,
    ) -> None:
        check_type("config", config, ClashConfig)
        check_power_of_two("shards", shards)
        if not server_names:
            raise ValueError("at least one server is required")
        if len(set(server_names)) != len(server_names):
            raise ValueError("server names must be unique")
        shard_bits = shards.bit_length() - 1
        if shard_bits > config.initial_depth:
            raise ValueError(
                f"{shards} shards partition on {shard_bits} key bits, which "
                f"exceeds initial_depth={config.initial_depth}; root groups "
                "must be shard-local so splits and merges never cross shards"
            )
        if shards > len(server_names):
            raise ValueError(
                f"cannot spread {len(server_names)} servers over {shards} shards; "
                "every shard needs at least one server"
            )
        self._config = config
        self._split_policy_factory = split_policy_factory
        self._merge_policy_factory = merge_policy_factory
        self._space = HashSpace(bits=config.hash_bits)
        self._router = build_router(shards, space=self._space, key_bits=config.key_bits)
        used_ids: set[int] = set()
        for name in server_names:
            if rng is None:
                self._router.add_server(name)
            else:
                node_id = rng.randbits(config.hash_bits)
                while node_id in used_ids:
                    node_id = rng.randbits(config.hash_bits)
                used_ids.add(node_id)
                self._router.add_server(name, node_id=node_id)
        self._router.stabilise()
        # Overload-set tracking: servers push a load-change notification the
        # moment any load input of theirs mutates, and run_load_check probes
        # only the notified (dirty) servers, reusing cached overload /
        # underload verdicts for everyone else.  A server with no cached
        # verdicts yet is probed on first sight.
        self._dirty_load_servers: set[str] = set()
        self._load_flags: dict[str, tuple[bool, bool]] = {}
        self._servers: dict[str, ClashServer] = {}
        for name in server_names:
            self._servers[name] = self._make_server(name)
        self._group_owner: dict[KeyGroup, str] = {}
        # Maintained indexes over the ownership registry.  They are mutated
        # exclusively through _register_group/_unregister_group so that
        # active_servers() and depth_statistics() are O(active servers) /
        # O(distinct depths) reads instead of full registry scans.
        self._owner_counts: dict[str, int] = {}
        self._depth_counts: dict[int, int] = {}
        self._depth_total = 0
        self._touched_groups: set[KeyGroup] = set()
        self._retired_assignments: list[tuple[KeyGroup, str]] = []
        self._messages = MessageStats()
        self._bootstrapped = False
        #: Fresh overload/underload probes performed by load checks (telemetry
        #: for the steady-state tests; cached verdicts are not counted).
        self.load_probes = 0
        #: How many times :meth:`consolidate_server` ran a candidate sweep.
        self.consolidation_probes = 0
        self._transport = transport if transport is not None else InlineTransport()
        self._transport.set_resolver(self._router.lookup)
        for name, server in self._servers.items():
            self._transport.bind(name, self._make_endpoint(server))

    def _make_server(self, name: str) -> ClashServer:
        """Construct one server with this deployment's policy factories."""
        split_policy: SplitPolicy | None = (
            self._split_policy_factory() if self._split_policy_factory else None
        )
        merge_policy: MergePolicy | None = (
            self._merge_policy_factory() if self._merge_policy_factory else None
        )
        server = ClashServer(
            name=name,
            config=self._config,
            split_policy=split_policy,
            merge_policy=merge_policy,
        )
        # Every load-input mutation marks the server's cached verdicts stale.
        server.set_load_listener(self._dirty_load_servers.add)
        return server

    def _make_endpoint(self, server: ClashServer) -> AwaitableHandler:
        """The transport-facing handler for one server.

        Dispatches on the payload type of the incoming envelope; this is the
        single place where transported messages re-enter server code.  The
        returned :class:`AwaitableHandler` is callable for the synchronous
        transports and awaitable (``handle_async``) for the asyncio one.
        """

        def handle(envelope: Envelope):
            payload = envelope.payload
            if type(payload) is AcceptObject:
                return server.handle_accept_object(payload)
            if type(payload) is AcceptKeyGroup:
                server.accept_keygroup(payload, queries=envelope.attachment)
                return None
            if type(payload) is ReleaseKeyGroup:
                group = payload.group
                if group not in server.table or not server.table.entry(group).active:
                    # The child has split the group further since reporting;
                    # refuse the release (the parent skips this merge).
                    return None
                return server.release_group(group)
            if type(payload) is LoadReport:
                server.receive_load_report(payload)
                return None
            raise TransportError(
                f"server {server.name!r} cannot handle payload "
                f"{type(payload).__name__}"
            )

        return AwaitableHandler(handle)

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        config: ClashConfig,
        server_count: int,
        rng: RandomStream | None = None,
        bootstrap: bool = True,
        **kwargs,
    ) -> "ClashSystem":
        """Create a system with servers named ``s0 .. s{n-1}`` and bootstrap it."""
        check_type("server_count", server_count, int)
        check_positive("server_count", server_count)
        system = cls(
            config=config,
            server_names=[f"s{index}" for index in range(server_count)],
            rng=rng,
            **kwargs,
        )
        if bootstrap:
            system.bootstrap()
        return system

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> ClashConfig:
        """The protocol configuration."""
        return self._config

    @property
    def ring(self) -> ChordRing:
        """The underlying Chord ring (single-ring deployments only).

        Sharded deployments have no single ring; use :attr:`router` (and its
        ``rings()``) instead — accessing this property then raises
        :class:`AttributeError`.
        """
        return self._router.ring

    @property
    def router(self) -> RingRouter:
        """The routing tier every DHT resolution goes through."""
        return self._router

    @property
    def shard_count(self) -> int:
        """Number of independent rings the key space is partitioned across."""
        return self._router.shard_count

    @property
    def partition_version(self) -> int:
        """Version of the partition map routing currently follows (0 = single ring)."""
        return self._router.partition_version

    def dht_stats(self) -> dict[str, int]:
        """Routing-tier telemetry: lookup-memo and stabilisation counters.

        Flat dict with ``memo_``-prefixed lookup-memo counters and
        ``ring_``-prefixed stabilisation counters, summed across shards.
        Purely observational — reading it does not perturb the simulation.
        """
        stats = {f"memo_{k}": v for k, v in self._router.memo_stats().items()}
        stats.update(
            {f"ring_{k}": v for k, v in self._router.stabilise_stats().items()}
        )
        return stats

    def set_force_full_stabilise(self, flag: bool) -> None:
        """Force every ring onto the from-scratch stabilisation path.

        The reference mode the incremental repair is benchmarked and
        equivalence-tested against; it does not change any routing outcome,
        only how the routing state is recomputed.
        """
        self._router.set_force_full_stabilise(flag)

    def can_remove_server(self, name: str) -> bool:
        """True if ``name`` may fail without leaving a shard serverless."""
        return name in self._servers and self._router.can_remove(name)

    @property
    def messages(self) -> MessageStats:
        """Cumulative message counters (reset with :meth:`reset_messages`)."""
        return self._messages

    @property
    def transport(self) -> Transport:
        """The transport carrying every inter-node envelope."""
        return self._transport

    def reset_messages(self) -> None:
        """Zero the message counters (typically at the start of an interval)."""
        self._messages.reset()

    def servers(self) -> dict[str, ClashServer]:
        """All servers, keyed by name."""
        return dict(self._servers)

    def server(self, name: str) -> ClashServer:
        """A single server by name."""
        if name not in self._servers:
            raise KeyError(f"no server named {name!r}")
        return self._servers[name]

    def server_names(self) -> list[str]:
        """The names of every server in the deployment."""
        return list(self._servers)

    def active_servers(self) -> list[str]:
        """Names of the servers currently managing at least one key group."""
        return sorted(self._owner_counts)

    def active_groups(self) -> dict[KeyGroup, str]:
        """The current (active key group → owning server) map."""
        return dict(self._group_owner)

    def depth_statistics(self) -> tuple[int, float, int]:
        """(min, average, max) depth over all active key groups.

        Served from the maintained depth histogram: min/max scan the distinct
        depths present and the average divides the maintained depth sum, so
        the numbers are identical to a full registry scan at a fraction of
        the cost.
        """
        if not self._group_owner:
            raise ValueError("the system has no active key groups")
        return (
            min(self._depth_counts),
            self._depth_total / len(self._group_owner),
            max(self._depth_counts),
        )

    # ------------------------------------------------------------------ #
    # Ownership registry maintenance
    # ------------------------------------------------------------------ #

    def _register_group(self, group: KeyGroup, owner: str) -> None:
        """Record ``owner`` as managing ``group``, updating every index."""
        previous = self._group_owner.get(group)
        if previous is not None:
            self._unregister_group(group)
        self._group_owner[group] = owner
        self._owner_counts[owner] = self._owner_counts.get(owner, 0) + 1
        self._depth_counts[group.depth] = self._depth_counts.get(group.depth, 0) + 1
        self._depth_total += group.depth
        self._touched_groups.add(group)

    def _unregister_group(self, group: KeyGroup) -> None:
        """Drop ``group`` from the registry, updating every index."""
        owner = self._group_owner.pop(group, None)
        if owner is None:
            return
        remaining = self._owner_counts[owner] - 1
        if remaining:
            self._owner_counts[owner] = remaining
        else:
            del self._owner_counts[owner]
        depth_remaining = self._depth_counts[group.depth] - 1
        if depth_remaining:
            self._depth_counts[group.depth] = depth_remaining
        else:
            del self._depth_counts[group.depth]
        self._depth_total -= group.depth
        self._touched_groups.add(group)
        self._retired_assignments.append((group, owner))

    def drain_touched_groups(self) -> set[KeyGroup]:
        """Return-and-clear the groups touched since the last drain.

        The flow simulator feeds these into its dirty-group load assignment;
        a caller that never drains simply accumulates a larger (still
        correct) dirty set.
        """
        touched, self._touched_groups = self._touched_groups, set()
        return touched

    def drain_retired_assignments(self) -> list[tuple[KeyGroup, str]]:
        """Return-and-clear the ``(group, former owner)`` deactivation log.

        See :attr:`_LoadCheckReport.retired_assignments` for why an
        incremental assigner must consume these.
        """
        retired, self._retired_assignments = self._retired_assignments, []
        return retired

    def clear_all_child_reports(self) -> None:
        """Drop every server's child load reports (a period-boundary reset)."""
        for server in self._servers.values():
            server.clear_child_reports()

    def work_stats(self) -> dict[str, int]:
        """Counters measuring how much work the balance passes actually did.

        * ``load_check_probes`` — overload/underload verdict recomputations
          (:meth:`_load_verdicts` cache misses).
        * ``consolidation_probes`` — servers whose consolidation candidates
          were enumerated (:meth:`consolidate_server` calls).

        The paper-scale benchmark gate records these so a verdict-cache
        regression (suddenly probing everyone again) fails loudly even if
        wall-clock noise masks it.
        """
        return {
            "load_check_probes": self.load_probes,
            "consolidation_probes": self.consolidation_probes,
        }

    def make_client(self, name: str) -> ClashClient:
        """Create a client wired to this system's transport."""
        return ClashClient(
            name=name,
            router=self,
            key_bits=self._config.key_bits,
            initial_depth_hint=self._config.initial_depth,
        )

    # ------------------------------------------------------------------ #
    # Bootstrap
    # ------------------------------------------------------------------ #

    def bootstrap(self, initial_depth: int | None = None) -> None:
        """Partition the key space into root groups and assign them via the DHT.

        Every depth-``initial_depth`` key group is assigned to the server the
        DHT maps its virtual key to; those assignments become root ServerTable
        entries (ParentID = −1), which consolidation never collapses past.
        """
        if self._bootstrapped:
            raise RuntimeError("the system has already been bootstrapped")
        depth = initial_depth if initial_depth is not None else self._config.initial_depth
        if not self._config.min_depth <= depth <= self._config.key_bits:
            raise ValueError(
                f"initial depth must be in [{self._config.min_depth}, "
                f"{self._config.key_bits}], got {depth}"
            )
        shard_bits = self._router.shard_count.bit_length() - 1
        if shard_bits > depth:
            raise ValueError(
                f"cannot bootstrap at depth {depth} with {self._router.shard_count} "
                f"shards: root groups must be at least {shard_bits} deep to be "
                "shard-local"
            )
        for prefix in range(1 << depth):
            group = KeyGroup(prefix=prefix, depth=depth, width=self._config.key_bits)
            owner = self._router.owner_of_key(group.virtual_key)
            self._servers[owner].assign_root_group(group)
            self._register_group(group, owner)
        self._bootstrapped = True

    # ------------------------------------------------------------------ #
    # Group resolution (ground truth, used by the simulator and tests)
    # ------------------------------------------------------------------ #

    def find_active_group(self, key: IdentifierKey) -> tuple[KeyGroup, str]:
        """The active group containing ``key`` and its owner (registry view).

        This is the ground-truth resolution the simulator uses for efficiency;
        protocol-level resolution goes through
        :meth:`route_accept_object` / :class:`~repro.core.client.ClashClient`.
        """
        for depth in range(self._config.key_bits + 1):
            group = KeyGroup.from_key(key, depth)
            owner = self._group_owner.get(group)
            if owner is not None:
                return group, owner
        raise LookupError(f"no active key group covers key {key}")

    def owner_of_group(self, group: KeyGroup) -> str:
        """The owner of an active group (raises if the group is not active)."""
        if group not in self._group_owner:
            raise KeyError(f"group {group} is not an active key group")
        return self._group_owner[group]

    def find_owner(self, group: KeyGroup) -> str | None:
        """The owner of ``group``, or ``None`` when it is not active.

        A copy-free single-group read (``active_groups()`` copies the whole
        registry, which the per-iteration dirty-assignment path must avoid).
        """
        return self._group_owner.get(group)

    # ------------------------------------------------------------------ #
    # Message transport
    # ------------------------------------------------------------------ #

    def _charge_lookup(self, hops: int) -> int:
        """Charge one request/reply pair plus (optionally) DHT routing hops."""
        cost = 2
        self._messages.add(MessageCategory.LOOKUP, 2)
        if self._config.count_routing_hops:
            self._messages.add(MessageCategory.DHT_ROUTING, hops)
            cost += hops
        return cost

    def route_accept_object(
        self, key: IdentifierKey, estimated_depth: int, sender: str
    ) -> tuple[AcceptObjectReply, int]:
        """Route an ``ACCEPT_OBJECT`` probe to the DHT-resolved server.

        Returns the server's reply and the number of messages charged.
        """
        if not 0 <= estimated_depth <= self._config.key_bits:
            raise ValueError(
                f"estimated_depth must be in [0, {self._config.key_bits}], "
                f"got {estimated_depth}"
            )
        group = KeyGroup.from_key(key, estimated_depth)
        message = AcceptObject(key=key, estimated_depth=estimated_depth, sender=sender)
        try:
            delivery = self._transport.request(
                Envelope(
                    source=sender,
                    destination=DhtAddress(group.virtual_key),
                    payload=message,
                    category=MessageCategory.LOOKUP,
                )
            )
        except DeliveryFailed:
            # The resolved owner failed with the probe in flight.  Charge the
            # lost request (no reply ever travels back) and let the typed
            # failure reach the client, which retries against the
            # re-stabilised DHT.
            self._messages.add(MessageCategory.LOOKUP, 1)
            raise
        cost = self._charge_lookup(delivery.hops)
        return delivery.reply, cost

    def deliver_data(self, server_name: str, packet_count: float = 1.0) -> None:
        """Account application data packets delivered directly to a server."""
        if server_name not in self._servers:
            raise KeyError(f"no server named {server_name!r}")
        self._messages.add(MessageCategory.DATA, packet_count)

    # ------------------------------------------------------------------ #
    # Splitting
    # ------------------------------------------------------------------ #

    def split_server(self, server_name: str) -> SplitOutcome | None:
        """Ask an overloaded server to shed load by splitting one key group.

        Implements Section 5: split the selected group, use the DHT to find
        the right child's owner, and transfer responsibility with
        ``ACCEPT_KEYGROUP``, which carries the parent's half-rate estimate
        for the right child (the left child keeps the same estimate) so the
        new owner does not report an unmeasured group as idle and invite an
        immediate merge.  If the DHT maps the right child back to the
        splitting server, the depth is increased again (bounded by
        ``split_retry_limit``); each such self-collision leaves an extra local
        split behind, exactly as the paper describes.

        Returns ``None`` when the server has nothing left to split.
        """
        server = self.server(server_name)
        group = server.choose_group_to_split()
        if group is None:
            return None
        self_collisions = 0
        current = group
        for _attempt in range(self._config.split_retry_limit):
            left, right = current.split()
            child_owner, hops = self._transport.resolve(right.virtual_key)
            if self._config.count_routing_hops:
                self._messages.add(MessageCategory.DHT_ROUTING, hops)
            if child_owner != server_name:
                left_group, right_group, migrated, right_rate = server.perform_split(
                    current, child_owner
                )
                transfer = AcceptKeyGroup(
                    group=right_group,
                    parent_server=server_name,
                    migrated_queries=len(migrated),
                    estimated_rate=right_rate,
                )
                try:
                    self._transport.request(
                        Envelope(
                            source=server_name,
                            destination=child_owner,
                            payload=transfer,
                            category=MessageCategory.SPLIT,
                            attachment=migrated,
                        )
                    )
                except DeliveryFailed:
                    # The chosen child failed with the ACCEPT_KEYGROUP in
                    # flight: responsibility never moved.  Revert the local
                    # split (the queries come home with it) and report no
                    # split this pass — the next load check re-resolves the
                    # right child against the recovered ring.
                    server.undo_split(current, queries=migrated)
                    self._messages.add(MessageCategory.SPLIT, 1)  # lost transfer
                    self._touched_groups.add(current)
                    return None
                self._messages.add(MessageCategory.SPLIT, 2)  # transfer + ack
                self._messages.add(MessageCategory.STATE_TRANSFER, len(migrated))
                self._unregister_group(current)
                self._register_group(left_group, server_name)
                self._register_group(right_group, child_owner)
                return SplitOutcome(
                    parent_server=server_name,
                    group=current,
                    left=left_group,
                    right=right_group,
                    child_server=child_owner,
                    migrated_queries=len(migrated),
                    self_collisions=self_collisions,
                    shed=True,
                )
            # The right child maps back to this very server: keep both halves
            # locally and re-randomise by splitting the right child again.
            if current.depth + 1 >= self._config.effective_max_depth:
                break
            left_group, right_group = server.perform_local_split(current)
            self._unregister_group(current)
            self._register_group(left_group, server_name)
            self._register_group(right_group, server_name)
            self_collisions += 1
            current = right_group
        return SplitOutcome(
            parent_server=server_name,
            group=current,
            left=current,
            right=current,
            child_server=server_name,
            migrated_queries=0,
            self_collisions=self_collisions,
            shed=False,
        )

    # ------------------------------------------------------------------ #
    # Consolidation
    # ------------------------------------------------------------------ #

    def exchange_load_reports(self) -> int:
        """Deliver every leaf's periodic load report to its parent server.

        Returns the number of reports delivered (each is charged as one MERGE
        message).  A report whose destination unbinds while the envelope is
        in flight is counted once, in the transport's ``dropped_messages`` —
        it is neither charged as a MERGE message nor counted as delivered.
        """
        posted = 0
        drops_before = self._transport.dropped_messages
        # Snapshot: an event-transport churn event may alter membership
        # while a report is in flight.
        for server in list(self._servers.values()):
            # The child knows its parent server directly: it is the
            # ParentID recorded when the group was transferred.
            for parent_name, report in server.addressed_load_reports():
                if parent_name not in self._servers:
                    continue
                self._transport.post(
                    Envelope(
                        source=server.name,
                        destination=parent_name,
                        payload=report,
                        category=MessageCategory.MERGE,
                    )
                )
                posted += 1
        # Deferred-delivery transports hold the reports in flight; they must
        # land before consolidation reads them.
        self._transport.flush()
        delivered = posted - (self._transport.dropped_messages - drops_before)
        self._messages.add(MessageCategory.MERGE, delivered)
        return delivered

    def consolidate_server(self, server_name: str) -> list[MergeOutcome]:
        """Perform every consolidation currently possible at ``server_name``.

        For each inactive parent entry whose two children are jointly cold
        (left child local, right child known from a load report), the parent
        asks the right-child server to release the group and resumes managing
        the parent group itself.
        """
        server = self.server(server_name)
        self.consolidation_probes += 1
        outcomes: list[MergeOutcome] = []
        for parent_group in server.consolidation_candidates():
            entry = server.table.entry(parent_group)
            child_server_name = entry.right_child_id
            if child_server_name is None or child_server_name not in self._servers:
                continue
            left, right = parent_group.split()
            try:
                release = self._transport.request(
                    Envelope(
                        source=server_name,
                        destination=child_server_name,
                        payload=ReleaseKeyGroup(group=right, child_server=child_server_name),
                        category=MessageCategory.MERGE,
                    )
                )
            except DeliveryFailed:
                # The child failed with the release request in flight; its
                # groups were re-homed by failure recovery, so this merge is
                # simply off the table.  Charge the lost request and move on.
                self._messages.add(MessageCategory.MERGE, 1)
                continue
            if release.reply is None:
                # The child has split the group further since reporting; skip.
                continue
            returned: list = release.reply
            if (
                server_name not in self._servers
                or left not in server.table
                or not server.table.entry(left).active
            ):
                # The consolidating server failed mid-release (its table
                # object is stale) or the local left child changed under us;
                # undo is not needed because release_group only removed the
                # child's entry — put the right child back where it was.
                try:
                    self._transport.request(
                        Envelope(
                            source=server_name,
                            destination=child_server_name,
                            payload=AcceptKeyGroup(group=right, parent_server=server_name),
                            category=MessageCategory.MERGE,
                            attachment=returned,
                        )
                    )
                except DeliveryFailed:
                    # The child failed after releasing but before the
                    # put-back landed; the group (and its queries) would be
                    # lost — restart it as a root on the ring's current owner.
                    self._messages.add(MessageCategory.MERGE, 1)
                    self._restart_as_root(right, returned)
                    continue
                # Ownership never changed, but the release dropped the child's
                # measured rate for the group — it must be reassigned.
                self._touched_groups.add(right)
                continue
            server.accept_keygroup_back(parent_group, queries=returned)
            self._messages.add(MessageCategory.MERGE, 2)  # release request + transfer
            self._messages.add(MessageCategory.STATE_TRANSFER, len(returned))
            self._unregister_group(left)
            self._unregister_group(right)
            self._register_group(parent_group, server_name)
            outcomes.append(
                MergeOutcome(
                    parent_server=server_name,
                    parent_group=parent_group,
                    child_server=child_server_name,
                    returned_queries=len(returned),
                )
            )
        return outcomes

    # ------------------------------------------------------------------ #
    # Periodic load check
    # ------------------------------------------------------------------ #

    def _load_verdicts(self, name: str, server: ClashServer) -> tuple[bool, bool]:
        """The (overloaded, underloaded) verdicts for one server.

        Served from the cached flags unless the server is in the dirty set —
        i.e. some load input of its changed since the verdicts were computed.
        A probed server leaves the dirty set; any mutation after the probe
        (its own split, a transfer landing on it) re-dirties it through the
        load listener, so a verdict read later in the same pass is refreshed.
        """
        if name in self._dirty_load_servers or name not in self._load_flags:
            verdicts = (server.is_overloaded(), server.is_underloaded())
            self._load_flags[name] = verdicts
            self._dirty_load_servers.discard(name)
            self.load_probes += 1
        return self._load_flags[name]

    def _split_hot_server(
        self,
        name: str,
        server: ClashServer,
        max_splits_per_server: int,
        report: _LoadCheckReport,
    ) -> None:
        """Split ``server`` repeatedly until it cools off or the cap is hit."""
        attempts = 0
        # Membership is re-checked every iteration: the server being
        # split can itself fail while its transfer is in flight.
        while (
            name in self._servers
            and server.is_overloaded()
            and attempts < max_splits_per_server
        ):
            outcome = self.split_server(name)
            attempts += 1
            if outcome is None:
                break
            report.splits.append(outcome)
            if not outcome.shed:
                break

    def run_load_check(self, max_splits_per_server: int = 4) -> _LoadCheckReport:
        """One system-wide LOAD_CHECK_PERIOD pass: split hot servers, merge cold ones.

        Overloaded servers split repeatedly (up to ``max_splits_per_server``)
        until they drop below the overload threshold; then every leaf reports
        its load to its parent, and under-loaded servers consolidate cold
        sibling pairs.  Each server's overload/underload verdicts come from
        :meth:`_load_verdicts`, which re-probes only servers whose load
        inputs changed since their last probe.
        """
        report = _LoadCheckReport()
        # Both passes iterate a snapshot and re-check membership — a churn
        # event delivered by the event transport mid-exchange may add or
        # remove servers while the pass runs.
        for name, server in list(self._servers.items()):
            if name in self._servers and self._load_verdicts(name, server)[0]:
                self._split_hot_server(name, server, max_splits_per_server, report)
        self.exchange_load_reports()
        for name, server in list(self._servers.items()):
            if name not in self._servers or not server.is_active():
                continue
            # Consolidation only runs on servers that are themselves
            # under-loaded (the paper's "under conditions of under-load");
            # merging into a busy server would immediately re-trigger a split.
            if self._load_verdicts(name, server)[1]:
                report.merges.extend(self.consolidate_server(name))
        report.touched_groups |= self.drain_touched_groups()
        report.retired_assignments.extend(self.drain_retired_assignments())
        return report

    # ------------------------------------------------------------------ #
    # Membership changes (join handoff, failure recovery)
    # ------------------------------------------------------------------ #

    def _restart_as_root(self, group: KeyGroup, queries: list | None) -> str:
        """Re-home an orphaned group as a root entry on its current DHT owner.

        The common tail of every mid-flight-failure recovery: the server that
        should have received ``group`` is gone, so the group (and whatever
        queries travelled with it) restarts as a root — consolidation linkage
        cannot survive, exactly as in :meth:`handle_server_failure` — on the
        server its virtual key hashes to in the post-failure ring.
        """
        new_owner = self._router.owner_of_key(group.virtual_key)
        self._servers[new_owner].accept_keygroup(
            AcceptKeyGroup(
                group=group,
                parent_server=None,
                migrated_queries=len(queries) if queries else 0,
            ),
            queries=queries,
        )
        self._messages.add(MessageCategory.SPLIT, 2)  # transfer + ack
        self._messages.add(MessageCategory.STATE_TRANSFER, len(queries) if queries else 0)
        self._unregister_group(group)
        self._register_group(group, new_owner)
        return new_owner

    def handle_server_join(
        self, joiner: str, node_id: int | None = None
    ) -> dict[KeyGroup, str]:
        """Admit a new server and hand over the key groups it now owns.

        The paper delegates membership to the underlying DHT; this implements
        the CLASH-level consequence of a Chord join.  The joiner is bound to
        the transport and inserted into the ring (``add_node`` +
        ``stabilise``), after which the keys between its predecessor and its
        own identifier hash to it.  Every *active* key group whose virtual key
        now maps to the joiner is handed over: the current owner releases the
        group (``RELEASE_KEYGROUP``) and transfers responsibility — stored
        queries included — with an ``ACCEPT_KEYGROUP`` envelope, exactly the
        message a split would have used.  Consolidation linkage survives the
        move for right children: the transferred entry keeps its parent
        server (a local ``"self"`` parent resolves to the former owner's
        name) and the parent entry's ``RightChildID`` is repointed at the
        joiner.  A moved *left* child restarts as a root entry instead —
        the merge protocol needs the left child local to the parent-entry
        holder, so its linkage cannot survive (failure recovery makes the
        same call) — and root entries stay roots.

        Args:
            joiner: Name of the joining server (must be new).
            node_id: Explicit ring identifier; defaults to hashing the name,
                matching Chord's practice.

        Returns:
            A mapping from each handed-off group to its former owner.
        """
        check_type("joiner", joiner, str)
        if joiner in self._servers:
            raise ValueError(f"server {joiner!r} is already part of the deployment")
        server = self._make_server(joiner)
        self._router.add_server(joiner, node_id=node_id)
        self._router.stabilise()
        self._servers[joiner] = server
        self._transport.bind(joiner, self._make_endpoint(server))
        moving = [
            (group, owner)
            for group, owner in sorted(self._group_owner.items())
            if self._router.owner_of_key(group.virtual_key) == joiner
            and owner != joiner
        ]
        handed_off: dict[KeyGroup, str] = {}
        for group, former in moving:
            former_server = self._servers[former]
            parent_id = former_server.table.entry(group).parent_id
            # Consolidation linkage only survives for *right* children: the
            # merge protocol requires the left child to be local to the
            # parent-entry holder, so a moved left child restarts as a root
            # on the joiner (as failure recovery does) instead of addressing
            # load reports no parent can ever act on.  For right children a
            # "self" parent resolves to the former owner's name; roots stay
            # roots (ParentID = −1).
            is_right_child = group.depth > 0 and group == group.parent().split()[1]
            if parent_id is None or not is_right_child:
                parent_name = None
            else:
                parent_name = former if parent_id == SELF_PARENT else parent_id
            try:
                release = self._transport.request(
                    Envelope(
                        source=joiner,
                        destination=former,
                        payload=ReleaseKeyGroup(group=group, child_server=former),
                        category=MessageCategory.MERGE,
                    )
                )
            except DeliveryFailed:
                # The former owner failed with the release in flight; its
                # failure recovery has already re-homed every group it still
                # held (to the joiner, for the keys that moved it here).
                self._messages.add(MessageCategory.MERGE, 1)
                continue
            if release.reply is None:
                # The owner refused the release (the group changed under us
                # mid-handoff); leave ownership where it is.
                continue
            queries: list = release.reply
            try:
                self._transport.request(
                    Envelope(
                        source=former,
                        destination=joiner,
                        payload=AcceptKeyGroup(
                            group=group,
                            parent_server=parent_name,
                            migrated_queries=len(queries),
                        ),
                        category=MessageCategory.SPLIT,
                        attachment=queries,
                    )
                )
            except DeliveryFailed:
                # The joiner itself failed before the transfer landed.  The
                # release already happened, so the group and its queries must
                # be re-homed — as a root on the ring's current owner.
                self._messages.add(MessageCategory.MERGE, 2)
                self._messages.add(MessageCategory.SPLIT, 1)  # lost transfer
                handed_off[group] = former
                self._restart_as_root(group, queries)
                continue
            self._messages.add(MessageCategory.MERGE, 2)  # release request + reply
            self._messages.add(MessageCategory.SPLIT, 2)  # transfer + ack
            self._messages.add(MessageCategory.STATE_TRANSFER, len(queries))
            if parent_name is not None and parent_name in self._servers:
                parent_table = self._servers[parent_name].table
                parent_group = group.parent()
                if parent_group in parent_table:
                    entry = parent_table.entry(parent_group)
                    if not entry.active and entry.right_child_id == former:
                        entry.right_child_id = joiner
            self._unregister_group(group)
            self._register_group(group, joiner)
            handed_off[group] = former
        return handed_off

    def rebalance_partition(self, new_map: PartitionMap) -> dict[KeyGroup, str]:
        """Install a new partition map and migrate the key groups it moves.

        The online-rebalance path: every layer routes through the router's
        partition map, so installing ``new_map`` atomically redefines which
        shard each key belongs to, and this method then makes ownership catch
        up by migrating every active key group whose shard changed.  Migration
        reuses the join-handoff machinery verbatim — the former owner releases
        the group (``RELEASE_KEYGROUP``), and responsibility plus stored
        queries transfer with an ``ACCEPT_KEYGROUP`` envelope to the server
        the group's virtual key hashes to on its *new* shard's ring.  A moved
        group always restarts as a root entry: consolidation linkage cannot
        span shards (parents and children must share a ring for the merge
        protocol), exactly the rule :meth:`handle_server_join` applies to
        moved left children.  Stale parent entries left behind on the old
        shard are harmless — their release probe finds the child gone and the
        merge is simply skipped.

        Mid-flight failures get the join-handoff treatment too: a former
        owner dying with the release outstanding costs one MERGE message and
        nothing else (its failure recovery already re-homed the group under
        the new map); a receiver dying after the release re-homes the group
        as a root on the ring's current owner via :meth:`_restart_as_root`.

        Args:
            new_map: The partition to install.  Must match the router's shard
                count and key width, carry a strictly larger version, and be
                no finer-grained than ``initial_depth`` so every key group —
                roots and all their descendants — stays whole on one shard.

        Returns:
            A mapping from each migrated group to its former owner.
        """
        check_type("new_map", new_map, PartitionMap)
        if self._router.shard_count <= 1:
            raise ValueError("a single-ring deployment has no partition to rebalance")
        if new_map.granularity_depth > self._config.initial_depth:
            raise ValueError(
                f"partition boundaries at granularity depth "
                f"{new_map.granularity_depth} are finer than initial_depth="
                f"{self._config.initial_depth}; root groups must be "
                "shard-local so splits and merges never cross shards"
            )
        current = self._router.partition
        moving = [
            (group, owner)
            for group, owner in sorted(self._group_owner.items())
            if new_map.shard_of_key(group.virtual_key)
            != current.shard_of_key(group.virtual_key)
        ]
        self._router.set_partition(new_map)
        migrated: dict[KeyGroup, str] = {}
        for group, former in moving:
            new_owner = self._router.owner_of_key(group.virtual_key)
            try:
                release = self._transport.request(
                    Envelope(
                        source=new_owner,
                        destination=former,
                        payload=ReleaseKeyGroup(group=group, child_server=former),
                        category=MessageCategory.MERGE,
                    )
                )
            except DeliveryFailed:
                # The former owner failed with the release in flight; its
                # failure recovery has already re-homed every group it still
                # held under the freshly installed map.
                self._messages.add(MessageCategory.MERGE, 1)
                continue
            if release.reply is None:
                # The owner refused the release (the group changed under us
                # mid-rebalance); leave ownership where it is.
                continue
            queries: list = release.reply
            try:
                self._transport.request(
                    Envelope(
                        source=former,
                        destination=new_owner,
                        payload=AcceptKeyGroup(
                            group=group,
                            parent_server=None,
                            migrated_queries=len(queries),
                        ),
                        category=MessageCategory.SPLIT,
                        attachment=queries,
                    )
                )
            except DeliveryFailed:
                # The receiver failed before the transfer landed.  The
                # release already happened, so the group and its queries must
                # be re-homed — as a root on the ring's current owner.
                self._messages.add(MessageCategory.MERGE, 2)
                self._messages.add(MessageCategory.SPLIT, 1)  # lost transfer
                migrated[group] = former
                self._restart_as_root(group, queries)
                continue
            self._messages.add(MessageCategory.MERGE, 2)  # release request + reply
            self._messages.add(MessageCategory.SPLIT, 2)  # transfer + ack
            self._messages.add(MessageCategory.STATE_TRANSFER, len(queries))
            self._unregister_group(group)
            self._register_group(group, new_owner)
            migrated[group] = former
        return migrated

    def handle_server_failure(self, failed: str) -> dict[KeyGroup, str]:
        """Recover from the abrupt loss of a server.

        The paper leaves fault handling to the underlying DHT's machinery;
        this is the natural completion a deployable system needs.  Recovery
        proceeds as the surviving servers would: the failed node is removed
        from the ring, and every key group it actively managed is re-assigned
        to the server its virtual key now hashes to.  When the failed node was
        the recorded right child of a surviving parent entry, the parent
        re-issues the ``ACCEPT_KEYGROUP`` (preserving the consolidation
        linkage); otherwise the group restarts as a root entry on its new
        owner.  Persistent queries stored on the failed server are lost — they
        are soft state that clients re-register, exactly as in the paper's
        long-lived query model.

        Returns the mapping from re-assigned group to its new owner.
        """
        if failed not in self._servers:
            raise KeyError(f"no server named {failed!r}")
        if not self._router.can_remove(failed):
            # Checked before any state is touched so a refused removal leaves
            # the deployment fully intact.
            raise ValueError(
                f"cannot fail {failed!r}: it is the last server of its shard "
                "and its key range would be left unowned"
            )
        failed_server = self._servers[failed]
        orphaned = list(failed_server.active_groups())
        # Remember, for each orphaned group, which surviving server (if any)
        # holds the inactive parent entry naming the failed node as its child.
        surviving_parent: dict[KeyGroup, str] = {}
        for group in orphaned:
            if group.depth == 0:
                continue
            parent = group.parent()
            for name, server in self._servers.items():
                if name == failed:
                    continue
                if parent in server.table:
                    entry = server.table.entry(parent)
                    if not entry.active and entry.right_child_id == failed:
                        surviving_parent[group] = name
                        break
        del self._servers[failed]
        self._dirty_load_servers.discard(failed)
        self._load_flags.pop(failed, None)
        self._transport.unbind(failed)
        self._router.remove_server(failed)
        reassigned: dict[KeyGroup, str] = {}
        for group in orphaned:
            self._unregister_group(group)
            new_owner = self._router.owner_of_key(group.virtual_key)
            parent_name = surviving_parent.get(group)
            transfer = AcceptKeyGroup(
                group=group, parent_server=parent_name if parent_name else new_owner
            )
            if parent_name is not None:
                try:
                    self._transport.request(
                        Envelope(
                            source=parent_name,
                            destination=new_owner,
                            payload=transfer,
                            category=MessageCategory.SPLIT,
                        )
                    )
                except DeliveryFailed:
                    # A cascading failure removed new_owner while the
                    # re-issued transfer was in flight; charge the lost
                    # (ack-less) transfer, then restart the group as a root
                    # on whoever owns its key in the twice-shrunk ring — the
                    # unconditional transfer + ack charge below covers that
                    # restart.
                    self._messages.add(MessageCategory.SPLIT, 1)
                    new_owner = self._router.owner_of_key(group.virtual_key)
                    self._servers[new_owner].assign_root_group(group)
                else:
                    # The parent's bookkeeping must name the new child owner
                    # so that future consolidations contact the right server.
                    if parent_name in self._servers:
                        self._servers[parent_name].table.entry(
                            group.parent()
                        ).right_child_id = new_owner
            else:
                self._servers[new_owner].assign_root_group(group)
            self._messages.add(MessageCategory.SPLIT, 2)
            self._register_group(group, new_owner)
            reassigned[group] = new_owner
        return reassigned

    # ------------------------------------------------------------------ #
    # Invariant checking
    # ------------------------------------------------------------------ #

    def verify_invariants(self) -> None:
        """Assert every global protocol invariant.

        1. Active groups are mutually prefix-free and exactly cover the key
           space.
        2. The ownership registry matches the servers' own tables.
        3. Every active group is owned by the server its virtual key hashes to
           *unless* it was created by a self-collision retry (in which case it
           lives on the retrying server); the base-case mapping is what makes
           client depth discovery converge.
        4. Per-server table invariants hold.
        """
        groups = sorted(self._group_owner)
        pair = first_overlapping_pair(groups)
        assert pair is None, f"active groups {pair[0]} and {pair[1]} overlap"
        total = sum(group.size for group in groups)
        assert total == (1 << self._config.key_bits), (
            f"active groups cover {total} keys, expected {1 << self._config.key_bits}"
        )
        for group, owner in self._group_owner.items():
            server = self._servers[owner]
            assert group in server.table, f"{owner} is missing an entry for {group}"
            assert server.table.entry(group).active, (
                f"{owner}'s entry for {group} is not active"
            )
        for name, server in self._servers.items():
            server.table.check_invariants()
            for group in server.active_groups():
                assert self._group_owner.get(group) == name, (
                    f"registry does not record {name} as owner of {group}"
                )
        if self._router.shard_count > 1:
            self.verify_shard_invariants()

    def verify_shard_invariants(self) -> None:
        """Assert the additional invariants of a sharded deployment.

        1. Every active key group is registered on exactly one shard: its
           owner belongs to the shard that owns the group's virtual key (the
           shard a lookup for any of the group's keys routes to).
        2. No consolidation linkage crosses shards: each inactive parent
           entry's recorded right child, and each active entry's parent
           server, live on the entry holder's own shard.  This is what keeps
           split/merge/handoff traffic shard-local.
        """
        router = self._router
        for group, owner in self._group_owner.items():
            key_shard = router.shard_of_key(group.virtual_key)
            owner_shard = router.server_shard(owner)
            assert owner_shard == key_shard, (
                f"group {group} belongs to shard {key_shard} but its owner "
                f"{owner} lives on shard {owner_shard}"
            )
        for name, server in self._servers.items():
            holder_shard = router.server_shard(name)
            for entry in server.table.entries():
                child = entry.right_child_id
                if not entry.active and child is not None and child in self._servers:
                    assert router.server_shard(child) == holder_shard, (
                        f"{name} (shard {holder_shard}) records right child "
                        f"{child} of {entry.group} on shard "
                        f"{router.server_shard(child)}: cross-shard parent link"
                    )
                parent = entry.parent_id
                if (
                    entry.active
                    and parent is not None
                    and parent != SELF_PARENT
                    and parent in self._servers
                ):
                    assert router.server_shard(parent) == holder_shard, (
                        f"{name} (shard {holder_shard}) reports {entry.group} "
                        f"to parent server {parent} on shard "
                        f"{router.server_shard(parent)}: cross-shard parent link"
                    )

    def describe(self) -> dict[str, object]:
        """A summary snapshot of the deployment (for examples and debugging)."""
        depths = [group.depth for group in self._group_owner]
        return {
            "servers": len(self._servers),
            "active_servers": len(self.active_servers()),
            "active_groups": len(self._group_owner),
            "min_depth": min(depths) if depths else None,
            "max_depth": max(depths) if depths else None,
            "messages": self._messages.snapshot(),
        }
