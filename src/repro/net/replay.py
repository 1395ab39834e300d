"""Schedule recording and forced-order replay for the adversarial fuzzer.

The async transport's delivery order is a pure function of the *tie-break
tape*: every ``send`` draws one tie-break value from the transport's ready
source, and simultaneously-ready envelopes are released in tie-break order
(:class:`~repro.net.asyncio_transport.AsyncTransport`).  Recording those
draws therefore records the whole envelope-level schedule, and replaying the
tape forces the exact same delivery order — bit for bit, without storing a
single envelope.

Two small pieces make that a replayable trace:

* :class:`TieRecorder` — wraps the live ready source and remembers every
  draw (the fuzzer installs it before a recorded run).
* :class:`TieTape` — replays a (possibly *masked*) recording: entries kept
  by the shrinker return their recorded value, everything else returns
  ``0.0``, the FIFO default.  Masking a tie is how delta debugging removes
  one reordering decision from a failing schedule.

Forcing a run onto a tape needs no transport of its own: the async
transport takes a :class:`TieTape` as its ``ready_rng``, and
:class:`~repro.sim.simulator.FlowSimulator` installs one whenever it is
given a :class:`ReplaySchedule`.  With an empty tape delivery degrades to
deterministic FIFO, which reproduces the golden streams like any other
async run.

Membership churn is the second scheduled dimension: a recorded run's
executed join/failure events are captured as :class:`ChurnEvent` records
(with the drawn node id / victim pinned), and
:class:`~repro.sim.simulator.FlowSimulator` replays a
:class:`ReplaySchedule`'s churn list verbatim instead of drawing fresh
Poisson arrivals.

Partition rebalances are the third: an adaptive-partition run's installed
maps are captured as :class:`RebalanceEvent` records (boundaries and version
pinned), and a schedule carrying them replays those maps verbatim instead of
recomputing boundaries from observed load.  The recompute is itself a pure
function of the workload measure, so recorded and recomputed maps agree on
an unshrunk schedule — pinning exists so shrunk schedules keep the exact
failing partition history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

__all__ = [
    "ChurnEvent",
    "RebalanceEvent",
    "ReplaySchedule",
    "TieRecorder",
    "TieTape",
]


@dataclass(frozen=True, slots=True)
class ChurnEvent:
    """One executed membership event, pinned for bit-identical replay.

    Attributes:
        when: Simulation time the event fired at (decides which period — or
            which engine instant — replays it).
        kind: ``"join"`` or ``"fail"``.
        server: The joiner's name, or the failure victim.
        node_id: The joiner's drawn DHT node id (``None`` for failures).
            Pinning it means replay never touches the arrival RNG streams.
    """

    when: float
    kind: str
    server: str
    node_id: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("join", "fail"):
            raise ValueError(f"churn event kind must be 'join' or 'fail', got {self.kind!r}")

    def to_json(self) -> list:
        """A JSON-ready representation (stable field order)."""
        return [self.when, self.kind, self.server, self.node_id]

    @classmethod
    def from_json(cls, data: Sequence) -> "ChurnEvent":
        when, kind, server, node_id = data
        return cls(when=float(when), kind=kind, server=server, node_id=node_id)


@dataclass(frozen=True, slots=True)
class RebalanceEvent:
    """One installed partition map, pinned for bit-identical replay.

    Attributes:
        when: Simulation time (period boundary) the map was installed at.
        version: The installed map's version (strictly increasing per run).
        boundaries: The installed map's shard boundaries, verbatim.
    """

    when: float
    version: int
    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.version < 1:
            raise ValueError(f"rebalance version must be >= 1, got {self.version}")

    def to_json(self) -> list:
        """A JSON-ready representation (stable field order)."""
        return [self.when, self.version, list(self.boundaries)]

    @classmethod
    def from_json(cls, data: Sequence) -> "RebalanceEvent":
        when, version, boundaries = data
        return cls(
            when=float(when),
            version=int(version),
            boundaries=tuple(int(value) for value in boundaries),
        )


@dataclass(frozen=True)
class ReplaySchedule:
    """A recorded (possibly shrunk) schedule a run can be forced onto.

    Attributes:
        ties: Sparse tie-break tape — draw index to recorded value.  Indices
            absent from the mapping (masked by the shrinker, or beyond the
            recording) draw the FIFO default ``0.0``.
        churn: The membership events to execute, verbatim, instead of
            drawing Poisson arrivals.  ``None`` leaves the simulator's own
            churn model in charge (tape-only replay).
        rebalances: The partition maps to install, verbatim, instead of
            recomputing boundaries from observed load.  ``None`` leaves the
            simulator's live rebalance step in charge.
    """

    ties: Mapping[int, float] = field(default_factory=dict)
    churn: tuple[ChurnEvent, ...] | None = None
    rebalances: tuple[RebalanceEvent, ...] | None = None

    @classmethod
    def full(
        cls,
        ties: Sequence[float],
        churn: Sequence[ChurnEvent] | None,
        rebalances: Sequence[RebalanceEvent] | None = None,
    ) -> "ReplaySchedule":
        """The unshrunk schedule: every recorded tie, churn and rebalance kept."""
        return cls(
            ties={index: value for index, value in enumerate(ties)},
            churn=None if churn is None else tuple(churn),
            rebalances=None if rebalances is None else tuple(rebalances),
        )


class TieRecorder:
    """Records every tie-break draw while passing it through unchanged.

    Wraps whatever ready source the transport already has (a seeded
    :class:`~repro.util.rng.RandomStream`, or ``None`` for FIFO) so a
    recorded run behaves exactly like an unrecorded one.
    """

    def __init__(self, source=None) -> None:
        self._source = source
        self.draws: list[float] = []

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        value = self._source.uniform(low, high) if self._source is not None else 0.0
        self.draws.append(value)
        return value


class TieTape:
    """Replays a sparse tie-break recording in draw order.

    Draw ``i`` returns ``ties[i]`` when the shrinker kept that entry and the
    FIFO default ``0.0`` otherwise, so a fully masked tape is exactly
    send-order delivery.  The effective draws are kept in :attr:`draws` for
    oracles that inspect the schedule.
    """

    def __init__(self, ties: Mapping[int, float] | None = None) -> None:
        self._ties = dict(ties) if ties else {}
        self.draws: list[float] = []

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        value = self._ties.get(len(self.draws), 0.0)
        self.draws.append(value)
        return value

