"""The repository benchmark: paper-scale CLASH runs, end to end and per layer.

Each workload is the Section 6.1 configuration (1000 servers, 100,000 sources,
the 6-hour A -> B -> C scenario, 72 load-check periods of 300 s) driven
through the public API, ``ExperimentScale`` -> ``FlowSimulator(...).run()``,
in this one process with no threads or subprocesses.  ``--seed`` and five
seeds drawn from it give six runs per cycle; cycles repeat for ``--seconds``.
Every run is checked (invariants, period count, identical results on every
repeat of a seed).

    python3 perfbench/run.py --workload paper_calm --seed 20040324 --seconds 40 --trace 0

Times are reported in reference seconds: wall time divided by how much slower
than on the reference machine a fixed calibration kernel ran, sampled after
every period of the same run (see :class:`SpeedProbe`).

``--trace 0`` times untraced runs and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced runs: the traced runs wrap the
public entry point of every layer (see :func:`layers`) with spans and report
the per-layer table, and the untraced ones give the tracing overhead.  Both
modes print a readable table, then one JSON object as the last stdout line.
Exit status 1 means a run failed its checks.  ``perfbench/README.md`` defines
every metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import pathlib
import random
import resource
import statistics
import sys
import time
import traceback
from collections.abc import Callable, Iterable

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402
from repro.core.client import ClashClient  # noqa: E402
from repro.core.protocol import ClashSystem  # noqa: E402
from repro.dht.ring import ChordRing  # noqa: E402
from repro.experiments.runner import ExperimentScale  # noqa: E402
from repro.sim.loadmeasure import LoadMeasure  # noqa: E402
from repro.sim.metrics import MetricsRecorder  # noqa: E402
from repro.sim.simulator import FlowSimulator, SimulationResult  # noqa: E402

DEFAULT_SEED = 20040324

CHURN_RATE = 0.05
"""Poisson join and failure rate (events/s each) of ``paper_churn``: ~1080 of
each per run, a mean server lifetime of ~5.5 h.  The 0.005/s of
``benchmarks/bench_paper_scale.py`` leaves churn under 5% of the run, too
little for a churn-layer change to show."""

SEEDS_PER_RUN = 6
"""Workload seeds one invocation cycles through: ``--seed`` itself and five
drawn from it.  How much split/merge work a run does varies from seed to seed
(one seed's ``msgs_per_server_s`` has an interquartile spread of ~6-13% of
its median across seeds); pooling six seeds brings it to ~2-4%."""

MIN_SETUPS = 9
"""Simulator constructions timed per invocation at least (extra ones are built
and closed without running), so ``setup_s`` is a median of several."""


REFERENCE_KERNEL_S = 0.0008
"""Median time of one :func:`calibration_kernel` call on the machine the
benchmark was defined on (a 2-vCPU Intel Xeon VM, Python 3.11)."""


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def calibration_kernel() -> int:
    """A fixed slice of pure-Python work shaped like the simulator's own
    (small objects, tuple-keyed dict inserts, a keyed sort).  It shares no
    code with the program under test."""
    table = {}
    for index in range(800):
        item = _Item(index, index * 3)
        table[(item.key, item.value & 7)] = item
    return len(sorted(table, key=lambda key: (key[1], -key[0])))


class SpeedProbe:
    """Times calibration kernels interleaved with a run.

    The speed of a shared host drifts: on the machine the benchmark was
    defined on, identical runs of one seed in one process took 1.9-3.4 s, in
    phases of tens of seconds, which no run length within the time budget
    averages out.  The kernel slows down and speeds up with the run.  It runs
    with the cyclic garbage collector paused, so a collection of the
    simulator's heap never lands in its timing.  Wall times divided by
    :attr:`slowdown` are reference seconds: what the run would have taken on
    the reference machine.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    @property
    def total_s(self) -> float:
        return sum(self.samples)

    def sample(self) -> None:
        gc.disable()
        try:
            start = time.perf_counter()
            calibration_kernel()
            self.samples.append(time.perf_counter() - start)
        finally:
            gc.enable()

    @property
    def slowdown(self) -> float:
        """Median kernel time over ``REFERENCE_KERNEL_S`` (>1: slower host)."""
        return statistics.median(self.samples) / REFERENCE_KERNEL_S


def _paper_calm() -> ExperimentScale:
    return ExperimentScale.paper()


def _paper_churn() -> ExperimentScale:
    return dataclasses.replace(
        ExperimentScale.paper(), join_rate=CHURN_RATE, fail_rate=CHURN_RATE
    )


def _fig5_sharded_async() -> ExperimentScale:
    return dataclasses.replace(
        ExperimentScale.paper(query_clients=True),
        shards=4,
        partition="adaptive",
        transport="async",
    )


WORKLOADS: dict[str, Callable[[], ExperimentScale]] = {
    # Fig. 4 configuration: the balance layer is most of the run, churn,
    # partition and transport do almost nothing (the bypass side for them).
    "paper_calm": _paper_calm,
    # Membership churn: join handoff, failure recovery, Chord stabilisation
    # and memo-miss finger walks become a large share of the run.
    "paper_churn": _paper_churn,
    # Fig. 5 case B: 50k query clients, 4 adaptively partitioned shards on
    # the asyncio transport; transport delivery and partition rebalance run.
    "fig5_sharded_async": _fig5_sharded_async,
}


def workload_scale(name: str, seed: int) -> ExperimentScale:
    """The :class:`ExperimentScale` of workload ``name`` under ``seed``."""
    return dataclasses.replace(WORKLOADS[name](), seed=seed)


def derived_seeds(seed: int) -> list[int]:
    """``seed`` followed by ``SEEDS_PER_RUN - 1`` seeds drawn from it."""
    rng = random.Random(seed)
    return [seed] + [rng.getrandbits(32) for _ in range(SEEDS_PER_RUN - 1)]


def expected_periods(scale: ExperimentScale) -> int:
    """Load-check periods a run of ``scale`` must record."""
    return math.ceil(scale.scenario().total_duration / scale.load_check_period)


# ---------------------------------------------------------------------- #
# Class-attribute wrapping
# ---------------------------------------------------------------------- #

_ABSENT = object()


class Patches:
    """Replaces class attributes and puts every original back on exit.

    An attribute the class only inherited is deleted again, so the class
    ``__dict__`` after exit is exactly what it was before entry.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, object]] = []

    def wrap(self, owner: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr`` to ``make(current owner.attr)``."""
        self._saved.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def __enter__(self) -> Patches:
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


class RunCounters:
    """Counting wrappers, installed on every run, traced or not.

    Each adds one Python call to ``ClashSystem.run_load_check`` (one per
    balance iteration), ``MetricsRecorder.record`` (one per period) and
    ``ClashClient.find_group`` (one per sampled lookup).  They give the
    per-period wall times, the balance iterations per period, whether the
    period's loop hit ``max_balance_iterations`` while still splitting or
    merging, and the messages each sampled lookup cost.  After each period
    the ``record`` wrapper also samples ``probe``, outside the period's time.
    """

    def __init__(self, max_iterations: int, probe: SpeedProbe) -> None:
        self.max_iterations = max_iterations
        self.probe = probe
        self.period_start = 0.0
        self.period_s: list[float] = []
        self.iterations = 0
        self.unconverged = 0
        self.lookups = 0
        self.lookup_messages = 0
        self._iterations = 0
        self._still_moving = False

    def install(self, patches: Patches) -> None:
        counters = self

        def wrap_load_check(original):
            def run_load_check(system, *args, **kwargs):
                report = original(system, *args, **kwargs)
                counters._iterations += 1
                counters._still_moving = report.split_count > 0 or report.merge_count > 0
                return report

            return run_load_check

        def wrap_record(original):
            def record(recorder, sample):
                original(recorder, sample)
                counters.period_s.append(time.perf_counter() - counters.period_start)
                counters.probe.sample()
                counters.period_start = time.perf_counter()
                counters.iterations += counters._iterations
                if counters._iterations >= counters.max_iterations and counters._still_moving:
                    counters.unconverged += 1
                counters._iterations = 0
                counters._still_moving = False

            return record

        def wrap_find_group(original):
            def find_group(client, *args, **kwargs):
                result = original(client, *args, **kwargs)
                counters.lookups += 1
                counters.lookup_messages += result.messages
                return result

            return find_group

        patches.wrap(ClashSystem, "run_load_check", wrap_load_check)
        patches.wrap(MetricsRecorder, "record", wrap_record)
        patches.wrap(ClashClient, "find_group", wrap_find_group)


# ---------------------------------------------------------------------- #
# Tracing
# ---------------------------------------------------------------------- #

Span = tuple[str, float, float, int | None]
"""``(layer name, start, end, index of the parent span or None)``."""


def layers(transport_type: type) -> list[tuple[str, type, str, Callable | None]]:
    """``(layer, owner class, method, work-from-result)`` for every traced
    entry point; the transport methods are those of the run's concrete
    transport class."""
    return [
        ("balance", ClashSystem, "run_load_check", None),
        ("balance.split", ClashSystem, "split_server", None),
        ("balance.exchange", ClashSystem, "exchange_load_reports", None),
        ("balance.merge", ClashSystem, "consolidate_server", len),
        ("lookup", ClashClient, "find_group", None),
        ("dht.find_successor", ChordRing, "find_successor", None),
        ("dht.stabilise", ChordRing, "stabilise", None),
        ("churn.join", ClashSystem, "handle_server_join", len),
        ("churn.failure", ClashSystem, "handle_server_failure", len),
        ("partition.rebalance", ClashSystem, "rebalance_partition", len),
        ("assign", LoadMeasure, "assign_rates", None),
        ("assign", LoadMeasure, "assignment", None),
        ("net.request", transport_type, "request", None),
        ("net.post", transport_type, "post", None),
        ("net.flush", transport_type, "flush", None),
    ]


LAYER_NAMES = tuple(dict.fromkeys(name for name, *_ in layers(object)))


class Tracer:
    """Records one span per call of a wrapped entry point, kept in memory.

    Calls nest on the Python stack (the run is single-threaded, and the
    asyncio transport steps its loop inside ``request``/``flush``), so the
    innermost open span is the parent of the next one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span | None] = []
        self.work: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, function: Callable, work: Callable | None = None) -> Callable:
        spans, open_spans, clock, totals = self.spans, self._open, self.clock, self.work
        totals.setdefault(name, 0)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else None
            open_spans.append(index)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (name, start, end, parent)
            if work is not None:
                totals[name] += work(result)
            return result

        return traced

    def install(self, patches: Patches, transport_type: type) -> None:
        for name, owner, attr, work in layers(transport_type):
            patches.wrap(
                owner, attr, lambda original, name=name, work=work: self.wrap(name, original, work)
            )


@dataclasses.dataclass
class LayerTime:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


def layer_times(spans: Iterable[Span]) -> tuple[dict[str, LayerTime], float]:
    """Per-layer calls, self and total time, plus the top-level span time.

    A span's self time is its duration minus the durations of its direct
    children (children of one span never overlap on a single thread), so the
    self times of all spans sum to the duration of the top-level spans.
    """
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    table: dict[str, LayerTime] = {}
    top_level = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        row = table.setdefault(name, LayerTime())
        row.calls += 1
        row.total_s += end - start
        row.self_s += end - start - child_time[index]
        if parent is None:
            top_level += end - start
    return table, top_level


# ---------------------------------------------------------------------- #
# Runs
# ---------------------------------------------------------------------- #


class CheckFailed(Exception):
    """A run produced output that fails the benchmark's correctness check."""


@dataclasses.dataclass
class RunRecord:
    """Everything one checked run contributes to the metrics (times in wall
    seconds; divide by ``slowdown`` for reference seconds)."""

    setup_s: float
    run_s: float
    slowdown: float
    periods: int
    period_s: list[float]
    iterations: int
    unconverged: int
    lookups: int
    lookup_messages: int
    result: SimulationResult
    dht_stats: dict[str, int]
    layers: dict[str, LayerTime] | None = None
    top_level_s: float = 0.0
    work: dict[str, int] | None = None
    seed_index: int = 0
    cycle: int = 0

    def fingerprint(self) -> tuple:
        """The run's simulated outcome; every repeat of a seed must match it."""
        samples = self.result.metrics.samples
        return (
            self.result.total_splits,
            self.result.total_merges,
            self.result.final_active_groups,
            tuple(sample.max_load_percent for sample in samples),
            tuple(sample.messages_per_server_per_second for sample in samples),
            self.iterations,
            self.unconverged,
            self.lookup_messages,
        )


def build(scale: ExperimentScale) -> tuple[FlowSimulator, float]:
    """Construct the simulator for ``scale``; returns it with the wall time taken."""
    start = time.perf_counter()
    simulator = FlowSimulator(
        config=scale.config(), params=scale.params(), scenario=scale.scenario()
    )
    return simulator, time.perf_counter() - start


def run_once(scale: ExperimentScale, trace: bool) -> RunRecord:
    """Build, run and check one simulation; raises on any failure."""
    gc.collect()
    probe = SpeedProbe()
    probe.sample()
    simulator, setup_s = build(scale)
    counters = RunCounters(scale.params().max_balance_iterations, probe)
    tracer = Tracer() if trace else None
    with Patches() as patches:
        if tracer is not None:
            tracer.install(patches, type(simulator.transport))
        counters.install(patches)
        probe_s = probe.total_s
        counters.period_start = start = time.perf_counter()
        result = simulator.run()
        run_s = time.perf_counter() - start - (probe.total_s - probe_s)
    # The check runs after the timed region and with every wrapper removed.
    periods = len(result.metrics.samples)
    want = expected_periods(scale)
    if periods != want or len(counters.period_s) != want:
        raise CheckFailed(
            f"run recorded {periods} periods ({len(counters.period_s)} record calls), "
            f"expected {want}"
        )
    try:
        simulator.system.verify_invariants()
    except AssertionError as error:
        raise CheckFailed(f"protocol invariant violated: {error}") from error
    record = RunRecord(
        setup_s=setup_s,
        run_s=run_s,
        slowdown=probe.slowdown,
        periods=periods,
        period_s=counters.period_s,
        iterations=counters.iterations,
        unconverged=counters.unconverged,
        lookups=counters.lookups,
        lookup_messages=counters.lookup_messages,
        result=result,
        dht_stats=simulator.system.dht_stats(),
    )
    if tracer is not None:
        record.layers, record.top_level_s = layer_times(tracer.spans)
        record.work = dict(tracer.work)
    return record


@dataclasses.dataclass
class Session:
    """All runs of one invocation, with the failures counted, never dropped.

    ``setups`` holds set-up times in reference seconds.
    """

    scales: list[ExperimentScale]
    runs: list[RunRecord] = dataclasses.field(default_factory=list)
    setups: list[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def attempt(self, seed_index: int, trace: bool, cycle: int = 0) -> float:
        """One checked run of ``scales[seed_index]``; returns its wall time
        (failed runs included)."""
        began = time.perf_counter()
        self.attempted += 1
        try:
            record = run_once(self.scales[seed_index], trace)
            record.seed_index, record.cycle = seed_index, cycle
            first = next((run for run in self.runs if run.seed_index == seed_index), None)
            if first is not None and record.fingerprint() != first.fingerprint():
                raise CheckFailed("run differs from the first run of the same seed")
        except Exception:  # noqa: BLE001 - a failed run is counted and reported
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
        else:
            self.runs.append(record)
            self.setups.append(record.setup_s / record.slowdown)
        return time.perf_counter() - began

    def top_up_setups(self) -> None:
        """Time extra constructions until ``MIN_SETUPS`` set-ups are measured."""
        while self.runs and len(self.setups) < MIN_SETUPS:
            gc.collect()
            probe = SpeedProbe()
            probe.sample()
            simulator, setup_s = build(self.scales[0])
            probe.sample()
            simulator.transport.close()
            self.setups.append(setup_s / probe.slowdown)

    def traced(self) -> list[RunRecord]:
        return [run for run in self.runs if run.layers is not None]

    def untraced(self) -> list[RunRecord]:
        return [run for run in self.runs if run.layers is None]

    def first_of_each_seed(self) -> list[RunRecord]:
        """One untraced run per seed (every repeat matches it exactly)."""
        firsts: dict[int, RunRecord] = {}
        for run in self.untraced():
            firsts.setdefault(run.seed_index, run)
        return list(firsts.values())


def measure(scales: list[ExperimentScale], seconds: float, trace: bool) -> Session:
    """Repeat whole cycles of runs while the next cycle still fits in ``seconds``.

    An untraced cycle runs every scale once, in order; a traced cycle runs the
    first scale untraced, then traced.  At least one cycle always runs.
    """
    session = Session(scales)
    if trace:
        plan = [(0, False), (0, True)]
    else:
        plan = [(index, False) for index in range(len(scales))]
    began = time.perf_counter()
    cycle = 0
    while True:
        cycle_s = sum(session.attempt(index, traced, cycle) for index, traced in plan)
        cycle += 1
        if time.perf_counter() - began + cycle_s > seconds:
            break
    session.top_up_setups()
    return session


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (linear interpolation between samples)."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def periods_per_s(runs: list[RunRecord], reference: bool = True) -> float:
    """Median over cycles of the periods the cycle's runs completed per
    reference second (per wall second with ``reference=False``)."""
    cycles: dict[int, list[RunRecord]] = {}
    for run in runs:
        cycles.setdefault(run.cycle, []).append(run)
    return statistics.median(
        sum(run.periods for run in group)
        / sum(run.run_s / (run.slowdown if reference else 1.0) for run in group)
        for group in cycles.values()
    )


def end_to_end(session: Session) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """The end-to-end metrics ``{name: (value, unit)}``, plus readable extras.

    The deterministic metrics pool the periods (and sampled lookups) of one
    run of every seed.
    """
    runs = session.untraced()
    firsts = session.first_of_each_seed()
    samples = [sample for run in firsts for sample in run.result.metrics.samples]
    periods = sum(run.periods for run in firsts)
    unconverged = sum(run.unconverged for run in firsts)
    period_ms = [
        seconds * 1000.0 / run.slowdown for run in runs for seconds in run.period_s
    ]
    metrics = {
        "setup_s": (statistics.median(session.setups), "s"),
        "periods_per_s": (periods_per_s(runs), "1/s"),
        "period_ms_p50": (percentile(period_ms, 50), "ms"),
        "period_ms_p85": (percentile(period_ms, 85), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "max_load_pct_p50": (
            statistics.median(sample.max_load_percent for sample in samples),
            "%",
        ),
        "msgs_per_server_s": (
            statistics.fmean(sample.messages_per_server_per_second for sample in samples),
            "1/s",
        ),
        "lookup_msgs_mean": (
            sum(run.lookup_messages for run in firsts) / sum(run.lookups for run in firsts),
            "count",
        ),
        "converged_period_frac": (1.0 - unconverged / periods, "ratio"),
    }
    extras = {
        "wall_periods_per_s": periods_per_s(runs, reference=False),
        "host_slowdown": statistics.median(run.slowdown for run in runs),
        "runs": len(runs),
        "seeds": len(firsts),
        "setups": len(session.setups),
        "period_samples": len(period_ms),
        "unconverged_period_frac": unconverged / periods,
        "unconverged_periods": unconverged,
        "periods": periods,
        "balance_iterations_per_period": sum(run.iterations for run in firsts) / periods,
    }
    return metrics, extras


def per_layer(session: Session) -> tuple[dict[str, tuple[float, str]], list[tuple]]:
    """The per-layer metrics, plus the readable table rows
    ``(layer, calls, self_s, total_s)`` sorted by self time.

    Layer times are means over the traced runs, in reference seconds; the
    ratios and counts come from the first traced run (every run of the seed
    repeats them exactly).
    """
    traced = session.traced()
    table = {name: LayerTime() for name in LAYER_NAMES}
    for run in traced:
        scale = run.slowdown * len(traced)
        for name, row in run.layers.items():
            table[name].calls += row.calls / len(traced)
            table[name].self_s += row.self_s / scale
            table[name].total_s += row.total_s / scale
    metrics: dict[str, tuple[float, str]] = {}
    rows = []
    for name, row in table.items():
        metrics[f"{name}.calls"] = (row.calls, "count")
        metrics[f"{name}.self_s"] = (row.self_s, "s")
        metrics[f"{name}.total_s"] = (row.total_s, "s")
        rows.append((name, row.calls, row.self_s, row.total_s))
    other_s = statistics.fmean((run.run_s - run.top_level_s) / run.slowdown for run in traced)
    metrics["sim.other.self_s"] = (other_s, "s")
    rows.append(("sim.other", float("nan"), other_s, other_s))
    rows.sort(key=lambda row: row[2], reverse=True)

    def share(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    first = traced[0]
    work, result, dht = first.work, first.result, first.dht_stats
    traced_pps = periods_per_s(traced)
    untraced_pps = periods_per_s(session.untraced())
    metrics.update(
        {
            "balance.iterations_per_period": (first.iterations / first.periods, "count"),
            "balance.unconverged_period_frac": (first.unconverged / first.periods, "ratio"),
            "balance.net_split_ratio": (
                share(result.total_splits - result.total_merges, result.total_splits),
                "ratio",
            ),
            "balance.merge_yield": (
                share(work["balance.merge"], table["balance.merge"].calls),
                "ratio",
            ),
            "dht.memo_hit_ratio": (
                share(dht["memo_hits"], dht["memo_hits"] + dht["memo_misses"]),
                "ratio",
            ),
            "churn.join.groups_per_event": (
                share(work["churn.join"], table["churn.join"].calls),
                "count",
            ),
            "churn.failure.groups_per_event": (
                share(work["churn.failure"], table["churn.failure"].calls),
                "count",
            ),
            "partition.rebalance.groups_migrated": (work["partition.rebalance"], "count"),
            "net.dropped": (
                sum(sample.dropped_messages for sample in result.metrics.samples),
                "count",
            ),
            "trace.run_s": (statistics.fmean(run.run_s / run.slowdown for run in traced), "s"),
            "trace.periods_per_s": (traced_pps, "1/s"),
            "trace.untraced_periods_per_s": (untraced_pps, "1/s"),
            "trace.overhead_pct": ((untraced_pps / traced_pps - 1.0) * 100.0, "%"),
        }
    )
    return metrics, rows


# ---------------------------------------------------------------------- #
# Command line
# ---------------------------------------------------------------------- #


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=40.0, help="measurement budget (whole cycles of runs)"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0, help="1 = per-layer traced runs"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _print_metrics(metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")


def report_end_to_end(session: Session) -> dict[str, tuple[float, str]]:
    metrics, extras = end_to_end(session)
    print(
        f"end-to-end ({extras['runs']} untraced runs of {extras['seeds']} seeds, "
        f"{extras['setups']} set-ups, {extras['period_samples']} period samples):"
    )
    _print_metrics(metrics)
    print(
        f"  wall clock: {extras['wall_periods_per_s']:.4f} periods per wall second; host "
        f"{extras['host_slowdown']:.3f}x the reference machine's time (median over runs)"
    )
    print("failure share and balance loop (deterministic per seed):")
    for name in ("unconverged_period_frac", "unconverged_periods", "periods",
                 "balance_iterations_per_period"):
        print(f"  {name:<40} {extras[name]:>14.6g}")
    return metrics


def report_per_layer(session: Session) -> dict[str, tuple[float, str]]:
    metrics, rows = per_layer(session)
    print(f"per-layer table (mean of {len(session.traced())} traced runs), by self time:")
    print(f"  {'layer':<22} {'calls':>10} {'self_s':>10} {'total_s':>10}")
    for name, calls, self_s, total_s in rows:
        print(f"  {name:<22} {calls:>10.0f} {self_s:>10.4f} {total_s:>10.4f}")
    print(
        f"  self times + sim.other = {sum(row[2] for row in rows):.4f} s; "
        f"traced run = {metrics['trace.run_s'][0]:.4f} s"
    )
    print("layer extras and tracing overhead (traced vs untraced periods_per_s):")
    _print_metrics(
        {
            name: value
            for name, value in metrics.items()
            if not name.endswith((".calls", ".self_s", ".total_s"))
        }
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not pathlib.Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {repro.__file__}, not the checkout's {SRC}", file=sys.stderr)
        return 2
    scales = [workload_scale(args.workload, seed) for seed in derived_seeds(args.seed)]
    session = measure(scales, args.seconds, trace=bool(args.trace))
    print(
        f"workload {args.workload} seed {args.seed}: {session.attempted} runs attempted, "
        f"{session.failed} failed"
    )
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace and session.traced() and session.untraced():
        metrics = report_per_layer(session)
    elif not args.trace and session.untraced():
        metrics = report_end_to_end(session)
    correct = session.failed == 0 and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
