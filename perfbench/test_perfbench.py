"""Tests of the benchmark's own machinery (``perfbench/run.py``).

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import gc
import importlib.util
import pathlib
import sys

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", pathlib.Path(__file__).with_name("run.py")
)
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)

from repro.core.client import ClashClient  # noqa: E402
from repro.core.protocol import ClashSystem  # noqa: E402
from repro.dht.ring import ChordRing  # noqa: E402
from repro.experiments.runner import ExperimentScale  # noqa: E402
from repro.net.asyncio_transport import AsyncTransport  # noqa: E402
from repro.net.inline import InlineTransport  # noqa: E402
from repro.sim.loadmeasure import LoadMeasure  # noqa: E402
from repro.sim.metrics import MetricsRecorder  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_a_nested_call_tree() -> None:
    clock = FakeClock()
    tracer = bench.Tracer(clock=clock)

    def leaf(cost: float) -> None:
        clock.now += cost

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle() -> None:
        clock.now += 1.0
        traced_leaf(2.0)
        clock.now += 0.5
        traced_leaf(3.0)

    traced_middle = tracer.wrap("middle", middle)

    def root() -> None:
        clock.now += 4.0
        traced_middle()
        traced_leaf(0.25)

    tracer.wrap("root", root)()
    clock.now += 7.0  # untraced time after the root span
    tracer.wrap("root", root)()

    table, top_level = bench.layer_times(tracer.spans)
    assert table["root"].calls == 2
    assert table["root"].total_s == pytest.approx(2 * 10.75)
    assert table["root"].self_s == pytest.approx(2 * 4.0)
    assert table["middle"].calls == 2
    assert table["middle"].total_s == pytest.approx(2 * 6.5)
    assert table["middle"].self_s == pytest.approx(2 * 1.5)
    assert table["leaf"].calls == 6
    assert table["leaf"].self_s == pytest.approx(2 * 5.25)
    assert table["leaf"].total_s == table["leaf"].self_s
    assert top_level == pytest.approx(2 * 10.75)
    assert sum(row.self_s for row in table.values()) == pytest.approx(top_level)
    assert [span[3] for span in tracer.spans[:4]] == [None, 0, 1, 1]


def test_span_closes_when_the_call_raises() -> None:
    clock = FakeClock()
    tracer = bench.Tracer(clock=clock)

    def fails() -> None:
        clock.now += 1.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("fails", fails)()
    tracer.wrap("after", lambda: None)()
    assert tracer.spans == [("fails", 0.0, 1.0, None), ("after", 1.0, 1.0, None)]


def test_workload_definitions() -> None:
    assert set(bench.WORKLOADS) == {"paper_calm", "paper_churn", "fig5_sharded_async"}
    for name in bench.WORKLOADS:
        scale = bench.workload_scale(name, bench.DEFAULT_SEED)
        assert (scale.server_count, scale.source_count) == (1000, 100_000)
        assert scale.load_check_period == 300.0
        assert bench.expected_periods(scale) == 72

    calm = bench.workload_scale("paper_calm", bench.DEFAULT_SEED)
    assert calm == ExperimentScale.paper()
    assert (calm.transport, calm.shards, calm.query_client_count) == ("inline", 1, 0)
    assert (calm.join_rate, calm.fail_rate) == (0.0, 0.0)

    churn = bench.workload_scale("paper_churn", bench.DEFAULT_SEED)
    assert (churn.join_rate, churn.fail_rate) == (0.05, 0.05)
    assert (churn.transport, churn.shards, churn.query_client_count) == ("inline", 1, 0)

    fig5 = bench.workload_scale("fig5_sharded_async", bench.DEFAULT_SEED)
    assert fig5.query_client_count == 50_000
    assert (fig5.shards, fig5.partition, fig5.transport) == (4, "adaptive", "async")
    assert (fig5.join_rate, fig5.fail_rate) == (0.0, 0.0)


def test_seed_argument_reaches_the_scale() -> None:
    assert bench.parse_args(["--workload", "paper_calm"]).seed == 20040324
    args = bench.parse_args(["--workload", "paper_churn", "--seed", "7"])
    seeds = bench.derived_seeds(args.seed)
    assert seeds[0] == 7
    assert len(set(seeds)) == len(seeds) == bench.SEEDS_PER_RUN
    assert bench.derived_seeds(7) == seeds
    assert bench.derived_seeds(8)[1:] != seeds[1:]
    scale = bench.workload_scale(args.workload, seeds[0])
    assert scale.seed == 7
    assert scale.params().seed == 7


WRAPPED = (
    (ClashSystem, "run_load_check"),
    (ClashSystem, "split_server"),
    (ClashSystem, "exchange_load_reports"),
    (ClashSystem, "consolidate_server"),
    (ClashSystem, "handle_server_join"),
    (ClashSystem, "handle_server_failure"),
    (ClashSystem, "rebalance_partition"),
    (ClashClient, "find_group"),
    (ChordRing, "find_successor"),
    (ChordRing, "stabilise"),
    (LoadMeasure, "assign_rates"),
    (LoadMeasure, "assignment"),
    (MetricsRecorder, "record"),
) + tuple(
    (transport, method)
    for transport in (InlineTransport, AsyncTransport)
    for method in ("request", "post", "flush")
)


def _class_attributes() -> dict:
    return {(owner, attr): owner.__dict__.get(attr) for owner, attr in WRAPPED}


TINY_CALM = ExperimentScale.scaled(factor=100, phase_periods=1)
TINY_FIG5 = dataclasses.replace(
    ExperimentScale.scaled(factor=100, query_clients=True, phase_periods=1),
    shards=4,
    partition="adaptive",
    transport="async",
)


@pytest.mark.parametrize("scale", [TINY_CALM, TINY_FIG5], ids=["inline", "async-sharded"])
def test_traced_run_restores_class_attributes_and_adds_up(scale) -> None:
    before = _class_attributes()
    assert before[(InlineTransport, "flush")] is None  # inherited from Transport
    record = bench.run_once(scale, trace=True)
    assert _class_attributes() == before
    assert record.periods == bench.expected_periods(scale) == 3
    assert len(record.period_s) == 3
    assert sum(record.period_s) <= record.run_s
    assert record.layers["balance"].calls == record.iterations
    assert record.layers["lookup"].calls == record.lookups
    assert record.layers["net.flush"].calls > 0
    self_total = sum(row.self_s for row in record.layers.values())
    assert self_total == pytest.approx(record.top_level_s)
    assert 0 < record.top_level_s <= record.run_s

    untraced = bench.run_once(scale, trace=False)
    assert _class_attributes() == before
    assert untraced.layers is None
    assert untraced.fingerprint() == record.fingerprint()


def test_speed_probe_pauses_the_collector_only_while_sampling() -> None:
    probe = bench.SpeedProbe()
    probe.sample()
    probe.sample()
    assert gc.isenabled()
    assert len(probe.samples) == 2
    assert probe.slowdown == pytest.approx(
        (probe.samples[0] + probe.samples[1]) / 2 / bench.REFERENCE_KERNEL_S
    )


def test_a_failing_run_is_counted_not_dropped(monkeypatch, capsys) -> None:
    def broken(self) -> None:
        raise AssertionError("injected")

    monkeypatch.setattr(ClashSystem, "verify_invariants", broken)
    session = bench.Session([TINY_CALM])
    session.attempt(0, trace=False)
    assert (session.attempted, session.failed, session.runs) == (1, 1, [])
    assert "injected" in capsys.readouterr().err
