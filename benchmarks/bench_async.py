"""Benchmark — the asyncio transport against inline.

Runs the scaled reference workload (the ``scaled(factor=4)`` configuration
``make bench-check`` pins, the period-engine hot path) once per transport and
reports wall-clock side by side.  Two properties are asserted:

* **Metric equivalence** — the async run's ``PeriodSample`` stream is
  bit-identical to inline's (the same contract the golden test harness
  enforces at a smaller scale).
* **Bounded overhead** — stepping an asyncio loop per exchange costs real
  Python time; the async run must stay within ``ASYNC_OVERHEAD_BUDGET`` × the
  inline wall-clock so the overhead cannot quietly grow into unusability.

Run via ``make bench-async`` (or ``pytest -q benchmarks/bench_async.py``).
"""

from __future__ import annotations

import time

from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentScale
from repro.sim.simulator import FlowSimulator, SimulationResult

TRANSPORT_LINEUP = ("inline", "async")

ASYNC_OVERHEAD_BUDGET = 5.0
"""The async run may cost at most this multiple of inline wall-clock.

Generous on purpose: the asyncio loop's value is awaitable handlers and
concurrency semantics, not raw speed — the budget guards against pathological
regressions (accidental re-entry, busy-wait loops), not against the inherent
per-exchange loop-step cost."""


def _timed_run(transport: str, factor: int = 4, phase_periods: int = 4) -> tuple[SimulationResult, float]:
    scale = ExperimentScale.scaled(factor=factor, phase_periods=phase_periods)
    simulator = FlowSimulator(
        config=scale.config(),
        params=scale.params(transport=transport),
        scenario=scale.scenario(),
    )
    start = time.perf_counter()
    try:
        result = simulator.run()
    finally:
        simulator.transport.close()
    return result, time.perf_counter() - start


def _assert_streams_identical(result: SimulationResult, reference: SimulationResult) -> None:
    differences = result.diff(reference)
    assert not differences, "; ".join(differences)


def test_async_transport_wallclock_and_equivalence(benchmark):
    def run_lineup():
        return {kind: _timed_run(kind) for kind in TRANSPORT_LINEUP}

    lineup = benchmark.pedantic(run_lineup, rounds=1, iterations=1)
    inline_result, inline_time = lineup["inline"]
    print()
    print(
        format_table(
            ["transport", "wall-clock (s)", "vs inline", "splits", "merges", "final groups"],
            [
                [
                    kind,
                    f"{elapsed:.3f}",
                    f"{elapsed / inline_time:.2f}x",
                    result.total_splits,
                    result.total_merges,
                    result.final_active_groups,
                ]
                for kind, (result, elapsed) in lineup.items()
            ],
        )
    )
    _assert_streams_identical(lineup["async"][0], inline_result)
    async_time = lineup["async"][1]
    assert async_time <= inline_time * ASYNC_OVERHEAD_BUDGET, (
        f"async transport took {async_time:.3f}s vs inline {inline_time:.3f}s "
        f"(> {ASYNC_OVERHEAD_BUDGET}x budget)"
    )
