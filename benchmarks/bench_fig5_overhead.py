"""Benchmark / regeneration of Figure 5 — CLASH communication overhead (E6).

Measures signalling messages per second per server for the three workloads,
for virtual stream lengths Ld = 50 and Ld = 1000, with and without the
persistent-query population (the paper's cases A and B).
"""

from __future__ import annotations

from benchmarks.conftest import bench_scale
from repro.experiments.fig5 import run_figure5
from repro.experiments.reporting import render_figure5


def test_figure5_communication_overhead(benchmark):
    scale = bench_scale(phase_periods=3)
    result = benchmark.pedantic(
        lambda: run_figure5(scale, stream_lengths=(50.0, 1000.0), include_query_clients=True),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_figure5(result))
    # Shape assertions mirroring Section 6.3:
    # overheads are clearly lower for longer virtual streams...
    assert result.overhead_ratio_short_vs_long_streams(with_queries=False) > 2.0
    # ...and per-server rates stay modest (the paper reports ~1-12 msg/s/server).
    for case in result.cases:
        for rate in case.messages_per_server_per_second().values():
            assert rate < 100.0


def test_figure5_lookup_cost_per_key_change(benchmark):
    """Micro-benchmark: the message cost of a single depth-discovery search."""
    from repro.core.config import ClashConfig
    from repro.core.protocol import ClashSystem
    from repro.keys.identifier import RandomKeyGenerator
    from repro.util.rng import RandomStream
    from repro.workload.distributions import workload_b

    config = ClashConfig(server_capacity=400.0)
    system = ClashSystem.create(config, server_count=64, rng=RandomStream(5))
    spec = workload_b()
    generator = RandomKeyGenerator(
        width=config.key_bits, base_bits=8, rng=RandomStream(6), base_weights=spec.weights
    )
    client = system.make_client("bench")

    def lookup_batch():
        total_messages = 0
        for _ in range(50):
            total_messages += client.find_group(generator.generate(), use_cache=False).messages
        return total_messages / 50

    average_messages = benchmark(lookup_batch)
    # Every lookup costs at least one request/reply pair and should stay far
    # below the exhaustive-scan worst case of 2 * (N + 1).
    assert 2.0 <= average_messages <= 2.0 * (config.key_bits + 1)
