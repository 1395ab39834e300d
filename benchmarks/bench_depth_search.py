"""Benchmark E7 — client depth-discovery convergence (Section 5 claim).

The paper claims clients "usually converge to the true depth much faster than
log N".  This benchmark drives the real client/server message protocol over
deployments whose splitting trees were produced by skewed load, and reports
the distribution of probe counts per lookup.
"""

from __future__ import annotations

from repro.core.config import ClashConfig
from repro.core.protocol import ClashSystem
from repro.experiments.reporting import format_table
from repro.keys.identifier import IdentifierKey, RandomKeyGenerator
from repro.util.rng import RandomStream
from repro.util.stats import percentile
from repro.workload.distributions import workload_b, workload_c


def _build_skewed_system(seed: int, splits: int) -> ClashSystem:
    config = ClashConfig(server_capacity=400.0)
    system = ClashSystem.create(config, server_count=128, rng=RandomStream(seed))
    spec = workload_c()
    generator = RandomKeyGenerator(
        width=config.key_bits, base_bits=8, rng=RandomStream(seed + 1), base_weights=spec.weights
    )
    for _ in range(splits):
        key = generator.generate()
        group, owner = system.find_active_group(key)
        if group.depth >= config.effective_max_depth:
            continue
        system.server(owner).set_group_rate(group, 2 * config.server_capacity)
        system.split_server(owner)
    return system


def test_depth_search_converges_faster_than_log_n(benchmark):
    config = ClashConfig()

    def measure():
        system = _build_skewed_system(seed=13, splits=300)
        client = system.make_client("bench-client")
        generator = RandomKeyGenerator(
            width=config.key_bits,
            base_bits=8,
            rng=RandomStream(99),
            base_weights=workload_b().weights,
        )
        probes = []
        for _ in range(400):
            result = client.find_group(generator.generate(), use_cache=False)
            probes.append(result.probes)
        return probes

    probes = benchmark.pedantic(measure, rounds=1, iterations=1)
    mean_probes = sum(probes) / len(probes)
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ["keys resolved", len(probes)],
                ["mean probes", mean_probes],
                ["median probes", percentile(probes, 50)],
                ["p95 probes", percentile(probes, 95)],
                ["worst case", max(probes)],
                ["log2(N) reference", 4.58],
                ["N + 1 upper bound", 25],
            ],
        )
    )
    # Faster than log N on average (the paper's claim), and never worse than
    # the guaranteed N + 1 bound.
    assert mean_probes < 4.58
    assert max(probes) <= 25


def test_depth_search_on_uniform_tree(benchmark):
    """Control case: a freshly bootstrapped (uniform depth) deployment."""
    config = ClashConfig()
    system = ClashSystem.create(config, server_count=128, rng=RandomStream(21))
    client = system.make_client("bench-client")
    rng = RandomStream(4)

    def lookups():
        total = 0
        for _ in range(100):
            key = IdentifierKey(value=rng.randbits(config.key_bits), width=config.key_bits)
            total += client.find_group(key, use_cache=False).probes
        return total / 100

    mean_probes = benchmark(lookups)
    # With the depth hint equal to the bootstrap depth a single probe suffices.
    assert mean_probes <= 1.5
