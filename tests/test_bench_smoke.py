"""Benchmark smoke test (``pytest -m bench_smoke``).

The benchmark files under ``benchmarks/`` are not collected by the regular
test run (they are named ``bench_*.py``), so an import error or a drifted API
there would only surface when someone runs the full suite.  This smoke test
imports every benchmark module and executes one tiny benchmark configuration,
keeping the suite import-clean at tier-1 cost.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"


def _import_from_path(path: pathlib.Path):
    # ``benchmarks`` is importable as a namespace package only when the repo
    # root is on sys.path; the bench modules import their shared conftest
    # through it.
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    name = f"benchmarks.{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Register before executing (the documented importlib recipe): dataclass
    # decorators resolve string annotations through sys.modules[__module__],
    # which is None for an unregistered module.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.bench_smoke
def test_every_benchmark_module_imports_cleanly():
    paths = sorted(BENCH_DIR.glob("bench_*.py"))
    assert paths, "no benchmark modules found"
    for path in paths:
        _import_from_path(path)


@pytest.mark.bench_smoke
def test_tiny_async_benchmark_config_executes():
    """One miniature async-vs-inline run of the bench_async workload."""
    bench = _import_from_path(BENCH_DIR / "bench_async.py")

    inline_result, _ = bench._timed_run("inline", factor=50, phase_periods=2)
    async_result, _ = bench._timed_run("async", factor=50, phase_periods=2)
    bench._assert_streams_identical(async_result, inline_result)


@pytest.mark.bench_smoke
def test_tiny_sharded_benchmark_config_executes():
    """One miniature sharded-vs-single-ring run of the bench_sharded workload."""
    bench = _import_from_path(BENCH_DIR / "bench_sharded.py")

    single_result, _ = bench._timed_run(1, factor=50, phase_periods=2)
    sharded_result, _ = bench._timed_run(4, factor=50, phase_periods=2)
    assert single_result.total_splits > 0
    assert all(s.shard_count == 4 for s in sharded_result.metrics.samples)
    # Peak-to-mean per-shard load is >= 1 whenever a period carries load
    # (0.0 is the documented idle-period value).
    assert all(
        s.cross_shard_imbalance >= 1.0 or s.cross_shard_imbalance == 0.0
        for s in sharded_result.metrics.samples
    )


@pytest.mark.bench_smoke
def test_tiny_paper_scale_benchmark_config_executes():
    """The paper-scale benchmark machinery on a miniature configuration.

    Runs the same ``_run``/``_metrics`` pipeline ``make bench-paper`` gates,
    but at scaled(factor=100) so it executes at tier-1 cost on every CI run.
    """
    import dataclasses

    bench = _import_from_path(BENCH_DIR / "bench_paper_scale.py")
    from repro.experiments.runner import ExperimentScale

    tiny = dataclasses.replace(
        ExperimentScale.scaled(factor=100, phase_periods=2),
        join_rate=bench.CHURN_RATE,
        fail_rate=bench.CHURN_RATE,
    )
    metrics = bench._metrics(bench._run(tiny))
    assert metrics["periods"] == 6
    assert metrics["total_splits"] > 0
    # The routing-tier work counters ride along as drift-gated metrics.
    assert metrics["ring_full_rebuilds"] == 1
    assert metrics["ring_finger_recomputations"] > 0
    assert metrics["memo_hits"] > 0


@pytest.mark.bench_smoke
def test_tiny_depth_search_benchmark_config_executes():
    """One miniature run of the depth-search benchmark workload."""
    bench = _import_from_path(BENCH_DIR / "bench_depth_search.py")
    from repro.keys.identifier import RandomKeyGenerator
    from repro.util.rng import RandomStream
    from repro.workload.distributions import workload_b

    system = bench._build_skewed_system(seed=13, splits=30)
    client = system.make_client("smoke-client")
    generator = RandomKeyGenerator(
        width=system.config.key_bits,
        base_bits=8,
        rng=RandomStream(99),
        base_weights=workload_b().weights,
    )
    probes = [
        client.find_group(generator.generate(), use_cache=False).probes
        for _ in range(25)
    ]
    assert all(1 <= count <= system.config.key_bits + 1 for count in probes)
