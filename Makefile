# Developer entry points. `make check` is the gate a PR must pass:
# lint (when ruff is available) plus the tier-1 test suite.

PYTEST := PYTHONPATH=src python -m pytest

# Line-coverage gate for `make coverage`: one point below the measured
# coverage at the time the floor was last ratcheted (91.5%); raise it when
# coverage grows, never lower it to admit a regression.
COVERAGE_FLOOR := 90

.PHONY: check lint test coverage bench-smoke bench bench-async bench-sharded bench-check bench-baseline bench-paper bench-paper-baseline profile-paper fuzz-smoke

check: lint test

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint"; \
	fi

# --durations lists the slowest tests so CI logs show the tier-1 slow tail.
test:
	$(PYTEST) -x -q --durations=15

# The tier-1 suite under the coverage tracer, failing below COVERAGE_FLOOR.
# Uses pytest-cov when installed; otherwise falls back to the stdlib tracer
# in tools/coverage_floor.py (same gate, ~1pt measurement difference).
coverage:
	@if python -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTEST) -q --cov=repro --cov-report=term --cov-fail-under=$(COVERAGE_FLOOR); \
	else \
		echo "pytest-cov not installed; falling back to tools/coverage_floor.py"; \
		PYTHONPATH=src python tools/coverage_floor.py --fail-under $(COVERAGE_FLOOR); \
	fi

# One tiny benchmark configuration — fast enough for every CI run, keeps the
# benchmark modules import-clean and their hot paths executing.
bench-smoke:
	$(PYTEST) -q -m bench_smoke

# The full benchmark suite (regenerates the paper's figures; minutes).
bench:
	$(PYTEST) -q benchmarks

# Wall-clock comparison of the asyncio transport against inline on
# the scaled reference workload (asserts bit-identical metrics as it goes).
bench-async:
	$(PYTEST) -q benchmarks/bench_async.py

# Wall-clock + load-balance comparison of the sharded ring federation
# (shards 1/2/4/8) against the single-ring seed; asserts that shards=1 is
# bit-identical to a run without the knob.
bench-sharded:
	$(PYTEST) -q benchmarks/bench_sharded.py

# Regression gate: re-run the reference workloads and fail loudly on any
# metric drift or a >25% wall-clock regression against BENCH_BASELINE.json.
# CI uses `--skip-wallclock` (shared runners time differently); see
# docs/PERFORMANCE.md for the update workflow.
bench-check:
	PYTHONPATH=src python benchmarks/baseline.py --check

# Re-record BENCH_BASELINE.json after an intentional perf/behaviour change.
bench-baseline:
	PYTHONPATH=src python benchmarks/baseline.py --update

# Paper-scale gate: the full Section 6.1 configuration (1000 servers, 100k
# sources, 6-hour scenario), churn-free and churn-heavy, against
# BENCH_PAPER_SCALE.json.  Same semantics as bench-check: metric drift always
# fails, wall clock gated at 25% with retries.
bench-paper:
	PYTHONPATH=src python benchmarks/bench_paper_scale.py --check

# Re-record BENCH_PAPER_SCALE.json after an intentional perf/behaviour change.
bench-paper-baseline:
	PYTHONPATH=src python benchmarks/bench_paper_scale.py --update

# Hot-path table for the churn-heavy paper-scale run (cProfile top-25).
# PROFILE_FLAGS passes extra switches through, e.g.
#   make profile-paper PROFILE_FLAGS="--sort tottime --profile-output /tmp/churn.pstats"
profile-paper:
	PYTHONPATH=src python benchmarks/bench_paper_scale.py --profile $(PROFILE_FLAGS)

# Adversarial schedule fuzz smoke: a fixed-seed, small-budget sweep of
# delivery orders and churn timings over the async transport (single ring,
# 4 static shards and 4 adaptively partitioned shards), with the invariant
# and liveness oracles at every quiescent point.  The run is deterministic;
# it must find zero violations (exit 1 otherwise).  See docs/FUZZING.md.
fuzz-smoke:
	PYTHONPATH=src python -m repro fuzz --scale-factor 100 --phase-periods 2 \
		--fuzz-budget 12 --fuzz-seeds 0:4 --fuzz-transports async \
		--fuzz-shards 1,4 --join-rate 0.01 --fail-rate 0.01 \
		--verify-invariants --quiet --output-dir /tmp/fuzz-smoke
