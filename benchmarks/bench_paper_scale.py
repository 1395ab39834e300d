"""Paper-scale benchmark gate: the Section 6.1 configuration as a routine run.

Two long-horizon benchmarks at the paper's full scale (1000 servers, 100,000
sources, the 6-hour A → B → C scenario), compared against the committed
``BENCH_PAPER_SCALE.json`` with the same semantics as ``BENCH_BASELINE.json``
(metric drift always fails; wall clock is gated at 25 % with retries):

* ``paper_scale`` — the churn-free reference run.
* ``paper_scale_churn`` — the same scenario with Poisson joins and failures
  at 0.005 events/second each, the configuration that exercised a full
  O(ring) stabilisation per membership event before the incremental repair.

The recorded metrics include the routing-tier work counters
(``ring_finger_recomputations``, memo hit/invalidation counts), so the
incremental-stabilisation win is itself drift-gated: a change that silently
reverts rings to full rebuilds shows up as a metric failure, not merely a
slow run.  They also include the number of periods whose balance loop hit
``max_balance_iterations``; ``--check`` additionally requires that every period converged and that the
churn run stays under ``LOAD_CHECK_PROBE_CEILING`` verdict probes.

Usage (from the repo root, also exposed as ``make bench-paper``)::

    PYTHONPATH=src python benchmarks/bench_paper_scale.py --check
    PYTHONPATH=src python benchmarks/bench_paper_scale.py --check --skip-wallclock
    PYTHONPATH=src python benchmarks/bench_paper_scale.py --update
    PYTHONPATH=src python benchmarks/bench_paper_scale.py --profile

After an intentional perf or behaviour change, re-record with ``--update``
and commit the new ``BENCH_PAPER_SCALE.json`` together with the change.
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys
from typing import Callable

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.baseline import check, make_parser, update  # noqa: E402
from repro.experiments.runner import ExperimentScale  # noqa: E402
from repro.sim.simulator import FlowSimulator, SimulationResult  # noqa: E402

PAPER_BASELINE_PATH = REPO_ROOT / "BENCH_PAPER_SCALE.json"

CHURN_RATE = 0.005
"""Poisson join and failure rate (events/second) of the churn benchmark."""

ROUNDS = 2
"""Timed rounds per benchmark (plus the untimed warm-up).  The paper-scale
runs are long enough that two rounds bound the harness at a few minutes
while still letting --check pick a best round."""


def _round(value: float) -> float:
    return round(value, 9)


def _paper_scale(churn: bool) -> ExperimentScale:
    scale = ExperimentScale.paper()
    if churn:
        scale = dataclasses.replace(scale, join_rate=CHURN_RATE, fail_rate=CHURN_RATE)
    return scale


def _run(scale: ExperimentScale) -> SimulationResult:
    return FlowSimulator(
        config=scale.config(), params=scale.params(), scenario=scale.scenario()
    ).run()


def _metrics(result: SimulationResult) -> dict[str, object]:
    samples = result.metrics.samples
    metrics: dict[str, object] = {
        "total_splits": result.total_splits,
        "total_merges": result.total_merges,
        "final_active_groups": result.final_active_groups,
        "periods": len(samples),
        "server_joins": sum(sample.server_joins for sample in samples),
        "server_failures": sum(sample.server_failures for sample in samples),
        "groups_reassigned": sum(sample.groups_reassigned for sample in samples),
        "split_series": [sample.splits for sample in samples],
        "merge_series": [sample.merges for sample in samples],
        "max_load_series": [_round(sample.max_load_percent) for sample in samples],
        "message_rate_series": [
            _round(sample.messages_per_server_per_second) for sample in samples
        ],
    }
    # The routing-tier work counters are deterministic functions of the seed
    # and scenario, so they are drift-gated like every other metric.
    metrics.update({key: int(value) for key, value in sorted(result.notes.items())})
    return metrics


def bench_paper_scale() -> dict[str, object]:
    """The churn-free paper-scale reference run."""
    return _metrics(_run(_paper_scale(churn=False)))


def bench_paper_scale_churn() -> dict[str, object]:
    """The paper-scale run under Poisson churn at 0.005 joins+fails/second."""
    return _metrics(_run(_paper_scale(churn=True)))


BENCHMARKS: dict[str, Callable[[], dict[str, object]]] = {
    "paper_scale": bench_paper_scale,
    "paper_scale_churn": bench_paper_scale_churn,
}


def profile_churn_run(
    top: int = 25,
    sort: str = "cumtime",
    output: pathlib.Path | None = None,
) -> str:
    """One churn-heavy paper-scale run under cProfile, as a top-N table.

    ``output`` additionally dumps the raw pstats data for offline analysis
    (``python -m pstats PATH``, snakeviz, flameprof, ...).
    """
    import cProfile
    import pstats

    from repro.experiments.reporting import render_profile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        _run(_paper_scale(churn=True))
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    if output is not None:
        stats.dump_stats(str(output))
    return render_profile(stats, top=top, sort=sort)


LOAD_CHECK_PROBE_CEILING = 7_200
"""Hard ceiling on the churn run's ``load_check_probes`` counter, asserted by
``--check`` on top of the exact-drift gate.  It is twice the 3,598 probes
the converged balance loop with its verdict cache makes over the run's 84
load checks; re-probing every server at every read instead takes 91,078.
A change that quietly drops the verdict cache trips this even if it also
re-records the baseline counters."""


def _check_gates(path: pathlib.Path) -> int:
    """Assert the committed baseline's behavioural gates.

    Every period of every paper-scale run converged (no ``balance_cap_hits``),
    and the churn run's probe counter is under the ceiling.  The drift gate
    holds the live runs to these committed numbers.
    """
    import json

    benchmarks = json.loads(path.read_text())["benchmarks"]
    status = 0
    for name in BENCHMARKS:
        hits = benchmarks[name]["metrics"].get("balance_cap_hits")
        if hits != 0:
            print(
                f"paper-scale: FAIL {name} records balance_cap_hits={hits}; every "
                "period's balance loop must converge within max_balance_iterations"
            )
            status = 1
    probes = benchmarks["paper_scale_churn"]["metrics"].get("load_check_probes")
    if probes is None:
        print("paper-scale: FAIL churn baseline records no load_check_probes counter")
        return 1
    if probes > LOAD_CHECK_PROBE_CEILING:
        print(
            f"paper-scale: FAIL load_check_probes {probes} exceeds the "
            f"committed ceiling {LOAD_CHECK_PROBE_CEILING} (the verdict cache "
            "regressed toward probe-everyone)"
        )
        status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = make_parser(__doc__.splitlines()[0], PAPER_BASELINE_PATH, mode_required=False)
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile one churn-heavy paper-scale run and print the hot-path table",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        help="rows in the --profile table (default: 25)",
    )
    parser.add_argument(
        "--sort",
        choices=("cumtime", "tottime"),
        default="cumtime",
        help="ranking column of the --profile table (default: cumtime)",
    )
    parser.add_argument(
        "--profile-output",
        type=pathlib.Path,
        default=None,
        help="also dump the raw cProfile stats to PATH (pstats format)",
    )
    args = parser.parse_args(argv)
    if args.profile:
        print(
            profile_churn_run(
                top=args.profile_top, sort=args.sort, output=args.profile_output
            )
        )
        return 0
    if not (args.check or args.update):
        parser.error("one of --check, --update or --profile is required")
    if args.update:
        return update(args.baseline, BENCHMARKS, ROUNDS, tag="paper-scale")
    status = check(
        args.baseline,
        skip_wallclock=args.skip_wallclock,
        benchmarks=BENCHMARKS,
        rounds=ROUNDS,
        tag="paper-scale",
    )
    gate_status = _check_gates(args.baseline)
    return status or gate_status


if __name__ == "__main__":
    sys.exit(main())
