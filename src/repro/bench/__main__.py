"""CLI for the benchmark harness: event-path scenarios and serving scale.

Examples::

    PYTHONPATH=src python -m repro.bench                      # full run, write baseline artifact
    PYTHONPATH=src python -m repro.bench --quick              # CI smoke sizes
    PYTHONPATH=src python -m repro.bench --scenarios nn_filter,ebms_pipeline
    PYTHONPATH=src python -m repro.bench --quick --check \\
        --baseline BENCH_event_path.json --tolerance 0.30     # regression gate (writes no report)
    PYTHONPATH=src python -m repro.bench --quick --check \\
        --output checked.json             # gate against BENCH_event_path_quick.json, keep the report
    PYTHONPATH=src python -m repro.bench --suite serving_scale  # thread vs process hub

Under ``--check`` the baseline is the profile's committed artifact unless
``--baseline`` names another; ``--output`` only says where the checked
run's report goes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.bench.harness import (
    FULL_PROFILE,
    QUICK_PROFILE,
    build_report,
    calibrate,
    compare_reports,
    dump_report,
    load_report,
    missing_scenarios,
)
from repro.bench.scenarios import SCENARIOS, parse_scenario_list

#: Suite name -> (full-profile default output, quick-profile default output).
SUITES = {
    "event_path": ("BENCH_event_path.json", "BENCH_event_path_quick.json"),
    "serving_scale": ("BENCH_serving_scale.json", "BENCH_serving_scale_quick.json"),
}


def format_scenarios(report: dict) -> str:
    """Human-readable per-scenario summary table."""
    header = f"{'scenario':<18} {'primary':>16} {'value':>12} {'speedup':>9}"
    lines = [header, "-" * len(header)]
    for name, metrics in report["scenarios"].items():
        primary = metrics.get("primary", "")
        value = metrics.get(primary, 0.0)
        speedup = next(
            (
                metrics[key]
                for key in sorted(metrics)
                if key.startswith("speedup_vs_")
            ),
            None,
        )
        speedup_text = f"{speedup:8.1f}x" if speedup is not None else f"{'—':>9}"
        lines.append(f"{name:<18} {primary:>16} {value:>12.1f} {speedup_text}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--suite",
        choices=tuple(SUITES),
        default="event_path",
        help="benchmark suite: 'event_path' (filter/pipeline/session "
        "scenarios) or 'serving_scale' (thread vs process hub across "
        "fleet sizes)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke sizes instead of the full committed-baseline workload",
    )
    parser.add_argument(
        "--scenarios",
        default=None,
        metavar="NAME[,NAME...]",
        help="event_path scenarios to run (default: all; "
        "not applicable to --suite serving_scale)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON report ('-' for stdout only; default: "
        "the suite's committed artifact name, e.g. BENCH_event_path.json or "
        "BENCH_serving_scale.json, with a _quick variant under --quick, "
        "so each profile round-trips against its own committed baseline; "
        "under --check no report is written unless --output is given)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline report to compare against (default: under --check, "
        "the profile's committed artifact, whatever --output says; "
        "otherwise the --output path, or the committed artifact without "
        "--output; read before any report is written)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when any compared metric regresses beyond the "
        "tolerance (1) or a baseline scenario the run was asked for is "
        "missing from it (2)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop vs the baseline (default 0.30)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, fn in SCENARIOS.items():
            print(f"{name:<18} {fn.__doc__.splitlines()[0]}")
        print(f"{'serving_scale':<18} thread vs process hub scaling suite (--suite serving_scale)")
        return 0

    if args.suite == "serving_scale" and args.scenarios is not None:
        print(
            "error: --scenarios applies to the event_path suite only",
            file=sys.stderr,
        )
        return 2

    full_output, quick_output = SUITES[args.suite]
    committed = quick_output if args.quick else full_output
    artifact = args.output or committed
    # A checked run compares against the committed artifact, wherever its
    # own report goes, but never rewrites it: it writes a report only where
    # --output says.  An unchecked run compares against the report it is
    # about to overwrite.
    baseline_path = args.baseline or (
        committed if args.check else (artifact if artifact != "-" else None)
    )
    output = args.output if args.check else artifact
    baseline = load_report(baseline_path) if baseline_path else None

    calibration = calibrate()

    if args.suite == "serving_scale":
        from repro.bench.serving_scale import (
            FULL_SERVING_PROFILE,
            QUICK_SERVING_PROFILE,
            run_suite,
        )

        profile = QUICK_SERVING_PROFILE if args.quick else FULL_SERVING_PROFILE
        print(
            f"profile {profile.name}: sensors {profile.sensor_counts}, "
            f"{profile.scenes} scene(s) x {profile.duration_s:.1f} s, "
            f"{profile.batch_us} us batches, {profile.workers} workers",
            flush=True,
        )
        print(f"calibration score: {calibration['score']:.2f}", flush=True)
        results = run_suite(profile, log=lambda line: print(line, flush=True))
    else:
        try:
            names = parse_scenario_list(args.scenarios or ",".join(SCENARIOS))
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        profile = QUICK_PROFILE if args.quick else FULL_PROFILE
        print(
            f"profile {profile.name}: {profile.scenes} scene(s) x "
            f"{profile.duration_s:.1f} s, {len(names)} scenario(s)",
            flush=True,
        )
        print(f"calibration score: {calibration['score']:.2f}", flush=True)
        results = {}
        for name in names:
            print(f"  running {name} ...", flush=True)
            results[name] = SCENARIOS[name](profile)
    report = build_report(profile, results, calibration, benchmark=args.suite)

    print()
    print(format_scenarios(report))

    exit_code = 0
    if baseline is not None:
        if baseline.get("profile") != report["profile"]:
            print(
                f"note: comparing a {report['profile']!r} run against a "
                f"{baseline.get('profile')!r} baseline — short runs carry "
                "extra warm-up overhead, so prefer a matching-profile "
                "baseline for tight tolerances"
            )
        comparisons = compare_reports(report, baseline, tolerance=args.tolerance)
        # A run narrowed by --scenarios reports every scenario it names, so
        # only a full run can miss a baseline scenario.
        missing = [] if args.scenarios else missing_scenarios(report, baseline)
        if comparisons or missing:
            print()
            print(f"baseline: {baseline_path} (tolerance {args.tolerance:.0%})")
            for comparison in comparisons:
                print(f"  {comparison.describe()}")
            for name in missing:
                print(f"  {name}: MISSING from this run (present in baseline)")
            if args.check and missing:
                # Coverage loss outranks a metric regression: exit 2, like
                # the other "the gate could not actually gate" conditions.
                print(
                    "error: baseline scenario(s) missing from this run: "
                    + ", ".join(missing),
                    file=sys.stderr,
                )
                exit_code = 2
            elif args.check and any(c.regressed for c in comparisons):
                exit_code = 1
        elif args.check:
            # A gate that has nothing to compare is not a passing gate:
            # a renamed baseline or scenario would otherwise silently
            # disable the regression check while CI stays green.
            print(
                f"error: --check found nothing comparable in baseline "
                f"{baseline_path}",
                file=sys.stderr,
            )
            exit_code = 2
    elif args.check:
        print(
            f"error: --check requested but no baseline found at {baseline_path}",
            file=sys.stderr,
        )
        exit_code = 2

    if output == "-":
        print(json.dumps(report, indent=2, sort_keys=True))
    elif output is not None:
        dump_report(report, output)
        print(f"\nwrote JSON report to {output}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
