"""CLI for the scenario-matrix robustness suite.

Examples::

    PYTHONPATH=src python -m repro.scenarios                  # full matrix, write baseline artifact
    PYTHONPATH=src python -m repro.scenarios --quick --check  # CI quality gate (writes no report)
    PYTHONPATH=src python -m repro.scenarios --matrix quick --list
    PYTHONPATH=src python -m repro.scenarios --quick --check \\
        --set overlap_threshold=0.9                           # perturbation study
    PYTHONPATH=src python -m repro.scenarios --quick --check \\
        --output checked.json      # gate against QUALITY_scenario_matrix_quick.json, keep the report

Under ``--check`` the baseline is the matrix's committed artifact unless
``--baseline`` names another; ``--output`` only says where the checked
run's report goes.
"""

from __future__ import annotations

import argparse
import json
import logging
from typing import Dict, List, Optional

from repro.bench.harness import dump_report, load_report
from repro.obs import add_log_level_argument, logging_setup
from repro.runtime.runner import EXECUTORS
from repro.scenarios.compare import compare_quality_reports, missing_cells
from repro.scenarios.library import MATRICES, SCENARIO_LIBRARY
from repro.scenarios.matrix import format_cells, run_matrix

#: Default report artifacts, one per matrix (mirrors the bench harness's
#: per-profile BENCH_*.json convention).
DEFAULT_OUTPUTS = {
    "full": "QUALITY_scenario_matrix.json",
    "quick": "QUALITY_scenario_matrix_quick.json",
}

logger = logging.getLogger("repro.scenarios")


def parse_overrides(pairs: List[str]) -> Dict[str, str]:
    """Parse repeated ``--set FIELD=VALUE`` arguments."""
    overrides: Dict[str, str] = {}
    for pair in pairs:
        name, separator, value = pair.partition("=")
        if not separator or not name:
            raise ValueError(f"--set expects FIELD=VALUE, got {pair!r}")
        overrides[name.strip()] = value.strip()
    return overrides


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--matrix",
        default=None,
        choices=sorted(MATRICES),
        help="named matrix to run (default: full)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorthand for --matrix quick (the CI smoke grid)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON report ('-' for stdout only; default: "
        "QUALITY_scenario_matrix.json, or QUALITY_scenario_matrix_quick.json "
        "for the quick matrix, so each matrix round-trips against its own "
        "committed baseline; under --check no report is written unless "
        "--output is given)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline report to compare against (default: under --check, "
        "the matrix's committed artifact, whatever --output says; "
        "otherwise the --output path, or the committed artifact without "
        "--output; read before any report is written)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when any cell metric regresses beyond its "
        "tolerance or a baseline cell is missing from this run",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="absolute budget for the deterministic quality metrics "
        "(default 0.05: MOTA/MOTP/precision/recall may drop by at most "
        "this much)",
    )
    parser.add_argument(
        "--latency-tolerance",
        type=float,
        default=1.0,
        help="relative margin for the machine-normalised per-frame latency "
        "(default 1.0)",
    )
    parser.add_argument(
        "--executor",
        default="thread",
        choices=EXECUTORS,
        help="runner executor for each cell's fleet (default: thread)",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="perturb a pipeline-config field for every cell (repeatable), "
        "e.g. --set overlap_threshold=0.9; with --check this shows which "
        "scenarios the perturbation breaks",
    )
    parser.add_argument(
        "--list", action="store_true", help="list matrices and scenarios, then exit"
    )
    add_log_level_argument(parser)
    args = parser.parse_args(argv)
    logging_setup(args.log_level)

    if args.list:
        for name, matrix in MATRICES.items():
            print(
                f"matrix {name}: {len(matrix.scenarios)} scenario(s) x "
                f"{len(matrix.trackers)} tracker(s) = "
                f"{len(matrix.cells())} cells"
            )
        print()
        for name, spec in SCENARIO_LIBRARY.items():
            print(f"{name:<18} {spec.description}")
        return 0

    if args.quick and args.matrix not in (None, "quick"):
        logger.error("error: --quick conflicts with --matrix %s", args.matrix)
        return 2
    matrix = MATRICES[args.matrix or ("quick" if args.quick else "full")]

    try:
        overrides = parse_overrides(args.overrides)
    except ValueError as error:
        logger.error("error: %s", error)
        return 2

    committed = DEFAULT_OUTPUTS[matrix.name]
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

    print(
        f"matrix {matrix.name}: {len(matrix.scenarios)} scenario(s) x "
        f"{len(matrix.trackers)} tracker(s)"
        + (f", overrides {overrides}" if overrides else ""),
        flush=True,
    )
    try:
        report = run_matrix(
            matrix,
            executor=args.executor,
            config_overrides=overrides,
            progress=lambda line: print(line, flush=True),
        )
    except ValueError as error:
        logger.error("error: %s", error)
        return 2

    print()
    print(format_cells(report))

    exit_code = 0
    if baseline is not None:
        try:
            comparisons = compare_quality_reports(
                report,
                baseline,
                tolerance=args.tolerance,
                latency_tolerance=args.latency_tolerance,
            )
        except ValueError as error:
            logger.error("error: %s", error)
            return 2
        missing = missing_cells(report, baseline)
        if comparisons or missing:
            print()
            print(
                f"baseline: {baseline_path} (quality tolerance "
                f"{args.tolerance}, latency tolerance "
                f"{args.latency_tolerance:.0%})"
            )
            for comparison in comparisons:
                print(f"  {comparison.describe()}")
            for key in missing:
                print(f"  {key}: MISSING from this run (present in baseline)")
            if args.check and missing:
                # Coverage loss outranks a metric regression: exit 2, like
                # the other "the gate could not actually gate" conditions.
                logger.error(
                    "error: baseline cell(s) missing from this run: %s",
                    ", ".join(missing),
                )
                exit_code = 2
            elif args.check and any(c.regressed for c in comparisons):
                exit_code = 1
        elif args.check:
            # A gate with nothing to compare is not a passing gate: a
            # renamed baseline or matrix would otherwise silently disable
            # the quality check while CI stays green.
            logger.error(
                "error: --check found nothing comparable in baseline %s",
                baseline_path,
            )
            exit_code = 2
    elif args.check:
        logger.error(
            "error: --check requested but no baseline found at %s", baseline_path
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
