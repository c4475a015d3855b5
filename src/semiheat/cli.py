"""Command line front end.

    semiheat run CONFIG [--out-dir DIR] [--verbose]
    semiheat check CONFIG
    semiheat plotdata REPORT CHECKER [--out-dir DIR]

Exit codes: 0 all checks passed, 1 at least one check failed or a scenario
errored, 2 config or runtime error.  The default output directory comes
from SEMIHEAT_OUT_DIR; --out-dir overrides both it and the config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .experiment import (
    ConfigError,
    RunReport,
    emit_plot_data,
    load_config,
    run_experiment,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiheat",
        description="run semilinear heat equation sweeps and inequality checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a sweep config")
    run_p.add_argument("config", help="path to a JSON config")
    run_p.add_argument("--out-dir", default=None, help="output directory override")
    run_p.add_argument("--jobs", type=int, default=1, help="ignored: entries run one after another")
    run_p.add_argument("--verbose", action="store_true", help="print per-entry progress")

    check_p = sub.add_parser("check", help="validate a config without running it")
    check_p.add_argument("config", help="path to a JSON config")

    plot_p = sub.add_parser("plotdata", help="emit tidy CSV for one checker")
    plot_p.add_argument("report", help="path to a report JSON written by run")
    plot_p.add_argument("checker", help="checker id to extract")
    plot_p.add_argument("--out-dir", default=".", help="where to write the CSV")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    report = run_experiment(config, out_dir=args.out_dir, verbose=args.verbose)
    failed = [e["name"] for e in report.entries if e["status"] != "ok"]
    print(f"report: {report.timing.get('report_path', '?')}")
    print(
        f"entries: {len(report.entries)}, scenario errors: {len(failed)}, "
        f"check failures: {report._check_failures}"
    )
    if report.all_passed:
        print("all checks passed")
        return 0
    for name in failed:
        print(f"scenario error: {name}", file=sys.stderr)
    print("FAILED", file=sys.stderr)
    return 1


def _cmd_check(args) -> int:
    config = load_config(args.config)
    print(f"config ok, hash {config.config_hash}")
    return 0


def _cmd_plotdata(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        report = RunReport.from_json_dict(json.load(fh))
    report.directory = os.path.dirname(args.report) or "."  # its entry CSVs sit beside it
    paths = emit_plot_data(report, args.checker, out_dir=args.out_dir)
    for path in paths:
        print(path)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_plotdata(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
