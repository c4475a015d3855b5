"""End-to-end parameter sweep through the experiment runner.

Builds a config dict in code (the same schema the CLI reads from JSON),
sweeps two scenarios over three exponents, and prints the per-entry checker
verdicts.  Everything lands in --out-dir: the JSON report, which keeps each
check's fitted constant and verdict plus the name, row count and sha256 of its
entry CSV; the entry CSVs, which hold the per-snapshot rows; and the tidy positivity
CSV that ``emit_plot_data`` assembles from those entry CSVs.  The same files
are produced by

    semiheat run config.json --out-dir out/
    semiheat plotdata out/report_<hash>.json positivity --out-dir out/

    python3 demos/sweep_report.py --out-dir /tmp/sweep
"""

import argparse
import json

from semiheat import emit_plot_data, run_experiment, validate_config


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="sweep_out")
    args = ap.parse_args()

    config = validate_config(
        {
            "manifold": {"kind": "sphere_zonal", "n": 2, "size": 1.0, "resolution": 96},
            "p_values": [1.5, 2.0, 3.0],
            "scenarios": [
                {
                    "name": "warm_start",
                    "initial": {"type": "constant", "value": 0.5},
                    "window": {"t0": 0.0, "t1": 0.4},
                },
                {
                    "name": "random_field",
                    "initial": {"type": "random_uniform", "low": 0.1, "high": 0.6},
                    "window": {"t0": 0.0, "t1": 0.4},
                },
            ],
            "checkers": [
                {"id": "positivity"},
                {"id": "decay", "T_blow": 5.0, "c_cap": 20.0},
            ],
            "seed": 42,
        }
    )

    report = run_experiment(config, out_dir=args.out_dir)
    print(f"config hash {report.config_hash[:12]}, {len(report.entries)} entries")
    for entry in report.entries:
        verdicts = ", ".join(
            f"{cid}: {'pass' if rep.get('passed') else rep.get('status')}"
            for cid, rep in entry["checks"].items()
        )
        print(f"  {entry['name']:>18} [{entry['status']}] {verdicts}")
    print(f"all passed: {report.all_passed}")

    plot_path = emit_plot_data(report, "positivity", out_dir=args.out_dir)
    print(f"report: {report.path}")
    print(f"plot data: {plot_path}")
    print("regimes: " + json.dumps(report.regimes["by_p"]))


if __name__ == "__main__":
    main()
