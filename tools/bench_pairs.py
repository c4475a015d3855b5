"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload sweep --seeds 100-109 --seconds 25

For each seed, runs ``perfbench/run.py --workload W --seed S --seconds T``
once in each checkout, one run at a time, the parent first in the first,
third, ... pair and the change first in the others, and reads the JSON
object each run prints last.  Then, for each end-to-end metric of
``BENCHMARK.json``, prints each side's median and quartiles, the relative
change of the medians, the pairs the change won (ties count for neither
side) and whether a gain may be claimed: the change wins at least nine
tenths of the pairs, and the medians differ by more than the parent's
interquartile range.  Prints each side's failed operations over those
attempted too.  ``--json PATH`` writes every run's metrics there.  Exits 1
as soon as a run fails or prints ``"correct": false``.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(text: str) -> list[int]:
    """'3,5,7' or '100-109' (inclusive) or a mix: '1,4-6'."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one perfbench run in ``checkout``, parsed; exits 1
    if the run fails or reports incorrect outputs."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False}
    if done.returncode != 0 or result.get("correct") is not True:
        print(f"{checkout} seed {seed}: exit {done.returncode}, not correct\n{done.stderr[-2000:]}", file=sys.stderr)
        sys.exit(1)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--json", help="write every run's metrics to this file")
    args = ap.parse_args(argv)

    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, seed, args.seconds))
        print(f"pair {i + 1} seed {seed}: " + ", ".join(
            f"{side} wall_s {runs[side][-1]['metrics']['wall_s']['value']:.6g}" for side in order), flush=True)

    pairs = len(args.seeds)
    print(f"\n{args.workload}: {pairs} pairs, seeds {args.seeds[0]}..{args.seeds[-1]}, {args.seconds:g} s each")
    summary = {}
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        (p1, pm, p3), (c1, cm, c3) = quartiles(values["parent"]), quartiles(values["change"])
        sign = -1.0 if direction == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        claim = wins >= 0.9 * pairs and sign * (cm - pm) > p3 - p1
        change = (cm - pm) / pm if pm else float("nan")
        print(f"  {name:<12} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
              f"{change:+.1%}  change better in {wins}/{pairs}  gain claimable: {'yes' if claim else 'no'}")
        summary[name] = {"parent": values["parent"], "change": values["change"], "wins": wins, "claim": claim}
    for side in runs:
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"  {side} failed operations: {failed} of {attempted}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
                       "metrics": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
