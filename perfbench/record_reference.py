"""Record the sweep's fitted constants as the benchmark's reference.

    python3 perfbench/record_reference.py

Runs the sweep config once for each seed 0 .. SEEDS-1 (``--jobs 1``) and writes
``perfbench/reference.json``: for every entry whose status is ok, each
checker's ``[c_fit, passed]``.  Entries whose inputs do not depend on the
seed are stored once under ``seed_independent`` (and must agree across
seeds); the seeded ``random`` entries are stored per seed under
``by_seed``.  Entries that fail are left out, so an entry that starts
succeeding later is not a mismatch.  Re-record only when a change is meant
to move fitted constants, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from semiheat.experiment import run_experiment, validate_config  # noqa: E402

from workloads import sweep_config  # noqa: E402

# the fitted-constants gate compares the seeded entries for these seeds
SEEDS = 100


def constants(entry) -> dict:
    return {cid: [chk["c_fit"], chk["passed"]] for cid, chk in sorted(entry["checks"].items())}


def main():
    seeded = {
        sc["name"] for sc in sweep_config(0)["scenarios"] if sc["initial"]["type"] == "random_uniform"
    }
    fixed, by_seed = None, {}
    for seed in range(SEEDS):
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out:
            report = run_experiment(validate_config(sweep_config(seed)), out_dir=out, jobs=1)
        ok = [e for e in report.entries if e["status"] == "ok"]
        these = {e["name"]: constants(e) for e in ok if e["scenario"] not in seeded}
        if fixed is None:
            fixed = these
        elif these != fixed:
            raise SystemExit(f"seed {seed}: seed-independent entries changed")
        by_seed[str(seed)] = {e["name"]: constants(e) for e in ok if e["scenario"] in seeded}
        print(f"seed {seed}: {len(ok)} of {len(report.entries)} entries ok", flush=True)

    path = os.path.join(HERE, "reference.json")
    seeds = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in by_seed.items())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "seed_independent": {json.dumps(fixed, sort_keys=True)},\n "by_seed": {{\n{seeds}\n }}\n}}\n')
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
