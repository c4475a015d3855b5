"""Print the output digest of each benchmark workload for one seed.

    python3 tools/output_digests.py --seed N

Runs each workload of ``perfbench/workloads.py`` once, untimed and
untraced, into a fresh temporary directory (the sweep at jobs 1 and at
jobs 2), and prints one line per run: the workload, its job count, the
workload's own output digest, its output bytes and its failed operations
over those attempted.  Two checkouts hold the same outputs when their text
for a seed is the same; compare on the digest, since the sweep's byte count
moves by a few bytes between runs with its report's ``timing`` block, which
the digest leaves out.  Run it from anywhere: the package is imported from
``src/`` and the workloads from ``perfbench/`` beside this script's parent
directory, and nothing is written there.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        for jobs in (1, 2) if name == "sweep" else (1,):
            with tempfile.TemporaryDirectory() as work:
                out = os.path.join(work, "out")
                os.mkdir(out)
                rep = workload.run(workload.inputs(args.seed, work), out, jobs)
            failed = f"{len(rep.failures)}/{rep.attempted}"
            print(f"{name} jobs={jobs} digest={rep.digest} bytes={rep.output_bytes} failed={failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
