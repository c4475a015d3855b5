"""semiheat benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One invocation:

1. makes the workload's inputs from ``--seed``;
2. times the interpreter import of semiheat plus the workload's first
   manifold builds and spectra in fresh interpreters (``setup_s``);
3. runs the workload body once untimed, then repeats it for ``--seconds``.
   With ``--trace 0`` every repetition is untraced; with ``--trace 1``
   untraced and traced repetitions alternate, so the tracing overhead is
   their difference.  A fixed calibration kernel runs before and after
   every timed sample (see ``calibrate``);
4. runs one untimed check pass (traced, ``--jobs 1`` for the sweep),
   applies the workload's correctness gates to it, and requires every
   repetition's outputs to equal the check pass's byte for byte.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The timings ``wall_s``, ``steps_per_s`` and ``setup_s``
are corrected for machine speed: each sample is scaled by ``CAL_REF_S``
over the calibration time around it, so they read as seconds on a machine
where the kernel takes ``CAL_REF_S``.  The raw samples are printed and
recorded too.  Program outputs go to a temporary directory in the checkout
that is removed on exit; the run's full record (samples, failed
operations, gates, spans) is written to ``.perfbench-out/``.  Everything
stays inside the checkout.  Exits 1 when a gate fails and 2 when the
checkout has no semiheat source.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy.linalg

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 9
MIN_REPS = 4
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# fewest samples that leave ten beyond the lowest ladder percentile
TAIL_MIN_SAMPLES = round(10.0 / (1.0 - min(TAIL_LADDER) / 100.0))
# calibration kernel time on the 2-core VM the first baseline was recorded on
CAL_REF_S = 0.08

# set-up in a fresh interpreter: import plus the workload's first manifolds
SETUP_CODE = """
import json, sys, time
start = time.perf_counter()
import semiheat
for kind, n, size, N, spectrum in json.loads(sys.argv[1]):
    m = semiheat.build_manifold(kind, n, size, N)
    if spectrum:
        semiheat.laplacian_spectrum(m)
print(repr(time.perf_counter() - start))
"""



def calibrate() -> float:
    """Seconds for one pass of a fixed kernel that does not touch semiheat.

    It mixes what the workloads spend their time in: banded solves, small
    vector arithmetic and Python call overhead.  On a shared machine whose
    speed drifts over seconds to minutes, its time tracks the drift, so a
    sample divided by the calibration time around it is steadier than the
    sample itself.  A change to semiheat does not move it.
    """
    ab = np.ones((3, 256))
    ab[1] = 3.0
    x = np.linspace(0.0, 1.0, 256)
    start = time.perf_counter()
    for _ in range(2000):
        x = scipy.linalg.solve_banded((1, 1), ab, x)
        x = np.maximum(x / x.max(), x**2.0 / (1.0 + x))
    return time.perf_counter() - start


def corrected(samples, cal) -> list:
    """Scale sample i by CAL_REF_S over the mean of the calibrations taken
    just before and just after it (``cal`` has one more entry)."""
    return [s * CAL_REF_S / ((a + b) / 2.0) for s, a, b in zip(samples, cal, cal[1:])]


def metric_units(kind) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as declared
    in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def tail(samples):
    """(percentile, value) for the highest ladder percentile with at least
    ten samples beyond it, or None when there are too few samples."""
    n = len(samples)
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10.0:
            ordered = sorted(samples)
            pos = (n - 1) * q / 100.0
            lo = int(pos)
            hi = min(lo + 1, n - 1)
            return q, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return None


def describe(samples, unit) -> str:
    text = f"median {statistics.median(samples):.6g} {unit}"
    t = tail(samples)
    text += f", p{t[0]:g} {t[1]:.6g} {unit}" if t else f", no tail percentile (< {TAIL_MIN_SAMPLES} samples)"
    return f"{text}, n = {len(samples)}"


def measure_setup(workload):
    """Raw set-up samples and the calibrations around them."""
    env = dict(os.environ, PYTHONPATH=SRC)
    spec = json.dumps(workload.manifolds)
    samples, cal = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, spec],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
        cal.append(calibrate())
    return samples, cal


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "semiheat", "__init__.py")):
        print(f"no semiheat source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import semiheat

    if os.path.dirname(os.path.abspath(semiheat.__file__)) != os.path.join(SRC, "semiheat"):
        print(f"imported semiheat from {semiheat.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from tracer import Tracer, layer_metrics, span_records
    from workloads import WORKLOADS, GateError

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    end_to_end_units = metric_units("end_to_end")
    per_layer_units = metric_units("per_layer")
    jobs = len(os.sched_getaffinity(0))

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        inputs = workload.inputs(args.seed, work)
        setup_raw, setup_cal = measure_setup(workload)

        # one untimed repetition first: the first one after the set-up
        # interpreters reads consistently slower (lazy imports, cold caches)
        out = tempfile.mkdtemp(dir=work)
        workload.run(inputs, out, jobs)
        shutil.rmtree(out)

        reps, traced_layers, spans = [], [], []
        cal = [calibrate()]
        started = time.perf_counter()
        while True:
            out = tempfile.mkdtemp(dir=work)
            if args.trace == 1 and len(reps) % 2 == 1:
                with Tracer() as tracer:
                    rep = workload.run(inputs, out, jobs)
                rep.traced = True
                traced_layers.append({**layer_metrics(tracer, jobs), **rep.layer})
                spans.extend(span_records(tracer, rep=len(reps)))
                del tracer
            else:
                rep = workload.run(inputs, out, jobs)
            shutil.rmtree(out)
            rep.outputs.clear()  # keep only the figures, so memory does not grow with the count
            reps.append(rep)
            cal.append(calibrate())
            elapsed = time.perf_counter() - started
            if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
        measured = time.perf_counter() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

        # untimed check pass after the timed loop, so its traced trajectories
        # do not set the peak memory: jobs 1, traced, gates applied
        out = tempfile.mkdtemp(dir=work)
        with Tracer() as tracer:
            check = workload.run(inputs, out, 1)
        workload.gates(inputs, check, tracer, reference)
        del tracer
        for i, rep in enumerate(reps):
            if rep.digest != check.digest:
                raise GateError(
                    f"repetition {i} ({'traced' if rep.traced else 'untraced'}, jobs {jobs}) wrote "
                    "different outputs from the check pass (traced, jobs 1)"
                )
    except GateError as exc:
        print(f"GATE FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rep_walls = corrected([r.wall for r in reps], cal)
    plain = [(r, w) for r, w in zip(reps, rep_walls) if not r.traced]
    walls = [w for _, w in plain]
    raw_walls = [r.wall for r, _ in plain]
    setup = corrected(setup_raw, setup_cal)
    attempted = sum(r.attempted for r in reps)
    failures = [f for r in reps for f in r.failures]
    ops = [s for r, _ in plain for s in r.op_seconds]
    metrics = {
        "wall_s": statistics.median(walls),
        "steps_per_s": statistics.median(r.steps / w for r, w in plain),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "output_mb": statistics.median(r.output_bytes for r, _ in plain) / 1e6,
    }
    failed_frac = len(failures) / attempted

    print(f"workload {workload.name}, seed {args.seed}, jobs {jobs}, {len(reps)} repetitions "
          f"({len(plain)} untraced), {measured:.1f} s measured")
    print(f"  wall_s       {describe(walls, 's')} (speed-corrected)")
    print(f"  raw wall     {describe(raw_walls, 's')}")
    print(f"  operation    {describe(ops, 's')} (raw)")
    print(f"  setup_s      {describe(setup, 's')} (speed-corrected)")
    print(f"  raw setup    {describe(setup_raw, 's')}")
    print(f"  calibration  {describe(cal + setup_cal, 's')}, reference {CAL_REF_S:g} s")
    print(f"  check pass   {check.wall:.6g} s (traced, jobs 1, untimed)")
    for name, value in metrics.items():
        print(f"  {name:<14} {value:.6g} {end_to_end_units[name]}")
    print(f"  failed_frac    {failed_frac:.6g} ratio ({len(failures)} of {attempted} operations)")
    for name, error in sorted({tuple(f) for f in failures}):
        print(f"    failed: {name}: {error}")
    print("  gates: passed (constants, blow-up detection, export round-trip, byte-identical outputs)")

    if args.trace == 1:
        layer = {
            name: statistics.median(layers.get(name, 0.0) for layers in traced_layers)
            for name in per_layer_units
            if name != "trace.overhead_s"
        }
        traced_walls = [w for r, w in zip(reps, rep_walls) if r.traced]
        layer["trace.overhead_s"] = statistics.median(traced_walls) - metrics["wall_s"]
        for name, value in layer.items():
            print(f"  {name:<36} {value:.6g} {per_layer_units[name]}")
        shown = {k: {"value": layer[k], "unit": per_layer_units[k]} for k in per_layer_units}
    else:
        shown = {k: {"value": v, "unit": end_to_end_units[k]} for k, v in metrics.items()}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": jobs,
        "check_pass": {"wall_s": check.wall, "jobs": 1, "traced": True},
        "metrics": metrics,
        "per_layer": shown if args.trace == 1 else None,
        "failed_frac": failed_frac,
        "failures": failures,
        "samples": {
            "wall_s": walls,
            "raw_wall_s": raw_walls,
            "setup_s": setup,
            "raw_setup_s": setup_raw,
            "operation_s": ops,
            "calibration_s": cal,
            "setup_calibration_s": setup_cal,
        },
        "spans": spans,
    }
    results = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"  record: {os.path.relpath(path, ROOT)}")

    print(json.dumps({"correct": True, "attempted": attempted, "failed": len(failures), "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
