"""The three benchmark workloads.

Each workload turns the benchmark seed into its inputs (``inputs``), runs
one repetition into a fresh output directory (``run``, the timed body), and
checks what the program produced (``gates``, untimed).  The seed reaches
the program only through the sweep config's ``seed`` and through generated
initial data; every operation is a call into a public semiheat function or
one sweep entry.

``sweep``             ``semiheat run`` on a 9-entry sphere config, then
                      ``semiheat plotdata`` once per checker id.
``long_run``          one radial and one circle run at N = 2000: the banded
                      and cyclic diffusion solves dominate.
``ancient_analysis``  one sphere ancient run with every step stored, a
                      sliding-window checker scan with CSV rows, and the
                      trajectory export.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import semiheat.cli
import semiheat.estimates as est
import semiheat.geometry as geo
from semiheat.reaction_ode import blowup_time_from_min

from tracer import CHECKERS
from tracer import evolve_module as ev


class GateError(AssertionError):
    """A correctness gate failed; the benchmark run is invalid."""


@dataclass
class Rep:
    """Outcome of one repetition of a workload body."""

    wall: float = 0.0
    steps: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)  # [name, error text]
    op_seconds: list = field(default_factory=list)
    output_bytes: int = 0
    digest: str = ""
    layer: dict = field(default_factory=dict)  # per-layer figures the tracer cannot see
    outputs: dict = field(default_factory=dict)  # what the gates inspect
    traced: bool = False


def call_op(rep: Rep, name, fn, *args):
    """One direct public call as a counted, individually timed operation."""
    rep.attempted += 1
    start = time.perf_counter()
    try:
        return fn(*args)
    except Exception as exc:  # any raise is a failed operation, recorded by name
        rep.failures.append([name, f"{type(exc).__name__}: {exc}"])
        return None
    finally:
        rep.op_seconds.append(time.perf_counter() - start)


def _files(out_dir):
    return sorted(
        os.path.join(out_dir, f) for f in os.listdir(out_dir) if os.path.isfile(os.path.join(out_dir, f))
    )


def _output_bytes(out_dir) -> int:
    return sum(os.path.getsize(f) for f in _files(out_dir))


def _digest_files(out_dir, h, skip=()):
    for path in _files(out_dir):
        if path in skip:
            continue
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# sweep


SWEEP_CHECKERS = [
    {"id": "positivity"},
    {"id": "gradient", "variant": "global", "D": 1e9, "T": 0.5},
    {"id": "decay", "T_blow": 5.0},
    {"id": "universal", "T0": -13.0, "T": 6.0},
    {"id": "lower_bound", "delta": 0.5, "L": 1.0, "A": 5.0, "r0": 0.5, "C_delta_cap": 1.0, "T": 0.01},
    {"id": "triviality"},
]


def sweep_config(seed: int) -> dict:
    return {
        "manifold": {"kind": "sphere_zonal", "n": 2, "size": 1.0, "resolution": 256},
        "p_values": [1.5, 2.0, 3.0],
        "scenarios": [
            {
                "name": "ancient",
                "initial": {"type": "trivial_plus_mode", "T_blow": 0.0, "t_start": -12.0, "eps": 0.05, "mode": 1},
                "window": {"t0": -12.0, "t1": -1.0},
            },
            {
                "name": "warm",
                "initial": {"type": "constant", "value": 0.5},
                "window": {"t0": 0.0, "t1": 5.0},
            },
            {
                "name": "random",
                "initial": {"type": "random_uniform", "low": 0.1, "high": 0.6},
                "window": {"t0": 0.0, "t1": 0.5},
            },
        ],
        "checkers": SWEEP_CHECKERS,
        "seed": seed,
    }


class Sweep:
    name = "sweep"
    # (kind, n, size, N, spectrum) built during set-up
    manifolds = [("sphere_zonal", 2, 1.0, 256, True)]

    def inputs(self, seed, work_dir):
        config = sweep_config(seed)
        path = os.path.join(work_dir, "sweep_config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        return {"config": config, "path": path}

    def run(self, inputs, out_dir, jobs) -> Rep:
        rep = Rep()
        sink = io.StringIO()
        plot_errors = {}
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = semiheat.cli.main(["run", inputs["path"], "--out-dir", out_dir, "--jobs", str(jobs)])
            reports = [f for f in os.listdir(out_dir) if f.startswith("report_")]
            if code not in (0, 1) or len(reports) != 1:
                raise GateError(f"semiheat run exited {code} without a report:\n{sink.getvalue()}")
            report_path = os.path.join(out_dir, reports[0])
            for cid in CHECKERS.values():
                mark = sink.tell()
                op_start = time.perf_counter()
                if semiheat.cli.main(["plotdata", report_path, cid, "--out-dir", out_dir]) != 0:
                    plot_errors[cid] = sink.getvalue()[mark:].strip()
                rep.op_seconds.append(time.perf_counter() - op_start)
        rep.wall = time.perf_counter() - start

        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        rep.op_seconds.extend(report["timing"]["per_entry"].values())
        for entry in report["entries"]:
            rep.attempted += 1
            errors = [] if entry["status"] == "ok" else [entry.get("error", "")]
            errors += [
                f"{cid}: {chk.get('error', '')}" for cid, chk in entry["checks"].items() if chk.get("status") == "error"
            ]
            if errors:
                rep.failures.append([entry["name"], "; ".join(errors)])
            else:
                rep.steps += entry["trajectory"]["step_count"]
        for cid in CHECKERS.values():
            rep.attempted += 1
            if cid in plot_errors:
                rep.failures.append([f"plotdata {cid}", plot_errors[cid]])

        # the report minus its timing block, in the runner's own layout, then
        # every CSV the run and plotdata wrote
        untimed = {k: v for k, v in report.items() if k != "timing"}
        h = hashlib.sha256(json.dumps(untimed, sort_keys=True, indent=2).encode())
        rep.digest = _digest_files(out_dir, h, skip={report_path}).hexdigest()
        rep.output_bytes = _output_bytes(out_dir)
        rep.layer = {
            "experiment.entries": len(report["entries"]),
            "experiment.entries_failed": len(rep.failures) - len(plot_errors),
            "experiment.report_mb": os.path.getsize(report_path) / 1e6,
        }
        rep.outputs = {"report": report}
        return rep

    def gates(self, inputs, rep: Rep, tracer, reference):
        """Blow-up detection on constant data, and fitted constants against
        the reference recorded for this config."""
        checked = 0
        for span in tracer.spans:
            if span.name != "evolve.evolve" or "trajectory" not in span.attrs:
                continue  # another layer, or a run that raised
            u0, p, traj = span.attrs["u0"], span.attrs["p"], span.attrs["trajectory"]
            if np.ptp(u0) != 0.0 or traj.blowup is None:
                continue
            detected = ev.detect_blowup(traj, p)
            exact = blowup_time_from_min(p, float(u0[0]))
            if not abs(detected - exact) <= 1e-3:
                raise GateError(f"detect_blowup {detected!r} vs blowup_time_from_min {exact!r} at p = {p:g}")
            checked += 1
        if checked == 0:
            raise GateError("no constant-data entry reached blow-up; the detection gate checked nothing")
        compare_constants(rep.outputs["report"], reference, inputs["config"]["seed"])


def compare_constants(report: dict, reference: dict, seed: int):
    """Every entry the reference holds as ok must still be ok, with each
    checker's passed flag equal and its c_fit equal to six significant
    digits (values under 1e-9 are roundoff and count as equal)."""
    expected = dict(reference["seed_independent"])
    expected.update(reference["by_seed"].get(str(seed), {}))
    entries = {e["name"]: e for e in report["entries"]}
    for name, checks in expected.items():
        entry = entries.get(name)
        if entry is None or entry["status"] != "ok":
            raise GateError(f"{name}: ok in the reference, now {entry and entry.get('error')!r}")
        for cid, (c_fit, passed) in checks.items():
            got = entry["checks"].get(cid, {})
            if got.get("status") != "checked":
                raise GateError(f"{name}/{cid}: checked in the reference, now {got.get('error')!r}")
            value, c_fit = (math.inf if v == "inf" else v for v in (got["c_fit"], c_fit))
            if got["passed"] != passed or not (
                value == c_fit or math.isclose(value, c_fit, rel_tol=1e-6, abs_tol=1e-9)
            ):
                raise GateError(f"{name}/{cid}: c_fit {value!r} passed {got['passed']}, reference {c_fit!r} {passed}")


# ---------------------------------------------------------------------------
# long_run


class LongRun:
    name = "long_run"
    manifolds = [("euclidean_radial", 3, 20.0, 2000, False), ("circle", 1, 2.0 * math.pi, 2000, False)]

    RADIAL_P = 3.0
    CIRCLE_P = 2.0

    def inputs(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        amplitude = 0.5 + 0.1 * rng.random()
        width = 1.5 + 0.5 * rng.random()
        phase1, phase2 = 2.0 * math.pi * rng.random(2)
        return {"amplitude": amplitude, "width": width, "phases": (phase1, phase2)}

    def run(self, inputs, out_dir, jobs) -> Rep:
        rep = Rep()
        op = functools.partial(call_op, rep)
        controls = ev.EvolveControls(snapshot_every=50)
        start = time.perf_counter()
        radial = op("build_manifold radial", geo.build_manifold, *self.manifolds[0][:4])
        r = radial.nodes
        u_radial = inputs["amplitude"] * np.exp(-(r**2) / (2.0 * inputs["width"] ** 2))
        traj_r = op("evolve radial", ev.evolve, radial, u_radial, 0.0, 25.0, self.RADIAL_P, controls)

        circle = op("build_manifold circle", geo.build_manifold, *self.manifolds[1][:4])
        x = circle.nodes
        ph1, ph2 = inputs["phases"]
        u_circle = 1.0 + 0.5 * np.cos(x + ph1) + 0.1 * np.cos(2.0 * x + ph2)
        traj_c = op("evolve circle", ev.evolve, circle, u_circle, 0.0, 5.0, self.CIRCLE_P, controls)

        reports = {}
        if traj_r is not None:
            reports["radial_positivity"] = op("positivity radial", est.check_positivity_min_ode, traj_r, self.RADIAL_P)
            reports["radial_decay"] = op("decay radial", est.check_decay, traj_r, 26.0, self.RADIAL_P)
        t_star = None
        if traj_c is not None:
            t_upper = blowup_time_from_min(self.CIRCLE_P, float(u_circle.min()))
            reports["circle_positivity"] = op("positivity circle", est.check_positivity_min_ode, traj_c, self.CIRCLE_P)
            reports["circle_decay"] = op("decay circle", est.check_decay, traj_c, t_upper, self.CIRCLE_P)
            t_star = op("detect_blowup circle", ev.detect_blowup, traj_c, self.CIRCLE_P)
        for key, report in reports.items():
            if report is not None:
                _write_rows(os.path.join(out_dir, f"{key}.csv"), ["t", "lhs", "structural_rhs", "ratio"], report.csv_rows())
        rep.wall = time.perf_counter() - start

        rep.steps = sum(t.step_times.size for t in (traj_r, traj_c) if t is not None)
        rep.output_bytes = _output_bytes(out_dir)
        h = _digest_files(out_dir, hashlib.sha256())
        for traj in (traj_r, traj_c):
            if traj is not None:
                h.update(traj.snapshots.tobytes())
        h.update(repr(t_star).encode())
        rep.digest = h.hexdigest()
        rep.outputs = {"radial": traj_r, "circle": traj_c, "u_circle": u_circle, "t_star": t_star, "reports": reports}
        return rep

    def gates(self, inputs, rep: Rep, tracer, reference):
        """The radial run decays without blow-up and stays positive; the
        circle run blows up between the ODE times of its max and min."""
        out = rep.outputs
        radial, circle = out["radial"], out["circle"]
        if radial is None or radial.blowup is not None or abs(radial.times[-1] - 25.0) > 1e-9:
            raise GateError("radial run must reach t = 25 without blow-up")
        if not radial.snapshot_max[-1] < radial.snapshot_max[0]:
            raise GateError("radial run must decay")
        if not out["reports"]["radial_positivity"].passed:
            raise GateError("radial run failed the minimum comparison")
        if circle is None or circle.blowup is None or out["t_star"] is None:
            raise GateError("circle run must blow up")
        lo = blowup_time_from_min(self.CIRCLE_P, float(out["u_circle"].max()))
        hi = blowup_time_from_min(self.CIRCLE_P, float(out["u_circle"].min()))
        if not lo - 1e-6 <= out["t_star"] <= hi + 1e-6:
            raise GateError(f"circle blow-up {out['t_star']!r} outside the ODE bracket [{lo!r}, {hi!r}]")


# ---------------------------------------------------------------------------
# ancient_analysis


class AncientAnalysis:
    name = "ancient_analysis"
    manifolds = [("sphere_zonal", 2, 1.0, 256, True)]

    P = 2.0
    WINDOW = 3.0
    WINDOW_STARTS = tuple(float(a) for a in range(-12, -3))  # [-12, -9] ... [-4, -1]
    EXPORT_SAMPLES = 64

    def inputs(self, seed, work_dir):
        rng = np.random.default_rng(seed)
        return {"eps": 0.05 * (0.9 + 0.2 * rng.random()), "seed": seed}

    def run(self, inputs, out_dir, jobs) -> Rep:
        rep = Rep()
        op = functools.partial(call_op, rep)
        p = self.P
        rows = {}

        def record(key, window_start, report):
            if report is not None:
                rows.setdefault(key, []).extend([repr(window_start)] + r for r in report.csv_rows())

        start = time.perf_counter()
        m = op("build_manifold sphere", geo.build_manifold, *self.manifolds[0][:4])
        traj = op(
            "ancient_approximation", ev.ancient_approximation, m, p, 0.0, -12.0, inputs["eps"], 1,
            ev.EvolveControls(snapshot_every=1),
        )
        if traj is not None:
            for a in self.WINDOW_STARTS:
                w = traj.slice_time(a, a + self.WINDOW)
                D = float(np.max(w.snapshots)) * 1.0000001
                for variant, params in (
                    ("local", est.EstimateParams(D=D, R=1.0, T=self.WINDOW)),
                    ("global", est.EstimateParams(D=D, T=self.WINDOW)),
                    ("ancient", est.EstimateParams(D=D)),
                ):
                    record(f"gradient_{variant}", a, op(f"gradient {variant} @{a:g}", est.check_gradient_estimate, w, params, variant, p))
                record("universal", a, op(f"universal @{a:g}", est.check_universal, w, a - 0.5, a + self.WINDOW + 0.5, p))
                record("decay", a, op(f"decay @{a:g}", est.check_decay, w, 0.0, p))
                record("positivity", a, op(f"positivity @{a:g}", est.check_positivity_min_ode, w, p))
                record("triviality", a, op(f"triviality @{a:g}", est.check_triviality, w, m, p))
            # the approach to blow-up, against the extrapolated blow-up time
            t_star = op("detect_blowup", ev.detect_blowup, traj, p)
            if t_star is not None:
                tail = traj.slice_time(-1.0, float(traj.times[-1]))
                D = float(np.max(tail.snapshots)) * 1.0000001
                record("gradient_ancient", -1.0, op("gradient ancient tail", est.check_gradient_estimate, tail, est.EstimateParams(D=D), "ancient", p))
                record("universal", -1.0, op("universal tail", est.check_universal, tail, -1.5, t_star, p))
                record("decay", -1.0, op("decay tail", est.check_decay, tail, t_star, p))
            for key, body in rows.items():
                _write_rows(os.path.join(out_dir, f"scan_{key}.csv"), ["window_start", "t", "lhs", "structural_rhs", "ratio"], body)
            op(
                "export_trajectory", ev.export_trajectory, traj,
                os.path.join(out_dir, "trajectory.csv"), os.path.join(out_dir, "trajectory.json"),
                {"eps": inputs["eps"], "seed": inputs["seed"]},
            )
        rep.wall = time.perf_counter() - start

        rep.steps = 0 if traj is None else int(traj.step_times.size)
        rep.output_bytes = _output_bytes(out_dir)
        rep.digest = _digest_files(out_dir, hashlib.sha256()).hexdigest()
        export = [os.path.join(out_dir, f) for f in ("trajectory.csv", "trajectory.json")]
        rep.layer = {"evolve.export_mb": sum(os.path.getsize(f) for f in export if os.path.exists(f)) / 1e6}
        rep.outputs = {"traj": traj, "csv": export[0]}
        return rep

    def gates(self, inputs, rep: Rep, tracer, reference):
        """The export holds snapshots x nodes rows, and sampled rows read back
        bit for bit as the in-memory snapshots."""
        traj = rep.outputs["traj"]
        if traj is None or traj.blowup is None:
            raise GateError("the ancient run must reach the blow-up threshold")
        with open(rep.outputs["csv"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        n_snap, n_node = traj.snapshots.shape
        if lines[0] != "t,node_index,u" or len(lines) - 1 != n_snap * n_node:
            raise GateError(f"export has {len(lines) - 1} rows, expected {n_snap} x {n_node}")
        rng = np.random.default_rng(inputs["seed"])
        for row in rng.choice(n_snap * n_node, self.EXPORT_SAMPLES, replace=False):
            k, j = divmod(int(row), n_node)
            t, idx, u = lines[row + 1].split(",")
            if float(t) != traj.times[k] or int(idx) != j or float(u) != traj.snapshots[k, j]:
                raise GateError(f"export row {row} does not round-trip: {lines[row + 1]!r}")


WORKLOADS = {w.name: w for w in (Sweep(), LongRun(), AncientAnalysis())}
