"""Method-of-lines time integration of u_t = Lap(u) + |u|^p.

The step is a Strang splitting: the reaction is advanced a half step with
its exact pointwise flow (no linear solve, see reaction_ode.reaction_flow),
the diffusion is one implicit Euler solve (a single banded or cyclic-banded
system), then the reaction finishes the step with the second exact half
flow.  Consequences used throughout the tests:

* spatially constant data follows the scalar ODE to roundoff (the
  diffusion solve keeps a constant to a few ulps per solve, the reaction
  flow is exact);
* nonnegative data stays nonnegative on the closed kinds (the implicit
  matrix is an M-matrix there), but not on the radial kind: its
  fourth-order I - dt * L is not an M-matrix, and data that is not smooth
  at the grid scale dips below zero (a tent max(0, 1 - r/2) on n = 3,
  R = 20, 200 nodes, dt = 1e-3 reaches about -1.1e-5; at 400 nodes it
  stays nonnegative);
* the adaptive cap dt <= min(C_DT, 0.5/(p-1)) * (max|u|)^(1-p) keeps the
  reaction flow inside each node's blow-up time for every p.

Backward integration of the PDE is deliberately absent: backward heat flow
is ill-posed.  Ancient behavior is approximated by starting far in the past
(ancient_approximation) and running forward.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import asdict, dataclass

import numpy as np

from ._floats import float_texts
from ._workers import Workers, cpus
from .geometry import (
    DiscreteManifold,
    _aligned_values,
    _check_near_trivial,
    _integer,
    implicit_diffusion_solve,
    laplacian_spectrum,
)
from .reaction_ode import BLOW_THRESHOLD, DT_MAX, _dt_cap, _near_trivial_data, reaction_flow, validate_exponent


class SolverAbort(RuntimeError):
    """The run cannot go on: non-finite values appeared during stepping, or
    the step fell below the resolution of t (t + dt == t), which near
    blow-up happens before the threshold for p >= 3 or so."""


@dataclass(frozen=True)
class EvolveControls:
    """The step bound dt_max and the snapshot cadence: every snapshot_every-th
    step is stored.  The blow-up threshold is reaction_ode.BLOW_THRESHOLD."""

    dt_max: float = DT_MAX
    snapshot_every: int = 1

    def __post_init__(self):
        if not self.dt_max > 0:  # NaN fails it
            raise ValueError(f"dt_max must be positive, got {self.dt_max!r}")
        if _integer(self.snapshot_every, "snapshot_every") < 1:
            raise ValueError("snapshot_every must be at least 1")


@dataclass(frozen=True)
class BlowupInfo:
    detected_time: float
    method: str  # "threshold"


@dataclass
class Trajectory:
    """Snapshots of one PDE run plus the per-step log.

    ``times``/``snapshots`` hold the stored states (cadence controlled by
    EvolveControls.snapshot_every; first and last states always included).
    ``step_times``/``step_dt``/``step_max``/``step_min`` log every accepted
    step.  ``blowup`` is present only when the run terminated by threshold
    crossing; ``negative_data`` flags runs started from sign-mixed or
    negative data (meaningful forward only; they blow down in finite
    backward time).
    """

    manifold: DiscreteManifold
    times: np.ndarray
    snapshots: np.ndarray
    step_times: np.ndarray
    step_dt: np.ndarray
    step_max: np.ndarray
    step_min: np.ndarray
    blowup: BlowupInfo | None = None
    negative_data: bool = False

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.snapshots = np.asarray(self.snapshots, dtype=float)
        if self.times.size >= 2 and not np.all(np.diff(self.times) > 0):
            raise ValueError("snapshot times must be strictly increasing")
        if self.snapshots.shape != (self.times.size, self.manifold.node_count):
            raise ValueError("snapshot block must be (n_times, n_nodes)")

    @property
    def snapshot_max(self) -> np.ndarray:
        return np.max(self.snapshots, axis=1)

    @property
    def snapshot_min(self) -> np.ndarray:
        return np.min(self.snapshots, axis=1)

    def slice_time(self, t_lo: float, t_hi: float) -> "Trajectory":
        """Restrict to snapshots (and step-log entries) with t in [t_lo, t_hi].
        Blow-up info is kept only if it falls inside the slice."""
        keep = (self.times >= t_lo) & (self.times <= t_hi)
        if not np.any(keep):
            raise ValueError("empty time slice")
        keep_steps = (self.step_times >= t_lo) & (self.step_times <= t_hi)
        blow = self.blowup
        if blow is not None and not (t_lo <= blow.detected_time <= t_hi):
            blow = None
        return Trajectory(
            manifold=self.manifold,
            times=self.times[keep],
            snapshots=self.snapshots[keep],
            step_times=self.step_times[keep_steps],
            step_dt=self.step_dt[keep_steps],
            step_max=self.step_max[keep_steps],
            step_min=self.step_min[keep_steps],
            blowup=blow,
            negative_data=self.negative_data,
        )


def trajectory_from_samples(m: DiscreteManifold, times, snapshots) -> Trajectory:
    """Wrap externally computed states (e.g. a closed-form solution sampled
    on a grid) as a Trajectory with a synthetic step log."""
    times = np.asarray(times, dtype=float)
    snaps = np.asarray(snapshots, dtype=float)
    if not np.all(np.isfinite(snaps)):
        raise ValueError("snapshots must be finite")
    return Trajectory(
        manifold=m,
        times=times,
        snapshots=snaps,
        step_times=times[1:],
        step_dt=np.diff(times),
        step_max=np.max(snaps, axis=1)[1:],
        step_min=np.min(snaps, axis=1)[1:],
        blowup=None,
        negative_data=bool(np.min(snaps[0]) < 0),
    )


def evolve(
    m: DiscreteManifold,
    u0,
    t0: float,
    t1: float,
    p: float,
    controls: EvolveControls | None = None,
) -> Trajectory:
    """Integrate u_t = Lap(u) + |u|^p from u(t0) = u0 up to t1.

    Terminates early with blow-up info once max u exceeds
    reaction_ode.BLOW_THRESHOLD.  For spatially constant u0 the result
    matches integrate_scalar_ode to roundoff.  Raises SolverAbort if
    non-finite values ever appear (they are never clamped) or once a step
    no longer advances t.  The finiteness check reads the max and min of u
    that each step logs anyway (NaN and +-inf pass through both), and the
    next step's max |u| is the larger of their magnitudes.  Every step
    makes a new array, so each snapshot is stored as is, without a copy.
    """
    p = validate_exponent(p)
    controls = controls or EvolveControls()
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    span = max(abs(t0), abs(t1))
    if span + controls.dt_max == span:
        raise SolverAbort(f"dt_max = {controls.dt_max:g} is below the resolution of t on [{t0!r}, {t1!r}]")
    u = _aligned_values(m, u0).copy()
    umax = float(u.max())
    umin = float(u.min())
    if not (math.isfinite(umax) and math.isfinite(umin)):
        raise ValueError("initial data must be finite")

    times = [float(t0)]
    snaps = [u]
    step_times, step_dt, step_max, step_min = [], [], [], []
    blowup = None
    negative_data = umin < 0

    t = float(t0)
    step_index = 0
    tiny_horizon = 1e-14 * max(1.0, abs(t1))
    while t1 - t > tiny_horizon:
        mag = max(abs(umax), abs(umin))
        dt = min(controls.dt_max, _dt_cap(p, mag), t1 - t)
        if t + dt == t:
            raise SolverAbort(f"step dt = {dt:g} no longer advances t = {t!r} (max |u| = {mag:g})")
        u = reaction_flow(u, p, 0.5 * dt)
        u = implicit_diffusion_solve(m, u, dt)
        u = reaction_flow(u, p, 0.5 * dt)
        t += dt
        step_index += 1
        umax = float(u.max())
        umin = float(u.min())
        if not (math.isfinite(umax) and math.isfinite(umin)):
            raise SolverAbort(f"non-finite values at t = {t}")
        step_times.append(t)
        step_dt.append(dt)
        step_max.append(umax)
        step_min.append(umin)
        crossed = umax > BLOW_THRESHOLD
        if step_index % controls.snapshot_every == 0 or t1 - t <= tiny_horizon or crossed:
            times.append(t)
            snaps.append(u)
        if crossed:
            blowup = BlowupInfo(detected_time=t, method="threshold")
            break

    return Trajectory(
        manifold=m,
        times=np.asarray(times),
        snapshots=np.asarray(snaps),
        step_times=np.asarray(step_times),
        step_dt=np.asarray(step_dt),
        step_max=np.asarray(step_max),
        step_min=np.asarray(step_min),
        blowup=blowup,
        negative_data=negative_data,
    )


# least-squares window for the blow-up extrapolation: (max u)^(1-p) is
# empirically linear over the last two decades of growth
DETECTION_WINDOW = 20

# a snapshot is fitted only while its remaining life exceeds this many ulps
# of its time: closer to blow-up, steps are a few ulps of t long (at p = 2.7
# on the N = 64 sphere the last 20 snapshots lie 1-2 ulps apart), and a fit
# to times rounded that coarsely is no line
_DETECTION_LIFE_ULPS = 4096


def detect_blowup(traj: Trajectory, p: float) -> float:
    """Estimate the blow-up time by extrapolating (max u)^(1-p) to zero.

    Accepts trajectories that terminated by threshold crossing, and also
    sampled trajectories whose (max u)^(1-p) tail is strictly decreasing
    (the quantity is exactly linear for trivial-type blow-up).  The line is
    fitted to the last DETECTION_WINDOW snapshots whose remaining life
    (max u)^(1-p)/(p-1) exceeds _DETECTION_LIFE_ULPS ulps of t.  Raises if
    fewer than 3 snapshots qualify, or if the trajectory shows no blow-up
    trend.
    """
    p = validate_exponent(p)
    mx = traj.snapshot_max
    if np.any(mx <= 0):
        raise ValueError("blow-up detection expects positive max u")
    y = mx ** (1.0 - p)
    fit = np.flatnonzero(y / (p - 1.0) > _DETECTION_LIFE_ULPS * np.spacing(np.abs(traj.times)))[-DETECTION_WINDOW:]
    if fit.size < 3:
        raise ValueError("too few snapshots for blow-up detection")
    slope, intercept = np.polyfit(traj.times[fit], y[fit], 1)
    if slope >= 0:
        why = "blow-up tail is not decreasing; detection invalid" if traj.blowup else "trajectory did not blow up"
        raise ValueError(why)
    return float(-intercept / slope)


def ancient_approximation(
    m: DiscreteManifold,
    p: float,
    T_blow: float,
    t_start: float,
    eps: float,
    mode_index: int,
    controls: EvolveControls | None = None,
) -> Trajectory:
    """Forward construction approximating an ancient solution.

    Starts at t_start (far in the past; T_blow - t_start >= 10 enforced) from
    the trivial profile times (1 + eps * mode), where mode is the selected
    discrete eigenmode normalized to sup-norm 1, then evolves forward until
    the blow-up threshold terminates the run.  The datum's own rules (0 <=
    eps < 1, a closed kind of at most 4096 nodes, mode below the node
    count) are geometry._check_near_trivial's, which the trivial_plus_mode
    recipe applies at validation too; the t_start rule is this function's
    own.  trivial_ancient refuses a NaN T_blow or t_start (as t).
    """
    p = validate_exponent(p)
    if T_blow - t_start < 10.0:
        raise ValueError("t_start must precede T_blow by at least 10")
    _check_near_trivial(m, eps, mode_index)
    u0 = _near_trivial_data(p, T_blow, t_start, eps, laplacian_spectrum(m)[1][:, mode_index])
    return evolve(m, u0, t_start, T_blow + 1.0, p, controls)


# Each export block a forked child formats holds at least this many values.
# A fork and its join cost about 6 ms, the time of some 17000 values at
# about 0.35 us each (float_texts); split in two, an export of 2^16 values
# breaks even, one of 2^17 saves 10-19 % (measured on a 2-core VM in a
# process of 73 and 137 MB, BENCH_22.json "export_crossover").
EXPORT_VALUES_PER_WORKER = 1 << 16

# Values formatted per float_texts call and written per write (whole
# snapshots, at least one).  A call has a fixed cost of some 15-25 us; on
# one core the 2934 x 256 export took 191 ms a snapshot at a time and 149,
# 141, 158 and 169 ms at 2^10, 2^12, 2^14 and 2^16 values a chunk, larger
# chunks falling out of cache (BENCH_25.json "chunk_size").
EXPORT_CHUNK_VALUES = 1 << 12


def export_trajectory(traj: Trajectory, csv_path, sidecar_path=None, meta: dict | None = None):
    """Write the trajectory as CSV (t, node_index, u) with a JSON sidecar
    carrying the manifold, the step log, blow-up info, and the caller's
    ``meta`` dict (JSON-serializable metadata, stored as given).  The
    sidecar's text is that of ``json.dump(sidecar, fh, indent=1,
    sort_keys=True)``, its step-log lists written by one
    _floats.float_texts call each (_sidecar_text).

    The CSV holds the bytes ``csv.writer`` would write, each float as its
    ``repr``: _floats.float_texts formats the values by the chunk of
    EXPORT_CHUNK_VALUES (whole snapshots, at least one) with orjson where
    1e-4 <= |v| < 1e16 and at zero, and with ``repr`` elsewhere, and each
    chunk's rows are one write (see _write_csv_rows).  Its body is split
    into contiguous snapshot blocks, one per CPU this process may run on
    while each extra block keeps at least EXPORT_VALUES_PER_WORKER values:
    the caller formats the first block into the CSV, and a worker
    (_workers.Workers, which owns a private directory beside ``csv_path``)
    formats each later one into the part file ``<lo>.part`` (``lo``: the
    block's first snapshot index); the parts are appended in order, so the
    bytes do not depend on the CPU count, and a worker that fails is an
    OSError.  The CSV and the sidecar are written in the private directory
    and published in one ``Workers.publish`` call once both are complete:
    the CSV is renamed onto ``csv_path``, the sidecar onto ``sidecar_path``,
    or copied there where that is on another file system.  So an export that
    raises (a ``meta`` that JSON cannot encode included), a directory at
    either path, or one path for both (ValueError), leaves an earlier CSV
    and sidecar as they were, and no file where there was none.  Each file
    has the permissions ``open(path, "w")`` gives a new file: an earlier
    sidecar's mode is not kept.
    """
    times = traj.times
    node_fields = [f",{idx},".encode() for idx in range(traj.manifold.node_count)]
    bounds = _export_block_bounds(times.size, traj.manifold.node_count)
    with Workers(os.path.dirname(os.path.abspath(csv_path)), f".{os.path.basename(csv_path)}.") as workers:
        parts = []  # part paths, in block order
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            parts.append(os.path.join(workers.dir, f"{lo}.part"))
            workers.start("export worker", _write_csv_part, parts[-1], node_fields, times[lo:hi], traj.snapshots[lo:hi])
        with open(os.path.join(workers.dir, "export.csv"), "wb") as fh:
            fh.write(b"t,node_index,u\r\n")
            _write_csv_rows(fh, node_fields, times[: bounds[1]], traj.snapshots[: bounds[1]])
            for part in parts:
                workers.wait()
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh)
        targets = [("export.csv", csv_path)]
        if sidecar_path is not None:
            sidecar = {
                "manifold": {
                    "kind": traj.manifold.kind,
                    "n": traj.manifold.n,
                    "radius_or_length": traj.manifold.radius_or_length,
                    "node_count": traj.manifold.node_count,
                },
                "blowup": None if traj.blowup is None else asdict(traj.blowup),
                "negative_data": traj.negative_data,
                "meta": meta or {},
            }
            step_log = {"t": traj.step_times, "dt": traj.step_dt, "max_u": traj.step_max, "min_u": traj.step_min}
            with open(os.path.join(workers.dir, "sidecar.json"), "w") as fh:
                fh.write(_sidecar_text(sidecar, step_log))
            targets.append(("sidecar.json", sidecar_path))
        workers.publish(targets)


def _export_block_bounds(snapshots: int, nodes: int) -> list[int]:
    """Snapshot indices 0 = b_0 < ... < b_k = snapshots of the export
    blocks: k is _workers.cpus(), capped so that each block keeps at least
    a snapshot and EXPORT_VALUES_PER_WORKER values."""
    per_block = -(-EXPORT_VALUES_PER_WORKER // nodes)  # snapshots, rounded up
    k = max(1, min(cpus(), snapshots // per_block))
    return [snapshots * i // k for i in range(k + 1)]


def _sidecar_text(sidecar: dict, step_log: dict) -> str:
    """``json.dumps({**sidecar, "step_log": step_log}, indent=1,
    sort_keys=True)``, with each list of ``step_log`` (floats only, as a
    list or a 1-D array) written by one _floats.float_texts call joined at
    the indented separator: ``step_log`` sorts last among the root keys,
    both write a float as its ``repr``, and NaN and +-inf, whose ``repr``
    is ``nan`` and ``+-inf``, become JSON's ``NaN`` and ``+-Infinity``.
    For the 11.7k step-log floats of a 2934-snapshot run the pure-Python
    encoder, which ``indent`` selects, took 21 ms, ``json.dumps(list)``
    plus one replace per list 8-13 ms, and this 2-3 ms."""
    head = json.dumps(sidecar, indent=1, sort_keys=True)
    lists = []
    for key, values in sorted(step_log.items()):
        text = b",\n   ".join(float_texts(values)).replace(b"nan", b"NaN").replace(b"inf", b"Infinity")
        lists.append(f'  "{key}": ' + (f"[\n   {text.decode()}\n  ]" if text else "[]"))
    return head[:-2] + ',\n "step_log": {\n' + ",\n".join(lists) + "\n }\n}"


def _write_csv_part(path, node_fields, times, snapshots):
    with open(path, "wb") as fh:
        _write_csv_rows(fh, node_fields, times, snapshots)


def _write_csv_rows(fh, node_fields, times, snapshots):
    """Write the rows csv.writer would write for each snapshot (no field
    needs quoting), one write per chunk of EXPORT_CHUNK_VALUES values, to
    bound peak memory.  Each chunk's u texts come from one float_texts call;
    each snapshot's rows are one join of those texts between fixed
    separators (",<idx>," and CRLF) holding T where the time goes, and one
    replace of T by the time's text, which no float's text contains."""
    nodes = len(node_fields)
    per_chunk = max(1, EXPORT_CHUNK_VALUES // nodes)
    # T,0,u_0 CRLF T,1,u_1 ... CRLF, u_j at the odd places
    pieces = [b"\r\n"] * (2 * nodes + 1)
    pieces[0:-1:2] = [b"\r\nT" + field for field in node_fields]
    pieces[0] = b"T" + node_fields[0]
    t_texts = float_texts(times)
    for lo in range(0, len(t_texts), per_chunk):
        u_texts = float_texts(snapshots[lo : lo + per_chunk].reshape(-1))
        rows = []
        for k, t_text in enumerate(t_texts[lo : lo + per_chunk]):
            pieces[1::2] = u_texts[k * nodes : (k + 1) * nodes]
            rows.append(b"".join(pieces).replace(b"T", t_text))
        fh.write(b"".join(rows))
