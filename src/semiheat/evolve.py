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
import signal
import tempfile
import traceback
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import (
    DiscreteManifold,
    _aligned_values,
    implicit_diffusion_solve,
    laplacian_spectrum,
)
from .reaction_ode import _dt_cap, reaction_flow, trivial_ancient, validate_exponent


class SolverAbort(RuntimeError):
    """The run cannot go on: non-finite values appeared during stepping, or
    the step fell below the resolution of t (t + dt == t), which near
    blow-up happens before the threshold for p >= 3 or so."""


@dataclass(frozen=True)
class EvolveControls:
    """Stepping knobs.  blow_threshold below 1e6 would put termination inside
    the regime where fitted constants are still being measured."""

    dt_max: float = 0.01
    blow_threshold: float = 1e8
    reaction_on: bool = True
    snapshot_every: int = 1

    def __post_init__(self):
        if self.dt_max <= 0:
            raise ValueError("dt_max must be positive")
        if self.blow_threshold < 1e6:
            raise ValueError("blow_threshold must be at least 1e6")
        if self.snapshot_every < 1:
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

    Terminates early with blow-up info once max u exceeds the threshold.
    For spatially constant u0 the result matches integrate_scalar_ode to
    roundoff.  Raises SolverAbort if non-finite values ever appear (they are
    never clamped) or once a step no longer advances t.  The finiteness
    check reads the max and min of u that each step logs anyway (NaN and
    +-inf pass through both), and the next step's max |u| is the larger of
    their magnitudes.  Every step makes a new array, so each snapshot is
    stored as is, without a copy.
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
        cap = _dt_cap(p, mag) if controls.reaction_on else np.inf
        dt = min(controls.dt_max, cap, t1 - t)
        if t + dt == t:
            raise SolverAbort(f"step dt = {dt:g} no longer advances t = {t!r} (max |u| = {mag:g})")
        if controls.reaction_on:
            u = reaction_flow(u, p, 0.5 * dt)
        u = implicit_diffusion_solve(m, u, dt)
        if controls.reaction_on:
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
        crossed = umax > controls.blow_threshold
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


def detect_blowup(traj: Trajectory, p: float) -> float:
    """Estimate the blow-up time by extrapolating (max u)^(1-p) to zero.

    Accepts trajectories that terminated by threshold crossing, and also
    sampled trajectories whose (max u)^(1-p) tail is strictly decreasing
    (the quantity is exactly linear for trivial-type blow-up).  Raises if
    the trajectory shows no blow-up trend.
    """
    p = validate_exponent(p)
    mx = traj.snapshot_max
    if mx.size < 3:
        raise ValueError("too few snapshots for blow-up detection")
    if np.any(mx <= 0):
        raise ValueError("blow-up detection expects positive max u")
    w = min(DETECTION_WINDOW, mx.size)
    tt = traj.times[-w:]
    yy = mx[-w:] ** (1.0 - p)
    slope, intercept = np.polyfit(tt, yy, 1)
    if traj.blowup is None and slope >= 0:
        raise ValueError("trajectory did not blow up")
    if slope >= 0:
        raise ValueError("blow-up tail is not decreasing; detection invalid")
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
    the blow-up threshold terminates the run.
    """
    p = validate_exponent(p)
    if T_blow - t_start < 10.0:
        raise ValueError("t_start must precede T_blow by at least 10")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps >= 1:
        raise ValueError("eps >= 1 would make the initial data change sign")
    lam, modes = laplacian_spectrum(m)
    if not 0 <= mode_index < lam.size:
        raise ValueError("mode_index out of range")
    background = trivial_ancient(p, T_blow, t_start)
    u0 = background * (1.0 + eps * modes[:, mode_index])
    return evolve(m, u0, t_start, T_blow + 1.0, p, controls)


# A forked writer (_fork_writer) formats at least this many values.  A fork
# and its join cost about 4-5 ms, the time of some 5000 values; split in
# two, an export of 2^13 values breaks even or saves 15 %, one of 2^14 saves
# 19-33 % (measured on a 2-core VM in a process of 73 and 137 MB,
# BENCH_10.json "export_crossover").  Writing a sweep entry's CSVs in a
# child breaks even at 6-8k values and saves from 2^13 on (BENCH_12.json
# "entry_crossover").
EXPORT_VALUES_PER_WORKER = 1 << 13


def export_trajectory(traj: Trajectory, csv_path, sidecar_path=None, meta: dict | None = None):
    """Write the trajectory as CSV (t, node_index, u) with a JSON sidecar
    carrying the manifold, the step log, blow-up info, and the caller's
    ``meta`` dict (JSON-serializable metadata, stored as given).

    The CSV holds the bytes ``csv.writer`` would write.  It is written
    under a temporary name in a private directory beside ``csv_path`` and
    renamed onto ``csv_path`` only once complete, so an export that raises
    leaves an earlier file at ``csv_path`` as it was, and no CSV where there
    was none.  The final file has the permissions ``open(csv_path, "w")``
    gives a new file.  Its body is split into contiguous snapshot blocks,
    one per CPU this process may run on while each extra block keeps at
    least EXPORT_VALUES_PER_WORKER values: the caller formats the first
    block into the CSV, a forked child formats each later one into the part
    file ``<lo>.part`` of the private directory (``lo``: the block's first
    snapshot index), and the parts are appended in order, so the bytes do
    not depend on the CPU count.  With one block (one CPU, a small
    trajectory, or no ``os.fork``) nothing is forked; where ``os.fork``
    fails, the caller formats the remaining blocks itself.  Every child is reaped and the
    private directory removed before this returns or raises; a child that
    fails raises OSError here and writes its traceback to stderr.  The
    sidecar is written into the private directory before the CSV is renamed
    into place and copied onto ``sidecar_path`` after it, so a ``meta`` that
    JSON cannot encode leaves an earlier CSV and sidecar as they were;
    ``sidecar_path`` may be on another file system than ``csv_path``.
    """
    times = traj.times
    node_fields = [f",{idx}," for idx in range(traj.manifold.node_count)]
    bounds = _export_block_bounds(times.size, traj.manifold.node_count)
    workdir = tempfile.mkdtemp(prefix=f".{os.path.basename(csv_path)}.", dir=os.path.dirname(os.path.abspath(csv_path)))
    partial = os.path.join(workdir, "export.csv")
    parts = []  # [part path, child pid or None once reaped], in block order
    rest = times.size  # the caller formats the snapshots from here on itself
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            path = os.path.join(workdir, f"{lo}.part")
            values = (hi - lo) * traj.manifold.node_count
            pid = _fork_writer(values, _write_csv_part, path, node_fields, times[lo:hi], traj.snapshots[lo:hi])
            if pid is None:
                # the caller formats this block and the later ones itself
                rest = lo
                break
            parts.append([path, pid])
        with open(partial, "w", newline="") as fh:
            fh.write("t,node_index,u\r\n")
            _write_csv_rows(fh, node_fields, times[: bounds[1]], traj.snapshots[: bounds[1]])
            fh.flush()
            for part in parts:
                pid, part[1] = part[1], None
                _reap_child(pid, "export worker")
                with open(part[0], "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
            _write_csv_rows(fh, node_fields, times[rest:], traj.snapshots[rest:])
        if sidecar_path is not None:
            sidecar = {
                "manifold": {
                    "kind": traj.manifold.kind,
                    "n": traj.manifold.n,
                    "radius_or_length": traj.manifold.radius_or_length,
                    "node_count": traj.manifold.node_count,
                },
                "step_log": {
                    "t": traj.step_times.tolist(),
                    "dt": traj.step_dt.tolist(),
                    "max_u": traj.step_max.tolist(),
                    "min_u": traj.step_min.tolist(),
                },
                "blowup": None if traj.blowup is None else asdict(traj.blowup),
                "negative_data": traj.negative_data,
                "meta": meta or {},
            }
            sidecar_partial = os.path.join(workdir, "sidecar.json")
            with open(sidecar_partial, "w") as fh:
                json.dump(sidecar, fh, indent=1, sort_keys=True)
        os.replace(partial, csv_path)
        if sidecar_path is not None:
            # copied, not renamed: sidecar_path may be on another file system
            shutil.copyfile(sidecar_partial, sidecar_path)
    finally:
        _kill_children(pid for _, pid in parts)
        shutil.rmtree(workdir)


def _fork_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork: a
    forked child formatting output can then run beside its parent."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _export_block_bounds(snapshots: int, nodes: int) -> list[int]:
    """Snapshot indices 0 = b_0 < ... < b_k = snapshots of the export
    blocks: k is _fork_cpus(), capped so that each block keeps at least a
    snapshot and EXPORT_VALUES_PER_WORKER values."""
    per_block = -(-EXPORT_VALUES_PER_WORKER // nodes)  # snapshots, rounded up
    k = max(1, min(_fork_cpus(), snapshots // per_block))
    return [snapshots * i // k for i in range(k + 1)]


def _fork_writer(values: int, write, *args) -> int | None:
    """Fork a child that calls ``write(*args)``, which writes its files by
    path, and leaves (_write_in_child_and_exit); returns its pid.  Returns
    None where the caller is to write the ``values`` values itself: they are
    fewer than EXPORT_VALUES_PER_WORKER, this process may run on one CPU or
    has no ``os.fork``, or the fork fails."""
    pid = None
    if values >= EXPORT_VALUES_PER_WORKER and _fork_cpus() > 1:
        try:
            pid = os.fork()
        except OSError:  # no process to spare (EAGAIN, ENOMEM)
            pass
        if pid == 0:
            _write_in_child_and_exit(write, *args)
    return pid


def _write_in_child_and_exit(write, *args):
    """In a forked child: call ``write(*args)``, then leave without running
    the parent's cleanup or flushing its buffers (so nothing the parent
    buffered is written twice); ``write`` closes the files it opens.
    ``write`` runs only Python formatting and file writes, no BLAS routine,
    so the parent's idle BLAS threads, which the child does not inherit,
    are never waited on."""
    status = 1
    try:
        write(*args)
        status = 0
    except BaseException:
        # the parent sees only the exit code; the cause goes to stderr
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _reap_child(pid: int, what: str):
    """Wait for child ``pid``; OSError naming ``what`` if it failed."""
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise OSError(f"{what} {pid} exited with code {code} (its traceback, if any, is on stderr)")


def _kill_children(pids):
    """Stop and reap every child in ``pids`` not yet reaped (None): their
    output is no longer wanted, since the caller is raising."""
    for pid in pids:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _write_csv_part(path, node_fields, times, snapshots):
    with open(path, "w", newline="") as fh:
        _write_csv_rows(fh, node_fields, times, snapshots)


def _write_csv_rows(fh, node_fields, times, snapshots):
    # the rows csv.writer would write (no field needs quoting), one snapshot
    # per write; the block is converted row by row to bound peak memory
    for t, snap in zip(times.tolist(), snapshots):
        t_field = repr(t)
        fh.write("".join([f"{t_field}{mid}{val!r}\r\n" for mid, val in zip(node_fields, snap.tolist())]))
