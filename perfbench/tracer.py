"""In-memory span tracer installed around semiheat's public functions.

The tracer replaces a function where another module looks it up (for
example ``semiheat.experiment.evolve``, which the sweep runner calls by its
imported name) with a wrapper that records a span, and puts the original
back on ``remove()``.  Nothing in ``src/`` is changed.

Spans carry a name, start, end, parent span id and thread id.  The sweep
runs its entries on pool threads; a span opened on a thread with no open
span of its own takes as parent the innermost span open on the thread that
installed the tracer (the ``run_experiment`` span during a sweep).

Per-step boundaries (the diffusion solve and the reaction flow, called once
and twice per step) are not stored one span per call: each call adds its
count and duration to the innermost open span on its thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time

import semiheat.cli
import semiheat.estimates
import semiheat.experiment
import semiheat.geometry

# the package re-exports the function ``evolve`` under the submodule's name
evolve_module = importlib.import_module("semiheat.evolve")

# checker function name -> checker id used in configs and metric names
CHECKERS = {
    "check_positivity_min_ode": "positivity",
    "check_gradient_estimate": "gradient",
    "check_decay": "decay",
    "check_universal": "universal",
    "check_lower_bound_lemma": "lower_bound",
    "check_triviality": "triviality",
}

DIFFUSION = "geometry.implicit_diffusion_solve"
REACTION = "reaction_ode.reaction_flow"


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "counts", "attrs")

    def __init__(self, span_id, name, parent, thread):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.counts = {}  # per-step child name -> [calls, seconds]
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _evolve_attrs(span, args, result):
    span.attrs["steps"] = int(result.step_times.size)
    span.attrs["snapshots"] = int(result.times.size)
    # kept so the blow-up gate can re-derive detection from the trajectory
    span.attrs["trajectory"] = result
    span.attrs["u0"] = args[1]
    span.attrs["p"] = args[4]


def _checker_attrs(span, args, result):
    span.attrs["snapshots"] = int(args[0].times.size)


def _targets():
    """(module, attribute, span name, attrs hook) for every traced lookup."""
    spans = [
        (semiheat.cli, "run_experiment", "experiment.run_experiment", None),
        (semiheat.cli, "emit_plot_data", "experiment.emit_plot_data", None),
        (semiheat.experiment, "build_manifold", "geometry.build_manifold", None),
        (semiheat.geometry, "build_manifold", "geometry.build_manifold", None),
        (semiheat.experiment, "laplacian_spectrum", "geometry.laplacian_spectrum", None),
        (evolve_module, "laplacian_spectrum", "geometry.laplacian_spectrum", None),
        (semiheat.estimates, "laplacian_spectrum", "geometry.laplacian_spectrum", None),
        (semiheat.experiment, "evolve", "evolve.evolve", _evolve_attrs),
        (evolve_module, "evolve", "evolve.evolve", _evolve_attrs),
        (evolve_module, "export_trajectory", "evolve.export_trajectory", None),
    ]
    for fn_name, cid in CHECKERS.items():
        for module in (semiheat.experiment, semiheat.estimates):
            spans.append((module, fn_name, f"estimates.{cid}", _checker_attrs))
    counted = [
        (evolve_module, "implicit_diffusion_solve", DIFFUSION),
        (evolve_module, "reaction_flow", REACTION),
    ]
    return spans, counted


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[Span] = []
        self._owner = threading.get_ident()
        self._saved = []

    def _stack(self) -> list:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1].id
            else:
                owner = tracer._owner_stack
                parent = owner[-1].id if owner else None
            span = Span(next(tracer._ids), name, parent, threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if hook is not None:
                hook(span, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            # per-step functions are only reached through a traced evolve
            counts = tracer._stack()[-1].counts
            slot = counts.get(name)
            if slot is None:
                counts[name] = [1, elapsed]
            else:
                slot[0] += 1
                slot[1] += elapsed
            return result

        return wrapper

    def install(self) -> "Tracer":
        spans, counted = _targets()
        for module, attr, name, hook in spans:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._span_wrapper(original, name, hook))
        for module, attr, name in counted:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._count_wrapper(original, name))
        return self

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False


def _union_length(intervals) -> float:
    total, reach = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """Per-layer figures of one traced repetition, keyed by metric name."""
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    counts = {DIFFUSION: [0, 0.0], REACTION: [0, 0.0]}
    for span in tracer.spans:
        for name, (calls, secs) in span.counts.items():
            counts[name][0] += calls
            counts[name][1] += secs

    evolves = by_name.get("evolve.evolve", [])
    evolve_self = sum(
        s.duration - sum(secs for _, secs in s.counts.values()) for s in evolves
    )

    exp_spans = by_name.get("experiment.run_experiment", [])
    exp_self = 0.0
    child_busy = 0.0
    exp_wall = 0.0
    for parent in exp_spans:
        children = [s for s in tracer.spans if s.parent == parent.id]
        exp_self += parent.duration - _union_length(
            (max(c.start, parent.start), min(c.end, parent.end)) for c in children
        )
        child_busy += sum(c.duration for c in children)
        exp_wall += parent.duration

    diff_calls, diff_secs = counts[DIFFUSION]
    reac_calls, reac_secs = counts[REACTION]
    out = {
        "geometry.build_manifold_s": total("geometry.build_manifold"),
        "geometry.laplacian_spectrum_s": total("geometry.laplacian_spectrum"),
        "geometry.diffusion_solve_calls": diff_calls,
        "geometry.diffusion_solve_us": 1e6 * diff_secs / diff_calls if diff_calls else 0.0,
        "reaction_ode.reaction_flow_calls": reac_calls,
        "reaction_ode.reaction_flow_us": 1e6 * reac_secs / reac_calls if reac_calls else 0.0,
        "evolve.evolve_s": total("evolve.evolve"),
        "evolve.steps": sum(s.attrs.get("steps", 0) for s in evolves),
        "evolve.snapshots": sum(s.attrs.get("snapshots", 0) for s in evolves),
        "evolve.self_s": evolve_self,
        "evolve.export_trajectory_s": total("evolve.export_trajectory"),
    }
    for cid in CHECKERS.values():
        out[f"estimates.{cid}_s"] = total(f"estimates.{cid}")
    out["estimates.snapshots_checked"] = sum(
        s.attrs.get("snapshots", 0) for cid in CHECKERS.values() for s in by_name.get(f"estimates.{cid}", ())
    )
    out["experiment.self_s"] = exp_self
    out["experiment.parallel_efficiency"] = child_busy / (jobs * exp_wall) if exp_wall else 0.0
    out["experiment.emit_plot_data_s"] = total("experiment.emit_plot_data")
    return out


def span_records(tracer: Tracer, **extra):
    """JSON-ready span dicts; the trajectories kept for the gates are dropped."""
    for s in tracer.spans:
        yield {
            "id": s.id,
            "name": s.name,
            "parent": s.parent,
            "thread": s.thread,
            "start": s.start,
            "end": s.end,
            "counts": s.counts,
            "attrs": {k: v for k, v in s.attrs.items() if k in ("steps", "snapshots")},
            **extra,
        }
