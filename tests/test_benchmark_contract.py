"""The benchmark in perfbench/ reaches into semiheat by name: its tracer
replaces module attributes with wrappers, and its workloads call public
functions through module aliases.  A rename or deletion in src/ that breaks
either would otherwise show up only when the benchmark runs.  These tests
import and read perfbench/; they change nothing there."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import types

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    # the benchmark's modules import each other by bare name
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in ("tracer", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield lambda name: importlib.import_module(name)
    for name in ("tracer", "workloads"):
        sys.modules.pop(name, None)


def test_every_traced_target_exists(perfbench):
    tracer = perfbench("tracer")
    spans, counted = tracer._targets()
    assert spans and counted
    for module, attr, *_ in spans + counted:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_traced_checker_names_match_the_registry(perfbench):
    tracer = perfbench("tracer")
    from semiheat.experiment import _CHECKERS

    assert {cid: c.function for cid, c in _CHECKERS.items()} == {cid: fn for fn, cid in tracer.CHECKERS.items()}


def test_workloads_import_and_reach_existing_attributes(perfbench):
    workloads = perfbench("workloads")
    assert set(workloads.WORKLOADS) == {"sweep", "long_run", "ancient_analysis"}
    # every module.attribute the workloads read, through any module alias
    with open(workloads.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    checked = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            base = vars(workloads).get(node.value.id)
            if isinstance(base, types.ModuleType):
                assert hasattr(base, node.attr), f"{node.value.id}.{node.attr}"
                checked += 1
    assert checked


def _resolve(node, namespace):
    # the object a dotted name (``est.check_decay``, ``semiheat.cli.main``)
    # names in ``namespace``; None for anything else, a local among them
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, namespace), node.attr, None)
    return None


def test_workload_calls_bind_to_their_signatures(perfbench):
    """Every call the workloads make into semiheat, directly
    (``est.EstimateParams(D=D, T=...)``) or through ``op(name, fn, *args)``,
    binds to the called function's signature: placeholder arguments in the
    call's count and keyword names.  A call with a starred argument has no
    count to check and is skipped.  Binding catches a removed or renamed
    parameter and a changed arity; it does not catch a reorder of
    positional parameters of the same arity."""
    workloads = perfbench("workloads")
    namespace = vars(workloads)
    with open(workloads.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bound = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn, args = _resolve(node.func, namespace), node.args
        if isinstance(node.func, ast.Name) and node.func.id == "op" and len(args) >= 2:
            fn, args = _resolve(args[1], namespace), args[2:]
        if not callable(fn) or not (getattr(fn, "__module__", None) or "").startswith("semiheat"):
            continue
        if any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in node.keywords):
            continue
        placeholders = {k.arg: object() for k in node.keywords}
        try:
            inspect.signature(fn).bind(*(object() for _ in args), **placeholders)
        except TypeError as exc:
            pytest.fail(f"perfbench/workloads.py:{node.lineno} {ast.unparse(node)}: {exc}")
        bound += 1
    assert bound >= 20


def test_output_digests_repeat_for_one_seed():
    # tools/output_digests.py runs each workload once (the sweep at jobs 1
    # and 2); a second run prints the same digests and failure counts.  The
    # byte counts are left out: the sweep's moves with its report's timing
    tool = os.path.join(os.path.dirname(PERFBENCH), "tools", "output_digests.py")
    line = re.compile(r"(\w+) jobs=(\d) digest=([0-9a-f]{64}) bytes=\d+ failed=(\d+/\d+)")
    runs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, tool, "--seed", "0"], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append([line.fullmatch(text).groups() for text in proc.stdout.splitlines()])
    assert [run[:2] for run in runs[0]] == [
        ("sweep", "1"),
        ("sweep", "2"),
        ("long_run", "1"),
        ("ancient_analysis", "1"),
    ]
    assert runs[0] == runs[1]
    assert runs[0][0][2:] == runs[0][1][2:]  # the job count changes no output
