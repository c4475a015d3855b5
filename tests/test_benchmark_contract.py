"""The benchmark in perfbench/ reaches into semiheat by name: its tracer
replaces module attributes with wrappers, and its workloads call public
functions through module aliases.  A rename or deletion in src/ that breaks
either would otherwise show up only when the benchmark runs.  These tests
import and read perfbench/; they change nothing there."""

import ast
import importlib
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
