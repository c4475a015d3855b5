"""The benchmark in perfbench/ reaches into semiheat by name: its tracer
replaces module attributes with wrappers, and its workloads call public
functions through module aliases.  A rename or deletion in src/ that breaks
either would otherwise show up only when the benchmark runs.  These tests
import and read perfbench/; they change nothing there."""

import ast
import importlib
import os
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
