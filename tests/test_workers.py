"""Where worker processes and their private directories are handled, and
where files are moved out of those directories: in _workers alone, which
export_trajectory and run_experiment both use."""

import ast
import os
import pathlib
import time

import pytest

import semiheat
from semiheat._workers import Workers

SOURCES = sorted(pathlib.Path(semiheat.__file__).parent.glob("*.py"))

# what starts, waits for or stops a process, makes or removes a private
# directory, or moves a staged file out of it (Workers.publish)
LIFECYCLE = {"os.fork", "os.waitpid", "os.kill", "os._exit", "tempfile.mkdtemp", "shutil.rmtree", "shutil.move"}
# other ways to put a file in place, which would bypass publish's checks
BYPASSES = {"os.replace", "os.rename", "shutil.copyfile"}


def module_trees():
    for path in SOURCES:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def modules_using(names):
    """For each dotted name in ``names``, the modules that use it as an
    attribute of a module name or import it."""
    users = {name: set() for name in names}
    for module, tree in module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used = [f"{node.value.id}.{node.attr}"]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                used = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names.intersection(used):
                users[name].add(module)
    return users


def test_only_workers_forks_waits_kills_or_makes_private_directories():
    assert modules_using(LIFECYCLE) == {name: {"_workers.py"} for name in LIFECYCLE}


def test_no_module_replaces_renames_or_copies_a_file_onto_a_path():
    assert modules_using(BYPASSES) == {name: set() for name in BYPASSES}


def test_no_module_imports_a_private_name_of_evolve():
    for module, tree in module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module, node.level) in (("evolve", 1), ("semiheat.evolve", 0)):
                assert not [alias.name for alias in node.names if alias.name.startswith("_")], module


def test_a_wait_that_raises_before_the_reap_leaves_the_worker_to_the_exit(tmp_path, monkeypatch):
    # an exception out of waitpid (as from a signal handler) leaves the
    # worker not yet waited for, so leaving the context kills and reaps it
    # (the autouse fixture checks) and removes the private directory
    waitpid, calls = os.waitpid, []

    def raises_once(pid, options):
        calls.append(pid)
        if len(calls) == 1:
            raise RuntimeError("interrupted")
        return waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", raises_once)
    with pytest.raises(RuntimeError, match="^interrupted$"):
        with Workers(str(tmp_path), ".w.") as workers:
            workers.start("sleeper", time.sleep, 60)
            workers.wait()
    assert len(calls) == 2 and calls[0] == calls[1]
    assert os.listdir(tmp_path) == []
