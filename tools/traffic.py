"""Print which statements of the semiheat package the benchmark and demos reach.

    python3 tools/traffic.py

Runs, in this process and under one ``sys.settrace`` that line-traces only
frames of ``src/semiheat`` beside this script's parent directory:

- each workload of ``perfbench/workloads.py`` once at seed 0, with the
  sweep at jobs 1 so its entries run in this process;
- each ``demos/*.py`` as ``__main__``, in a fresh temporary working
  directory, with ``--out-dir out`` where the demo takes one.

The package is imported after the trace starts, so its module-level
statements count too.  Every output goes to temporary directories and
nothing is written into the checkout (no bytecode either).  Code that runs
only in forked children is never seen: the trace lives in this process, so
for example ``evolve._write_csv_part``, which ``export_trajectory`` runs in
a forked worker per CSV block after the first, reads as unreached.

Prints one line per run (a workload's failed operations, a demo's exit
code), then per module the statements reached out of the total, then each
unreached statement that is not a ``raise``, with its line number.  A
compound statement (``if``, ``try``, ``def``, ...) counts as reached when a
line of its header or any statement inside it ran; docstrings and
``global``/``nonlocal`` declarations are not statements here.  Stdlib only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import runpy
import sys
import tempfile
import threading

sys.dont_write_bytecode = True

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semiheat"
_PREFIX = str(PACKAGE) + os.sep
_NOT_RUN = (ast.Global, ast.Nonlocal)


def package_tracer(hits: dict[str, set[int]]):
    """A trace function that adds each line run in a package frame to
    ``hits[file name]``; other frames are not line-traced."""

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def new_frame(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(_PREFIX) else None

    return new_frame


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(tree: ast.Module, lines: set[int]) -> list[tuple[ast.stmt, bool]]:
    """(statement, reached) for every statement of ``tree``, outermost
    first, given the line numbers that ran."""
    out = []

    def visit(node: ast.AST) -> bool:
        reached = False
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                if _is_docstring(child, node) or isinstance(child, _NOT_RUN):
                    continue
                slot = len(out)
                out.append(None)
                # a compound statement's own lines end where its first
                # nested statement starts; decorators are its lines too
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])])
                nested = [n.lineno for n in ast.walk(child) if isinstance(n, ast.stmt) and n is not child]
                own = range(first, min(nested) if nested else child.end_lineno + 1)
                ran = visit(child) | any(k in lines for k in own)
                out[slot] = (child, ran)
                reached |= ran
            else:
                reached |= visit(child)  # an except handler or a match case holds statements
        return reached

    visit(tree)
    return out


def run_workloads() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as work, tempfile.TemporaryDirectory() as out:
            inputs = workload.inputs(0, work)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rep = workload.run(inputs, out, 1)
        print(f"workload {name}: {len(rep.failures)} of {rep.attempted} operations failed")


def run_demos() -> None:
    home, argv = os.getcwd(), sys.argv
    for demo in sorted((ROOT / "demos").glob("*.py")):
        args = [str(demo)]
        if '"--out-dir"' in demo.read_text(encoding="utf-8"):
            args += ["--out-dir", "out"]
        code = 0
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            sys.argv = args
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    runpy.run_path(str(demo), run_name="__main__")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            finally:
                os.chdir(home)
                sys.argv = argv
        print(f"demo {demo.stem}: exit {code}")


def main() -> int:
    hits = {}
    tracer = package_tracer(hits)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run_workloads()
        run_demos()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unreached = []
    total_ran = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        found = statements(ast.parse(source), hits.get(str(path), set()))
        ran = sum(reached for _, reached in found)
        total_ran, total = total_ran + ran, total + len(found)
        print(f"{path.name:16s} {ran:5d} / {len(found):5d} statements reached")
        text = source.splitlines()
        unreached += [
            f"{path.name}:{node.lineno}  {text[node.lineno - 1].strip()}"
            for node, reached in found
            if not reached and not isinstance(node, ast.Raise)
        ]
    print(f"{'total':16s} {total_ran:5d} / {total:5d} statements reached")
    print(f"unreached statements other than raise: {len(unreached)}")
    for line in unreached:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
