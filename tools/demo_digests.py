"""Print the output digest of each demo.

    python3 tools/demo_digests.py

Runs each ``demos/*.py`` beside this script's parent directory once, in a
fresh temporary directory that is also its working directory, with that
checkout's ``src/`` first on PYTHONPATH, and passes ``--out-dir out`` to
each demo that takes one.  Prints one line per demo: its name, its exit
code, and the first 16 hex digits of a sha256 over its stdout and then
every file it wrote, in the order of their paths (each path enters the
digest with the sha256 of the file's bytes).  A sweep report
(``report_*.json``) enters without its ``timing`` block, the one part of
the demos' output that moves from run to run.  Two checkouts whose demos
behave the same print the same lines.  Stdlib only.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _file_bytes(path: pathlib.Path) -> bytes:
    data = path.read_bytes()
    if path.name.startswith("report_") and path.suffix == ".json":
        report = json.loads(data)
        report.pop("timing", None)
        data = json.dumps(report, sort_keys=True).encode()
    return data


def demo_digest(demo: pathlib.Path) -> tuple[int, str]:
    """(exit code, digest) of one run of ``demo``."""
    args = [sys.executable, str(demo)]
    if '"--out-dir"' in demo.read_text(encoding="utf-8"):
        args += ["--out-dir", "out"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run(args, cwd=work, env=env, stdout=subprocess.PIPE)
        h = hashlib.sha256(done.stdout)
        for path in sorted(p for p in pathlib.Path(work).rglob("*") if p.is_file()):
            h.update(path.relative_to(work).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(_file_bytes(path)).digest())
    return done.returncode, h.hexdigest()[:16]


def main() -> int:
    for demo in sorted((ROOT / "demos").glob("*.py")):
        code, digest = demo_digest(demo)
        print(f"{demo.stem} exit={code} digest={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
