"""Forked workers that leave their results in files.

Two callers use them: ``export_trajectory`` starts one per CSV block after
the first, and ``run_experiment`` one per job, which runs every
``jobs``-th sweep entry.  ``Workers`` is the one lifecycle both share.
Entering it creates a private directory ``<prefix><random>`` in a given
directory; ``start(what, work, *args)`` calls ``work(*args)``, which writes
its results into files by path, in a forked child and returns at once.  Where forking is off for the caller,
``os.fork`` is missing or it raises OSError (no process to spare: EAGAIN,
ENOMEM), ``work`` runs in this process before ``start`` returns, and what
it raises propagates as is.  Every start tries to fork again, so a failed
fork costs only the worker it would have made.  ``wait()`` waits for the
earliest started worker not yet waited for, by its pid (never a wait for
any child, which could reap one this process did not start), and raises
OSError naming ``what`` if it exited with a nonzero code.  Leaving the
context, by return or raise, kills and reaps every worker not yet waited
for, whose output is no longer wanted, then removes the directory.
``publish(targets)`` puts staged files of the directory in their places:
it is the one place the package moves a file.

A child leaves through ``os._exit``, without running the parent's cleanup
or flushing its buffers (so nothing the parent buffered is written twice);
``work`` closes the files it opens.  The parent sees only the exit code, so
a failure's traceback goes to stderr.  A sweep worker's ``work`` runs LAPACK
solves, not only formatting: numpy's OpenBLAS (a pthreads build) starts its
thread pool afresh in a forked child, which does not inherit the parent's
threads, so the child never waits on a thread it lacks.
"""

from __future__ import annotations

import errno
import os
import shutil
import signal
import tempfile
import traceback


def cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork: forked
    children can then run beside their parent."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


class Workers:
    """Workers whose files live in a private directory ``dir``, created in
    ``parent`` on entry and removed on exit; ``fork`` false runs every
    worker in this process (see the module docstring)."""

    def __init__(self, parent: str, prefix: str, fork: bool = True):
        self._parent, self._prefix, self._fork = parent, prefix, fork
        self._started = []  # (what, pid or None: ran here) not yet waited for, in start order

    def __enter__(self) -> "Workers":
        self.dir = tempfile.mkdtemp(prefix=self._prefix, dir=self._parent)
        return self

    def start(self, what: str, work, *args):
        pid = None
        if self._fork and hasattr(os, "fork"):
            try:
                pid = os.fork()
            except OSError:
                pass
        if pid == 0:
            status = 1
            try:
                work(*args)
                status = 0
            except BaseException:
                os.write(2, traceback.format_exc().encode())
            finally:
                os._exit(status)
        if pid is None:
            work(*args)
        self._started.append((what, pid))

    def wait(self):
        what, pid = self._started[0]
        status = os.waitpid(pid, 0)[1] if pid else 0
        del self._started[0]  # reaped or never forked: the exit must not kill it
        code = os.waitstatus_to_exitcode(status)
        if code:
            raise OSError(f"{what} {pid} exited with code {code} (its traceback, if any, is on stderr)")

    def publish(self, targets):
        """Move each staged file ``name`` of ``dir`` onto ``path``, for
        (name, path) in ``targets`` (distinct names).  Every staged file and
        path is checked first, so a refusal replaces no earlier file: a
        missing staged file is FileNotFoundError, a directory at a path
        (``shutil.move`` would move into it) IsADirectoryError naming it,
        and a path that names the same file as an earlier one (the later
        move would replace the earlier file) ValueError naming it.  Each
        move is a rename, or a copy where that fails, as across file
        systems; a file keeps its own mode, not that of the one it replaces."""
        targets = [(os.path.join(self.dir, name), path) for name, path in targets]
        destinations = set()
        for staged, path in targets:
            os.stat(staged)
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, "a staged file cannot replace a directory", os.fspath(path))
            destination = os.path.abspath(path)
            if destination in destinations:
                raise ValueError(f"two staged files would be published to {os.fspath(path)}")
            destinations.add(destination)
        for staged, path in targets:
            shutil.move(staged, path)

    def __exit__(self, *exc):
        for _, pid in self._started:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        shutil.rmtree(self.dir)
