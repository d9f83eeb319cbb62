"""Host fingerprint, source digest and proportional-set-size sampling."""

from __future__ import annotations

import hashlib
import os
import platform
import signal
import subprocess
import threading
from pathlib import Path

#: Thread counts the benchmark pins in every process it starts.
BLAS_THREADS = 1
PANEL_THREADS = 1

_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads(env: dict) -> dict:
    """Set the BLAS and panel thread knobs in ``env`` (must precede the
    first numpy import of the process that reads it)."""

    for name in _THREAD_ENV:
        env[name] = str(BLAS_THREADS)
    env["REPRO_PANEL_THREADS"] = str(PANEL_THREADS)
    return env


def source_digest(root: Path) -> str:
    """Digest of the program's and the benchmark's source files."""

    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def fingerprint(root: Path, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "blas_threads": BLAS_THREADS,
        "panel_threads": PANEL_THREADS,
        "commit": _git_commit(root),
        "source_digest": source_digest(root),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Proportional set size
# ----------------------------------------------------------------------


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(k) for k in fh.read().split())
        except OSError:
            continue
    return kids


def descendants(pid: int, exclude=()) -> list[int]:
    """Every live descendant of ``pid``, parents before children, leaving
    out the pids in ``exclude`` and their own descendants."""

    found: list[int] = []
    todo = _children(pid)
    while todo:
        child = todo.pop(0)
        if child in exclude:
            continue
        found.append(child)
        todo.extend(_children(child))
    return found


def adopt_orphans() -> None:
    """Make this process the child subreaper of everything it starts.

    A process whose parent ends first (a resource tracker started by a
    pool worker, say) is then re-parented here instead of to init, so
    :func:`stop_descendants` still finds it.  No-op where prctl is missing.
    """

    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


_PR_SET_CHILD_SUBREAPER = 36


def stop_descendants() -> None:
    """Stop every process this one started and wait for each to end.

    Everything but the multiprocessing resource tracker is killed and
    reaped first; the tracker is then ended by closing its pipe, so it
    unlinks the shared memory the killed pool workers leave behind, and
    is reaped too (by design it would otherwise outlive this process).
    The tracker is not restarted afterwards: call this only on the way
    out of the process.
    """

    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    me = os.getpid()
    # Sweep until nothing is left: a serving thread may still fork a
    # replacement worker while the first sweep runs.
    for _sweep in range(50):
        victims = [pid for pid in descendants(me) if pid != tracker_pid]
        if not victims:
            break
        for pid in victims:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in set(_children(me)) - {tracker_pid}:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
    # Closed without the tracker's lock: this may run in a signal handler
    # that interrupted a thread holding it.
    fd = getattr(tracker, "_fd", None)
    if tracker_pid is not None and fd is not None:
        tracker._fd = tracker._pid = None
        os.close(fd)
        try:
            os.waitpid(tracker_pid, 0)
        except ChildProcessError:
            pass
    # Orphans re-parented here (see adopt_orphans) after the sweep.
    for pid in _children(me):
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


class PssSampler:
    """Peak of the summed PSS of this process and its descendants.

    PSS charges each shared page to its sharers in proportion, so forked
    workers' shared pages count once in the sum.  ``exclude`` holds pids
    (with their descendants) that are not part of the serving side, such
    as the load generator.

    One sample reads every process's ``smaps_rollup``, which walks its
    page tables: ~25 ms of CPU at paper geometry, taken from the serving
    processes' cores.  The peak is the first-call transient of set-up,
    which lasts a few tenths of a second, so samples are ``interval_s``
    apart until :meth:`settle` (called when the timed window starts, where
    the footprint is flat) and ``settled_interval_s`` apart after it.
    """

    def __init__(self, interval_s: float = 0.1,
                 settled_interval_s: float = 1.0) -> None:
        self.interval_s = interval_s
        self.settled_interval_s = settled_interval_s
        self.exclude: set[int] = set()
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-pss")

    def sample(self) -> int:
        me = os.getpid()
        total = sum(_pss_kb(pid)
                    for pid in [me] + descendants(me, self.exclude))
        self.peak_kb = max(self.peak_kb, total)
        return total

    def settle(self) -> None:
        self.interval_s = self.settled_interval_s

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "PssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0
