"""Stop, and wait for, every process a benchmark interpreter started.

``repro``'s process runtime forks pool workers and, through
``multiprocessing``, starts a resource-tracker process that is built to
outlive its parent: it ends only once it reads end-of-file on a pipe,
after its parent has gone.  A run must not leave such a process behind,
so each benchmark interpreter (``run.py`` and its ``child.py`` children)

* makes itself a child subreaper (Linux ``prctl``), so a process whose
  own parent ends first is re-parented to it rather than to init;
* calls :func:`stop_children` as its last exit hook: the tracker's pipe
  is closed, the remaining children get SIGTERM, then SIGKILL after a
  grace period, and each is waited for;
* starts each child in a session of its own and, once the child has
  ended, kills and waits for whatever is left of that session's process
  group (:func:`stop_group`).
"""

from __future__ import annotations

import atexit
import ctypes
import os
import signal
import sys
import time

PR_SET_CHILD_SUBREAPER = 36
#: Seconds children get to end after SIGTERM before SIGKILL.
GRACE_S = 5.0
#: Seconds to wait after SIGKILL before giving up on a process.
KILL_WAIT_S = 10.0
POLL_S = 0.01


def install() -> None:
    """Become a child subreaper and stop every child at exit.

    Call it before anything registers an exit hook that may start or use
    a process (``multiprocessing``, ``repro``): exit hooks run last-in
    first-out, so this one runs after theirs.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, stop_group still waits for them
    atexit.register(stop_children)


def process_table() -> list[tuple[int, int, int]]:
    """``(pid, ppid, pgid)`` of every process in ``/proc``."""
    out = []
    try:
        names = os.listdir("/proc")
    except OSError:
        return out
    for name in names:
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()  # the name may hold ") "
        out.append((int(name), int(fields[1]), int(fields[2])))
    return out


def _reap(pids) -> list[int]:
    """Wait without blocking for each pid; return the ones still running.
    A pid that is not this process's child counts as running while it is
    in ``/proc`` (the caller polls the table again)."""
    alive = []
    for pid in pids:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            alive.append(pid)
            continue
        if done == 0:
            alive.append(pid)
    return alive


def _signal(pids, sig) -> None:
    for pid in pids:
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            pass


def _close_tracker_pipe() -> None:
    """Close this process's end of the resource tracker's pipe, so the
    tracker (which ignores SIGTERM) ends once no other process holds it."""
    rt = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(rt, "_resource_tracker", None)
    fd = getattr(tracker, "_fd", None)
    if fd is None:
        return
    try:
        os.close(fd)
    except OSError:
        pass
    tracker._fd = tracker._pid = None  # a later use starts a new tracker


def _wait_until_gone(select, terminate: bool) -> list[int]:
    """Poll the processes ``select(pid, ppid, pgid)`` picks until none is
    left: SIGTERM first when ``terminate``, SIGKILL after the grace
    period (at once otherwise).  Returns the pids that outlived every
    deadline."""
    t0 = time.monotonic()
    kill_at = t0 + (GRACE_S if terminate else 0.0)
    give_up = kill_at + KILL_WAIT_S
    termed = not terminate
    while True:
        pids = [pid for pid, ppid, pgid in process_table() if select(pid, ppid, pgid)]
        alive = _reap(pids)
        # A reaped child leaves /proc at once; a zombie of another parent
        # has ended, so it does not count.
        alive = [pid for pid in alive if not _is_zombie(pid)]
        if not alive:
            return []
        now = time.monotonic()
        if now >= give_up:
            return alive
        if not termed:
            _signal(alive, signal.SIGTERM)
            termed = True
        elif now >= kill_at:
            _signal(alive, signal.SIGKILL)
        time.sleep(POLL_S)


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return True  # gone
    return stat[stat.rfind(")") + 2:].startswith("Z")


def stop_children() -> None:
    """Stop every child of this process (re-parented orphans included)
    and wait for each to end."""
    me = os.getpid()
    _close_tracker_pipe()
    left = _wait_until_gone(lambda pid, ppid, pgid: ppid == me, terminate=True)
    if left:
        print(f"fmmbench: processes {left} did not end", file=sys.stderr)


def stop_group(pgid: int) -> None:
    """Kill what is left of the process group ``pgid`` (a finished
    child's session) and wait for each member to end."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    left = _wait_until_gone(lambda pid, ppid, pgid_: pgid_ == pgid,
                            terminate=False)
    if left:
        print(f"fmmbench: processes {left} of group {pgid} did not end",
              file=sys.stderr)
