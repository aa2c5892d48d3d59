"""Independent jobs on every usable CPU, in forked workers.

`run(job, costs)` splits the jobs 0 .. len(costs) - 1 into one group per
usable CPU: the affinity mask (os.sched_getaffinity) where the OS keeps
one, else os.cpu_count(), so `taskset -c 0` gives one.  The first group
runs in the calling process and each other group in an os.fork()ed
child, which inherits the compiled modules and whatever the caller has
built, and sends its results back through a pipe by marshal.  Spawned
interpreters would compile every module and rebuild every table again.

A group stops at its first failing job, and a child that dies or cannot
start sends nothing, so what run() returns lacks every failing job but
holds every job before the earliest failure.  The caller runs the
missing jobs itself, in its own order, so that the earliest failure
raises its own exception.  Every child is reaped before run() returns,
and killed first if the calling process raised.  A child leaves by
os._exit, so it never prints or runs the caller's exit code.
"""

import marshal
import os
import sys


def run(job, costs) -> dict:
    """index -> job(index) for the jobs that ran, each job's result sent by marshal.

    {} when there would be one group: one usable CPU, no os.fork, or
    another thread running (a child gets only the calling thread, and a
    lock another thread held stays held in it).
    """
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or threading is not None and threading.active_count() > 1:
        return {}
    count = min(_usable_cpus(), len(costs))
    if count < 2:
        return {}
    groups = _groups(costs, count)
    children, done = [], {}  # (pid, read end of its pipe)
    try:
        for group in groups[1:]:
            child = _fork(job, group)
            if child is not None:  # else the group's jobs are missing
                children.append(child)
        done = _run_group(job, groups[0])
    except BaseException:
        for pid, _ in children:
            os.kill(pid, 9)  # SIGKILL
        raise
    finally:
        for pid, fd in children:
            with open(fd, "rb") as pipe:
                sent = pipe.read()
            if os.waitpid(pid, 0)[1] == 0:  # a child exits 0 only once it has sent everything
                done.update(marshal.loads(sent))
    return done


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _groups(costs, count: int) -> list:
    """Job indices in `count` groups of about equal cost, each costliest first.

    Costliest job first onto the least-loaded group.
    """
    groups = [[0, []] for _ in range(count)]
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        group = min(groups, key=lambda g: g[0])
        group[0] += costs[i]
        group[1].append(i)
    return [sorted(jobs, key=lambda i: (-costs[i], i)) for _, jobs in groups]


def _run_group(job, group) -> dict:
    done = {}
    try:
        for i in group:
            done[i] = job(i)
    except Exception:
        pass  # the failing job and those after it are missing; the caller runs them again
    return done


def _fork(job, group):
    """(pid, read end of its pipe) of a child that runs `group`; None if no child starts."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        os.close(read)
        sent = marshal.dumps(_run_group(job, group))
        with open(write, "wb") as pipe:
            pipe.write(sent)
        code = 0
    finally:
        os._exit(code)
