"""The second CPU: every fork, pipe, pickle and reap of the package.

forked starts a child that sends pickled messages up one pipe to this
process, which never writes to it, and reaps it on every way out. sim.run
runs its reference chain in such a child and reads each block as it comes;
alternate_blocks splits numbered blocks between the two processes
(traceio's CSV writer and reader).
"""
import os
import pickle
import signal
import threading
from contextlib import contextmanager, nullcontext
from functools import partial
from typing import Optional


def fork_cpus() -> int:
    """The CPUs that processes forked from this one may use: as many as
    this process may run on, or 1 where there is no os.fork or where another
    thread runs (a fork copies only the calling thread, so a lock held by
    another one would stay locked in the child)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def portable(exc: BaseException) -> BaseException:
    """``exc``, or where it does not survive pickling, a RuntimeError that
    carries its text."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _send(fd: int, message) -> bool:
    """Write ``message``, pickled, to ``fd``; False if the reader has gone."""
    view = memoryview(pickle.dumps(message))
    try:
        while view:
            view = view[os.write(fd, view):]
    except BrokenPipeError:
        return False
    return True


class _Child:
    """This process's side of a child forked by forked: ``results`` reads
    what the child sends; ``status`` is its wait status once it has been
    reaped."""

    def __init__(self, pid: int, results):
        self.pid, self.results = pid, results
        self.status: Optional[int] = None

    def wait(self) -> int:
        self.status = os.waitpid(self.pid, 0)[1]
        return self.status

    def load(self):
        """The child's next pickled message. A child that ended without a
        whole one raises RuntimeError with its wait status."""
        try:
            return pickle.load(self.results)
        except (EOFError, pickle.UnpicklingError):  # no message, or one cut short
            raise RuntimeError(f"a forked process ended without a result "
                               f"(wait status {self.wait()})") from None


@contextmanager
def forked(body):
    """Fork a child that runs ``body(send)`` and leaves only through
    os._exit, with status 0 if body returns and 1 if it raises: it never
    returns into the caller's code, nor flushes a file buffer it inherited.
    ``send(message)`` pickles message up a pipe to this process, which holds
    the child back when it is full, and returns False once this process has
    stopped reading. Yields a _Child over this process's end, or None where
    fork_cpus() finds no second CPU or no pipe or process could be made. On
    the way out that end is closed, and a child not yet reaped is killed
    and reaped."""
    fds: tuple = ()
    pid = None
    if fork_cpus() > 1:
        try:
            fds = os.pipe()
            pid = os.fork()
        except OSError:  # no pipe or no process
            for fd in fds:
                os.close(fd)
    if pid is None:
        yield None
        return
    results_r, results_w = fds
    if pid == 0:
        status = 1
        try:
            os.close(results_r)
            body(partial(_send, results_w))
            status = 0
        finally:
            os._exit(status)
    os.close(results_w)
    child = _Child(pid, open(results_r, "rb"))
    try:
        yield child
    finally:
        child.results.close()
        if child.status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def alternate_blocks(count: int, work, hand) -> None:
    """Call ``hand(i, work(i))`` for each block i in range(count), in order.
    Where count > 1 and fork_cpus() finds a second CPU, a forked child runs
    work on the odd blocks and sends each result up, while this process
    runs the even ones; otherwise, or where no child can be started, this
    process runs them all. What work(i) raises is raised when block i is
    reached, from either process (an exception that does not pickle as a
    RuntimeError that carries its text), so the first failing block wins
    either way; what hand raises propagates. The child is reaped on every
    way out, killed first if this process leaves early."""
    def odd_blocks(send) -> None:
        for i in range(1, count, 2):
            try:
                message = work(i), None
            except Exception as exc:
                message = None, portable(exc)
            if not send(message) or message[1] is not None:
                return

    with (forked(odd_blocks) if count > 1 else nullcontext()) as child:
        for i in range(count):
            if child is None or i % 2 == 0:
                hand(i, work(i))
                continue
            result, exc = child.load()
            if exc is not None:
                raise exc
            hand(i, result)
        if child is not None:
            child.wait()
