"""Processes and dynamic process creation (§3.1.1.1).

A PCN parallel composition creates one concurrently-executing process per
statement and waits for all of them to terminate.  :class:`Process` runs
its body on an OS thread that it owns from :meth:`Process.start` until the
body returns, with error propagation; :class:`ProcessGroup` is the join
barrier used by ``par``.

A PCN process is nearly free, an OS thread is not, so threads outlive
processes: a finished process parks its thread in one module-level idle
set and the next ``start`` anywhere takes a parked thread before it
creates one.  A process never shares its thread while it runs — two
processes that block on each other each hold their own — so the set grows
to the largest number of processes that were ever alive at once and
nothing ever waits for a worker.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Optional

_IDLE_NAME = "pcn-idle-worker"

# Parked workers, most recently parked last.  ``append``/``pop`` on a list
# are atomic under the GIL, which is all the synchronisation the set needs.
_idle: list["_Worker"] = []
# Every worker thread ever started (they never exit), for thread_stats().
_workers: list["_Worker"] = []

# Thread-locals whose contents belong to one process body, not to the
# thread (see process_scoped).
_scoped: list[threading.local] = []
_current = threading.local()


def process_scoped(local: threading.local) -> threading.local:
    """Declare ``local`` per-*process* state: whatever a body leaves in it
    is cleared before the same thread runs another process."""
    _scoped.append(local)
    return local


def current_process_id() -> int:
    """The identity of the calling process.

    Unique per :class:`Process` for the life of the interpreter (negative,
    so it can never equal a thread ident); a top-level thread that is not
    running a process body is identified by its thread ident.
    """
    try:
        return _current.pid
    except AttributeError:
        return threading.get_ident()


def thread_stats() -> dict[str, int]:
    """How many OS threads processes have cost so far, and how many of
    them are parked waiting for the next process."""
    return {"threads_started": len(_workers), "idle_workers": len(_idle)}


class _Worker:
    """One OS thread that runs process bodies, one at a time, for ever."""

    __slots__ = ("_wake", "_process", "ident")

    def __init__(self) -> None:
        # A lock used as a binary semaphore: held while the worker is
        # parked, released by Process.start to hand it a process.
        self._wake = threading.Lock()
        self._wake.acquire()
        self._process: Optional[Process] = None
        thread = threading.Thread(
            target=self._loop, name=_IDLE_NAME, daemon=True
        )
        thread.start()
        self.ident = thread.ident
        _workers.append(self)

    def run(self, process: "Process") -> None:
        self._process = process
        self._wake.release()

    def _loop(self) -> None:
        thread = threading.current_thread()
        while True:
            self._wake.acquire()
            process = self._process
            self._process = None
            thread.name = process.name
            _current.pid = process._pid
            try:
                process._run()
            finally:
                del _current.pid
                for local in _scoped:
                    local.__dict__.clear()
                thread.name = _IDLE_NAME
                # Park first, signal second: whoever sees the process
                # finished can count on its thread being reusable.
                _idle.append(self)
                process._alive = False
                process._done.release()
            # A parked worker must not keep its last process (and that
            # process's result) reachable.
            del process


class Process:
    """A concurrently-executing unit of computation.

    Exceptions raised by the body are captured and re-raised by
    :meth:`join`, so failures in a parallel composition surface in the
    composing process rather than being lost on a daemon thread.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        target: Callable[..., Any],
        args: tuple = (),
        kwargs: Optional[dict] = None,
        name: str = "",
        processor: Optional[int] = None,
    ) -> None:
        seq = next(Process._ids)
        self._pid = -seq
        self.name = name or f"pcn-process-{seq}"
        self.processor = processor
        self._target = target
        self._args = args
        self._kwargs = kwargs or {}
        self._error: Optional[BaseException] = None
        self._result: Any = None
        self._ident: Optional[int] = None
        self._alive = False
        # Held from start() until the body has ended and its worker is
        # parked; join() waits by acquiring it.
        self._done = threading.Lock()

    def _run(self) -> None:
        try:
            self._result = self._target(*self._args, **self._kwargs)
        except BaseException as exc:  # noqa: BLE001 - propagated via join()
            self._error = exc

    def start(self) -> "Process":
        if self._ident is not None:
            raise RuntimeError("processes can only be started once")
        try:
            worker = _idle.pop()
        except IndexError:
            worker = _Worker()
        self._done.acquire()
        self._alive = True
        self._ident = worker.ident
        worker.run(self)
        return self

    def join(self, timeout: Optional[float] = None) -> Any:
        if self._ident is None:
            raise RuntimeError("cannot join a process before it is started")
        if not self._done.acquire(
            timeout=-1 if timeout is None else max(timeout, 0.0)
        ):
            raise TimeoutError(f"process {self.name} did not terminate")
        self._done.release()
        if self._error is not None:
            raise self._error
        return self._result

    def is_alive(self) -> bool:
        return self._alive

    @property
    def ident(self) -> Optional[int]:
        """The ident of the thread the body runs on (None before
        :meth:`start`); the thread goes on to run other processes once
        this one has ended."""
        return self._ident

    @property
    def result(self) -> Any:
        return self._result


def spawn(
    target: Callable[..., Any],
    *args: Any,
    name: str = "",
    processor: Optional[int] = None,
    **kwargs: Any,
) -> Process:
    """Create and start a process (PCN dynamic process creation)."""
    return Process(
        target, args=args, kwargs=kwargs, name=name, processor=processor
    ).start()


class ProcessGroup:
    """A set of processes joined together (a parallel composition)."""

    def __init__(self) -> None:
        self._processes: list[Process] = []

    def spawn(self, target: Callable[..., Any], *args: Any, **kwargs: Any) -> Process:
        proc = spawn(target, *args, **kwargs)
        self._processes.append(proc)
        return proc

    def add(self, process: Process) -> None:
        self._processes.append(process)

    def join_all(self, timeout: Optional[float] = None) -> list:
        """Wait for every process; re-raise the first captured error."""
        results = []
        first_error: Optional[BaseException] = None
        for proc in self._processes:
            try:
                results.append(proc.join(timeout=timeout))
            except BaseException as exc:  # noqa: BLE001
                if first_error is None:
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    def __len__(self) -> int:
        return len(self._processes)
