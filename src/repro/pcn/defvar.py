"""Definitional (single-assignment) and mutable variables (§3.1.1.2-§3.1.1.4).

PCN's synchronisation model rests on *definition variables*: a variable that
starts in a special "undefined" state, can be assigned (*defined*) at most
once, and suspends any process that needs its value until the definition
happens.  Conflicting access to shared *mutable* variables is prevented by
the PCN restriction that concurrent sharers must not write (§3.1.1.4); the
:class:`Mutable` here enforces that restriction dynamically.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterator, Optional

from repro.pcn.process import current_process_id
from repro.status import SharedVariableConflictError, SingleAssignmentError

_UNDEFINED = object()

# Default number of seconds a reader waits before declaring deadlock.  PCN
# programs that suspend forever are erroneous; an explicit timeout converts a
# hang into a diagnosable failure, which matters for a test suite.
DEFAULT_TIMEOUT: float = 30.0

# One lock for the slow paths of every variable: a definition, an
# ``on_define`` registration and a reader about to suspend all hold it, so
# a reader either sees the value or is on the wake list before the definer
# takes that list — no wake-up can be missed.  The sections are a few
# bytecodes long, and a variable that nobody ever suspends on (most of
# them) allocates no synchronisation object of its own.  The lock also
# guards the registry below.
_lock = threading.Lock()

# Registry of threads currently suspended inside DefVar.read, keyed by
# thread ident.  The deadlock watchdog (repro.faults.watchdog) reads this
# to build the wait-graph; registration is scoped strictly to the blocking
# wait so entries never outlive the suspension.
_blocked_reads: dict[int, str] = {}

def blocked_reads() -> dict[int, str]:
    """Snapshot: thread ident -> name of the DefVar it is suspended on."""
    with _lock:
        return dict(_blocked_reads)


class DefVar:
    """A single-assignment variable.

    ``define(value)`` assigns the value exactly once; a second ``define``
    raises :class:`SingleAssignmentError`.  ``read()`` returns the value,
    suspending the calling thread until the variable is defined.  ``data()``
    is a non-blocking probe (PCN's ``data`` guard).

    ``_value`` moves from undefined to its value once and never again, so
    whoever sees a value sees the final one: ``data``, ``peek`` and the
    ``read`` of a defined variable take no lock.
    """

    __slots__ = ("_value", "_sleepers", "_callbacks", "name")

    def __init__(self, name: str = "") -> None:
        self._value: Any = _UNDEFINED
        # Wait state, built by the first reader that suspends / the first
        # callback registered before the definition: one locked lock per
        # suspended reader, released by define().
        self._sleepers: Optional[list] = None
        self._callbacks: Optional[list[Callable[[Any], None]]] = None
        self.name = name

    def define(self, value: Any) -> None:
        """Assign ``value``; legal at most once (§3.1.1.2)."""
        if isinstance(value, DefVar):
            # Defining one definitional variable to be another aliases them:
            # propagate the value when the source becomes defined.
            value.on_define(self.define)
            return
        with _lock:
            if self._value is not _UNDEFINED:
                raise SingleAssignmentError(
                    f"definition variable {self.name or id(self)} defined twice"
                )
            self._value = value
            sleepers, self._sleepers = self._sleepers, None
            callbacks, self._callbacks = self._callbacks, None
        if sleepers is not None:
            for wake in sleepers:
                wake.release()
        if callbacks is not None:
            for callback in callbacks:
                callback(value)

    def read(self, timeout: Optional[float] = None) -> Any:
        """Return the value, suspending until the variable is defined."""
        value = self._value
        if value is not _UNDEFINED:
            return value
        limit = DEFAULT_TIMEOUT if timeout is None else timeout
        wake = threading.Lock()
        wake.acquire()
        ident = threading.get_ident()
        label = self.name or f"0x{id(self):x}"
        with _lock:
            if self._value is not _UNDEFINED:
                return self._value
            if self._sleepers is None:
                self._sleepers = []
            self._sleepers.append(wake)
            _blocked_reads[ident] = label
        try:
            wake.acquire(timeout=max(limit, 0.0))
        finally:
            with _lock:
                _blocked_reads.pop(ident, None)
                if self._value is _UNDEFINED:
                    self._sleepers.remove(wake)
        value = self._value
        if value is _UNDEFINED:
            raise TimeoutError(
                f"read of undefined variable {self.name or id(self)} "
                f"timed out after {limit}s (suspended process)"
            )
        return value

    def data(self) -> bool:
        """Non-blocking: is the variable defined?  (PCN ``data`` guard.)"""
        return self._value is not _UNDEFINED

    def peek(self) -> Any:
        """Return the value without blocking; raises if undefined."""
        value = self._value
        if value is _UNDEFINED:
            raise ValueError("variable is undefined")
        return value

    def on_define(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` once the variable is defined.

        If already defined the callback runs immediately on the caller's
        thread; otherwise it runs on the defining thread.
        """
        if self._value is _UNDEFINED:
            with _lock:
                if self._value is _UNDEFINED:
                    if self._callbacks is None:
                        self._callbacks = []
                    self._callbacks.append(callback)
                    return
        callback(self._value)

    def __repr__(self) -> str:
        value = self._value
        state = "undefined" if value is _UNDEFINED else f"= {value!r}"
        label = self.name or f"0x{id(self):x}"
        return f"<DefVar {label} {state}>"


class Tally(DefVar):
    """A definitional variable answered in ``parts``.

    One variable stands for the answers of a whole fan-out (§5.1.1's
    answer-by-definition idiom, one request to many servers): each answerer
    calls ``define(value)`` exactly as it would on a variable of its own,
    and the tally becomes defined — once, for every reader — with
    ``fold`` of ``initial`` and all the answers when the last one arrives.
    ``forget()`` gives up on a part that will never answer (its server is
    dead).  With no part left, one more ``define`` or ``forget`` raises
    :class:`SingleAssignmentError`; a tally of no parts is defined at birth.

    The count and the fold are kept under the module lock; the definition
    itself is :meth:`DefVar.define`, by whoever took the last part.
    """

    __slots__ = ("_parts", "_fold", "_folded")

    def __init__(
        self,
        parts: int,
        fold: Callable[[Any, Any], Any],
        initial: Any,
        name: str = "",
    ) -> None:
        super().__init__(name)
        self._parts = parts
        self._fold = fold
        self._folded = initial
        if parts == 0:
            super().define(initial)

    def define(self, value: Any) -> None:
        """Answer one part with ``value``."""
        if isinstance(value, DefVar):
            value.on_define(self.define)
            return
        with _lock:
            left = self._parts - 1
            if left < 0:
                raise SingleAssignmentError(
                    f"tally {self.name or id(self)} answered more often "
                    f"than it has parts"
                )
            self._parts = left
            folded = self._folded
            if value is not _UNDEFINED:
                self._folded = folded = self._fold(folded, value)
        if not left:
            super().define(folded)

    def forget(self) -> None:
        """Give up on one part: it counts as arrived, with no answer."""
        self.define(_UNDEFINED)


def is_defvar(obj: Any) -> bool:
    """True when ``obj`` is a definitional variable."""
    return isinstance(obj, DefVar)


def data(obj: Any) -> bool:
    """PCN's ``data`` guard: defined variables and plain values are data."""
    if isinstance(obj, DefVar):
        return obj.data()
    return True


def resolve(obj: Any, timeout: Optional[float] = None) -> Any:
    """Dereference ``obj`` if it is a definitional variable, else return it."""
    if isinstance(obj, DefVar):
        return obj.read(timeout=timeout)
    return obj


class Mutable:
    """A multiple-assignment variable with PCN's sharing restriction.

    The paper prevents conflicting access by requiring that when two
    concurrently-executing processes share a mutable, *neither* writes to it
    (§3.1.1.4).  We enforce a dynamic approximation: a mutable records the
    process that owns write access (:func:`current_process_id` — a thread
    ident would be inherited by the next process to run on that thread); a
    write from a different process raises
    :class:`SharedVariableConflictError` unless ownership has been
    explicitly transferred with :meth:`transfer`.
    """

    __slots__ = ("_value", "_owner", "_lock", "name")

    def __init__(self, value: Any = None, name: str = "") -> None:
        self._value = value
        self._owner: Optional[int] = current_process_id()
        self._lock = threading.Lock()
        self.name = name

    def get(self) -> Any:
        with self._lock:
            return self._value

    def set(self, value: Any) -> None:
        me = current_process_id()
        with self._lock:
            if self._owner is not None and self._owner != me:
                raise SharedVariableConflictError(
                    f"mutable {self.name or id(self)} written by process {me} "
                    f"while owned by process {self._owner} (§3.1.1.4)"
                )
            self._value = value

    def transfer(self, process_id: Optional[int] = None) -> None:
        """Hand write-ownership to the process identified by
        ``process_id`` (None = whichever process adopts it next)."""
        with self._lock:
            self._owner = process_id

    def adopt(self) -> None:
        """Claim write-ownership for the calling process."""
        me = current_process_id()
        with self._lock:
            if self._owner is None:
                self._owner = me
            elif self._owner != me:
                raise SharedVariableConflictError(
                    f"mutable {self.name or id(self)} already owned"
                )

    def __repr__(self) -> str:
        return f"<Mutable {self.name or hex(id(self))} = {self._value!r}>"


def wait_all(variables: Iterator[DefVar], timeout: Optional[float] = None) -> list:
    """Read every variable, suspending until all are defined."""
    return [v.read(timeout=timeout) for v in variables]
