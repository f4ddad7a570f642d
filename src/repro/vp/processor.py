"""Virtual processors (Preface "Terminology and conventions").

A virtual processor is a persistent entity with a distinct address space.
Here the address space is a private ``heap`` dict plus whatever storage the
array manager allocates on the node; separation is enforced by the API (no
processor object hands out another processor's heap) and checked by tests.

Processes are mapped to processors by spawning them *on* a processor; this
models the thesis' assignment of processes to virtual processors while the
underlying OS threads share one real address space.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.pcn.process import Process
from repro.vp import fabric
from repro.vp.mailbox import Mailbox


class VirtualProcessor:
    """One node of the simulated machine."""

    def __init__(self, number: int, machine: "Machine") -> None:  # noqa: F821
        self.number = number
        self.machine = machine
        self.mailbox = Mailbox(
            owner=number,
            default_timeout=getattr(machine, "default_recv_timeout", None),
        )
        # The node's private address space.  Only code executing "on" this
        # processor may touch it; cross-node access must use messages or
        # server requests.
        self.heap: dict[str, Any] = {}
        self._heap_lock = threading.RLock()
        self._processes: list[Process] = []
        self._processes_lock = threading.Lock()

    # -- process placement --------------------------------------------------

    def spawn(
        self, target: Callable[..., Any], *args: Any, name: str = "", **kwargs: Any
    ) -> Process:
        """Create and start a process assigned to this processor.

        Placement on a dead processor fails immediately: a crashed node
        cannot host new processes (§4.1.2 failure-as-value discipline).
        """
        if self.machine is not None and self.machine.is_failed(self.number):
            from repro.status import ProcessorFailedError

            raise ProcessorFailedError(
                f"cannot spawn on failed processor {self.number}",
                processor=self.number,
            )
        # The child runs under this processor's fabric context, inheriting
        # the spawner's trace envelope (and open observability span) so
        # causally-related messages share a trace id across process
        # boundaries and child spans parent onto the spawner's.
        _, trace_id, hop, span_id = fabric.snapshot_context()

        def placed(*a: Any, **kw: Any) -> Any:
            with fabric.execution_context(
                processor=self.number, trace_id=trace_id, hop=hop,
                span_id=span_id,
            ):
                return target(*a, **kw)

        proc = Process(
            placed,
            args=args,
            kwargs=kwargs,
            name=name or f"vp{self.number}-proc",
            processor=self.number,
        ).start()
        with self._processes_lock:
            self._processes = [p for p in self._processes if p.is_alive()]
            self._processes.append(proc)
        return proc

    def run(self, target: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``target`` on this processor and wait for its result."""
        return self.spawn(target, *args, **kwargs).join()

    def live_process_count(self) -> int:
        with self._processes_lock:
            self._processes = [p for p in self._processes if p.is_alive()]
            return len(self._processes)

    # -- address space ------------------------------------------------------

    def store(self, key: str, value: Any) -> None:
        with self._heap_lock:
            self.heap[key] = value

    def load(self, key: str) -> Any:
        with self._heap_lock:
            return self.heap[key]

    def load_default(self, key: str, default: Any = None) -> Any:
        # One dict.get is atomic, and only the writers, which hold the
        # lock, change the heap: no lock to read one key.
        return self.heap.get(key, default)

    def load_or_store(self, key: str, value: Any) -> Any:
        """The value stored under ``key``, or ``value`` stored there now
        and returned: the read and the store are one step, so two callers
        racing on an absent key get the same value."""
        with self._heap_lock:
            return self.heap.setdefault(key, value)

    def delete(self, key: str) -> None:
        with self._heap_lock:
            self.heap.pop(key, None)

    def has(self, key: str) -> bool:
        with self._heap_lock:
            return key in self.heap

    def __repr__(self) -> str:
        return f"<VirtualProcessor {self.number}>"
