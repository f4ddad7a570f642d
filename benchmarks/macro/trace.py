"""Outside-in span tracing for the macro benchmark.

The tracer wraps the public callables of each layer *from this file* for
the duration of one traced child process: nothing under ``src/`` knows it
exists.  A span is ``(id, parent, name, start_ns, end_ns, op, thread)``;
spans stay in memory and are analysed (and optionally written as JSON
lines) when the child ends.

Three things need more than a plain wrapper:

* a process runs on its own thread, so ``Process.__init__`` is wrapped to
  hand the spawner's current span to the child thread as its root parent;
* the generated wrapper, the called SPMD program, the combine program,
  pipeline stage bodies and the coupled-simulation exchange hook are
  closures or instance attributes, so the *factories* that receive them
  (``build_wrapper``, ``make_combine_program``, ``Stage.__init__``,
  ``CoupledSimulation.__init__``) are wrapped and trace what passes
  through;
* final delivery is not a public callable, but everything an interceptor
  does after ``forward(message)`` *is* delivery, so the tracer's own
  interceptor records a ``vp.deliver:<kind>`` span there — which is what
  lets ``vp.route`` self time exclude the handler that a routed
  ``server_request`` executes synchronously in the sender's thread.

Module-level functions are replaced in every ``repro.*`` module that holds
a reference to them, not only in the defining module: callers that did
``from repro.calls.api import distributed_call`` hold the function by
value, and patching only ``repro.calls.api`` would silently record
nothing for them.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.pcn.defvar import DefVar

# (span name, "module:qualified name").  Class attributes are patched on
# the class; module functions in every repro module that references them.
TARGETS: List[Tuple[str, str]] = [
    ("pcn.process_start", "repro.pcn.process:Process.start"),
    ("vp.route", "repro.vp.machine:Machine.route"),
    ("vp.recv", "repro.vp.mailbox:Mailbox.recv"),
    ("vp.server_request", "repro.vp.server:ServerRegistry.request"),
    ("arrays.create_array", "repro.arrays.am_user:create_array"),
    ("arrays.free_array", "repro.arrays.am_user:free_array"),
    ("arrays.read_element", "repro.arrays.am_user:read_element"),
    ("arrays.write_element", "repro.arrays.am_user:write_element"),
    ("arrays.read_region", "repro.arrays.am_user:read_region"),
    ("arrays.write_region", "repro.arrays.am_user:write_region"),
    ("arrays.find_local", "repro.arrays.am_user:find_local"),
    ("perf.flush", "repro.perf.coalescer:WriteCoalescer.flush"),
    ("perf.halo_prefetch", "repro.perf.commplan:HaloExchange.prefetch"),
    ("perf.halo_complete", "repro.perf.commplan:HaloExchange.complete"),
    ("perf.halo_plan", "repro.perf.commplan:PlanRegistry.halo_plan"),
    ("calls.distributed_call", "repro.calls.api:distributed_call"),
    ("calls.do_all", "repro.calls.do_all:do_all"),
    ("spmd.coll.barrier", "repro.spmd.collectives:barrier"),
    ("spmd.coll.bcast", "repro.spmd.collectives:bcast"),
    ("spmd.coll.reduce", "repro.spmd.collectives:reduce"),
    ("spmd.coll.allreduce", "repro.spmd.collectives:allreduce"),
    ("spmd.coll.gather", "repro.spmd.collectives:gather"),
    ("spmd.coll.scatter", "repro.spmd.collectives:scatter"),
    ("spmd.coll.allgather", "repro.spmd.collectives:allgather"),
    ("spmd.coll.alltoall", "repro.spmd.collectives:alltoall"),
    ("spmd.coll.scan", "repro.spmd.collectives:scan"),
    ("core.to_numpy", "repro.core.darray:DistributedArray.to_numpy"),
    ("core.from_numpy", "repro.core.darray:DistributedArray.from_numpy"),
]

# The workload on which each span name must appear at least once; the
# self-test asserts it, which catches a wrapper installed on a name nobody
# calls through.  Collectives no workload uses are wrapped but not listed.
EXERCISED_BY: Dict[str, str] = {
    "pcn.process_start": "ex61_calls",
    "pcn.defvar_read": "ex62_pipeline",
    "vp.route": "ex61_calls",
    "vp.recv": "ex61_calls",
    "vp.server_request": "array_reads",
    "vp.deliver:user": "ex61_calls",
    "vp.deliver:server_request": "array_reads",
    "vp.deliver:array_batch": "array_writes",
    "vp.deliver:replica_update": "array_writes",
    "vp.deliver:halo_bulk": "climate_halo",
    "arrays.create_array": "ex61_calls",
    "arrays.free_array": "ex61_calls",
    "arrays.read_element": "array_reads",
    "arrays.write_element": "array_writes",
    "arrays.read_region": "array_reads",
    "arrays.write_region": "array_writes",
    "arrays.find_local": "ex61_calls",
    "perf.flush": "array_writes",
    "perf.halo_prefetch": "climate_halo",
    "perf.halo_complete": "climate_halo",
    "perf.halo_plan": "climate_halo",
    "calls.distributed_call": "ex61_calls",
    "calls.do_all": "ex61_calls",
    "calls.wrapper": "ex61_calls",
    "calls.combine": "ex61_calls",
    "spmd.program:test_iprdv": "ex61_calls",
    "spmd.program:fft_reverse": "ex62_pipeline",
    "spmd.program:fft_natural": "ex62_pipeline",
    "spmd.program:heat_steps": "climate_halo",
    "spmd.program:mat_mat": "matmul_kernel",
    "spmd.coll.reduce": "ex61_calls",
    "spmd.coll.bcast": "ex61_calls",
    "spmd.coll.allreduce": "ex61_calls",
    "spmd.coll.allgather": "matmul_kernel",
    "core.stage:phase1-inverse-fft": "ex62_pipeline",
    "core.stage:combine": "ex62_pipeline",
    "core.stage:phase2-forward-fft": "ex62_pipeline",
    "core.exchange": "climate_halo",
    "core.to_numpy": "climate_halo",
    "core.from_numpy": "ex62_pipeline",
}

_MARK = "_macro_span_name"

Span = Tuple[int, int, str, int, int, Optional[int], int]


_FIELDS: Dict[type, Tuple[str, ...]] = {}


def deep_nbytes(obj: Any, depth: int = 6) -> int:
    """Computed payload volume: array bytes plus 8 per scalar, walking
    tuples, lists, dicts, dataclass fields and ``__slots__``.

    ``Message.nbytes()`` prices a tuple at ``8 * len``, so a ring
    allgather hop carrying a 256 KB block counts as 16 bytes there; this
    is the number beside it.  Completion variables are not payload.
    It runs once per routed message, hence the exact-type dispatch.
    """
    cls = obj.__class__
    if cls is float or cls is int or cls is bool:
        return 8
    if cls is tuple or cls is list:
        total = 0
        for item in obj:
            total += deep_nbytes(item, depth - 1)
        return total
    if obj is None or cls is str or cls is DefVar or depth == 0:
        return 0
    if isinstance(obj, (np.ndarray, np.generic)):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if cls is complex:
        return 16
    if cls is dict:
        return deep_nbytes(list(obj.values()), depth)
    names = _FIELDS.get(cls)
    if names is None:
        if dataclasses.is_dataclass(obj):
            names = tuple(f.name for f in dataclasses.fields(obj))
        else:
            names = tuple(getattr(cls, "__slots__", ()))
        _FIELDS[cls] = names
    total = 0
    for name in names:
        total += deep_nbytes(getattr(obj, name, None), depth - 1)
    return total


def _resolve(path: str) -> Tuple[Any, str]:
    module_name, qualname = path.split(":")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans around the wrapped callables while ``recording``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        # One entry per routed message: (kind, same_node, deep bytes, ns
        # the interceptor spent on its own bookkeeping).
        self.messages: List[Tuple[str, bool, int, int]] = []
        # Reads of an already defined variable: counted, not timed.
        self.defined_reads = itertools.count()
        self.recording = False
        # The driver is one thread issuing one op at a time, and every
        # thread an op starts ends before the op returns, so the op in
        # flight is a plain attribute rather than per-thread state.
        self.op: Optional[int] = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: List[Tuple[Any, str, Any]] = []
        self._machine: Any = None
        self._tap = self._make_tap()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = [0]
            return stack

    def traced(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped to record one span per call while recording."""
        clock = time.perf_counter_ns
        record = self.spans.append
        ids = self._ids
        local = self._local
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = [0]
            parent = stack[-1]
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((sid, parent, name, start, end, self.op, get_ident()))

        setattr(wrapper, _MARK, name)
        return wrapper

    def _defvar_read(self, original: Callable[..., Any]) -> Callable[..., Any]:
        """``DefVar.read`` is the most frequent call by far and returns at
        once when the variable is defined: such a read cannot wait, so it
        is counted without a span and only suspending reads are timed."""
        timed = self.traced("pcn.defvar_read", original)
        defined_reads = self.defined_reads

        @functools.wraps(original)
        def read(var: Any, timeout: Optional[float] = None) -> Any:
            if self.recording and var.data():
                next(defined_reads)
                return original(var, timeout)
            return timed(var, timeout)

        return read

    def _make_tap(self) -> Callable[[Any, Callable[[Any], None]], None]:
        """The benchmark's interceptor: per-kind counts, deep bytes, and
        a span around everything below it (final delivery)."""
        clock = time.perf_counter_ns
        record = self.spans.append
        count = self.messages.append
        ids = self._ids
        local = self._local
        get_ident = threading.get_ident
        names: Dict[str, str] = {}

        def tap(message: Any, forward: Callable[[Any], None]) -> None:
            if not self.recording:
                forward(message)
                return
            entered = clock()
            kind = message.kind
            name = names.get(kind)
            if name is None:
                name = names[kind] = "vp.deliver:" + kind
            nbytes = deep_nbytes(message.payload)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = [0]
            parent = stack[-1]
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                forward(message)
            finally:
                end = clock()
                stack.pop()
                record((sid, parent, name, start, end, self.op, get_ident()))
                count((kind, message.source == message.dest, nbytes,
                       start - entered))

        return tap

    # -- factories -----------------------------------------------------------

    def _process_init(self, original: Callable[..., Any]) -> Callable[..., Any]:
        local = self._local

        @functools.wraps(original)
        def init(proc: Any, target: Callable[..., Any], *args: Any,
                 **kwargs: Any) -> None:
            if self.recording:
                parent = self._stack()[-1]
                body = target

                def adopted(*a: Any, **kw: Any) -> Any:
                    local.stack = [parent]
                    return body(*a, **kw)

                target = adopted
            original(proc, target, *args, **kwargs)

        return init

    def _build_wrapper(self, original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def build(machine: Any, program: Callable[..., Any], *args: Any,
                  **kwargs: Any) -> Any:
            if not self.recording:
                return original(machine, program, *args, **kwargs)
            name = getattr(program, "__name__", "program")
            program = self.traced("spmd.program:" + name, program)
            return self.traced(
                "calls.wrapper", original(machine, program, *args, **kwargs)
            )

        return build

    def _make_combine(self, original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def make(*args: Any, **kwargs: Any) -> Any:
            combine = original(*args, **kwargs)
            if not self.recording:
                return combine
            return self.traced("calls.combine", combine)

        return make

    def _stage_init(self, original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def init(stage: Any, name: str, work: Callable[..., Any],
                 *args: Any, **kwargs: Any) -> None:
            if self.recording:
                work = self.traced("core.stage:" + name, work)
            original(stage, name, work, *args, **kwargs)

        return init

    def _coupled_init(self, original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def init(sim: Any, components: Any, exchange: Any = None) -> None:
            if self.recording and exchange is not None:
                exchange = self.traced("core.exchange", exchange)
            original(sim, components, exchange)

        return init

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, path: str, make: Callable[[Any], Any]) -> None:
        owner, attr = _resolve(path)
        original = vars(owner)[attr]
        replacement = make(original)
        setattr(replacement, _MARK, getattr(replacement, _MARK, path))
        holders = [owner]
        if not isinstance(owner, type):
            # A module function: every repro module that imported it by
            # value holds its own reference.
            holders += [
                module for name, module in list(sys.modules.items())
                if module is not owner and module is not None
                and (name == "repro" or name.startswith("repro."))
            ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, replacement)
                    self._undo.append((holder, key, original))

    def install(self, machine: Any) -> "Tracer":
        """Wrap every target and push the interceptor on ``machine``.
        Import the workload's modules first: aliases are found by
        scanning the modules already loaded."""
        for name, path in TARGETS:
            self._patch(path, functools.partial(self.traced, name))
        # The callables that need more than a plain wrapper (see the
        # module docstring).
        for path, maker in (
            ("repro.pcn.defvar:DefVar.read", self._defvar_read),
            ("repro.pcn.process:Process.__init__", self._process_init),
            ("repro.calls.wrapper:build_wrapper", self._build_wrapper),
            ("repro.calls.combine:make_combine_program", self._make_combine),
            ("repro.core.pipeline:Stage.__init__", self._stage_init),
            ("repro.core.coupled:CoupledSimulation.__init__",
             self._coupled_init),
        ):
            self._patch(path, maker)
        self._machine = machine
        machine.transport_stack.push(self._tap)
        return self

    def uninstall(self) -> int:
        """Restore every patched name and remove the interceptor; returns
        how many wrappers are still reachable (0 when clean)."""
        self.recording = False
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        if self._machine is not None:
            self._machine.transport_stack.remove(self._tap)
        left = sum(
            hasattr(vars(holder).get(key), _MARK)
            for holder, key, _original in self._undo
        )
        if self._machine is not None:
            left += int(self._tap in self._machine.transport_stack)
        self._undo = []
        self._machine = None
        return left

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as out:
            for sid, parent, name, start, end, op, thread in self.spans:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "op": op,
                    "thread": thread,
                }) + "\n")
