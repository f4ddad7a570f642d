"""The PCN server mechanism (§5.1.1).

Any program can communicate with the local server process via a *server
request*.  Modules loaded with a *capabilities* directive extend the server:
requests whose type appears in the directive are routed to the module's
server program as a tuple ``(request_type, *request_parameters)``.

Routing a request to another processor is done with the ``@processor``
annotation — here the ``processor=`` argument of
:meth:`ServerRegistry.request`.  Bidirectional communication happens when a
request parameter is an undefined definitional variable the server program
defines (e.g. the ``Status`` of a ``free_array`` request).

Cross-processor requests ride the message fabric: when the requesting
thread of control executes on a different virtual processor than the
request's target (or passes ``source=`` explicitly), the request is routed
as a ``kind="server_request"`` :class:`~repro.vp.message.Message` through
:meth:`Machine.route` and the full interceptor stack — so server RPC is
subject to the same tracing, accounting, and fault injection as every
other message, and costs exactly one routed message per hop.  Requests
whose origin *is* the target node (and requests from unplaced top-level
threads, which the thesis treats as running "on" the local node) execute
locally without any message, matching §5.1.1's local-server semantics.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from repro.pcn.defvar import DefVar
from repro.vp import fabric
from repro.vp.message import Message

Handler = Callable[..., None]


class ServerRequestError(Exception):
    """No loaded module provides the requested capability."""


class _ServerCall:
    """Payload of a routed ``server_request`` message.

    Completion flows back through definitional variables (§5.1.1's
    bidirectional-communication idiom) rather than a reply message:
    ``done`` carries the synchronous outcome, ``proc_out`` the spawned
    handler process for asynchronous requests.
    """

    __slots__ = ("request_type", "parameters", "synchronous", "done", "proc_out")

    def __init__(
        self,
        request_type: str,
        parameters: tuple,
        synchronous: bool,
        done: Optional[DefVar],
        proc_out: Optional[DefVar],
    ) -> None:
        self.request_type = request_type
        self.parameters = parameters
        self.synchronous = synchronous
        self.done = done
        self.proc_out = proc_out

    def __repr__(self) -> str:
        return f"<server call {self.request_type!r}>"


class ServerRegistry:
    """Per-machine registry of server capabilities.

    One logical server process exists per processor; because capability
    handlers are registered machine-wide but *execute on* the target
    processor (they receive the local :class:`VirtualProcessor`), a single
    registry suffices.
    """

    def __init__(self, machine: "Machine") -> None:  # noqa: F821
        self._machine = machine
        # Read on every request, written when a module loads: the table
        # is replaced whole under the lock and read without it.
        self._capabilities: dict[str, Handler] = {}
        self._lock = threading.Lock()

    def load(self, capabilities: dict[str, Handler]) -> None:
        """Load a module: add its capabilities to the server (§5.1.1)."""
        with self._lock:
            self._capabilities = {**self._capabilities, **capabilities}

    def provides(self, request_type: str) -> bool:
        return request_type in self._capabilities

    def request(
        self,
        request_type: str,
        *parameters: Any,
        processor: Optional[int] = None,
        synchronous: bool = True,
        timeout: Optional[float] = None,
        source: Optional[int] = None,
        kind: str = "server_request",
    ) -> Optional[Any]:
        """Issue a server request.

        ``processor`` is the ``@Processor_number`` annotation: the request
        executes on that node (default: processor 0, the "local" node for
        top-level callers).  When ``synchronous`` the request runs to
        completion before returning — matching the library-procedure
        discipline of §5.1.2, where each library procedure waits for its
        request to be serviced.  With ``synchronous=False`` the request
        completes immediately as a statement and the handler runs as a
        separate process, which is the raw server-request semantics of
        §5.1.1 — the spawned :class:`~repro.pcn.process.Process` is
        returned so callers can join it with the machine's receive
        deadline.

        ``source`` names the requesting processor explicitly; when omitted
        it is taken from the calling thread's execution context (the node
        the thread was spawned on).  A request whose origin differs from
        the target node is a *cross-processor hop*: it is shipped as one
        ``server_request`` message through :meth:`Machine.route` and the
        interceptor stack.  Origin-less (top-level) and same-node requests
        execute locally with no message.

        ``timeout`` bounds how long a synchronous request may take; None
        inherits the machine's ``default_recv_timeout`` behaviour.
        Requests addressed to a dead processor raise
        :class:`~repro.status.ProcessorFailedError` immediately.

        ``kind`` names the fabric envelope kind of the routed hop (default
        ``"server_request"``); recovery traffic uses ``"recovery"`` so
        interceptors and meters can distinguish it.  Any kind used here
        must be registered on the machine to execute as a server call.
        """
        handler = self._capabilities.get(request_type)
        if handler is None:
            raise ServerRequestError(
                f"no capability registered for request type {request_type!r}"
            )
        number = 0 if processor is None else processor
        self._machine.check_alive([number])
        origin = source if source is not None else fabric.current_processor()
        if origin is not None and origin != number:
            return self._request_remote(
                request_type, parameters, origin, number, synchronous,
                timeout, kind,
            )
        node = self._machine.processor(number)
        if synchronous:
            if timeout is not None:
                proc = node.spawn(
                    handler, node, *parameters,
                    name=f"server-{request_type}",
                )
                proc.join(timeout=timeout)
                return None
            with fabric.execution_context(processor=number):
                handler(node, *parameters)
            return None
        return node.spawn(
            handler, node, *parameters, name=f"server-{request_type}"
        )

    def _request_remote(
        self,
        request_type: str,
        parameters: tuple,
        origin: int,
        number: int,
        synchronous: bool,
        timeout: Optional[float],
        kind: str = "server_request",
    ) -> Optional[Any]:
        """Ship the request as one routed message from origin to target."""
        done = DefVar(f"server-{request_type}-done") if synchronous else None
        proc_out = (
            None if synchronous else DefVar(f"server-{request_type}-proc")
        )
        call = _ServerCall(request_type, parameters, synchronous, done, proc_out)
        self._machine.send(
            origin, number, call, tag=("server", request_type), kind=kind
        )
        limit = (
            timeout
            if timeout is not None
            else self._machine.default_recv_timeout
        )
        if synchronous:
            state, error = done.read(timeout=limit)
            if state == "error":
                raise error
            return None
        return proc_out.read(timeout=limit)

    def _execute(self, message: Message) -> None:
        """Service one delivered ``server_request`` message at its target.

        Called beneath the interceptor stack by the machine's final
        delivery; the handler runs under the target node's execution
        context with the message's trace envelope (hop + 1), so nested
        requests it issues are causally chained onto the same trace.
        """
        call: _ServerCall = message.payload
        # Exactly-once servicing: a duplicated delivery (fault injection)
        # carries the same call whose outcome variable is already
        # defined — re-running the handler would double-apply it and
        # double-define ``done``.
        outcome = call.done if call.synchronous else call.proc_out
        if outcome is not None and outcome.data():
            return
        node = self._machine.processor(message.dest)
        handler = self._capabilities.get(call.request_type)
        # span_id: the handler's spans parent onto the requester's open
        # span (carried on the message), not onto whatever span the
        # delivering thread happens to be inside.
        context = fabric.execution_context(
            processor=message.dest,
            trace_id=message.trace_id,
            hop=message.hop + 1,
            span_id=message.span_id,
        )
        if handler is None:
            exc: BaseException = ServerRequestError(
                f"no capability registered for request type "
                f"{call.request_type!r}"
            )
            if call.done is not None:
                call.done.define(("error", exc))
            return
        if call.synchronous:
            try:
                with context:
                    handler(node, *call.parameters)
            except BaseException as exc:  # noqa: BLE001 - crosses the hop
                call.done.define(("error", exc))
            else:
                call.done.define(("ok", None))
            return
        with context:
            proc = node.spawn(
                handler, node, *call.parameters,
                name=f"server-{call.request_type}",
            )
        call.proc_out.define(proc)
