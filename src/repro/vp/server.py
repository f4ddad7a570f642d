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

A request asked of many processors at once — §5.1.1's "``create_local`` on
every processor" — is one :meth:`ServerRegistry.request_each`, not a loop
of requests: one routed message per remote processor still, everything
that does not depend on the processor done once, one shared status and
one shared completion.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Optional

from repro.pcn.defvar import DefVar, Tally
from repro.status import ProcessorFailedError
from repro.vp import fabric
from repro.vp.message import Message, MessageType

Handler = Callable[..., None]


class ServerRequestError(Exception):
    """No loaded module provides the requested capability."""


def _no_capability(request_type: str) -> ServerRequestError:
    return ServerRequestError(
        f"no capability registered for request type {request_type!r}"
    )


class _ServerCall:
    """Payload of a routed ``server_request`` message.

    Completion flows back through definitional variables (§5.1.1's
    bidirectional-communication idiom) rather than a reply message:
    ``done`` is defined with the synchronous outcome (None, or the error
    the handler raised), ``proc_out`` with the spawned handler process of
    an asynchronous request.  ``served`` makes servicing exactly-once: a
    duplicated delivery carries the same call object.
    """

    __slots__ = (
        "request_type", "parameters", "synchronous", "done", "proc_out",
        "served",
    )
    # Only a _CarryingCall carries a unit (a slot of its own).
    carried = None

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
        self.served = False

    def __repr__(self) -> str:
        return f"<server call {self.request_type!r}>"


class _CarryingCall(_ServerCall):
    """A synchronous call that carries a unit of work for its handler —
    a write batch its holder applies in the same commit — handed to the
    handler as ``carried=``.  Priced as the request and the unit would be
    apart: the 8 bytes of a call and the unit's own ``nbytes``.  A call
    that carries nothing is a plain :class:`_ServerCall`, which has no
    ``nbytes``: :meth:`Message.nbytes` asks for it, finds none, and its
    fallback prices the call at 8."""

    __slots__ = ("carried",)

    def __init__(
        self, request_type: str, parameters: tuple, done: DefVar,
        carried: Any,
    ) -> None:
        super().__init__(request_type, parameters, True, done, None)
        self.carried = carried

    @property
    def nbytes(self) -> int:
        return 8 + self.carried.nbytes


def _first_error(
    first: Optional[BaseException], outcome: Optional[BaseException]
) -> Optional[BaseException]:
    """Fold of a fan-out's hop outcomes: the first error, else None."""
    return outcome if first is None else first


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
        source: Optional[int] = None,
        kind: str = "server_request",
        carried: Any = None,
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

        A remote request waits for its answer as long as the machine's
        ``default_recv_timeout``.  Requests addressed to a dead processor
        raise :class:`~repro.status.ProcessorFailedError` immediately.

        ``kind`` names the fabric envelope kind of the routed hop (default
        ``"server_request"``); recovery traffic uses ``"recovery"`` so
        interceptors and meters can distinguish it.  Any kind used here
        must be registered on the machine to execute as a server call.

        ``carried`` is a unit of work the request carries to its handler,
        which receives it as ``carried=`` (the array manager's write batch
        riding a request for its section).  A routed hop that carries one
        is one message, priced as the request and the unit together.
        """
        handler = self._capabilities.get(request_type)
        if handler is None:
            raise _no_capability(request_type)
        number = 0 if processor is None else processor
        machine = self._machine
        if machine._failed:
            machine.check_alive((number,))
        frame = fabric.context.frame
        origin = frame[0] if source is None else source
        if origin is not None and origin != number:
            return self._request_remote(
                request_type, parameters, origin, number, synchronous, kind,
                carried,
            )
        if carried is not None:
            handler = functools.partial(handler, carried=carried)
        node = machine.processor(number)
        if not synchronous:
            return node.spawn(
                handler, node, *parameters, name=f"server-{request_type}"
            )
        if frame[0] == number:
            # The thread is on the node already: its frame is the handler's.
            handler(node, *parameters)
        else:
            fabric.call_in_frame(
                (number, frame[1], frame[2], frame[3]),
                handler, node, *parameters,
            )
        return None

    def _request_remote(
        self,
        request_type: str,
        parameters: tuple,
        origin: int,
        number: int,
        synchronous: bool,
        kind: str = "server_request",
        carried: Any = None,
    ) -> Optional[Any]:
        """Ship the request as one routed message from origin to target.

        What the requester waits on — ``done`` of a synchronous request,
        ``proc_out`` of an asynchronous one — is named for the wait graph
        and the timeout message."""
        machine = self._machine
        answer = DefVar(
            f"server-{request_type}-{'done' if synchronous else 'proc'}"
        )
        if carried is not None:
            call = _CarryingCall(request_type, parameters, answer, carried)
        else:
            done, proc_out = (answer, None) if synchronous else (None, answer)
            call = _ServerCall(
                request_type, parameters, synchronous, done, proc_out
            )
        machine.send(
            origin, number, call, MessageType.PCN, ("server", request_type),
            None, kind,
        )
        outcome = answer.read(timeout=machine.default_recv_timeout)
        if synchronous and outcome is not None:
            raise outcome
        return outcome

    def request_each(
        self,
        request_type: str,
        holders: "dict[int, tuple]",
        parameters: tuple,
        status: Tally,
        skip_failed: bool = False,
        carried: Optional[dict] = None,
    ) -> None:
        """One synchronous request, served on every processor in
        ``holders`` — a fan-out is one request, not one per holder.

        ``holders`` maps each processor to its own trailing parameters
        (its share of a region, say; ``()`` for none) and a holder's
        handler is called with ``(*parameters, *own, status)``.  ``status``
        is the one answer of the whole request, a :class:`Tally` with a
        part per holder: every handler defines it as it would a variable
        of its own.

        What does not depend on the holder happens once: the capability
        lookup, the origin, the common parameter tuple and the envelope —
        all hops carry one trace id, the caller's or else one fresh root,
        so ``TraceInterceptor.spans_for`` returns the fan-out whole.  What
        is left per holder is what §5.1.1 prices a remote operation at:
        one ``server_request`` message through :meth:`Machine.route` and
        every interceptor, or, for a holder that is the origin (any
        holder, for an unplaced caller), the handler run in place as
        :meth:`request` runs it.

        All hops share one completion, waited for once (the machine's
        ``default_recv_timeout``) after every holder has been asked: when
        delivery is asynchronous the hops are in flight together, and the
        request takes as long as its slowest hop.  The first error a
        handler raised is re-raised then, not before.  A dead holder
        raises :class:`~repro.status.ProcessorFailedError` when its turn
        comes, unless ``skip_failed``, which passes over it — whether it
        was dead when checked or died before its message was routed.

        ``carried`` maps a holder to the unit its hop carries, as
        :meth:`request`'s ``carried`` does for one hop.
        """
        frame = fabric.context.frame
        if frame[1] is None:
            # Every hop carries one trace: without the caller's, the
            # fan-out is asked again in a frame with one fresh root.
            return fabric.call_in_frame(
                (frame[0], fabric.new_trace_id(), frame[2], frame[3]),
                self.request_each,
                request_type, holders, parameters, status, skip_failed,
                carried,
            )
        handler = self._capabilities.get(request_type)
        if handler is None:
            raise _no_capability(request_type)
        machine = self._machine
        origin = frame[0]
        common = (*parameters, status)
        tag = ("server", request_type)
        done = Tally(
            len(holders), _first_error, None, f"server-{request_type}-done"
        )
        for holder, own in holders.items():
            asked = (*parameters, *own, status) if own else common
            unit = carried.get(holder) if carried else None
            try:
                machine.check_alive((holder,))
                if origin is None or origin == holder:
                    self._serve(
                        handler if unit is None
                        else functools.partial(handler, carried=unit),
                        machine.processor(holder), asked, done,
                        None if origin == holder
                        else (holder, frame[1], frame[2], frame[3]),
                    )
                else:
                    machine.send(
                        origin, holder,
                        _ServerCall(request_type, asked, True, done, None)
                        if unit is None
                        else _CarryingCall(request_type, asked, done, unit),
                        MessageType.PCN, tag, None, "server_request",
                    )
            except ProcessorFailedError:
                if not skip_failed:
                    raise
                done.forget()
                status.forget()
        error = done.read(timeout=machine.default_recv_timeout)
        if error is not None:
            raise error

    def _serve(
        self,
        handler: Handler,
        node: Any,
        parameters: tuple,
        done: DefVar,
        frame: Optional[fabric.Frame] = None,
    ) -> None:
        """Run a synchronous request's handler on ``node`` — in ``frame``,
        or in the calling thread's own frame when that already names the
        node — and define ``done`` with how it ended: None, or the error —
        any error, an interrupt included: whoever reads ``done`` re-raises
        it on the requester's side of the hop."""
        try:
            if frame is None:
                handler(node, *parameters)
            else:
                fabric.call_in_frame(frame, handler, node, *parameters)
        except BaseException as exc:  # noqa: BLE001 - crosses the hop
            done.define(exc)
        else:
            done.define(None)

    def _execute(self, message: Message) -> None:
        """Service one delivered ``server_request`` message at its target.

        Called beneath the interceptor stack by the machine's final
        delivery; the handler runs in the target node's frame with the
        message's trace envelope (hop + 1), so nested requests it issues
        are causally chained onto the same trace.
        """
        call: _ServerCall = message.payload
        # Exactly-once servicing: a duplicated delivery (fault injection)
        # carries the same call — re-running the handler would apply it
        # twice and answer twice.
        if call.served:
            return
        call.served = True
        handler = self._capabilities.get(call.request_type)
        if handler is None:
            if call.done is not None:
                call.done.define(_no_capability(call.request_type))
            return
        if call.carried is not None:
            handler = functools.partial(handler, carried=call.carried)
        dest = message.dest
        # Route has checked the number: the node is indexed, not looked up.
        node = self._machine._processors[dest]
        # span_id: the handler's spans parent onto the requester's open
        # span (carried on the message), not onto whatever span the
        # delivering thread happens to be inside.
        frame = (dest, message.trace_id, message.hop + 1, message.span_id)
        if call.synchronous:
            # ``_serve``'s body written out: every remote request passes
            # here, and a helper would be one more frame each.
            try:
                fabric.call_in_frame(frame, handler, node, *call.parameters)
            except BaseException as exc:  # noqa: BLE001 - crosses the hop
                call.done.define(exc)
            else:
                call.done.define(None)
            return
        call.proc_out.define(
            fabric.call_in_frame(
                frame,
                lambda: node.spawn(
                    handler, node, *call.parameters,
                    name=f"server-{call.request_type}",
                ),
            )
        )
