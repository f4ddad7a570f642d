"""Typed point-to-point messages (§3.4.1).

The thesis prevents message conflicts between the task-parallel runtime and
called data-parallel programs by requiring *typed* messages and *selective*
receives, with disjoint type sets for the two layers.  §5.3 describes the
concrete fix applied to the Symult s2010 port: untyped Cosmic Environment
messages were replaced with messages of a "PCN" type and a
"data-parallel-program" type.

We reproduce that design: every message carries a :class:`MessageType`; the
mailbox's selective receive filters on it.  ``MessageType.UNTYPED`` exists
only so the §3.4.1 conflict experiment can demonstrate the failure mode the
typing discipline prevents.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Hashable, Optional


class MessageType(enum.Enum):
    """Disjoint message-type sets for the two runtime layers (§3.4.1)."""

    PCN = "pcn"  # task-parallel runtime traffic (server requests, control)
    DATA_PARALLEL = "dp"  # traffic between copies of an SPMD program
    UNTYPED = "untyped"  # legacy Cosmic-Environment style; conflict-prone


_sequence = itertools.count()


@dataclass(frozen=True, init=False)
class Message:
    """One point-to-point message.

    ``tag`` subdivides traffic within a type (e.g. per-collective tags in
    the SPMD layer); ``group`` identifies which distributed call's copies
    are communicating, so concurrent distributed calls sharing a processor
    cannot intercept each other's traffic.

    The last three fields are the *fabric envelope*, shared by every
    message regardless of which layer produced it: ``kind`` names the
    routing discipline (``"user"`` mailbox traffic vs ``"server_request"``
    RPC hops), ``trace_id`` ties the message to the logical operation that
    caused it, and ``hop`` counts how many causally-chained messages
    preceded it within that trace.  :meth:`repro.vp.machine.Machine.send`
    builds a message with ``trace_id``/``hop`` taken from the sender's
    execution context; ``route`` stamps one handed to it without them.

    Frozen, compared by fields and copied by ``dataclasses.replace`` like
    any frozen dataclass; only ``__init__`` is written by hand.  The
    generated one pays an ``object.__setattr__`` per field to get past its
    own freeze — on every routed message of every workload — where filling
    the instance dictionary costs half that.
    """

    source: int
    dest: int
    payload: Any
    mtype: MessageType = MessageType.PCN
    tag: Hashable = None
    group: Optional[Hashable] = None
    # None asks for the next number of the module's sequence.
    seq: Optional[int] = None
    kind: str = "user"
    trace_id: Optional[str] = None
    hop: int = 0
    # The observability span that sent the message (None when observation
    # is off or the sender ran outside any span).  Stamped by Machine.route
    # alongside trace_id; lets span-level traces and per-message records be
    # stitched without guessing.
    span_id: Optional[str] = None

    def __init__(
        self,
        source: int,
        dest: int,
        payload: Any,
        mtype: MessageType = MessageType.PCN,
        tag: Hashable = None,
        group: Optional[Hashable] = None,
        seq: Optional[int] = None,
        kind: str = "user",
        trace_id: Optional[str] = None,
        hop: int = 0,
        span_id: Optional[str] = None,
    ) -> None:
        fields = self.__dict__
        fields["source"] = source
        fields["dest"] = dest
        fields["payload"] = payload
        fields["mtype"] = mtype
        fields["tag"] = tag
        fields["group"] = group
        fields["seq"] = next(_sequence) if seq is None else seq
        fields["kind"] = kind
        fields["trace_id"] = trace_id
        fields["hop"] = hop
        fields["span_id"] = span_id

    def matches(
        self,
        mtype: Optional[MessageType],
        tag: Hashable = None,
        source: Optional[int] = None,
        group: Optional[Hashable] = None,
        match_any_tag: bool = False,
        match_any_group: bool = False,
    ) -> bool:
        """Selective-receive predicate."""
        if mtype is not None and self.mtype is not mtype:
            return False
        if not match_any_tag and self.tag != tag:
            return False
        if source is not None and self.source != source:
            return False
        if not match_any_group and self.group != group:
            return False
        return True

    def nbytes(self) -> int:
        """Approximate payload size, for simulated-traffic accounting."""
        payload = self.payload
        # One evaluation: a batch's or update's ``nbytes`` walks its
        # mutation list.
        nbytes = getattr(payload, "nbytes", None)
        if nbytes is not None:
            return int(nbytes)
        if isinstance(payload, (bytes, bytearray)):
            return len(payload)
        if isinstance(payload, (list, tuple)):
            return 8 * len(payload)
        return 8
