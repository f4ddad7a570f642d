"""Group communicators: typed point-to-point messaging within one
distributed call (§3.1.4, §3.4.1).

The copies of an SPMD program communicate "just as they normally would"
(§3.3.1) — but their messages must not conflict with task-parallel traffic
or with a *different* concurrent distributed call.  Three mechanisms keep
the traffic disjoint, mirroring §3.4.1/§5.3:

* every message carries ``MessageType.DATA_PARALLEL`` (vs ``PCN``);
* every message carries the **group id** of its distributed call, so two
  concurrent calls sharing a processor cannot intercept each other;
* receives are *selective* on (type, group, tag, source).

Ranks are group-relative: rank ``r`` is physical processor ``procs[r]``.
This is the relocatability contract of §3.5 — programs use only ranks, and
the same program runs unchanged on any processor subset.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Sequence

from repro.vp.machine import Machine
from repro.vp.message import Message, MessageType


class GroupComm:
    """mpi4py-style communicator scoped to one processor group + call."""

    def __init__(
        self,
        machine: Machine,
        procs: Sequence[int],
        rank: int,
        group: Hashable,
    ) -> None:
        self.machine = machine
        # Processor numbers are ints, converted by the caller; ``tuple``
        # of a tuple is that tuple, so a call's copies share the one its
        # wrapper built and a copy costs O(1) in P.
        self.procs = tuple(procs)
        self.rank = int(rank)
        self.group = group
        if not 0 <= self.rank < len(self.procs):
            raise ValueError(
                f"rank {rank} out of range for group of {len(self.procs)}"
            )
        # Processor -> rank, built on the first lookup: a received
        # message's lookup must not scan the whole group, and a copy that
        # never asks must not pay O(P) for it.
        self._rank_of_proc: Optional[dict] = None

    @property
    def size(self) -> int:
        return len(self.procs)

    @property
    def processor_number(self) -> int:
        """The physical (virtual-machine) processor this copy runs on."""
        return self.procs[self.rank]

    # -- point-to-point --------------------------------------------------------

    def send(self, dest_rank: int, payload: Any, tag: Hashable = None) -> None:
        """Asynchronous typed send to a group-relative rank."""
        self.machine.send(
            source=self.processor_number,
            dest=self.procs[dest_rank],
            payload=payload,
            mtype=MessageType.DATA_PARALLEL,
            tag=tag,
            group=self.group,
        )

    def recv(
        self,
        source_rank: Optional[int] = None,
        tag: Hashable = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Selective receive; ``source_rank=None`` accepts any group peer."""
        node = self.machine.processor(self.processor_number)
        source = None if source_rank is None else self.procs[source_rank]
        msg = node.mailbox.recv(
            mtype=MessageType.DATA_PARALLEL,
            tag=tag,
            source=source,
            group=self.group,
            timeout=timeout,
        )
        return msg.payload

    def recv_message(
        self,
        source_rank: Optional[int] = None,
        tag: Hashable = None,
        timeout: Optional[float] = None,
    ) -> Message:
        """Like :meth:`recv` but returns the full message envelope."""
        node = self.machine.processor(self.processor_number)
        source = None if source_rank is None else self.procs[source_rank]
        return node.mailbox.recv(
            mtype=MessageType.DATA_PARALLEL,
            tag=tag,
            source=source,
            group=self.group,
            timeout=timeout,
        )

    def sendrecv(
        self,
        dest_rank: int,
        payload: Any,
        source_rank: Optional[int] = None,
        tag: Hashable = None,
    ) -> Any:
        """Exchange: send then receive (safe because sends never block)."""
        self.send(dest_rank, payload, tag=tag)
        return self.recv(
            source_rank if source_rank is not None else dest_rank, tag=tag
        )

    def rank_of_source(self, message: Message) -> int:
        """Physical source processor -> group-relative rank."""
        if self._rank_of_proc is None:
            self._rank_of_proc = {p: r for r, p in enumerate(self.procs)}
        try:
            return self._rank_of_proc[message.source]
        except KeyError:
            raise ValueError(
                f"{message.source} is not in tuple"
            ) from None

    def dup(self, subgroup: Sequence[int], group: Hashable) -> "GroupComm":
        """Communicator for a subgroup (ranks into this group's procs).

        The calling rank must be a member; its new rank is its position in
        ``subgroup``.
        """
        procs = tuple(self.procs[r] for r in subgroup)
        lookup = {p: r for r, p in enumerate(procs)}
        try:
            new_rank = lookup[self.processor_number]
        except KeyError:
            raise ValueError(
                f"{self.processor_number} is not in tuple"
            ) from None
        return GroupComm(self.machine, procs, new_rank, group)
