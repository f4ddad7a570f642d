"""Definitional streams (§A.3).

PCN represents a stream of messages between two processes as a shared
definitional list: the producer defines the list cell by cell
(``Stream = [Msg | Tail]``), the consumer pattern-matches each cell,
suspending when it reaches an undefined tail.  The empty list ``[]`` closes
the stream.

:class:`Stream` wraps one definitional cell; :class:`StreamWriter` holds the
producer's moving tail reference so production is O(1) per message.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional

from repro.pcn.defvar import DefVar


class _Empty:
    """Sentinel for the empty list ``[]`` that terminates a stream."""

    _instance: Optional["_Empty"] = None

    def __new__(cls) -> "_Empty":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EMPTY"


EMPTY = _Empty()


class StreamClosed(Exception):
    """Raised when reading past the end of a closed stream."""


class Stream:
    """A consumer-side view of a definitional stream.

    A stream is a definitional variable whose value is either ``EMPTY``
    (closed) or a cons cell ``(head, Stream)``.
    """

    __slots__ = ("cell",)

    def __init__(self, cell: Optional[DefVar] = None) -> None:
        self.cell = cell if cell is not None else DefVar("stream")

    # -- consumer protocol -------------------------------------------------

    def get(self, timeout: Optional[float] = None) -> tuple[Any, "Stream"]:
        """Return ``(head, tail)``, suspending until the cell is defined.

        Raises :class:`StreamClosed` on the empty stream.
        """
        value = self.cell.read(timeout=timeout)
        if value is EMPTY:
            raise StreamClosed
        head, tail = value
        return head, tail

    def try_get(self) -> Optional[tuple[Any, "Stream"]]:
        """Non-blocking ``get``; None when the cell is still undefined."""
        if not self.cell.data():
            return None
        value = self.cell.peek()
        if value is EMPTY:
            raise StreamClosed
        return value

    def closed(self, timeout: Optional[float] = None) -> bool:
        """Suspend until the cell is defined; True when it is ``EMPTY``."""
        return self.cell.read(timeout=timeout) is EMPTY

    def is_definitely_closed(self) -> bool:
        """Non-blocking: True when the cell is defined and empty."""
        return self.cell.data() and self.cell.peek() is EMPTY

    def __iter__(self) -> Iterator[Any]:
        stream = self
        while True:
            try:
                head, stream = stream.get()
            except StreamClosed:
                return
            yield head

    # -- producer protocol (direct, for one-shot definitions) --------------

    def put(self, value: Any) -> "Stream":
        """Define this cell as ``[value | Tail]``; return the tail stream."""
        tail = Stream()
        self.cell.define((value, tail))
        return tail

    def close(self) -> None:
        """Define this cell as the empty list, closing the stream."""
        self.cell.define(EMPTY)

    def __repr__(self) -> str:
        if not self.cell.data():
            return "<Stream ...undefined>"
        if self.cell.peek() is EMPTY:
            return "<Stream []>"
        return "<Stream [..|..]>"


class StreamWriter:
    """Producer handle that tracks the moving tail of a stream."""

    __slots__ = ("_tail", "_closed")

    def __init__(self, stream: Stream) -> None:
        self._tail = stream
        self._closed = False

    def send(self, value: Any) -> None:
        if self._closed:
            raise StreamClosed("send on closed stream")
        self._tail = self._tail.put(value)

    def send_all(self, values: Iterable[Any]) -> None:
        for value in values:
            self.send(value)

    def close(self) -> None:
        if not self._closed:
            self._tail.close()
            self._closed = True

    def splice(self, tail: Stream) -> None:
        """Terminate this writer's stream with an existing stream ``tail``.

        Mirrors the PCN idiom ``Outstream = Outstream_tail`` used in §6.2 to
        chain streams across recursive calls.
        """
        if self._closed:
            raise StreamClosed("splice on closed stream")
        self._tail.cell.define(tail.cell)
        self._closed = True


def stream_pair() -> tuple[Stream, StreamWriter]:
    """Create a stream and its producer handle."""
    stream = Stream()
    return stream, StreamWriter(stream)


def stream_from_iterable(values: Iterable[Any]) -> Stream:
    """Build an already-fully-defined stream holding ``values``."""
    stream, writer = stream_pair()
    writer.send_all(values)
    writer.close()
    return stream


def stream_to_list(stream: Stream, limit: Optional[int] = None) -> list:
    """Consume a stream into a list (suspends as needed).

    ``limit`` bounds the number of elements taken; None reads to close.
    """
    out: list[Any] = []
    for value in stream:
        out.append(value)
        if limit is not None and len(out) >= limit:
            break
    return out


def merge_streams(a: Stream, b: Stream, out: StreamWriter) -> None:
    """Fair nondeterministic merge of two streams into ``out``.

    Runs on the calling thread until both inputs close.  The merge prefers
    whichever input has data available, suspending only when neither does.
    """
    live: list[Optional[Stream]] = [a, b]
    while any(s is not None for s in live):
        progressed = False
        for i, s in enumerate(live):
            if s is None:
                continue
            try:
                item = s.try_get()
            except StreamClosed:
                live[i] = None
                progressed = True
                continue
            if item is not None:
                head, tail = item
                out.send(head)
                live[i] = tail
                progressed = True
        if not progressed:
            # Neither input ready: block on the first live one briefly.
            for s in live:
                if s is not None:
                    try:
                        head, tail = s.get(timeout=0.05)
                    except StreamClosed:
                        live[live.index(s)] = None
                    except TimeoutError:
                        pass
                    else:
                        out.send(head)
                        live[live.index(s)] = tail
                    break
    out.close()
