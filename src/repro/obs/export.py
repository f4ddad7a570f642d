"""The Chrome trace exporter.

:func:`chrome_trace` builds the ``traceEvents`` JSON that
``chrome://tracing`` and Perfetto load: spans become complete
(``"ph": "X"``) events on one track per virtual processor, messages
become instants on their source VP's track.

:func:`validate_chrome_trace` is the schema check CI runs against the
exported file — deliberately strict about the fields the viewers require.
"""

from __future__ import annotations

import json
from typing import Any, Optional

# Track id used for spans recorded on unplaced (top-level) threads, which
# have no virtual processor.  Chrome/Perfetto require integer tids.
MAIN_TRACK = 1_000_000


def _tid(processor: Optional[int]) -> int:
    return MAIN_TRACK if processor is None else int(processor)


def chrome_trace(observer: Any) -> dict:
    """Build the Chrome trace-event document for one observer.

    Timestamps are microseconds relative to the observer's start, one
    thread track per virtual processor (`vp0`, `vp1`, ...) plus a `main`
    track for unplaced threads.
    """
    epoch = observer.epoch
    events: list[dict] = []
    tracks: set[int] = set()

    for span in observer.recorder.spans():
        tid = _tid(span["processor"])
        tracks.add(tid)
        args = {
            "span": span["span"],
            "parent": span["parent"],
            "trace": span["trace"],
            "status": span["status"],
        }
        args.update(
            {k: repr(v) if not isinstance(v, (int, float, str, bool, type(None)))
             else v for k, v in span["attrs"].items()}
        )
        events.append(
            {
                "name": span["name"],
                "cat": "span",
                "ph": "X",
                "ts": (span["start"] - epoch) * 1e6,
                "dur": max(span["duration"], 0.0) * 1e6,
                "pid": 0,
                "tid": tid,
                "args": args,
            }
        )

    for event in observer.events():
        if event.get("type") != "message":
            continue
        tid = _tid(event.get("source"))
        tracks.add(tid)
        events.append(
            {
                "name": f"msg:{event['kind']}",
                "cat": "message",
                "ph": "i",
                "s": "t",
                "ts": (event["ts"] - epoch) * 1e6,
                "pid": 0,
                "tid": tid,
                "args": {
                    "trace": event.get("trace"),
                    "span": event.get("span"),
                    "dest": event.get("dest"),
                    "nbytes": event.get("nbytes"),
                    "hop": event.get("hop"),
                },
            }
        )

    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for tid in sorted(tracks):
        label = "main" if tid == MAIN_TRACK else f"vp{tid}"
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": label},
            }
        )
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def validate_chrome_trace(document: Any) -> bool:
    """Check ``document`` against the trace-event schema the viewers need.

    Raises :class:`ValueError` naming the first violation; returns True
    when the document is loadable.
    """
    if not isinstance(document, dict):
        raise ValueError("trace document must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                raise ValueError(f"{where} missing {field!r}")
        if not isinstance(event["name"], str):
            raise ValueError(f"{where}.name is not a string")
        ph = event["ph"]
        if ph not in ("X", "B", "E", "i", "I", "M", "s", "f", "t"):
            raise ValueError(f"{where}.ph {ph!r} is not a known phase")
        if ph != "M":
            if not isinstance(event.get("ts"), (int, float)):
                raise ValueError(f"{where}.ts must be a number")
            if event["ts"] < 0:
                raise ValueError(f"{where}.ts is negative")
        if ph == "X":
            if not isinstance(event.get("dur"), (int, float)):
                raise ValueError(f"{where}.dur must be a number")
            if event["dur"] < 0:
                raise ValueError(f"{where}.dur is negative")
        for field in ("pid", "tid"):
            if not isinstance(event[field], int):
                raise ValueError(f"{where}.{field} must be an integer")
    return True


def export_chrome_trace(observer: Any, path: str) -> dict:
    """Write the Chrome trace for ``observer`` to ``path``; returns it."""
    document = chrome_trace(observer)
    validate_chrome_trace(document)
    with open(path, "w") as fh:
        json.dump(document, fh)
    return document

