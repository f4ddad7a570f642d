"""The fault model's one clock: real time, or time a test steps by hand.

A :class:`~repro.vp.machine.Machine` owns one clock (``machine.clock``).
The failure detector's rounds, the fault transport's delay and reorder
timers and the retry backoff all read it, so a test that builds its
machine with a :class:`ManualClock` decides when each of them fires, in
what order, and at what time they think it is.

Each real timer keeps a daemon thread of its own, as ``threading.Timer``
does.  One shared timer thread would deadlock: a detector round that runs
recovery can wait for a message that only a delay timer delivers.

Recv deadlines (``DefVar.read``, a mailbox receive, ``Process.join``), the
watchdog's poll and the ``perf_counter`` measurement clocks stay on real
time (docs/fault_model.md, *Time*).
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any, Callable, List, Optional, Tuple


class Timer:
    """A call the clock makes once, or every ``interval`` seconds."""

    def __init__(self, fn: Callable[[], Any], interval: Optional[float]) -> None:
        self.fn = fn
        self.interval = interval
        self._cancelled = threading.Event()
        self._running = threading.RLock()

    def cancel(self) -> None:
        """Stop every later call.  A periodic timer's cancel, made from a
        thread other than the one running a call, also returns only after
        that call has finished."""
        self._cancelled.set()
        if self.interval is not None:
            with self._running:
                pass

    def _fire(self) -> None:
        with self._running:
            if not self._cancelled.is_set():
                self.fn()


class Clock:
    """Real time: ``time.monotonic`` and one daemon thread a timer."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)

    def call_later(self, delay: float, fn: Callable, *args: Any) -> Timer:
        """Call ``fn(*args)`` once, ``delay`` seconds from now."""
        return self._start(Timer(lambda: fn(*args), None), delay)

    def every(self, interval: float, fn: Callable[[], Any]) -> Timer:
        """Call ``fn`` now, then ``interval`` seconds after each call
        returns."""
        return self._start(Timer(fn, interval), 0.0)

    def _start(self, timer: Timer, delay: float) -> Timer:
        def run(delay: float = delay) -> None:
            while not timer._cancelled.wait(delay):
                timer._fire()
                if timer.interval is None:
                    return
                delay = timer.interval

        threading.Thread(target=run, name="clock-timer", daemon=True).start()
        return timer


class ManualClock(Clock):
    """Time that moves only when :meth:`advance` (or :meth:`sleep`) moves
    it.  Due timers fire on the advancing thread, in deadline order, and
    in the order they were set at one deadline; ``now()`` reads a timer's
    deadline while it fires.  A periodic timer's first call is due at
    once: the next advance, even by zero, makes it."""

    def __init__(self) -> None:
        self._now = 0.0
        self._lock = threading.Lock()
        self._due: List[Tuple[float, int, Timer]] = []
        self._order = itertools.count()

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        """The sleeper moves time: a single-threaded caller of retry or a
        backoff loop sees its delays pass at once, in order."""
        self.advance(seconds)

    def _start(self, timer: Timer, delay: float) -> Timer:
        with self._lock:
            heapq.heappush(self._due, (self._now + delay, next(self._order), timer))
        return timer

    def advance(self, seconds: float) -> None:
        """Move time ``seconds`` on, firing every timer that falls due."""
        target = self._now + seconds
        while True:
            with self._lock:
                if not self._due or self._due[0][0] > target:
                    self._now = max(self._now, target)
                    return
                deadline, _, timer = heapq.heappop(self._due)
                self._now = max(self._now, deadline)
            timer._fire()
            if timer.interval is not None and not timer._cancelled.is_set():
                self._start(timer, timer.interval)
