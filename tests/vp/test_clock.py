"""The machine's clock: real timers, and a manual clock a test steps."""

from __future__ import annotations

import threading

from repro.vp.clock import Clock, ManualClock
from repro.vp.machine import Machine


class TestManualClock:
    def test_due_timers_fire_in_deadline_order_then_set_order(self):
        clock = ManualClock()
        fired = []
        clock.call_later(0.3, fired.append, "c")
        clock.call_later(0.1, fired.append, "a")
        clock.call_later(0.1, fired.append, "b")
        clock.advance(0.05)
        assert fired == []
        clock.advance(0.3)
        assert fired == ["a", "b", "c"]
        assert clock.now() == 0.35

    def test_now_reads_the_deadline_while_a_timer_fires(self):
        clock = ManualClock()
        clock.advance(10.0)
        seen = []
        clock.call_later(2.0, lambda: seen.append(clock.now()))
        clock.advance(5.0)
        assert seen == [12.0]
        assert clock.now() == 15.0

    def test_every_is_due_at_once_and_then_each_interval(self):
        clock = ManualClock()
        times = []
        timer = clock.every(0.25, lambda: times.append(clock.now()))
        clock.advance(0)
        assert times == [0.0]
        clock.advance(1.0)
        assert times == [0.0, 0.25, 0.5, 0.75, 1.0]
        timer.cancel()
        clock.advance(1.0)
        assert len(times) == 5

    def test_a_cancelled_timer_never_fires(self):
        clock = ManualClock()
        fired = []
        clock.call_later(0.1, fired.append, "x").cancel()
        clock.advance(1.0)
        assert fired == []

    def test_a_timer_set_while_firing_fires_in_the_same_advance(self):
        clock = ManualClock()
        fired = []
        clock.call_later(
            0.1, lambda: clock.call_later(0.1, fired.append, "later")
        )
        clock.advance(0.5)
        assert fired == ["later"]

    def test_sleep_moves_time(self):
        clock = ManualClock()
        fired = []
        clock.call_later(0.2, fired.append, "woken")
        clock.sleep(0.5)
        assert fired == ["woken"] and clock.now() == 0.5


class TestRealClock:
    def test_call_later_fires_on_its_own_thread(self):
        done = threading.Event()
        threads = []

        def fire():
            threads.append(threading.current_thread())
            done.set()

        Clock().call_later(0.01, fire)
        assert done.wait(5.0)
        assert threads[0] is not threading.current_thread()

    def test_cancel_of_every_waits_for_the_call_in_progress(self):
        entered = threading.Event()
        release = threading.Event()
        finished = []

        def call():
            entered.set()
            release.wait(5.0)
            finished.append(True)

        timer = Clock().every(3600.0, call)
        assert entered.wait(5.0)
        threading.Timer(0.05, release.set).start()
        timer.cancel()
        assert finished == [True]


def test_a_machine_reads_the_clock_it_was_given():
    clock = ManualClock()
    assert Machine(2, clock=clock).clock is clock
    assert type(Machine(2).clock) is Clock
