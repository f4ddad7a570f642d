"""Definitional variables under a hostile scheduler.

``DefVar`` reads a defined variable without a lock and builds its wait
state only when a reader really suspends, so the places where a wake-up
could be missed or a second definition slip through are exactly the
interleavings a 5 ms switch interval almost never produces.  These tests
run with a 1 µs interval, which preempts between nearly every pair of
bytecodes.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.pcn import defvar
from repro.pcn.defvar import DefVar, Tally
from repro.status import SingleAssignmentError

ROUNDS = 200
JOIN_S = 10.0


@pytest.fixture(autouse=True)
def tiny_switch_interval():
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(saved)


def run_threads(*targets):
    """Start one thread per target behind a common barrier; join all."""
    barrier = threading.Barrier(len(targets))

    def gated(fn):
        def body():
            barrier.wait(timeout=JOIN_S)
            fn()
        return body

    threads = [threading.Thread(target=gated(fn)) for fn in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=JOIN_S)
    assert not any(t.is_alive() for t in threads), "a thread never finished"


def test_readers_racing_one_definer_all_get_the_value():
    for round_ in range(ROUNDS):
        var = DefVar("raced")
        seen = []

        def reader():
            seen.append(var.read(timeout=JOIN_S))

        run_threads(*[reader] * 6, lambda: var.define(round_))
        assert seen == [round_] * 6
        assert var._sleepers is None and var._callbacks is None


def test_two_racing_defines_raise_exactly_once():
    for round_ in range(ROUNDS):
        var = DefVar("contested")
        outcomes = []

        def definer(value):
            def body():
                try:
                    var.define(value)
                except SingleAssignmentError:
                    outcomes.append(("lost", value))
                else:
                    outcomes.append(("won", value))
            return body

        run_threads(definer("a"), definer("b"))
        assert sorted(kind for kind, _ in outcomes) == ["lost", "won"]
        winner = next(value for kind, value in outcomes if kind == "won")
        assert var.read() == winner


def test_on_define_registered_during_the_race_fires_exactly_once():
    for round_ in range(ROUNDS):
        var = DefVar("watched")
        fired = []
        fired_lock = threading.Lock()

        def register(tag):
            def body():
                def callback(value):
                    with fired_lock:
                        fired.append((tag, value))
                var.on_define(callback)
            return body

        run_threads(
            register(0), register(1), register(2), lambda: var.define(round_)
        )
        assert sorted(fired) == [(0, round_), (1, round_), (2, round_)]


def test_read_of_a_defined_variable_neither_registers_nor_fires_hooks():
    var = DefVar("ready")
    fired = []
    var.on_define(fired.append)
    var.define(1)
    for _ in range(1000):
        assert var.read() == 1
    assert fired == [1]
    assert threading.get_ident() not in defvar.blocked_reads()


def test_real_suspension_registers_fires_the_hook_and_unregisters():
    var = DefVar("slow")
    got, fired = [], []
    var.on_define(fired.append)
    reader = threading.Thread(
        target=lambda: got.append(var.read(timeout=JOIN_S))
    )
    reader.start()
    deadline = time.monotonic() + JOIN_S
    while reader.ident not in defvar.blocked_reads():
        assert time.monotonic() < deadline, "reader never suspended"
        time.sleep(0.001)
    assert defvar.blocked_reads()[reader.ident] == "slow"
    assert fired == []
    var.define("late")
    reader.join(timeout=JOIN_S)
    assert not reader.is_alive()
    assert got == ["late"]
    assert reader.ident not in defvar.blocked_reads()
    assert fired == ["late"]


def test_read_timeout_unregisters_and_leaves_no_wait_state_behind():
    var = DefVar("never")
    me = threading.get_ident()
    for _ in range(20):
        with pytest.raises(TimeoutError):
            var.read(timeout=0.001)
        assert me not in defvar.blocked_reads()
    # A reader that polls must not grow the variable's wake list.
    assert var._sleepers == []
    var.define("finally")
    assert var.read() == "finally"


def test_definition_racing_a_timeout_is_never_lost():
    """The reader either times out or returns the value — and once the
    definer has returned, a fresh read returns at once."""
    for _ in range(ROUNDS):
        var = DefVar("edge")
        results = []

        def reader():
            try:
                results.append(var.read(timeout=0.0005))
            except TimeoutError:
                results.append("timeout")

        run_threads(reader, lambda: var.define("v"))
        assert results in (["v"], ["timeout"])
        assert var.read(timeout=0) == "v"


def test_answers_racing_into_a_tally_wake_its_reader_exactly_once():
    """Six answerers and a forgetter race for the last part: whoever takes
    it defines the tally once, with every answer folded in, and the reader
    suspended on it wakes — a missed last answer would hang here."""
    for round_ in range(ROUNDS):
        tally = Tally(7, lambda folded, answer: folded + answer, 0, "raced")
        definitions = []
        tally.on_define(definitions.append)
        seen = []
        errors = []

        def reader():
            seen.append(tally.read(timeout=JOIN_S))

        def answerer(value):
            def body():
                try:
                    tally.define(value)
                except SingleAssignmentError as exc:
                    errors.append(exc)
            return body

        run_threads(
            reader, tally.forget, *[answerer(10 ** i) for i in range(6)]
        )
        assert errors == []
        assert seen == definitions == [111111]
        assert tally._sleepers is None and tally._callbacks is None
        with pytest.raises(SingleAssignmentError):
            tally.define(round_)
