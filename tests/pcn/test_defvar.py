"""Definitional and mutable variables (§3.1.1.2-§3.1.1.4, §A.2)."""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pcn.defvar import (
    DefVar,
    Mutable,
    Tally,
    data,
    resolve,
    wait_all,
)
from repro.status import SharedVariableConflictError, SingleAssignmentError


class TestDefVarBasics:
    def test_starts_undefined(self):
        v = DefVar("x")
        assert not v.data()

    def test_define_then_read(self):
        v = DefVar("x")
        v.define(42)
        assert v.read() == 42
        assert v.data()

    def test_read_returns_same_value_every_time(self):
        v = DefVar()
        v.define("hello")
        assert v.read() == v.read() == "hello"

    def test_double_definition_raises(self):
        v = DefVar("x")
        v.define(1)
        with pytest.raises(SingleAssignmentError):
            v.define(2)

    def test_double_definition_same_value_still_raises(self):
        # PCN definition is single-assignment, not idempotent-assignment.
        v = DefVar()
        v.define(1)
        with pytest.raises(SingleAssignmentError):
            v.define(1)

    def test_peek_on_undefined_raises(self):
        with pytest.raises(ValueError):
            DefVar().peek()

    def test_none_is_a_legal_value(self):
        v = DefVar()
        v.define(None)
        assert v.data()
        assert v.read() is None

    def test_read_timeout_on_never_defined(self):
        v = DefVar("never")
        with pytest.raises(TimeoutError):
            v.read(timeout=0.05)

    def test_repr_states(self):
        v = DefVar("myvar")
        assert "undefined" in repr(v)
        v.define(3)
        assert "3" in repr(v)


class TestDefVarSuspension:
    def test_reader_suspends_until_definition(self):
        """The §3.1.1.2 semantics: a process that requires the value of an
        undefined variable is suspended until the variable is defined."""
        v = DefVar("x")
        order = []

        def reader():
            order.append("reading")
            value = v.read()
            order.append(("got", value))

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        order.append("defining")
        v.define(99)
        t.join(timeout=5)
        assert order == ["reading", "defining", ("got", 99)]

    def test_many_readers_all_get_same_value(self):
        v = DefVar()
        results = []
        lock = threading.Lock()

        def reader():
            value = v.read()
            with lock:
                results.append(value)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        v.define("shared")
        for t in threads:
            t.join(timeout=5)
        assert results == ["shared"] * 8

    def test_on_define_callback_after(self):
        v = DefVar()
        seen = []
        v.on_define(seen.append)
        assert seen == []
        v.define(7)
        assert seen == [7]

    def test_on_define_callback_immediate_when_defined(self):
        v = DefVar()
        v.define(7)
        seen = []
        v.on_define(seen.append)
        assert seen == [7]

    def test_define_with_defvar_aliases(self):
        """Defining X := Y propagates Y's eventual value to X."""
        x, y = DefVar("x"), DefVar("y")
        x.define(y)
        assert not x.data()
        y.define(5)
        assert x.read() == 5

    def test_wait_all(self):
        vs = [DefVar() for _ in range(4)]
        for i, v in enumerate(vs):
            v.define(i)
        assert wait_all(iter(vs)) == [0, 1, 2, 3]


class TestDataGuardAndResolve:
    def test_data_on_plain_values(self):
        assert data(3)
        assert data("s")
        assert data(None)

    def test_data_on_defvar(self):
        v = DefVar()
        assert not data(v)
        v.define(0)
        assert data(v)

    def test_resolve_plain(self):
        assert resolve(10) == 10

    def test_resolve_defvar(self):
        v = DefVar()
        v.define(10)
        assert resolve(v) == 10


class TestDefVarRace:
    def test_concurrent_define_exactly_one_wins(self):
        """Racing definitions: exactly one succeeds, others raise."""
        for _ in range(20):
            v = DefVar()
            outcomes = []
            lock = threading.Lock()
            barrier = threading.Barrier(4)

            def attempt(i):
                barrier.wait()
                try:
                    v.define(i)
                    with lock:
                        outcomes.append(("ok", i))
                except SingleAssignmentError:
                    with lock:
                        outcomes.append(("fail", i))

            threads = [
                threading.Thread(target=attempt, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5)
            winners = [o for o in outcomes if o[0] == "ok"]
            assert len(winners) == 1
            assert v.read() == winners[0][1]


class TestMutable:
    def test_owner_thread_may_write(self):
        m = Mutable(0)
        m.set(1)
        m.set(2)
        assert m.get() == 2

    def test_foreign_thread_write_raises(self):
        """§3.1.1.4: concurrent sharers must not modify a shared mutable."""
        m = Mutable(0)
        error = []

        def writer():
            try:
                m.set(5)
            except SharedVariableConflictError as exc:
                error.append(exc)

        t = threading.Thread(target=writer)
        t.start()
        t.join(timeout=5)
        assert len(error) == 1
        assert m.get() == 0

    def test_foreign_thread_read_is_fine(self):
        m = Mutable(42)
        seen = []
        t = threading.Thread(target=lambda: seen.append(m.get()))
        t.start()
        t.join(timeout=5)
        assert seen == [42]

    def test_transfer_allows_new_owner(self):
        m = Mutable(0)
        m.transfer(None)
        done = []

        def writer():
            m.adopt()
            m.set(9)
            done.append(True)

        t = threading.Thread(target=writer)
        t.start()
        t.join(timeout=5)
        assert done and m.get() == 9

    def test_adopt_when_owned_by_other_raises(self):
        m = Mutable(0)  # owned by this thread
        errors = []

        def other():
            try:
                m.adopt()
            except SharedVariableConflictError as exc:
                errors.append(exc)

        t = threading.Thread(target=other)
        t.start()
        t.join(timeout=5)
        assert len(errors) == 1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers() | st.text() | st.none(), min_size=1, max_size=8))
def test_property_defvars_deliver_exact_values(values):
    """Whatever is defined is exactly what every reader sees."""
    variables = [DefVar(f"v{i}") for i in range(len(values))]
    for var, value in zip(variables, values):
        var.define(value)
    assert [v.read() for v in variables] == values


class TestTally:
    """One variable answered in parts (the status of a fan-out)."""

    def test_defined_by_the_last_answer_with_the_fold_of_all(self):
        tally = Tally(3, max, 0, "status")
        tally.define(2)
        tally.define(0)
        assert not tally.data()
        tally.define(1)
        assert tally.read(timeout=0) == 2

    def test_fold_starts_from_the_initial_value_in_answer_order(self):
        tally = Tally(3, lambda folded, answer: folded + [answer], ["start"])
        for answer in "abc":
            tally.define(answer)
        assert tally.read(timeout=0) == ["start", "a", "b", "c"]

    def test_no_parts_is_defined_at_birth(self):
        tally = Tally(0, max, 7)
        assert tally.data() and tally.read(timeout=0) == 7
        with pytest.raises(SingleAssignmentError):
            tally.define(1)
        with pytest.raises(SingleAssignmentError):
            tally.forget()

    def test_one_answer_too_many_raises(self):
        tally = Tally(2, max, 0, "status")
        tally.define(0)
        tally.define(0)
        with pytest.raises(SingleAssignmentError, match="status"):
            tally.define(0)
        assert tally.read(timeout=0) == 0

    def test_forget_stands_in_for_an_answer_that_will_not_come(self):
        tally = Tally(3, max, 0)
        tally.define(1)
        tally.forget()
        assert not tally.data()
        tally.forget()
        assert tally.read(timeout=0) == 1

    def test_all_forgotten_is_the_initial_value(self):
        tally = Tally(2, max, 0)
        tally.forget()
        tally.forget()
        assert tally.read(timeout=0) == 0

    def test_is_a_defvar_to_everything_that_takes_one(self):
        tally = Tally(1, max, 0, "t")
        seen = []
        tally.on_define(seen.append)
        assert isinstance(tally, DefVar) and not data(tally)
        tally.define(5)
        assert seen == [5] and resolve(tally) == 5 and tally.peek() == 5

    def test_answering_with_a_variable_answers_when_it_is_defined(self):
        tally = Tally(2, max, 0)
        later = DefVar("later")
        tally.define(later)
        tally.define(1)
        assert not tally.data()
        later.define(3)
        assert tally.read(timeout=0) == 3

    def test_suspended_reader_wakes_on_the_last_answer(self):
        tally = Tally(2, max, 0)
        got = []
        reader = threading.Thread(
            target=lambda: got.append(tally.read(timeout=5))
        )
        reader.start()
        tally.define(1)
        reader.join(timeout=0.05)
        assert reader.is_alive() and got == []
        tally.define(0)
        reader.join(timeout=5)
        assert got == [1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(0, 99)), max_size=8))
def test_property_tally_is_defined_once_by_the_last_part_with_the_fold(parts):
    """Whatever the mix and order of answers (an int) and forgets (None):
    undefined until the last part, then the fold of exactly the answers,
    and closed to any further part."""
    tally = Tally(len(parts), max, -1, "t")
    definitions = []
    tally.on_define(definitions.append)
    for part in parts:
        assert not tally.data() and definitions == []
        if part is None:
            tally.forget()
        else:
            tally.define(part)
    expected = max([-1] + [part for part in parts if part is not None])
    assert tally.read(timeout=0) == expected
    assert definitions == [expected]
    for one_too_many in (tally.forget, lambda: tally.define(0)):
        with pytest.raises(SingleAssignmentError):
            one_too_many()
    assert tally.read(timeout=0) == expected
