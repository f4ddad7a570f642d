"""The do_all primitive (§5.2.1)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.calls.do_all import do_all
from repro.pcn.defvar import DefVar
from repro.vp.machine import Machine


@pytest.fixture
def m4():
    return Machine(4)


class TestExecution:
    def test_runs_once_per_processor_with_index(self, m4):
        seen = []
        lock = threading.Lock()

        def program(index, parms, status):
            with lock:
                seen.append((index, threading.current_thread().name))
            status.define(index)

        result = do_all(m4, [0, 1, 2, 3], program, None, max)
        assert result == 3
        assert sorted(i for i, _ in seen) == [0, 1, 2, 3]
        # Each copy ran on its own processor's thread.
        names = {name for _, name in seen}
        assert len(names) == 4

    def test_subset_of_processors(self, m4):
        indices = []
        lock = threading.Lock()

        def program(index, parms, status):
            with lock:
                indices.append(index)
            status.define(0)

        do_all(m4, [1, 3], program, None, max)
        assert sorted(indices) == [0, 1]

    def test_parms_passed_verbatim_to_every_copy(self, m4):
        payload = {"key": "value"}
        seen = []
        lock = threading.Lock()

        def program(index, parms, status):
            with lock:
                seen.append(parms)
            status.define(0)

        do_all(m4, [0, 1], program, payload, max)
        assert all(p is payload for p in seen)

    def test_empty_group_rejected(self, m4):
        with pytest.raises(ValueError):
            do_all(m4, [], lambda i, p, s: s.define(0), None, max)


class TestCombining:
    def test_pairwise_fold_in_index_order(self, m4):
        """§3.3.1.2 demands associativity only, so the fold must preserve
        index order for non-commutative combines."""

        def program(index, parms, status):
            status.define([index])

        result = do_all(m4, [0, 1, 2, 3], program, None, lambda a, b: a + b)
        assert result == [0, 1, 2, 3]

    def test_status_out_defined_only_on_completion(self, m4):
        gate = threading.Event()
        status_out = DefVar("Status")

        def program(index, parms, status):
            if index == 1:
                gate.wait(timeout=5)
            status.define(index)

        runner = threading.Thread(
            target=do_all,
            args=(m4, [0, 1], program, None, max, status_out),
        )
        runner.start()
        time.sleep(0.05)
        assert not status_out.data()  # §4.1.2: defined only after completion
        gate.set()
        runner.join(timeout=5)
        assert status_out.read() == 1


class TestFailure:
    def test_copy_exception_propagates(self, m4):
        def program(index, parms, status):
            if index == 2:
                raise RuntimeError("copy 2 died")
            status.define(0)

        with pytest.raises(RuntimeError, match="copy 2 died"):
            do_all(m4, [0, 1, 2, 3], program, None, max)

    def test_copy_never_defines_status_times_out(self, m4):
        def program(index, parms, status):
            if index != 0:
                status.define(0)
            # copy 0 forgets to define its status

        with pytest.raises(TimeoutError):
            do_all(m4, [0, 1], program, None, max, timeout=0.2)

    def test_first_error_is_the_lowest_copys(self, m4):
        """Copies start highest index first but are joined in index
        order: of two copies that raise, the lower one's error is the
        call's."""

        def program(index, parms, status):
            if index in (1, 3):
                raise RuntimeError(f"copy {index} died")
            status.define(0)

        with pytest.raises(RuntimeError, match="copy 1 died"):
            do_all(m4, [0, 1, 2, 3], program, None, max)


class TestStartOrder:
    def test_copies_start_highest_index_first(self, monkeypatch):
        """A reduce toward copy 0 finds its partners' partials buffered:
        ``do_all`` places copy P - 1 first and copy 0 last, and EX-6.1's
        answer and its 6(P - 1) one-word messages stay as they were."""
        from repro.apps import innerproduct
        from repro.core.runtime import IntegratedRuntime
        from repro.vp.processor import VirtualProcessor

        started = []
        spawn = VirtualProcessor.spawn

        def spy(self, target, *args, name="", **kwargs):
            if name.startswith("do_all["):
                started.append(args[0])
            return spawn(self, target, *args, name=name, **kwargs)

        monkeypatch.setattr(VirtualProcessor, "spawn", spy)
        rt = IntegratedRuntime(8)
        rt.machine.reset_traffic()
        result = innerproduct.run(rt, local_m=4)
        assert result == innerproduct.expected_inner_product(32)
        assert started == [7, 6, 5, 4, 3, 2, 1, 0]
        assert rt.machine.traffic_snapshot() == {"messages": 42, "bytes": 336}
