"""The alternative integration model (§2.2): task-parallel subprograms in
a data-parallel computation."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.alternative import call_task_parallel_on
from repro.core.darray import DistributedArray
from repro.pcn.composition import par


class TestElementScope:
    def test_one_instance_per_element(self, rt4):
        with rt4.array("double", (8,), distrib=["block"]) as arr:
            seen = []
            lock = threading.Lock()

            def program(idx, value):
                with lock:
                    seen.append(idx)

            count = call_task_parallel_on(arr, program)
            assert count == 8
            assert sorted(seen) == [(i,) for i in range(8)]

    def test_return_value_written_back(self, rt4):
        with rt4.array("double", (8,), distrib=["block"]) as arr:
            arr.from_numpy(np.arange(8, dtype=float))
            call_task_parallel_on(arr, lambda idx, v: v * 10)
            assert list(arr.to_numpy()) == [i * 10.0 for i in range(8)]

    def test_none_return_leaves_element(self, rt4):
        with rt4.array("double", (8,), distrib=["block"]) as arr:
            arr.from_numpy(np.arange(8, dtype=float))
            call_task_parallel_on(
                arr, lambda idx, v: v + 100 if idx[0] % 2 == 0 else None
            )
            out = arr.to_numpy()
            assert list(out[0::2]) == [100.0, 102.0, 104.0, 106.0]
            assert list(out[1::2]) == [1.0, 3.0, 5.0, 7.0]

    def test_instances_run_concurrently(self, rt4):
        """The paper: concurrently once per element — instances can
        rendezvous, which sequential execution could not."""
        with rt4.array("double", (4,), distrib=["block"]) as arr:
            barrier = threading.Barrier(4, timeout=5)

            def program(idx, value):
                barrier.wait()
                return float(idx[0])

            call_task_parallel_on(arr, program)
            assert list(arr.to_numpy()) == [0.0, 1.0, 2.0, 3.0]

    def test_instances_may_spawn_processes(self, rt4):
        """Each copy of the task-parallel program can consist of multiple
        processes (§2.2)."""
        with rt4.array("double", (4,), distrib=["block"]) as arr:

            def program(idx, value):
                partials = par(lambda: idx[0], lambda: 1)
                return float(sum(partials))

            call_task_parallel_on(arr, program)
            assert list(arr.to_numpy()) == [1.0, 2.0, 3.0, 4.0]

    def test_2d_indices(self, rt4):
        with rt4.array(
            "double", (4, 4), distrib=(("block", 2), ("block", 2))
        ) as arr:
            call_task_parallel_on(
                arr, lambda idx, v: float(10 * idx[0] + idx[1])
            )
            expected = np.array(
                [[10 * i + j for j in range(4)] for i in range(4)], float
            )
            assert np.array_equal(arr.to_numpy(), expected)

    def test_caller_suspends_until_all_instances_finish(self, rt4):
        with rt4.array("double", (4,), distrib=["block"]) as arr:
            release = threading.Event()

            def program(idx, value):
                if idx[0] == 0:
                    release.wait(timeout=5)
                return 1.0

            done = []

            def caller():
                call_task_parallel_on(arr, program)
                done.append(True)

            t = threading.Thread(target=caller)
            t.start()
            import time

            time.sleep(0.05)
            assert not done
            release.set()
            t.join(timeout=5)
            assert done


class TestSectionScope:
    def test_one_instance_per_section(self, rt4):
        with rt4.array("double", (8,), distrib=["block"]) as arr:
            seen = []
            lock = threading.Lock()

            def program(section, data):
                with lock:
                    seen.append((section, data.shape))

            count = call_task_parallel_on(arr, program, scope="section")
            assert count == 4
            assert sorted(seen) == [(s, (2,)) for s in range(4)]

    def test_returned_block_replaces_section(self, rt4):
        with rt4.array("double", (8,), distrib=["block"]) as arr:
            call_task_parallel_on(
                arr,
                lambda section, data: np.full_like(data, float(section)),
                scope="section",
            )
            assert list(arr.to_numpy()) == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_program_receives_copy_not_alias(self, rt4):
        with rt4.array("double", (8,), distrib=["block"]) as arr:
            arr.from_numpy(np.zeros(8))

            def program(section, data):
                data[:] = 99.0  # mutating the copy, returning None

            call_task_parallel_on(arr, program, scope="section")
            assert np.all(arr.to_numpy() == 0.0)


class TestValidation:
    def test_bad_scope(self, rt4):
        with rt4.array("double", (4,), distrib=["block"]) as arr:
            with pytest.raises(ValueError):
                call_task_parallel_on(arr, lambda i, v: v, scope="row")

    def test_instance_exception_propagates(self, rt4):
        with rt4.array("double", (4,), distrib=["block"]) as arr:

            def bad(idx, value):
                if idx[0] == 2:
                    raise RuntimeError("element 2 failed")

            with pytest.raises(RuntimeError, match="element 2"):
                call_task_parallel_on(arr, bad)


class TestAfterRecovery:
    @pytest.mark.parametrize("scope, instances", [("element", 8), ("section", 4)])
    def test_runs_on_the_membership_recovery_left(self, rt8, scope, instances):
        """Regression: a handle kept the owners it was created with, so
        once recovery had moved section 2 off failed processor 2 every
        call still tried to spawn an instance there."""
        from repro.arrays import install_recovery

        machine = rt8.machine
        install_recovery(machine)
        arr = DistributedArray.create(
            machine, "double", (8,), [0, 1, 2, 3], ["block"], replication=1
        )
        arr.from_numpy(np.arange(8.0))
        machine.fail(2)
        if scope == "element":
            count = call_task_parallel_on(arr, lambda idx, value: 10 * value)
        else:
            count = call_task_parallel_on(
                arr, lambda section, data: 10 * data, scope="section"
            )
        assert count == instances
        assert arr.to_numpy().tolist() == [10.0 * i for i in range(8)]
        assert arr.processors == (0, 1, 4, 3)
