"""Task farms over disjoint processor groups (§2.3.4)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.farm import TaskFarm


class TestValidation:
    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            TaskFarm([[0, 1], [1, 2]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TaskFarm([])


class TestScheduling:
    def test_results_in_job_order(self):
        farm = TaskFarm([[0], [1], [2]])
        result = farm.run([lambda g, j=j: j * j for j in range(9)])
        assert result.results == [j * j for j in range(9)]

    def test_jobs_receive_their_group(self):
        farm = TaskFarm([[0, 1], [2, 3]])
        result = farm.run([lambda g: tuple(g) for _ in range(6)])
        assert set(result.results) <= {(0, 1), (2, 3)}

    def test_all_groups_participate_when_jobs_block(self):
        """With jobs that take real time, every worker pulls work."""
        farm = TaskFarm([[0], [1], [2], [3]])

        def job(group):
            time.sleep(0.02)
            return group[0]

        result = farm.run([job] * 12)
        assert all(count > 0 for count in result.jobs_per_group)
        assert sum(result.jobs_per_group) == 12

    def test_concurrent_execution_across_groups(self):
        barrier = threading.Barrier(3, timeout=5)
        farm = TaskFarm([[0], [1], [2]])

        def job(group):
            barrier.wait()
            return True

        assert farm.run([job] * 3).results == [True] * 3

    def test_fewer_jobs_than_groups(self):
        farm = TaskFarm([[0], [1], [2], [3]])
        result = farm.run([lambda g: "only"])
        assert result.results == ["only"]

    def test_zero_jobs(self):
        farm = TaskFarm([[0]])
        assert farm.run([]).results == []

    def test_load_imbalance_metric(self):
        farm = TaskFarm([[0], [1]])
        result = farm.run([lambda g: time.sleep(0.01) for _ in range(8)])
        assert result.load_imbalance() >= 1.0

    def test_job_exception_propagates(self):
        farm = TaskFarm([[0]])

        def bad(group):
            raise ValueError("job failed")

        with pytest.raises(ValueError, match="job failed"):
            farm.run([bad])

    def test_job_exception_does_not_hang_idle_peers(self):
        """Workers wait with no timeout, so a crashing job must wake its
        blocked peers explicitly or the run would hang forever."""
        farm = TaskFarm([[0], [1], [2]])
        release = threading.Event()

        def bad(group):
            release.wait(5)
            raise ValueError("boom")

        # One job, three workers: two peers block on the empty queue.
        release.set()
        with pytest.raises(ValueError, match="boom"):
            farm.run([bad])


class TestIdleWakeup:
    def test_idle_workers_do_no_timed_polling(self):
        """Regression for the 20 ms busy-wait: every wait on the farm's
        condition variable must be untimed (pure ``notify_all`` wakeup)."""
        farm = TaskFarm([[0], [1], [2], [3]])
        timeouts = []
        original_wait = farm._cond.wait

        def spying_wait(timeout=None):
            timeouts.append(timeout)
            return original_wait(timeout)

        farm._cond.wait = spying_wait

        def slow(group):
            # Hold the queue empty long enough that idle workers would
            # have polled several times under the old 20 ms timeout.
            time.sleep(0.1)
            return group[0]

        result = farm.run([slow])
        assert result.results[0] in (0, 1, 2, 3)
        assert timeouts, "idle workers never blocked on the condition"
        assert all(t is None for t in timeouts)
