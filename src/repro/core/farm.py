"""Inherently parallel computations (§2.3.4, Fig 2.4).

A problem in this class decomposes into independent subproblems, each
solvable by a data-parallel program, with minimal or no communication among
them — the thesis' example is generating animation frames, two or more
frames generated independently and concurrently, each by a different
data-parallel program.

:class:`TaskFarm` schedules independent jobs over disjoint processor
groups: one PCN worker process per group pulls jobs from a shared queue and
runs each job's distributed call(s) on its group.  With G groups the farm
exposes G-way concurrency — the FIG-2.4 benchmark measures the ~linear
scaling.

Failure semantics: a group whose processors die mid-farm (its job raises
:class:`~repro.status.ProcessorFailedError`) is retired and its in-flight
job is requeued onto the surviving groups, so the farm completes every job
with degraded concurrency — the failure-resilience-by-re-execution posture
of Chunks and Tasks (arXiv:1210.7427).  Only when *every* group has died
does the farm raise.

With a failure detector attached (:meth:`TaskFarm.attach_detector`) the
farm distinguishes *suspected* from *confirmed-dead* processors: a group
containing a suspect is **parked** — its worker stops pulling jobs and an
in-flight job that times out is requeued, not failed — until the suspect
either proves alive (group resumes) or hardens to a dead verdict (group
retires, and is revived if the VP is later quarantined and rejoined as a
false positive).  Parking instead of retiring is what keeps a transient
network partition from permanently halving farm concurrency.
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.pcn.process import ProcessGroup
from repro.status import ProcessorFailedError

Job = Callable[[Sequence[int]], Any]


@dataclass
class FarmResult:
    results: list
    wall_time: float
    jobs_per_group: list[int]
    dead_groups: list[int] = field(default_factory=list)
    requeued_jobs: int = 0

    def load_imbalance(self) -> float:
        """max/mean jobs per group (1.0 = perfectly balanced)."""
        if not self.jobs_per_group:
            return 1.0
        mean = sum(self.jobs_per_group) / len(self.jobs_per_group)
        return max(self.jobs_per_group) / mean if mean else 1.0


class TaskFarm:
    """Dynamic job farm over disjoint processor groups."""

    def __init__(self, groups: Sequence[Sequence[int]]) -> None:
        if not groups:
            raise ValueError("a task farm needs at least one group")
        self.groups: list[tuple[int, ...]] = []
        for group in groups:
            members = tuple(int(p) for p in group)
            if not members:
                raise ValueError(
                    "a task-farm group needs at least one processor"
                )
            taken = {p for g in self.groups for p in g}
            if len(set(members)) != len(members) or taken & set(members):
                raise ValueError(
                    "task-farm groups must be disjoint (Fig 3.4: concurrent "
                    "distributed calls run on disjoint processor groups)"
                )
            self.groups.append(members)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        # The in-flight run's shared state (None when idle); a revived
        # group's worker is spliced into it.
        self._run: Optional[dict] = None
        # Detector-driven state (empty/None without attach_detector):
        # parked groups (a member is suspected) and groups retired by a
        # dead verdict (revivable on false-positive rejoin).
        self._detector: Optional[Any] = None
        self._quarantined: set[int] = set()
        self._dead_by_verdict: set[int] = set()

    # -- failure-detector integration -----------------------------------------

    def attach_detector(self, detector: Any) -> None:
        """Subscribe the farm to a :class:`repro.health.FailureDetector`.

        Suspicion parks groups, dead verdicts retire them, and a
        false-positive rejoin revives a retired group mid-run.
        """
        with self._cond:
            if self._detector is detector:
                return
            if self._detector is not None:
                self._detector.remove_listener(self._on_health_event)
            self._detector = detector
        detector.add_listener(self._on_health_event)

    def detach_detector(self) -> None:
        with self._cond:
            detector, self._detector = self._detector, None
            self._quarantined.clear()
            self._dead_by_verdict.clear()
            self._cond.notify_all()
        if detector is not None:
            detector.remove_listener(self._on_health_event)

    def _groups_with(self, vp: int) -> list[int]:
        return [gi for gi, group in enumerate(self.groups) if vp in group]

    def _group_clear(self, group_index: int) -> bool:
        """True when no member of the group is suspected or dead."""
        detector = self._detector
        if detector is None:
            return True
        machine = detector.machine
        return all(
            not detector.is_suspect(p) and not machine.is_unavailable(p)
            for p in self.groups[group_index]
        )

    def _on_health_event(self, event: Any) -> None:
        """Detector listener: translate per-VP verdicts into group state.

        Runs on the detector's monitor (or heartbeat-delivery) thread;
        takes only the farm condition lock, never detector internals.
        """
        with self._cond:
            if self._detector is None:
                return
            if event.transition in ("suspect", "quarantine"):
                self._quarantined.update(self._groups_with(event.vp))
            elif event.transition == "dead":
                for gi in self._groups_with(event.vp):
                    self._quarantined.discard(gi)
                    self._dead_by_verdict.add(gi)
            elif event.transition in ("alive", "rejoin"):
                for gi in self._groups_with(event.vp):
                    if not self._group_clear(gi):
                        continue
                    self._quarantined.discard(gi)
                    if gi in self._dead_by_verdict:
                        self._dead_by_verdict.discard(gi)
                        run = self._run
                        if run is not None:
                            # Revive: splice a fresh worker for the
                            # falsely-declared-dead group into the run.
                            run["state"]["alive_workers"] += 1
                            run["pg"].spawn(run["worker"], gi)
            self._cond.notify_all()

    def run(
        self, jobs: Sequence[Job], timeout: Optional[float] = None
    ) -> FarmResult:
        """Run every job; each ``job(group_processors)`` returns a result.

        Results are returned in job order regardless of which group ran
        which job.  A job that raises ``ProcessorFailedError`` retires its
        group and is requeued for a surviving group; any other exception
        propagates unchanged.

        Idle workers block on the queue's condition variable with **no
        timeout**: they are woken only by job completion, a requeue, a
        change of group state, or an abort — an idle farm does zero timed
        polling.
        """
        pending: collections.deque = collections.deque(enumerate(jobs))
        cond = self._cond
        state = {
            "unfinished": len(jobs),
            "alive_workers": len(self.groups),
            "requeued": 0,
            "aborted": False,
        }
        results: list[Any] = [None] * len(jobs)
        counts = [0] * len(self.groups)
        dead_groups: list[int] = []

        def retire_locked(group_index: int) -> bool:
            """Drop the group from the run; True when it was the last one.

            Caller holds ``cond`` and, on True, must abort + raise.
            """
            state["alive_workers"] -= 1
            dead_groups.append(group_index)
            last_alive = state["alive_workers"] == 0 and state["unfinished"] > 0
            if last_alive:
                state["aborted"] = True
            cond.notify_all()
            return last_alive

        def worker(group_index: int) -> None:
            group = self.groups[group_index]
            while True:
                with cond:
                    while (
                        (not pending or group_index in self._quarantined)
                        and state["unfinished"] > 0
                        and not state["aborted"]
                        and group_index not in self._dead_by_verdict
                    ):
                        cond.wait()
                    if state["unfinished"] == 0 or state["aborted"]:
                        return
                    if group_index in self._dead_by_verdict:
                        # Detector verdict: retire without touching a job
                        # (a rejoin may later revive the group).
                        if retire_locked(group_index):
                            raise ProcessorFailedError(
                                "every task-farm group failed with "
                                f"{state['unfinished']} job(s) unfinished"
                            )
                        return
                    item = pending.popleft()
                job_index, job = item
                try:
                    result = job(group)
                except TimeoutError:
                    with cond:
                        if (
                            group_index in self._quarantined
                            or group_index in self._dead_by_verdict
                        ):
                            # The group is merely suspected (or freshly
                            # verdicted): park, don't fail the run — the
                            # job goes back for survivors or for this
                            # group once it proves alive.
                            pending.append(item)
                            state["requeued"] += 1
                            cond.notify_all()
                            continue
                        state["aborted"] = True
                        cond.notify_all()
                    raise
                except ProcessorFailedError:
                    # This group's processors died: give the job back and
                    # retire the group so survivors pick up the slack.
                    with cond:
                        pending.append(item)
                        state["alive_workers"] -= 1
                        state["requeued"] += 1
                        dead_groups.append(group_index)
                        last_alive = state["alive_workers"] == 0
                        if last_alive:
                            state["aborted"] = True
                        cond.notify_all()
                    if last_alive:
                        raise ProcessorFailedError(
                            "every task-farm group failed with "
                            f"{state['unfinished']} job(s) unfinished"
                        )
                    return
                except BaseException:
                    # Unexpected job failure: without a timed poll, the
                    # peers blocked on cond.wait() must be woken or the
                    # join below would hang on them forever.
                    with cond:
                        state["aborted"] = True
                        cond.notify_all()
                    raise
                results[job_index] = result
                with cond:
                    counts[group_index] += 1
                    state["unfinished"] -= 1
                    cond.notify_all()

        pg = ProcessGroup()
        run_ctx = {"state": state, "pg": pg, "worker": worker}
        started = time.perf_counter()
        with cond:
            if self._run is not None:
                raise RuntimeError("task farm is already running")
            self._run = run_ctx
            for gi in range(len(self.groups)):
                pg.spawn(worker, gi)
        try:
            pg.join_all(timeout=timeout)
        finally:
            with cond:
                self._run = None
                # Leave no worker blocked if join_all raised (timeout).
                state["aborted"] = True
                cond.notify_all()
        wall = time.perf_counter() - started
        return FarmResult(
            results=results,
            wall_time=wall,
            jobs_per_group=counts,
            dead_groups=sorted(dead_groups),
            requeued_jobs=state["requeued"],
        )
