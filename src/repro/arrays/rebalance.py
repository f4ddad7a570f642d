"""Metrics-driven rebalancing: close the loop from telemetry to placement.

PR 4 gave the machine runtime metrics (mailbox depth gauges, receive-wait
histograms); this module reads them back and turns them into
:class:`~repro.arrays.placement.PlacementPlan`\\ s, so a machine whose
shape or load changed can *act* on what it observes — the "Chunks and
Tasks" posture that dynamic algorithms need dynamic placement.

The :class:`Rebalancer` is deliberately a policy shell around mechanisms
that live elsewhere: it only ever *proposes* plans (from
``repro_mailbox_depth`` and ``repro_mailbox_recv_wait_seconds``) and
applies them through ``ArrayManager.migrate_sections`` /
``rebalance_array`` — the same transactional mover recovery uses, so a
bad proposal can fail safely and roll back.

Signals, per virtual processor:

* **mailbox depth** (gauge) — messages delivered but not yet received;
  a persistently deep mailbox marks an overloaded VP.
* **mean receive wait** (histogram sum/count) — how long receivers sit
  idle waiting for traffic; a long wait marks an *underloaded* VP.

``load(vp) = depth - wait_weight * mean_wait`` folds both into one
score: hot VPs score high, idle VPs score low (possibly negative).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.arrays.placement import MigrationError, PlacementPlan
from repro.status import Status

DEPTH_METRIC = "repro_mailbox_depth"
WAIT_METRIC = "repro_mailbox_recv_wait_seconds"


class Rebalancer:
    """Propose and apply placement changes from observed load.

    ``imbalance_ratio`` — a section moves only when its owner's load is
    at least this multiple of the best candidate's (hysteresis against
    thrashing); ``min_load`` — owners below this absolute load are never
    considered hot; ``wait_weight`` — how strongly idle receive-wait
    discounts a VP's load score.
    """

    def __init__(
        self,
        machine: Any,
        imbalance_ratio: float = 2.0,
        min_load: float = 1.0,
        wait_weight: float = 1.0,
    ) -> None:
        if imbalance_ratio < 1.0:
            raise ValueError("imbalance_ratio must be >= 1.0")
        self.machine = machine
        self.imbalance_ratio = float(imbalance_ratio)
        self.min_load = float(min_load)
        self.wait_weight = float(wait_weight)
        # Applied-step log for tests and operators.
        self.history: List[dict] = []

    # -- signal extraction ----------------------------------------------------

    def loads(self) -> Dict[int, float]:
        """Per-VP load scores from the installed observer's metrics.

        Every processor gets a score (0.0 when no metric has touched it
        yet — a VP added a moment ago is a cold, attractive target).
        Empty when no observer is installed: no telemetry, no opinions.
        """
        observer = getattr(self.machine, "_observer", None)
        if observer is None:
            return {}
        depth: Dict[int, float] = {}
        wait: Dict[int, float] = {}
        for instrument in observer.metrics.instruments():
            labels = dict(instrument.labels)
            vp = labels.get("vp")
            if vp is None or not str(vp).isdigit():
                continue
            vp = int(vp)
            if instrument.name == DEPTH_METRIC:
                depth[vp] = float(instrument.value)
            elif instrument.name == WAIT_METRIC:
                sample = instrument.sample()
                if sample["count"]:
                    wait[vp] = sample["sum"] / sample["count"]
        return {
            p: depth.get(p, 0.0) - self.wait_weight * wait.get(p, 0.0)
            for p in range(self.machine.num_nodes)
        }

    # -- planning -------------------------------------------------------------

    def propose(self) -> List[PlacementPlan]:
        """One plan per durable array that should change placement.

        Two rules, in priority order:

        1. **Repair** — :meth:`PlacementPlan.rebalance`: any section owned
           by a failed processor moves to a spare unconditionally (the
           metric gates do not apply to correctness), and a lost section
           stays where it is;
        2. **Spread** — only when there is nothing to repair: the hottest
           owner sheds its section to the coldest spare when its load
           clears ``min_load`` and exceeds the spare's by
           ``imbalance_ratio``.
        """
        manager = getattr(self.machine, "_array_manager", None)
        if manager is None:
            return []
        machine = self.machine
        scores = self.loads()
        plans: List[PlacementPlan] = []
        for _array_id, state in manager.durability_states():
            with state.lock:
                try:
                    plan = PlacementPlan.rebalance(state, machine)
                    if plan is None and scores:
                        plan = self._spread(state, scores)
                except MigrationError:
                    plan = None
            if plan is not None:
                plans.append(plan)
        return plans

    def _spread(
        self, state: Any, scores: Dict[int, float]
    ) -> Optional[PlacementPlan]:
        """The spread rule's plan for one array, None when no owner is hot
        enough or no spare is free."""
        machine = self.machine
        owners = tuple(state.processors)
        spares = [
            p
            for p in range(machine.num_nodes)
            if not machine.is_unavailable(p) and p not in owners
        ]
        live = [
            (scores.get(p, 0.0), s, p)
            for s, p in enumerate(owners)
            if not machine.is_unavailable(p)
        ]
        if not spares or not live:
            return None
        hot_load, hot_section, _hot = max(live)
        cold = min(spares, key=lambda p: scores.get(p, 0.0))
        cold_load = scores.get(cold, 0.0)
        if hot_load >= self.min_load and (
            hot_load
            >= self.imbalance_ratio * max(cold_load, 0.0)
            + (0.0 if cold_load > 0 else self.min_load)
        ):
            return PlacementPlan.from_assignments(state, {hot_section: cold})
        return None

    # -- actuation ------------------------------------------------------------

    def step(self) -> List[dict]:
        """Propose and apply: one closed-loop iteration.

        Returns one entry per attempted plan with the array, the moves,
        and whether the transactional migration committed.
        """
        from repro.arrays import am_user

        applied: List[dict] = []
        for plan in self.propose():
            moved, status = am_user.migrate_sections(
                self.machine, plan.array_id, plan
            )
            entry = {
                "array": plan.array_id.as_tuple(),
                "moves": [
                    (m.section, m.source, m.dest) for m in plan.moves
                ],
                "ok": status is Status.OK,
                "moved": list(moved) if moved is not None else [],
            }
            applied.append(entry)
            self.history.append(entry)
        return applied
