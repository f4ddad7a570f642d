"""The heartbeat failure detector: alive -> suspect -> dead, and back.

``FailureDetector`` runs one round every ``interval`` seconds of the
machine's clock (``machine.clock``, :mod:`repro.vp.clock`).  A round
emits a ``kind="heartbeat"`` message *on behalf of* every live virtual
processor (inside that VP's execution context, through
``Machine.route``) addressed to the monitor VP, then evaluates per-VP
silence.  Because emission goes through the routing choke point, a VP
that is oracle-dead cannot emit (route raises), and an installed
:class:`~repro.faults.transport.FaultyTransport` — including its
:class:`~repro.faults.partition.PartitionPlan` cuts — drops, delays, and
duplicates heartbeats like any other traffic.  Detection is therefore
*inference from observed silence*, with all the failure modes that
implies, rather than a synchronous oracle callback.

Suspicion lifecycle (docs/fault_model.md §9):

* **alive** — heartbeats arriving within ``suspect_after * interval``;
* **suspect** — silence exceeded the suspect threshold.  Reversible: a
  resuming heartbeat flips the VP straight back to alive (a *flap*),
  and nothing destructive has happened;
* **dead** — silence exceeded ``dead_after * interval``.  The verdict
  is fired to listeners (recovery, the task farm), who act exactly as
  they would on an oracle notification;
* **quarantined** — a heartbeat arrived from a VP the detector had
  declared dead *that the oracle never killed*: a false positive (e.g.
  a healed partition).  The VP is fenced — its stale records refuse
  writes by epoch — until a detector round runs the rejoin protocol:
  membership/epoch rewritten onto it, and only then is it alive again
  (``"rejoin"`` verdict).

A verdict changes no route: a send to a suspect is delivered, and only a
send to an oracle-dead VP raises (:meth:`repro.vp.machine.Machine.route`).

``Machine.fail`` remains the scripted-kill entry point: the detector
subscribes to the machine's failure listeners and converts an oracle
kill into an immediate ``"dead"`` verdict, so recovery keeps firing
without waiting out a timeout, and exactly one subsystem — this one —
is the source of failure events either way.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.status import ProcessorFailedError
from repro.vp import fabric
from repro.vp.clock import Timer
from repro.vp.message import Message

HEARTBEAT_KIND = "heartbeat"


class HealthState(enum.Enum):
    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"
    QUARANTINED = "quarantined"


@dataclass(frozen=True)
class HealthEvent:
    """One verdict transition for one VP, fired to detector listeners.

    ``transition`` is ``"suspect"``, ``"alive"`` (a suspect resumed —
    flap back), ``"dead"``, ``"quarantine"`` (a declared-dead VP
    resumed heartbeating), or ``"rejoin"`` (quarantine completed, the
    VP is a member again).  ``reason`` is ``"timeout"`` for inferred
    verdicts and ``"oracle"`` for scripted kills.
    """

    vp: int
    transition: str
    state: HealthState
    at: float
    reason: str = "timeout"


class _VPHealth:
    __slots__ = ("state", "last_seen", "heartbeats")

    def __init__(self, now: float) -> None:
        self.state = HealthState.ALIVE
        self.last_seen = now
        self.heartbeats = 0


class FailureDetector:
    """Heartbeat-based failure detection over the message fabric.

    ``suspect_after`` / ``dead_after`` are thresholds in multiples of
    ``interval``: a VP silent for more than ``suspect_after * interval``
    becomes suspect, for more than ``dead_after * interval`` dead.
    ``monitor`` names the VP whose node collects the heartbeats (the
    detector itself is machine-global, like the failure oracle it
    replaces — the monitor number only fixes which routes the
    heartbeats traverse, so a partition isolating the monitor's side
    makes the *other* side fall silent).
    """

    def __init__(
        self,
        machine: Any,
        interval: float = 0.05,
        suspect_after: float = 3.0,
        dead_after: float = 8.0,
        monitor: int = 0,
    ) -> None:
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if not 0 < suspect_after < dead_after:
            raise ValueError(
                "thresholds must satisfy 0 < suspect_after < dead_after"
            )
        machine.processor(monitor)  # validate range
        self.machine = machine
        self.clock = machine.clock
        self.interval = float(interval)
        self.suspect_after = float(suspect_after)
        self.dead_after = float(dead_after)
        self.monitor = int(monitor)
        self._lock = threading.Lock()
        self._vps: Dict[int, _VPHealth] = {}
        self._listeners: List[Callable[[HealthEvent], None]] = []
        self._pending_rejoin: List[int] = []
        self._events: List[HealthEvent] = []
        self._rounds: Optional[Timer] = None
        self._installed = False
        # Counters surfaced through snapshot()/diagnostics.
        self.heartbeats_received = 0
        self.false_positives = 0
        self.rejoins = 0

    # -- lifecycle -----------------------------------------------------------

    def install(self) -> "FailureDetector":
        """Wire the detector into the machine and start its rounds.

        Registers the ``heartbeat`` kind handler, becomes the machine's
        health authority (``machine._health``), converts oracle kills
        into immediate dead verdicts, and — when a recovery coordinator
        is already installed on the machine's failure listeners —
        migrates it onto detector verdicts so death notifications have
        exactly one source.
        """
        if self._installed:
            return self
        machine = self.machine
        now = self.clock.now()
        with self._lock:
            for p in range(machine.num_nodes):
                self._vps.setdefault(p, _VPHealth(now))
        machine.register_kind_handler(HEARTBEAT_KIND, self._on_heartbeat)
        machine._health = self  # type: ignore[attr-defined]
        machine.add_failure_listener(self._on_oracle_failure)
        self._installed = True
        coordinator = getattr(machine, "_recovery_coordinator", None)
        if coordinator is not None and getattr(
            coordinator, "_installed", False
        ):
            # The coordinator re-subscribes through the detector path
            # now that machine._health is set and installed.
            coordinator.uninstall()
            coordinator.install()
        self._rounds = self.clock.every(self.interval, self._round)
        return self

    def close(self) -> None:
        if not self._installed:
            return
        # Returns once a round in progress on another thread has finished.
        self._rounds.cancel()
        self._rounds = None
        machine = self.machine
        machine.remove_failure_listener(self._on_oracle_failure)
        if getattr(machine, "_health", None) is self:
            machine._health = None
        self._installed = False
        # Hand recovery back to the oracle path so death notifications
        # never go dark.
        coordinator = getattr(machine, "_recovery_coordinator", None)
        if coordinator is not None and getattr(
            coordinator, "_installed", False
        ):
            coordinator.uninstall()
            coordinator.install()

    uninstall = close

    def __enter__(self) -> "FailureDetector":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def installed(self) -> bool:
        return self._installed

    # -- verdict listeners ----------------------------------------------------

    def add_listener(self, listener: Callable[[HealthEvent], None]) -> None:
        """Subscribe to verdicts.  Dedups by ``==`` like the machine's
        failure listeners (bound methods compare equal across accesses)."""
        with self._lock:
            if all(fn != listener for fn in self._listeners):
                self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[HealthEvent], None]) -> None:
        with self._lock:
            self._listeners = [
                fn for fn in self._listeners if fn != listener
            ]

    def _fire(self, events: List[HealthEvent]) -> None:
        """Deliver events outside the detector lock; a listener failure
        must never corrupt detection or the transport path."""
        if not events:
            return
        with self._lock:
            self._events.extend(events)
            listeners = list(self._listeners)
        for event in events:
            for listener in listeners:
                try:
                    listener(event)
                except Exception:  # noqa: BLE001
                    pass

    # -- queries ---------------------------------------------------------------

    def state_of(self, vp: int) -> HealthState:
        with self._lock:
            entry = self._vps.get(vp)
            return entry.state if entry is not None else HealthState.ALIVE

    def is_dead(self, vp: int) -> bool:
        """Dead *or* quarantined: a quarantined VP is fenced out of
        planning decisions until its rejoin completes."""
        with self._lock:
            entry = self._vps.get(vp)
            return entry is not None and entry.state in (
                HealthState.DEAD, HealthState.QUARANTINED
            )

    def is_suspect(self, vp: int) -> bool:
        """Suspected but not confirmed dead (includes quarantine: the VP
        provably lives, its membership just isn't restored yet)."""
        with self._lock:
            entry = self._vps.get(vp)
            return entry is not None and entry.state in (
                HealthState.SUSPECT, HealthState.QUARANTINED
            )

    def events(self) -> List[HealthEvent]:
        with self._lock:
            return list(self._events)

    def snapshot(self) -> dict:
        """Diagnostics block for ``Machine.diagnostics()``."""
        with self._lock:
            return {
                "interval": self.interval,
                "monitor": self.monitor,
                "states": {
                    vp: entry.state.value
                    for vp, entry in sorted(self._vps.items())
                },
                "heartbeats_received": self.heartbeats_received,
                "heartbeats": {
                    vp: entry.heartbeats
                    for vp, entry in sorted(self._vps.items())
                },
                "false_positives": self.false_positives,
                "rejoins": self.rejoins,
                "transitions": len(self._events),
            }

    # -- heartbeat ingestion ---------------------------------------------------

    def _on_heartbeat(self, message: Message) -> None:
        """Final delivery of a ``kind="heartbeat"`` message.

        Duplicates are harmless (last-seen just refreshes twice) and
        stragglers from an oracle-dead VP are ignored — the oracle
        outranks inference.
        """
        vp = message.source
        if self.machine.is_failed(vp):
            return
        now = self.clock.now()
        events: List[HealthEvent] = []
        with self._lock:
            entry = self._vps.get(vp)
            if entry is None:
                entry = self._vps[vp] = _VPHealth(now)
            self.heartbeats_received += 1
            entry.heartbeats += 1
            entry.last_seen = now
            if entry.state is HealthState.SUSPECT:
                # Flap back: the suspect resumed before confirmation.
                entry.state = HealthState.ALIVE
                events.append(
                    HealthEvent(vp, "alive", HealthState.ALIVE, now)
                )
            elif entry.state is HealthState.DEAD:
                # A heartbeat from a VP we declared dead that the oracle
                # never killed: false positive.  Fence it in quarantine;
                # the next detector round performs the rejoin protocol.
                entry.state = HealthState.QUARANTINED
                self.false_positives += 1
                self._pending_rejoin.append(vp)
                events.append(
                    HealthEvent(
                        vp, "quarantine", HealthState.QUARANTINED, now
                    )
                )
        self._fire(events)

    # -- oracle integration ----------------------------------------------------

    def _on_oracle_failure(self, vp: int) -> None:
        """A scripted ``Machine.fail``: immediate dead verdict, no
        timeout — the oracle is ground truth, never a suspicion."""
        now = self.clock.now()
        events: List[HealthEvent] = []
        with self._lock:
            entry = self._vps.get(vp)
            if entry is None:
                entry = self._vps[vp] = _VPHealth(now)
            if entry.state is not HealthState.DEAD:
                entry.state = HealthState.DEAD
                events.append(
                    HealthEvent(
                        vp, "dead", HealthState.DEAD, now, reason="oracle"
                    )
                )
        self._fire(events)

    # -- the rounds ------------------------------------------------------------

    def _round(self) -> None:
        try:
            self.step()
        except Exception:  # noqa: BLE001 - the rounds must survive
            pass

    def step(self) -> None:
        """One detector round: emit heartbeats, evaluate silence, and
        complete pending rejoins."""
        started = self.clock.now()
        self._emit_heartbeats()
        # A kill listener (and the recovery it triggers) runs
        # synchronously inside route(), so one emission can stall a round
        # for seconds.  Heartbeats that arrived *before* the stall then
        # look ancient, and evaluating against them would falsely suspect
        # half the machine.  When the round overran the
        # suspect window, refresh every VP heard from during the round —
        # it was provably alive despite the stall — while a VP silent
        # since before the round keeps accruing real silence, so
        # detection is never starved by persistent slowness.
        if self.clock.now() - started > self.suspect_after * self.interval:
            now = self.clock.now()
            with self._lock:
                for entry in self._vps.values():
                    if entry.last_seen >= started:
                        entry.last_seen = now
        self._evaluate()
        self._complete_rejoins()

    def _emit_heartbeats(self) -> None:
        machine = self.machine
        for p in range(machine.num_nodes):
            if machine.is_failed(p):
                continue
            try:
                with fabric.execution_context(processor=p):
                    machine.send(
                        p,
                        self.monitor,
                        ("heartbeat", p),
                        tag="heartbeat",
                        kind=HEARTBEAT_KIND,
                    )
            except ProcessorFailedError:
                # The VP (or the monitor) died between the aliveness
                # check and the route: silence is the correct outcome.
                continue

    def _evaluate(self) -> None:
        now = self.clock.now()
        suspect_limit = self.suspect_after * self.interval
        dead_limit = self.dead_after * self.interval
        events: List[HealthEvent] = []
        with self._lock:
            for vp, entry in self._vps.items():
                if entry.state in (HealthState.DEAD, HealthState.QUARANTINED):
                    continue
                silence = now - entry.last_seen
                if entry.state is HealthState.ALIVE:
                    if silence > suspect_limit:
                        entry.state = HealthState.SUSPECT
                        events.append(
                            HealthEvent(vp, "suspect", HealthState.SUSPECT, now)
                        )
                if entry.state is HealthState.SUSPECT and silence > dead_limit:
                    entry.state = HealthState.DEAD
                    events.append(HealthEvent(vp, "dead", HealthState.DEAD, now))
        self._fire(events)

    def _complete_rejoins(self) -> None:
        with self._lock:
            pending, self._pending_rejoin = self._pending_rejoin, []
        for vp in pending:
            self._rejoin(vp)

    def _rejoin(self, vp: int) -> None:
        """Bring a falsely-suspected VP back into membership.

        The VP's own state (sections it still holds, buffered mailbox
        messages) is intact — it never actually died.  What is stale is
        its *view*: arrays whose membership and epoch moved on while it
        was unreachable.  The array manager's rejoin protocol rewrites
        membership onto it (freeing sections it no longer owns, so the
        one-owner-per-section invariant holds).  A *real* death later
        re-fires recovery for whatever the VP then owns.  Only after that
        does the ``"rejoin"`` verdict fire.
        """
        machine = self.machine
        now = self.clock.now()
        manager = getattr(machine, "_array_manager", None)
        if manager is not None:
            try:
                manager.rejoin_processor(vp, origin=self.monitor)
            except Exception:  # noqa: BLE001 - rejoin is best-effort;
                # a re-cut partition leaves the VP quarantined-but-alive,
                # and the next quarantine round retries.
                pass
        events: List[HealthEvent] = []
        with self._lock:
            entry = self._vps.get(vp)
            if entry is not None and entry.state is HealthState.QUARANTINED:
                entry.state = HealthState.ALIVE
                entry.last_seen = now
                self.rejoins += 1
                events.append(
                    HealthEvent(vp, "rejoin", HealthState.ALIVE, now)
                )
        self._fire(events)


def install_detector(machine: Any, **options: Any) -> FailureDetector:
    """Install (or return) the machine's failure detector.

    Idempotent like :func:`~repro.arrays.durability.install_recovery`:
    a machine has at most one health authority.  Options are forwarded
    to :class:`FailureDetector` on first installation.
    """
    existing = getattr(machine, "_health", None)
    if existing is not None:
        return existing.install()
    return FailureDetector(machine, **options).install()
