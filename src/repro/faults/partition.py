"""Network partitions: named cuts between VP groups, cut and healed by hand.

A :class:`PartitionCut` severs traffic between two disjoint groups of
virtual processors — symmetric (no traffic either way) or asymmetric
(one-way: ``side_a`` cannot reach ``side_b`` but replies still flow).
A :class:`PartitionPlan` holds a set of named cuts, each active or
healed: every cut starts active, and :meth:`~PartitionPlan.cut` /
:meth:`~PartitionPlan.heal` open and close them.  A test that wants a
timed window sets it on the machine's clock:
``machine.clock.call_later(t, plan.cut, name)``.

The plan composes into :class:`~repro.faults.transport.FaultyTransport`
(``FaultyTransport(machine, plan, partitions=...)``): a routed message
whose (source, dest) crosses an active cut is silently discarded —
counted in ``FaultStats.partitioned`` — exactly as a real network drops
packets into a cable break.  Because heartbeats ride the same fabric,
a partition starves the :class:`~repro.health.detector.FailureDetector`
of evidence and drives false suspicion, which is the scenario §9 of
``docs/fault_model.md`` is about: the minority side is declared dead,
its sections are rebuilt on the majority, and after heal the stale
owner must be fenced (epoch check) and rejoined rather than trusted.

:func:`random_partitions` is the seeded cut factory, sibling to
:func:`~repro.faults.plan.random_kills`, for the fuzz suite.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class PartitionCut:
    """One named cut between two disjoint VP groups.

    ``symmetric=False`` severs only ``side_a -> side_b`` — an
    asymmetric cut, the classic one-way-link failure where A's requests
    vanish but B can still reach A.
    """

    name: str
    side_a: Tuple[int, ...]
    side_b: Tuple[int, ...]
    symmetric: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "side_a", tuple(self.side_a))
        object.__setattr__(self, "side_b", tuple(self.side_b))
        if not self.side_a or not self.side_b:
            raise ValueError(f"cut {self.name!r}: both sides must be non-empty")
        overlap = set(self.side_a) & set(self.side_b)
        if overlap:
            raise ValueError(
                f"cut {self.name!r}: sides overlap on {sorted(overlap)}"
            )

    def crosses(self, src: int, dst: int) -> bool:
        """Does (src, dst) traverse this cut (active or not)?"""
        if src in self.side_a and dst in self.side_b:
            return True
        if self.symmetric and src in self.side_b and dst in self.side_a:
            return True
        return False


class PartitionPlan:
    """A set of named cuts, each active or healed.

    Every cut starts active; :meth:`cut` opens a named cut, :meth:`heal`
    closes one (or, with no name, all — the fuzz suite heals every
    window before asserting convergence).
    """

    def __init__(self, cuts: Iterable[PartitionCut] = ()) -> None:
        self.cuts: Tuple[PartitionCut, ...] = tuple(cuts)
        names = [c.name for c in self.cuts]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate cut names in {names}")
        self._lock = threading.Lock()
        self._active = set(names)
        self.severed_count = 0

    def severs(self, src: int, dst: int) -> Optional[str]:
        """Name of the first active cut severing ``src -> dst``, else
        None.  This is the transport's per-message query."""
        with self._lock:
            for cut in self.cuts:
                if cut.name in self._active and cut.crosses(src, dst):
                    self.severed_count += 1
                    return cut.name
        return None

    def active(self) -> List[str]:
        with self._lock:
            return [c.name for c in self.cuts if c.name in self._active]

    def cut(self, name: str) -> None:
        """Make the named cut active."""
        with self._lock:
            self._active.add(self._require(name))

    def heal(self, name: Optional[str] = None) -> None:
        """Heal the named cut — or, with no name, every cut."""
        with self._lock:
            if name is None:
                self._active.clear()
            else:
                self._active.discard(self._require(name))

    def _require(self, name: str) -> str:
        if all(c.name != name for c in self.cuts):
            raise ValueError(f"no cut named {name!r}")
        return name

    def snapshot(self) -> dict:
        return {
            "cuts": [c.name for c in self.cuts],
            "active": self.active(),
            "severed": self.severed_count,
        }

    def __repr__(self) -> str:
        return f"<PartitionPlan cuts={[c.name for c in self.cuts]}>"


def random_partitions(
    seed: int,
    processors: Sequence[int],
    isolate: Optional[Sequence[int]] = None,
    count: int = 1,
    oneway: float = 0.25,
) -> Tuple[PartitionCut, ...]:
    """Seeded random partition cuts for fuzzing.

    Draws ``count`` cuts from a generator seeded by ``seed`` alone (same
    seed, same cuts — the :func:`~repro.faults.plan.random_kills`
    discipline).  Each cut isolates a strict minority drawn from
    ``isolate`` (default: every processor but the first, so the monitor
    and quorum side stays connected) from the rest of ``processors``,
    and is one-way (minority's sends vanish, majority's still arrive)
    with probability ``oneway``.  When a cut opens and heals is the
    caller's to say.
    """
    processors = [int(p) for p in processors]
    if len(processors) < 2:
        raise ValueError("random_partitions needs at least two processors")
    pool = (
        [int(p) for p in isolate] if isolate is not None else processors[1:]
    )
    pool = [p for p in pool if p in processors]
    if not pool:
        raise ValueError("random_partitions: empty isolation pool")
    max_minority = max(1, (len(processors) - 1) // 2)
    rng = random.Random(f"partitions:{seed}")
    cuts = []
    for i in range(count):
        size = rng.randint(1, min(max_minority, len(pool)))
        minority = tuple(sorted(rng.sample(pool, size)))
        majority = tuple(p for p in processors if p not in minority)
        cuts.append(
            PartitionCut(
                name=f"part{seed}-{i}",
                side_a=minority,
                side_b=majority,
                symmetric=rng.random() >= oneway,
            )
        )
    return tuple(cuts)
