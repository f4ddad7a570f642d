"""Distributed arrays and the array manager (§3.2, §4.2, §5.1).

The only distributed data structure the prototype supports is the
*distributed array*: an N-dimensional array block-partitioned into local
sections and distributed one-per-processor over a processor grid.  The
runtime support is the **array manager**, one server process per processor
(§3.2.2.2); programs manipulate arrays only through library procedures that
issue array-manager server requests (§5.1.2).
"""

from repro.arrays.decomposition import (
    BLOCK,
    STAR,
    Block,
    DecompositionError,
    compute_grid,
    normalize_distrib,
)
from repro.arrays.durability import (
    ArraySnapshot,
    DurabilityState,
    RecoveryCoordinator,
    ReplicaMap,
    ReplicaUpdate,
    install_recovery,
)
from repro.arrays.layout import ArrayLayout
from repro.arrays.placement import (
    MIGRATE_KIND,
    MigrationError,
    PlacementPlan,
    SectionMove,
    SectionMover,
    SectionSourceError,
)
from repro.arrays.rebalance import Rebalancer
from repro.arrays.record import ArrayID, ArrayRecord
from repro.arrays.local_section import LocalSection
from repro.arrays.manager import ArrayManager, install_array_manager
from repro.arrays import am_user, am_util
from repro.status import StalePlanError

__all__ = [
    "ArraySnapshot",
    "DurabilityState",
    "RecoveryCoordinator",
    "ReplicaMap",
    "ReplicaUpdate",
    "install_recovery",
    "MIGRATE_KIND",
    "MigrationError",
    "PlacementPlan",
    "Rebalancer",
    "SectionMove",
    "SectionMover",
    "SectionSourceError",
    "StalePlanError",
    "BLOCK",
    "STAR",
    "Block",
    "DecompositionError",
    "compute_grid",
    "normalize_distrib",
    "ArrayLayout",
    "ArrayID",
    "ArrayRecord",
    "LocalSection",
    "ArrayManager",
    "install_array_manager",
    "am_user",
    "am_util",
]
