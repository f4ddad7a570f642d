"""The alternative integration model (§2.2).

Besides its primary model, the thesis sketches the dual: "allowing
task-parallel programs to serve as subprograms in a data-parallel program
... calling a task-parallel program on a distributed data structure is
equivalent to calling it concurrently once for each element of the
distributed data structure, and each copy of the task-parallel program can
consist of multiple processes."

:func:`call_task_parallel_on` implements exactly that semantics.  The
call:

* runs one instance of the task-parallel program per **element** (the
  paper's granularity) or per **local section** (the practical batching,
  selectable with ``scope``);
* gives each instance its element's global indices and current value and
  applies each instance's returned value back to the array;
* suspends the caller until every instance — including any processes those
  instances spawned and joined — has terminated, preserving the
  sequential-call equivalence that anchors both integration models (§2.1).

Instances are placed on the processor owning their element, so a
task-parallel subprogram observes the same locality a data-parallel
statement would.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.core.darray import DistributedArray
from repro.pcn.process import ProcessGroup


ElementProgram = Callable[[tuple, Any], Any]
SectionProgram = Callable[[int, np.ndarray], Optional[np.ndarray]]


def call_task_parallel_on(
    array: DistributedArray,
    program: Callable,
    scope: str = "element",
    timeout: Optional[float] = None,
) -> int:
    """Call a task-parallel ``program`` over a distributed array (§2.2).

    ``scope="element"``: ``program(global_indices, value) -> new_value``
    runs concurrently once per element; a non-None return value is written
    back.  ``scope="section"``: ``program(section_number, ndarray) ->
    ndarray | None`` runs once per local section with a *copy* of the
    interior; a returned array replaces the section's data.

    Returns the number of program instances executed.  The caller is
    suspended until every instance terminates.
    """
    if scope not in ("element", "section"):
        raise ValueError(f"scope must be 'element' or 'section': {scope!r}")
    machine = array.machine
    layout = array.layout

    if scope == "section":
        return _run_per_section(array, program, timeout)

    # Element scope: fetch each section once, spawn one process per
    # element on the owning processor, then write changed sections back.
    group = ProcessGroup()
    staged: list[tuple[int, np.ndarray]] = []
    results: dict[tuple, Any] = {}
    import threading

    lock = threading.Lock()
    count = 0
    snapshot = array.to_numpy()
    for section, proc in enumerate(array.processors):
        node = machine.processor(proc)
        slices = layout.section_slices(section)
        block = snapshot[slices]
        staged.append((section, block))
        for local in np.ndindex(*layout.local_dims):
            global_idx = layout.global_indices(section, local)
            value = snapshot[global_idx]
            count += 1

            def instance(idx=global_idx, val=value):
                out = program(idx, val)
                if out is not None:
                    with lock:
                        results[idx] = out

            group.add(node.spawn(instance, name=f"tp-elem{global_idx}"))
    group.join_all(timeout=timeout)
    if results:
        for idx, value in results.items():
            snapshot[idx] = value
        array.from_numpy(snapshot)
    return count


def _run_per_section(
    array: DistributedArray,
    program: SectionProgram,
    timeout: Optional[float],
) -> int:
    machine = array.machine
    group = ProcessGroup()
    replacements: dict[int, np.ndarray] = {}
    import threading

    lock = threading.Lock()
    snapshot = array.to_numpy()
    for section, proc in enumerate(array.processors):
        node = machine.processor(proc)
        block = snapshot[array.layout.section_slices(section)].copy()

        def instance(sec=section, data=block):
            out = program(sec, data)
            if out is not None:
                with lock:
                    replacements[sec] = np.asarray(out)

        group.add(node.spawn(instance, name=f"tp-section{section}"))
    group.join_all(timeout=timeout)
    if replacements:
        for section, data in replacements.items():
            snapshot[array.layout.section_slices(section)] = data
        array.from_numpy(snapshot)
    return len(array.processors)
