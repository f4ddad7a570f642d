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

import itertools
from typing import Any, Callable, Optional

import numpy as np

from repro.arrays.redistribute import blocks, dense, transfers
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

    if scope == "section":
        return _run_per_section(array, program, timeout)

    # Element scope: fetch the array once, spawn one process per element
    # on the owning processor, then write changed elements back.
    group = ProcessGroup()
    results: dict[tuple, Any] = {}
    import threading

    lock = threading.Lock()
    count = 0
    snapshot = array.to_numpy()
    for proc, box in _sections(array).values():
        node = machine.processor(proc)
        for global_idx in itertools.product(
            *(range(s.start, s.stop) for s in box)
        ):
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


def _sections(array: DistributedArray) -> dict:
    """Section number -> ``(owner, the slices of the whole array it
    holds)``, under the array's current membership."""
    layout = array.layout
    owners = array.processors
    whole = dense(tuple((0, d) for d in layout.dims))
    return {
        section: (owners[section], box)
        for section, _, _, box in transfers(blocks(layout), whole)
    }


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
    sections = _sections(array)
    for section, (proc, box) in sections.items():
        node = machine.processor(proc)
        block = snapshot[box].copy()

        def instance(sec=section, data=block):
            out = program(sec, data)
            if out is not None:
                with lock:
                    replacements[sec] = np.asarray(out)

        group.add(node.spawn(instance, name=f"tp-section{section}"))
    group.join_all(timeout=timeout)
    if replacements:
        for section, data in replacements.items():
            snapshot[sections[section][1]] = data
        array.from_numpy(snapshot)
    return len(sections)
