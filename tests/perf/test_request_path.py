"""The request path's frame budget: how many Python frames of the
``repro`` package one request enters, pinned.

§5.1.1 prices a remote element at one routed message to its owner; what
the runtime spends around that message is Python frames, and on the
element workloads those frames are the op.  Each count below is taken
with ``sys.setprofile`` — every ``call`` event whose code lives under
``src/repro`` — on an 8-processor machine holding a 64x64 ``double``
array on the (4, 2) grid, after a warm-up of the same request, from a
top-level thread (the home of every element request is processor 0):

* a remote element read — ``arr[63, 63]``, owned by processor 7;
* an in-place element read — ``arr[0, 0]``, owned by processor 0;
* an element write, coalesced, to a section that has writes queued;
* a carrying element read — ``arr[63, 63]`` again, with one write to
  its section queued on the home processor just before, which the read
  carries to the owner (``array_reads``' read-back);
* a ``find_local`` made from a thread placed on the processor it asks;
* one remote holder of a no-op fan-out of 8 made from processor 0 —
  the fan-out over processors 0..7 less the one over 0..6;
* one copy of a no-op distributed call, run inline: not a literal, but
  the same count at P = 8 and P = 128.

Frames of the standard library, of generated code and of this file are
not counted, so the literals are the same on every supported
interpreter.  Before the request path was served in one frame the same
recipe read 65 / 45 / 28 / 25 / 22: an ``execution_context`` built,
entered and left per served request, ``Machine.route`` validating both
processor numbers through ``processor()``, ``TransportStack.__len__`` and
``dispatch`` per message, and helper hops (``_lookup`` → ``load_default``,
``flatten_index``, ``_flush_writes``, ``_check_live``, ``is_failed``,
``_define``).  Before the rungs stopped re-deriving what they had at hand
it read 45 / 30 / 20 / 19 / 14, and 81 for the carrying read: a Python
``ArrayID.__hash__`` per table lookup, ``snapshot_context`` /
``current_envelope`` per request and message, and the ``_home``,
``_serve``, ``DefVar.data`` and ``LocalSection.read`` helper frames.
A layer added back fails a count here instead of drifting a benchmark; a
cut lowers one, and its literal with it.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro
from repro.arrays import am_user, am_util
from repro.arrays.decomposition import Block
from repro.calls.params import CallPlan
from repro.calls.wrapper import build_wrapper, next_call_group
from repro.core.darray import DistributedArray
from repro.pcn.defvar import DefVar, Tally
from repro.perf import get_perf_layer
from repro.vp import fabric
from repro.vp.machine import Machine

PACKAGE = os.path.dirname(repro.__file__) + os.sep


def entered(fn, *args) -> int:
    """The frames of the package that ``fn(*args)`` enters."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return count


@pytest.fixture(scope="module")
def arr():
    machine = Machine(8)
    am_util.load_all(machine)
    machine.server.load({"noop": lambda node, status: status.define(0)})
    return DistributedArray.create(
        machine, "double", (64, 64), list(range(8)), [Block(4), Block(2)]
    )


def read(arr, cell):
    arr[cell]


def write(arr, cell):
    arr[cell] = 1.0


def find_local_on_5(arr):
    am_user.find_local(arr.machine, arr.array_id, 5)


def fan_out(arr, holders):
    arr.machine.server.request_each(
        "noop", dict.fromkeys(range(holders), ()), (), Tally(holders, max, 0)
    )


def test_the_array_is_where_the_counts_assume(arr):
    assert arr.layout.grid == (4, 2)
    assert arr.layout.locate((63, 63))[0] == 7
    assert arr.layout.locate((0, 0))[0] == 0
    assert arr.array_id.creating_processor == 0


def test_a_remote_element_read(arr):
    read(arr, (63, 63))
    assert entered(read, arr, (63, 63)) == 36


def test_an_in_place_element_read(arr):
    read(arr, (0, 0))
    assert entered(read, arr, (0, 0)) == 24


def test_an_element_write(arr):
    write(arr, (63, 63))  # the section's queue exists from here on
    try:
        assert entered(write, arr, (63, 63)) == 16
    finally:
        arr.flush()


def test_a_carrying_element_read(arr):
    coalescer = get_perf_layer(arr.machine).coalescer
    write(arr, (63, 63))
    read(arr, (63, 63))
    write(arr, (63, 63))  # queued on processor 0, the read's home
    carried = coalescer.carried_batches
    assert entered(read, arr, (63, 63)) == 62
    assert coalescer.carried_batches == carried + 1


def test_a_same_node_find_local(arr):
    with fabric.execution_context(processor=5):
        find_local_on_5(arr)
        assert entered(find_local_on_5, arr) == 17


def test_one_remote_holder_of_a_fan_out(arr):
    with fabric.execution_context(processor=0):
        fan_out(arr, 8)
        fan_out(arr, 7)
        assert entered(fan_out, arr, 8) - entered(fan_out, arr, 7) == 12


def noop(ctx):
    pass


def one_copy(procs) -> int:
    """The frames one copy of a no-op call over ``procs`` enters, run
    inline on this thread: the wrapper is built, and one copy warmed up,
    outside the count."""
    machine = Machine(len(procs))
    plan = CallPlan.of([])
    wrapper = build_wrapper(machine, noop, plan, procs, next_call_group())
    wrapper(1, plan.parms, DefVar())
    status = DefVar()
    count = entered(wrapper, 0, plan.parms, status)
    assert status.read() == (0,)
    return count


def test_a_copy_costs_the_same_at_every_p():
    """P is an axis: a call hands every copy the one tuple of processors
    its wrapper built, and neither the copy's context nor its communicator
    re-normalises it or maps every processor to its rank, so a copy enters
    as many frames at P = 128 as at P = 8."""
    assert one_copy(tuple(range(8))) == one_copy(tuple(range(128)))
