"""What PTN renders is what runs (§5.2.3-§5.2.4, §F).

``transform_distributed_call`` and ``distributed_call`` plan a parameter
list the same way (``repro.calls.params.CallPlan``).  For any list of
constants, ``index``, ``status``, Locals over real arrays and reductions of
every type, the text the renderer prints and the call the wrapper executes
on ``Machine(4)`` must agree on everything the text states: the
find_local requests a copy makes, the arity of the result tuple, the
entries of the bundled Parms, the program's arguments and each reduction
buffer's element type.
"""

from __future__ import annotations

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import am_user, am_util
from repro.arrays.manager import get_array_manager
from repro.arrays.record import ArrayID
from repro.calls import api
from repro.pcn.ptn import transform_distributed_call
from repro.spmd.context import OutCell
from repro.status import Status
from repro.vp.machine import Machine

# The element type a rendered reduction declaration names (§F.4).
DECLARED = {
    "int": np.int64,
    "double": np.float64,
    "char": np.uint8,
    "complex": np.complex128,
}

param_strategy = st.one_of(
    st.integers(-100, 100),  # constants
    st.just("index"),
    st.tuples(st.just("local"), st.integers(0, 1)),  # which array
    st.tuples(
        st.just("reduce"),
        st.sampled_from(sorted(DECLARED)),
        st.integers(1, 4),
        st.just("sum"),
    ),
)


@st.composite
def parameter_lists(draw):
    params = draw(st.lists(param_strategy, max_size=6))
    if draw(st.booleans()):
        params.insert(draw(st.integers(0, len(params))), "status")
    return params


@pytest.fixture(scope="module")
def world():
    machine = Machine(4)
    am_util.load_all(machine)
    procs = am_util.node_array(0, 1, 4)
    arrays = [
        am_user.create_array(machine, "double", (8,), procs, ["block"])[0]
        for _ in range(2)
    ]
    return machine, procs, arrays


def _parms_entries(call_block: str) -> list[str]:
    [parms] = re.findall(r"^\s+\{(.*)\},$", call_block, re.MULTILINE)
    return parms.split(",") if parms else []


@settings(max_examples=60, deadline=None)
@given(parameter_lists())
def test_property_rendered_text_is_what_runs(world, drawn):
    machine, procs, arrays = world
    parameters = [
        ("local", arrays[p[1]]) if isinstance(p, tuple) and p[0] == "local"
        else p
        for p in drawn
    ]
    text = transform_distributed_call(parameters, program="cpgm")

    received = {}

    def cpgm(ctx, *args):
        received[ctx.index] = args
        for arg in args:
            if isinstance(arg, OutCell):
                arg.set(0)

    handed = []

    def recording_do_all(machine, procs, wrapper, parms, *rest, **kw):
        handed.append(parms)
        return real_do_all(machine, procs, wrapper, parms, *rest, **kw)

    real_do_all = api.do_all
    counts = get_array_manager(machine).request_counts
    before = counts.get("find_local", 0)
    with mock.patch.object(api, "do_all", recording_do_all):
        result = api.distributed_call(machine, procs, cpgm, parameters)
    find_locals = counts.get("find_local", 0) - before
    assert result.status is Status.OK

    # find_local requests per copy = the rendered find_local lines.
    assert find_locals == len(procs) * text.wrapper_second.count(
        "am_user:find_local("
    )
    # The merged tuple's arity = the rendered make_tuple(n, ...).
    [size] = re.findall(r"make_tuple\((\d+),_l1\)", text.wrapper_second)
    assert 1 + len(result.reductions) == int(size)
    # The bundle and its lengths = the rendered Parms entries: constants
    # by value, one name per array, placeholders, then the lengths.
    [(bundle, lengths)] = handed
    entries = _parms_entries(text.call_block)
    assert len(entries) == len(bundle) + len(lengths)
    assert entries[len(bundle):] == [str(n) for n in lengths]
    names = {}
    for entry, value in zip(entries, bundle):
        if value is None:
            assert entry == "_"
        elif isinstance(value, ArrayID):
            assert names.setdefault(value, entry) == entry
        else:
            assert entry == str(value)
    assert len(set(names.values())) == len(names)
    # The program's arguments = the rendered call's, copy by copy.
    [call_args] = re.findall(r"cpgm\((.*)\),", text.wrapper_second)
    arity = len(call_args.split(",")) if call_args else 0
    assert sorted(received) == list(range(len(procs)))
    assert all(len(a) == arity for a in received.values())
    # Each reduction buffer's element type = its rendered declaration.
    declared = [
        np.dtype(DECLARED[name])
        for name in re.findall(r"^(\w+) _l7[a-z]\[", text.wrapper_second,
                               re.MULTILINE)
    ]
    for args in received.values():
        buffers = [a for a in args if isinstance(a, np.ndarray)]
        assert [b.dtype for b in buffers] == declared
    for value, dtype in zip(result.reductions, declared):
        if isinstance(value, np.ndarray):
            assert value.dtype == dtype
