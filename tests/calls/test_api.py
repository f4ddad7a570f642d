"""distributed_call (§4.3.1): the paper's examples plus failure modes."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.arrays.record import ArrayID
from repro.calls import Index, Local, Reduce, StatusVar, distributed_call
from repro.pcn.defvar import DefVar
from repro.spmd import collectives
from repro.status import Status
from repro.vp.machine import Machine


@pytest.fixture
def m4():
    machine = Machine(4)
    am_util.load_all(machine)
    return machine


def procs(machine, count=None):
    return am_util.node_array(
        0, 1, machine.num_nodes if count is None else count
    )


class TestPaperExampleCpgm1:
    """§4.3.1 'Distributed call with index and local-section parameters'."""

    def test_index_and_local(self, m4):
        p = procs(m4)
        aid, _ = am_user.create_array(m4, "double", (8,), p, ["block"])
        seen = []
        lock = threading.Lock()

        def cpgm1(ctx, processors, num_procs, index, local_section):
            with lock:
                seen.append((index, local_section.interior().shape))
            local_section.interior()[:] = index

        result = distributed_call(
            m4, p, cpgm1, [p, 4, Index(), Local(aid)]
        )
        # "variable Status ... is set to STATUS_OK"
        assert result.status is Status.OK
        assert sorted(i for i, _ in seen) == [0, 1, 2, 3]
        assert all(shape == (2,) for _, shape in seen)
        # local sections are genuinely per-copy: element 2j belongs to copy j
        for j in range(4):
            value, _ = am_user.read_element(m4, aid, (2 * j,))
            assert value == float(j)


class TestPaperExampleFpgm1:
    """§4.3.1 'Distributed call with index, status, and local-section
    parameters'."""

    def test_status_merged_with_max(self, m4):
        p = procs(m4)
        aid, _ = am_user.create_array(m4, "double", (8,), p, ["block"])

        def fpgm1(ctx, processors, num, index, local, status):
            status.set(index)  # copy j returns status j

        result = distributed_call(
            m4, p, fpgm1, [p, 4, Index(), Local(aid), StatusVar()]
        )
        # "Status ... is set to the maximum value over all copies"
        assert int(result.status) == 3


class TestPaperExampleCpgm2:
    """§4.3.1 'Distributed call with status, reduction, and local-section
    parameters'."""

    def test_min_status_and_combined_reduction(self, m4):
        p = procs(m4)
        aid, _ = am_user.create_array(m4, "double", (8,), p, ["block"])
        rr = DefVar("RR")

        def cpgm2(ctx, processors, num_procs, local_section, status, other):
            rank = ctx.index
            status.set(rank + 1)
            other[0] = float(rank)
            other[1] = float(rank * 10)

        result = distributed_call(
            m4,
            p,
            cpgm2,
            [
                p, 4, Local(aid), StatusVar(),
                Reduce("double", 2, lambda a, b: np.minimum(a, b), rr),
            ],
            combine="min",
        )
        # status via thismod:min -> min(1..4) = 1
        assert int(result.status) == 1
        # RR via elementwise min combine
        assert list(rr.read()) == [0.0, 0.0]
        assert list(result.reductions[0]) == [0.0, 0.0]


class TestCallSemantics:
    def test_caller_suspends_until_all_copies_done(self, m4):
        """Fig 3.2: caller resumes only after every copy terminates."""
        p = procs(m4)
        release = threading.Event()
        finished = []

        def program(ctx, index):
            if index == 3:
                release.wait(timeout=5)
            finished.append(index)

        call_done = []

        def caller():
            distributed_call(m4, p, program, [Index()])
            call_done.append(True)

        t = threading.Thread(target=caller)
        t.start()
        time.sleep(0.1)
        assert not call_done  # suspended: copy 3 still running
        release.set()
        t.join(timeout=5)
        assert call_done and sorted(finished) == [0, 1, 2, 3]

    def test_status_out_defvar_synchronisation(self, m4):
        p = procs(m4)
        status_out = DefVar("Status")
        distributed_call(
            m4, p, lambda ctx: None, [], status_out=status_out
        )
        assert status_out.read() is Status.OK

    def test_no_status_param_means_ok_on_success(self, m4):
        result = distributed_call(m4, procs(m4), lambda ctx: None, [])
        assert result.status is Status.OK

    def test_constants_same_for_all_copies(self, m4):
        values = []
        lock = threading.Lock()

        def program(ctx, a, b):
            with lock:
                values.append((a, b))

        distributed_call(m4, procs(m4), program, ["const", 12])
        assert values == [("const", 12)] * 4

    def test_copies_communicate_within_call(self, m4):
        """§3.3.1: the concurrently-executing copies can communicate just
        as they normally would."""
        out = DefVar("total")

        def program(ctx, result):
            total = collectives.allreduce(ctx.comm, ctx.index + 1, op="sum")
            result[0] = total

        res = distributed_call(
            m4, procs(m4), program, [Reduce("double", 1, "max", out)]
        )
        assert res.reductions[0] == 10.0  # 1+2+3+4
        assert out.read() == 10.0

    def test_index_is_position_in_processors_array(self, m4):
        """The index parameter indexes the *processors array*, not the
        physical processor numbers (§3.3.1.2)."""
        group = [3, 1]  # deliberately out of order
        observed = {}
        lock = threading.Lock()

        def program(ctx, index):
            with lock:
                observed[ctx.processor_number] = index

        distributed_call(m4, group, program, [Index()])
        assert observed == {3: 0, 1: 1}


class TestFailureModes:
    def test_local_of_unknown_array_is_invalid(self, m4):
        """The generated wrapper's find_local failure branch (§F.4)."""
        result = distributed_call(
            m4, procs(m4), lambda ctx, sec: None,
            [Local(ArrayID(0, 999))],
        )
        assert result.status is Status.INVALID

    def test_local_on_processor_without_section_is_invalid(self, m4):
        # Array lives on processors 0..1 only; call on 0..3.
        aid, _ = am_user.create_array(
            m4, "double", (4,), [0, 1], ["block"]
        )
        result = distributed_call(
            m4, procs(m4), lambda ctx, sec: None, [Local(aid)]
        )
        assert result.status is Status.INVALID

    def test_program_exception_is_error(self, m4):
        def bad(ctx):
            raise RuntimeError("model diverged")

        result = distributed_call(m4, procs(m4), bad, [])
        assert result.status is Status.ERROR

    def test_one_bad_copy_poisons_call_status(self, m4):
        def sometimes_bad(ctx, index):
            if index == 2:
                raise ValueError("copy 2")

        result = distributed_call(m4, procs(m4), sometimes_bad, [Index()])
        assert result.status is Status.ERROR

    def test_status_param_unassigned_is_error(self, m4):
        """§4.3.1: the program must assign status before completing."""

        def forgetful(ctx, status):
            pass

        result = distributed_call(
            m4, procs(m4), forgetful, [StatusVar()]
        )
        assert result.status is Status.ERROR

    def test_combine_without_status_rejected(self, m4):
        """§4.3.1 precondition: Combine_module != [] only meaningful with
        a status parameter."""
        with pytest.raises(ValueError):
            distributed_call(
                m4, procs(m4), lambda ctx: None, [], combine="min"
            )

    def test_empty_processor_group_rejected(self, m4):
        with pytest.raises(ValueError):
            distributed_call(m4, [], lambda ctx: None, [])

    def test_duplicate_processors_rejected(self, m4):
        with pytest.raises(ValueError):
            distributed_call(m4, [0, 0], lambda ctx: None, [])

    def test_out_of_range_processor_rejected(self, m4):
        with pytest.raises(ValueError):
            distributed_call(m4, [0, 77], lambda ctx: None, [])

    def test_negative_processor_rejected_before_any_copy_runs(self, m4):
        """-1 names no processor: no copy runs on processor 3 under it."""
        ran = []
        with pytest.raises(ValueError, match="out of range"):
            distributed_call(
                m4, [0, 1, -1], lambda ctx: ran.append(ctx.index), []
            )
        assert ran == []


class TestReduceVariants:
    def test_scalar_reduce_returns_python_scalar(self, m4):
        def program(ctx, out):
            out[0] = float(ctx.index)

        result = distributed_call(
            m4, procs(m4), program, [Reduce("double", 1, "max")]
        )
        assert result.reductions[0] == 3.0
        assert isinstance(result.reductions[0], float)

    def test_vector_reduce_returns_array(self, m4):
        def program(ctx, out):
            out[:] = ctx.index

        result = distributed_call(
            m4, procs(m4), program, [Reduce("double", 3, "sum")]
        )
        assert list(result.reductions[0]) == [6.0, 6.0, 6.0]

    def test_int_reduce(self, m4):
        def program(ctx, out):
            out[0] = ctx.index * 2

        result = distributed_call(
            m4, procs(m4), program, [Reduce("int", 1, "sum")]
        )
        assert result.reductions[0] == 12

    def test_char_reduce_is_bytes(self, m4):
        """A "char" reduction runs in the byte buffer PTN declares
        (``char _l7a[_l8a]``), not in a double one."""
        def program(ctx, out):
            out[:] = [ord("A"), ord("A") + ctx.index // 3]

        result = distributed_call(
            m4, procs(m4), program, [Reduce("char", 2, "max")]
        )
        value = result.reductions[0]
        assert value.dtype == np.uint8
        assert bytes(value) == b"AB"

    def test_multiple_reductions_ordered(self, m4):
        def program(ctx, lo, hi):
            lo[0] = float(ctx.index)
            hi[0] = float(ctx.index)

        result = distributed_call(
            m4,
            procs(m4),
            program,
            [Reduce("double", 1, "min"), Reduce("double", 1, "max")],
        )
        assert result.reductions == [0.0, 3.0]
