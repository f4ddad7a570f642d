"""Unit tests for the generated wrapper machinery (§5.2.2, §F.3-§F.5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.calls.api import distributed_call
from repro.calls.params import CallPlan, Local
from repro.calls.wrapper import build_wrapper, next_call_group
from repro.core.darray import DistributedArray
from repro.faults import install_recovery
from repro.pcn.defvar import DefVar
from repro.status import ProcessorFailedError, Status
from repro.vp.machine import Machine


@pytest.fixture
def m2():
    machine = Machine(2)
    am_util.load_all(machine)
    return machine


class TestBundleParameters:
    """The §F.2 ``parms`` a plan hands do_all, unbundled by the wrapper."""

    def test_constants_by_value(self):
        bundle, lengths = CallPlan.of([7, "text"]).parms
        assert bundle == (7, "text")
        assert lengths == ()

    def test_local_travels_as_array_id(self, m2):
        procs = am_util.node_array(0, 1, 2)
        aid, _ = am_user.create_array(m2, "double", (4,), procs, ["block"])
        bundle, _ = CallPlan.of([Local(aid)]).parms
        assert bundle == (aid,)

    def test_placeholders_for_index_status_reduce(self):
        bundle, lengths = CallPlan.of(
            ["index", "status", ("reduce", "double", 3, "sum")]
        ).parms
        assert bundle == (None, None, None)
        # §F.3: reduction lengths travel separately so the first-level
        # wrapper can declare buffers before unbundling.
        assert lengths == (3,)

    def test_multiple_reduce_lengths_in_order(self):
        _bundle, lengths = CallPlan.of(
            [("reduce", "double", 2, "sum"), 1, ("reduce", "int", 5, "max")]
        ).parms
        assert lengths == (2, 5)


class TestGeneratedWrapper:
    def run_wrapper(self, machine, parameters, program, index=0, parms=None):
        plan = CallPlan.of(parameters)
        group = next_call_group()
        wrapper = build_wrapper(machine, program, plan, [0, 1], group)
        status_var = DefVar("tuple")
        wrapper(index, parms if parms is not None else plan.parms, status_var)
        return status_var.read()

    def test_malformed_bundle_yields_invalid(self, m2):
        parameters = [1]
        result = self.run_wrapper(
            m2, parameters, lambda ctx, a: None, parms="not-a-bundle"
        )
        assert result == (int(Status.INVALID),)

    def test_wrong_bundle_arity_yields_invalid(self, m2):
        parameters = [1, 2]
        result = self.run_wrapper(
            m2, parameters, lambda ctx, a, b: None, parms=((1,), ())
        )
        assert result == (int(Status.INVALID),)

    def test_success_tuple_shape(self, m2):
        parameters = ["status", ("reduce", "double", 2, "sum")]

        def program(ctx, status, buf):
            status.set(5)
            buf[:] = [1.0, 2.0]

        result = self.run_wrapper(m2, parameters, program)
        assert result[0] == 5
        assert list(result[1]) == [1.0, 2.0]

    def test_reduce_length_one_unboxed(self, m2):
        parameters = [("reduce", "double", 1, "sum")]

        def program(ctx, buf):
            buf[0] = 3.5

        result = self.run_wrapper(m2, parameters, program)
        assert result == (0, 3.5)
        assert isinstance(result[1], float)

    def test_program_exception_packs_error(self, m2):
        parameters = [("reduce", "double", 1, "sum")]

        def program(ctx, buf):
            raise RuntimeError("die")

        result = self.run_wrapper(m2, parameters, program)
        assert result == (int(Status.ERROR), None)

    def test_context_index_matches_wrapper_index(self, m2):
        parameters = ["index"]
        seen = {}

        def program(ctx, index):
            seen["ctx"] = ctx.index
            seen["param"] = index
            seen["proc"] = ctx.processor_number

        self.run_wrapper(m2, parameters, program, index=1)
        assert seen == {"ctx": 1, "param": 1, "proc": 1}

    def test_reduce_buffer_copied_not_aliased(self, m2):
        """The packed reduction value is a copy: later mutation of the
        program's buffer cannot corrupt the merged result."""
        parameters = [("reduce", "double", 2, "sum")]
        captured = {}

        def program(ctx, buf):
            buf[:] = [1.0, 1.0]
            captured["buf"] = buf

        result = self.run_wrapper(m2, parameters, program)
        captured["buf"][:] = 99.0
        assert list(result[1]) == [1.0, 1.0]

    def test_each_position_receives_its_role(self, m2):
        procs = am_util.node_array(0, 1, 2)
        aid, _ = am_user.create_array(m2, "double", (4,), procs, ["block"])
        section, _ = am_user.find_local(m2, aid, processor=1)
        seen = {}

        def program(ctx, constant, local, index, status, buf):
            seen.update(constant=constant, local=local, index=index, buf=buf)
            status.set(3)

        result = self.run_wrapper(
            m2,
            [9, Local(aid), "index", "status", ("reduce", "char", 2, "max")],
            program,
            index=1,
        )
        assert seen["constant"] == 9
        assert seen["local"] is section
        assert seen["index"] == 1
        assert seen["buf"].dtype == np.uint8 and len(seen["buf"]) == 2
        assert result[0] == 3

    def test_observed_call_records_one_wrapper_span_per_copy(self, m2):
        """The wrapper builds its span only under an observer, and under
        one every copy still records it, with its index."""
        def program(ctx):
            pass

        with m2.observe() as observer:
            res = distributed_call(m2, [0, 1], program, [])
            spans = observer.recorder.spans_named("wrapper")
        assert res.status is Status.OK
        assert sorted(span["attrs"]["index"] for span in spans) == [0, 1]

    def test_group_ids_unique(self):
        assert next_call_group() != next_call_group()


class TestReseedAfterProgram:
    """A program writes its ``Local`` sections in place, past their
    replicas; a copy reseeds them whether its program returned or raised,
    so a recovery after a failed call rebuilds what the program wrote."""

    @pytest.fixture
    def replicated(self):
        machine = Machine(6, default_recv_timeout=10)
        am_util.load_all(machine)
        install_recovery(machine)
        arr = DistributedArray.create(
            machine, "double", (8, 8), [0, 1, 2, 3],
            (("block", 2), ("block", 2)), replication=1,
        )
        return machine, arr

    def call(self, machine, arr, program):
        return distributed_call(
            machine, [0, 1, 2, 3], program, [Local(arr.array_id)]
        )

    def test_a_raising_program_leaves_its_writes_in_the_mirrors(
        self, replicated
    ):
        machine, arr = replicated

        def write_then_raise(ctx, section):
            section.interior()[:] = 7.0
            raise RuntimeError("after the write")

        assert self.call(machine, arr, write_then_raise).status is Status.ERROR
        assert np.all(arr.to_numpy() == 7.0)
        machine.fail(3)
        assert arr.processors[3] != 3
        assert np.all(arr.to_numpy() == 7.0)

    def test_a_failing_reseed_does_not_mask_the_programs_error(
        self, replicated, monkeypatch
    ):
        """Reseeding after a raise is best effort: the copy reports the
        program's own error, an ERROR status for an ordinary exception
        and a raise for a processor failure, whatever the reseed did."""
        machine, arr = replicated
        server_request = machine.server.request

        def request(request_type, *parameters, **options):
            if request_type == "reseed_replicas_local":
                raise ProcessorFailedError("reseed failed")
            return server_request(request_type, *parameters, **options)

        monkeypatch.setattr(machine.server, "request", request)

        def raise_value_error(ctx, section):
            raise ValueError("the program's own")

        assert self.call(machine, arr, raise_value_error).status is (
            Status.ERROR
        )

        def raise_processor_failed(ctx, section):
            raise ProcessorFailedError("the program's own")

        with pytest.raises(ProcessorFailedError, match="program's own"):
            self.call(machine, arr, raise_processor_failed)
