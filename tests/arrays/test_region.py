"""Region-granular array RPC: one message per owning processor, not one
per element (the layered-fabric acceptance criterion)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.status import Status
from repro.vp.machine import Machine


@pytest.fixture
def m4():
    machine = Machine(4)
    am_util.load_all(machine)
    return machine


def make_vector(machine, n=16, procs=4):
    processors = am_util.node_array(0, 1, procs)
    array_id, status = am_user.create_array(
        machine, "double", (n,), processors, ["block"]
    )
    assert status is Status.OK
    return array_id


class TestRegionCorrectness:
    def test_read_region_round_trips_write_region(self, m4):
        array_id = make_vector(m4)
        values = np.arange(16, dtype=float)
        assert am_user.write_region(m4, array_id, [(0, 16)], values) is Status.OK
        data, status = am_user.read_region(m4, array_id, [(0, 16)])
        assert status is Status.OK
        assert np.array_equal(data, values)

    def test_partial_region_spanning_owners(self, m4):
        array_id = make_vector(m4)  # 16 elements, 4 per processor
        am_user.write_region(m4, array_id, [(0, 16)], np.arange(16.0))
        data, status = am_user.read_region(m4, array_id, [(3, 9)])
        assert status is Status.OK
        assert np.array_equal(data, np.arange(3.0, 9.0))

    def test_region_matches_elementwise_reads(self, m4):
        array_id = make_vector(m4)
        for i in range(16):
            am_user.write_element(m4, array_id, (i,), float(i * i))
        data, status = am_user.read_region(m4, array_id, [(2, 14)])
        assert status is Status.OK
        assert np.array_equal(data, np.array([float(i * i) for i in range(2, 14)]))

    def test_2d_region_crossing_grid(self, m4):
        processors = am_util.node_array(0, 1, 4)
        array_id, status = am_user.create_array(
            m4, "double", (8, 8), processors, [("block", 2), ("block", 2)]
        )
        assert status is Status.OK
        full = np.arange(64, dtype=float).reshape(8, 8)
        assert (
            am_user.write_region(m4, array_id, [(0, 8), (0, 8)], full)
            is Status.OK
        )
        # A centred patch intersecting all four sections.
        patch, status = am_user.read_region(m4, array_id, [(2, 6), (3, 7)])
        assert status is Status.OK
        assert np.array_equal(patch, full[2:6, 3:7])

    def test_invalid_region_is_rejected(self, m4):
        array_id = make_vector(m4)
        writers = (am_user.write_region, am_user.write_region_targeted)
        for region in ([(0, 17)], [(-1, 4)], [(4, 4)], [(0, 4), (0, 4)]):
            data, status = am_user.read_region(m4, array_id, region)
            assert status is Status.INVALID
            assert data is None
            for write in writers:
                status = write(m4, array_id, region, np.zeros(4))
                assert status is Status.INVALID
        for write in writers:
            status = write(m4, array_id, [(0, 3)], np.zeros(4))
            assert status is Status.INVALID  # shape mismatch

    def test_unknown_array_not_found(self, m4):
        data, status = am_user.read_region(m4, "bogus", [(0, 4)])
        assert status is Status.NOT_FOUND
        assert data is None


class TestRegionMessageCounts:
    def test_read_region_routes_at_most_one_message_per_owner(self, m4):
        array_id = make_vector(m4)  # 4 owners, 4 elements each
        m4.reset_traffic()
        data, status = am_user.read_region(m4, array_id, [(0, 16)])
        assert status is Status.OK
        assert len(data) == 16
        assert m4.traffic_snapshot()["messages"] <= 4

    def test_write_region_routes_at_most_one_message_per_owner(self, m4):
        array_id = make_vector(m4)
        m4.reset_traffic()
        status = am_user.write_region(m4, array_id, [(0, 16)], np.ones(16))
        assert status is Status.OK
        assert m4.traffic_snapshot()["messages"] <= 4

    def test_region_beats_per_element_path(self, m4):
        """The acceptance criterion: O(owners) vs O(elements) messages."""
        array_id = make_vector(m4)

        m4.reset_traffic()
        data, status = am_user.read_region(m4, array_id, [(0, 16)])
        assert status is Status.OK
        region_messages = m4.traffic_snapshot()["messages"]

        m4.reset_traffic()
        for i in range(16):
            _, status = am_user.read_element(m4, array_id, (i,))
            assert status is Status.OK
        element_messages = m4.traffic_snapshot()["messages"]

        assert region_messages <= 4  # at most one per owning processor
        assert element_messages >= 12  # one per element on remote owners
        assert region_messages < element_messages

    def test_region_touching_one_owner_costs_at_most_one_message(self, m4):
        array_id = make_vector(m4)
        m4.reset_traffic()
        data, status = am_user.read_region(m4, array_id, [(4, 8)])
        assert status is Status.OK
        assert m4.traffic_snapshot()["messages"] == 1
        # Served from the handling node itself: zero messages.
        m4.reset_traffic()
        data, status = am_user.read_region(
            m4, array_id, [(0, 4)], processor=0
        )
        assert status is Status.OK
        assert m4.traffic_snapshot()["messages"] == 0


class TestLocalBlock:
    def test_get_local_block_origin_and_data(self, m4):
        array_id = make_vector(m4)
        am_user.write_region(m4, array_id, [(0, 16)], np.arange(16.0))
        for proc in range(4):
            block, status = am_user.get_local_block(m4, array_id, proc)
            assert status is Status.OK
            origin, data = block
            assert origin == (proc * 4,)
            assert np.array_equal(data, np.arange(16.0)[proc * 4 : proc * 4 + 4])

    def test_get_local_block_requires_local_section(self, m4):
        processors = am_util.node_array(1, 1, 3)  # nodes 1..3 only
        array_id, status = am_user.create_array(
            m4, "double", (6,), processors, ["block"]
        )
        assert status is Status.OK
        block, status = am_user.get_local_block(m4, array_id, 0)
        assert status is Status.NOT_FOUND
        assert block is None
