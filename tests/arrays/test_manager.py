"""The array manager (§3.2.2.2, §5.1) through the am_user library layer
(§4.2)."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.arrays.durability import replica_store_for
from repro.arrays.local_section import TRACKER, LocalSection
from repro.arrays.manager import (
    _records,
    get_array_manager,
    install_array_manager,
)
from repro.arrays.record import ArrayID
from repro.perf import get_perf_layer
from repro.status import Status
from repro.vp.machine import Machine


@pytest.fixture
def m16():
    machine = Machine(16)
    am_util.load_all(machine)
    return machine


def all_procs(machine):
    return am_util.node_array(0, 1, machine.num_nodes)


class TestCreate:
    def test_create_returns_unique_ids(self, m16):
        procs = all_procs(m16)
        a, st_a = am_user.create_array(m16, "double", (16,), procs, ["block"])
        b, st_b = am_user.create_array(m16, "double", (16,), procs, ["block"])
        assert st_a is Status.OK and st_b is Status.OK
        assert a != b
        assert isinstance(a, ArrayID)

    def test_array_id_carries_creating_processor(self, m16):
        procs = all_procs(m16)
        aid, _ = am_user.create_array(
            m16, "double", (16,), procs, ["block"], processor=5
        )
        assert aid.creating_processor == 5

    def test_create_on_processor_outside_distribution(self, m16):
        """§3.2.1.5: array creation can be performed on any processor,
        including one that holds no local section."""
        procs = am_util.node_array(1, 1, 4)  # processors 1..4
        aid, st = am_user.create_array(
            m16, "double", (8,), procs, ["block"], processor=0
        )
        assert st is Status.OK
        # Global operations work from the creating processor...
        st = am_user.write_element(m16, aid, (3,), 1.0, processor=0)
        assert st is Status.OK
        # ...but find_local there fails: no section on processor 0.
        _sec, st = am_user.find_local(m16, aid, processor=0)
        assert st is Status.NOT_FOUND

    def test_bad_type_invalid(self, m16):
        _aid, st = am_user.create_array(
            m16, "float128", (8,), all_procs(m16), ["block"] * 1
        )
        assert st is Status.INVALID

    def test_bad_grid_invalid(self, m16):
        _aid, st = am_user.create_array(
            m16, "double", (10,), all_procs(m16), ["block"]
        )  # 16 does not divide 10
        assert st is Status.INVALID

    def test_duplicate_processors_invalid(self, m16):
        _aid, st = am_user.create_array(
            m16, "double", (8,), [0, 0, 1, 2], ["block"]
        )
        assert st is Status.INVALID

    def test_out_of_range_processor_invalid(self, m16):
        _aid, st = am_user.create_array(
            m16, "double", (8,), [0, 1, 2, 99], ["block"]
        )
        assert st is Status.INVALID

    def test_negative_processor_invalid_and_leaves_no_record(self):
        """-1 is out of range, not another name for the last processor:
        the array is refused before any processor is asked."""
        m4 = Machine(4)
        am_util.load_all(m4)
        aid, st = am_user.create_array(
            m4, "double", (8,), [0, 1, 3, -1], ["block"]
        )
        assert st is Status.INVALID and aid is None
        for p in range(m4.num_nodes):
            assert not _records(m4.processor(p))

    def test_bad_indexing_type_invalid(self, m16):
        _aid, st = am_user.create_array(
            m16, "double", (8,), all_procs(m16)[:4], ["block"],
            indexing_type="diagonal",
        )
        assert st is Status.INVALID

    def test_int_array(self, m16):
        procs = all_procs(m16)[:4]
        aid, st = am_user.create_array(m16, "int", (8,), procs, ["block"])
        assert st is Status.OK
        am_user.write_element(m16, aid, (0,), 7)
        value, _ = am_user.read_element(m16, aid, (0,))
        assert value == 7 and isinstance(value, int)


class TestElementAccess:
    def test_write_then_read(self, m16):
        procs = all_procs(m16)
        aid, _ = am_user.create_array(
            m16, "double", (16, 16), procs, ["block", "block"]
        )
        st = am_user.write_element(m16, aid, (3, 7), 2.5)
        assert st is Status.OK
        value, st = am_user.read_element(m16, aid, (3, 7))
        assert (value, st) == (2.5, Status.OK)

    def test_read_same_from_any_processor(self, m16):
        """§3.2.1.5: 'a request to read the first element of a distributed
        array returns the same value no matter where it is executed'."""
        procs = all_procs(m16)
        aid, _ = am_user.create_array(m16, "double", (16,), procs, ["block"])
        am_user.write_element(m16, aid, (0,), 42.0)
        values = {
            am_user.read_element(m16, aid, (0,), processor=p)[0]
            for p in range(16)
        }
        assert values == {42.0}

    def test_out_of_range_index_invalid(self, m16):
        aid, _ = am_user.create_array(
            m16, "double", (16,), all_procs(m16), ["block"]
        )
        _v, st = am_user.read_element(m16, aid, (16,))
        assert st is Status.INVALID
        st = am_user.write_element(m16, aid, (-1,), 0.0)
        assert st is Status.INVALID

    def test_wrong_rank_invalid(self, m16):
        aid, _ = am_user.create_array(
            m16, "double", (16,), all_procs(m16), ["block"]
        )
        _v, st = am_user.read_element(m16, aid, (0, 0))
        assert st is Status.INVALID

    def test_non_numeric_write_invalid(self, m16):
        aid, _ = am_user.create_array(
            m16, "double", (16,), all_procs(m16), ["block"]
        )
        st = am_user.write_element(m16, aid, (0,), "not a number")
        assert st is Status.INVALID

    def test_elements_land_in_correct_sections(self, m16):
        """Cross-check the manager against the layout arithmetic: write
        each element its own value, check each owner's section."""
        procs = all_procs(m16)[:4]
        aid, _ = am_user.create_array(m16, "double", (8,), procs, ["block"])
        for i in range(8):
            am_user.write_element(m16, aid, (i,), float(i))
        for rank, proc in enumerate(procs):
            section, st = am_user.find_local(m16, aid, processor=int(proc))
            assert st is Status.OK
            assert list(section.interior()) == [rank * 2.0, rank * 2.0 + 1]


def interleave(node, other):
    """Make ``node``'s next ``load_default`` run ``other`` to completion
    between its read and its return: another handler getting in between
    a read of an absent key and the store that follows it."""
    read = node.load_default
    pending = [other]

    def load_default(key, default=None):
        value = read(key, default)
        if pending:
            pending.pop()()
        return value

    node.load_default = load_default


class TestHeapTables:
    """A node's record table and replica store are made by whichever
    handler first needs one, and a lookup makes neither."""

    def test_two_handlers_on_a_fresh_node_keep_both_records(self):
        node = Machine(2).processor(1)
        interleave(node, lambda: _records(node).update(second=2))
        _records(node).update(first=1)
        assert node.load("am.records") == {"first": 1, "second": 2}

    def test_two_handlers_on_a_fresh_node_share_one_replica_store(self):
        node = Machine(2).processor(1)
        other = []
        interleave(node, lambda: other.append(replica_store_for(node)))
        store = replica_store_for(node)
        assert len(other) == 1 and other[0] is store
        assert node.load("am.replicas") is store

    def test_racing_handlers_on_a_fresh_node_lose_no_record(self):
        """Eight threads each make their first record on a fresh node,
        switched every microsecond: every record is in the one table."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(20):
                node = Machine(2).processor(1)
                threads = [
                    threading.Thread(
                        target=lambda k=k: _records(node).update({k: trial})
                    )
                    for k in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert sorted(node.load("am.records")) == list(range(8))
        finally:
            sys.setswitchinterval(interval)

    def test_engaging_a_hand_made_section_writes_no_table(self):
        machine = Machine(2)
        am_util.load_all(machine)
        node = machine.processor(1)
        section = LocalSection("double", (4, 4), (1,) * 4, "row")
        plans = get_perf_layer(machine).plans
        assert plans.engage(node, section) is None
        assert not node.has("am.records")


class TestUnknownArray:
    def test_read_unknown_not_found(self, m16):
        _v, st = am_user.read_element(m16, ArrayID(0, 999), (0,))
        assert st is Status.NOT_FOUND

    def test_free_unknown_not_found(self, m16):
        assert am_user.free_array(m16, ArrayID(0, 999)) is Status.NOT_FOUND

    def test_garbage_id_not_found(self, m16):
        _v, st = am_user.read_element(m16, "not-an-id", (0,))
        assert st is Status.NOT_FOUND


class TestFree:
    def test_free_invalidates_everywhere(self, m16):
        procs = all_procs(m16)
        aid, _ = am_user.create_array(m16, "double", (16,), procs, ["block"])
        assert am_user.free_array(m16, aid) is Status.OK
        for p in (0, 3, 15):
            _v, st = am_user.read_element(m16, aid, (0,), processor=p)
            assert st is Status.NOT_FOUND

    def test_double_free_not_found(self, m16):
        aid, _ = am_user.create_array(
            m16, "double", (16,), all_procs(m16), ["block"]
        )
        am_user.free_array(m16, aid)
        assert am_user.free_array(m16, aid) is Status.NOT_FOUND

    @pytest.mark.parametrize("free_on", [3, 4, 5])
    def test_free_from_any_holder_leaves_no_record(self, m16, free_on):
        """Regression: a free issued on an owner used to leave the
        section-less record on the creating processor, which went on
        answering OK for a freed array."""
        aid, st = am_user.create_array(
            m16, "double", (8,), [4, 5], ["block"], processor=3
        )
        assert st is Status.OK
        assert am_user.find_info(m16, aid, "type", processor=3)[1] is Status.OK
        assert am_user.free_array(m16, aid, processor=free_on) is Status.OK
        for p in range(m16.num_nodes):
            assert aid not in _records(m16.processor(p))
            _out, st = am_user.find_info(m16, aid, "type", processor=p)
            assert st is Status.NOT_FOUND
        assert get_array_manager(m16).durability_state(aid) is None
        assert am_user.free_array(m16, aid, processor=3) is Status.NOT_FOUND

    def test_free_after_the_creating_processor_failed(self, m16):
        """Regression: the free fan-out asked the dead creator, raised
        after the survivors had freed, and left the durability state and
        the status variable behind."""
        from repro.arrays import install_recovery

        install_recovery(m16)
        aid, st = am_user.create_array(
            m16, "double", (8,), [0, 1, 2, 3], ["block"], processor=2,
            replication=1,
        )
        assert st is Status.OK
        m16.fail(2)
        manager = get_array_manager(m16)
        owners = manager.durability_state(aid).processors
        assert 2 not in owners and len(owners) == 4
        assert am_user.free_array(m16, aid, processor=0) is Status.OK
        assert manager.durability_state(aid) is None
        for p in set(range(m16.num_nodes)) - {2}:
            assert aid not in _records(m16.processor(p))
            _out, st = am_user.find_info(m16, aid, "type", processor=p)
            assert st is Status.NOT_FOUND

    @pytest.mark.parametrize("replication", [0, 1])
    def test_holder_revived_after_the_free_forgets_the_array(
        self, m16, replication
    ):
        """Regression: the free passes over a failed holder, which kept
        the freed array's record, storage and mirrors if it was later
        revived — the rejoin protocol walked live arrays only."""
        live_before = TRACKER.live
        aid, st = am_user.create_array(
            m16, "double", (16,), am_util.node_array(0, 1, 8), ["block"],
            replication=replication,
        )
        assert st is Status.OK
        m16.fail(5)
        assert am_user.free_array(m16, aid, processor=0) is Status.OK
        assert aid in _records(m16.processor(5))  # could not be asked
        m16.revive(5)
        get_array_manager(m16).rejoin_processor(5)
        assert aid not in _records(m16.processor(5))
        _out, st = am_user.find_info(m16, aid, "type", processor=5)
        assert st is Status.NOT_FOUND
        assert replica_store_for(m16.processor(5)).sections_for(aid) == []
        assert TRACKER.live == live_before

    @pytest.mark.parametrize("replication", [0, 1])
    def test_free_after_a_migration_leaves_nothing_behind(
        self, m16, replication
    ):
        """Regression (ROADMAP 3(f)): the owner a section migrated away
        from kept its section-less record — and, replicated, the mirror
        it held of its ring neighbour's section — and no free ever
        reached it: it is no longer one of the array's processors."""
        live_before = TRACKER.live
        aid, st = am_user.create_array(
            m16, "double", (16,), [0, 1, 2, 3], ["block"],
            replication=replication,
        )
        assert st is Status.OK
        moved, st = am_user.migrate_sections(m16, aid, {1: 6})
        assert (moved, st) == ([1], Status.OK)
        # The former owner has forgotten the array as the move committed.
        assert aid not in _records(m16.processor(1))
        assert am_user.free_array(m16, aid) is Status.OK
        for p in range(m16.num_nodes):
            node = m16.processor(p)
            assert aid not in _records(node)
            assert replica_store_for(node).sections_for(aid) == []
        assert TRACKER.live == live_before

    def test_rejoin_keeps_the_records_of_live_arrays(self, m16):
        aid, st = am_user.create_array(
            m16, "double", (16,), am_util.node_array(0, 1, 8), ["block"]
        )
        assert st is Status.OK
        get_array_manager(m16).rejoin_processor(5)
        assert am_user.write_element(m16, aid, (10,), 7.0) is Status.OK
        assert am_user.read_element(m16, aid, (10,)) == (7.0, Status.OK)
        assert am_user.free_array(m16, aid) is Status.OK

    def test_free_releases_storage(self, m16):
        live_before = TRACKER.live
        aid, _ = am_user.create_array(
            m16, "double", (16,), all_procs(m16), ["block"]
        )
        assert TRACKER.live == live_before + 16
        am_user.free_array(m16, aid)
        assert TRACKER.live == live_before

    def test_freed_arrays_are_forgotten(self, m16):
        """Create/write/free rounds leave nothing behind: the per-node
        record tables and the coalescer's per-queue sequencing dicts stay
        flat, so a long-running program does not leak one entry per array
        (or per section) it ever used."""
        coalescer = get_perf_layer(m16).coalescer

        def sizes():
            tables = sum(
                len(_records(m16.processor(p))) for p in range(m16.num_nodes)
            )
            return (
                tables,
                len(coalescer._flush_locks),
                len(coalescer._next_seq),
                len(coalescer._applied_seq),
            )

        before = sizes()
        for _round in range(50):
            aid, status = am_user.create_array(
                m16, "double", (16,), am_util.node_array(0, 1, 8), ["block"],
                replication=1,
            )
            assert status is Status.OK
            for i in range(16):  # touches every one of the 8 sections
                am_user.write_element(m16, aid, (i,), float(i))
            assert am_user.flush_writes(m16, aid) == 16
            assert sizes() != before  # the live array is accounted for
            assert am_user.free_array(m16, aid) is Status.OK
            assert am_user.free_array(m16, aid) is Status.NOT_FOUND
            assert sizes() == before


class TestFindInfo:
    @pytest.fixture
    def arr(self, m16):
        procs = all_procs(m16)
        aid, st = am_user.create_array(
            m16, "double", (400, 200), procs,
            (("block", 2), ("block", 8)), border_info=[1, 1, 2, 2],
        )
        assert st is Status.OK
        return aid

    def test_type(self, m16, arr):
        assert am_user.find_info(m16, arr, "type") == ("double", Status.OK)

    def test_dimensions(self, m16, arr):
        assert am_user.find_info(m16, arr, "dimensions")[0] == [400, 200]

    def test_processors(self, m16, arr):
        assert am_user.find_info(m16, arr, "processors")[0] == list(range(16))

    def test_grid_dimensions(self, m16, arr):
        assert am_user.find_info(m16, arr, "grid_dimensions")[0] == [2, 8]

    def test_local_dimensions(self, m16, arr):
        assert am_user.find_info(m16, arr, "local_dimensions")[0] == [200, 25]

    def test_borders(self, m16, arr):
        assert am_user.find_info(m16, arr, "borders")[0] == [1, 1, 2, 2]

    def test_local_dimensions_plus(self, m16, arr):
        assert am_user.find_info(m16, arr, "local_dimensions_plus")[0] == [202, 29]

    def test_indexing_types(self, m16, arr):
        assert am_user.find_info(m16, arr, "indexing_type")[0] == "row"
        assert am_user.find_info(m16, arr, "grid_indexing_type")[0] == "row"

    def test_layout_is_the_whole_geometry_in_one_answer(self, m16, arr):
        layout, st = am_user.find_info(m16, arr, "layout", processor=7)
        assert st is Status.OK
        assert (layout.dims, layout.grid) == ((400, 200), (2, 8))
        assert (layout.borders, layout.indexing) == ((1, 1, 2, 2), "row")

    def test_unknown_selector_invalid(self, m16, arr):
        _out, st = am_user.find_info(m16, arr, "colour")
        assert st is Status.INVALID

    def test_info_identical_on_all_processors(self, m16, arr):
        results = {
            tuple(am_user.find_info(m16, arr, "grid_dimensions", processor=p)[0])
            for p in range(16)
        }
        assert results == {(2, 8)}


class TestVerifyArray:
    """The §4.2.7 examples, transcribed."""

    @pytest.fixture
    def pgms(self):
        def pgmA(ctx, *args):
            pass

        pgmA.border_query = lambda parm, rank: (2,) * (2 * rank)

        def pgmB(ctx, *args):
            pass

        pgmB.border_query = lambda parm, rank: (1,) * (2 * rank)
        return pgmA, pgmB

    def make(self, m16):
        procs = all_procs(m16)
        aid, st = am_user.create_array(
            m16, "double", (16, 16), procs, ("block", "block"),
            border_info=[2, 2, 2, 2], indexing_type="row",
        )
        assert st is Status.OK
        return aid

    def test_matching_borders_ok_no_copy(self, m16, pgms):
        pgmA, _ = pgms
        aid = self.make(m16)
        manager = get_array_manager(m16)
        copies_before = manager.request_counts.get("copy_local", 0)
        st = am_user.verify_array(
            m16, aid, 2, ("foreign_borders", pgmA, 1), "row"
        )
        assert st is Status.OK
        assert manager.request_counts.get("copy_local", 0) == copies_before

    def test_mismatched_borders_reallocates_and_preserves_data(self, m16, pgms):
        _, pgmB = pgms
        aid = self.make(m16)
        am_user.write_element(m16, aid, (5, 5), 3.25)
        st = am_user.verify_array(
            m16, aid, 2, ("foreign_borders", pgmB, 1), "row"
        )
        assert st is Status.OK
        assert am_user.find_info(m16, aid, "borders")[0] == [1, 1, 1, 1]
        # "unchanged interior (non-border) data"
        assert am_user.read_element(m16, aid, (5, 5))[0] == 3.25

    def test_indexing_mismatch_invalid(self, m16, pgms):
        pgmA, _ = pgms
        aid = self.make(m16)
        st = am_user.verify_array(
            m16, aid, 2, ("foreign_borders", pgmA, 1), "column"
        )
        assert st is Status.INVALID

    def test_rank_mismatch_invalid(self, m16):
        aid = self.make(m16)
        st = am_user.verify_array(m16, aid, 3, [1, 1, 1, 1, 1, 1], "row")
        assert st is Status.INVALID

    def test_unknown_array_not_found(self, m16):
        st = am_user.verify_array(m16, ArrayID(0, 999), 2, [], "row")
        assert st is Status.NOT_FOUND

    def test_explicit_border_list_also_works(self, m16):
        aid = self.make(m16)
        st = am_user.verify_array(m16, aid, 2, [0, 0, 0, 0], "row")
        assert st is Status.OK
        assert am_user.find_info(m16, aid, "local_dimensions_plus")[0] == [4, 4]

    def test_verify_on_a_holder_reaches_the_creator(self, m16):
        """A global operation answers the same on the creating processor
        as on any holder (§5.1.4), whichever holder verify_array ran on."""
        aid, st = am_user.create_array(
            m16, "double", (8, 8), [1, 2, 3, 4], ("block", "block")
        )
        assert st is Status.OK and aid.creating_processor == 0
        st = am_user.verify_array(m16, aid, 2, [1, 1, 1, 1], "row", processor=1)
        assert st is Status.OK
        for p in (0, 1, 2, 3, 4):
            assert am_user.find_info(m16, aid, "borders", processor=p) == (
                [1, 1, 1, 1], Status.OK
            )

    def test_write_during_copy_local_is_kept(self, m16, monkeypatch):
        """copy_local copies and swaps under the record lock: a write
        acknowledged while a section is being reallocated is in the new
        section afterwards, not in the freed copy.  A one-cell region
        write is acknowledged by the holder's commit."""
        aid = self.make(m16)
        target, _ = am_user.find_local(m16, aid, processor=0)
        reallocate = LocalSection.reallocate_with_borders
        writers, statuses = [], []

        def racing(section, new_borders):
            replacement = reallocate(section, new_borders)
            if section is target:
                done = threading.Event()

                def write():
                    statuses.append(am_user.write_region(
                        m16, aid, [(0, 1), (0, 1)], np.array([[42.0]])
                    ))
                    done.set()

                writers.append(threading.Thread(target=write))
                writers[0].start()
                # Give the write the time to land (it waits for the swap
                # when copy_local holds the record lock).
                done.wait(1.0)
            return replacement

        monkeypatch.setattr(LocalSection, "reallocate_with_borders", racing)
        assert am_user.verify_array(m16, aid, 2, [1, 1, 1, 1], "row") is (
            Status.OK
        )
        writers[0].join(10)
        assert not writers[0].is_alive()
        assert statuses == [Status.OK]
        assert am_user.read_element(m16, aid, (0, 0)) == (42.0, Status.OK)


class TestColumnMajor:
    def test_fig38_placement(self, m16):
        """Fig 3.8: 4x4 array over processors (0,2,4,6); the second grid
        cell's data lands on processor 2 row-major but 4 column-major."""
        procs = [0, 2, 4, 6]
        for indexing, expected_proc in (("row", 2), ("column", 4)):
            aid, st = am_user.create_array(
                m16, "double", (4, 4), procs, ("block", "block"),
                indexing_type=indexing,
            )
            assert st is Status.OK
            am_user.write_element(m16, aid, (0, 2), 77.0)  # grid cell (0,1)
            section, st = am_user.find_local(
                m16, aid, processor=expected_proc
            )
            assert st is Status.OK
            assert 77.0 in np.asarray(section.interior())


class TestTraceAndCounters:
    def test_debug_manager_traces(self):
        machine = Machine(4)
        am_util.load_all(machine, "am_debug")
        manager = get_array_manager(machine)
        aid, _ = am_user.create_array(
            machine, "double", (4,), [0, 1, 2, 3], ["block"]
        )
        am_user.read_element(machine, aid, (0,))
        kinds = [entry[0] for entry in manager.trace_log]
        assert "create_array" in kinds
        assert "read_element" in kinds
        assert "read_element_local" in kinds

    def test_install_idempotent(self):
        machine = Machine(2)
        first = install_array_manager(machine)
        second = install_array_manager(machine)
        assert first is second
