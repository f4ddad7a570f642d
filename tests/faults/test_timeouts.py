"""Timeout paths: recv deadlines, configurable defaults, call expiry."""

from __future__ import annotations

import time

import pytest

from repro.arrays import am_util
from repro.calls import Index, Reduce, distributed_call
from repro.status import Status
from repro.vp.machine import Machine
from repro.vp.mailbox import Mailbox, default_recv_timeout
from repro.vp.message import MessageType


class TestRecvTimeoutMessages:
    def test_selective_recv_timeout_names_the_filter(self):
        box = Mailbox(owner=3)
        with pytest.raises(TimeoutError) as info:
            box.recv(
                mtype=MessageType.PCN, tag="tick", source=1, timeout=0.05
            )
        text = str(info.value)
        assert "processor 3" in text
        assert "selective recv" in text
        assert "tag='tick'" in text
        assert "source=1" in text
        assert "0.05" in text

    def test_untyped_recv_timeout_message(self):
        box = Mailbox(owner=5)
        with pytest.raises(TimeoutError, match="processor 5: untyped recv"):
            box.recv_untyped(timeout=0.05)


class TestConfigurableDeadline:
    def test_builtin_default_is_30s(self, monkeypatch):
        monkeypatch.delenv("REPRO_RECV_TIMEOUT", raising=False)
        assert default_recv_timeout() == 30.0

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_RECV_TIMEOUT", "0.07")
        assert default_recv_timeout() == 0.07
        box = Mailbox(owner=0)
        started = time.monotonic()
        with pytest.raises(TimeoutError, match="0.07"):
            box.recv(tag="never")
        assert time.monotonic() - started < 5.0

    def test_env_var_is_read_when_the_mailbox_is_built(self, monkeypatch):
        monkeypatch.setenv("REPRO_RECV_TIMEOUT", "0.07")
        box = Mailbox(owner=0)
        monkeypatch.delenv("REPRO_RECV_TIMEOUT")
        assert box.default_timeout == 0.07
        with pytest.raises(TimeoutError, match="0.07"):
            box.recv(tag="never")

    def test_malformed_env_var_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_RECV_TIMEOUT", "not-a-number")
        assert default_recv_timeout() == 30.0
        monkeypatch.setenv("REPRO_RECV_TIMEOUT", "-3")
        assert default_recv_timeout() == 30.0

    def test_machine_parameter_reaches_every_mailbox(self):
        machine = Machine(3, default_recv_timeout=0.05)
        for node in machine.processors():
            assert node.mailbox.default_timeout == 0.05
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            machine.processor(1).mailbox.recv(tag="never")
        assert time.monotonic() - started < 5.0

    def test_explicit_timeout_beats_machine_default(self):
        machine = Machine(2, default_recv_timeout=60.0)
        with pytest.raises(TimeoutError, match="0.05"):
            machine.processor(0).mailbox.recv(tag="never", timeout=0.05)


class TestDistributedCallExpiry:
    @pytest.fixture
    def m4(self):
        machine = Machine(4, default_recv_timeout=10.0)
        am_util.load_all(machine)
        return machine

    def test_call_timeout_expires(self, m4):
        def stuck(ctx):
            if ctx.index == 0:
                time.sleep(1.5)

        started = time.monotonic()
        with pytest.raises(TimeoutError):
            distributed_call(
                m4, am_util.node_array(0, 1, 4), stuck, [], timeout=0.2
            )
        assert time.monotonic() - started < 5.0

    def test_machine_reusable_after_call_timeout(self, m4):
        def stuck(ctx):
            if ctx.index == 1:
                time.sleep(0.8)

        with pytest.raises(TimeoutError):
            distributed_call(
                m4, am_util.node_array(0, 1, 4), stuck, [], timeout=0.2
            )
        time.sleep(1.0)  # let the stale copy drain

        def healthy(ctx, index, out):
            out[0] = float(index + 1)

        result = distributed_call(
            m4,
            am_util.node_array(0, 1, 4),
            healthy,
            [Index(), Reduce("double", 1, "sum")],
        )
        assert result.status is Status.OK
        assert result.reductions[0] == 10.0

    def test_machine_default_governs_call_recv(self):
        """With no explicit call timeout, a blocked DP recv dies on the
        machine's configured deadline instead of the built-in 30s."""
        machine = Machine(2, default_recv_timeout=0.2)
        am_util.load_all(machine)

        def never_receives(ctx, index):
            if ctx.index == 0:
                ctx.comm.recv(source_rank=1, tag="ghost")

        started = time.monotonic()
        result = distributed_call(
            machine,
            am_util.node_array(0, 1, 2),
            never_receives,
            [Index()],
        )
        # The blocked copy times out quickly and reports ERROR (§4.1.2
        # failure-as-value) instead of hanging toward 30s.
        assert result.status is Status.ERROR
        assert time.monotonic() - started < 10.0
