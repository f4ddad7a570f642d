"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import DEMOS, main
from repro.obs.export import validate_chrome_trace


class TestInfo:
    def test_info_exits_zero(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "CS-TR-93-01" in out
        for demo in DEMOS:
            assert demo in out


class TestDemo:
    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_every_demo_runs(self, name, capsys):
        assert main(["demo", name]) == 0
        out = capsys.readouterr().out
        assert f"[{name}]" in out

    def test_unknown_demo_rejected(self, capsys):
        assert main(["demo", "quantum"]) == 2
        assert "unknown demo" in capsys.readouterr().err

    def test_bad_node_count_rejected(self, capsys):
        assert main(["demo", "climate", "--nodes", "6"]) == 2
        assert "multiple of 8" in capsys.readouterr().err

    def test_innerproduct_scales_nodes(self, capsys):
        # 4 nodes x local_m=4 -> m=16 -> sum of squares = 1496
        assert main(["demo", "innerproduct", "--nodes", "4"]) == 0
        assert "1496" in capsys.readouterr().out


class TestTrace:
    def test_trace_prints_request_counts(self, capsys):
        assert main(["trace", "innerproduct"]) == 0
        out = capsys.readouterr().out
        assert "array-manager requests" in out
        assert "create_array" in out
        assert "free_array" in out

    def test_trace_writes_a_loadable_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["trace", "innerproduct", "--chrome-trace", str(path)]) == 0
        assert f"chrome trace written to {path}" in capsys.readouterr().out
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document)
        tracks = {
            event["tid"]: event["args"]["name"]
            for event in document["traceEvents"]
            if event["name"] == "thread_name"
        }
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert any(tracks[e["tid"]].startswith("vp") for e in spans)
