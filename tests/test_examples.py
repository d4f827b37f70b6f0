"""The shipped examples must run end-to-end (tiny arguments)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, argv):
    old = sys.argv
    sys.argv = [script] + argv
    try:
        runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    finally:
        sys.argv = old


class TestExamples:
    def test_quickstart(self, capsys):
        _run("quickstart.py", ["2-CPU-A", "300"])
        out = capsys.readouterr().out
        assert "whole-processor AVF" in out

    def test_fetch_policy_study(self, capsys):
        _run("fetch_policy_study.py", ["2-MEM-A", "250"])
        out = capsys.readouterr().out
        assert "FLUSH" in out and "best trade-off" in out

    def test_smt_vs_superscalar(self, capsys):
        _run("smt_vs_superscalar.py", ["2-CPU-A", "250"])
        out = capsys.readouterr().out
        assert "wins the trade-off" in out

    def test_custom_workload(self, capsys):
        from repro.workload.spec2000 import PROFILES

        before = dict(PROFILES)
        try:
            _run("custom_workload.py", ["250"])
        finally:
            # The example registers custom profiles in the global registry;
            # keep other tests' view of the 20 SPEC models intact.
            PROFILES.clear()
            PROFILES.update(before)
        out = capsys.readouterr().out
        assert "graph_walker" in out

    @pytest.mark.slow
    def test_context_scaling(self, capsys):
        _run("context_scaling.py", ["200"])
        out = capsys.readouterr().out
        assert "CPU-bound workloads" in out

    def test_fault_injection(self, capsys):
        _run("fault_injection.py", ["2-CPU-A", "4"])
        out = capsys.readouterr().out
        assert "95% Wilson interval" in out and "ACE AVF inside" in out

    def test_avf_phases(self, capsys):
        _run("avf_phases.py", ["2-MIX-A", "500", "150"])
        out = capsys.readouterr().out
        assert "windows of" in out
