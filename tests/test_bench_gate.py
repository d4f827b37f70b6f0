"""The benchmark regression gate: tools/check_bench_regression.py.

The checker is a script, not a package module, so it is loaded by file
path.  These tests pin the behaviours the bugfix sweep introduced:
per-candidate-file control normalisation and the unguarded-benchmark
note.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / \
    "check_bench_regression.py"
_spec = importlib.util.spec_from_file_location("check_bench_regression",
                                               _SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def write_bench(path: Path, mins: dict) -> str:
    payload = {"benchmarks": [{"name": name, "stats": {"min": value}}
                              for name, value in mins.items()]}
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def baseline(tmp_path):
    return write_bench(tmp_path / "base.json",
                       {"control": 1.0, "kernel": 10.0,
                        "fork": 1.5})


class TestThreshold:
    def test_identical_run_passes(self, tmp_path, baseline, capsys):
        cand = write_bench(tmp_path / "cand.json",
                           {"control": 1.0, "kernel": 10.0,
                            "fork": 1.5})
        assert gate.main([baseline, cand]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_fails(self, tmp_path, baseline, capsys):
        cand = write_bench(tmp_path / "cand.json",
                           {"control": 1.0, "kernel": 13.0,
                            "fork": 1.5})
        assert gate.main([baseline, cand, "--threshold", "0.15"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_benchmark_fails(self, tmp_path, baseline, capsys):
        cand = write_bench(tmp_path / "cand.json",
                           {"control": 1.0, "kernel": 10.0})
        assert gate.main([baseline, cand]) == 1

    def test_extra_benchmark_noted_not_failed(self, tmp_path, baseline,
                                              capsys):
        cand = write_bench(tmp_path / "cand.json",
                           {"control": 1.0, "kernel": 10.0,
                            "fork": 1.5, "kernel[new]": 5.0})
        assert gate.main([baseline, cand]) == 0
        assert "unguarded" in capsys.readouterr().out


class TestControlNormalisation:
    def test_uniformly_slow_machine_passes(self, tmp_path, baseline):
        # Everything 2x slower, including the control: a slower machine,
        # not a regression.
        cand = write_bench(tmp_path / "cand.json",
                           {"control": 2.0, "kernel": 20.0,
                            "fork": 3.0})
        assert gate.main([baseline, cand, "--control", "control"]) == 0

    def test_normalisation_is_per_file(self, tmp_path, baseline):
        # One noisy run and one clean run: each file is normalised by its
        # own control before the cross-file best is taken, so the clean
        # run's numbers win and the noisy run cannot fail the gate.
        noisy = write_bench(tmp_path / "noisy.json",
                            {"control": 1.0, "kernel": 30.0,
                             "fork": 9.0})
        clean = write_bench(tmp_path / "clean.json",
                            {"control": 2.0, "kernel": 20.0,
                             "fork": 3.0})
        assert gate.main([baseline, noisy, clean,
                          "--control", "control"]) == 0

    def test_real_slowdown_still_fails_on_fast_control(self, tmp_path,
                                                       baseline):
        # Control unchanged but the kernel doubled: a genuine regression
        # the normalisation must not absorb.
        cand = write_bench(tmp_path / "cand.json",
                           {"control": 1.0, "kernel": 20.0,
                            "fork": 1.5})
        assert gate.main([baseline, cand, "--control", "control"]) == 1
