"""Cross-backend differential guarantees and backend selection.

The vector kernel is a second implementation of the cycle loop, so its
contract is stronger than "close enough": every committed golden artefact
must be byte-identical regardless of which kernel produced it, and a
python/vector pair of runs of the same configuration must serialize to
the same payload.  Selection plumbing (explicit argument, ``REPRO_BACKEND``
environment variable, CLI flag) is covered alongside.
"""

import json
from pathlib import Path

import pytest

from repro.config import SimConfig
from repro.errors import ReproError
from repro.pipeline.core import SMTCore
from repro.sim import (
    BACKEND_ENV_VAR,
    SimSession,
    apply_backend_env,
    core_class,
    resolve_backend,
    simulate,
)
from repro.sim.vector import VectorCore

GOLDEN = Path(__file__).parent / "golden"

BACKENDS = ("python", "vector")


class TestBackendResolution:
    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend() == "python"
        assert core_class() is SMTCore

    def test_explicit_choice(self):
        assert resolve_backend("vector") == "vector"
        assert core_class("vector") is VectorCore

    def test_name_is_case_insensitive(self):
        assert resolve_backend(" Vector ") == "vector"

    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "vector")
        assert resolve_backend() == "vector"
        assert core_class() is VectorCore

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "vector")
        assert resolve_backend("python") == "python"

    def test_empty_env_means_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert resolve_backend() == "python"

    def test_unknown_name_rejected(self):
        with pytest.raises(ReproError, match="unknown simulation backend"):
            resolve_backend("fortran")

    def test_unknown_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fortran")
        with pytest.raises(ReproError, match="unknown simulation backend"):
            resolve_backend()

    def test_apply_backend_env_exports(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        apply_backend_env("vector")
        import os

        assert os.environ[BACKEND_ENV_VAR] == "vector"

    def test_apply_backend_env_none_is_noop(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        apply_backend_env(None)
        import os

        assert BACKEND_ENV_VAR not in os.environ

    def test_session_builds_requested_core(self):
        sim = SimConfig(max_instructions=100, seed=1)
        assert isinstance(SimSession(["gcc"], sim=sim).core, SMTCore)
        vec = SimSession(["gcc"], sim=sim, backend="vector").core
        assert isinstance(vec, VectorCore)

    def test_session_reads_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "vector")
        sim = SimConfig(max_instructions=100, seed=1)
        assert isinstance(SimSession(["gcc"], sim=sim).core, VectorCore)


@pytest.mark.parametrize("backend", BACKENDS)
class TestGoldenArtefactsPerBackend:
    """Both kernels reproduce every committed golden artefact byte for byte."""

    def test_golden_report(self, backend):
        sim = SimConfig(max_instructions=1500, seed=11)
        fresh = simulate(["bzip2", "gcc"], sim=sim, backend=backend).to_payload()
        golden = json.loads((GOLDEN / "golden_report.json").read_text())
        assert fresh == golden

    def test_golden_rmt(self, backend, monkeypatch):
        from repro.rmt.harness import run_redundant

        monkeypatch.setenv(BACKEND_ENV_VAR, backend)
        result = run_redundant("gcc", instructions=800, seed=3)
        golden = json.loads((GOLDEN / "golden_rmt.json").read_text())
        payload = {
            "redundant": result.redundant.to_payload(),
            "solo": result.solo.to_payload(),
            "trailer_gated_cycles": result.trailer_gated_cycles,
            "leader_gated_cycles": result.leader_gated_cycles,
        }
        assert json.loads(json.dumps(payload, sort_keys=True)) == golden

    def test_injection_validation(self, backend, monkeypatch):
        from repro.experiments.runner import ExperimentScale
        from repro.experiments.validate_injection import (
            format_injection_validation, run_injection_validation)

        monkeypatch.setenv(BACKEND_ENV_VAR, backend)
        scale = ExperimentScale(instructions_per_thread=500, seed=1)
        text = format_injection_validation(run_injection_validation(scale))
        golden = (GOLDEN / "injection_validation.txt").read_text()
        assert text + "\n" == golden


class TestBackendEquality:
    """Python/vector runs of the same configuration serialize identically.

    These configurations exercise the kernel paths with no golden file:
    the FLUSH policy (mid-run squash storms plus refetch of squashed
    correct-path work) and a four-thread run with a timing warmup (the
    measurement-window reset mid-run).
    """

    def _pair(self, progs, policy, **kw):
        payloads = {}
        for backend in BACKENDS:
            r = simulate(progs, policy=policy, sim=SimConfig(**kw),
                         backend=backend)
            payloads[backend] = json.dumps(r.to_payload(), sort_keys=True)
        return payloads

    def test_flush_policy_identical(self):
        pair = self._pair(["mcf", "twolf"], "FLUSH",
                          max_instructions=1500, seed=7)
        assert pair["python"] == pair["vector"]

    def test_four_thread_warmup_identical(self):
        pair = self._pair(["swim", "equake", "crafty", "parser"], "ICOUNT",
                          max_instructions=2000, seed=3,
                          warmup_instructions=600)
        assert pair["python"] == pair["vector"]
