"""The one-shot reproduction driver."""

import os
from pathlib import Path

import pytest

from repro.experiments.reproduce import ARTEFACTS, run_all
from repro.experiments.runner import ExperimentScale, ResultCache

TINY = ExperimentScale(instructions_per_thread=200)


class TestArtefactRegistry:
    def test_all_eight_figures_registered(self):
        for n in range(1, 9):
            assert any(name.startswith(f"fig{n}") for name in ARTEFACTS)

    def test_extension_artefacts_registered(self):
        assert "smt_vs_superscalar" in ARTEFACTS
        assert "resource_scaling" in ARTEFACTS


class TestRunAll:
    def test_selected_artefacts_written(self, tmp_path):
        report = run_all(tmp_path, scale=TINY,
                         only=["fig1_avf_profile", "fig2_efficiency"])
        assert report == tmp_path / "REPORT.md"
        assert (tmp_path / "fig1_avf_profile.txt").exists()
        assert (tmp_path / "fig2_efficiency.txt").exists()
        assert not (tmp_path / "fig5_context_scaling.txt").exists()

    def test_report_contains_renderings(self, tmp_path):
        run_all(tmp_path, scale=TINY, only=["fig1_avf_profile"])
        text = (tmp_path / "REPORT.md").read_text()
        assert "Figure 1" in text
        assert "200 instructions/context" in text

    def test_progress_callback_invoked(self, tmp_path):
        seen = []
        run_all(tmp_path, scale=TINY, only=["fig1_avf_profile"],
                progress=lambda name, secs: seen.append(name))
        assert seen == ["fig1_avf_profile"]

    def test_creates_output_directory(self, tmp_path):
        out = tmp_path / "nested" / "dir"
        run_all(out, scale=TINY, only=["fig1_avf_profile"])
        assert Path(out).is_dir()


WARM = ["fig1_avf_profile", "fig2_efficiency"]


@pytest.fixture
def warm(tmp_path):
    """A warm result cache and a first reproduce into ``out``."""
    cache_dir = tmp_path / "cache"
    out = tmp_path / "out"
    run_all(out, scale=TINY, only=WARM, cache_dir=cache_dir)
    return cache_dir, out


def _rerun(out, cache_dir, scale=TINY):
    cache = ResultCache(cache_dir=cache_dir)
    run_all(out, scale=scale, only=WARM, cache=cache)
    return cache


def _artefacts(out):
    return {name: (out / f"{name}.txt").read_bytes() for name in WARM}


class TestUnchangedOutputs:
    """A reproduce leaves a file whose bytes would not change untouched."""

    def test_warm_rerun_leaves_artefacts_untouched(self, warm):
        cache_dir, out = warm
        before = {}
        for name in WARM:
            path = out / f"{name}.txt"
            # Backdate, so a rewrite shows even within one timestamp tick.
            os.utime(path, ns=(10**9, 10**9))
            before[name] = (path.stat().st_ino, path.stat().st_mtime_ns)
        cache = _rerun(out, cache_dir)
        assert cache.simulated == 0
        for name in WARM:
            st = (out / f"{name}.txt").stat()
            assert (st.st_ino, st.st_mtime_ns) == before[name], name

    @pytest.mark.parametrize("damage", ["edited", "truncated", "missing"])
    def test_damaged_artefact_is_rewritten(self, warm, damage):
        cache_dir, out = warm
        expected = _artefacts(out)
        path = out / "fig1_avf_profile.txt"
        if damage == "edited":
            path.write_bytes(expected["fig1_avf_profile"].replace(b"0", b"9"))
        elif damage == "truncated":
            path.write_bytes(expected["fig1_avf_profile"][:40])
        else:
            path.unlink()
        _rerun(out, cache_dir)
        assert _artefacts(out) == expected

    def test_artefacts_from_another_scale_are_rewritten(self, warm, tmp_path):
        cache_dir, out = warm
        expected = _artefacts(out)
        _rerun(out, tmp_path / "other", scale=ExperimentScale(150))
        assert _artefacts(out) != expected
        _rerun(out, cache_dir)
        assert _artefacts(out) == expected

    def test_directory_in_place_of_artefact_raises(self, tmp_path):
        (tmp_path / "fig1_avf_profile.txt").mkdir()
        with pytest.raises(IsADirectoryError):
            run_all(tmp_path, scale=TINY, only=["fig1_avf_profile"])
