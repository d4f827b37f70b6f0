"""The parallel experiment runner and the persistent on-disk result cache."""

import dataclasses
import json
import pickle
from collections import Counter

import pytest

from repro.avf.structures import Structure
from repro.config import MachineConfig, SimConfig
from repro.content_store import STORE_SCHEMA_VERSION
from repro.errors import ConfigError
from repro.experiments.parallel import (
    SimJob,
    followup_jobs_for,
    prewarm_artefacts,
    run_jobs,
    smt_jobs_for,
)
from repro.experiments import runner
from repro.experiments.reproduce import run_all
from repro.experiments.runner import (
    ExperimentScale,
    ResultCache,
    job_digest,
    job_key,
    stable_digest,
)
from repro.sim.results import SimResult
from repro.workload.mixes import get_mix

TINY = ExperimentScale(instructions_per_thread=200)


class TestDiskCache:
    def test_miss_simulates_then_memory_hit(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        a = cache.smt(get_mix("2-CPU-A"), "ICOUNT", TINY)
        assert cache.simulated == 1
        b = cache.smt(get_mix("2-CPU-A"), "ICOUNT", TINY)
        assert b is a
        assert cache.simulated == 1
        assert cache.mem_hits == 1

    def test_writes_one_entry_per_run(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.smt(get_mix("2-CPU-A"), "ICOUNT", TINY)
        cache.single_thread("bzip2", 300, TINY)
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 2
        for entry in entries:
            assert json.loads(entry.read_text())["schema"] == STORE_SCHEMA_VERSION

    def test_cross_process_reuse(self, tmp_path):
        """A fresh cache instance (fresh process) answers from disk."""
        warm = ResultCache(cache_dir=tmp_path)
        original = warm.smt(get_mix("2-MEM-A"), "ICOUNT", TINY)

        cold = ResultCache(cache_dir=tmp_path)
        reloaded = cold.smt(get_mix("2-MEM-A"), "ICOUNT", TINY)
        assert cold.simulated == 0
        assert cold.disk_hits == 1
        assert reloaded.to_payload() == original.to_payload()
        assert reloaded.summary() == original.summary()

    def test_distinct_keys_per_policy_and_seed(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        mix = get_mix("2-CPU-A")
        cache.smt(mix, "ICOUNT", TINY)
        cache.smt(mix, "DWARN", TINY)
        cache.smt(mix, "ICOUNT", ExperimentScale(instructions_per_thread=200,
                                                 seed=2))
        assert cache.simulated == 3
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_schema_mismatch_invalidates_entry(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.smt(get_mix("2-CPU-A"), "ICOUNT", TINY)
        (path,) = tmp_path.glob("*.json")
        entry = json.loads(path.read_text())
        entry["schema"] = STORE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))

        cold = ResultCache(cache_dir=tmp_path)
        cold.smt(get_mix("2-CPU-A"), "ICOUNT", TINY)
        assert cold.simulated == 1  # stale entry re-simulated, not misread
        assert cold.disk_hits == 0
        assert json.loads(path.read_text())["schema"] == STORE_SCHEMA_VERSION

    def test_corrupt_entry_invalidated(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.smt(get_mix("2-CPU-A"), "ICOUNT", TINY)
        (path,) = tmp_path.glob("*.json")
        path.write_text("{not json")

        cold = ResultCache(cache_dir=tmp_path)
        cold.smt(get_mix("2-CPU-A"), "ICOUNT", TINY)
        assert cold.simulated == 1
        assert json.loads(path.read_text())["schema"] == STORE_SCHEMA_VERSION

    @pytest.mark.parametrize("damage", ["flip", "reindent", "parent_format"])
    def test_damaged_entry_resimulated_and_rewritten(self, tmp_path, damage,
                                                     flip_digit):
        """A flipped digit that still parses, a re-indented entry whose
        checksum still holds, and an entry in the checksum-less format of
        earlier versions are all recomputed, never served."""
        warm = ResultCache(cache_dir=tmp_path)
        fresh = warm.smt(get_mix("2-CPU-A"), "ICOUNT", TINY)
        (path,) = tmp_path.glob("*.json")
        original = path.read_bytes()
        entry = json.loads(original)
        if damage == "flip":
            flip_digit(path, "cycles")
        elif damage == "reindent":
            path.write_text(json.dumps(entry, indent=2))
        else:
            path.write_text(json.dumps({"schema": 1,
                                        "result": entry["result"]},
                                       sort_keys=True))

        cold = ResultCache(cache_dir=tmp_path)
        again = cold.smt(get_mix("2-CPU-A"), "ICOUNT", TINY)
        assert (cold.simulated, cold.disk_hits) == (1, 0)
        assert again.to_payload() == fresh.to_payload()
        assert path.read_bytes() == original

    def test_memory_only_without_cache_dir(self):
        cache = ResultCache()
        a = cache.smt(get_mix("2-CPU-A"), "ICOUNT", TINY)
        assert cache.smt(get_mix("2-CPU-A"), "ICOUNT", TINY) is a

    def test_clear_drops_memory_but_not_disk(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        cache.smt(get_mix("2-CPU-A"), "ICOUNT", TINY)
        cache.clear()
        cache.smt(get_mix("2-CPU-A"), "ICOUNT", TINY)
        assert cache.simulated == 1
        assert cache.disk_hits == 1


class TestSerialization:
    def test_payload_round_trip_is_exact(self, tmp_path):
        cache = ResultCache()
        result = cache.smt(get_mix("2-MIX-A"), "ICOUNT", TINY)
        clone = SimResult.from_payload(
            json.loads(json.dumps(result.to_payload())))
        assert clone.to_payload() == result.to_payload()
        assert clone.ipc == result.ipc
        assert clone.avf.avf == result.avf.avf
        assert clone.avf.thread_avf == result.avf.thread_avf
        assert clone.thread_ipcs() == result.thread_ipcs()
        assert clone.phase_series is None


    def test_every_structure_survives_the_round_trip(self):
        result = ResultCache().smt(get_mix("2-MIX-A"), "ICOUNT", TINY)
        clone = SimResult.from_payload(
            json.loads(json.dumps(result.to_payload())))
        for table in ("avf", "thread_avf", "utilization", "bits"):
            before = getattr(result.avf, table)
            after = getattr(clone.avf, table)
            assert set(before) == set(after) == set(Structure), table
            assert all(type(s) is Structure for s in after), table
            assert after == before, table

    def test_an_entry_naming_an_unknown_structure_is_recomputed(
            self, tmp_path):
        warm = ResultCache(cache_dir=tmp_path)
        result = warm.smt(get_mix("2-MIX-A"), "ICOUNT", TINY)
        digest, = [path.stem for path in tmp_path.glob("*.json")]
        payload = result.to_payload()
        payload["avf"]["avf"]["L3"] = 0.5
        warm._disk.put(digest, payload)  # checksummed, so only decode objects
        cold = ResultCache(cache_dir=tmp_path)
        assert cold.get(digest) is None
        assert not (tmp_path / f"{digest}.json").exists()
        assert (cold.smt(get_mix("2-MIX-A"), "ICOUNT", TINY).to_payload()
                == result.to_payload())
        assert cold.simulated == 1


class TestParallelRunner:
    def _job(self, name="2-CPU-A", policy="ICOUNT"):
        mix = get_mix(name)
        return SimJob(workload_name=mix.name, programs=mix.programs,
                      policy=policy, config=ResultCache().config,
                      sim=TINY.sim_config(mix.num_threads))

    def test_duplicate_jobs_run_once(self):
        cache = ResultCache()
        executed = run_jobs([self._job(), self._job()], cache, max_workers=1)
        assert executed == 1
        assert cache.simulated == 1

    def test_warm_cache_executes_nothing(self):
        cache = ResultCache()
        run_jobs([self._job()], cache)
        assert run_jobs([self._job()], cache) == 0

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ConfigError):
            run_jobs([self._job()], ResultCache(), max_workers=0)

    def test_parallel_results_match_serial_exactly(self, tmp_path):
        jobs = [self._job("2-CPU-A"), self._job("2-MEM-A"),
                self._job("2-CPU-A", policy="DWARN")]
        serial = ResultCache()
        run_jobs(jobs, serial, max_workers=1)
        parallel = ResultCache(cache_dir=tmp_path)
        run_jobs(jobs, parallel, max_workers=2)
        assert parallel.simulated == 3
        for job in jobs:
            a = serial.get(job.digest())
            b = parallel.get(job.digest())
            assert a is not None and b is not None
            assert a.to_payload() == b.to_payload()

    def test_job_digest_matches_cache_key(self):
        job = self._job()
        assert job.digest() == stable_digest(
            job_key(job.config, job.sim, get_mix("2-CPU-A"), "ICOUNT"))


class TestArtefactPlanning:
    def test_prewarm_covers_fig1_rendering(self):
        cache = ResultCache()
        prewarm_artefacts(["fig1_avf_profile"], TINY, cache, jobs=1)
        warm = cache.simulated
        assert warm == 6  # 4-context CPU/MIX/MEM, groups A and B
        from repro.experiments import run_figure1

        run_figure1(scale=TINY, cache=cache)
        assert cache.simulated == warm  # rendering never simulates

    def test_followup_jobs_cover_single_thread_runs(self):
        cache = ResultCache()
        run_jobs(smt_jobs_for("fig3_smt_vs_st", TINY, cache.config), cache)
        warm = cache.simulated
        run_jobs(followup_jobs_for("fig3_smt_vs_st", TINY, cache), cache)
        assert cache.simulated > warm
        from repro.experiments import run_figure3

        after_prewarm = cache.simulated
        run_figure3(scale=TINY, cache=cache)
        assert cache.simulated == after_prewarm

    def test_unknown_artefact_plans_nothing(self):
        cache = ResultCache()
        assert smt_jobs_for("not_an_artefact", TINY, cache.config) == []
        assert followup_jobs_for("not_an_artefact", TINY, cache) == []

    def test_prewarm_rejects_bad_jobs(self):
        with pytest.raises(ConfigError):
            prewarm_artefacts(["fig1_avf_profile"], TINY, ResultCache(), jobs=0)


#: The artefacts served from the result cache (the live-injection ones are not).
CACHED_ARTEFACTS = ["fig1_avf_profile", "fig2_efficiency", "fig3_smt_vs_st",
                    "fig4_smt_vs_st_efficiency", "fig5_context_scaling",
                    "fig6_fetch_policies", "fig7_policy_efficiency",
                    "fig8_fairness", "smt_vs_superscalar", "resource_scaling"]


@pytest.fixture(scope="module")
def planned_jobs():
    """Every job prewarm plans for the cached artefacts at scale 300, seed 1."""
    planned = []

    def recording(jobs, cache, **kwargs):
        jobs = list(jobs)
        planned.extend(jobs)
        return run_jobs(jobs, cache, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.experiments.parallel.run_jobs", recording)
        prewarm_artefacts(CACHED_ARTEFACTS, ExperimentScale(300, seed=1),
                          ResultCache(), jobs=2)
    return planned


def _uncached(config, sim, workload, policy):
    return stable_digest(job_key(config, sim, workload, policy))


class TestJobDigest:
    def test_every_planned_job_digest_is_exact(self, planned_jobs):
        digests = set()
        for job in planned_jobs:
            expected = _uncached(job.config, job.sim, job.workload(),
                                 job.policy)
            assert job_digest(job.config, job.sim, job.workload(),
                              job.policy) == expected
            assert job.digest() == expected
            digests.add(expected)
        assert len(digests) == 138

    @pytest.mark.parametrize("first", ["loose", "exact"])
    def test_equal_configs_keep_their_own_digests(self, first):
        # Each order uses values no other test has seen, so neither digest
        # can come from the memo of an earlier call.
        fresh = SimConfig(max_cycles=1001 if first == "loose" else 1002)
        pairs = [
            (MachineConfig(), dataclasses.replace(fresh, seed=True),
             MachineConfig(), dataclasses.replace(fresh, seed=1)),
            (MachineConfig(memory_latency=200.0), fresh,
             MachineConfig(memory_latency=200), fresh),
        ]
        mix = get_mix("2-CPU-A")
        for loose_cfg, loose_sim, exact_cfg, exact_sim in pairs:
            assert (loose_cfg, loose_sim) == (exact_cfg, exact_sim)
            order = [(loose_cfg, loose_sim), (exact_cfg, exact_sim)]
            if first == "exact":
                order.reverse()
            got = [job_digest(cfg, sim, mix, "ICOUNT") for cfg, sim in order]
            assert got == [_uncached(cfg, sim, mix, "ICOUNT")
                           for cfg, sim in order]
            assert got[0] != got[1]

    def test_every_config_field_is_in_its_repr(self):
        # job_digest keys its memo on repr: a repr=False field would let
        # two configs that serialise differently share a digest.
        todo = [MachineConfig(), SimConfig()]
        while todo:
            obj = todo.pop()
            for f in dataclasses.fields(obj):
                assert f.repr, f"{type(obj).__name__}.{f.name}"
                value = getattr(obj, f.name)
                if dataclasses.is_dataclass(value):
                    todo.append(value)


class TestJobDigestMemo:
    def test_no_repr_or_asdict_after_the_first_lookup(self, monkeypatch):
        calls = Counter()

        def count(cls):
            original = cls.__repr__

            def spy(self):
                calls[cls.__name__] += 1
                return original(self)

            monkeypatch.setattr(cls, "__repr__", spy)

        count(MachineConfig)
        count(SimConfig)
        real_asdict = runner.asdict

        def asdict_spy(obj):
            calls["asdict"] += 1
            return real_asdict(obj)

        monkeypatch.setattr(runner, "asdict", asdict_spy)
        # Values no other test uses: the first lookup misses the memo.
        config = MachineConfig(memory_latency=271)
        sim = SimConfig(max_cycles=1003)
        mix = get_mix("2-CPU-A")
        first = job_digest(config, sim, mix, "ICOUNT")
        assert calls == {"MachineConfig": 1, "SimConfig": 1, "asdict": 2}
        calls.clear()
        for _ in range(1000):
            assert job_digest(config, sim, mix, "ICOUNT") == first
        assert job_digest(config, sim, mix, "FLUSH") != first
        assert calls == {"asdict": 2}  # the FLUSH miss, no repr
        assert first == _uncached(config, sim, mix, "ICOUNT")

    def test_the_kept_key_is_invisible_to_the_config(self):
        config, sim = MachineConfig(memory_latency=272), SimConfig(seed=7)
        job_digest(config, sim, get_mix("2-CPU-A"), "ICOUNT")
        for obj, fresh in ((config, MachineConfig(memory_latency=272)),
                           (sim, SimConfig(seed=7))):
            assert obj == fresh and hash(obj) == hash(fresh)
            assert repr(obj) == repr(fresh)
            assert dataclasses.asdict(obj) == dataclasses.asdict(fresh)
            assert pickle.loads(pickle.dumps(obj)) == fresh

    def test_a_scale_hands_out_one_config_per_budget(self):
        scale = ExperimentScale(instructions_per_thread=301, seed=4)
        assert scale.sim_config(4) is scale.sim_config(4)
        assert scale.sim_config(4) is scale.budget_config(1204)
        assert scale.sim_config(2) is not scale.sim_config(4)
        assert scale.sim_config(4) == SimConfig(max_instructions=1204, seed=4)
        equal = ExperimentScale(instructions_per_thread=301, seed=4)
        assert equal.sim_config(4) == scale.sim_config(4)

    def test_equal_scales_keep_their_own_configs(self):
        # ExperimentScale(seed=True) == ExperimentScale(seed=1), yet their
        # runs serialise (and so are cached) differently.
        mix = get_mix("2-MEM-A")
        loose = ExperimentScale(instructions_per_thread=302, seed=True)
        exact = ExperimentScale(instructions_per_thread=302, seed=1)
        assert loose == exact
        got = [job_digest(MachineConfig(), scale.sim_config(2), mix, "ICOUNT")
               for scale in (loose, exact, loose)]
        assert got == [_uncached(MachineConfig(), scale.sim_config(2), mix,
                                 "ICOUNT") for scale in (loose, exact, loose)]
        assert got[0] != got[1]
        assert loose.sim_config(2).seed is True
        assert exact.sim_config(2).seed == 1
        assert exact.sim_config(2).seed is not True


class TestRunAllParallel:
    ARTE = ["fig1_avf_profile", "fig3_smt_vs_st"]

    def test_jobs_n_byte_identical_to_serial(self, tmp_path):
        run_all(tmp_path / "serial", scale=TINY, only=self.ARTE, jobs=1)
        run_all(tmp_path / "parallel", scale=TINY, only=self.ARTE, jobs=2,
                cache_dir=tmp_path / "cache")
        for name in self.ARTE:
            serial = (tmp_path / "serial" / f"{name}.txt").read_bytes()
            parallel = (tmp_path / "parallel" / f"{name}.txt").read_bytes()
            assert serial == parallel

    def test_second_invocation_runs_nothing(self, tmp_path):
        run_all(tmp_path / "one", scale=TINY, only=["fig1_avf_profile"],
                cache_dir=tmp_path / "cache")
        cold = ResultCache(cache_dir=tmp_path / "cache")
        run_all(tmp_path / "two", scale=TINY, only=["fig1_avf_profile"],
                cache=cold)
        assert cold.simulated == 0
        assert ((tmp_path / "one" / "fig1_avf_profile.txt").read_bytes()
                == (tmp_path / "two" / "fig1_avf_profile.txt").read_bytes())
