"""Workload substrate: SPEC 2000 profiles and Table 2 mixes."""

import pytest

from repro.errors import WorkloadError
from repro.workload.mixes import TABLE2_MIXES, WorkloadMix, get_mix, mixes_for
from repro.workload.spec2000 import (
    PROFILES,
    BenchmarkProfile,
    Category,
    get_profile,
)


class TestProfiles:
    def test_twenty_programs(self):
        assert len(PROFILES) == 20

    def test_lookup(self):
        assert get_profile("mcf").name == "mcf"

    def test_unknown_program(self):
        with pytest.raises(WorkloadError):
            get_profile("quake3")

    def test_paper_categories(self):
        for name in ("mcf", "swim"):
            assert get_profile(name).category is Category.MEM
        for name in ("bzip2", "wupwise"):
            assert get_profile(name).category is Category.CPU

    def test_memory_programs_have_big_or_unruly_footprints(self):
        mem = [p for p in PROFILES.values() if p.category is Category.MEM]
        assert mem
        for p in mem:
            assert p.working_set_bytes >= 1 << 20 or p.fresh_fraction > 0

    def test_cpu_programs_fit_caches(self):
        cpu = [p for p in PROFILES.values() if p.category is Category.CPU]
        assert cpu
        for p in cpu:
            assert p.working_set_bytes <= 64 * 1024
            assert p.fresh_fraction == 0.0

    def test_mix_fractions_leave_room_for_compute(self):
        for p in PROFILES.values():
            total = p.frac_load + p.frac_store + p.frac_branch + p.frac_nop
            assert total < 0.95

    def test_fp_programs_have_fp_ops(self):
        for p in PROFILES.values():
            if p.suite == "fp":
                assert p.frac_fp > 0.3

    def test_invalid_fractions_rejected(self):
        with pytest.raises(WorkloadError):
            BenchmarkProfile("bad", "int", Category.CPU, frac_load=0.6,
                             frac_store=0.3, frac_branch=0.2, frac_fp=0.0)

    def test_seq_plus_fresh_bounded(self):
        with pytest.raises(WorkloadError):
            BenchmarkProfile("bad", "int", Category.MEM, frac_load=0.2,
                             frac_store=0.1, frac_branch=0.1, frac_fp=0.0,
                             sequential_fraction=0.7, fresh_fraction=0.5)


class TestTable2:
    def test_seventeen_workloads(self):
        # 6 two-thread + 6 four-thread + 5 eight-thread (one MEM group).
        assert len(TABLE2_MIXES) == 17

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_context_counts(self, n):
        for mix in mixes_for(n):
            assert mix.num_threads == n
            assert len(mix.programs) == n

    def test_cpu_mixes_pure(self):
        for mix in TABLE2_MIXES.values():
            if mix.mix_type == "CPU":
                for prog in mix.programs:
                    assert get_profile(prog).category is Category.CPU

    def test_mem_mixes_pure(self):
        for mix in TABLE2_MIXES.values():
            if mix.mix_type == "MEM":
                for prog in mix.programs:
                    assert get_profile(prog).category is Category.MEM

    def test_mix_mixes_half_and_half(self):
        for mix in TABLE2_MIXES.values():
            if mix.mix_type == "MIX":
                mem = sum(1 for p in mix.programs
                          if get_profile(p).category is Category.MEM)
                assert mem == mix.num_threads // 2

    def test_get_mix(self):
        assert get_mix("4-MEM-A").programs == ("mcf", "equake", "twolf", "galgel")

    def test_unknown_mix(self):
        with pytest.raises(WorkloadError):
            get_mix("16-CPU-A")

    def test_mixes_for_type_filter(self):
        mem4 = mixes_for(4, "MEM")
        assert {m.name for m in mem4} == {"4-MEM-A", "4-MEM-B"}

    def test_mixes_for_unknown_count(self):
        with pytest.raises(WorkloadError):
            mixes_for(16)

    def test_malformed_mix_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadMix("2-CPU-X", 2, "CPU", "X", ("bzip2", "mcf"))

    def test_wrong_size_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadMix("4-CPU-X", 4, "CPU", "X", ("bzip2", "eon"))

    def test_profiles_property(self):
        mix = get_mix("2-MEM-A")
        assert [p.name for p in mix.profiles] == ["mcf", "twolf"]
