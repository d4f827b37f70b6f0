"""Fault injection vs the exact ACE ledger: the paper's two methodologies.

The ledger's AVF is exact, and its interval replay re-derives the ledger
totals from the raw residency intervals.  Live injection measures the
same quantity by flipping real bits; its outcome accounting, validation
verdicts and plumbing are checked here on campaigns small enough for the
unit suite.
"""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.avf.account import VulnerabilityAccount
from repro.avf.structures import Structure
from repro.instrument import IntervalRecorder
from repro.config import DEFAULT_CONFIG, SimConfig
from repro.content_store import STORE_SCHEMA_VERSION
from repro.errors import ReproError
from repro.faultinject import InjectionOutcome, LiveConfig, run_live_campaign
from repro.faultinject.live import _StrikeDriver, golden_run
from repro.workload.mixes import get_mix


class TestTimelineReconstruction:
    """The interval replay, the exact route's cross-check: the recorder's
    verbatim log, re-summed, reproduces the ledger fed the same events."""

    @staticmethod
    def _feed(capacity, intervals):
        acct = VulnerabilityAccount("x", capacity)
        recorder = IntervalRecorder()
        for thread, start, end, ace in intervals:
            acct.add_interval(thread, start, end, ace=ace)
            recorder.occupy(Structure.IQ, thread, start, end, ace)
        return acct, recorder.replay_totals(Structure.IQ)

    def test_single_interval(self):
        acct, replay = self._feed(4, [(0, 10, 20, True)])
        assert replay == ({0: 10.0}, {})
        assert acct.total_ace() == 10.0

    def test_overlapping_intervals_stack(self):
        acct, replay = self._feed(4, [(0, 0, 10, True), (1, 5, 15, False)])
        assert replay == ({0: 10.0}, {1: 10.0})
        assert acct.occupied_cycles() == 20.0

    def test_timeline_sum_matches_ledger(self):
        rng = np.random.default_rng(3)
        intervals = []
        for _ in range(50):
            start = int(rng.integers(0, 90))
            end = start + int(rng.integers(1, 10))
            intervals.append((int(rng.integers(0, 4)), start, end,
                              bool(rng.integers(0, 2))))
        acct, (ace, unace) = self._feed(8, intervals)
        assert ace == pytest.approx(acct.ace_cycles)
        assert unace == pytest.approx(acct.unace_cycles)
        assert sum(ace.values()) == pytest.approx(acct.total_ace())
        assert sum(unace.values()) == pytest.approx(acct.total_unace())


#: A campaign over every injectable structure, small enough for the suite.
SMALL = dict(injections=12, sim=SimConfig(max_instructions=240), seed=11)


class TestCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_live_campaign(get_mix("2-MIX-A"), **SMALL)

    def test_outcomes_partition_injections(self, campaign):
        for c in campaign.structures.values():
            assert sum(c.outcomes.values()) == c.injections == 12

    def test_sdc_rate_matches_reported_avf(self, campaign):
        """The paper's two methodologies must agree (sampling error aside):
        the exact ACE AVF never falls below the live SDC rate's interval."""
        for s in campaign.structures:
            assert campaign.verdict(s) != "ANOMALY", s

    def test_masked_plus_sdc_is_one(self, campaign):
        """Every strike is masked, SDC, DUE or HANG, exactly once."""
        for c in campaign.structures.values():
            assert (c.masked_rate + c.sdc_rate + c.due_rate + c.hang_rate
                    == pytest.approx(1.0))

    def test_summary_renders(self, campaign):
        text = campaign.summary()
        assert "95% CI" in text
        assert "IQ" in text

    def test_rejects_cache_structures(self):
        with pytest.raises(ReproError):
            run_live_campaign(get_mix("2-CPU-A"), injections=10,
                              structures=(Structure.DL1_DATA,),
                              sim=SimConfig(max_instructions=200))

    def test_deterministic_given_seed(self):
        kwargs = dict(injections=6, sim=SimConfig(max_instructions=160),
                      seed=5, structures=(Structure.IQ,))
        a = run_live_campaign(get_mix("2-CPU-A"), **kwargs)
        b = run_live_campaign(get_mix("2-CPU-A"), **kwargs)
        assert ([r.to_payload() for r in a.records]
                == [r.to_payload() for r in b.records])

    def test_idle_strikes_happen(self, campaign):
        fu = campaign.structures[Structure.FU]
        assert fu.outcomes.get(InjectionOutcome.MASKED_IDLE, 0) > 0


class TestCampaignSimConfig:
    def test_campaign_sim_preserves_every_field(self):
        """A faulty run is the caller's run config plus a cycle budget:
        no other field may be dropped on the way."""
        base = SimConfig(max_instructions=160, warmup_instructions=7,
                         seed=99, phase_window_cycles=250,
                         functional_warmup=False)
        mix = get_mix("2-CPU-A")
        golden = golden_run(mix, "ICOUNT", DEFAULT_CONFIG, base)
        driver = _StrikeDriver(mix, "ICOUNT", DEFAULT_CONFIG, base, golden,
                               LiveConfig())
        expected = asdict(base)
        del expected["max_cycles"]
        faulty = asdict(driver.core.sim)
        assert faulty.pop("max_cycles") > golden.cycles
        assert faulty == expected


class TestZeroStrikeCampaign:
    def test_zero_strikes_summary_renders(self):
        """Regression: the summary divided by c.injections unguarded."""
        result = run_live_campaign(get_mix("2-CPU-A"), injections=0,
                                   sim=SimConfig(max_instructions=160),
                                   structures=(Structure.IQ, Structure.ROB))
        text = result.summary()
        assert "0 strikes/structure" in text
        for c in result.structures.values():
            assert c.injections == 0
            assert c.sdc_rate == 0.0
            assert not c.outcomes


class TestCampaignCacheAndJobs:
    KW = dict(injections=4, sim=SimConfig(max_instructions=160), seed=5,
              structures=(Structure.IQ, Structure.ROB),
              live=LiveConfig(strike_batch=2))

    def test_jobs_does_not_change_outcomes(self):
        serial = run_live_campaign(get_mix("2-CPU-A"), jobs=1, **self.KW)
        pooled = run_live_campaign(get_mix("2-CPU-A"), jobs=2, **self.KW)
        assert serial.summary() == pooled.summary()
        for s, c in serial.structures.items():
            assert pooled.structures[s].outcomes == c.outcomes

    def test_rejects_bad_jobs(self):
        with pytest.raises(ReproError):
            run_live_campaign(get_mix("2-CPU-A"), jobs=0, **self.KW)

    def test_disk_cache_round_trip(self, tmp_path):
        first = run_live_campaign(get_mix("2-CPU-A"), cache_dir=tmp_path,
                                  **self.KW)
        assert len(list(tmp_path.glob("live-*.json"))) == 4
        cached = run_live_campaign(get_mix("2-CPU-A"), cache_dir=tmp_path,
                                   **self.KW)
        assert (cached.batches_cached, cached.batches_executed) == (4, 0)
        assert cached.summary() == first.summary()
        assert list(cached.structures) == list(first.structures)

    def test_schema_mismatch_reruns(self, tmp_path):
        run_live_campaign(get_mix("2-CPU-A"), cache_dir=tmp_path, **self.KW)
        path = sorted(tmp_path.glob("live-*.json"))[0]
        entry = json.loads(path.read_text())
        entry["schema"] = STORE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        again = run_live_campaign(get_mix("2-CPU-A"), cache_dir=tmp_path,
                                  **self.KW)
        assert json.loads(path.read_text())["schema"] == STORE_SCHEMA_VERSION
        assert (again.batches_cached, again.batches_executed) == (3, 1)
        assert sum(again.structures[Structure.IQ].outcomes.values()) == 4

    @pytest.mark.parametrize("damage", ["flip", "reindent", "parent_format"])
    def test_damaged_entry_reruns(self, tmp_path, damage, flip_digit):
        """A batch entry with a flipped digit that still parses (and still
        validates), a re-indented one, or one in the checksum-less format
        of earlier versions is re-run, never served."""
        first = run_live_campaign(get_mix("2-CPU-A"), cache_dir=tmp_path,
                                  **self.KW)
        path = sorted(tmp_path.glob("live-*.json"))[0]
        original = path.read_bytes()
        entry = json.loads(original)
        if damage == "flip":
            flip_digit(path, "cycle")
        elif damage == "reindent":
            path.write_text(json.dumps(entry, indent=2))
        else:
            path.write_text(json.dumps({"schema": 2,
                                        **entry["result"]}, sort_keys=True))
        again = run_live_campaign(get_mix("2-CPU-A"), cache_dir=tmp_path,
                                  **self.KW)
        assert (again.batches_cached, again.batches_executed) == (3, 1)
        assert again.records == first.records
        assert path.read_bytes() == original
