"""Protection planning: scheme math, config parsing, budgeting, frontier."""

import pytest

from repro.avf.engine import AvfEngine
from repro.avf.structures import Structure
from repro.config import MachineConfig, SimConfig
from repro.errors import ConfigError
from repro.protection import (
    ALL_SCHEMES,
    ProtectionConfig,
    ProtectionScheme,
    added_bits,
    apply_protection,
    check_bits,
    detected_outcome,
    entry_width,
    outcome_fractions,
    parse_scheme,
    plan_protection,
    protection_frontier,
)
from repro.sim.simulator import simulate
from repro.structures.strike import MbuConfig
from repro.workload.mixes import get_mix


def _report(iq_avf=0.5, reg_avf=0.1):
    engine = AvfEngine(MachineConfig(), 1)
    engine.account(Structure.IQ).add(0, iq_avf * 96 * 1000, ace=True)
    cap = engine.account(Structure.REG).capacity
    engine.account(Structure.REG).add(0, reg_avf * cap * 1000, ace=True)
    return engine.report(cycles=1000)


class TestSchemes:
    def test_outcome_fractions_partition(self):
        for scheme in ProtectionScheme:
            for dist in ({1: 1.0}, {1: 0.7, 2: 0.2, 3: 0.1}):
                escape, due, corrected = outcome_fractions(scheme, dist)
                assert escape >= 0 and due >= 0 and corrected >= 0
                assert escape + due + corrected == pytest.approx(1.0)

    def test_single_bit_matches_first_order_model(self):
        """On single-bit strikes the new model reproduces the old one:
        parity detects, SECDED corrects, NONE escapes."""
        assert outcome_fractions(ProtectionScheme.NONE) == (1.0, 0.0, 0.0)
        assert outcome_fractions(ProtectionScheme.PARITY) == (0.0, 1.0, 0.0)
        assert outcome_fractions(ProtectionScheme.SECDED) == (0.0, 0.0, 1.0)
        assert outcome_fractions(ProtectionScheme.DEC_BCH) == (0.0, 0.0, 1.0)

    def test_cluster_outcome_matrix(self):
        """SECDED corrects 1 / detects 2 / misses 3; parity detects odd
        clusters only; DEC-BCH corrects up to 2 and detects 3."""
        expect = {
            ProtectionScheme.NONE: (None, None, None),
            ProtectionScheme.PARITY: ("due", None, "due"),
            ProtectionScheme.SECDED: ("corrected", "due", None),
            ProtectionScheme.DEC_BCH: ("corrected", "corrected", "due"),
        }
        for scheme, outcomes in expect.items():
            assert tuple(detected_outcome(scheme, n)
                         for n in (1, 2, 3)) == outcomes

    def test_rejects_nonpositive_cluster(self):
        with pytest.raises(ConfigError):
            detected_outcome(ProtectionScheme.PARITY, 0)

    def test_parse_scheme_aliases(self):
        assert parse_scheme("ecc") is ProtectionScheme.SECDED
        assert parse_scheme("SECDED") is ProtectionScheme.SECDED
        assert parse_scheme("dec-bch") is ProtectionScheme.DEC_BCH
        with pytest.raises(ConfigError, match="none, parity, secded"):
            parse_scheme("hamming9000")


class TestCheckBitMath:
    def test_secded_check_bits_by_width(self):
        """The Hamming+parity formula, not a hard-coded 8-for-64."""
        assert check_bits(ProtectionScheme.SECDED, 64) == 8
        assert check_bits(ProtectionScheme.SECDED, 52) == 7
        assert check_bits(ProtectionScheme.SECDED, 208) == 9

    def test_parity_is_one_bit_regardless_of_width(self):
        for width in (52, 64, 72, 208):
            assert check_bits(ProtectionScheme.PARITY, width) == 1

    def test_dec_bch_exceeds_secded(self):
        for width in (52, 64, 72, 208):
            assert check_bits(ProtectionScheme.DEC_BCH, width) \
                > check_bits(ProtectionScheme.SECDED, width)

    def test_entry_widths_come_from_strike_layout(self):
        assert entry_width(Structure.FU) == 208
        assert entry_width(Structure.LSQ_TAG) == 52
        assert entry_width(Structure.ROB) == 72
        # Cache structures have no strike layout: conventional 64-bit word.
        assert entry_width(Structure.DL1_DATA) == 64

    def test_per_structure_added_bits_regression(self):
        """Pin the added-bit counts the 64-bit-word approximation used to
        flatten: parity on the 208-bit FU word costs 1/208 per bit, and
        SECDED's check bits vary with the real entry width."""
        pins = {
            # (structure, scheme) -> added bits for 1000 protected bits
            (Structure.FU, ProtectionScheme.PARITY): 1000 / 208,
            (Structure.FU, ProtectionScheme.SECDED): 9 * 1000 / 208,
            (Structure.LSQ_TAG, ProtectionScheme.PARITY): 1000 / 52,
            (Structure.LSQ_TAG, ProtectionScheme.SECDED): 7 * 1000 / 52,
            (Structure.IQ, ProtectionScheme.PARITY): 1000 / 64,
            (Structure.IQ, ProtectionScheme.SECDED): 8 * 1000 / 64,
            (Structure.ROB, ProtectionScheme.SECDED): 8 * 1000 / 72,
        }
        for (structure, scheme), expected in pins.items():
            assert added_bits(scheme, structure, 1000) \
                == pytest.approx(expected), (structure, scheme)


class TestProtectionConfig:
    def test_uniform_and_overrides(self):
        config = ProtectionConfig.parse("parity,iq=secded")
        assert config.scheme_for(Structure.IQ) is ProtectionScheme.SECDED
        assert config.scheme_for(Structure.ROB) is ProtectionScheme.PARITY

    def test_label_round_trips(self):
        for text in ("none", "secded", "iq=secded,rob=parity",
                     "parity,fu=dec-bch"):
            config = ProtectionConfig.parse(text)
            assert ProtectionConfig.parse(config.label()) == config

    def test_payload_round_trips(self):
        config = ProtectionConfig.parse("iq=secded,rob=parity")
        assert ProtectionConfig.from_payload(config.to_payload()) == config

    def test_coerce_accepts_bare_scheme(self):
        config = ProtectionConfig.coerce(ProtectionScheme.PARITY)
        assert config.is_uniform
        assert config.default is ProtectionScheme.PARITY
        assert ProtectionConfig.coerce(None).is_none

    def test_uniform_none_label_matches_legacy_scalar(self):
        """Cache digests and summaries depend on this exact spelling."""
        assert ProtectionConfig().label() == "none"
        assert ProtectionConfig.uniform("ecc").label() == "secded"

    def test_rejects_unknown_structure_and_duplicates(self):
        with pytest.raises(ConfigError, match="unknown structure"):
            ProtectionConfig.parse("l2=parity")
        with pytest.raises(ConfigError, match="duplicate"):
            ProtectionConfig.parse("iq=parity,iq=secded")

    def test_resolve_uses_cluster_length(self):
        config = ProtectionConfig.parse("iq=secded")
        assert config.resolve(Structure.IQ, 1) == "corrected"
        assert config.resolve(Structure.IQ, 2) == "due"
        assert config.resolve(Structure.IQ, 3) is None
        assert config.resolve(Structure.ROB, 1) is None


class TestApplyProtection:
    def test_none_keeps_raw_sdc(self):
        report = _report()
        plan = apply_protection(report, {})
        iq = plan.estimates[Structure.IQ]
        assert iq.sdc_fit == pytest.approx(iq.raw_fit)
        assert iq.due_fit == 0.0

    def test_parity_converts_sdc_to_due(self):
        report = _report()
        plan = apply_protection(report, {Structure.IQ: ProtectionScheme.PARITY})
        iq = plan.estimates[Structure.IQ]
        assert iq.sdc_fit == 0.0
        assert iq.due_fit == pytest.approx(iq.raw_fit)
        assert iq.added_bits == pytest.approx(report.bits[Structure.IQ] / 64.0)

    def test_secded_removes_both_single_bit(self):
        report = _report()
        plan = apply_protection(report,
                                {Structure.IQ: ProtectionScheme.SECDED})
        iq = plan.estimates[Structure.IQ]
        assert iq.sdc_fit == 0.0 and iq.due_fit == 0.0

    def test_accepts_protection_config(self):
        report = _report()
        plan = apply_protection(report, ProtectionConfig.parse("iq=parity"))
        assert plan.assignments[Structure.IQ] is ProtectionScheme.PARITY

    def test_mbu_mix_leaks_through_parity_and_secded(self):
        """Under a clustered mix neither parity (even clusters) nor SECDED
        (triples) zeroes SDC — the effect that makes the frontier real."""
        report = _report()
        mbu = MbuConfig(max_len=3)
        for scheme in (ProtectionScheme.PARITY, ProtectionScheme.SECDED):
            plan = apply_protection(report, {Structure.IQ: scheme}, mbu=mbu)
            iq = plan.estimates[Structure.IQ]
            assert 0.0 < iq.sdc_fit < iq.raw_fit, scheme


class TestPlanner:
    def test_zero_budget_protects_nothing(self):
        plan = plan_protection(_report(), area_budget_fraction=0.0)
        assert all(s is ProtectionScheme.NONE for s in plan.assignments.values())

    def test_generous_budget_removes_all_sdc(self):
        """With room to spare, every ACE-carrying structure gets protected.

        Parity already zeroes SDC in the first-order single-bit model, so
        the greedy planner (whose objective is silent corruption) stops
        there rather than paying SECDED's 8x area for the same SDC.
        """
        plan = plan_protection(_report(), area_budget_fraction=1.0)
        assert plan.assignments[Structure.IQ] is not ProtectionScheme.NONE
        assert plan.total_sdc_fit == pytest.approx(0.0)

    def test_tight_budget_protects_the_hotspot_first(self):
        report = _report(iq_avf=0.5, reg_avf=0.1)
        # Budget just enough for parity on the IQ, not on everything.
        iq_bits = report.bits[Structure.IQ]
        total = sum(report.bits.values())
        budget = (iq_bits / 64.0) * 1.5 / total
        plan = plan_protection(report, area_budget_fraction=budget)
        assert plan.assignments[Structure.IQ] is not ProtectionScheme.NONE
        assert plan.total_added_bits <= plan.area_budget_bits + 1e-6

    def test_budget_never_exceeded(self):
        for frac in (0.001, 0.01, 0.05):
            plan = plan_protection(_report(), area_budget_fraction=frac)
            assert plan.total_added_bits <= plan.area_budget_bits + 1e-6

    def test_sdc_monotone_in_budget(self):
        report = _report()
        sdc = [plan_protection(report, area_budget_fraction=f).total_sdc_fit
               for f in (0.0, 0.005, 0.02, 0.2)]
        assert sdc == sorted(sdc, reverse=True)

    def test_rejects_negative_budget(self):
        with pytest.raises(ConfigError):
            plan_protection(_report(), area_budget_fraction=-0.1)

    def test_summary_renders(self):
        plan = plan_protection(_report(), area_budget_fraction=0.02)
        text = plan.summary()
        assert "SDC" in text and "budget" in text

    def test_mbu_budget_prefers_stronger_codes(self):
        """With triples in the mix, parity no longer zeroes the IQ's SDC,
        so an unconstrained greedy pass climbs past it."""
        report = _report()
        plan = plan_protection(report, area_budget_fraction=1.0,
                               schemes=tuple(ALL_SCHEMES[1:]),
                               mbu=MbuConfig(max_len=3))
        assert plan.assignments[Structure.IQ] in (
            ProtectionScheme.SECDED, ProtectionScheme.DEC_BCH)


class TestFrontier:
    def _frontier(self, **kwargs):
        return protection_frontier(
            _report(), structures=(Structure.IQ, Structure.REG),
            mbu=MbuConfig(max_len=3), **kwargs)

    def test_enumerates_full_lattice(self):
        frontier = self._frontier()
        assert frontier.combinations == len(ALL_SCHEMES) ** 2

    def test_points_are_pareto_consistent(self):
        """No frontier point dominated on both residual SDC and cost."""
        points = self._frontier().points
        assert points
        for i, a in enumerate(points):
            for b in points[i + 1:]:
                dominates = (a.sdc_fit <= b.sdc_fit and a.cost <= b.cost
                             and (a.sdc_fit < b.sdc_fit or a.cost < b.cost))
                dominated = (b.sdc_fit <= a.sdc_fit and b.cost <= a.cost
                             and (b.sdc_fit < a.sdc_fit or b.cost < a.cost))
                assert not dominates and not dominated, (a.label(), b.label())

    def test_sorted_by_cost_with_all_none_anchor(self):
        points = self._frontier().points
        costs = [p.cost for p in points]
        assert costs == sorted(costs)
        assert points[0].config.is_none
        sdc = [p.sdc_fit for p in points]
        assert sdc == sorted(sdc, reverse=True)

    def test_max_points_keeps_endpoints(self):
        full = self._frontier().points
        thinned = self._frontier(max_points=3).points
        assert len(thinned) <= 3
        assert thinned[0].config == full[0].config
        assert thinned[-1].config == full[-1].config

    def test_scrubbing_raises_energy_only(self):
        base = self._frontier().points[-1]
        scrubbed = self._frontier(scrub_interval_cycles=64).points[-1]
        assert scrubbed.energy > base.energy
        assert scrubbed.area_bits == base.area_bits

    def test_single_bit_frontier_is_degenerate(self):
        """Without MBUs every correcting scheme hits SDC = 0, so the
        frontier collapses to none -> parity (-> cheapest zero-SDC)."""
        frontier = protection_frontier(
            _report(), structures=(Structure.IQ,))
        assert len(frontier.points) <= 3
        assert frontier.points[-1].sdc_fit == pytest.approx(0.0)


class TestFrontierArtefact:
    """The reproduce-driver artefact reproduces its committed fixture.

    Regenerate deliberately (and justify the drift in the commit
    message) with::

        PYTHONPATH=src python - <<'EOF'
        from pathlib import Path
        from repro.experiments.runner import ExperimentScale
        from repro.experiments.protection_frontier import (
            format_protection_frontier, run_protection_frontier)
        scale = ExperimentScale(instructions_per_thread=500, seed=1)
        text = format_protection_frontier(run_protection_frontier(scale))
        Path("tests/golden/protection_frontier.txt").write_text(text + "\n")
        EOF
    """

    def test_matches_committed_golden(self):
        from pathlib import Path

        from repro.experiments.protection_frontier import (
            format_protection_frontier, run_protection_frontier)
        from repro.experiments.runner import ExperimentScale

        golden = Path(__file__).parent / "golden" / "protection_frontier.txt"
        scale = ExperimentScale(instructions_per_thread=500, seed=1)
        text = format_protection_frontier(run_protection_frontier(scale))
        assert text + "\n" == golden.read_text()
        assert "validation passed" in text


class TestEndToEnd:
    def test_smt_hotspots_get_protected_first(self):
        """On a real MEM mix, the Section 5 prescription emerges: the shared
        pipeline hotspots (IQ) are protected before cold structures (FU)."""
        result = simulate(get_mix("2-MEM-A"), sim=SimConfig(max_instructions=800))
        report = result.avf
        # Tight budget: room for parity on the hotspot but not on everything.
        plan = plan_protection(report, area_budget_fraction=0.002,
                               structures=[s for s in Structure
                                           if s not in (Structure.DL1_DATA,
                                                        Structure.DL1_TAG)])
        if all(v is ProtectionScheme.NONE for v in plan.assignments.values()):
            pytest.skip("budget too small to protect anything at this scale")
        protected = [s for s, v in plan.assignments.items()
                     if v is not ProtectionScheme.NONE]
        fit_density = {s: report.avf[s] for s in protected}
        unprotected_hotter = [
            s for s, v in plan.assignments.items()
            if v is ProtectionScheme.NONE
            and report.avf[s] > max(fit_density.values(), default=0) * 4
        ]
        assert not unprotected_hotter
