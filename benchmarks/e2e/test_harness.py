"""Self-tests of the end-to-end benchmark harness.

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402
from trace import Probe, Span, Tracer  # noqa: E402


# -- percentile rule ---------------------------------------------------------------


@pytest.mark.parametrize("n, level", [(39, None), (40, 75.0), (99, 75.0),
                                      (100, 90.0), (199, 90.0), (200, 95.0),
                                      (1000, 99.0)])
def test_tail_level_keeps_ten_samples_beyond(n, level):
    assert harness.tail_level(n) == level
    if level is not None:
        assert n * (100 - level) / 100 >= harness.TAIL_MIN_BEYOND


def test_percentile_interpolates_between_ranks():
    assert harness.percentile([4, 1, 3, 2], 50) == 2.5
    assert harness.percentile(range(1, 101), 90) == pytest.approx(90.1)
    assert harness.percentile([7], 75) == 7


def test_compare_verdicts_follow_the_bound():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(steady, [8.0, 8.1, 7.9], "higher", 0.1) \
        == "regressed"
    assert compare.verdict(steady, [9.5, 9.6, 9.4], "higher", 0.1) == "ok"
    noisy = [6.0, 10.0, 14.0, 8.0, 12.0]
    assert compare.verdict(noisy, [9.0, 11.0], "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [5.0, 5.5], "lower", 0.1) == "better"


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [Span("unit", 9, 0, 0, 400),               # the harness's own
             Span("sim.simulate", 1, 9, 0, 100),
             Span("sim.session", 2, 1, 10, 30),
             Span("sim.kernel", 3, 1, 20, 50),         # overlaps: once
             Span("workload.trace", 4, 2, 12, 15),
             Span("avf.report", 5, 9, 200, 260)]
    own = trace.self_times(spans)
    assert own[1] == pytest.approx(60e-9)   # 100 - |10..50|
    assert own[2] == pytest.approx(17e-9)   # 20 - 3
    assert own[3] == pytest.approx(30e-9)
    assert own[4] == pytest.approx(3e-9)
    assert own[9] == pytest.approx(240e-9)
    # Coverage counts the program's outermost spans, not the harness's.
    assert trace.coverage(spans) == pytest.approx(160e-9)


def test_layer_shares_use_self_time():
    spans = [Span("sim.simulate", 1, 0, 0, 1000),
             Span("workload.trace", 2, 1, 0, 400, {"instrs": 10}),
             Span("sim.kernel", 3, 1, 400, 1000,
                  {"cycles": 6, "committed": 5})]
    m = trace.layer_metrics(spans, wall=1e-6)
    assert m["workload.share"] == pytest.approx(0.4)
    assert m["sim.share"] == pytest.approx(0.6)
    assert m["workload.useful_ratio"] == pytest.approx(0.5)
    assert m["sim.kernel_ns_per_cycle"] == pytest.approx(100.0)
    assert m["span_coverage"] == pytest.approx(1.0)


# -- wrapping ----------------------------------------------------------------------


def _bindings(probes):
    found = {}
    for probe in probes:
        for module_name, path in probe.sites:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            found[(module_name, path)] = (owner.__dict__[attr] if outer
                                          else getattr(owner, attr))
    return found


def test_probes_are_fully_restored_after_a_traced_run():
    from repro.config import SimConfig
    from repro.experiments.runner import ResultCache

    probes = trace.LIBRARY_PROBES + trace.SERVER_PROBES
    before = _bindings(probes)
    tracer = Tracer("test", "restore")
    tracer.install(probes)
    try:
        ResultCache().run(["gcc"], sim=SimConfig(max_instructions=200))
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"workload.trace", "sim.session", "sim.simulate", "sim.kernel",
            "avf.report", "experiments.cache_get",
            "experiments.cache_put"} <= names
    after = _bindings(probes)
    assert all(after[site] is before[site] for site in before)
    recorded = len(tracer.spans)
    ResultCache().run(["gcc"], sim=SimConfig(max_instructions=200))
    assert len(tracer.spans) == recorded


def test_a_probe_that_names_nothing_fails_and_unwinds():
    good = trace.ALL_PROBES["sim.kernel"]
    before = _bindings([good])
    tracer = Tracer("test", "drift")
    with pytest.raises((AttributeError, KeyError)):
        tracer.install([good, Probe("gone", "sim",
                                    (("repro.sim.session", "no_such"),))])
    assert _bindings([good]) == before


class _IdleWorkload(workloads.Workload):
    """Claims to reach the kernel but never calls it."""

    name = "idle"
    op = "nothing"
    required = ("sim.kernel",)

    def phase(self, ctx, tracer, traced):
        phase = workloads.Phase()

        def after(_value):
            phase.items += 1

        workloads.run_window(ctx, phase, tracer, lambda: None, after)
        return phase


def test_drift_guard_fails_a_traced_run_missing_a_required_span(
        monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "idle", _IdleWorkload)
    result, _ = run.execute("idle", seed=1, seconds=0.01, trace=True,
                            work=tmp_path)
    assert not result["correct"]
    assert any("sim.kernel" in e for e in result["errors"])
    result, _ = run.execute("idle", seed=1, seconds=0.01, trace=False,
                            work=tmp_path)
    assert result["correct"]


def test_untraced_run_times_units_when_the_op_probe_lost_its_code(
        monkeypatch, tmp_path):
    class Moved(_IdleWorkload):
        op_span = "gone.op"

    monkeypatch.setitem(trace.ALL_PROBES, "gone.op", Probe(
        "gone.op", "sim", (("repro.sim.session", "no_such"),)))
    monkeypatch.setitem(workloads.WORKLOADS, "moved", Moved)
    result, _ = run.execute("moved", seed=1, seconds=0.01, trace=False,
                            work=tmp_path)
    assert result["correct"]
    assert result["detail"]["ops"] == result["detail"]["items"] > 0
    assert result["end_to_end"]["throughput_per_s"] > 0


# -- service spec generator --------------------------------------------------------


def _take(seed, n):
    return list(itertools.islice(workloads.service_specs(seed), n))


def _shape(spec):
    return tuple(sorted((k, str(v)) for k, v in spec.items() if k != "seed"))


def test_service_specs_are_seeded_distinct_and_balanced():
    first = _take(1, 48)
    assert first == _take(1, 48)
    assert first != _take(2, 48)
    assert len({s["seed"] for s in first}) == len(first)
    block_shapes = sorted(_shape(s) for s in workloads.SHAPES)
    for i in range(0, 48, workloads.BLOCK):
        block = first[i:i + workloads.BLOCK]
        assert sorted(_shape(s) for s in block) == block_shapes
    parity = sum(s.get("protection") == "parity" for s in workloads.SHAPES)
    assert parity * 4 == workloads.BLOCK


def test_service_specs_pass_the_servers_schema():
    from repro.service.specs import parse_spec

    for spec in _take(3, workloads.BLOCK):
        parse_spec(spec)


# -- verification ------------------------------------------------------------------


def _flip(data: bytes) -> bytes:
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 1]) + data[middle + 1:]


def test_verification_catches_a_one_byte_flip(monkeypatch, tmp_path):
    text = "Figure 1: AVF profile\nIQ 0.31\n"
    monkeypatch.setattr(workloads, "load_pins", lambda: {
        "reproduce": {"fig1": hashlib.sha256(text.encode()).hexdigest()}})
    ctx = workloads.Context(seed=1, seconds=1, work=tmp_path)
    workloads._check_texts(ctx, {"fig1": text}, "test")
    assert ctx.failed == 0
    workloads._check_texts(ctx, {"fig1": _flip(text.encode()).decode()},
                           "test")
    assert ctx.failed == 1 and "fig1" in ctx.errors[0]


def test_service_verification_catches_a_one_byte_flip(monkeypatch, tmp_path):
    spec = dict(workloads.SHAPES[0], seed=5)
    strikes = spec["strikes"]
    raw = json.dumps({"result": {
        "kind": "live", "records": [{}] * strikes * len(spec["structures"]),
        "structures": [{"structure": s, "injections": strikes,
                        "outcomes": {"MASKED": strikes - 1, "SDC": 1}}
                       for s in spec["structures"]]}}).encode()
    monkeypatch.setattr(workloads, "load_pins", lambda: {
        "service": {"0": hashlib.sha256(raw).hexdigest()}})
    flipped = raw.replace(b'"SDC": 1', b'"SDC": 0', 1)
    assert len(flipped) == len(raw) and flipped != raw
    for data, clean in ((raw, True), (flipped, False)):
        mix = workloads.ServiceMix()
        mix.results = [(0, spec, data)]
        ctx = workloads.Context(seed=1, seconds=1, work=tmp_path)
        mix.verify(ctx)
        assert (ctx.failed == 0) == clean
