# Convenience targets for the repro SMT-AVF reproduction.

PYTHON ?= python

.PHONY: install test test-fast test-chaos bench bench-kernel bench-kernel-check \
	bench-e2e bench-e2e-live bench-e2e-reproduce reproduce reproduce-smoke reproduce-pool-smoke inject-smoke frontier-smoke serve-smoke \
	serve-recovery-smoke fleet-smoke test-service test-fleet examples clean

SMOKE_DIR ?= .smoke

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

test-fast:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m "not slow"

# The fault-tolerance group: supervisor + chaos harness + resilient CLI.
test-chaos:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_resilience.py \
		"tests/test_cli.py::TestResilientCli"

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Cycle-kernel micro-benchmark with machine-readable output.  Minimums are
# what the regression check reads, so force enough rounds that each
# benchmark reliably touches its floor despite scheduler noise.
bench-kernel:
	mkdir -p benchmarks/out
	PYTHONPATH=src PYTHONHASHSEED=0 $(PYTHON) -m pytest \
		benchmarks/test_sim_kernel.py --benchmark-only \
		--benchmark-min-rounds=7 \
		--benchmark-json=benchmarks/out/kernel.json

# Guard against kernel slowdowns: compare fresh runs to the committed
# baseline, normalising out machine speed via a control loop that runs no
# simulator code and, like the kernel, is pure Python (dict, integer and
# small-object work; trace generation, mostly numpy, is a guarded row).
# Two candidate runs are taken and the checker keeps the per-benchmark
# best, so a one-off scheduler spike in either run cannot fail the gate
# while a sustained regression still does.
bench-kernel-check: bench-kernel
	PYTHONPATH=src PYTHONHASHSEED=0 $(PYTHON) -m pytest \
		benchmarks/test_sim_kernel.py --benchmark-only \
		--benchmark-min-rounds=7 \
		--benchmark-json=benchmarks/out/kernel-rerun.json
	$(PYTHON) tools/check_bench_regression.py BENCH_kernel.json \
		benchmarks/out/kernel.json benchmarks/out/kernel-rerun.json \
		--threshold 0.15 \
		--control test_python_control

# End-to-end benchmark (benchmarks/e2e, declared in BENCHMARK.json): every
# workload, each in its own fresh process, outputs checked byte for byte.
bench-e2e:
	python3 benchmarks/e2e/run.py

# The live-campaign workload alone, traced: exit 0 requires the golden
# artefact bytes, the pinned outcome counts and every required layer span
# (a probe that no longer reaches the strike/warmup/kernel code fails it).
bench-e2e-live:
	python3 benchmarks/e2e/run.py --workload live_validation --seed 1 \
		--seconds 15 --trace 1

# The cold reproduce workload alone, traced: exit 0 requires all ten
# seed-1 artefact pins and every required layer span, among them
# workload.trace and sim.simulate — so a change to how runs share their
# traces that alters an artefact, or that bypasses the probed trace
# builder or simulate call, fails it.
bench-e2e-reproduce:
	python3 benchmarks/e2e/run.py --workload reproduce_cold --seed 1 \
		--seconds 1 --trace 1

reproduce:
	$(PYTHON) -m repro.cli reproduce --out reproduction

# Parallel-runner + result-cache smoke test with runtime auditing: every
# simulation checks its conservation invariants every 64 cycles, the second
# run must simulate nothing (served from the warm cache) and render
# byte-identical output, and a third run into the second's directory must
# leave its unchanged artefacts untouched (REPORT.md carries timings, so
# only the .txt files are checked).
SMOKE_ARTEFACTS = fig1_avf_profile,injection_validation

# The corruption drill at the end of reproduce-smoke: a small live campaign
# puts live-<digest>.json batch entries beside the result entries, then one
# of each gets a digit changed inside its result (FLIP_DIGIT: the file still
# parses, only its checksum can tell).  Both must be recomputed, not served,
# and rewritten to their original bytes.
SMOKE_INJECT = PYTHONPATH=src $(PYTHON) -m repro.cli inject gcc mcf \
	--strikes 4 --structures iq rob --strike-batch 2 --seed 11 \
	--cache-dir $(SMOKE_DIR)/cache
FLIP_DIGIT = $(PYTHON) -c 'import re, sys; p = sys.argv[1]; \
	d = open(p, "rb").read(); \
	i = re.compile(rb": ?[0-9]").search(d, d.index(b"\"result\":") + 9).end() - 1; \
	open(p, "wb").write(d[:i] + (b"8" if d[i] == 57 else bytes([d[i] + 1])) + d[i + 1:])'

reproduce-smoke:
	rm -rf $(SMOKE_DIR)
	PYTHONPATH=src $(PYTHON) -m repro.cli reproduce --only $(SMOKE_ARTEFACTS) \
		--scale 300 --jobs 2 --check-invariants=64 \
		--cache-dir $(SMOKE_DIR)/cache --out $(SMOKE_DIR)/run1
	PYTHONPATH=src $(PYTHON) -m repro.cli reproduce --only $(SMOKE_ARTEFACTS) \
		--scale 300 --jobs 2 --check-invariants=64 \
		--cache-dir $(SMOKE_DIR)/cache --out $(SMOKE_DIR)/run2 \
		| tee $(SMOKE_DIR)/second.log
	grep -q "simulated 0 runs" $(SMOKE_DIR)/second.log
	cmp $(SMOKE_DIR)/run1/fig1_avf_profile.txt $(SMOKE_DIR)/run2/fig1_avf_profile.txt
	cmp $(SMOKE_DIR)/run1/injection_validation.txt \
		$(SMOKE_DIR)/run2/injection_validation.txt
	touch -d @0 $(SMOKE_DIR)/run2/*.txt
	PYTHONPATH=src $(PYTHON) -m repro.cli reproduce --only $(SMOKE_ARTEFACTS) \
		--scale 300 --jobs 2 --check-invariants=64 \
		--cache-dir $(SMOKE_DIR)/cache --out $(SMOKE_DIR)/run2 \
		> $(SMOKE_DIR)/third.log
	if find $(SMOKE_DIR)/run2 -name '*.txt' -newermt @1 | grep .; then \
		echo "reproduce rewrote unchanged artefacts"; exit 1; fi
	$(SMOKE_INJECT) > $(SMOKE_DIR)/inject1.log
	set -e; entry=$$(ls $(SMOKE_DIR)/cache/[0-9a-f]*.json | head -n 1); \
	live=$$(ls $(SMOKE_DIR)/cache/live-*.json | head -n 1); \
	cp $$entry $(SMOKE_DIR)/entry.orig; cp $$live $(SMOKE_DIR)/live.orig; \
	$(FLIP_DIGIT) $$entry; $(FLIP_DIGIT) $$live; \
	PYTHONPATH=src $(PYTHON) -m repro.cli reproduce --only $(SMOKE_ARTEFACTS) \
		--scale 300 --jobs 2 --check-invariants=64 \
		--cache-dir $(SMOKE_DIR)/cache --out $(SMOKE_DIR)/run2 \
		> $(SMOKE_DIR)/fourth.log; \
	grep -q "simulated 1 runs" $(SMOKE_DIR)/fourth.log; \
	$(SMOKE_INJECT) > $(SMOKE_DIR)/inject2.log; \
	cmp $(SMOKE_DIR)/inject1.log $(SMOKE_DIR)/inject2.log; \
	cmp $$entry $(SMOKE_DIR)/entry.orig; cmp $$live $(SMOKE_DIR)/live.orig
	rm -rf $(SMOKE_DIR)

# Pooled trace-reuse smoke test: Figure 6 runs every mix under six fetch
# policies, so pool workers run several jobs in a row on one trace set.
# The --jobs 2 artefact must equal the --jobs 1 one byte for byte.
reproduce-pool-smoke:
	rm -rf $(SMOKE_DIR)/pool
	PYTHONPATH=src $(PYTHON) -m repro.cli reproduce --only fig6_fetch_policies \
		--scale 300 --no-cache --jobs 2 --out $(SMOKE_DIR)/pool/jobs2
	PYTHONPATH=src $(PYTHON) -m repro.cli reproduce --only fig6_fetch_policies \
		--scale 300 --no-cache --jobs 1 --out $(SMOKE_DIR)/pool/jobs1
	cmp $(SMOKE_DIR)/pool/jobs1/fig6_fetch_policies.txt \
		$(SMOKE_DIR)/pool/jobs2/fig6_fetch_policies.txt
	rm -rf $(SMOKE_DIR)/pool

# Live fault-injection smoke test: a tiny campaign plus one forced hang,
# one forced crash and one forced parity detection.  Exit 0 proves the
# watchdog catches a wedged pipeline and the containment turns a corrupted
# simulator into a classified DUE instead of a campaign abort.  The same
# campaign runs inline (--jobs 1: every batch struck on one shared driver)
# and pooled (--jobs 2: one driver per batch); the two summaries must be
# byte-identical.  So must those of an all-structure campaign of 3-bit
# bursts under parity: its taint-only strikes (seed 1: two SDC, two
# MASKED) are replayed over the golden run's dataflow log, which each pool
# worker records for itself.
INJECT_SMOKE = PYTHONPATH=src $(PYTHON) -m repro.cli inject gcc mcf \
	--strikes 6 --structures iq rob --strike-batch 2 \
	--force hang --force crash --force due --seed 11 --no-cache
INJECT_SMOKE_MBU = PYTHONPATH=src $(PYTHON) -m repro.cli inject gcc mcf \
	--strikes 8 --mbu-len 3 --protect parity --strike-batch 4 \
	--seed 1 --no-cache

inject-smoke:
	mkdir -p $(SMOKE_DIR)
	$(INJECT_SMOKE) --jobs 1 > $(SMOKE_DIR)/inject-jobs1.txt
	cat $(SMOKE_DIR)/inject-jobs1.txt
	$(INJECT_SMOKE) --jobs 2 > $(SMOKE_DIR)/inject-jobs2.txt
	cmp $(SMOKE_DIR)/inject-jobs1.txt $(SMOKE_DIR)/inject-jobs2.txt
	$(INJECT_SMOKE_MBU) --jobs 1 > $(SMOKE_DIR)/inject-mbu-jobs1.txt
	cat $(SMOKE_DIR)/inject-mbu-jobs1.txt
	$(INJECT_SMOKE_MBU) --jobs 2 > $(SMOKE_DIR)/inject-mbu-jobs2.txt
	cmp $(SMOKE_DIR)/inject-mbu-jobs1.txt $(SMOKE_DIR)/inject-mbu-jobs2.txt
	rm -f $(SMOKE_DIR)/inject-jobs1.txt $(SMOKE_DIR)/inject-jobs2.txt \
		$(SMOKE_DIR)/inject-mbu-jobs1.txt $(SMOKE_DIR)/inject-mbu-jobs2.txt

# Protection-frontier smoke test: regenerate the protection_frontier
# artefact at the committed golden's scale and diff it against the
# fixture — the full lattice enumeration, the Pareto filter, and the
# live multi-bit cross-validation (Wilson interval containing the
# analytic SDC rate) all have to reproduce byte-identically.
frontier-smoke:
	rm -rf $(SMOKE_DIR)/frontier
	PYTHONPATH=src REPRO_SCALE=500 $(PYTHON) -m repro.cli reproduce \
		--only protection_frontier --scale 500 \
		--out $(SMOKE_DIR)/frontier
	cmp tests/golden/protection_frontier.txt \
		$(SMOKE_DIR)/frontier/protection_frontier.txt
	grep -q "validation passed" $(SMOKE_DIR)/frontier/protection_frontier.txt
	rm -rf $(SMOKE_DIR)/frontier

# Campaign-service smoke test: boots the real server on an ephemeral
# port, submits the same spec from two concurrent clients, and asserts
# exactly one computation ran and both clients read byte-identical
# result artifacts.
serve-smoke:
	PYTHONPATH=src $(PYTHON) tools/serve_smoke.py

# Crash-recovery drill: SIGKILL the real `repro-sim serve` process
# after 2 committed batches, restart it on the same state dir, and
# assert the journal replay resumed the campaign from the batch cache
# with a byte-identical final artifact.
serve-recovery-smoke:
	PYTHONPATH=src $(PYTHON) tools/serve_smoke.py --kill-after 2

# Fleet chaos drill: a real server, three real worker shards (one
# SIGKILLed mid-batch, one behind partition chaos), and a byte-identity
# assert against a clean fleet-less run of the identical spec.
fleet-smoke:
	PYTHONPATH=src $(PYTHON) tools/fleet_smoke.py

# The service contract suite: golden response schemas, concurrency
# dedup, admission control, cancellation, chaos isolation between
# campaigns — plus the journal/recovery suite.
test-service:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_service_contract.py \
		tests/test_service_recovery.py

# The fleet suite: lease ledger, wire codec, exactly-once/fencing
# acceptance scenarios, and the per-network-mode chaos differentials.
test-fleet:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_fleet.py

examples:
	for f in examples/*.py; do echo "== $$f"; PYTHONPATH=src $(PYTHON) $$f || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
