# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test test-report bench bench-smoke bench-report bench-full bench-e2e pairs identity perf-gate examples check clean distclean results

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-report:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Re-run every bench, then re-render REPORT.md from the result files
# (each ends with its verdict line), so the report and its files move together.
bench-report:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt
	PYTHONPATH=src $(PYTHON) -m repro report --results benchmarks/results --out REPORT.md

# Fast end-to-end check: the shipped smoke spec on 2 workers, twice, into a
# fresh store in a temp directory.  The pool workers reopen that store by
# its path, so the rerun must be all hits.  A third pass runs a copy of
# src/ whose sweep engine (repro/sweep.py) has one more line: the engine
# is outside the run key, so that pass must be all hits too.
bench-smoke:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; set -e; \
	for pass in 1 2; do \
		PYTHONPATH=src $(PYTHON) -m repro spec --file examples/specs/smoke.json \
			--jobs 2 --cache "$$dir/store" > "$$dir/out"; \
		cat "$$dir/out"; \
	done; \
	grep -q "16/16 hits" "$$dir/out" || { echo "bench-smoke: the rerun was not all hits" >&2; exit 1; }; \
	cp -R src "$$dir/src"; \
	echo "# an edit to the sweep engine" >> "$$dir/src/repro/sweep.py"; \
	PYTHONPATH="$$dir/src" $(PYTHON) -m repro spec --file examples/specs/smoke.json \
		--jobs 2 --cache "$$dir/store" > "$$dir/out"; \
	cat "$$dir/out"; \
	grep -q "16/16 hits" "$$dir/out" || { echo "bench-smoke: an edit to the sweep engine re-executed cached runs" >&2; exit 1; }

# The two contracts a script checks itself (exit 1 on a break; neither
# writes a file): the thousand-flow fast path (batched = per-packet
# outcomes, speedup >= 3x) and the seeded chaos sweep over ten seeds.
perf-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/sim_manyflow.py
	PYTHONPATH=src $(PYTHON) scripts/chaos_sweep.py --repeat 10

# The end-to-end benchmark BENCHMARK.json declares (six workloads).
bench-e2e:
	PYTHONPATH=src $(PYTHON) -m benchmarks.e2e run

# The evidence a perf PR owes: alternating parent/change pairs of e2e
# workloads (W is one name or a comma-separated list: the claim and its
# must-not-move rows), each side in one scratch copy of its files, medians /
# quartiles / wins as one Markdown table per workload.
# LAYERS adds per-layer rows from one traced repetition per side.
# make pairs PARENT=HEAD~1 W=store_replay,store_fill,fabric_synth [N=10] [LAYERS=core.executor.us_per_event]
pairs:
	$(PYTHON) scripts/bench_pairs.py --parent $(PARENT) --workload $(W) $(if $(N),-n $(N)) $(if $(SEEDS),--seeds $(SEEDS)) $(if $(LAYERS),--layers $(LAYERS))

# The identity a simulator perf PR owes: grid_serial's 480 cells on the
# parent and on this checkout, compared cell by cell (PLT, endpoint stats,
# link counters, final clock, events); exit 1 names the first difference.
# make identity PARENT=HEAD~1 [SEEDS=0,7]
identity:
	$(PYTHON) scripts/identity.py --parent $(PARENT) $(if $(SEEDS),--seeds $(SEEDS))

# Paper-scale: >=10 rounds per cell and full workload grids.
bench-full:
	REPRO_BENCH_RUNS=10 REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script; done

results:
	@ls -1 benchmarks/results/

# What CI runs, in one target: the real `repro spec --jobs 2` path over the
# shipped smoke spec, the tier-1 suite and the end-to-end benchmark's own
# tests.  CI splits it: its tier1 job runs the suite once per Python
# version, and its check job runs the other two.
check: bench-smoke
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e/tests -q

# clean removes caches and scratch output only; benchmarks/results/ is
# git-tracked (committed benchmark summaries) and must survive a clean.
clean:
	rm -rf .pytest_cache .hypothesis test_output.txt bench_output.txt
	find . -name __pycache__ -type d -exec rm -rf {} +

# distclean additionally drops regenerable local state: the committed-
# results directory (restorable with git checkout) and local result stores.
distclean: clean
	rm -rf benchmarks/results .repro-store .repro-store.sqlite
