# Convenience targets for the DCMESH-precision reproduction.

PYTHON ?= python

.PHONY: install test test-fast lint ci bench bench-split bench-telemetry bench-adaptive bench-backends bench-newmodes qdbench-smoke repro report claims claim-coverage examples clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

# Same gate as the CI lint job (config in ruff.toml).  Skips with a
# notice when ruff is not installed locally.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check . && ruff format --check . ; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

# Everything the CI workflow gates on, runnable locally in one shot.
ci: lint test-fast
	$(PYTHON) examples/quickstart.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-split:
	$(PYTHON) -m pytest benchmarks/test_split_gemm_perf.py -q -p no:cacheprovider
	$(PYTHON) scripts/check_bench_regression.py

bench-telemetry:
	$(PYTHON) -m pytest benchmarks/test_telemetry_overhead.py -q -p no:cacheprovider

bench-adaptive:
	$(PYTHON) -m pytest benchmarks/test_adaptive_sched.py -q -p no:cacheprovider
	$(PYTHON) scripts/check_bench_regression.py --adaptive

bench-backends:
	$(PYTHON) -m pytest benchmarks/test_backend_compare.py -q -p no:cacheprovider

# Gating: the measured slowdowns/errors must clear the committed
# ceilings in benchmarks/newmodes_floors.json (25% slack on slowdowns
# only; accuracy ceilings and ladder orderings get none).
bench-newmodes:
	$(PYTHON) -m pytest benchmarks/test_ozaki_emufp64_perf.py -q -p no:cacheprovider
	$(PYTHON) scripts/check_bench_regression.py --newmodes --slack 0.25

# Same gate as the CI qdbench-smoke job: every qdbench workload for 5 s,
# untraced and traced, must exit 0 with no failed operation.
qdbench-smoke:
	$(PYTHON) scripts/qdbench_smoke.py

repro:
	$(PYTHON) -m repro.experiments.runner all --output repro_output/

report:
	$(PYTHON) -m repro.experiments.runner report --output repro_output/

claims:
	$(PYTHON) -m repro.experiments.runner claims

# Same gate as the CI claims job: render claim_coverage.md and fail on
# any failing checker or missing pinning test.
claim-coverage:
	$(PYTHON) scripts/make_claim_coverage.py

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf repro_output study_output dcmesh_workdir ops_workdir \
	       .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
