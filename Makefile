PY ?= python
export PYTHONPATH := src

.PHONY: test history examples bench-smoke bench bench-pairs lint docs-check

# tier-1: the full correctness suite
test:
	$(PY) -m pytest -x -q

# the snapshot-isolation history fuzzer (tests/test_history.py) over a
# longer budget than tier-1's pinned one
HISTORY_SEEDS ?= 200
HISTORY_STEPS ?= 400
history:
	HISTORY_SEEDS=$(HISTORY_SEEDS) HISTORY_STEPS=$(HISTORY_STEPS) \
		$(PY) -m pytest tests/test_history.py -q

# every example script, run once; fails on the first non-zero exit
examples:
	@for f in examples/*.py; do \
		echo "$$f"; $(PY) "$$f" > /dev/null || exit 1; \
	done

# quick perf check: the executor-sensitive figures plus view
# maintenance, the observability tax, offloaded scans, and the wire
# reply's size; writes
# benchmarks/BENCH_<module>.json files for the perf trajectory
bench-smoke:
	$(PY) -m pytest benchmarks -o python_files='bench_*.py' -q \
		-k "fig04a or fig04bc or fig06 or ivm_maintenance or obs_overhead or offload_scan or wire_reply" \
		--benchmark-min-rounds=3

# the full benchmark matrix (slow)
bench:
	$(PY) -m pytest benchmarks -o python_files='bench_*.py' -q

# the repo benchmark (bench_e2e) as alternating base/change pairs:
# medians, the base's IQR, wins and bounds per workload and metric;
# e.g. make bench-pairs PAIRS_ARGS="--base HEAD~1 --pairs 10"
PAIRS_ARGS ?= --pairs 3
bench-pairs:
	$(PY) tools/bench_pairs.py $(PAIRS_ARGS)

# documentation health: public-API docstrings (protocol surface
# included) and cross-reference link/anchor integrity over
# README / DESIGN.md / docs/. Uses pydocstyle additionally when the
# environment has it; never requires a download.
docs-check:
	$(PY) tools/docs_check.py

# use whichever linter the environment has; never require a download
lint:
	@if $(PY) -m ruff --version >/dev/null 2>&1; then \
		$(PY) -m ruff check src tests benchmarks examples; \
	elif $(PY) -m pyflakes --version >/dev/null 2>&1; then \
		$(PY) -m pyflakes src/repro tests benchmarks examples; \
	else \
		echo "no linter installed; syntax-checking with compileall"; \
		$(PY) -m compileall -q src tests benchmarks examples; \
	fi
