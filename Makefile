PYTHON ?= python

# The package lives under src/; every target needs it importable, so
# export once here instead of per-recipe.
export PYTHONPATH := src

.PHONY: test bench bench-report bench-smoke bench-service \
	bench-resilience bench-fleet bench-vectorized \
	bench-model-search fuzz-smoke examples corpus loc all

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Benchmarks plus the regenerated paper tables/figures on stdout.
bench-report:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Fast perf guardrails (compiled engine >= 5x, memoized legality >= 2x)
# with a machine-readable speedup + metrics summary in bench_smoke.json.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/ -m smoke -s \
		--smoke-json bench_smoke.json

# The warm-service replay guardrail alone (>= 3x over cold state);
# writes bench_service.json with the service metrics embedded.
bench-service:
	$(PYTHON) -m pytest benchmarks/bench_service.py -m smoke -s

# What resilience costs: checkpoint-restore vs cold recovery, and the
# retry layer's overhead at zero faults (< 5% enforced); writes
# bench_resilience.json.
bench-resilience:
	$(PYTHON) -m pytest benchmarks/bench_resilience.py -s

# Fleet scaling guardrail (N=4 >= 2.5x over N=1 on the latency-bound
# 1000-request replay) plus the chaos-kill failover differential;
# writes bench_fleet.json with the fleet metrics embedded.
bench-fleet:
	$(PYTHON) -m pytest benchmarks/bench_fleet.py -s

# Vectorized-engine guardrail (>= 50x over the interpreter on matmul
# and the time-iterated stencil, bit-identical answers) plus the
# reordering wall-clock sensitivity report; needs NumPy (skips
# cleanly without it); writes bench_vectorized.json.
bench-vectorized:
	$(PYTHON) -m pytest benchmarks/bench_vectorized.py -s

# Model-guided search guardrail (Perf-15): same winner as brute beam
# search with >= 10x fewer exact legality verdicts across the example
# corpus, jobs=2 field-identical; writes bench_model_search.json.
bench-model-search:
	$(PYTHON) -m pytest benchmarks/bench_model_search.py -s

# Generative differential fuzzer smoke: ~500 seeded cases over the
# core+search oracle matrix (interpreter/compiled/vectorized engines,
# brute vs prune+speculate, jobs=1 vs jobs=2), banking any shrunk
# failure into the regression corpus, then a full corpus-bank replay.
# Writes a machine-readable report to bench_fuzz.json.
fuzz-smoke:
	$(PYTHON) -m repro fuzz --cases 500 --seed 0 \
		--matrix core,search --corpus tests/corpus/fuzz \
		--json bench_fuzz.json --quiet
	$(PYTHON) -m repro fuzz --replay --corpus tests/corpus/fuzz --quiet

# Net src/ line count, the figure the ledger tracks; the same number as
# `find src -name '*.py' | xargs wc -l` prints as its total.
loc:
	@find src -name '*.py' | xargs cat | wc -l | awk '{print "src LOC:", $$1}'

examples:
	@for f in examples/*.py; do \
		echo "== $$f"; $(PYTHON) $$f > /dev/null || exit 1; \
	done; echo "all examples OK"

all: test bench examples
