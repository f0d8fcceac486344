"""Perf-9 — sharded parallel beam search (``SearchConfig(jobs=N)``).

The scoring functions that matter in practice *execute* each candidate
(compiled engine + cache simulator), so candidate evaluation is
latency-bound: every score pays a measurement latency that is
wall-clock, not CPU.  The smoke benchmark models that latency explicitly
— a fixed sleep inside the scorer — which makes the asserted speedup a
property of the sharding architecture rather than of the host's core
count: overlapping N workers' latencies wins even on a single-CPU CI
runner, where a CPU-bound workload could never show a speedup.  A
report-only CPU-bound measurement rides along for hosts with real
parallelism.

Besides the speedup floor, the smoke run re-asserts the determinism
contract (jobs=4 field-identical to jobs=1) and writes its numbers to
``bench_parallel_search.json`` (uploaded by CI next to
``bench_smoke.json``).
"""

import gc
import json
import time

import pytest

from repro.deps import depset
from repro.ir import parse_nest
from repro.optimize.search import SearchConfig, parallelism_score, search

MATMUL = """
do i = 1, n
  do j = 1, n
    do k = 1, n
      A(i, j) += B(i, k) * C(k, j)
    enddo
  enddo
enddo
"""

#: Modeled per-candidate measurement latency (seconds).  Chosen so the
#: serial run is ~1s: long enough that fork/queue overhead is noise,
#: short enough for a CI smoke lane.
MEASURE_LATENCY = 0.015

SPEEDUP_FLOOR = 1.5
JOBS = 4


def _latency_bound_score(transformation, nest, deps):
    time.sleep(MEASURE_LATENCY)
    return parallelism_score(transformation, nest, deps)


def _timed(fn):
    """Best of two trials with the collector paused (see Perf-1)."""
    best, result = float("inf"), None
    for _ in range(2):
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
        finally:
            if gc_was_enabled:
                gc.enable()
    return best, result


@pytest.mark.smoke
def test_smoke_parallel_search_speedup(report, smoke_summary):
    """CI guardrail: jobs=4 must be >= 1.5x faster than serial on the
    latency-bound deep-menu workload, with field-identical results."""
    nest = parse_nest(MATMUL)
    deps = depset((0, 0, "+"))

    serial_s, serial = _timed(
        lambda: search(nest, deps, config=SearchConfig(
            score=_latency_bound_score, depth=2, beam=6)))
    parallel_s, parallel = _timed(
        lambda: search(nest, deps, config=SearchConfig(
            score=_latency_bound_score, depth=2, beam=6, jobs=JOBS)))

    # Determinism first: a fast wrong answer is not a speedup.
    assert parallel.transformation.signature() == \
        serial.transformation.signature()
    assert parallel.score == serial.score
    assert parallel.explored == serial.explored
    assert parallel.legal_count == serial.legal_count
    assert parallel.cache_stats == serial.cache_stats
    stats = parallel.parallel
    assert not stats["degraded"] and stats["crashes"] == 0

    speedup = serial_s / parallel_s
    doc = {
        "benchmark": f"latency-bound beam search, depth=2 beam=6, "
                     f"{MEASURE_LATENCY * 1000:.0f}ms/candidate",
        "explored": serial.explored,
        "legal": serial.legal_count,
        "cache_stats": serial.cache_stats,
        "serial_seconds": round(serial_s, 6),
        "parallel_seconds": round(parallel_s, 6),
        "jobs": JOBS,
        "speedup": round(speedup, 2),
        "threshold": SPEEDUP_FLOOR,
        "parallel_stats": stats,
    }
    smoke_summary["parallel_search"] = doc
    with open("bench_parallel_search.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    report("Perf-9 smoke: sharded parallel search",
           f"{speedup:.1f}x at jobs={JOBS} (floor {SPEEDUP_FLOOR}x), "
           f"{serial.explored} candidates, serial {serial_s:.2f}s vs "
           f"parallel {parallel_s:.2f}s; per-worker "
           f"{stats['per_worker']}")
    assert speedup >= SPEEDUP_FLOOR, (
        f"jobs={JOBS} only {speedup:.2f}x faster than serial")


def test_parallel_search_cpu_bound_scaling(report):
    """Report-only: CPU-bound scaling depends on the host's core count
    (a single-CPU runner legitimately shows ~1x), so no floor here."""
    nest = parse_nest(MATMUL)
    deps = depset((0, 0, "+"))
    serial_s, serial = _timed(
        lambda: search(nest, deps, config=SearchConfig(depth=3, beam=8)))
    parallel_s, parallel = _timed(
        lambda: search(nest, deps,
                       config=SearchConfig(depth=3, beam=8, jobs=2)))
    assert parallel.score == serial.score
    assert parallel.cache_stats == serial.cache_stats
    report("Perf-9: CPU-bound parallel search (informational)",
           f"serial {serial_s * 1000:.1f}ms vs jobs=2 "
           f"{parallel_s * 1000:.1f}ms "
           f"({serial_s / parallel_s:.2f}x) on this host; "
           f"explored={serial.explored}")
