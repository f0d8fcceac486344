"""The repository benchmark: one workload run, one JSON result line.

    python3 perfbench/run.py --workload compile-cold|execute|service-warm|all
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the program is imported from ./src.
Each run starts fresh worker processes one at a time (perfbench/
worker.py), one per phase, so set-up time and peak memory belong to
one process:

* the workload's own phase runs a closed loop for S seconds;
* the two other phases run a short fixed amount of work (a probe), so
  every end-to-end metric is reported on every workload -- a change
  aimed at one layer should leave the probes' figures unchanged;
* extra set-up-only processes give ``setup_s`` three samples.

With ``--trace 0`` the last line holds every end-to-end metric; with
``--trace 1`` the own phase runs half untraced and half traced, the
probes traced, and the last line holds every per-layer metric computed
from the spans, including the tracing overhead.  Every output is
checked; wrong answers, untyped exceptions and timeouts count as
failed operations.  See perfbench/NOTES.md for why each workload and
metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = {"compile-cold": "compile", "execute": "execute",
             "service-warm": "service"}
#: Fixed work of each phase when it runs as a probe: the four paper
#: nests and two full cycles of compile-cold shapes; eight rounds of
#: every kernel under both engines; 4800 service requests.  Each takes
#: a few seconds, and a whole run stays under a minute on a machine
#: running at half speed.
PROBE_COUNT = {"compile": 4 + 2 * len(gen.SHAPES), "execute": 8,
               "service": 4800}
#: Fresh set-up-only processes per run, on top of the measured phase's
#: own set-up (service spawns its extra servers itself).
SETUP_ONLY_RUNS = 2
#: A run that has not finished by then is abandoned (the contract gives
#: it 180 s).
RUN_DEADLINE_S = 170.0
#: Output directory, inside the checkout, for span dumps.
SPAN_DIR = ".perfbench"

RUN_KERNELS = [f"{engine}.{kernel[0]}" for engine in ("compiled", "vectorized")
               for kernel in gen.KERNELS]
#: Times are in reference units: wall time scaled by the machine's
#: speed on a fixed calibration loop (see speed.py).  ``setup_s`` is
#: such a time too, in reference seconds, but the benchmark contract
#: fixes its unit label to ``s``.
END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "compile_jobs_per_s": "jobs/ref_s", "compile_ms_p50": "ref_ms",
    "compile_ms_p90": "ref_ms",
    **{f"run_ms.{key}": "ref_ms" for key in RUN_KERNELS},
    "service_req_per_s": "req/ref_s", "service_ms_p50": "ref_ms",
    "service_ms_p99": "ref_ms",
}
SERVICE_OPS = ("ping", "analyze", "legality", "apply", "run", "search")
SERVICE_CACHES = ("parse", "analysis", "legality", "compiled")


class RunFailed(Exception):
    """A worker crashed or overran: no result can be reported."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(phase: str, seed: int, deadline: float, *,
               seconds: float = 0.0, count: int = 0, trace: bool = False,
               setup_only: bool = False,
               spans: Optional[str] = None) -> Dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--phase", phase,
           "--seed", str(seed), "--trace", str(int(trace))]
    if seconds:
        cmd += ["--seconds", repr(seconds)]
    if count:
        cmd += ["--count", str(count)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env())
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{phase} worker overran the run deadline")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{phase} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def pct(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def phase_metrics(phase: str, res: Dict) -> Dict[str, float]:
    """The end-to-end metrics one phase result provides."""
    samples = res["run_ms"].values() if phase == "execute" else [res["op_ms"]]
    if not all(samples):
        raise RunFailed(f"{phase}: no operation succeeded, so its metrics "
                        f"cannot be measured ({res['failures'][:3]})")
    if phase == "compile":
        ms = res["op_ms"]
        return {"compile_jobs_per_s": 1000.0 * len(ms) / sum(ms),
                "compile_ms_p50": pct(ms, 50), "compile_ms_p90": pct(ms, 90)}
    if phase == "execute":
        return {f"run_ms.{key}": statistics.median(ms)
                for key, ms in res["run_ms"].items()}
    ms = res["op_ms"]
    return {"service_req_per_s": 1000.0 * len(ms) / sum(ms),
            "service_ms_p50": pct(ms, 50), "service_ms_p99": pct(ms, 99)}


def layer_metrics(results: List[Dict], import_ms: List[float],
                  overhead_pct: float) -> Dict[str, tuple]:
    """Per-layer metrics from traced phase results, as name -> (value,
    unit, numerator, denominator); the last two are None except for
    ratios."""
    self_ms: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}
    service: Dict = {}
    for res in results:
        for name, values in res.get("self_ms", {}).items():
            self_ms.setdefault(name, []).extend(values)
        for name, value in res.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + value
        if "stats" in res:
            service = res["stats"]

    def med(name):
        values = self_ms.get(name)
        return (statistics.median(values) if values else 0.0, "ref_ms",
                None, None)

    def per(num, den, unit="count"):
        return (ratio(counts.get(num, 0), counts.get(den, 0)), unit,
                None, None)

    def frac(num, den):
        n, d = counts.get(num, 0), counts.get(den, 0)
        return (ratio(n, d), "ratio", n, d)

    analysis = self_ms.get("deps.analysis", [0.0])
    out = {
        "startup.import_ms": (statistics.median(import_ms), "ref_ms", None,
                              None),
        "ir.parse.ms": med("ir.parse"),
        "ir.parse.calls": (len(self_ms.get("ir.parse", [])), "count",
                           None, None),
        "deps.analysis.ms": med("deps.analysis"),
        "deps.analysis.ms_p90": (pct(analysis, 90), "ref_ms", None, None),
        "deps.analysis.vectors": per("deps_vectors", "jobs"),
        "core.legality.ms": med("core.legality"),
        "core.legality.legal_ratio": frac("legal", "jobs"),
        "core.apply.ms": med("core.apply"),
        "core.apply.loops_out": per("loops_out", "applied"),
        "optimize.search.ms": med("optimize.search"),
        "optimize.search.explored": per("explored", "jobs"),
        "optimize.search.legal_ratio": frac("search_legal", "explored"),
        "optimize.search.exact_verdicts": per("exact_verdicts", "jobs"),
        "core.legality_cache.hit_ratio": frac("cache_hits", "cache_lookups"),
        "runtime.compiled.codegen_ms": med("runtime.compiled.codegen"),
        "runtime.vectorized.plan_ms": med("runtime.vectorized.plan"),
    }
    runs = counts.get("vectorized_runs", 0) + counts.get("fallback_runs", 0)
    out["runtime.vectorized.fallback_ratio"] = (
        ratio(counts.get("fallback_runs", 0), runs), "ratio",
        counts.get("fallback_runs", 0), runs)
    for op in SERVICE_OPS:
        out[f"service.{op}.ms_p50"] = med(f"service.{op}")
    caches = service.get("caches", {})
    for cache in SERVICE_CACHES:
        doc = caches.get(cache) or {}
        hits, misses = doc.get("hits", 0), doc.get("misses", 0)
        out[f"service.cache.{cache}.hit_ratio"] = (
            ratio(hits, hits + misses), "ratio", hits, hits + misses)
    out["service.errors"] = (service.get("errors", 0), "count", None, None)
    out["service.backpressure"] = (service.get("backpressure", 0), "count",
                                   None, None)
    out["trace.overhead_pct"] = (overhead_pct, "%", None, None)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        required=True,
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "repro", "api.py")):
        print("perfbench: run from the repository root (src/repro/api.py "
              "not found)", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # Every process of the run shares one core: the service client and
    # server take turns anyway, and each phase's calibration loop then
    # sees the same interference as the work it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        try:
            run(workload, args, nproc)
        except RunFailed as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            status = 1
    return status


def run(workload: str, args, nproc: int) -> None:
    deadline = time.monotonic() + RUN_DEADLINE_S
    own = WORKLOADS[workload]
    probes = [phase for phase in ("compile", "execute", "service")
              if phase != own]
    trace = bool(args.trace)
    print(f"inputs seed={args.seed} sha256={gen.digest(args.seed)}")
    span_base = None
    if trace:
        os.makedirs(SPAN_DIR, exist_ok=True)
        span_base = os.path.join(SPAN_DIR,
                                 f"spans-{workload}-seed{args.seed}")

    setups: List[Dict] = []
    if own != "service":
        for _ in range(SETUP_ONLY_RUNS):
            setups.append(run_worker(own, args.seed, deadline,
                                     setup_only=True))
    results: Dict[str, Dict] = {}
    untraced = None
    if trace:
        untraced = run_worker(own, args.seed, deadline,
                              seconds=args.seconds / 2)
        results[own] = run_worker(own, args.seed, deadline,
                                  seconds=args.seconds / 2, trace=True,
                                  spans=f"{span_base}-{own}.jsonl")
    else:
        results[own] = run_worker(own, args.seed, deadline,
                                  seconds=args.seconds)
    for phase in probes:
        results[phase] = run_worker(
            phase, args.seed, deadline, count=PROBE_COUNT[phase],
            trace=trace,
            spans=f"{span_base}-{phase}.jsonl" if trace else None)

    main_res = untraced or results[own]
    setups.append(main_res)
    if own == "service":
        setup_samples = main_res["setup_samples_s"]
        setup_wall = main_res["setup_wall_samples_s"]
    else:
        setup_samples = [res["setup_s"] for res in setups]
        setup_wall = [res["setup_wall_s"] for res in setups]
    all_results = list(results.values()) + ([untraced] if untraced else [])
    attempted = sum(res["attempted"] for res in all_results)
    failed = sum(res["failed"] for res in all_results)

    print("env " + json.dumps({
        "workload": workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
        "python": platform.python_version(),
        "numpy": results["execute"]["numpy"],
        "vectorized_workers": results["execute"]["workers"],
        "vectorized_plans": results["execute"]["plans"]}))
    shown = [(phase, "own" if phase == own else "probe", res)
             for phase, res in results.items()]
    if untraced:
        shown.insert(0, (own, "own, untraced", untraced))
    for phase, role, res in shown:
        print(f"phase {phase} ({role}): attempted={res['attempted']} "
              f"failed={res['failed']} typed_errors={res['typed_errors']} "
              f"busy_s={res['busy_s']:.3f} "
              f"ref busy_s={res['busy_ref_s']:.3f} "
              f"calibration_ms={res['calibration_ms']:.4f}")
        for message in res["failures"]:
            print(f"  failure: {message}")
    print(f"setup_s samples (ref_s): "
          f"{', '.join(f'{s:.4f}' for s in setup_samples)}; wall s: "
          f"{', '.join(f'{s:.4f}' for s in setup_wall)}")

    if not trace:
        values = {"setup_s": statistics.median(setup_samples),
                  "peak_rss_mb": main_res["rss_mb"]}
        for phase, res in results.items():
            values.update(phase_metrics(phase, res))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        before = phase_metrics(own, untraced)
        after = phase_metrics(own, results[own])
        shares = []
        for name in before:
            delta = after[name] - before[name]
            print(f"tracing overhead {workload} {name}: traced "
                  f"{after[name]:.4f} - untraced {before[name]:.4f} = "
                  f"{delta:+.4f} {END_TO_END_UNITS[name]}")
            change = delta / before[name]
            # A throughput falls when tracing costs time; a latency rises.
            shares.append(-change if name.endswith("_per_s") else change)
        overhead = 100.0 * statistics.mean(shares)
        import_ms = [res["import_ms"] for res in setups]
        layers = layer_metrics(list(results.values()), import_ms, overhead)
        for name, (value, unit, num, den) in layers.items():
            if num is not None:
                print(f"ratio {name} = {num} / {den} = {value:.4f}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _n, _d) in layers.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
