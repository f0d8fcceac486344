"""One benchmark phase in a fresh process; run.py starts it.

    python3 perfbench/worker.py --phase compile|execute|service --seed N
        (--seconds S | --count K) --t0 MONOTONIC [--trace 0|1]
        [--setup-only] [--spans FILE]

A phase runs a closed loop for S seconds (or K operations) against the
public API of one part of the program, then checks every output
outside the timed region.  The last line of standard output is one
JSON object with the phase's timings, counts and failures.  With
--setup-only, a compile or execute phase stops once it is set up.
Times are reported in reference units (see speed.py).

* compile: a stream of distinct nests through parse_nest -> analyze ->
  Transformation.legality -> apply -> CompiledNest(...).source, plus
  search(depth=2, beam=8).  A timed run ends on a whole cycle of
  gen.SHAPES.  Checked by running original and transformed nests under
  the Interpreter (and the transformed one compiled).
* execute: three paper kernels transformed once in setup, then run in
  turn under the compiled and vectorized engines.  Checked against one
  Interpreter run of each untransformed kernel.
* service: one client, one request at a time, against a spawned
  ``python -m repro serve --stdio``.  Checked against the same answers
  computed in this process.

``setup_s`` runs from *t0* (the monotonic clock reading taken by the
parent just before it started this process, shared by all processes on
Linux) to the moment the phase is ready for its first timed operation,
less the time spent generating inputs.  For service it runs from
spawning the server to its first ``ping`` reply, SERVICE_SETUP_SAMPLES
times.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import signal
import subprocess
import sys
import statistics
import time
from typing import Dict, List

import gen
import spans
from speed import Speed, startup_factor

#: A single operation (compile job, engine run, request) running longer
#: than this counts as failed.
OP_TIMEOUT_S = 30.0
#: Servers spawned per service phase: all but the last are set-up
#: samples only.
SERVICE_SETUP_SAMPLES = 3
#: Vectorized-engine worker threads.  One: on a 2-core machine a second
#: thread measures the scheduler more than the engine (see NOTES.md).
VECTORIZED_WORKERS = 1


class OpTimeout(BaseException):
    """Raised in the main thread when an operation overruns; a
    BaseException so that no ``except Exception`` in the program
    swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout("timed out")


@contextlib.contextmanager
def op_timeout(seconds: float = OP_TIMEOUT_S):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def peak_rss_mb(pid: str = "self") -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class Loop:
    """Closed-loop budget: S seconds of timed work, or K operations
    (for execute, K rounds over every kernel and engine).  With *whole*,
    a timed loop runs on past S seconds until the operations after the
    first *offset* fill whole cycles of *whole*, so the mix of
    operations does not depend on how fast the machine was."""

    def __init__(self, seconds: float, count: int, whole: int = 1,
                 offset: int = 0):
        self.seconds = seconds
        self.count = count
        self.whole = whole
        self.offset = offset
        self.done = 0
        self.busy = 0.0
        self.busy_ref = 0.0
        self.speed = Speed()

    def more(self) -> bool:
        if self.count:
            return self.done < self.count
        return (self.busy < self.seconds
                or (self.done - self.offset) % self.whole != 0)

    def add(self, elapsed: float) -> float:
        """Count one operation of *elapsed* seconds; returns its time in
        reference ms (see speed.py)."""
        self.done += 1
        self.busy += elapsed
        ref_ms = elapsed * 1000.0 * self.speed.factor()
        self.busy_ref += ref_ms / 1000.0
        return ref_ms

    def report(self, result: Dict, tracer: spans.Tracer,
               factors: Dict) -> None:
        result["busy_s"] = self.busy
        result["busy_ref_s"] = self.busy_ref
        result["calibration_ms"] = statistics.median(self.speed.samples)
        if tracer.enabled:
            result["self_ms"] = spans.self_times_ms(
                tracer.records, factors, self.speed.factor())


def _failure(failures: List[str], message: str) -> None:
    if len(failures) < 20:
        failures.append(message)


def _arrays(data: Dict[str, Dict]):
    from repro.runtime import Array
    return {name: Array(0, name, values) for name, values in data.items()}


def _same_arrays(a, b) -> bool:
    from repro.runtime import Array
    empty = Array(0)
    return all(a.get(name, empty) == b.get(name, empty)
               for name in set(a) | set(b))


# -- compile ------------------------------------------------------------------

def compile_phase(args, tracer: spans.Tracer, result: Dict) -> None:
    t = time.perf_counter()
    from repro.api import (CompiledNest, SearchConfig, Transformation,
                           analyze, parse_nest, search)
    from repro.util.errors import ReproError
    result["import_ms"] = (time.perf_counter() - t) * 1000
    stream = gen.CompileStream(args.seed)
    ready(args, result, 0.0, 0.0)
    if args.setup_only:
        return
    config = SearchConfig(depth=2, beam=8)
    loop = Loop(args.seconds, args.count, whole=len(gen.SHAPES),
                offset=len(gen.PAPER_NESTS))
    job_ms: List[float] = []
    counts = {"jobs": 0, "deps_vectors": 0, "legal": 0, "applied": 0,
              "loops_out": 0, "explored": 0, "search_legal": 0,
              "exact_verdicts": 0, "cache_hits": 0, "cache_lookups": 0,
              "typed_errors": 0}
    failures: List[str] = []
    failed = 0
    factors: Dict = {}
    gc.freeze()
    while loop.more():
        job = stream.next()
        jid = job["id"]
        loop.speed.tick()
        t0 = time.perf_counter()
        try:
            with op_timeout(), tracer.span("compile.job", jid):
                with tracer.span("ir.parse", jid):
                    nest = parse_nest(job["text"])
                with tracer.span("deps.analysis", jid):
                    deps = analyze(nest)
                with tracer.span("core.spec", jid):
                    T = Transformation.from_spec(job["steps"], nest.depth)
                with tracer.span("core.legality", jid):
                    report = T.legality(nest, deps)
                out = None
                if report.legal:
                    with tracer.span("core.apply", jid):
                        out = T.apply(nest, deps, check=False)
                    with tracer.span("runtime.compiled.codegen", jid):
                        CompiledNest(out).source
                with tracer.span("optimize.search", jid):
                    found = search(nest, deps, config=config)
        except ReproError as exc:
            # A typed rejection answers a generated job, and its time is
            # compile time; a paper job has a known verdict instead.
            job_ms.append(loop.add(time.perf_counter() - t0))
            factors[jid] = loop.speed.factor()
            counts["typed_errors"] += 1
            if job["expect_legal"] is not None:
                failed += 1
                _failure(failures, f"job {jid} ({job['name']}): typed "
                                   f"{type(exc).__name__}: {exc}")
            continue
        except (OpTimeout, Exception) as exc:
            loop.add(time.perf_counter() - t0)
            failed += 1
            _failure(failures, f"job {jid}: {type(exc).__name__}: {exc}")
            continue
        job_ms.append(loop.add(time.perf_counter() - t0))
        factors[jid] = loop.speed.factor()
        counts["jobs"] += 1
        counts["deps_vectors"] += len(deps)
        counts["legal"] += int(report.legal)
        if out is not None:
            counts["applied"] += 1
            counts["loops_out"] += out.depth
        counts["explored"] += found.explored
        counts["search_legal"] += found.legal_count
        counts["exact_verdicts"] += found.exact_verdicts
        stats = found.cache_stats or {}
        counts["cache_hits"] += stats.get("hits", 0)
        counts["cache_lookups"] += (stats.get("hits", 0)
                                    + stats.get("misses", 0))
        problem = check_job(args.seed, job, nest, deps, report.legal, out,
                            found.transformation)
        if problem:
            failed += 1
            _failure(failures, f"job {jid} ({job['name']}): {problem}")
    result["rss_mb"] = peak_rss_mb()
    loop.report(result, tracer, factors)
    result["op_ms"] = job_ms
    result["counts"] = counts
    result["attempted"] = loop.done
    result["failed"] = failed
    result["typed_errors"] = counts["typed_errors"]
    result["failures"] = failures


def check_job(seed: int, job: Dict, nest, deps, legal: bool, out,
              winner) -> str:
    """Check one compile job, off the clock; returns the problem found,
    or "" when the outputs are right."""
    from repro.api import CompiledNest
    from repro.runtime import Interpreter

    if job["expect_legal"] is not None and legal != job["expect_legal"]:
        return f"verdict {legal}, expected {job['expect_legal']}"
    symbols = {"n": gen.CHECK_N}
    try:
        with op_timeout():
            candidates = [("steps", out)] if out is not None else []
            if winner is not None:
                candidates.append(("search", winner.apply(nest, deps)))
            if not candidates:
                return ""
            arrays = _arrays(gen.check_arrays(seed, job["name"], job["text"]))
            want = Interpreter(nest, symbols=symbols).run(arrays).arrays
            for label, transformed in candidates:
                got = Interpreter(transformed, symbols=symbols).run(arrays)
                compiled = CompiledNest(transformed, symbols=symbols
                                        ).run(arrays)
                if not (_same_arrays(want, got.arrays)
                        and _same_arrays(want, compiled.arrays)):
                    return f"{label} result differs from the original nest"
    except (OpTimeout, Exception) as exc:
        return f"check raised {type(exc).__name__}: {exc}"
    return ""


# -- execute ------------------------------------------------------------------

ENGINES = ("compiled", "vectorized")


def execute_phase(args, tracer: spans.Tracer, result: Dict) -> None:
    t = time.perf_counter()
    import numpy
    from repro.api import (CompiledNest, Transformation, VectorizedNest,
                           analyze, parse_nest)
    result["import_ms"] = (time.perf_counter() - t) * 1000
    result["numpy"] = numpy.__version__
    result["workers"] = VECTORIZED_WORKERS
    t = time.perf_counter()
    inputs = {name: _arrays(gen.kernel_arrays(args.seed, name, n))
              for name, _text, _steps, n in gen.KERNELS}
    gen_s = time.perf_counter() - t
    compute_start = time.perf_counter()
    kernels = []
    for name, text, steps, n in gen.KERNELS:
        with tracer.span("ir.parse", name):
            nest = parse_nest(text)
        with tracer.span("deps.analysis", name):
            deps = analyze(nest)
        with tracer.span("core.spec", name):
            T = Transformation.from_spec(steps, nest.depth)
        with tracer.span("core.legality", name):
            report = T.legality(nest, deps)
        if not report.legal:
            raise RuntimeError(f"kernel {name}: {steps} judged illegal: "
                               f"{report.reason}")
        with tracer.span("core.apply", name):
            out = T.apply(nest, deps, check=False)
        symbols = {"n": n}
        with tracer.span("runtime.compiled.codegen", name):
            compiled = CompiledNest(out, symbols=symbols)
            compiled.source
        with tracer.span("runtime.vectorized.plan", name):
            vectorized = VectorizedNest(out, symbols=symbols,
                                        workers=VECTORIZED_WORKERS)
        engines = {"compiled": compiled, "vectorized": vectorized}
        for engine in engines.values():  # warm-up, untimed
            engine.run(inputs[name])
        kernels.append((name, nest, symbols, engines))
    ready(args, result, gen_s, time.perf_counter() - compute_start)
    if args.setup_only:
        return
    # Set-up objects (the input arrays above all) are frozen out of the
    # collector, so a collection during a run does not traverse them.
    gc.freeze()
    loop = Loop(args.seconds, args.count)
    run_ms: Dict[str, List[float]] = {f"{e}.{k[0]}": [] for k in kernels
                                      for e in ENGINES}
    last: Dict[str, object] = {}
    failures: List[str] = []
    failed = 0
    attempted = 0
    rid = 0
    factors: Dict = {}
    while loop.more():
        round_start = time.perf_counter()
        for name, _nest, _symbols, engines in kernels:
            for engine_name in ENGINES:
                key = f"{engine_name}.{name}"
                rid += 1
                attempted += 1
                loop.speed.tick()
                t0 = time.perf_counter()
                try:
                    with op_timeout(), tracer.span(
                            f"runtime.{engine_name}.run", rid):
                        last[key] = engines[engine_name].run(inputs[name])
                except (OpTimeout, Exception) as exc:
                    failed += 1
                    _failure(failures, f"{key}: {type(exc).__name__}: {exc}")
                    continue
                elapsed = time.perf_counter() - t0
                factors[rid] = loop.speed.factor()
                run_ms[key].append(elapsed * 1000 * factors[rid])
        loop.add(time.perf_counter() - round_start)
    result["rss_mb"] = peak_rss_mb()
    loop.report(result, tracer, factors)
    result["run_ms"] = run_ms
    runs = {"vectorized": 0, "fallback": 0}
    plans = {}
    for name, _nest, _symbols, engines in kernels:
        described = engines["vectorized"].describe()
        plans[name] = described["full_fallback"] or "vectorized"
        for kind in runs:
            runs[kind] += described["runs"][kind]
    result["counts"] = {"vectorized_runs": runs["vectorized"],
                        "fallback_runs": runs["fallback"]}
    result["plans"] = plans

    # Checks, outside the timed region.
    from repro.runtime import Interpreter
    for name, nest, symbols, engines in kernels:
        try:
            with op_timeout(120.0):
                want = Interpreter(nest, symbols=symbols).run(
                    inputs[name]).arrays
        except Exception as exc:
            failed += 1
            _failure(failures, f"{name}: reference run raised "
                               f"{type(exc).__name__}: {exc}")
            continue
        for engine_name in ENGINES:
            got = last.get(f"{engine_name}.{name}")
            if got is not None and not _same_arrays(want, got.arrays):
                failed += 1
                _failure(failures, f"{engine_name}.{name}: arrays differ "
                                   f"from the Interpreter")
    result["attempted"] = attempted
    result["failed"] = failed
    result["typed_errors"] = 0  # every exception here is a failure
    result["failures"] = failures


# -- service ------------------------------------------------------------------

def _spawn_server():
    from repro.service.client import ServiceClient
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--stdio"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    return proc, ServiceClient(proc.stdout, proc.stdin, proc=proc)


def _service_params(req: Dict, working_set) -> Dict:
    nest = working_set[req["nest"]]
    op = req["op"]
    params: Dict = {}
    if op != "ping":
        params["text"] = nest["text"]
    if op in ("legality", "apply"):
        params["steps"] = req["steps"]
    if op == "run":
        params["symbols"] = {"n": gen.SERVICE_RUN_N}
    if op == "search":
        params.update(gen.SERVICE_SEARCH)
    return params


def _warm(svc, working_set) -> None:
    """Send every nest and step spec once, untimed: this workload
    measures reuse, not the first miss."""
    from repro.service.protocol import ServiceError
    for nest_no, nest in enumerate(working_set):
        ops = [(op, None) for op in ("analyze", "run")]
        if nest_no < len(gen.PAPER_NESTS):
            ops.append(("search", None))
        ops += [(op, steps) for steps in nest["steps"]
                for op in ("legality", "apply")]
        for op, steps in ops:
            try:
                svc.request(op, **_service_params(
                    {"op": op, "nest": nest_no, "steps": steps},
                    working_set))
            except ServiceError:
                pass  # illegal sequences; the timed loop checks them


def service_phase(args, tracer: spans.Tracer, result: Dict) -> None:
    t = time.perf_counter()
    import repro.api  # noqa: F401  (timed like the other phases' import)
    from repro.service.protocol import ServiceError
    result["import_ms"] = (time.perf_counter() - t) * 1000
    working_set = gen.service_working_set(args.seed)
    setups, setups_wall = [], []
    for sample in range(SERVICE_SETUP_SAMPLES):
        t0 = time.monotonic()
        with tracer.span("service.spawn", sample):
            proc, svc = _spawn_server()
            svc.request("ping")
        setups_wall.append(time.monotonic() - t0)
        start = startup_factor()
        setups.append(setups_wall[-1] * start)
        if sample < SERVICE_SETUP_SAMPLES - 1:
            svc.close()
    result["setup_samples_s"] = setups
    result["setup_wall_samples_s"] = setups_wall
    result["import_ms"] *= start
    _warm(svc, working_set)
    loop = Loop(args.seconds, args.count)
    req_ms: List[float] = []
    replies = []
    failures: List[str] = []
    failed = 0
    typed_errors = 0
    factors: Dict = {}
    try:
        while loop.more():
            rid = loop.done
            req = gen.service_request(args.seed, rid, working_set)
            params = _service_params(req, working_set)
            loop.speed.tick()
            t0 = time.perf_counter()
            try:
                with op_timeout(), tracer.span(f"service.{req['op']}", rid):
                    reply = svc.request(req["op"], **params)
            except ServiceError as exc:
                reply = exc
                typed_errors += 1
            except (OpTimeout, OSError) as exc:
                # The server overran or its pipe broke: the request
                # failed; a fresh, warmed server takes the next one.
                loop.add(time.perf_counter() - t0)
                failed += 1
                _failure(failures, f"request {rid} ({req['op']}): "
                                   f"{type(exc).__name__}: {exc}")
                proc.kill()
                svc.close(shutdown=False)
                proc, svc = _spawn_server()
                _warm(svc, working_set)
                continue
            factors[rid] = loop.speed.factor()
            req_ms.append(loop.add(time.perf_counter() - t0))
            replies.append((req, params, reply))
        stats = svc.request("stats")
        result["rss_mb"] = peak_rss_mb(str(proc.pid))
        result["stats"] = {"caches": stats["caches"],
                           "errors": stats["requests"]["errors"],
                           "backpressure": stats["queue"]["backpressure"]}
        loop.report(result, tracer, factors)
        result["op_ms"] = req_ms
        failed += _check_service(svc, working_set, replies, failures)
    finally:
        svc.close()
    result["attempted"] = loop.done
    result["failed"] = failed
    result["typed_errors"] = typed_errors
    result["failures"] = failures


def _check_service(svc, working_set, replies, failures) -> int:
    """Compare every reply with the answer computed in this process."""
    from repro.api import CompiledNest, Transformation, analyze, parse_nest
    from repro.service.protocol import ILLEGAL, ServiceError

    memo: Dict = {}

    def local(nest_no: int, steps):
        key = (nest_no, steps)
        if key not in memo:
            nest = parse_nest(working_set[nest_no]["text"])
            deps = analyze(nest)
            entry = {"nest": nest, "deps": sorted(str(v) for v in deps)}
            if steps:
                T = Transformation.from_spec(steps, nest.depth)
                entry["legal"] = T.legality(nest, deps).legal
                entry["out"] = T.apply(nest, deps) if entry["legal"] else None
            memo[key] = entry
        return memo[key]

    symbols = {"n": gen.SERVICE_RUN_N}
    server_verdicts: Dict = {}
    failed = 0
    for req, params, reply in replies:
        op, nest_no = req["op"], req["nest"]
        steps = params.get("steps")
        where = f"{op} on {working_set[nest_no]['name']} [{steps}]"
        try:
            if isinstance(reply, ServiceError):
                if reply.code != ILLEGAL or steps is None:
                    raise AssertionError(f"error {reply.code}: {reply}")
                key = (nest_no, steps)
                if key not in server_verdicts:
                    server_verdicts[key] = svc.request(
                        "legality", **{"text": params["text"],
                                       "steps": steps})["legal"]
                if server_verdicts[key] or local(nest_no, steps)["legal"]:
                    raise AssertionError("typed illegal for a legal sequence")
                continue
            if op == "ping":
                ok = reply.get("pong") is True
            elif op == "analyze":
                ok = sorted(reply["deps"]) == local(nest_no, None)["deps"]
            elif op == "legality":
                ok = reply["legal"] == local(nest_no, steps)["legal"]
            elif op == "apply":
                mine = local(nest_no, steps)
                ok = mine["legal"] and reply["code"] == mine["out"].pretty()
            elif op == "run":
                mine = local(nest_no, None)
                if "iterations" not in mine:
                    mine["iterations"] = CompiledNest(
                        mine["nest"], symbols=symbols).run({}).body_count
                ok = reply["iterations"] == mine["iterations"]
            else:  # search: the winner must be legal here too
                ok = (not reply["spec"]  # no winner, or the identity
                      or local(nest_no, reply["spec"])["legal"])
            if not ok:
                raise AssertionError(f"reply differs: {str(reply)[:200]}")
        except Exception as exc:
            failed += 1
            _failure(failures, f"{where}: {exc}")
    return failed


# -- main ---------------------------------------------------------------------

def ready(args, result: Dict, gen_s: float, compute_s: float) -> None:
    """Mark the phase ready for its first timed operation; then, off
    the clock, scale the set-up time to reference seconds: the last
    *compute_s* of it (transforms, engine builds, warm-up runs) by the
    calibration loop, the start-up before it by a reference process
    start."""
    wall = time.monotonic() - args.t0 - gen_s
    start = startup_factor()
    result["setup_wall_s"] = wall
    result["setup_s"] = ((wall - compute_s) * start
                         + compute_s * Speed().settled_factor())
    result["import_ms"] *= start


PHASES = {"compile": compile_phase, "execute": execute_phase,
          "service": service_phase}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", choices=sorted(PHASES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--count", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = spans.Tracer(bool(args.trace))
    result: Dict = {"phase": args.phase}
    PHASES[args.phase](args, tracer, result)
    spans.write(args.spans, tracer.records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
