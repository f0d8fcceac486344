"""Seeded inputs for the benchmark: loop nests, step specs, kernel data.

Everything here is a pure function of the benchmark seed and uses only
the standard library.  It imports nothing from ``repro`` on purpose: a
change to the program (including its own fuzz generator) cannot change
what the benchmark feeds it, so two commits measured with one seed get
byte-identical inputs.  ``digest(seed)`` hashes a fixed prefix of every
stream; run.py prints it with each result.

Run ``python3 perfbench/gen.py --seed N`` to print the digest alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from typing import Dict, List, Tuple

#: The seed used when run.py is given none.
DEFAULT_SEED = 1

INDEX_NAMES = ("i", "j", "k", "l")
ARRAY_NAMES = ("a", "b", "c")
ARRAY_RANKS = {"a": 1, "b": 2, "c": 2}
BOUND_KINDS = ("const", "param", "tri", "minmax", "div")
#: Transformed nests never grow past this many loops.
MAX_SEQ_DEPTH = 6
#: Symbol value used when compile-cold and service-warm outputs are
#: executed for checking: small, so the interpreter check stays cheap.
CHECK_N = 4
#: The ``n`` of service-warm ``run`` requests, as in the replay script.
SERVICE_RUN_N = 8

# The four nests of examples/loops, copied so that an edit to the
# examples cannot change the workload.  Each carries a fixed step
# sequence and its verdict, derived by hand from the paper:
#  * matmul, Figure 7: permute, tile, parallelize, permute, coalesce --
#    only the (0,0,+) reduction vector exists and it stays in the k loops.
#  * stencil, Figure 1: skew then interchange makes both vectors
#    (1,1),(1,0), so the inner loop may run in parallel.
#  * triangular, Figure 4(a): interchange by the Unimodular template,
#    whose bounds mapping handles the linear bound j >= i; no deps.
#  * sparse, Figure 4(c): k's bounds read colstr(j), so k may not move
#    outside j (bounds precondition) -- illegal.
PAPER_NESTS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("matmul", """do i = 1, n
  do j = 1, n
    do k = 1, n
      A(i, j) += B(i, k) * C(k, j)
    enddo
  enddo
enddo""",
     "revpermute([0,0,0], [3,1,2]); block(1, 3, 2, 2, 2); "
     "parallelize(1, 3); revpermute([0,0,0,0,0,0], [1,3,2,4,5,6]); "
     "coalesce(1, 2)", True),
    ("stencil", """do i = 2, n-1
  do j = 2, n-1
    a(i, j) = (a(i, j) + a(i-1, j) + a(i, j-1) + a(i+1, j) + a(i, j+1)) / 5
  enddo
enddo""", "skew(2,1); interchange(1,2); parallelize(2)", True),
    ("triangular", """do i = 1, n
  do j = i, n
    a(i, j) = i + j
  enddo
enddo""", "unimodular([[0,1],[1,0]])", True),
    ("sparse", """do i = 1, n
  do j = 1, n
    do k = colstr(j), colstr(j+1)-1
      a(i, j) += b(i, rowidx(k)) * c(k)
    enddo
  enddo
enddo""", "interchange(2,3)", False),
)

#: One cycle of compile-cold shapes, as (depth, bound kind, statements).
#: Every seed walks the same cycle, so the mix of nest shapes -- and
#: with it the distribution of compile times -- is the same on every
#: seed; the seed picks bounds, subscripts, statements and steps.  Each
#: bound kind appears at depths 1-4 with 1-3 statements; the heaviest
#: shapes (depth 3-4 with 2-3 statements, where dependence analysis
#: costs 0.1-1 s) appear three times a cycle, so they set the tail
#: without dominating the run.
SHAPES = tuple(
    [(d, kind, s) for kind in BOUND_KINDS
     for d, s in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1),
                  (3, 2), (4, 1))]
    + [(3, "minmax", 3), (4, "div", 2), (4, "param", 3)])
_ORDER = list(range(len(SHAPES)))
random.Random(0).shuffle(_ORDER)


def _rng(seed: int, stream: str, index: int, salt: int = 0) -> random.Random:
    key = f"{seed}:{stream}:{index}:{salt}".encode()
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8],
                                        "big"))


# -- nests --------------------------------------------------------------------

class Draw:
    """Two random streams for one generated input.  ``shape`` decides
    structure -- loop bounds, subscript forms, which index each
    subscript uses, statement and step kinds -- and is seeded by the
    input's position alone, so job i has the same structure on every
    seed.  ``value`` decides constants (subscript offsets, modulus and
    statement constants, skew factors, block sizes) and is seeded by
    the benchmark seed.  Structure sets the compile cost, so
    the seed changes every input without changing the cost mix."""

    def __init__(self, seed: int, stream: str, index: int, salt: int = 0):
        # A redraw (salt > 0) changes constants first; only if eight
        # redraws all collide does the structure change too.
        self.shape = _rng(-1, stream, index, salt // 8)
        self.value = _rng(seed, stream, index, salt)


def _bound_pair(r: Draw, kind: str, level: int) -> Tuple[str, str]:
    """Bounds are structure, constants included: an outer loop from 0
    rather than 1 or 2 makes an apply through a min() bound cost 25%
    more, so seeded bound constants would make latency tails follow the
    seed."""
    outer = INDEX_NAMES[level - 1] if level > 0 else None
    if kind == "tri" and outer is None:
        kind = "param"
    form = r.shape.randrange(4)
    if kind == "const":
        lo = r.shape.randint(0, 2)
        return str(lo), str(lo + 2 + form % 3)
    if kind == "param":
        return str(r.shape.randint(0, 1)), ("n", "n - 1", "n + 1")[form % 3]
    if kind == "tri":
        return ((outer, "n"), ("1", outer), (f"{outer} - 1", "n"),
                ("0", f"{outer} + 1"))[form]
    if kind == "minmax":
        if outer is None:
            return "1", f"min(n, {r.shape.randint(3, 5)})"
        return (("1", f"min(n, {outer} + {r.shape.randint(1, 2)})"),
                (f"max(1, {outer} - 1)", "n"),
                (f"max(0, {outer} - 2)", f"min(n, {outer} + 1)"))[form % 3]
    # div of an invariant, or of an outer index
    if outer is None or form < 2:
        return (str(r.shape.randint(0, 1)),
                f"div(n, 2) + {r.shape.randint(1, 2)}")
    return "0", f"div({outer} + n, 2)"


def _subscript(r: Draw, idx: List[str]) -> str:
    x = r.shape.choice(idx)
    roll = r.shape.random()
    if roll < 0.12:
        return f"mod({x} + {r.value.randint(0, 2)}, {r.value.randint(2, 4)})"
    if roll < 0.22:
        return f"div({x}, 2)"
    if roll < 0.45 and len(idx) > 1:
        y = r.shape.choice([v for v in idx if v != x])
        return f"{x} {r.shape.choice('+-')} {y}"
    if roll < 0.55:
        return f"2*{x}"
    off = r.value.randint(-1, 1)
    return x if off == 0 else f"{x} {'+' if off > 0 else '-'} {abs(off)}"


def _ref(r: Draw, idx: List[str]) -> str:
    name = r.shape.choice(ARRAY_NAMES)
    return f"{name}(" + ", ".join(_subscript(r, idx)
                                   for _ in range(ARRAY_RANKS[name])) + ")"


def _statement(r: Draw, idx: List[str]) -> str:
    target = _ref(r, idx)
    terms = []
    for _ in range(r.shape.randint(1, 3)):
        roll = r.shape.random()
        if roll < 0.6:
            terms.append(_ref(r, idx))
        elif roll < 0.85:
            terms.append(r.shape.choice(idx))
        else:
            terms.append(str(r.value.randint(1, 5)))
    if len(terms) > 1 and r.shape.random() < 0.3:
        rhs = f"{terms[0]} * {terms[1]}" + "".join(
            f" + {t}" for t in terms[2:])
    else:
        rhs = " + ".join(terms)
    return f"{target} {'+=' if r.shape.random() < 0.4 else '='} {rhs}"


def make_nest(r: Draw, depth: int, kind: str, statements: int) -> str:
    """Render one perfect nest: *kind* bounds on one loop (an inner one
    for triangular bounds), parametric or constant bounds elsewhere."""
    special = r.shape.randrange(1, depth) if depth > 1 and kind == "tri" \
        else r.shape.randrange(depth)
    lines = []
    for level in range(depth):
        lo, hi = _bound_pair(r, kind if level == special else
                             r.shape.choice(("param", "const")), level)
        lines.append("  " * level + f"do {INDEX_NAMES[level]} = {lo}, {hi}")
    idx = list(INDEX_NAMES[:depth])
    for _ in range(statements):
        lines.append("  " * depth + _statement(r, idx))
    for level in reversed(range(depth)):
        lines.append("  " * level + "enddo")
    return "\n".join(lines)


# -- step sequences -----------------------------------------------------------

def _step(r: Draw, n: int) -> Tuple[str, int]:
    """One step for a depth-*n* nest and the depth it leaves."""
    menu = ["reverse", "parallelize"]
    if n >= 2:
        menu += ["interchange", "interchange", "permute", "skew", "skew",
                 "coalesce", "wavefront"]
    if n < MAX_SEQ_DEPTH:
        menu.append("stripmine")
    if 2 <= n <= MAX_SEQ_DEPTH - 2:
        menu += ["block", "interleave"]
    name = r.shape.choice(menu)
    loops = list(range(1, n + 1))
    if name == "reverse":
        return f"reverse({r.shape.choice(loops)})", n
    if name == "parallelize":
        picked = sorted(r.shape.sample(loops, r.shape.randint(1, min(2, n))))
        return "parallelize(" + ", ".join(map(str, picked)) + ")", n
    if name == "interchange":
        a, b = r.shape.sample(loops, 2)
        return f"interchange({a},{b})", n
    if name == "permute":
        order = loops[:]
        while order == loops:
            r.shape.shuffle(order)
        return "permute(" + ",".join(map(str, order)) + ")", n
    if name == "skew":
        source = r.shape.randrange(1, n)
        target = r.shape.randrange(source + 1, n + 1)
        return f"skew({target},{source},{r.value.choice((1, 1, 2))})", n
    if name == "coalesce":
        i = r.shape.randrange(1, n)
        return f"coalesce({i}, {i + 1})", n - 1
    if name == "wavefront":
        return "wavefront()", n
    if name == "stripmine":
        return (f"stripmine({r.shape.choice(loops)}, "
                f"{r.value.randint(2, 3)})", n + 1)
    i = r.shape.randrange(1, n)
    return f"{name}({i}, {i + 1}, {r.value.randint(2, 3)})", n + 2


def make_steps(r: Draw, depth: int, count: int) -> str:
    steps, n = [], depth
    for _ in range(count):
        spec, n = _step(r, n)
        steps.append(spec)
    return "; ".join(steps)


# -- compile-cold -------------------------------------------------------------

def compile_job(seed: int, index: int, salt: int = 0) -> Dict[str, object]:
    """Job *index* of the compile-cold stream.  Jobs 0-3 are the paper
    nests with their hand-written verdicts; later jobs walk SHAPES, each
    with a 1-3 step sequence.  *salt* redraws a job whose
    text collides with an earlier one."""
    if index < len(PAPER_NESTS):
        name, text, steps, legal = PAPER_NESTS[index]
        return {"name": name, "text": text, "steps": steps,
                "expect_legal": legal}
    r = Draw(seed, "compile", index, salt)
    depth, kind, statements = SHAPES[
        _ORDER[(index - len(PAPER_NESTS)) % len(SHAPES)]]
    text = make_nest(r, depth, kind, statements)
    return {"name": f"gen{index}", "text": text,
            "steps": make_steps(r, depth, r.shape.randint(1, 3)),
            "expect_legal": None}


class CompileStream:
    """The compile-cold job stream with every nest text distinct."""

    def __init__(self, seed: int):
        self.seed = seed
        self.index = 0
        self._seen = set()

    def next(self) -> Dict[str, object]:
        salt = 0
        while True:
            job = compile_job(self.seed, self.index, salt)
            if job["text"] not in self._seen:
                break
            salt += 1
        self._seen.add(job["text"])
        job["id"] = self.index
        self.index += 1
        return job


def check_arrays(seed: int, name: str,
                 text: str) -> Dict[str, Dict[Tuple[int, ...], int]]:
    """Seeded initial arrays for checking one compile-cold job at
    CHECK_N: the kernel data for the paper nests that have it, else
    values for a, b, c over the index box the small checks can touch."""
    kernel = {"matmul": "fig7", "stencil": "stencil",
              "sparse": "sparse"}.get(name)
    if kernel is not None:
        return kernel_arrays(seed, kernel, CHECK_N)
    rng = _rng(seed, "arrays", 0, hash_text(text))
    span = range(-4, 2 * CHECK_N + 6)
    return {array: {(x,) if ARRAY_RANKS[array] == 1 else (x, y):
                    rng.randint(-4, 9)
                    for x in span
                    for y in (span if ARRAY_RANKS[array] == 2 else (0,))}
            for array in ARRAY_NAMES}


def hash_text(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


# -- execute ------------------------------------------------------------------

#: The execute kernels: nest, the transformation run under both engines,
#: and size.  Sizes are fixed, not seeded: run time scales as n^2..n^3,
#: so a seeded size would swamp the regression bound; the seed fills the
#: arrays and draws the sparse pattern.  Each size makes one compiled
#: run take roughly 50-200 ms.
KERNELS = (
    ("fig7", PAPER_NESTS[0][1],
     "revpermute([0,0,0], [3,1,2]); block(1, 3, 8, 8, 8); "
     "parallelize(1, 3); revpermute([0,0,0,0,0,0], [1,3,2,4,5,6]); "
     "coalesce(1, 2)", 40),
    ("stencil", PAPER_NESTS[1][1], "skew(2,1); interchange(1,2)", 260),
    ("sparse", PAPER_NESTS[3][1], "interchange(1,2)", 128),
)
SPARSE_NNZ_PER_COLUMN = 8


def kernel_arrays(seed: int, name: str, n: int) -> Dict[str, Dict]:
    """Seeded arrays for one execute kernel: {array: {index: value}}."""
    rng = _rng(seed, "kernel", 0, hash_text(name))
    if name == "fig7":
        return {"A": {},
                "B": {(i, j): rng.randint(0, 9) for i in range(1, n + 1)
                      for j in range(1, n + 1)},
                "C": {(i, j): rng.randint(0, 9) for i in range(1, n + 1)
                      for j in range(1, n + 1)}}
    if name == "stencil":
        return {"a": {(i, j): rng.randint(0, 999) for i in range(1, n + 1)
                      for j in range(1, n + 1)}}
    colstr, rowidx, c = {}, {}, {}
    k = 1
    for j in range(1, n + 2):
        colstr[(j,)] = k
        if j <= n:
            for r in sorted(rng.sample(range(1, n + 1),
                                       min(n, SPARSE_NNZ_PER_COLUMN))):
                rowidx[(k,)] = r
                c[(k,)] = rng.randint(1, 9)
                k += 1
    return {"a": {}, "b": {(i, j): rng.randint(0, 9) for i in range(1, n + 1)
                           for j in range(1, n + 1)},
            "c": c, "colstr": colstr, "rowidx": rowidx}


# -- service-warm -------------------------------------------------------------

#: Request mix for service-warm, as (op, weight): the op counts of the
#: repository's own client script, examples/service/replay.ndjson, less
#: its one ``parse`` and one ``stats`` request (ops outside the mix).
SERVICE_MIX = (("ping", 1), ("analyze", 3), ("legality", 7),
               ("apply", 2), ("run", 2), ("search", 3))
#: ``search`` parameters, as the replay script's depth-2 searches send.
SERVICE_SEARCH = {"depth": 2, "beam": 4}
#: Generated nests added to the four paper nests in the working set,
#: as (depth, bound kind, statements).  The working-set size is assumed
#: (see NOTES.md): the replay script uses two nests.
SERVICE_SHAPES = ((2, "const", 1), (2, "tri", 2), (3, "param", 1),
                  (3, "minmax", 2))
#: Step specs per nest: the replay script sends its stencil three.
STEPS_PER_NEST = 3


def service_working_set(seed: int) -> List[Dict[str, object]]:
    """The nests service-warm cycles over, each with its step specs."""
    nests = []
    for name, text, steps, _legal in PAPER_NESTS:
        nests.append({"name": name, "text": text, "depth":
                      3 if name in ("matmul", "sparse") else 2,
                      "steps": [steps]})
    for i, (depth, kind, statements) in enumerate(SERVICE_SHAPES):
        text = make_nest(Draw(seed, "service-nest", i), depth, kind,
                         statements)
        nests.append({"name": f"svc{i}", "text": text, "depth": depth,
                      "steps": []})
    for i, nest in enumerate(nests):
        r = Draw(seed, "service-steps", i)
        while len(nest["steps"]) < STEPS_PER_NEST:
            nest["steps"].append(make_steps(r, nest["depth"],
                                            r.shape.randint(1, 2)))
    return nests


def service_request(seed: int, index: int,
                    working_set: List[Dict[str, object]]) -> Dict[str, object]:
    """Request *index* of the service-warm stream: op, nest number and
    step spec (for ops that take one).  ``run`` runs the nest as given,
    as in the replay script.  ``search`` goes to the four paper nests
    only: search sets the latency tail, and a seeded nest there would
    make p99 a property of the seed rather than of the program."""
    rng = _rng(seed, "service-req", index)
    roll = rng.randrange(sum(w for _, w in SERVICE_MIX))
    for op, weight in SERVICE_MIX:
        if roll < weight:
            break
        roll -= weight
    nest = rng.randrange(len(PAPER_NESTS) if op == "search"
                         else len(working_set))
    steps = rng.choice(working_set[nest]["steps"])
    return {"op": op, "nest": nest, "steps": steps}


# -- digest -------------------------------------------------------------------

#: How many jobs/requests of each stream the digest covers: more than a
#: run consumes at the default run length on a 2-core machine.
DIGEST_JOBS = 3000
DIGEST_REQUESTS = 20000


def digest(seed: int) -> str:
    """sha256 over a fixed prefix of every input stream for *seed*."""
    h = hashlib.sha256()
    stream = CompileStream(seed)
    for _ in range(DIGEST_JOBS):
        h.update(json.dumps(stream.next(), sort_keys=True).encode())
    ws = service_working_set(seed)
    h.update(json.dumps(ws, sort_keys=True).encode())
    for i in range(DIGEST_REQUESTS):
        h.update(json.dumps(service_request(seed, i, ws),
                            sort_keys=True).encode())
    for name, text, steps, n in KERNELS:
        h.update(f"{name}|{text}|{steps}|{n}".encode())
        for array, data in sorted(kernel_arrays(seed, name, n).items()):
            h.update(array.encode())
            h.update(repr(sorted(data.items())).encode())
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    print(f"inputs seed={args.seed} sha256={digest(args.seed)}")


if __name__ == "__main__":
    main()
