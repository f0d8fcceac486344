"""Golden-output corpus: every case file pins the exact generated code
for a (nest, step-spec) pair, the analyzed dependence set, and —
independently of the stored text — re-verifies semantics by execution.

Case format (tests/corpus/*.case)::

    -- nest
    <loop nest source>
    -- steps
    <CLI step specification>
    -- deps
    <str(DepSet) of the analyzed input>
    -- expect
    <exact LoopNest.pretty() of the transformed nest>
"""

import random
from pathlib import Path

import pytest

from repro.core.spec import parse_steps
from repro.deps.analysis import analyze
from repro.ir import parse_nest
from repro.runtime import (Array, check_equivalence, run_nest,
                           same_iteration_multiset)
from tests.conftest import assert_same_arrays, run_emitted

CORPUS = sorted(Path(__file__).parent.glob("corpus/*.case"))
assert CORPUS, "corpus directory is empty"


def load_case(path: Path):
    sections = {}
    current = None
    for line in path.read_text().splitlines():
        if line.startswith("-- "):
            current = line[3:].strip()
            sections[current] = []
        else:
            sections[current].append(line)
    return {k: "\n".join(v).strip() for k, v in sections.items()}


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_golden_output(path):
    case = load_case(path)
    nest = parse_nest(case["nest"])
    deps = analyze(nest)
    assert str(deps) == case["deps"]
    T = parse_steps(case["steps"], nest.depth)
    report = T.legality(nest, deps)
    assert report.legal, report.reason
    out = T.apply(nest, deps)
    assert out.pretty() == case["expect"]


def _case_inputs(path, nest, out):
    """The concrete sizes and random arrays the corpus executes with."""
    symbols = {}
    for name in sorted(nest.invariants() | out.invariants()):
        symbols[name] = {"n": 7, "m": 5}.get(name, 3)
    rng = random.Random(hash(path.stem) & 0xFFFF)
    arrays = {}
    for arr_name in ("a", "b", "A", "B", "C"):
        arr = Array(0, arr_name)
        for i in range(-1, 9):
            for j in range(-1, 9):
                arr[(i, j)] = rng.randrange(50)
                arr[(i,)] = rng.randrange(50)
        arrays[arr_name] = arr
    return symbols, arrays


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_semantics(path):
    """Independent of the golden text: execute original vs transformed
    with concrete sizes and random arrays."""
    case = load_case(path)
    nest = parse_nest(case["nest"])
    deps = analyze(nest)
    T = parse_steps(case["steps"], nest.depth)
    out = T.apply(nest, deps)

    symbols, arrays = _case_inputs(path, nest, out)
    check_equivalence(nest, out, arrays, symbols=symbols)
    same_iteration_multiset(nest, out, arrays, symbols=symbols)


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_emitters(path):
    """Every corpus output must emit structurally valid C, and Python
    that executes to the interpreter's final arrays."""
    from repro.ir.emit import emit_c, emit_python

    case = load_case(path)
    nest = parse_nest(case["nest"])
    deps = analyze(nest)
    T = parse_steps(case["steps"], nest.depth)
    out = T.apply(nest, deps)
    c_src = emit_c(out)
    assert c_src.count("{") == c_src.count("}")
    assert c_src.count("for (") == out.depth
    symbols, arrays = _case_inputs(path, nest, out)
    expected = run_nest(out, arrays, symbols=symbols)
    got, count = run_emitted(emit_python(out), arrays, symbols)
    assert_same_arrays(got, expected.arrays)
    assert count == expected.body_count


def _sparse_inputs(n):
    """CSC inputs for examples/loops/sparse.loop: two entries a column."""
    rng = random.Random(n)
    colstr = Array(0, "colstr", {(j,): 1 + 2 * (j - 1)
                                 for j in range(1, n + 2)})
    rowidx = Array(0, "rowidx", {(k,): rng.randint(1, n)
                                 for k in range(1, 2 * n + 1)})
    c = Array(0, "c", {(k,): rng.randrange(50) for k in range(1, 2 * n + 1)})
    b = Array(0, "b", {(i, r): rng.randrange(50)
                       for i in range(1, n + 1) for r in range(1, n + 1)})
    return {"colstr": colstr, "rowidx": rowidx, "c": c, "b": b}


def _dense_inputs(n):
    rng = random.Random(n)
    return {name: Array(0, name, {(i, j): rng.randrange(50)
                                  for i in range(0, n + 2)
                                  for j in range(0, n + 2)})
            for name in ("a", "B", "C")}


EXAMPLES = Path(__file__).parent.parent / "examples" / "loops"
EXAMPLE_CASES = [
    ("matmul", "interchange(1,3)", _dense_inputs),
    ("stencil", "skew(2,1); interchange(1,2)", _dense_inputs),
    ("triangular", "skew(2,1,1); interchange(1,2)", _dense_inputs),
    ("sparse", "interchange(1,2)", _sparse_inputs),
]


@pytest.mark.parametrize("name,steps,inputs", EXAMPLE_CASES,
                         ids=[c[0] for c in EXAMPLE_CASES])
def test_cli_emitted_python_runs(name, steps, inputs, capsys):
    """``repro transform --emit python`` output executes and computes
    what the interpreter computes on the untransformed nest."""
    from repro.cli import main

    path = EXAMPLES / f"{name}.loop"
    assert main(["transform", str(path), "--steps", steps,
                 "--emit", "python"]) == 0
    source = capsys.readouterr().out
    n = 5
    arrays = inputs(n)
    expected = run_nest(parse_nest(path.read_text()), arrays,
                        symbols={"n": n})
    got, count = run_emitted(source, arrays, {"n": n})
    assert_same_arrays(got, expected.arrays)
    assert count == expected.body_count
