"""Tests for the C and Python emitters."""

import random
from collections import defaultdict

import pytest

from repro.core import Block, Transformation, Unimodular
from repro.core.derived import skew_and_interchange
from repro.deps import depset
from repro.deps.analysis import analyze
from repro.expr.nodes import Add, Call, Const, Var
from repro.ir import ArrayRef, Assign, LoopNest, parse_nest
from repro.ir.emit import emit_c, emit_python
from repro.runtime import Array, CompiledNest, run_nest
from repro.runtime.compiled import PRELUDE
from repro.util.errors import ReproError
from tests.conftest import assert_same_arrays, random_array_2d, run_emitted


class TestEmitC:
    def test_basic_structure(self, matmul_nest):
        src = emit_c(matmul_nest, "matmul")
        assert "void matmul(long n)" in src
        assert "for (i = 1; i <= (n); i += 1)" in src
        assert "A(i, j) += (B(i, k) * C(k, j));" in src
        assert src.count("{") == src.count("}")

    def test_pardo_pragma(self):
        nest = parse_nest("pardo i = 1, n\n a(i) = i\nenddo")
        src = emit_c(nest)
        assert "#pragma omp parallel for" in src

    def test_negative_step_comparison(self):
        nest = parse_nest("do i = 10, 1, -2\n a(i) = i\nenddo")
        src = emit_c(nest)
        assert "i >= (1)" in src
        assert "i += (-2)" in src

    def test_init_statements_emitted(self, stencil_nest):
        deps = depset((1, 0), (0, 1))
        out = skew_and_interchange(names=["jj", "ii"]).apply(
            stencil_nest, deps)
        src = emit_c(out)
        assert "j = (((-1) * ii) + jj);" in src
        assert "i = ii;" in src
        assert "long" in src

    def test_minmax_and_div_macros(self, stencil_nest):
        out = skew_and_interchange().apply(stencil_nest,
                                           depset((1, 0), (0, 1)))
        src = emit_c(out)
        assert "MAX(" in src and "MIN(" in src
        assert "FLOOR_DIV" in src  # the /5 in the body

    def test_if_statement(self):
        nest = parse_nest("do i = 1, n\n if (b(i) > 0) a(i) = 1\nenddo")
        src = emit_c(nest)
        assert "if ((B(i) > 0))" in src


def _kernel(nest, func_name="kernel"):
    """Exec the emitted Python; return its kernel function."""
    namespace = {}
    exec(compile(emit_python(nest, func_name), "<test>", "exec"), namespace)
    return namespace[func_name]


class TestEmitPython:
    def test_source_compiles(self, matmul_nest):
        src = emit_python(matmul_nest)
        compile(src, "<test>", "exec")
        assert "def kernel(arrays, symbols):" in src
        assert "def matmul(arrays, symbols):" in emit_python(matmul_nest,
                                                             "matmul")

    def test_serves_the_engine_source(self, matmul_nest):
        """The served kernel is the compiled engine's own text, behind
        the prelude the engine executes it with."""
        src = emit_python(matmul_nest)
        assert src.startswith(PRELUDE)
        assert CompiledNest(matmul_nest, symbols={"n": 0}).source in src

    def test_compiled_matches_interpreter(self, matmul_nest):
        rng = random.Random(0)
        n = 6
        B = random_array_2d(rng, 1, n, "B")
        C = random_array_2d(rng, 1, n, "C")
        expected = run_nest(matmul_nest, {"B": B, "C": C},
                            symbols={"n": n})
        got, count = run_emitted(emit_python(matmul_nest),
                                 {"B": B, "C": C}, {"n": n})
        assert_same_arrays(got, expected.arrays)
        assert count == expected.body_count == n ** 3

    def test_compiled_transformed_nest(self, stencil_nest):
        deps = depset((1, 0), (0, 1))
        out = skew_and_interchange().apply(stencil_nest, deps)
        n = 8
        rng = random.Random(1)
        a = random_array_2d(rng, 0, n + 1, "a")
        expected = run_nest(stencil_nest, {"a": a},
                            symbols={"n": n}).arrays
        got, _ = run_emitted(emit_python(out), {"a": a}, {"n": n})
        assert_same_arrays(got, expected)

    def test_opaque_functions_bound(self):
        """A registered function is called by the compiled engine; the
        emitted kernel, like the interpreter without *funcs*, reads the
        callee as an array."""
        nest = parse_nest("""
        do j = 1, 3
          do k = colstr(j), colstr(j+1) - 1
            out(k) = j
          enddo
        enddo
        """)
        colstr = [0, 1, 3, 4, 6]
        result = CompiledNest(
            nest, funcs={"colstr": lambda x: colstr[x]}).run({})
        assert result.arrays["out"][(3,)] == 2
        as_array = Array(0, "colstr",
                         {(x,): v for x, v in enumerate(colstr)})
        got, _ = run_emitted(emit_python(nest), {"colstr": as_array}, {})
        assert got["out"][(3,)] == 2
        assert_same_arrays(got, run_nest(nest, {"colstr": as_array}).arrays)

    def test_negative_step(self):
        nest = parse_nest("do i = 9, 1, -3\n a(i) = i\nenddo")
        got, _ = run_emitted(emit_python(nest), {}, {})
        assert sorted(got["a"].data) == [(3,), (6,), (9,)]

    def test_if_and_relationals(self):
        nest = parse_nest("do i = 1, 6\n if (i % 2 == 0) a(i) = 1\nenddo")
        got, _ = run_emitted(emit_python(nest), {}, {})
        assert set(got["a"].data) == {(2,), (4,), (6,)}

    def test_prelude_helpers(self):
        """``sgn``/``abs`` with extra arguments (built directly: the
        parser takes one) and a symbolic step go through the prelude's
        ``_sgn``/``_fst``/``_ReproError``."""
        loop = parse_nest("do i = -3, 3, s\n a(i) = 0\nenddo")
        i, b_i = Var("i"), Call("b", (Var("i"),))
        value = Add((Call("sgn", (i, b_i)),
                     Call("abs", (Add((i, Const(-1))), b_i))))
        nest = LoopNest(loop.loops,
                        [Assign(ArrayRef("a", (i,)), value)])
        b = Array(0, "b", {(k,): k * k for k in range(-3, 4)})
        got, _ = run_emitted(emit_python(nest), {"b": b}, {"s": 1})
        assert_same_arrays(
            got, run_nest(nest, {"b": b}, symbols={"s": 1}).arrays)
        with pytest.raises(ReproError, match="zero step"):
            run_emitted(emit_python(nest), {"b": b}, {"s": 0})

    @pytest.mark.parametrize("bsize", [2, 3])
    def test_compiled_blocked_matmul(self, matmul_nest, bsize):
        deps = depset((0, 0, "+"))
        out = Transformation.of(Block(3, 1, 3, [bsize] * 3)).apply(
            matmul_nest, deps)
        n = 7
        rng = random.Random(bsize)
        B = random_array_2d(rng, 1, n, "B")
        C = random_array_2d(rng, 1, n, "C")
        expected = run_nest(matmul_nest, {"B": B, "C": C},
                            symbols={"n": n}).arrays
        got, _ = run_emitted(emit_python(out), {"B": B, "C": C}, {"n": n})
        assert_same_arrays(got, expected)

    def test_compiled_is_faster_than_interpreter(self, matmul_nest):
        """The point of the compiler: beat the reference interpreter."""
        import time

        n = 12
        rng = random.Random(5)
        B = random_array_2d(rng, 1, n, "B")
        C = random_array_2d(rng, 1, n, "C")

        start = time.perf_counter()
        run_nest(matmul_nest, {"B": B, "C": C}, symbols={"n": n})
        interp = time.perf_counter() - start

        fn = _kernel(matmul_nest)
        arrays = {"A": defaultdict(int),
                  "B": defaultdict(int, B.data),
                  "C": defaultdict(int, C.data)}
        start = time.perf_counter()
        fn(arrays, {"n": n})
        compiled = time.perf_counter() - start
        assert compiled < interp


class TestNumpyInterop:
    def test_compiled_kernel_on_numpy_arrays(self):
        """The emitted kernel works directly on numpy arrays (tuple
        indexing), using 0-based bounds."""
        import numpy as np

        nest = parse_nest("""
        do i = 0, n-1
          do j = 0, n-1
            c(i, j) = a(i, j) + b(j, i)
          enddo
        enddo
        """)
        n = 8
        rng = np.random.default_rng(0)
        a = rng.integers(0, 50, size=(n, n))
        b = rng.integers(0, 50, size=(n, n))
        c = np.zeros((n, n), dtype=a.dtype)
        _kernel(nest)({"a": a, "b": b, "c": c}, {"n": n})
        assert (c == a + b.T).all()

    def test_transformed_kernel_on_numpy(self):
        import numpy as np

        nest = parse_nest("""
        do i = 0, n-1
          do j = 0, n-1
            do k = 0, n-1
              C(i, j) += A(i, k) * B(k, j)
            enddo
          enddo
        enddo
        """)
        deps = depset((0, 0, "+"))
        out = Transformation.of(Block(3, 1, 3, [4, 4, 4])).apply(nest, deps)
        n = 9
        rng = np.random.default_rng(1)
        A = rng.integers(0, 10, size=(n, n))
        B = rng.integers(0, 10, size=(n, n))
        C = np.zeros((n, n), dtype=A.dtype)
        _kernel(out)({"A": A, "B": B, "C": C}, {"n": n})
        assert (C == A @ B).all()
