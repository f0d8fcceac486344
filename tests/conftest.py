"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, Tuple

import pytest

from repro.ir import parse_nest
from repro.runtime import Array


@pytest.fixture
def stencil_nest():
    """Figure 1(a): the 5-point Jacobi-style stencil."""
    return parse_nest("""
    do i = 2, n-1
      do j = 2, n-1
        a(i, j) = (a(i, j) + a(i-1, j) + a(i, j-1) + a(i+1, j) + a(i, j+1)) / 5
      enddo
    enddo
    """)


@pytest.fixture
def matmul_nest():
    """Figure 6: the matrix-multiply input nest."""
    return parse_nest("""
    do i = 1, n
      do j = 1, n
        do k = 1, n
          A(i, j) += B(i, k) * C(k, j)
        enddo
      enddo
    enddo
    """)


@pytest.fixture
def triangular_nest():
    """Figure 4(a): the doubly-nested triangular loop."""
    return parse_nest("""
    do i = 1, n
      do j = i, n
        a(i, j) = i + j
      enddo
    enddo
    """)


@pytest.fixture
def fig2_nest():
    """Figure 2's loop nest with D = {(1,-1), (+,0)}."""
    return parse_nest("""
    do i = 2, n-1
      do j = 2, n-1
        a(i, j) = b(j)
        if (c(i, j) > 0) b(j) = a(i-1, j+1)
      enddo
    enddo
    """)


def random_array_2d(rng: random.Random, lo: int, hi: int, name: str = "",
                    limit: int = 100) -> Array:
    """A dense random 2-D array over [lo, hi] x [lo, hi]."""
    arr = Array(0, name)
    for i in range(lo, hi + 1):
        for j in range(lo, hi + 1):
            arr[(i, j)] = rng.randrange(limit)
    return arr


def random_array_1d(rng: random.Random, lo: int, hi: int, name: str = "",
                    limit: int = 100) -> Array:
    arr = Array(0, name)
    for i in range(lo, hi + 1):
        arr[(i,)] = rng.randrange(limit)
    return arr


def run_emitted(source: str, arrays: Dict[str, Array],
                symbols: Dict[str, int],
                func_name: str = "kernel") -> Tuple[Dict[str, Array], int]:
    """Execute :func:`repro.ir.emit.emit_python` output on copies of
    *arrays* (default-0 inputs); return the final arrays, as
    :class:`Array` for comparison with an engine, and the body count.
    Arrays the kernel binds but the caller did not supply start empty."""
    namespace: Dict[str, object] = {}
    exec(compile(source, "<emitted>", "exec"), namespace)
    state: Dict[str, defaultdict] = defaultdict(lambda: defaultdict(int))
    for name, arr in arrays.items():
        state[name] = defaultdict(int, arr.data)
    count = namespace[func_name](state, symbols)
    return {name: Array(0, name, data) for name, data in state.items()}, count


def assert_same_arrays(got: Dict[str, Array],
                       expected: Dict[str, Array]) -> None:
    """Element-wise equality of two name -> Array maps (a name missing on
    one side is an all-default array)."""
    for name in sorted(set(got) | set(expected)):
        assert got.get(name, Array()) == expected.get(name, Array()), name
