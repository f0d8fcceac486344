"""Direct tests for the symbolic polyhedron scanner (rows lifted onto the
shared Fourier–Motzkin core), including property tests scanning random
integer polyhedra with constant and with symbolic bounds."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fme import (
    Lifter,
    constraint_from_bound,
    remove_redundant,
    scan_bounds,
    scan_row,
    transform_constraints,
)
from repro.deps.analysis.linear_system import LinConstraint
from repro.expr.nodes import Const, evaluate, var, vmax, vmin
from repro.expr.parser import parse_expr
from repro.util.errors import CodegenError
from repro.util.matrices import IntMatrix


class TestConstraint:
    def test_normalized_divides_by_gcd(self):
        c = scan_row({"x": 2, "y": 4}, 6)
        assert c.coeffs == {"x": 1, "y": 2}
        assert c.const == 3

    def test_normalized_floor_tightens(self):
        # 2x + 3 >= 0  <=>  x >= -3/2  <=>  x >= -1  <=>  x + 1 >= 0 ... as
        # floor(3/2) = 1.
        c = scan_row({"x": 2}, 3)
        assert c.coeffs == {"x": 1} and c.const == 1

    def test_symbolic_rest_not_divided(self):
        c = scan_row({"x": 2, "y": 4, "inv$n": 1}, 0)
        assert c.coeffs == {"x": 2, "y": 4, "inv$n": 1}
        # Not even when the gcd divides the invariant part too.
        c = scan_row({"x": 2, "inv$n": 2}, 4)
        assert c.coeffs == {"x": 2, "inv$n": 2} and c.const == 4

    def test_trivial(self):
        # Index-free input rows: a true constant is dropped, a false one
        # empties the nest, a symbolic one cannot become a loop bound.
        box = [scan_row({"x": 1}, 0), scan_row({"x": -1}, 3)]
        assert (scan_bounds(box + [LinConstraint({}, 1)], ["x"], Lifter())
                == scan_bounds(box, ["x"], Lifter()))
        (lo, hi), = scan_bounds(box + [LinConstraint({}, -1)], ["x"],
                                 Lifter())
        assert evaluate(lo, {}) > evaluate(hi, {})
        with pytest.raises(CodegenError, match="variable-free"):
            scan_bounds(box + [LinConstraint({"inv$n": 1}, 0)], ["x"],
                        Lifter())


class TestConstraintFromBound:
    def test_lower(self):
        [c] = constraint_from_bound(parse_expr("2*i + 1"), ["i", "j"], 1,
                                    True, Lifter())
        # j - (2i + 1) >= 0
        assert c.coeffs == {"i": -2, "j": 1}
        assert c.const == -1

    def test_upper(self):
        lifter = Lifter()
        [c] = constraint_from_bound(parse_expr("n - 1"), ["i"], 0,
                                    False, lifter)
        assert c.coeffs == {"i": -1, "inv$n": 1}
        assert str(lifter.expr({"inv$n": 1}, c.const)) == "n - 1"

    def test_max_lower_splits(self):
        cs = constraint_from_bound(vmax(var("i"), Const(2)), ["i", "j"], 1,
                                   True, Lifter())
        assert len(cs) == 2

    def test_min_upper_splits(self):
        cs = constraint_from_bound(vmin(var("n"), Const(100)), ["i"], 0,
                                   False, Lifter())
        assert len(cs) == 2

    def test_nonaffine_rejected(self):
        with pytest.raises(CodegenError):
            constraint_from_bound(parse_expr("sqrt(i)"), ["i", "j"], 1,
                                  True, Lifter())


class TestTransformConstraints:
    def test_change_of_basis(self):
        # x0 >= 0 under y = [[1,1],[0,1]] x: x = [[1,-1],[0,1]] y, so the
        # constraint becomes y0 - y1 >= 0.
        m = IntMatrix([[1, 1], [0, 1]])
        out = transform_constraints([scan_row({"x0": 1}, 0)],
                                    m.inverse_unimodular(), ["x0", "x1"],
                                    ["y0", "y1"])
        assert out[0].coeffs == {"y0": 1, "y1": -1}


class TestRemoveRedundant:
    def test_implied_constraint_dropped(self):
        # x <= y, y <= n  =>  x <= n is redundant.
        cs = [
            scan_row({"x": -1, "y": 1}, 0),        # y - x >= 0
            scan_row({"y": -1, "inv$n": 1}, 0),    # n - y >= 0
            scan_row({"x": -1, "inv$n": 1}, 0),    # n - x >= 0 (implied)
        ]
        kept = remove_redundant(cs)
        assert len(kept) == 2
        assert all(c.coeffs != {"x": -1, "inv$n": 1} for c in kept)

    def test_nothing_dropped_when_independent(self):
        cs = [scan_row({"x": 1}, 0), scan_row({"y": 1}, 0)]
        assert len(remove_redundant(cs)) == 2

    def test_opaque_rests_are_safe(self):
        # Different opaque invariant parts cannot imply each other.
        lifter = Lifter()
        cs = [row for text in ("f(n)", "g(n)")
              for row in constraint_from_bound(parse_expr(text), ["x"], 0,
                                               False, lifter)]
        assert len(remove_redundant(cs)) == 2


class TestScanBounds:
    def test_fig1_bounds(self):
        # The stencil square [2, n-1]^2 under y = [[1,1],[1,0]] x.
        names = ["i", "j"]
        lifter = Lifter()
        cs = []
        for k in range(2):
            cs += constraint_from_bound(Const(2), names, k, True, lifter)
            cs += constraint_from_bound(parse_expr("n - 1"), names, k,
                                        False, lifter)
        m = IntMatrix([[1, 1], [1, 0]])
        out = transform_constraints(cs, m.inverse_unimodular(), names,
                                    ["jj", "ii"])
        bounds = scan_bounds(out, ["jj", "ii"], lifter)
        assert str(bounds[0][0]) == "4"
        assert str(bounds[0][1]) == "2*n - 2"
        assert str(bounds[1][0]) == "max(jj + 1 - n, 2)"
        assert str(bounds[1][1]) == "min(jj - 2, n - 1)"

    def test_unbounded_raises(self):
        with pytest.raises(CodegenError):
            scan_bounds([scan_row({"x": 1}, 0)], ["x"], Lifter())  # no upper

    def test_empty_polyhedron_yields_empty_loop(self):
        # x >= 5, x <= 3: scannable, just empty at run time.
        cs = [scan_row({"x": 1}, -5), scan_row({"x": -1}, 3)]
        (lo, hi), = scan_bounds(cs, ["x"], Lifter())
        assert evaluate(lo, {}) > evaluate(hi, {})


def _brute_points(rows, names, box, values):
    """Integer points of the box satisfying every row, where *values*
    gives each non-index row variable (``inv$n``, ``opq$k``)."""
    pts = []
    for p in itertools.product(*[range(lo, hi + 1) for lo, hi in box]):
        env = dict(zip(names, p), **values)
        if all(sum(a * env[v] for v, a in row.coeffs.items()) + row.const
               >= 0 for row in rows):
            pts.append(p)
    return pts


def _scan_points(bounds, names, symbols=None):
    """Enumerate the generated loop nest's points."""
    out = []

    def rec(level, env):
        if level == len(names):
            out.append(tuple(env[n] for n in names))
            return
        lo, hi = bounds[level]
        lov = evaluate(lo, env)
        hiv = evaluate(hi, env)
        for v in range(lov, hiv + 1):
            env[names[level]] = v
            rec(level + 1, env)
        env.pop(names[level], None)

    rec(0, dict(symbols or {}))
    return out


def _random_rows(rng, names, extra=()):
    """A random bounding box plus a few cutting planes; *extra* names
    row variables that get random coefficients in the cutting planes
    and in the box's upper bounds."""
    rows = []
    box = []
    for nm in names:
        lo = rng.randint(-3, 2)
        hi = lo + rng.randint(0, 5)
        box.append((lo, hi))
        rows.append(scan_row({nm: 1}, -lo))
        upper = {nm: -1}
        for v in extra:
            upper[v] = rng.randint(0, 1)
        rows.append(scan_row(upper, hi))
    for _ in range(rng.randint(0, 3)):
        coeffs = {nm: rng.randint(-2, 2) for nm in names}
        for v in extra:
            coeffs[v] = rng.randint(-2, 2)
        rows.append(scan_row(coeffs, rng.randint(-3, 6)))
    return rows, box


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_scan_matches_polyhedron_enumeration(seed):
    """Property: scanning a random bounded 2-D/3-D integer polyhedron
    visits exactly its integer points, in lexicographic order."""
    rng = random.Random(seed)
    names = [f"v{k}" for k in range(rng.choice([2, 3]))]
    rows, box = _random_rows(rng, names)
    expected = sorted(_brute_points(rows, names, box, {}))
    bounds = scan_bounds(rows, names, Lifter())
    assert _scan_points(bounds, names) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_scan_matches_symbolic_polyhedron_enumeration(seed):
    """Property: with the invariant ``n`` and the opaque ``div(n, 2)`` in
    the rows, the scanned nest — lifted rows mapped back to bound
    expressions — visits exactly the polyhedron's integer points at
    every concrete ``n``."""
    rng = random.Random(seed)
    names = [f"v{k}" for k in range(rng.choice([2, 3]))]
    lifter = Lifter()
    coeffs, _ = lifter.lift(parse_expr("n + div(n, 2)"), names)
    inv, opq = sorted(coeffs)
    rows, box = _random_rows(rng, names, extra=(inv, opq))
    try:
        bounds = scan_bounds(rows, names, lifter)
    except CodegenError as exc:
        # A cutting plane over n alone cannot become a loop bound.
        assert "variable-free symbolic constraint" in str(exc)
        return
    for n in range(0, 5):
        values = {inv: n, opq: n // 2}
        wide = [(lo, hi + n + n // 2) for lo, hi in box]
        expected = sorted(_brute_points(rows, names, wide, values))
        assert _scan_points(bounds, names, {"n": n}) == expected
