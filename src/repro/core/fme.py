"""Symbolic polyhedron scanning for unimodular code generation.

The Unimodular template's loop-bounds mapping ("studied in detail in
[Irigoin 88; Wolf & Lam 91]") is polyhedron scanning: the input bounds
``l_k <= x_k <= u_k`` (affine, steps normalized to 1) form a system
``A x + r >= 0``; substituting ``x = M^-1 y`` gives a system over the new
indices, and eliminating ``y_n, y_{n-1}, ...`` with Fourier–Motzkin
yields, for every ``y_k``, lower bounds ``y_k >= ceil(e / a)`` and upper
bounds ``y_k <= floor(e / a)`` whose ``max``/``min`` become the new loop
bounds — exactly the `max(2, jj-n+1) .. min(n-1, jj-2)` shape of
Figure 1(b).

The rows and the projection step are the dependence analyzer's
(:mod:`repro.deps.analysis.linear_system`).  A :class:`Lifter` turns
each bound into :class:`LinConstraint` rows once: loop indices stay
variables, invariant symbols become ``inv$`` variables and every other
invariant term (``div(n, 2)``, ``n*m``, a call) an ``opq$`` variable, so
``n`` stays symbolic; it maps the surviving rows back to bound
expressions.  The scanner's own policy is the elimination order
(innermost first), a :class:`~repro.util.errors.CodegenError` when the
projection gives up, and the integer floor-tightening of rows over loop
indices only.  Rows whose index coefficients all vanish relate
invariants only; they are implied by the emptiness behaviour of the
generated ``max``/``min`` bounds and are dropped.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from repro.deps.analysis.linear_system import (
    LinConstraint,
    LinearSystem,
    _dedupe,
    _eliminate,
    bound_rows,
)
from repro.expr.linear import affine_form
from repro.expr.nodes import (
    Add,
    Const,
    Expr,
    Var,
    add,
    ceildiv,
    floordiv,
    mul,
    neg,
    split_coeff,
    var,
    vmax,
    vmin,
)
from repro.resilience import guards as _guards
from repro.util.errors import CodegenError
from repro.util.matrices import IntMatrix

INV = "inv$"
OPQ = "opq$"


class Lifter:
    """Lifts affine bound expressions into row coefficients and maps
    rows back, remembering which ``opq$`` variable stands for which
    non-affine invariant term."""

    def __init__(self):
        self._names: Dict[Expr, str] = {}
        self._terms: Dict[str, Expr] = {}

    def lift(self, expr: Expr, names: Sequence[str]
             ) -> Optional[Tuple[Dict[str, int], int]]:
        """``(coeffs, const)`` of *expr* over the index *names*, or None
        when *expr* is not affine in them."""
        form = affine_form(expr, names)
        if form is None:
            return None
        coeffs = dict(form.coeffs)
        const = 0
        rest = form.rest
        for t in rest.terms if isinstance(rest, Add) else (rest,):
            c, term = split_coeff(t)
            if term is None:
                const += c
                continue
            if isinstance(term, Var):
                key = INV + term.name
            else:
                key = self._names.setdefault(term, f"{OPQ}{len(self._names)}")
                self._terms[key] = term
            coeffs[key] = coeffs.get(key, 0) + c
        return coeffs, const

    def expr(self, coeffs: Dict[str, int], const: int) -> Expr:
        """``sum(coeffs[v] * v) + const`` as an expression."""
        terms = []
        for v, c in coeffs.items():
            if v.startswith(OPQ):
                term = self._terms[v]
            else:
                term = var(v[len(INV):] if v.startswith(INV) else v)
            terms.append(mul(Const(c), term))
        return add(*terms, Const(const))


def constraint_from_bound(expr: Expr, names: Sequence[str],
                          own_index: int, is_lower: bool,
                          lifter: Lifter) -> List[LinConstraint]:
    """Rows for ``x_k >= expr`` (lower) or ``x_k <= expr`` (upper).

    A ``max`` lower bound / ``min`` upper bound contributes one row per
    term.
    """

    def lift(term: Expr):
        lifted = lifter.lift(term, names)
        if lifted is None:
            raise CodegenError(
                f"bound {term} is not affine in {list(names)}; "
                "unimodular codegen requires linear bounds")
        return lifted

    return bound_rows(expr, names[own_index], is_lower, lift)


def scan_row(coeffs: Dict[str, int], const: int) -> LinConstraint:
    """The scanner's row normalization.  A row over loop indices only is
    floor-tightened: with ``g`` the gcd of its coefficients,
    ``a.x + c >= 0`` holds at integer ``x`` iff ``(a/g).x + floor(c/g)
    >= 0``.  A row with ``inv$``/``opq$`` terms is kept as built."""
    row = LinConstraint.exact(coeffs, const)
    g = gcd(*row.coeffs.values())
    if g > 1 and not any(v.startswith((INV, OPQ)) for v in row.coeffs):
        return LinConstraint.exact(
            {v: a // g for v, a in row.coeffs.items()}, const // g)
    return row


def transform_constraints(rows: Sequence[LinConstraint],
                          m_inverse: IntMatrix, names: Sequence[str],
                          new_names: Sequence[str]) -> List[LinConstraint]:
    """Rewrite rows over ``x`` (*names*) into rows over ``y = M x``
    (*new_names*) using ``x = M^-1 y`` — index coefficients multiply by
    ``M^-1``; invariant coefficients are unchanged."""
    out = []
    for row in rows:
        coeffs = {v: c for v, c in row.coeffs.items() if v not in names}
        old = [row.coeffs.get(nm, 0) for nm in names]
        for j, nm in enumerate(new_names):
            coeffs[nm] = sum(old[k] * m_inverse[k, j]
                             for k in range(len(names)))
        out.append(scan_row(coeffs, row.const))
    return out


def remove_redundant(rows: List[LinConstraint]) -> List[LinConstraint]:
    """Drop rows implied by the rest of the system.

    Exact over the rationals: a row is redundant iff the system with the
    row replaced by its strict negation (``-(lhs) - 1 >= 0`` over
    integers) is infeasible.  ``inv$``/``opq$`` variables are free
    there, a sound relaxation (it can only miss redundancies, never
    create them).
    """
    if len(rows) > 60:
        return rows
    kept = list(rows)
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept) - 1, -1, -1):
            row = kept[idx]
            system = LinearSystem(kept[:idx] + kept[idx + 1:] + [
                LinConstraint({v: -a for v, a in row.coeffs.items()},
                              -row.const - 1)])
            if not system.is_feasible():
                kept.pop(idx)
                changed = True
    return kept


def _bound_exprs(rows: Sequence[LinConstraint], name: str,
                 lifter: Lifter) -> Tuple[List[Expr], List[Expr]]:
    """Lower/upper bound expressions for index *name* from the rows
    that mention it."""
    lowers, uppers = [], []
    for row in rows:
        a = row.coeffs.get(name, 0)
        if a == 0:
            continue
        inner = lifter.expr({v: c for v, c in row.coeffs.items()
                             if v != name}, row.const)
        if a > 0:
            lowers.append(ceildiv(neg(inner), Const(a)))
        else:
            uppers.append(floordiv(inner, Const(-a)))
    return lowers, uppers


def _empty_nest(n: int) -> List[Tuple[Expr, Expr]]:
    """Bounds of a statically empty nest of depth *n*."""
    return ([(Const(0), Const(-1))] + [(Const(0), Const(0))] * n)[:n]


def scan_bounds(rows: Sequence[LinConstraint], names: Sequence[str],
                lifter: Lifter) -> List[Tuple[Expr, Expr]]:
    """Compute ``(lower, upper)`` bound expressions for every variable.

    *rows* are built by :func:`scan_row`.  *names* lists the output
    index variables outermost first; the bound of variable *k* may
    reference variables ``0..k-1``.  *lifter* maps the ``opq$``
    variables of *rows* back.  Implied rows are removed
    before each level's bound extraction (so Figure 4(b) reads
    ``ii <= jj``, not ``min(jj, n)``).
    """
    n = len(names)
    index = set(names)
    bounds: List[Optional[Tuple[Expr, Expr]]] = [None] * n
    # Index-free input rows: a constant falsehood makes the whole
    # polyhedron empty (emit a statically empty nest); a constant truth
    # is dropped; a symbolic one cannot be attached to any loop bound
    # and is rejected.  (FM-*generated* index-free rows are different —
    # their emptiness is reflected in some variable's max-lower/min-upper
    # pair — and are dropped after each elimination.)
    current = []
    for row in rows:
        if index.intersection(row.coeffs):
            current.append(row)
        elif row.coeffs:
            raise CodegenError(
                f"variable-free symbolic constraint "
                f"{lifter.expr(row.coeffs, row.const)} >= 0 cannot be "
                "expressed as a loop bound")
        elif row.const < 0:
            return _empty_nest(n)
    current = _dedupe(current)
    # So does a polyhedron that is empty over the rationals for every
    # value of the invariants (bounds like j = 5, 3).  Redundancy is
    # meaningless there: every row is implied by the others, and
    # dropping them could leave some index unbounded.
    if not LinearSystem(current).is_feasible():
        return _empty_nest(n)
    for level in range(n - 1, -1, -1):
        current = remove_redundant(current)
        lowers, uppers = _bound_exprs(current, names[level], lifter)
        if not lowers or not uppers:
            raise CodegenError(
                f"variable {names[level]} is unbounded "
                f"{'below' if not lowers else 'above'}; the input nest's "
                "bounds do not define a scannable polyhedron")
        bounds[level] = (vmax(*lowers), vmin(*uppers))
        projected = _eliminate(current, names[level], scan_row)
        if projected is None:
            raise CodegenError(
                f"Fourier-Motzkin blowup projecting out {names[level]}: "
                f"over {_guards.limits().max_fme_constraints} constraints "
                "(REPRO_MAX_FME_CONSTRAINTS); the transformed polyhedron "
                "is too complex")
        current = [row for row in projected
                   if index.intersection(row.coeffs)]
    return bounds  # type: ignore[return-value]
