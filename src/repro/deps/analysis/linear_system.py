"""Exact rational linear systems: the one Fourier–Motzkin core.

The dependence analyzer reduces "can iteration ``x1`` of one reference
and iteration ``x2`` of another touch the same array element (under a
direction constraint)?" to the feasibility of a system of linear
equalities and inequalities over the 2n iteration variables plus any
symbolic nest invariants (treated as existential unknowns — sound, since
a dependence that exists for *some* ``n`` must be assumed).  Feasibility
is decided over the rationals by Fourier–Motzkin (FM) elimination
(conservative for integers; the integer-only refutations come from the
GCD test in :mod:`repro.deps.analysis.tests`), and the same machinery
computes the exact variable bounds that refine directions to distances.

The Unimodular bounds scanner (:mod:`repro.core.fme`) runs on the same
rows and projection step: it lifts the transformed nest's bounds into
:class:`LinConstraint` rows and projects the loop indices out
innermost-first with :func:`_eliminate`.  Each caller keeps its policy —
elimination order, what a give-up means ("feasible" here, a
``CodegenError`` there), the scanner's floor-tightening of index-only
rows — and one cap bounds both: ``guards.limits().max_fme_constraints``.

Rows are normalized to coprime *integer* coefficients on construction
(any positive rational scaling preserves a ``>= 0`` constraint), which
keeps the hot elimination loop in machine-int arithmetic — no
:class:`~fractions.Fraction` division — and makes scalar multiples of
the same hyperplane collapse in the dedup pass.  Variables are
eliminated cheapest-first (fewest positive×negative row combinations),
which defers — and usually avoids — the quadratic blowup a fixed order
runs into on mod/div-heavy subscripts.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.expr.nodes import Expr, Max, Min
from repro.resilience import guards as _guards


class LinConstraint:
    """``sum(coeffs[v] * v) + const >= 0`` (or ``== 0`` for equalities).

    Stored in canonical form: coefficients and constant are coprime
    integers (the input may be ints or Fractions; construction scales
    by the positive LCM of denominators and divides by the GCD).
    """

    __slots__ = ("coeffs", "const", "equality")

    def __init__(self, coeffs: Dict[str, object], const: object,
                 equality: bool = False):
        ints: Dict[str, object] = {}
        scale = 1
        for v, c in coeffs.items():
            if c == 0:
                continue
            if not isinstance(c, int):
                c = Fraction(c)
                den = c.denominator
                if den != 1:
                    scale = scale * den // gcd(scale, den)
            ints[v] = c
        if not isinstance(const, int):
            const = Fraction(const)
            den = const.denominator
            if den != 1:
                scale = scale * den // gcd(scale, den)
        if scale != 1:
            ints = {v: int(c * scale) for v, c in ints.items()}
            const = int(const * scale)
        else:
            ints = {v: int(c) for v, c in ints.items()}
            const = int(const)
        g = abs(const)
        for x in ints.values():
            g = gcd(g, x if x >= 0 else -x)
        if g > 1:
            ints = {v: x // g for v, x in ints.items()}
            const //= g
        self.coeffs: Dict[str, int] = ints
        self.const: int = const
        self.equality = equality

    @classmethod
    def exact(cls, coeffs: Dict[str, int], const: int) -> "LinConstraint":
        """The inequality with these integer coefficients, kept as given
        (no gcd division)."""
        row = cls.__new__(cls)
        row.coeffs = {v: c for v, c in coeffs.items() if c != 0}
        row.const = const
        row.equality = False
        return row

    def __repr__(self):
        terms = " + ".join(f"{c}*{v}" for v, c in sorted(self.coeffs.items()))
        op = "==" if self.equality else ">="
        return f"LinConstraint({terms} + {self.const} {op} 0)"


def bound_rows(bound: Expr, name: str, is_lower: bool,
               lift: Callable) -> List[LinConstraint]:
    """Rows for ``name >= bound`` (*is_lower*) or ``name <= bound``.

    A ``max`` lower bound or a ``min`` upper bound gives one row per
    term.  *lift* maps a term to ``(coeffs, const)``; a term it maps to
    None contributes no row.
    """
    terms = bound.args if isinstance(bound, Max if is_lower else Min) \
        else (bound,)
    sign = -1 if is_lower else 1
    rows = []
    for term in terms:
        lifted = lift(term)
        if lifted is None:
            continue
        coeffs, const = lifted
        coeffs = {v: sign * c for v, c in coeffs.items()}
        coeffs[name] = coeffs.get(name, 0) - sign
        rows.append(LinConstraint(coeffs, sign * const))
    return rows


class LinearSystem:
    """A mutable collection of constraints over named rational variables."""

    def __init__(self, constraints: Sequence[LinConstraint] = ()):
        self.constraints: List[LinConstraint] = list(constraints)

    def copy(self) -> "LinearSystem":
        return LinearSystem(self.constraints)

    # -- building ----------------------------------------------------------

    def add(self, coeffs: Dict[str, Fraction], const, *,
            equality: bool = False) -> None:
        self.constraints.append(LinConstraint(coeffs, const, equality))

    def add_ge(self, coeffs, const) -> None:
        """``sum(coeffs) + const >= 0``."""
        self.add(coeffs, const)

    def add_le(self, coeffs, const) -> None:
        """``sum(coeffs) + const <= 0``."""
        self.add({v: -c for v, c in coeffs.items()}, -Fraction(const))

    def add_eq(self, coeffs, const) -> None:
        self.add(coeffs, const, equality=True)

    # -- solving -----------------------------------------------------------

    def _as_inequalities(self) -> List[LinConstraint]:
        out = []
        for c in self.constraints:
            if c.equality:
                out.append(LinConstraint(c.coeffs, c.const))
                out.append(LinConstraint(
                    {v: -x for v, x in c.coeffs.items()}, -c.const))
            else:
                out.append(c)
        return out

    def is_feasible(self) -> bool:
        """Rational feasibility via Fourier–Motzkin; conservative ``True``
        when the elimination outgrows the cap."""
        return _project(self._as_inequalities()) is not None

    def bounds_of(self, name: str) -> Tuple[Optional[Fraction],
                                            Optional[Fraction]]:
        """(min, max) of variable *name* over the solution set.

        ``None`` means unbounded in that direction (or the system gave
        up).  An infeasible system returns ``(None, None)``; callers
        should check :meth:`is_feasible` first when it matters.
        """
        rows = _project(self._as_inequalities(), keep=name)
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for c in rows or ():
            a = c.coeffs[name]
            bound = Fraction(-c.const, a)
            if a > 0:  # name >= bound
                lo = bound if lo is None else max(lo, bound)
            else:      # name <= bound
                hi = bound if hi is None else min(hi, bound)
        return lo, hi


def _project(ineqs: List[LinConstraint],
             keep: Optional[str] = None) -> Optional[List[LinConstraint]]:
    """Eliminate every variable but *keep*, cheapest first.

    Returns the rows left over *keep*, or None as soon as a
    variable-free row is false (the system is infeasible).  Past the cap
    the projection gives up by dropping every row: the relaxation that
    reads as feasible and unbounded.
    """
    ineqs = _dedupe(ineqs)
    while True:
        live: Set[str] = set()
        rows = []
        for c in ineqs:
            if c.coeffs:
                live.update(c.coeffs)
                rows.append(c)
            elif c.const < 0:
                return None
        live.discard(keep)
        if not live:
            return rows
        ineqs = _eliminate(rows, _cheapest_var(rows, live))
        if ineqs is None:
            return []


def _dedupe(ineqs: List[LinConstraint]) -> List[LinConstraint]:
    """One inequality per coefficient vector: of the rows sharing one,
    the smallest constant implies the others."""
    best: Dict[Tuple, LinConstraint] = {}
    for c in ineqs:
        k = tuple(sorted(c.coeffs.items()))
        old = best.get(k)
        if old is None or c.const < old.const:
            best[k] = c
    return list(best.values())


def _cheapest_var(ineqs: Sequence[LinConstraint],
                  candidates: Set[str]) -> str:
    """The candidate whose elimination creates the fewest combined rows
    (Fourier–Motzkin's classic min ``|pos|*|neg|`` heuristic); ties
    break alphabetically so elimination order — and therefore the
    give-up behavior near the cap — is deterministic."""
    counts: Dict[str, List[int]] = {}
    for c in ineqs:
        for v, a in c.coeffs.items():
            if v not in candidates:
                continue
            pn = counts.setdefault(v, [0, 0])
            pn[0 if a > 0 else 1] += 1
    best = None
    best_cost = None
    for v in sorted(candidates):
        pos, neg = counts.get(v, (0, 0))
        cost = pos * neg - (pos + neg)
        if best_cost is None or cost < best_cost:
            best, best_cost = v, cost
    return best


def _eliminate(ineqs: List[LinConstraint], name: str,
               make: Callable[[Dict[str, int], int], LinConstraint]
               = LinConstraint) -> Optional[List[LinConstraint]]:
    """One FM step: project *name* out of the inequalities *ineqs*.

    None signals a give-up: the step would hold more rows than
    ``guards.limits().max_fme_constraints`` (REPRO_MAX_FME_CONSTRAINTS).
    Combination is by integer cross-multiplication — ``aq*p + ap*q``
    instead of ``p/ap + q/aq`` — so no rational arithmetic happens
    here; *make* builds each combined row (by default renormalized to
    coprime integers).
    """
    kept, pos, neg = [], [], []
    for c in ineqs:
        a = c.coeffs.get(name, 0)
        if a == 0:
            kept.append(c)
        elif a > 0:
            pos.append(c)
        else:
            neg.append(c)
    if len(pos) * len(neg) + len(kept) > _guards.limits().max_fme_constraints:
        return None
    for p in pos:
        ap = p.coeffs[name]
        for q in neg:
            aq = -q.coeffs[name]
            coeffs: Dict[str, int] = {}
            for v, c in p.coeffs.items():
                if v != name:
                    coeffs[v] = aq * c
            for v, c in q.coeffs.items():
                if v != name:
                    coeffs[v] = coeffs.get(v, 0) + ap * c
            kept.append(make(coeffs, aq * p.const + ap * q.const))
    return _dedupe(kept)
