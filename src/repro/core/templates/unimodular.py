"""The Unimodular kernel template.

``Unimodular(n, M)`` applies an ``n x n`` unimodular matrix (square,
integer, determinant ±1) to the iteration space: the classic framework of
Banerjee and Wolf & Lam covering interchange, reversal, permutation and
skewing, and any composition of them.

Dependence rule (Table 2): ``d' = M x d``, extended to direction values
via interval arithmetic (:func:`repro.deps.rules.unimodular_map`).

Preconditions (Table 3): for all ``1 <= i < j <= n``, ``type(l_j, x_i)``
and ``type(u_j, x_i)`` at most ``linear`` and every step a compile-time
constant.  Non-unit steps are normalized to step 1 first (emitting the
normalization as initialization statements); bounds are then scanned with
Fourier–Motzkin elimination under the change of basis ``y = M x``
(:mod:`repro.core.fme`), and the initialization statements
``x = M^-1 y`` are generated.

Output index naming follows the paper's example (Figure 1(b)): the new
index for row *k* doubles the name of the input index with the largest
absolute coefficient in that row (later index on ties), so skewing ``j``
by ``i`` then interchanging yields loops ``jj`` and ``ii`` with inits
``j = jj - ii`` and ``i = ii``.

Parallel input loops are demoted to ``do`` (a general change of basis
invalidates per-loop parallelism; re-establish it with a subsequent
Parallelize instantiation — the sequence framework makes that cheap).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.fme import (
    Lifter,
    constraint_from_bound,
    scan_bounds,
    scan_row,
    transform_constraints,
)
from repro.core.template import Template, TransformedLoops, fresh_name
from repro.deps.analysis.linear_system import LinConstraint
from repro.deps.rules import unimodular_map
from repro.deps.vector import DepVector
from repro.expr.linear import BoundType, affine_form
from repro.expr.nodes import Const, Expr, add, mul, substitute, var
from repro.ir.loopnest import DO, InitStmt, Loop
from repro.util.errors import CodegenError, PreconditionViolation
from repro.util.matrices import IntMatrix

MatrixLike = Union[IntMatrix, Sequence[Sequence[int]]]


class Unimodular(Template):
    """Instantiation of the Unimodular template."""

    kernel_name = "Unimodular"

    def __init__(self, n: int, matrix: MatrixLike,
                 names: Optional[Sequence[str]] = None):
        """*matrix* must be an ``n x n`` unimodular matrix mapping input
        iteration vectors to output iteration vectors (``y = M x``).
        *names* optionally fixes the output index names."""
        super().__init__(n)
        self.matrix = (matrix if isinstance(matrix, IntMatrix)
                       else IntMatrix(matrix))
        if self.matrix.shape != (n, n):
            raise ValueError(
                f"matrix must be {n}x{n}, got {self.matrix.shape}")
        if not self.matrix.is_unimodular():
            raise ValueError(
                f"matrix is not unimodular (determinant "
                f"{self.matrix.determinant()})")
        self.names = tuple(names) if names is not None else None
        if self.names is not None and len(self.names) != n:
            raise ValueError(f"names must have {n} entries")
        self._inverse = self.matrix.inverse_unimodular()

    def params(self) -> str:
        rows = "; ".join(" ".join(str(v) for v in r)
                         for r in self.matrix.rows())
        return f"n={self.n}, M=[{rows}]"

    def to_spec(self) -> str:
        """CLI step-language rendering (parse_steps round-trips it)."""
        rows = ",".join("[" + ",".join(str(v) for v in r) + "]"
                        for r in self.matrix.rows())
        return f"unimodular([{rows}])"

    # -- dependence vectors ---------------------------------------------------

    def map_dep_vector(self, vec: DepVector) -> List[DepVector]:
        return [unimodular_map(self.matrix, vec)]

    # -- loop bounds ------------------------------------------------------------

    def check_preconditions(self, loops: Sequence[Loop]) -> None:
        self._require_depth(loops)
        bm = self._bounds_matrix(loops)
        for j in range(1, self.n + 1):
            step = bm.step_value(j)
            if step is None:
                raise PreconditionViolation(
                    self.signature(),
                    f"step of loop {loops[j - 1].index} must be a "
                    f"compile-time constant",
                    loop=j, required=BoundType.CONST)
            if step != 1:
                # Step normalization substitutes x = l + s*t into inner
                # bounds, which stays affine only when l and u are plain
                # affine terms (a max/min lower bound cannot appear on
                # the right of an equality).
                names = [lp.index for lp in loops]
                for which, e in (("lower", loops[j - 1].lower),
                                 ("upper", loops[j - 1].upper)):
                    if affine_form(e, names) is None:
                        raise PreconditionViolation(
                            self.signature(),
                            f"{which} bound of non-unit-step loop "
                            f"{loops[j - 1].index} must be a single affine "
                            f"term for step normalization",
                            loop=j, required=BoundType.LINEAR,
                            actual=BoundType.NONLINEAR)
            for i in range(1, j):
                for which, tag in (("LB", "lower"), ("UB", "upper")):
                    t = bm.type_of(which, j, i)
                    if not t.leq(BoundType.LINEAR):
                        raise PreconditionViolation(
                            self.signature(),
                            f"{tag} bound of loop {loops[j - 1].index} must "
                            f"be at most linear in {loops[i - 1].index} "
                            f"(type is {t})",
                            loop=j, var=loops[i - 1].index,
                            required=BoundType.LINEAR, actual=t)

    def map_loops(self, loops: Sequence[Loop],
                  taken: Set[str]) -> TransformedLoops:
        self._require_depth(loops)
        lifter = Lifter()
        norm_names, norm_inits, rows = _normalize(loops, taken, lifter)

        y_names = self._output_names(loops, taken)
        transformed = transform_constraints(rows, self._inverse,
                                            norm_names, y_names)
        bounds = scan_bounds(transformed, y_names, lifter)

        out_loops = tuple(
            Loop(y_names[k], lo, hi, Const(1), DO)
            for k, (lo, hi) in enumerate(bounds))

        # INIT statements: x_hat = M^-1 y, emitted before this template's
        # normalization inits (which consume the x_hat values).
        inv_inits: List[InitStmt] = []
        for k in range(self.n):
            terms = [mul(Const(self._inverse[k, m]), var(y_names[m]))
                     for m in range(self.n) if self._inverse[k, m] != 0]
            expr = add(*terms) if terms else Const(0)
            inv_inits.append(InitStmt(norm_names[k], expr))
        return TransformedLoops(out_loops, tuple(inv_inits + norm_inits))

    def _output_names(self, loops: Sequence[Loop],
                      taken: Set[str]) -> List[str]:
        if self.names is not None:
            for nm in self.names:
                if nm in taken:
                    raise ValueError(f"output index name {nm!r} is in use")
                taken.add(nm)
            return list(self.names)
        out = []
        for k in range(self.n):
            row = self.matrix.row(k)
            best = max(range(self.n), key=lambda m: (abs(row[m]), m))
            out.append(fresh_name(loops[best].index, taken))
        return out


def _normalize(loops: Sequence[Loop], taken: Set[str], lifter: Lifter
               ) -> Tuple[List[str], List[InitStmt], List[LinConstraint]]:
    """Normalize steps to 1 and extract the affine constraint system.

    Returns the normalized index names (one per loop; the original name
    when the step was already 1), the denormalizing INIT statements, and
    the rows over the normalized variables, lifted by *lifter*.  Avoiding
    an explicit trip count keeps the system affine: a loop
    ``x = l, u, s`` becomes ``t >= 0`` together with ``l + s*t`` within
    ``[min(l,u*), max(..)]`` in the direction of travel.
    """
    # First pass: pick every normalized index name up front so every
    # bound is lifted over all of them.
    norm_names: List[str] = []
    for lp in loops:
        step = lp.step
        assert isinstance(step, Const), "preconditions guarantee const steps"
        if step.value == 1:
            norm_names.append(lp.index)
        else:
            norm_names.append(fresh_name(lp.index + "t", taken))

    inits: List[InitStmt] = []
    # Maps original index names to their expression over normalized vars.
    rewrite: Dict[str, Expr] = {}
    rows: List[LinConstraint] = []

    for k, lp in enumerate(loops):
        step_value = lp.step.value  # type: ignore[union-attr]
        lower = substitute(lp.lower, rewrite)
        upper = substitute(lp.upper, rewrite)
        if step_value == 1:
            rows.extend(constraint_from_bound(
                lower, norm_names, k, True, lifter))
            rows.extend(constraint_from_bound(
                upper, norm_names, k, False, lifter))
            continue
        t_name = norm_names[k]
        value = add(lower, mul(Const(step_value), var(t_name)))
        rewrite[lp.index] = value
        inits.append(InitStmt(lp.index, value))
        # t >= 0
        rows.extend(constraint_from_bound(
            Const(0), norm_names, k, True, lifter))
        # End-of-range: the last in-range index value gives, for s > 0,
        # (u - l) - s*t >= 0 and, for s < 0, (l - u) + s*t... both reduce
        # to span - |s|*t >= 0 with span on the travel side.
        if step_value > 0:
            span = add(upper, mul(Const(-1), lower))
        else:
            span = add(lower, mul(Const(-1), upper))
        lifted = lifter.lift(span, norm_names)
        if lifted is None:
            raise CodegenError(
                f"bounds of loop {lp.index} are not affine after step "
                "normalization")
        coeffs, const = lifted
        coeffs[t_name] = coeffs.get(t_name, 0) - abs(step_value)
        rows.append(scan_row(coeffs, const))
    return norm_names, inits, rows
