"""The sequence representation of iteration-reordering transformations.

Section 2: an iteration-reordering transformation is ``T = <t_1, ..., t_k>``
where each ``t_i`` instantiates a kernel template.  Composition is
sequence concatenation (``T . U = <t_1..t_k, u_1..u_l>``), optionally
reduced in length by fusing adjacent instantiations that compose into a
single instantiation — e.g. two adjacent Unimodular steps fuse by
multiplying their matrices.

The class provides the paper's two uniform operations:

* :meth:`Transformation.legality` — the single legality test for any
  sequence: (a) map the dependence set through all steps and look for a
  possible lexicographically negative tuple (only the *final* set
  matters — intermediate stages may be individually illegal); (b) check
  every step's loop-bounds preconditions against the loops it receives.
* :meth:`Transformation.apply` — uniform code generation: fold the loop
  headers through every step's bounds mapping and emit initialization
  statements in the order ``INIT_k, ..., INIT_1``.

Transformations are independent of loop nests: building, composing and
testing them never mutates a nest (Section 5).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.codegen import assemble_nest, collect_taken
from repro.core.template import Template
from repro.core.templates.parallelize import Parallelize
from repro.core.templates.reverse_permute import ReversePermute
from repro.core.templates.unimodular import Unimodular
from repro.deps.vector import DepSet
from repro.ir.loopnest import Loop, LoopNest
from repro.obs import trace as _obs
from repro.util.errors import (
    CodegenError,
    IllegalTransformationError,
    PreconditionViolation,
)


class LegalityReport:
    """Outcome of the unified legality test, with an explanation."""

    __slots__ = ("legal", "reason", "failed_step", "final_deps", "violation")

    def __init__(self, legal: bool, reason: str = "",
                 failed_step: Optional[int] = None,
                 final_deps: Optional[DepSet] = None,
                 violation: Optional[PreconditionViolation] = None):
        self.legal = legal
        self.reason = reason
        self.failed_step = failed_step
        self.final_deps = final_deps
        self.violation = violation

    def __bool__(self):
        return self.legal

    def __repr__(self):
        if self.legal:
            return "LegalityReport(legal)"
        return f"LegalityReport(illegal: {self.reason})"


class Transformation:
    """An immutable sequence of kernel template instantiations."""

    __slots__ = ("steps", "_n")

    def __init__(self, steps: Sequence[Template], n: Optional[int] = None):
        """*steps* may be empty only when *n* (the nest size) is given."""
        steps = tuple(steps)
        if not steps and n is None:
            raise ValueError("an empty transformation needs an explicit n")
        for prev, nxt in zip(steps, steps[1:]):
            if prev.output_depth != nxt.n:
                raise ValueError(
                    f"cannot chain {prev.signature()} (outputs "
                    f"{prev.output_depth} loops) with {nxt.signature()} "
                    f"(expects {nxt.n})")
        if steps and n is not None and steps[0].n != n:
            raise ValueError(
                f"first step expects {steps[0].n} loops, not n={n}")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "_n", n if n is not None else steps[0].n)

    def __setattr__(self, name, value):
        raise AttributeError("Transformation is immutable")

    # The guarded __setattr__ breaks pickle's default slot-state
    # restoration (sequences cross process boundaries in parallel search).
    def __getstate__(self):
        return (self.steps, self._n)

    def __setstate__(self, state):
        object.__setattr__(self, "steps", state[0])
        object.__setattr__(self, "_n", state[1])

    # -- construction -----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Transformation":
        return Transformation((), n=n)

    @staticmethod
    def of(*steps: Template) -> "Transformation":
        return Transformation(steps)

    @staticmethod
    def from_spec(spec: str, n: int,
                  reduce: bool = True) -> "Transformation":
        """Rebuild a transformation from its :meth:`to_spec` rendering
        for an *n*-deep nest — the inverse wire form used by the CLI,
        the parallel-search workers and the transformation service.
        ``reduce=False`` skips the peephole reduction and keeps the
        spelled steps verbatim."""
        # Deferred: repro.core.spec imports this module.
        from repro.core.spec import parse_steps
        return parse_steps(spec, n, reduce=reduce)

    def then(self, other: Union[Template, "Transformation"],
             reduce: bool = True) -> "Transformation":
        """Compose: apply *self* first, then *other* (sequence
        concatenation, Section 2 item 2), peephole-reducing by default."""
        other_steps = (other.steps if isinstance(other, Transformation)
                       else (other,))
        combined = Transformation(self.steps + tuple(other_steps),
                                  n=self._n)
        return combined.reduced() if reduce else combined

    def reduced(self) -> "Transformation":
        """Peephole reduction: drop identity steps and fuse adjacent
        instantiations of the same fusable template (Section 2 item 2:
        "the concatenated sequence can be reduced in length")."""
        out: List[Template] = []
        for step in self.steps:
            if _is_identity(step):
                continue
            if out:
                fused = _fuse(out[-1], step)
                if fused is not None:
                    out.pop()
                    if not _is_identity(fused):
                        out.append(fused)
                    continue
            out.append(step)
        return Transformation(out, n=self._n)

    # -- structure ------------------------------------------------------------

    @property
    def input_depth(self) -> int:
        return self._n

    @property
    def output_depth(self) -> int:
        return self.steps[-1].output_depth if self.steps else self._n

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def signature(self) -> str:
        if not self.steps:
            return f"<identity(n={self._n})>"
        return "<" + ", ".join(s.signature() for s in self.steps) + ">"

    def to_spec(self) -> str:
        """Serialize to the CLI step mini-language.

        ``repro.core.spec.parse_steps(T.to_spec(), T.input_depth)``
        rebuilds an equivalent transformation (modulo peephole
        reduction), so sequences can be saved, replayed and shipped as
        plain strings.
        """
        return "; ".join(step.to_spec() for step in self.steps)

    def __repr__(self):
        return self.signature()

    # -- dependence vectors ------------------------------------------------------

    def map_dep_set(self, deps: DepSet,
                    nest: Optional[LoopNest] = None) -> DepSet:
        """``T(D)``: fold every step's Table 2 rule over the set.

        When *nest* is given, each context-sensitive step (Block,
        Interleave) receives its :meth:`~Template.dep_context` for the
        loops it would see, so anchored decompositions widen soundly
        (DESIGN.md, soundness tightening 4); without a nest the fold is
        the paper's loop-independent — possibly under-approximate —
        mapping.
        """
        current = deps
        for step, ctx in zip(self.steps, self._dep_contexts(nest)):
            current = step.map_dep_set(current, ctx)
        return current

    def dep_set_trace(self, deps: DepSet,
                      nest: Optional[LoopNest] = None) -> List[DepSet]:
        """The dependence set after each stage, ``[D_0, D_1, ..., D_k]``
        (used to regenerate the paper's Figure 7 table)."""
        trace = [deps]
        for step, ctx in zip(self.steps, self._dep_contexts(nest)):
            trace.append(step.map_dep_set(trace[-1], ctx))
        return trace

    def _dep_contexts(self, nest: Optional[LoopNest]) -> List:
        """Per-step dependence-mapping contexts (input loops folded
        through the sequence); all None when no nest is given or no step
        is context-sensitive."""
        if nest is None or not any(s.dep_context_sensitive
                                   for s in self.steps):
            return [None] * len(self.steps)
        loops: Optional[Tuple[Loop, ...]] = nest.loops
        taken = collect_taken(nest)
        ctxs: List = []
        for step in self.steps:
            ctx = None
            if loops is not None and step.dep_context_sensitive:
                ctx = step.dep_context(loops)
            ctxs.append(ctx)
            if loops is not None:
                try:
                    step.check_preconditions(loops)
                    loops, _ = step.map_loops(loops, taken)
                except (PreconditionViolation, CodegenError):
                    # The bounds half of legality will reject this
                    # sequence; later steps fall back to the
                    # context-free mapping.
                    loops = None
        return ctxs

    # -- the unified legality test (Section 2, item 3) -----------------------------

    def legality(self, nest: LoopNest, deps: DepSet) -> LegalityReport:
        """Run both halves of the legality test; never mutates *nest*."""
        if nest.depth != self._n:
            return LegalityReport(
                False, f"nest has {nest.depth} loops, transformation "
                       f"expects {self._n}")
        # (a) dependence vector test: only the final set matters.
        with _obs.span("legality.map_deps", steps=len(self.steps)):
            final = self.map_dep_set(deps, nest=nest)
        if final.can_be_lex_negative():
            bad = [str(v) for v in final if v.can_be_lex_negative()]
            return LegalityReport(
                False,
                "transformed dependence set admits a lexicographically "
                f"negative tuple: {', '.join(bad)}",
                final_deps=final)
        # (b) loop bounds test: every step's preconditions must hold on
        # the loops it receives.
        with _obs.span("legality.bounds", steps=len(self.steps)):
            loops: Tuple[Loop, ...] = nest.loops
            taken = collect_taken(nest)
            for idx, step in enumerate(self.steps):
                try:
                    step.check_preconditions(loops)
                    loops, _ = step.map_loops(loops, taken)
                except PreconditionViolation as exc:
                    return LegalityReport(
                        False, str(exc), failed_step=idx, final_deps=final,
                        violation=exc)
                except CodegenError as exc:
                    # A mapping the preconditions admit but codegen cannot
                    # realize (e.g. Fourier-Motzkin blowup) is still a
                    # rejection, not a crash.
                    return LegalityReport(
                        False, f"{step.signature()}: {exc}", failed_step=idx,
                        final_deps=final)
        return LegalityReport(True, final_deps=final)

    def is_legal(self, nest: LoopNest, deps: DepSet) -> bool:
        """Boolean form of :meth:`legality`."""
        return self.legality(nest, deps).legal

    # -- code generation --------------------------------------------------------------

    def apply(self, nest: LoopNest, deps: Optional[DepSet] = None,
              check: bool = True) -> LoopNest:
        """Generate the transformed loop nest.

        With ``check=True`` (default) a *deps* set must be supplied and
        the unified legality test runs first, raising
        :class:`IllegalTransformationError` on failure.  ``check=False``
        skips the dependence half (callers doing their own analysis).
        """
        if check:
            if deps is None:
                raise ValueError("apply(check=True) requires a dependence set")
            report = self.legality(nest, deps)
            if not report.legal:
                raise IllegalTransformationError(
                    f"{self.signature()} is illegal for this nest: "
                    f"{report.reason}")
        loops = nest.loops
        taken = collect_taken(nest)
        per_step_inits = []
        for step in self.steps:
            if not check:
                step.check_preconditions(loops)
            loops, inits = step.map_loops(loops, taken)
            per_step_inits.append(inits)
        return assemble_nest(nest, loops, per_step_inits)

    def loop_trace(self, nest: LoopNest) -> List[Tuple[Loop, ...]]:
        """Loop headers after each stage (used for Figure 7)."""
        loops = nest.loops
        taken = collect_taken(nest)
        trace = [loops]
        for step in self.steps:
            step.check_preconditions(loops)
            loops, _ = step.map_loops(loops, taken)
            trace.append(loops)
        return trace


def _is_identity(step: Template) -> bool:
    if isinstance(step, ReversePermute):
        return (not any(step.rev) and
                step.perm == tuple(range(1, step.n + 1)))
    if isinstance(step, Parallelize):
        return not any(step.parflag)
    if isinstance(step, Unimodular):
        return all(step.matrix[i, j] == (1 if i == j else 0)
                   for i in range(step.n) for j in range(step.n))
    return False


def _rp_matrix(step: ReversePermute):
    """The unimodular matrix equivalent of a ReversePermute step."""
    from repro.util.matrices import IntMatrix

    n = step.n
    rows = [[0] * n for _ in range(n)]
    for k in range(n):
        rows[step.perm[k] - 1][k] = -1 if step.rev[k] else 1
    return IntMatrix(rows)


def _fuse(a: Template, b: Template) -> Optional[Template]:
    """Compose two adjacent instantiations into one when possible
    (Section 2: "whenever it is possible to do so")."""
    if isinstance(a, Unimodular) and isinstance(b, Unimodular):
        # y = Mb (Ma x)  =>  combined matrix Mb @ Ma.
        return Unimodular(a.n, b.matrix @ a.matrix, names=b.names)
    if isinstance(a, ReversePermute) and isinstance(b, ReversePermute):
        n = a.n
        perm = [b.perm[a.perm[k] - 1] for k in range(n)]
        rev = [a.rev[k] != b.rev[a.perm[k] - 1] for k in range(n)]
        return ReversePermute(n, rev, perm)
    # A ReversePermute adjacent to a Unimodular folds into the matrix
    # (this is what makes "skew then interchange" one fused step, as in
    # Figure 1, even when the interchange was written the cheap way).
    if isinstance(a, Unimodular) and isinstance(b, ReversePermute):
        return Unimodular(a.n, _rp_matrix(b) @ a.matrix)
    if isinstance(a, ReversePermute) and isinstance(b, Unimodular):
        return Unimodular(a.n, b.matrix @ _rp_matrix(a), names=b.names)
    if isinstance(a, Parallelize) and isinstance(b, Parallelize):
        return Parallelize(a.n, [x or y
                                 for x, y in zip(a.parflag, b.parflag)])
    return None
