"""Symbolic integer expressions for loop bounds and subscripts.

The framework manipulates loop bound expressions symbolically: bounds may
mention integer constants, index variables of enclosing loops, loop-nest
invariants (``n``), ``max``/``min`` of several terms, exact floor/ceiling
division, ``mod``, ``abs``/``sgn``, and opaque calls such as ``colstr(j)``
(Figure 4(c) of the paper) or ``sqrt(i)`` (Figure 5).

Expressions are immutable and hash-consed *structurally* (equal structure
compares and hashes equal).  All construction goes through the smart
constructors at the bottom of this module (:func:`add`, :func:`mul`,
:func:`vmin`, ...) which normalize aggressively:

* sums are flattened, constants folded, like terms collected;
* products are flattened, constants folded, and distributed over sums
  (bounded, to keep normal forms small);
* ``min``/``max`` are flattened, deduplicated, and constant arguments
  folded; arguments whose difference is a known constant are pruned;
* ``div``/``mod`` simplify for constant operands and unit divisors.

The normal form gives the linear-form extraction in
:mod:`repro.expr.linear` a trivially canonical input.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.util.intmath import ceil_div, floor_div, sign

# Maximum number of terms we are willing to create when distributing a
# product over sums.  Past this, the product is kept factored (still a
# valid expression, merely less canonical).
_DISTRIBUTE_LIMIT = 64


class Expr:
    """Base class of all expression nodes.  Immutable."""

    __slots__ = ("_hash", "_free")

    # Subclasses fill in _key() returning a hashable structural identity.

    def _key(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def __eq__(self, other):
        return self is other or (
            type(self) is type(other) and self._key() == other._key())

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((type(self).__name__, self._key()))
            object.__setattr__(self, "_hash", h)
        return h

    def __setattr__(self, name, value):
        # Allow only the lazily-cached private fields to be set.
        if name in ("_hash", "_free"):
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("expressions are immutable")

    # The guarded __setattr__ breaks pickle's default slot-state
    # restoration, so spell the state protocol out.  ``_hash`` caches
    # ``hash(str)`` values, which are salted per process — dropping it
    # keeps a pickled expression from carrying a foreign process's hash.
    def __getstate__(self):
        state = {}
        for klass in type(self).__mro__:
            for name in getattr(klass, "__slots__", ()):
                if name != "_hash" and hasattr(self, name):
                    state[name] = getattr(self, name)
        return state

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)

    # Operator sugar so tests and examples read naturally -----------------

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Expr({to_str(self)})"

    def __str__(self):
        return to_str(self)


def _coerce(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Const(value)
    raise TypeError(f"cannot use {value!r} as an expression")


class Const(Expr):
    """An integer literal."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"Const requires an int, got {value!r}")
        object.__setattr__(self, "value", value)

    def _key(self):
        return self.value


class Var(Expr):
    """A named integer variable (loop index or loop-nest invariant)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise TypeError("Var requires a non-empty name")
        object.__setattr__(self, "name", name)

    def _key(self):
        return self.name


class Add(Expr):
    """A flattened n-ary sum.  Use :func:`add` to construct."""

    __slots__ = ("terms",)

    def __init__(self, terms: Tuple[Expr, ...]):
        object.__setattr__(self, "terms", terms)

    def _key(self):
        return self.terms


class Mul(Expr):
    """A flattened n-ary product.  Use :func:`mul` to construct."""

    __slots__ = ("factors",)

    def __init__(self, factors: Tuple[Expr, ...]):
        object.__setattr__(self, "factors", factors)

    def _key(self):
        return self.factors


class FloorDiv(Expr):
    """``floor(num / den)``; use :func:`floordiv`."""

    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def _key(self):
        return (self.num, self.den)


class CeilDiv(Expr):
    """``ceil(num / den)``; use :func:`ceildiv`."""

    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def _key(self):
        return (self.num, self.den)


class Mod(Expr):
    """Floored modulus ``a - b*floor(a/b)``; use :func:`mod`."""

    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def _key(self):
        return (self.num, self.den)


class Min(Expr):
    """n-ary minimum; use :func:`vmin`."""

    __slots__ = ("args",)

    def __init__(self, args: Tuple[Expr, ...]):
        object.__setattr__(self, "args", args)

    def _key(self):
        return self.args


class Max(Expr):
    """n-ary maximum; use :func:`vmax`."""

    __slots__ = ("args",)

    def __init__(self, args: Tuple[Expr, ...]):
        object.__setattr__(self, "args", args)

    def _key(self):
        return self.args


class Call(Expr):
    """An opaque function call such as ``colstr(j)`` or ``sqrt(i)``.

    The framework treats calls as nonlinear black boxes.  A few pure
    functions (``abs``, ``sgn``) fold when all arguments are constant.
    """

    __slots__ = ("func", "args")

    def __init__(self, func: str, args: Tuple[Expr, ...]):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", args)

    def _key(self):
        return (self.func, self.args)


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------

ZERO = Const(0)
ONE = Const(1)


def const(value: int) -> Const:
    """Integer literal expression."""
    return Const(value)


def var(name: str) -> Var:
    """Named variable expression."""
    return Var(name)


def split_coeff(e: Expr) -> Tuple[int, Optional[Expr]]:
    """Split *e* into (integer coefficient, residual factor or None)."""
    if isinstance(e, Const):
        return e.value, None
    if isinstance(e, Mul) and isinstance(e.factors[0], Const):
        c = e.factors[0].value
        rest = e.factors[1:]
        if len(rest) == 1:
            return c, rest[0]
        return c, Mul(rest)
    return 1, e


def _sort_key(e: Expr):
    return (type(e).__name__, to_str(e))


def add(*terms) -> Expr:
    """Normalized sum of the given expressions/ints."""
    flat = []
    stack = [_coerce(t) for t in reversed(terms)]
    while stack:
        t = stack.pop()
        if isinstance(t, Add):
            stack.extend(reversed(t.terms))
        else:
            flat.append(t)
    constant = 0
    buckets: Dict[Expr, int] = {}
    order = []
    for t in flat:
        c, rest = split_coeff(t)
        if rest is None:
            constant += c
            continue
        if rest not in buckets:
            buckets[rest] = 0
            order.append(rest)
        buckets[rest] += c
    result_terms = []
    for rest in sorted(order, key=_sort_key):
        c = buckets[rest]
        if c == 0:
            continue
        result_terms.append(rest if c == 1 else _raw_mul(c, rest))
    if constant != 0:
        result_terms.append(Const(constant))
    if not result_terms:
        return ZERO
    if len(result_terms) == 1:
        return result_terms[0]
    return Add(tuple(result_terms))


def _raw_mul(c: int, rest: Expr) -> Expr:
    """c * rest with c a plain non-zero, non-one integer, rest non-Add."""
    if isinstance(rest, Mul):
        return Mul((Const(c),) + rest.factors)
    return Mul((Const(c), rest))


def sub(a, b) -> Expr:
    """``a - b``."""
    return add(_coerce(a), neg(_coerce(b)))


def neg(a) -> Expr:
    """``-a``."""
    return mul(Const(-1), _coerce(a))


def mul(*factors) -> Expr:
    """Normalized product of the given expressions/ints."""
    flat = []
    stack = [_coerce(f) for f in reversed(factors)]
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(reversed(f.factors))
        else:
            flat.append(f)
    constant = 1
    rest = []
    for f in flat:
        if isinstance(f, Const):
            constant *= f.value
        else:
            rest.append(f)
    if constant == 0:
        return ZERO
    if not rest:
        return Const(constant)
    # Distribute over sums when the expansion stays small.
    sums = [f for f in rest if isinstance(f, Add)]
    if sums:
        n_terms = 1
        for s in sums:
            n_terms *= len(s.terms)
        if n_terms <= _DISTRIBUTE_LIMIT:
            others = [f for f in rest if not isinstance(f, Add)]
            expanded = [[]]
            for s in sums:
                expanded = [acc + [t] for acc in expanded for t in s.terms]
            return add(*[
                mul(Const(constant), *(others + combo)) for combo in expanded
            ])
    rest.sort(key=_sort_key)
    if constant == 1 and len(rest) == 1:
        return rest[0]
    if constant == 1:
        return Mul(tuple(rest))
    return Mul((Const(constant),) + tuple(rest))


def floordiv(a, b) -> Expr:
    """``floor(a / b)`` with constant folding and unit-divisor removal."""
    a, b = _coerce(a), _coerce(b)
    if isinstance(b, Const):
        if b.value == 0:
            raise ZeroDivisionError("floordiv by constant zero")
        if b.value == 1:
            return a
        if isinstance(a, Const):
            return Const(floor_div(a.value, b.value))
        # floor(floor(x/m)/n) == floor(x/(m*n)) for positive divisors.
        if (b.value > 0 and isinstance(a, FloorDiv) and
                isinstance(a.den, Const) and a.den.value > 0):
            return floordiv(a.num, Const(a.den.value * b.value))
        # (c*e) / b when b divides every additive coefficient exactly is
        # not safe in general (floor of sum != sum of floors), so we only
        # fold the all-constant case and exact single products.
        c, rest = split_coeff(a)
        if rest is not None and c % b.value == 0:
            return mul(Const(c // b.value), rest)
    if a == b:
        return ONE
    return FloorDiv(a, b)


def ceildiv(a, b) -> Expr:
    """``ceil(a / b)`` with constant folding and unit-divisor removal."""
    a, b = _coerce(a), _coerce(b)
    if isinstance(b, Const):
        if b.value == 0:
            raise ZeroDivisionError("ceildiv by constant zero")
        if b.value == 1:
            return a
        if isinstance(a, Const):
            return Const(ceil_div(a.value, b.value))
        # ceil(ceil(x/m)/n) == ceil(x/(m*n)) for positive divisors.
        if (b.value > 0 and isinstance(a, CeilDiv) and
                isinstance(a.den, Const) and a.den.value > 0):
            return ceildiv(a.num, Const(a.den.value * b.value))
        c, rest = split_coeff(a)
        if rest is not None and c % b.value == 0:
            return mul(Const(c // b.value), rest)
    if a == b:
        return ONE
    return CeilDiv(a, b)


def mod(a, b) -> Expr:
    """Floored modulus with constant folding; ``mod(x, 1) == 0``."""
    a, b = _coerce(a), _coerce(b)
    if isinstance(b, Const):
        if b.value == 0:
            raise ZeroDivisionError("mod by constant zero")
        if b.value in (1, -1):
            return ZERO
        if isinstance(a, Const):
            return Const(a.value - b.value * floor_div(a.value, b.value))
    if a == b:
        return ZERO
    return Mod(a, b)


def _fold_minmax(args, op: Callable[[int, int], int], cls):
    flat = []
    stack = [_coerce(a) for a in reversed(args)]
    while stack:
        a = stack.pop()
        if isinstance(a, cls):
            stack.extend(reversed(a.args))
        else:
            flat.append(a)
    constant = None
    seen = []
    for a in flat:
        if isinstance(a, Const):
            constant = a.value if constant is None else op(constant, a.value)
        elif a not in seen:
            seen.append(a)
    # Prune arguments dominated by another argument: if (x - y) folds to a
    # constant we know which one wins.
    pruned = []
    for x in seen:
        dominated = False
        for y in seen:
            if x is y:
                continue
            diff = sub(x, y)
            if isinstance(diff, Const):
                # For Max: x is dominated when x <= y, i.e. diff <= 0;
                # ties keep the later element, so break ties by identity.
                if cls is Max and (diff.value < 0 or
                                   (diff.value == 0 and seen.index(y) < seen.index(x))):
                    dominated = True
                    break
                if cls is Min and (diff.value > 0 or
                                   (diff.value == 0 and seen.index(y) < seen.index(x))):
                    dominated = True
                    break
        if not dominated:
            pruned.append(x)
    seen = pruned
    result = list(seen)
    if constant is not None:
        result.append(Const(constant))
    if not result:
        raise ValueError("min/max of no arguments")
    if len(result) == 1:
        return result[0]
    result.sort(key=_sort_key)
    return cls(tuple(result))


def vmin(*args) -> Expr:
    """n-ary minimum (``min`` is taken by the builtin)."""
    return _fold_minmax(args, min, Min)


def vmax(*args) -> Expr:
    """n-ary maximum."""
    return _fold_minmax(args, max, Max)


_FOLDABLE_CALLS: Dict[str, Callable[..., int]] = {
    "abs": lambda x: abs(x),
    "sgn": lambda x: sign(x),
}


def call(func: str, *args) -> Expr:
    """Opaque call; folds ``abs``/``sgn`` over constant arguments."""
    cargs = tuple(_coerce(a) for a in args)
    if func in _FOLDABLE_CALLS and all(isinstance(a, Const) for a in cargs):
        return Const(_FOLDABLE_CALLS[func](*[a.value for a in cargs]))
    if func == "abs" and len(cargs) == 1:
        # abs(-e) == abs(e); normalize the sign of the leading coefficient.
        c, rest = split_coeff(cargs[0])
        if c < 0:
            cargs = (mul(Const(-c), rest) if rest is not None else Const(-c),)
    return Call(func, cargs)


def abs_(a) -> Expr:
    """``abs(a)`` as an expression."""
    return call("abs", a)


def sgn(a) -> Expr:
    """``sgn(a)`` as an expression (-1, 0 or +1)."""
    return call("sgn", a)


# ---------------------------------------------------------------------------
# Traversal, substitution, evaluation
# ---------------------------------------------------------------------------

def children(e: Expr) -> Tuple[Expr, ...]:
    """Immediate sub-expressions of *e* (empty for leaves)."""
    if isinstance(e, (Const, Var)):
        return ()
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, (FloorDiv, CeilDiv, Mod)):
        return (e.num, e.den)
    if isinstance(e, (Min, Max)):
        return e.args
    if isinstance(e, Call):
        return e.args
    raise TypeError(f"unknown expression node {e!r}")


def free_vars(e: Expr) -> frozenset:
    """The set of variable names occurring in *e* (cached per node)."""
    cached = getattr(e, "_free", None)
    if cached is not None:
        return cached
    if isinstance(e, Var):
        result = frozenset((e.name,))
    elif isinstance(e, Const):
        result = frozenset()
    else:
        result = frozenset().union(*(free_vars(c) for c in children(e)))
    object.__setattr__(e, "_free", result)
    return result


def contains_call(e: Expr) -> bool:
    """True iff *e* contains any opaque :class:`Call` node."""
    if isinstance(e, Call):
        return True
    return any(contains_call(c) for c in children(e))


def is_constant(e: Expr) -> bool:
    """True iff *e* is a compile-time constant (a folded literal)."""
    return isinstance(e, Const)


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, renormalizing along the way."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Const):
        return e
    if not (free_vars(e) & set(mapping)):
        return e
    if isinstance(e, Add):
        return add(*[substitute(t, mapping) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[substitute(f, mapping) for f in e.factors])
    if isinstance(e, FloorDiv):
        return floordiv(substitute(e.num, mapping), substitute(e.den, mapping))
    if isinstance(e, CeilDiv):
        return ceildiv(substitute(e.num, mapping), substitute(e.den, mapping))
    if isinstance(e, Mod):
        return mod(substitute(e.num, mapping), substitute(e.den, mapping))
    if isinstance(e, Min):
        return vmin(*[substitute(a, mapping) for a in e.args])
    if isinstance(e, Max):
        return vmax(*[substitute(a, mapping) for a in e.args])
    if isinstance(e, Call):
        return call(e.func, *[substitute(a, mapping) for a in e.args])
    raise TypeError(f"unknown expression node {e!r}")


def evaluate(e: Expr, env: Mapping[str, int],
             funcs: Optional[Mapping[str, Callable[..., int]]] = None) -> int:
    """Evaluate *e* to an integer under variable bindings *env*.

    ``funcs`` supplies implementations for opaque calls (e.g. a ``colstr``
    lookup backed by a CSR array).  ``abs`` and ``sgn`` are built in.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise NameError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Add):
        return sum(evaluate(t, env, funcs) for t in e.terms)
    if isinstance(e, Mul):
        result = 1
        for f in e.factors:
            result *= evaluate(f, env, funcs)
        return result
    if isinstance(e, FloorDiv):
        return floor_div(evaluate(e.num, env, funcs), evaluate(e.den, env, funcs))
    if isinstance(e, CeilDiv):
        return ceil_div(evaluate(e.num, env, funcs), evaluate(e.den, env, funcs))
    if isinstance(e, Mod):
        num = evaluate(e.num, env, funcs)
        den = evaluate(e.den, env, funcs)
        return num - den * floor_div(num, den)
    if isinstance(e, Min):
        return min(evaluate(a, env, funcs) for a in e.args)
    if isinstance(e, Max):
        return max(evaluate(a, env, funcs) for a in e.args)
    if isinstance(e, Call):
        if e.func in _FOLDABLE_CALLS:
            impl = _FOLDABLE_CALLS[e.func]
        elif funcs and e.func in funcs:
            impl = funcs[e.func]
        else:
            raise NameError(f"no implementation for function {e.func!r}")
        return int(impl(*[evaluate(a, env, funcs) for a in e.args]))
    raise TypeError(f"unknown expression node {e!r}")


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_ATOM = 3


def _render(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Const):
        s = str(e.value)
        return f"({s})" if e.value < 0 and parent_prec >= _PREC_MUL else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        # Show positive-coefficient terms first so "jj - ii" never prints
        # as "(-1)*ii + jj"; the order is cosmetic only.
        split = [(split_coeff(t), t) for t in e.terms]
        display = ([p for p in split if p[0][0] >= 0] +
                   [p for p in split if p[0][0] < 0])
        parts = []
        for i, ((c, rest), t) in enumerate(display):
            if i == 0 and c >= 0:
                parts.append(_render(t, _PREC_ADD))
            elif c < 0:
                pos = (Const(-c) if rest is None
                       else rest if c == -1 else _raw_mul(-c, rest))
                parts.append(("-" if i == 0 else " - ") +
                             _render(pos, _PREC_ADD + 1))
            else:
                parts.append(f" + {_render(t, _PREC_ADD + 1)}")
        s = "".join(parts)
        return f"({s})" if parent_prec > _PREC_ADD else s
    if isinstance(e, Mul):
        c, rest = split_coeff(e)
        if c < 0 and rest is not None:
            pos = rest if c == -1 else _raw_mul(-c, rest)
            s = "-" + _render(pos, _PREC_MUL)
            return f"({s})" if parent_prec >= _PREC_MUL else s
        s = "*".join(_render(f, _PREC_MUL) for f in e.factors)
        return f"({s})" if parent_prec > _PREC_MUL else s
    if isinstance(e, FloorDiv):
        return f"div({_render(e.num, 0)}, {_render(e.den, 0)})"
    if isinstance(e, CeilDiv):
        return f"ceil({_render(e.num, 0)}, {_render(e.den, 0)})"
    if isinstance(e, Mod):
        return f"mod({_render(e.num, 0)}, {_render(e.den, 0)})"
    if isinstance(e, Min):
        return "min(" + ", ".join(_render(a, 0) for a in e.args) + ")"
    if isinstance(e, Max):
        return "max(" + ", ".join(_render(a, 0) for a in e.args) + ")"
    if isinstance(e, Call):
        return e.func + "(" + ", ".join(_render(a, 0) for a in e.args) + ")"
    raise TypeError(f"unknown expression node {e!r}")


def to_str(e: Expr) -> str:
    """Render an expression in the paper's surface syntax."""
    return _render(e, 0)
