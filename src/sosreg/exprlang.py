"""Differentiable expression trees over named real variables.

A small expression language (sums, products, quotients, real powers, exp/ln/
sin/cos, the flat primitive flatexp(u) = exp(-1/u) for u > 0, and piecewise
nodes for smooth plateau bumps) with exact symbolic partial derivatives to
arbitrary order and numpy-vectorized evaluation.  The module also ships the
catalog of named test functions used throughout the package.

Expressions are immutable and may be shared freely across threads.
`differentiate` hash-conses its output in a DerivativeTable, which interns
only simplified nodes: structurally equal nodes become one object, and each
derivative step is built simplified in one pass and memoized per node.  A
call given no table builds a fresh one; a table passed in (one per
FunctionHandle) keeps growing, so it must not be shared across threads.
One DAG walk computes numbers: `taylor_series` propagates truncated Taylor
series along lines, and `evaluate` is its degree-0 case, so each node type's
numeric rule is written once.  Given an EvalMemo, either shares node series
across the evaluations of one batch of roots; a memo belongs to one batch
and one degree.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SosregError
from .geometry import Ball

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Sum",
    "Neg",
    "Prod",
    "Quot",
    "Pow",
    "Exp",
    "Ln",
    "Sin",
    "Cos",
    "FlatExp",
    "Piecewise",
    "ExprError",
    "ParseError",
    "parse_expression",
    "parse_function_file",
    "to_source",
    "evaluate",
    "taylor_series",
    "differentiate",
    "DerivativeTable",
    "EvalMemo",
    "read_counts",
    "free_variables",
    "has_conditionals",
    "FunctionDef",
    "catalog_function",
    "catalog_names",
    "glaeser_stub_with",
]


class ExprError(SosregError):
    """Base error for the expression language."""


class ParseError(ExprError):
    """Syntax or identifier error, carrying line/column information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes.  Nodes are frozen dataclasses with slots."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Sum(Expr):
    terms: tuple


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Prod(Expr):
    factors: tuple


@dataclass(frozen=True, slots=True)
class Quot(Expr):
    num: Expr
    den: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    """base ** exponent with a real (literal) exponent."""

    base: Expr
    exponent: float


@dataclass(frozen=True, slots=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Ln(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Cos(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class FlatExp(Expr):
    """flatexp(u) = exp(-1/u) for u > 0 and 0 for u <= 0.

    The standard smooth function vanishing to infinite order as u -> 0+.
    Evaluates to exactly 0.0 at u <= 0 (no NaN), which keeps compositions
    like flatexp(t^2) well defined at the flat point.
    """

    arg: Expr


@dataclass(frozen=True, slots=True)
class Piecewise(Expr):
    """Region-conditional expression.

    branches[0] applies where scrutinee <= breaks[0], branches[i] where
    breaks[i-1] < scrutinee <= breaks[i], and branches[-1] elsewhere.
    Differentiation is branchwise and therefore exact only away from the
    seams; all constructions in this package glue branches smoothly.
    """

    scrutinee: Expr
    breaks: tuple
    branches: tuple

    def __post_init__(self):
        if len(self.branches) != len(self.breaks) + 1:
            raise ExprError(
                f"piecewise needs {len(self.breaks) + 1} branches for "
                f"{len(self.breaks)} breakpoints, got {len(self.branches)}"
            )
        if list(self.breaks) != sorted(self.breaks):
            raise ExprError("piecewise breakpoints must be increasing")


_FOLDS = {Exp: math.exp, Ln: math.log, Sin: math.sin, Cos: math.cos,
          FlatExp: lambda u: math.exp(-1.0 / u) if u > 0 else 0.0}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(e: Expr, env: dict, memo: EvalMemo | None = None):
    """Evaluate e with variables bound to scalars or numpy arrays.

    The value is c_0 of e's degree-0 Taylor series: each variable is the
    one-coefficient series [value], and `taylor_series` walks the DAG, so a
    value and the series of higher degree share each node's numeric rule.
    Scalars keep numpy's arithmetic (a division by zero reads inf) and their
    dtype (longdouble stays longdouble); a scalar result is a numpy scalar.
    With `memo`, an EvalMemo made from the read counts of a batch of roots
    that contains e, values carry over to the batch's other roots in the same
    environment; the memo holds each node's coefficient list and drops it
    after its last read, so one memo serves one degree.
    """
    c0 = taylor_series(e, {name: [np.asarray(value)] for name, value in env.items()}, 0, memo)[0]
    return c0[()] if isinstance(c0, np.ndarray) and not c0.ndim else c0


class EvalMemo:
    """Node series shared by the evaluations of one batch of roots at one degree.

    `left` starts as `read_counts(roots)` and counts the reads still to come;
    a series is dropped at its last read, so the memo holds only series that
    a later read of the batch needs.
    """

    __slots__ = ("values", "left")

    def __init__(self, reads: dict):
        self.values: dict = {}
        self.left = dict(reads)


def _children(e: Expr) -> tuple:
    """The subexpressions evaluation reads, with multiplicity."""
    if isinstance(e, (Const, Var)):
        return ()
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Prod):
        return e.factors
    if isinstance(e, Quot):
        return (e.num, e.den)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Piecewise):
        return (e.scrutinee, *e.branches)
    return (e.arg,)


def _nodes(*roots) -> list:
    """The distinct nodes of the roots' DAG."""
    seen: dict = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(_children(node))
    return list(seen.values())


def read_counts(roots) -> dict:
    """id(node) -> reads when each root is evaluated once through one EvalMemo:
    one per root occurrence plus one per parent edge of each distinct node.
    The ids stay valid while the roots are alive."""
    reads = Counter(id(r) for r in roots)
    for node in _nodes(*roots):
        for c in _children(node):
            reads[id(c)] += 1
    return dict(reads)


def taylor_series(e: Expr, env: dict, degree: int, memo: EvalMemo | None = None) -> list:
    """Coefficients [c_0, ..., c_degree] of e's Taylor series along a line.

    env maps each variable to its own coefficient list, [x, v, None, ...] for
    x + t v.  A coefficient is a scalar or an array, all broadcasting
    together, or None for an exact zero, which is skipped, not stored.  Each
    node applies the usual forward recurrences (Griewank, Utke & Walther,
    Math. Comp. 69 (2000)); integer powers are products, so a zero base stays
    exact, and a real power p at a zero base has c_k = 0 where p > k and NaN
    elsewhere, as its symbolic k-th derivative evaluates there; for p > 0 it
    is 0 also for k < p (degree + 1) where c_1..c_degree of the base vanish,
    all a truncated series tells (sqrt(x^4 + y^4) at 0 stays NaN at order 3).
    flatexp is exp(-1/u) where u > 0 and 0 elsewhere, and piecewise takes each
    coefficient from the branch its scrutinee's value selects, as the
    branchwise symbolic derivatives do.  This is the package's one numeric
    DAG walk; `evaluate` is its degree-0 case.  With `memo`, an EvalMemo of
    read_counts([e]), each node's series is dropped after its last read; the
    memo's series have this call's degree, so one memo serves one degree.
    """
    with np.errstate(all="ignore"):
        if memo is None:
            return _series(e, env, degree, {}, None)
        return _series(e, env, degree, memo.values, memo.left)


def _series(e: Expr, env, degree: int, memo: dict, left):
    key = id(e)
    out = memo.get(key)
    if out is None:
        out = memo[key] = _series_node(e, env, degree, memo, left)
    if left is not None:
        n = left[key] - 1
        left[key] = n
        if not n:
            del memo[key]
    return out


def _series_node(e: Expr, env, degree: int, memo, left) -> list:
    def s(child):
        return _series(child, env, degree, memo, left)

    if isinstance(e, Const):  # a numpy scalar: division by zero reads inf, as on arrays
        return [np.float64(e.value)] + [None] * degree
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise ExprError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Sum):
        return [_total(cs) for cs in zip(*map(s, e.terms))]
    if isinstance(e, Neg):
        return [None if c is None else -c for c in s(e.arg)]
    if isinstance(e, Prod):
        out = s(e.factors[0])
        for f in e.factors[1:]:
            out = _cauchy(out, s(f))
        return out
    if isinstance(e, Quot):
        return _divide(s(e.num), s(e.den))
    if isinstance(e, Pow):
        return _power(s(e.base), e.exponent)
    if isinstance(e, Exp):
        return _exp(s(e.arg))
    if isinstance(e, Ln):
        # ln(u)' = u' / u
        u = s(e.arg)
        du = [None if c is None else k * c for k, c in enumerate(u[1:], 1)]
        return [np.log(u[0])] + [None if c is None else c / k for k, c in enumerate(_divide(du, u[:-1]), 1)]
    if isinstance(e, (Sin, Cos)):
        u = s(e.arg)
        sin, cos = [np.sin(u[0])], [np.cos(u[0])]
        for k in range(1, degree + 1):
            sin.append(_conv(u, cos, k, lambda i: i / k))
            cos.append(_conv(u, sin, k, lambda i: -i / k))
        return sin if isinstance(e, Sin) else cos
    if isinstance(e, FlatExp):
        u = s(e.arg)
        pos = u[0] > 0
        w = _divide([-1.0] + [None] * degree, [np.where(pos, u[0], 1.0)] + u[1:])
        return [None if c is None else np.where(pos, c, 0.0) for c in _exp(w)]
    if isinstance(e, Piecewise):
        scrutinee = s(e.scrutinee)[0]
        out = []
        for cs in zip(*map(s, e.branches)):
            if all(c is None for c in cs):
                out.append(None)
                continue
            # the first branch whose break the scrutinee does not exceed
            acc = 0.0 if cs[-1] is None else cs[-1]
            for b, c in zip(e.breaks[::-1], cs[-2::-1]):
                acc = np.where(scrutinee <= b, 0.0 if c is None else c, acc)
            out.append(acc)
        return out
    raise ExprError(f"cannot expand node {type(e).__name__}")


def _total(cs):
    acc = None
    for c in cs:
        if c is not None:
            acc = c if acc is None else acc + c
    return acc


def _conv(a, b, k: int, weight=None, first: int = 1):
    """Sum over i = first..k of weight(i) * a[i] * b[k - i], skipping zero
    terms; None when every term is zero.  `b` may be shorter than k + 1 when
    first >= 1, as in the recurrences that solve for b[k]."""
    acc = None
    for i in range(first, k + 1):
        if a[i] is None or b[k - i] is None:
            continue
        w = 1.0 if weight is None else weight(i)
        if w == 0.0:
            continue
        term = a[i] * b[k - i] if w == 1.0 else w * a[i] * b[k - i]
        acc = term if acc is None else acc + term
    return acc


def _cauchy(a: list, b: list) -> list:
    out = [a[0] * b[0]]  # c_0 is never None: a constant, a variable's value or a node's value
    for k in range(1, len(a)):
        out.append(_conv(a, b, k, first=0))
    return out


def _divide(a: list, b: list) -> list:
    v: list = []
    for k in range(len(a)):
        c = _conv(b, v, k)
        top = a[k] if c is None else (-c if a[k] is None else a[k] - c)
        v.append(None if top is None else top / b[0])
    return v


def _exp(u: list) -> list:
    v = [np.exp(u[0])]
    for k in range(1, len(u)):
        v.append(_conv(u, v, k, lambda i: i / k))
    return v


def _power(u: list, p: float) -> list:
    if p == int(p):
        one = [1.0] + [None] * (len(u) - 1)
        out, m = one, abs(int(p))
        while m:  # binary powering
            if m & 1:
                out = u if out is one else _cauchy(out, u)
            m >>= 1
            if m:
                u = _cauchy(u, u)
        return out if p >= 0 else _divide(one, out)
    v = [np.power(u[0], p)]
    zero = u[0] == 0
    base = np.where(zero, 1.0, u[0])
    flat = np.nan  # c_k, k < p * len(u), at a zero base whose other coefficients vanish too
    if p > 0 and np.any(zero):
        flat = np.where(functools.reduce(np.logical_and, [c == 0 for c in u[1:] if c is not None], True), 0.0, np.nan)
    for k in range(1, len(u)):
        c = _conv(u, v, k, lambda i: (p * i - (k - i)) / k)
        at_zero = 0.0 if p > k else flat if k < p * len(u) else np.nan
        v.append(None if c is None else np.where(zero, at_zero, c / base))
    return v


def free_variables(e: Expr) -> set:
    return {node.name for node in _nodes(e) if isinstance(node, Var)}


def has_conditionals(e: Expr) -> bool:
    """True if e contains piecewise or flatexp nodes, whose derivatives are
    exact only away from the seam set."""
    return any(isinstance(node, (Piecewise, FlatExp)) for node in _nodes(e))


# ---------------------------------------------------------------------------
# Hash-consing, simplification and differentiation
# ---------------------------------------------------------------------------


def _node_key(cls, fields) -> tuple:
    """The structural key of node cls(*fields) whose children are interned:
    children key by identity; numbers key with their sign, since 0.0 == -0.0
    but 1/-0.0 differs."""
    a = fields[0]
    if cls is Sum or cls is Prod:
        return (cls, *map(id, a))
    if cls is Const:
        return (cls, a, math.copysign(1.0, a))
    if cls is Var:
        return (cls, a)
    if cls is Pow:
        return (cls, id(a), fields[1], math.copysign(1.0, fields[1]))
    if cls is Piecewise:
        return (cls, id(a), fields[1], *map(id, fields[2]))
    return (cls, *map(id, fields))


class DerivativeTable:
    """Intern table of simplified nodes, with simplify and derivative memos.

    `node(cls, *fields)` returns the table's one node of that structure, so
    structurally equal subexpressions are one object.  The builders (`sum`,
    `neg`, `prod`, `quot`, `pow`, `unary`, `piecewise`) take simplified
    children and apply their own node's simplification rules, so every node
    of the table is its own simplification.  `simplify(e)` maps any e onto
    the table, memoized per node of e; `derivatives` memoizes each step per
    node and variable.  Nodes and inputs stay alive, so their ids stay valid.
    """

    def __init__(self):
        self._nodes: dict = {}  # structural key -> node
        self._inputs: list = []  # simplified foreign nodes, kept alive for their ids
        self.simplified: dict = {}  # id(node) -> simplified node (itself for the table's own)
        self.derivatives: dict = {}  # (id(node), variable) -> derivative

    def node(self, cls, *fields) -> Expr:
        key = _node_key(cls, fields)
        got = self._nodes.get(key)
        if got is None:
            got = self._nodes[key] = cls(*fields)
            self.simplified[id(got)] = got
        return got

    def simplify(self, e: Expr) -> Expr:
        """The table's simplified node of e."""
        got = self.simplified.get(id(e))
        if got is None:
            got = self.simplified[id(e)] = _simplify_node(e, self)
            self._inputs.append(e)
        return got

    def sum(self, terms) -> Expr:
        flat = []
        const = 0.0
        for u in terms:
            for v in u.terms if isinstance(u, Sum) else (u,):
                if isinstance(v, Const):
                    const += v.value
                else:
                    flat.append(v)
        if const != 0.0 or not flat:
            flat.append(self.node(Const, const))
        return flat[0] if len(flat) == 1 else self.node(Sum, tuple(flat))

    def neg(self, a: Expr) -> Expr:
        if isinstance(a, Const):
            return self.node(Const, -a.value)
        return a.arg if isinstance(a, Neg) else self.node(Neg, a)

    def prod(self, factors) -> Expr:
        flat = []
        const = 1.0
        for u in factors:
            for v in u.factors if isinstance(u, Prod) else (u,):
                if isinstance(v, Const):
                    const *= v.value
                else:
                    flat.append(v)
        if const == 0.0:
            return self.node(Const, 0.0)
        if const != 1.0 or not flat:
            flat.insert(0, self.node(Const, const))
        return flat[0] if len(flat) == 1 else self.node(Prod, tuple(flat))

    def quot(self, num: Expr, den: Expr) -> Expr:
        if isinstance(num, Const) and num.value == 0.0:
            return self.node(Const, 0.0)
        if isinstance(den, Const) and den.value == 1.0:
            return num
        if isinstance(num, Const) and isinstance(den, Const) and den.value != 0.0:
            return self.node(Const, num.value / den.value)
        return self.node(Quot, num, den)

    def pow(self, base: Expr, p: float) -> Expr:
        if p == 0.0:
            return self.node(Const, 1.0)
        if p == 1.0:
            return base
        if isinstance(base, Const) and (base.value > 0 or float(p).is_integer()):
            return self._fold(Pow, (base, p), lambda: base.value**p)
        return self.node(Pow, base, p)

    def unary(self, cls, a: Expr) -> Expr:
        """exp, ln, sin, cos or flatexp of a, folded when a is a constant."""
        if not isinstance(a, Const) or (cls is Ln and not a.value > 0):
            return self.node(cls, a)
        if cls not in _FOLDS:
            raise ExprError(f"cannot simplify node {cls.__name__}")
        return self._fold(cls, (a,), lambda: _FOLDS[cls](a.value))

    def _fold(self, cls, fields, fold) -> Expr:
        """Const fold(), or where float arithmetic fails (exp(800) overflows)
        the unfolded cls(*fields), which evaluates to numpy's inf or NaN."""
        try:
            return self.node(Const, float(fold()))
        except (ArithmeticError, ValueError):
            return self.node(cls, *fields)

    def piecewise(self, scrutinee: Expr, breaks: tuple, branches: tuple) -> Expr:
        if all(b == branches[0] for b in branches[1:]):
            return branches[0]
        return self.node(Piecewise, scrutinee, breaks, branches)


def simplify(e: Expr) -> Expr:
    """Identity pruning and constant folding (no CAS rewriting), by the
    builders of a fresh DerivativeTable; the result is its own simplification."""
    return DerivativeTable().simplify(e)


def _simplify_node(e: Expr, t: DerivativeTable) -> Expr:
    s = t.simplify
    if isinstance(e, Const):
        return t.node(Const, e.value)
    if isinstance(e, Var):
        return t.node(Var, e.name)
    if isinstance(e, Sum):
        return t.sum([s(u) for u in e.terms])
    if isinstance(e, Neg):
        return t.neg(s(e.arg))
    if isinstance(e, Prod):
        return t.prod([s(u) for u in e.factors])
    if isinstance(e, Quot):
        return t.quot(s(e.num), s(e.den))
    if isinstance(e, Pow):
        return t.pow(s(e.base), e.exponent)
    if isinstance(e, Piecewise):
        return t.piecewise(s(e.scrutinee), e.breaks, tuple(map(s, e.branches)))
    return t.unary(type(e), s(e.arg))


MAX_DERIVATIVE_ORDER = 8


def differentiate(e: Expr, variable: str, order: int = 1, table: DerivativeTable | None = None) -> Expr:
    """Exact symbolic partial derivative of the given order.

    e is simplified once; each order is then one pass that builds the
    derivative of a simplified node with the table's builders, so each step
    is simplified as it is built.  The result is a node of `table` (a fresh
    one when None); a table passed in memoizes every step, so later calls
    reuse earlier derivatives.  Piecewise and flatexp nodes differentiate
    branchwise; the result is exact away from seam points, which
    `has_conditionals` detects.
    """
    if order < 1:
        raise ExprError(f"derivative order must be >= 1, got {order}")
    if order > MAX_DERIVATIVE_ORDER:
        raise ExprError(f"derivative order {order} exceeds the supported maximum {MAX_DERIVATIVE_ORDER}")
    t = DerivativeTable() if table is None else table
    out = t.simplify(e)
    for _ in range(order):
        out = _d(out, variable, t)
    return out


def _d(e: Expr, v: str, t: DerivativeTable) -> Expr:
    key = (id(e), v)
    got = t.derivatives.get(key)
    if got is None:
        got = t.derivatives[key] = _d_node(e, v, t)
    return got


def _d_node(e: Expr, v: str, t: DerivativeTable) -> Expr:
    # e and its children are simplified nodes of t
    if isinstance(e, Const):
        return t.node(Const, 0.0)
    if isinstance(e, Var):
        return t.node(Const, 1.0 if e.name == v else 0.0)
    if isinstance(e, Sum):
        return t.sum([_d(u, v, t) for u in e.terms])
    if isinstance(e, Neg):
        return t.neg(_d(e.arg, v, t))
    if isinstance(e, Prod):
        fs = e.factors
        return t.sum([t.prod(fs[:i] + (_d(f, v, t),) + fs[i + 1 :]) for i, f in enumerate(fs)])
    if isinstance(e, Quot):
        da, db = _d(e.num, v, t), _d(e.den, v, t)
        num = t.sum([t.prod((da, e.den)), t.neg(t.prod((e.num, db)))])
        return t.quot(num, t.pow(e.den, 2.0))
    if isinstance(e, Pow):
        return t.prod((t.node(Const, e.exponent), t.pow(e.base, e.exponent - 1.0), _d(e.base, v, t)))
    if isinstance(e, Exp):
        return t.prod((e, _d(e.arg, v, t)))
    if isinstance(e, Ln):
        return t.quot(_d(e.arg, v, t), e.arg)
    if isinstance(e, Sin):
        return t.prod((t.unary(Cos, e.arg), _d(e.arg, v, t)))
    if isinstance(e, Cos):
        return t.neg(t.prod((t.unary(Sin, e.arg), _d(e.arg, v, t))))
    if isinstance(e, FlatExp):
        u = e.arg
        smooth_part = t.prod((e, t.quot(_d(u, v, t), t.pow(u, 2.0))))
        return t.piecewise(u, (0.0,), (t.node(Const, 0.0), smooth_part))
    if isinstance(e, Piecewise):
        return t.piecewise(e.scrutinee, e.breaks, tuple(_d(b, v, t) for b in e.branches))
    raise ExprError(f"cannot differentiate node {type(e).__name__}")


# ---------------------------------------------------------------------------
# Printing: to_source(parse_expression(s)) round-trips structurally
# ---------------------------------------------------------------------------


def _fmt_number(x: float) -> str:
    if math.isinf(x):  # 1e999 parses back to inf; "inf" would parse as a variable
        return "-1e999" if x < 0 else "1e999"
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def to_source(e: Expr) -> str:
    return _print(e, 0)


# precedence levels: 0 sum, 1 product, 2 unary minus, 3 power, 4 atom
def _print(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Const):
        s = _fmt_number(e.value)
        return f"({s})" if e.value < 0 and parent_prec > 2 else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Sum):
        parts = [_print(e.terms[0], 1)]
        for t in e.terms[1:]:
            if isinstance(t, Neg):
                parts.append(" - " + _print(t.arg, 1))
            else:
                parts.append(" + " + _print(t, 1))
        s = "".join(parts)
        return f"({s})" if parent_prec > 0 else s
    if isinstance(e, Neg):
        # '-' binds tighter than '^' in the grammar, so guard power arguments
        s = "-" + _print(e.arg, 4)
        return f"({s})" if parent_prec > 1 else s
    if isinstance(e, Prod):
        s = "*".join(_print(f, 2) for f in e.factors)
        return f"({s})" if parent_prec > 1 else s
    if isinstance(e, Quot):
        s = _print(e.num, 2) + "/" + _print(e.den, 3)
        return f"({s})" if parent_prec > 1 else s
    if isinstance(e, Pow):
        s = _print(e.base, 4) + "^" + _fmt_number(e.exponent)
        return f"({s})" if parent_prec > 3 else s
    if type(e) in _UNARY_NAMES:
        return f"{_UNARY_NAMES[type(e)]}({_print(e.arg, 0)})"
    if isinstance(e, Piecewise):
        args = [_print(e.scrutinee, 0)]
        for b, br in zip(e.breaks, e.branches[:-1]):
            args.append(_fmt_number(b))
            args.append(_print(br, 0))
        args.append(_print(e.branches[-1], 0))
        return "piecewise(" + ", ".join(args) + ")"
    raise ExprError(f"cannot print node {type(e).__name__}")


# ---------------------------------------------------------------------------
# Parser.  Grammar:
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := base ('^' signed_number)?
#   base   := number | ident | ident '(' expr (',' expr)* ')' | '(' expr ')' | '-' base
# ---------------------------------------------------------------------------

# the unary builtins; sqrt(u) parses as u^0.5 and piecewise takes its own argument list
_UNARY = {"exp": Exp, "ln": Ln, "sin": Sin, "cos": Cos, "flatexp": FlatExp}
_UNARY_NAMES = {cls: name for name, cls in _UNARY.items()}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind, self.text, self.line, self.col = kind, text, line, col


def _tokenize(src: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(src) and src[i] != "\n":
                i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < len(src) and src[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < len(src) and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                if src[j] == ".":
                    seen_dot = True
                j += 1
            if j < len(src) and src[j] in "eE":
                k = j + 1
                if k < len(src) and src[k] in "+-":
                    k += 1
                if k < len(src) and src[k].isdigit():
                    j = k
                    while j < len(src) and src[j].isdigit():
                        j += 1
            tokens.append(_Token("number", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^(),=":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.nodes: dict = {}  # structural key -> node, so equal subtrees are one object

    def node(self, cls, *fields) -> Expr:
        return self.nodes.setdefault(_node_key(cls, fields), cls(*fields))

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        terms = [node]
        while self.peek().kind in ("+", "-"):
            op = self.next()
            # reject `x ++ y` style runs explicitly
            if self.peek().kind in ("+",):
                t = self.peek()
                raise ParseError("unexpected '+'", t.line, t.col)
            rhs = self.parse_term()
            terms.append(self.node(Neg, rhs) if op.kind == "-" else rhs)
        return terms[0] if len(terms) == 1 else self.node(Sum, tuple(terms))

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.next()
            rhs = self.parse_factor()
            if op.kind == "*":
                node = self.node(Prod, node.factors + (rhs,) if isinstance(node, Prod) else (node, rhs))
            else:
                node = self.node(Quot, node, rhs)
        return node

    def parse_factor(self) -> Expr:
        node = self.parse_base()
        if self.peek().kind == "^":
            self.next()
            sign = 1.0
            if self.peek().kind == "-":
                self.next()
                sign = -1.0
            t = self.expect("number")
            node = self.node(Pow, node, sign * float(t.text))
        return node

    def parse_base(self) -> Expr:
        t = self.peek()
        if t.kind == "number":
            self.next()
            return self.node(Const, float(t.text))
        if t.kind == "-":
            self.next()
            inner = self.parse_base()
            # normalize so that printed negative constants round-trip structurally
            if isinstance(inner, Const):
                return self.node(Const, -inner.value)
            return self.node(Neg, inner)
        if t.kind == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        if t.kind == "ident":
            self.next()
            if self.peek().kind != "(":
                return self.node(Var, t.text)
            if t.text not in _UNARY and t.text not in ("sqrt", "piecewise"):
                raise ParseError(f"unknown function identifier {t.text!r}", t.line, t.col)
            self.next()
            args = [self.parse_expr()]
            while self.peek().kind == ",":
                self.next()
                args.append(self.parse_expr())
            self.expect(")")
            if t.text != "piecewise" and len(args) != 1:
                raise ParseError(f"{t.text} expects 1 argument(s), got {len(args)}", t.line, t.col)
            return _build_call(self.node, t.text, args, t)
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)


def _build_call(node, name: str, args: list, tok: _Token) -> Expr:
    if name in _UNARY:
        return node(_UNARY[name], args[0])
    if name == "sqrt":
        return node(Pow, args[0], 0.5)
    # piecewise(scrutinee, break0, branch0, ..., last_branch)
    if len(args) < 2 or len(args) % 2 != 0:
        raise ParseError(
            "piecewise expects (scrutinee, break, branch, ..., default_branch)", tok.line, tok.col
        )
    scrutinee = args[0]
    breaks = []
    branches = []
    rest = args[1:]
    for i in range(0, len(rest) - 1, 2):
        b = simplify(rest[i])
        if not isinstance(b, Const):
            raise ParseError("piecewise breakpoints must be constants", tok.line, tok.col)
        breaks.append(b.value)
        branches.append(rest[i + 1])
    branches.append(rest[-1])
    return node(Piecewise, scrutinee, tuple(breaks), tuple(branches))


def parse_expression(source: str) -> Expr:
    """Parse source text into an expression tree whose structurally equal subtrees are one node."""
    parser = _Parser(_tokenize(source))
    node = parser.parse_expr()
    t = parser.peek()
    if t.kind != "eof":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.line, t.col)
    return node


# ---------------------------------------------------------------------------
# Function definitions and files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionDef:
    """A named function: ordered variables, expression body, domain ball.

    sample_box, when present, is a per-variable (lo, hi) box of recommended
    interior sample points that avoids the function's singular margins.
    """

    name: str
    variables: tuple
    body: Expr
    domain: Ball
    sample_box: tuple | None = None

    def __post_init__(self):
        extra = free_variables(self.body) - set(self.variables)
        if extra:
            raise ExprError(f"body of {self.name!r} uses undeclared variables {sorted(extra)}")

    @property
    def arity(self) -> int:
        return len(self.variables)

    def __call__(self, *args):
        return evaluate(self.body, dict(zip(self.variables, args)))


def parse_function_file(text: str) -> dict:
    """Parse lines of the form `def name(v1, v2) = expr`; '#' starts a comment."""
    defs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("def "):
            raise ParseError("expected 'def name(vars) = expr'", lineno, 1)
        head, _, body_src = line[4:].partition("=")
        if not body_src:
            raise ParseError("missing '=' in function definition", lineno, len(line))
        head = head.strip()
        if "(" not in head or not head.endswith(")"):
            raise ParseError("malformed definition header", lineno, 5)
        name, _, var_part = head.partition("(")
        name = name.strip()
        variables = tuple(v.strip() for v in var_part[:-1].split(",") if v.strip())
        body = parse_expression(body_src)
        extra = free_variables(body) - set(variables)
        if extra:
            raise ParseError(f"unknown identifier(s) {sorted(extra)} in body of {name!r}", lineno, 1)
        defs[name] = FunctionDef(
            name=name,
            variables=variables,
            body=body,
            domain=Ball(center=(0.0,) * len(variables), radius=1.0),
        )
    return defs


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


class _Entry(NamedTuple):
    variables: tuple
    source: str  # the body; each {formula} in it is a formula in the parameters
    params: dict  # name -> (default, allowed interval "[lo,hi]" or "(lo,hi)")
    domain: Ball
    sample_box: tuple  # per-variable (lo, hi) of interior samples; a bound may be a formula in the parameters
    note: str


# the smooth step q(V) = E(V)/(E(V) + E(1 - V)), E = flatexp: 0 at V <= 0, 1 at V >= 1, C^inf
_STEP = "flatexp(V)/(flatexp(V) + flatexp(1 - V))"
# even C^inf plateau in s on its scrutinee U = s^2 (abs-free): 1 where |s| <= rho,
# 0 where |s| >= 1, the smooth step of (1 - |s|)/(1 - rho) between
_PLATEAU = "piecewise(U, {rho*rho}, 1, 1, " + _STEP.replace("V", "(1 - (U)^0.5)/{1 - rho}") + ", 0)"
_QUARTIC = "w^4 + x^2*y^2 + y^2*z^2 + z^2*x^2 - 2*w*x*y*z"

_CATALOG = {
    "motzkin_M": _Entry(
        ("x", "y", "z"), "z^6 + x^2*y^2*(x^2 + y^2 - {3*lam}*z^2)",
        {"lam": (1.0, "[0,1]")}, Ball((0.0,) * 3, 2.0), ((-1.0, 1.0),) * 3,
        "nonnegative sextic in 3 variables; not a sum of squares of polynomials"),
    "quartic_L": _Entry(
        ("w", "x", "y", "z"), _QUARTIC,
        {}, Ball((0.0,) * 4, 2.0), ((-1.0, 1.0),) * 4,
        "nonnegative quartic in 4 variables; not a sum of squares of quadratic forms"),
    # below t ~ 0.5 the derivative growth rate outpaces what double
    # precision finite differences can certify at order four
    "flat_exp_sq": _Entry(
        ("t",), "flatexp(t^2)",
        {}, Ball((0.0,), 1.0), ((0.55, 0.95),),
        "exp(-1/t^2): flat at 0, positive elsewhere"),
    "flat_exp": _Entry(
        ("t",), "flatexp(t)",
        {}, Ball((0.5,), 0.5), ((0.3, 0.95),),
        "exp(-1/t) for t > 0, 0 otherwise; flat one-sided profile"),
    # the samples keep inside one smooth piece, away from the seams
    "bump_h": _Entry(
        ("t",), _PLATEAU.replace("U", "t^2"),
        {"rho": (0.5, "(0,1)")}, Ball((0.0,), 1.5), (("rho + 0.12", 0.88),),
        "smooth even plateau: 1 on [0, rho], 0 outside (-1, 1)"),
    # phi(t) L(w,x,y,z) + psi(t) + phi(r) h_rho(t/r) with phi(t) = flatexp(t^2),
    # psi(t) = phi(t/2)^(1/s') t^(4/s') and r = |(w,x,y,z)|; the plateau's
    # scrutinee t^2/r^2 lands in its vanishing branch as r -> 0.  The samples,
    # r ~ 0.6 and t in the vanished plateau piece, keep every stencil point in
    # one smooth branch, where derivative growth stays tame
    "family_f": _Entry(
        ("w", "x", "y", "z", "t"),
        f"flatexp(t^2)*({_QUARTIC}) + flatexp(t^2/4)^{{1/s_prime}}*(t^2)^{{2/s_prime}}"
        " + flatexp(w^2 + x^2 + y^2 + z^2)*" + _PLATEAU.replace("U", "t^2/(w^2 + x^2 + y^2 + z^2)"),
        {"s_prime": (0.5, "(0,1)"), "rho": (0.5, "(0,1)")}, Ball((0.0,) * 5, 1.0),
        ((0.28, 0.36),) * 4 + ((0.8, 0.95),),
        "five-variable counterexample family phi*L + psi + phi(r)*h(t/r)"),
    # glaeser_stub_with at g = t^2
    "glaeser_stub": _Entry(
        ("t",), "flatexp(t^2)",
        {}, Ball((0.0,), 1.0), ((0.55, 0.95),),
        "construction hook exp(-1/g) with a user-supplied inner function g"),
}


def glaeser_stub_with(g: Expr, variables: tuple) -> FunctionDef:
    """Construction hook: the flat function exp(-1/g) for a user-supplied g > 0."""
    return FunctionDef(
        name="glaeser_stub",
        variables=tuple(variables),
        body=FlatExp(g),
        domain=Ball(center=(0.0,) * len(variables), radius=1.0),
        sample_box=((0.55, 0.95),) * len(variables),
    )


def catalog_names() -> tuple:
    return tuple(_CATALOG)


def _value(name: str, formula: str, params: dict) -> float:
    body = parse_expression(formula)
    value = float(evaluate(body, params))
    if not math.isfinite(value):
        used = ", ".join(f"{k} = {params[k]} in {_CATALOG[name].params[k][1]}" for k in sorted(free_variables(body)))
        raise ExprError(f"{name}: {formula} is {value} at {used}; choose a value it is finite at")
    return value


def catalog_function(name: str, params: dict | None = None) -> FunctionDef:
    """A catalog entry at the given parameters, the defaults for the others.

    Each parameter must lie in its interval, and each formula in the
    parameters must be finite there.  The body is the entry's source with
    each {formula} replaced by the repr of its value, parsed, so the constants
    are the floats the formulas compute.
    """
    if name not in _CATALOG:
        raise ExprError(f"unknown catalog name {name!r}; known: {', '.join(_CATALOG)}")
    entry, params = _CATALOG[name], dict(params or {})
    unknown = set(params) - set(entry.params)
    if unknown:
        raise ExprError(f"{name} does not accept parameter(s) {sorted(unknown)}")
    for key, (default, interval) in entry.params.items():
        value = params[key] = float(params.get(key, default))
        lo, hi = (float(b) for b in interval[1:-1].split(","))
        if not ((lo <= value <= hi) if interval[0] == "[" else (lo < value < hi)):
            raise ExprError(f"{name} requires {key} in {interval}, got {value}")
    source = re.sub(r"\{([^}]*)\}", lambda m: repr(_value(name, m[1], params)), entry.source)
    box = tuple(tuple(_value(name, b, params) if isinstance(b, str) else b for b in pair) for pair in entry.sample_box)
    return FunctionDef(name, entry.variables, parse_expression(source), entry.domain, box)


def catalog_formula(name: str) -> str:
    """Source text of a catalog entry's body at its default parameters."""
    return to_source(catalog_function(name).body)


def catalog_note(name: str) -> str:
    """One line on what a catalog entry is."""
    return _CATALOG[name].note
