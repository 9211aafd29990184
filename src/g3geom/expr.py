"""Closed-form expression parsing and jet (truncated Taylor) evaluation.

Grammar, with standard precedence and no implicit multiplication:

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          right-associative, binds above unary minus
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

A NAME resolves, in this order, to a declared variable, a bound parameter,
one of sin cos tan exp log sqrt sinh cosh abs, or the constants pi and e.
Anything else is an unknown identifier, reported with its byte offset.

Evaluation is done with jets rather than symbolic differentiation: a
univariate `Jet` carries value and derivatives up to order 3 (enough for
the torsion formula, which needs third derivatives), a bivariate `Jet2`
carries value, both first partials and all second partials.  Jet fields
accept numpy arrays, so one evaluation can cover a whole sample grid.

One walker, `_eval`, evaluates a tree on jets.  An object passed to it
decides the leaves, the domain tests and the powers: `_Values` evaluates
on numpy arrays, the interpreter behind `eval_jet` and `eval_jet2`, and
`_Tape` traces.

The tree, never the values, decides how `a^b` is evaluated.  An exponent
b that reads no variable is a constant, and its value picks the rule
(`_pow_rule`): an integer power, whose base may be negative, or a real
power of a positive base.  Any other exponent takes exp(b log a), which
needs a > 0, even at points where b's partials vanish.  So a point and an
array that holds it take the same way, and a tape knows every way while
it traces.

A jet slot that is zero whatever the operands (the derivatives of a
constant or a parameter, a seed's slots but its own first derivative, and
what only they feed) is a structural zero, one `_Zero` object: it absorbs
* and / and is the identity of +, so no operation on it runs (zero minus
x is 0.0 - x, one operation, as -x would be).  A literal 0.0 would have
to be multiplied out, and 0.0 * inf is NaN where the true derivative is
finite.  `eval_jet`, `eval_jet2` and the tapes return the float 0.0 in
its place.

Every library evaluation of an expression runs a compiled tape, and the
`eval_jet` and `eval_jet2` interpreters are their reference.
`on_partials(fn, asts, at, args)` traces fn of the expressions' jets (the
Jets of curves, traces and profiles over (s,), the Jet2s of surfaces over
(u1, u2)) and of args read at call time (the lift's values, the field's
normal, the Darboux frame from the trace's derivatives) into one tape.
The first call with a new tree structure runs `_eval` on jets whose slots
are traced symbols, so the jet operators themselves record one
straight-line numpy function for all the trees at once: a structural
zero, an operation on constants only and x * 1.0 are decided while
tracing, an operation repeated on the same slots is emitted once (so y
and z of a revolution share sin(u2), but each computes its own profile,
which reads parameters), the lines that no result of
fn reads are dropped (the higher derivatives when fn reads none, and in a
field tape every value and partial the field does not read), and each
temporary is deleted after its last use.  Every slot fn reads equals the
interpreter's slot bit for bit, and with check=True the domain checks run
at their nodes in the interpreter's order, so an error has the same class
and offset.  The tape skips the interpreters' final broadcast: each
result keeps the shape of the operands it depends on, so with (n1, 1) and
(1, n2) operands a u2-only coordinate stays a (1, n2) row.  A compiled
tape keeps its operation counts (`TapeOps`).

Tapes are cached by the trees' structure alone, not by object.  Each
tree's parameters are read from that tree, and literals from their list,
at call time, so every wavy surface, every revolution of one profile
family, and every motion image of a surface in `verify` runs one tape.
The trees of one tape share an operation only when it reads no
parameter.  A literal or a parameter in an exponent is instead a
constant while tracing, so the tape knows every constant exponent; it is
part of the key, as its exact bits: Num(0.0) and Num(-0.0) are equal
nodes, and a NaN is not equal to itself.  At most TAPE_CACHE_SIZE tapes
are kept.
"""

from __future__ import annotations

import math
import operator
import re
import struct
import threading
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    ArityError,
    ExprDomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
)

Real = Union[float, np.ndarray]

_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "abs")
_CONSTANTS = {"pi": math.pi, "e": math.e}
# deepest expression `parse` accepts, both as nesting while parsing and as
# tree depth (a chain s+s+...+s is as deep as it is long); the parser and
# the evaluators recurse once per level
MAX_DEPTH = 100


# ---------------------------------------------------------------------------
# AST nodes (immutable after parsing)
# ---------------------------------------------------------------------------

class _Node:
    """Base of the AST nodes.  A node never changes, so data derived from
    its subtree is computed once and kept in the node's __dict__, which the
    dataclass equality and hash do not read."""

    @cached_property
    def free(self) -> frozenset[str]:
        """Names of the variables the subtree reads."""
        if isinstance(self, Var):
            return frozenset((self.name,))
        if isinstance(self, Bin):
            return self.lhs.free | self.rhs.free
        if isinstance(self, (Neg, Call)):
            return self.arg.free
        return frozenset()


@dataclass(frozen=True)
class Num(_Node):
    value: float
    offset: int = 0


@dataclass(frozen=True)
class Var(_Node):
    name: str
    offset: int = 0


@dataclass(frozen=True)
class Param(_Node):
    name: str
    offset: int = 0


@dataclass(frozen=True)
class Neg(_Node):
    arg: "Node"
    offset: int = 0


@dataclass(frozen=True)
class Bin(_Node):
    op: str  # one of + - * / ^
    lhs: "Node"
    rhs: "Node"
    offset: int = 0


@dataclass(frozen=True)
class Call(_Node):
    fn: str
    arg: "Node"
    offset: int = 0


Node = Union[Num, Var, Param, Neg, Bin, Call]


@dataclass(frozen=True)
class ExprAST:
    """A parsed expression plus its declared variables and bound parameters."""

    root: Node
    source: str
    variables: tuple[str, ...]
    params: dict[str, float] = field(default_factory=dict)

    @cached_property
    def structure(self) -> tuple[tuple, tuple]:
        """What a compiled tape reads of the expression: its key (the
        tree's shape, offsets, parameter names and variables) and its
        literals as float64 in tree order.  The tape reads the parameters
        themselves from `params` at call time.  A literal or a parameter in
        an exponent is a constant of the tape, which then knows the value
        of every exponent that reads no variable, so it enters the key as
        its exact bits (Num(0.0) == Num(-0.0) as nodes) and not the
        list."""
        literals: list = []

        def key(node: Node, exponent: bool) -> tuple:
            if isinstance(node, (Num, Param)) and exponent:
                value = node.value if isinstance(node, Num) else self.params[node.name]
                return ("num", struct.pack("<d", value), node.offset)
            if isinstance(node, Num):
                literals.append(np.float64(node.value))
                return ("num", node.offset)
            if isinstance(node, Bin):
                return (node.op, key(node.lhs, exponent),
                        key(node.rhs, exponent or node.op == "^"), node.offset)
            if isinstance(node, (Neg, Call)):
                return (getattr(node, "fn", "neg"), key(node.arg, exponent), node.offset)
            return (type(node).__name__, node.name, node.offset)

        return (key(self.root, False), self.variables), tuple(literals)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    rf"|(?P<name>{_NAME_RE.pattern})"
    r"|(?P<op>[+\-*/^()]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad = len(source) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {source[bad]!r}", bad)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens, variables, params):
        self.tokens = tokens
        self.i = 0
        self.variables = variables
        self.params = params
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.take()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}, found {text!r}", pos)

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                node = Bin(text, node, self.term(), pos)
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                node = Bin(text, node, self.unary(), pos)
            else:
                return node

    def unary(self) -> Node:
        kind, text, pos = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
        if kind == "op" and text == "-":
            self.take()
            node = Neg(self.unary(), pos)
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Node:
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.take()
            return Bin("^", base, self.unary(), pos)
        return base

    def atom(self) -> Node:
        kind, text, pos = self.take()
        if kind == "num":
            return Num(float(text), pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in _FUNCTIONS:
                    if text in self.variables or text in self.params:
                        raise ArityError(f"{text!r} is not a function", pos)
                    raise UnknownIdentifierError(f"unknown function {text!r}", pos)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg, pos)
            if text in self.variables:
                return Var(text, pos)
            if text in self.params:
                return Param(text, pos)
            if text in _CONSTANTS:
                return Num(_CONSTANTS[text], pos)
            if text in _FUNCTIONS:
                raise ArityError(f"function {text!r} requires an argument list", pos)
            raise UnknownIdentifierError(f"unknown identifier {text!r}", pos)
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)


def parse(
    source: str,
    variables: Sequence[str] = (),
    parameters: Mapping[str, float] | None = None,
) -> ExprAST:
    """Parse `source` over the declared variables and bound parameters.

    There is no implicit multiplication ("2s" is a syntax error) and every
    identifier must be declared, so typos fail at parse time rather than
    producing silently wrong geometry.
    """
    if not isinstance(source, str):
        raise ExprSyntaxError(
            f"expression must be a string, not {type(source).__name__}", 0)
    params = dict(parameters or {})
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    bad = [k for k in params if not (isinstance(k, str) and _NAME_RE.fullmatch(k))]
    if bad:
        raise ValueError(f"parameter names must be identifiers, got {sorted(bad, key=str)}")
    overlap = set(variables) & set(params)
    if overlap:
        raise ValueError(f"names declared both variable and parameter: {sorted(overlap)}")
    parser = _Parser(_tokenize(source), tuple(variables), params)
    root = parser.expr()
    kind, text, pos = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing token {text!r}", pos)
    _check_depth(root)
    return ExprAST(root, source, tuple(variables), params)


def _check_depth(root: Node) -> None:
    """Raise at the first node found deeper than MAX_DEPTH in the tree."""
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels",
                                  node.offset)
        if isinstance(node, Bin):
            stack += [(node.lhs, depth + 1), (node.rhs, depth + 1)]
        elif isinstance(node, (Neg, Call)):
            stack.append((node.arg, depth + 1))


# ---------------------------------------------------------------------------
# Tree utilities for building derived expressions (composition, transforms)
# ---------------------------------------------------------------------------

def _merge_params(*dicts: Mapping[str, float]) -> dict[str, float]:
    out: dict[str, float] = {}
    for d in dicts:
        for k, v in d.items():
            if k in out and out[k] != v:
                raise ValueError(f"parameter {k!r} bound to conflicting values")
            out[k] = v
    return out


def _subst_node(node: Node, mapping: Mapping[str, Node]) -> Node:
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    if isinstance(node, Neg):
        return Neg(_subst_node(node.arg, mapping), node.offset)
    if isinstance(node, Bin):
        return Bin(node.op, _subst_node(node.lhs, mapping),
                   _subst_node(node.rhs, mapping), node.offset)
    if isinstance(node, Call):
        return Call(node.fn, _subst_node(node.arg, mapping), node.offset)
    return node


def subst(ast: ExprAST, mapping: Mapping[str, ExprAST], variables: Sequence[str]) -> ExprAST:
    """Substitute replacement expressions for variables of `ast`.

    The result is declared over `variables`; parameters of all inputs are
    merged (conflicting bindings are an error).
    """
    root = _subst_node(ast.root, {k: v.root for k, v in mapping.items()})
    params = _merge_params(ast.params, *[v.params for v in mapping.values()])
    missing = root.free - set(variables)
    if missing:
        raise ValueError(f"substitution leaves unbound variables {sorted(missing)}")
    subs = ", ".join(f"{k}:={v.source}" for k, v in mapping.items())
    return ExprAST(root, f"{ast.source}[{subs}]", tuple(variables), params)


def const(value: float) -> ExprAST:
    return ExprAST(Num(float(value)), repr(float(value)), (), {})


def combine(op: str, a: ExprAST, b: ExprAST, variables: Sequence[str]) -> ExprAST:
    """Combine two parsed expressions with a binary operator into an
    expression in `variables`."""
    if op not in "+-*/^" or len(op) != 1:
        raise ValueError(f"unsupported operator {op!r}")
    params = _merge_params(a.params, b.params)
    root = Bin(op, a.root, b.root)
    missing = root.free - set(variables)
    if missing:
        raise ValueError(f"combination leaves undeclared variables {sorted(missing)}")
    return ExprAST(root, f"({a.source}){op}({b.source})", tuple(variables), params)


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

# numpy's arithmetic ufuncs, as the operator methods of _Zero they defer to
_ZERO_UFUNCS = {np.add: "add", np.subtract: "sub", np.multiply: "mul",
                np.divide: "truediv", np.negative: "neg"}


class _Zero:
    """The structural zero of a jet slot: the derivatives of a constant or
    a parameter, and a seed's slots but its own first derivative.  It
    absorbs *, / and the positive integer powers of the jet formulas (g1 **
    3), and it is the identity of + (and of x - zero), so a slot that is
    zero whatever the operands stays this object and no operation on it
    runs, in the interpreter and in a traced tape alike.  A literal 0.0
    would not do: 0.0 * inf is NaN.  numpy's arithmetic on it is these
    operators; any other ufunc (np.hypot of the normal) sees a plain 0.0."""

    __slots__ = ()

    def __mul__(self, other):
        return self

    __rmul__ = __truediv__ = __pow__ = __mul__

    def __neg__(self):
        return self

    def __add__(self, other):
        return other

    __radd__ = __rsub__ = __add__

    def __sub__(self, other):
        # 0.0 - x, not -x: a zero partial stays +0.0, as 0.0 - 0.0 gives it
        return self if other is self else 0.0 - other

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        name = _ZERO_UFUNCS.get(ufunc) if method == "__call__" and not kwargs else None
        if name is None:
            return getattr(ufunc, method)(*(0.0 if x is self else x for x in inputs),
                                          **kwargs)
        if len(inputs) == 1:
            return self
        a, b = inputs
        return getattr(a, f"__{name}__")(b) if a is self else getattr(b, f"__r{name}__")(a)

    def __repr__(self):
        return "_ZERO"


_ZERO = _Zero()


def _real(slot):
    """A slot with the structural zero as the float 0.0."""
    return 0.0 if slot is _ZERO else slot


class _JetOps:
    """Operators the jet classes share: +, - and negation slot by slot, in
    field order; each class supplies *, the reciprocal and the chain rule."""

    @classmethod
    def _coerce(cls, x):
        return x if isinstance(x, cls) else cls(np.asarray(x, dtype=float))

    @classmethod
    def constant(cls, value) -> "_JetOps":
        """The jet of a value that depends on no variable: every derivative
        slot is the structural zero."""
        return cls(value, *[_ZERO] * (len(fields(cls)) - 1))

    def _slots(self):
        # the dataclass __init__ sets the fields in field order
        return vars(self).values()

    def derivatives(self) -> tuple:
        return tuple(self._slots())[1:]

    def __add__(self, other):
        return type(self)(*map(operator.add, self._slots(), self._coerce(other)._slots()))

    __radd__ = __add__

    def __sub__(self, other):
        return type(self)(*map(operator.sub, self._slots(), self._coerce(other)._slots()))

    def __neg__(self):
        return type(self)(*map(operator.neg, self._slots()))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __truediv__(self, other):
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.reciprocal()


@dataclass(frozen=True)
class Jet(_JetOps):
    """Value plus derivatives w.r.t. one variable, up to order 3.

    Fields may be scalars or numpy arrays of a common broadcast shape;
    arithmetic follows the Leibniz and chain rules exactly.
    """

    ORDER = 3  # highest derivative order carried

    value: Real
    d1: Real = 0.0
    d2: Real = 0.0
    d3: Real = 0.0

    def __mul__(self, other):
        o = self._coerce(other)
        f0, f1, f2, f3 = self.value, self.d1, self.d2, self.d3
        g0, g1, g2, g3 = o.value, o.d1, o.d2, o.d3
        return Jet(
            f0 * g0,
            f1 * g0 + f0 * g1,
            f2 * g0 + 2.0 * f1 * g1 + f0 * g2,
            f3 * g0 + 3.0 * f2 * g1 + 3.0 * f1 * g2 + f0 * g3,
        )

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        g0, g1, g2, g3 = self.value, self.d1, self.d2, self.d3
        inv = 1.0 / g0
        inv2 = inv * inv
        return Jet(
            inv,
            -g1 * inv2,
            2.0 * g1 * g1 * inv2 * inv - g2 * inv2,
            6.0 * g1 * g2 * inv2 * inv - 6.0 * g1 ** 3 * inv2 * inv2 - g3 * inv2,
        )

    def compose(self, f0, f1, f2, f3) -> "Jet":
        """Chain rule through an outer function with derivatives f0..f3 at self.value."""
        g1, g2, g3 = self.d1, self.d2, self.d3
        return Jet(
            f0,
            f1 * g1,
            f2 * g1 * g1 + f1 * g2,
            f3 * g1 ** 3 + 3.0 * f2 * g1 * g2 + f1 * g3,
        )


@dataclass(frozen=True)
class Jet2(_JetOps):
    """Value, first partials and second partials w.r.t. two variables.

    The mixed partial is stored once (du1u2); symmetry holds by construction.
    """

    ORDER = 2  # highest derivative order carried

    value: Real
    du1: Real = 0.0
    du2: Real = 0.0
    du1u1: Real = 0.0
    du1u2: Real = 0.0
    du2u2: Real = 0.0

    def __mul__(self, other):
        o = self._coerce(other)
        f, g = self, o
        return Jet2(
            f.value * g.value,
            f.du1 * g.value + f.value * g.du1,
            f.du2 * g.value + f.value * g.du2,
            f.du1u1 * g.value + 2.0 * f.du1 * g.du1 + f.value * g.du1u1,
            f.du1u2 * g.value + f.du1 * g.du2 + f.du2 * g.du1 + f.value * g.du1u2,
            f.du2u2 * g.value + 2.0 * f.du2 * g.du2 + f.value * g.du2u2,
        )

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet2":
        g = self
        inv = 1.0 / g.value
        inv2 = inv * inv
        inv3 = inv2 * inv
        return Jet2(
            inv,
            -g.du1 * inv2,
            -g.du2 * inv2,
            2.0 * g.du1 * g.du1 * inv3 - g.du1u1 * inv2,
            2.0 * g.du1 * g.du2 * inv3 - g.du1u2 * inv2,
            2.0 * g.du2 * g.du2 * inv3 - g.du2u2 * inv2,
        )

    def compose(self, f0, f1, f2) -> "Jet2":
        g = self
        return Jet2(
            f0,
            f1 * g.du1,
            f1 * g.du2,
            f2 * g.du1 * g.du1 + f1 * g.du1u1,
            f2 * g.du1 * g.du2 + f1 * g.du1u2,
            f2 * g.du2 * g.du2 + f1 * g.du2u2,
        )


# ---------------------------------------------------------------------------
# Evaluators
# ---------------------------------------------------------------------------

def _outer_derivs(fn: str, v):
    """Derivatives of the named function at v, up to order 3."""
    if fn == "sin":
        s, c = np.sin(v), np.cos(v)
        return s, c, -s, -c
    if fn == "cos":
        s, c = np.sin(v), np.cos(v)
        return c, -s, -c, s
    if fn == "tan":
        t = np.tan(v)
        sec2 = 1.0 + t * t
        return t, sec2, 2.0 * t * sec2, 2.0 * sec2 * (1.0 + 3.0 * t * t)
    if fn == "exp":
        e = np.exp(v)
        return e, e, e, e
    if fn == "log":
        inv = 1.0 / v
        return np.log(v), inv, -inv * inv, 2.0 * inv ** 3
    if fn == "sqrt":
        r = np.sqrt(v)
        return r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v)
    if fn == "sinh":
        sh, ch = np.sinh(v), np.cosh(v)
        return sh, ch, sh, ch
    if fn == "cosh":
        sh, ch = np.sinh(v), np.cosh(v)
        return ch, sh, ch, sh
    if fn == "abs":
        sgn = np.sign(v)
        return np.abs(v), sgn, 0.0 * sgn, 0.0 * sgn
    raise ValueError(fn)


# domain tests, written as the code the tape emits; "{}" is the value
_TESTS = {
    "{} <= 0.0": lambda v: v <= 0.0,
    "{} < 0.0": lambda v: v < 0.0,
    "{} == 0.0": lambda v: v == 0.0,
}
# per function: (lowest order the test applies at, test, message)
_FUNCTION_DOMAINS = {
    "log": ((0, "{} <= 0.0", "log of non-positive value"),),
    "sqrt": ((0, "{} < 0.0", "sqrt of negative value"),
             (1, "{} == 0.0", "sqrt is not differentiable at 0")),
    "abs": ((0, "{} == 0.0", "abs is not differentiable at 0"),),
}


def _pow_derivs(v, c: float, max_order: int):
    """Derivatives of x**c at v; coefficient-guarded so 0**negative
    is never formed when its coefficient vanishes."""
    out = [v ** (int(c) if c == int(c) else c)]
    coeff = 1.0
    for k in range(1, max_order + 1):
        coeff *= c - (k - 1)
        if coeff == 0.0:
            out.append(0.0)
            continue
        e = c - k
        p = v ** (int(e) if e == int(e) else e)
        out.append(coeff * p)
    return out


def _pow_rule(c: float | None):
    """How base ** expo is evaluated for the constant exponent c (None when
    the exponent reads a variable): the exponent handed to _pow_derivs, or
    None for exp(expo log base), and the (test, message) of the base's
    domain, or None."""
    if c is not None and math.isfinite(c):
        if c == int(c) and abs(c) < 2 ** 31:
            n = int(c)
            return float(n), (("{} == 0.0", "zero raised to a negative power")
                              if n < 0 else None)
        return c, ("{} <= 0.0", "non-integer power of a non-positive base")
    # variable exponent: a^b = exp(b log a), needs a > 0
    return None, ("{} <= 0.0", "variable power of a non-positive base")


class _Values:
    """The leaves, domain tests and powers of `_eval` on numbers: the
    interpreter behind eval_jet and eval_jet2.  `_Tape` decides the leaves
    and the domain tests on traced slots, and traces the powers."""

    def __init__(self, kind, params: Mapping[str, float], check: bool):
        self.kind, self.params, self.check = kind, params, check

    def leaf(self, node: Num | Param, exponent: bool):
        """The jet of a literal or a parameter; `exponent` tells whether the
        visit is inside an exponent."""
        value = node.value if isinstance(node, Num) else self.params[node.name]
        return self.kind.constant(np.float64(value))

    def require(self, v, test: str, message: str, offset: int) -> None:
        """Raise ExprDomainError(message, offset) where `test` holds on v."""
        if self.check and np.any(_TESTS[test](v)):
            raise ExprDomainError(message, offset)

    def power(self, base, expo, offset: int, constant: bool):
        """base ** expo; `constant` tells whether the exponent's subtree
        reads no variable, so its value picks the power (_pow_rule)."""
        p, domain = _pow_rule(float(expo.value) if constant else None)
        if domain:
            self.require(base.value, *domain, offset)
        if p is not None:
            return base.compose(*_pow_derivs(base.value, p, base.ORDER))
        logb = base.compose(*_outer_derivs("log", base.value)[:base.ORDER + 1])
        prod = expo * logb
        return prod.compose(*_outer_derivs("exp", prod.value)[:prod.ORDER + 1])


def _eval(root: Node, seeds: dict, order: int, values):
    """Evaluate the tree `root` with each variable bound to its seed jet.

    `values` decides the leaves, the domain tests and the powers (_Values
    on numbers, _Tape on traced slots); an exponent counts as constant
    when its subtree reads no variable.  The jet class (Jet or Jet2) of the
    result is the class of the seeds; `order` only gates the
    derivative-domain checks.
    """

    def ev(node: Node, exponent: bool = False):
        if isinstance(node, (Num, Param)):
            return values.leaf(node, exponent)
        if isinstance(node, Var):
            return seeds[node.name]
        if isinstance(node, Neg):
            return -ev(node.arg, exponent)
        if isinstance(node, Call):
            arg = ev(node.arg, exponent)
            for lowest, test, message in _FUNCTION_DOMAINS.get(node.fn, ()):
                if order >= lowest:
                    values.require(arg.value, test, message, node.offset)
            return arg.compose(*_outer_derivs(node.fn, arg.value)[:arg.ORDER + 1])
        if isinstance(node, Bin):
            lhs = ev(node.lhs, exponent)
            rhs = ev(node.rhs, exponent or node.op == "^")
            if node.op == "^":
                return values.power(lhs, rhs, node.offset, not node.rhs.free)
            if node.op == "+":
                return lhs + rhs
            if node.op == "-":
                return lhs - rhs
            if node.op == "*":
                return lhs * rhs
            values.require(rhs.value, "{} == 0.0", "division by zero", node.offset)
            return lhs / rhs
        raise TypeError(f"unknown node {node!r}")

    return ev(root)


def eval_jet(ast: ExprAST, at, order: int = 3, *, check: bool = True) -> Jet:
    """Evaluate a univariate expression, returning derivatives up to `order`.

    `at` may be a scalar, which runs as a one-element array and keeps its
    signed zeros, or a numpy array, whose shape every slot gets as a new
    writable array.  Slots above `order` are zeroed.
    With check=False, domain violations produce NaN instead of raising,
    which is what grid shading wants for isolated singular points.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError("order must be 0..3")
    return _interpret(Jet, ast, (at,), order, check)


def _interpret(kind, ast: ExprAST, at, order: int, check: bool):
    """The body of eval_jet and eval_jet2: the jet of `kind` of `ast` at the
    operands `at`, with the slots above `order` zeroed."""
    if len(ast.variables) != (1 if kind is Jet else 2):
        raise _arity_error(ast, kind)
    at, point = _as_arrays(at)
    with np.errstate(all="ignore"):
        j = _eval(ast.root, _seeds(ast.variables, at), order, _Values(kind, ast.params, check))
    zeroed = kind.ORDER - order  # the Jet slots above order
    slots = [_real(x) for x in (j.value, *j.derivatives())]
    slots = slots[:len(slots) - zeroed] + [0.0] * zeroed
    if point:
        return kind(*(np.float64(_first(x)) for x in slots))
    shape = np.broadcast_shapes(*(a.shape for a in at))
    return kind(*(_broadcast(x, shape) for x in slots))


def _arity_error(ast: ExprAST, kind) -> ArityError:
    """The interpreter's error for an expression that is not of kind's arity."""
    if kind is Jet:
        return ArityError(f"eval_jet needs exactly one declared variable, got {ast.variables}")
    return ArityError(f"eval_jet2 needs exactly two declared variables, got {ast.variables}")


def _seeds(variables: Sequence[str], at: Sequence) -> dict:
    """Each variable's seed at its operand, a Jet for one and Jet2s for two,
    with every slot but its own first derivative the structural zero."""
    if len(variables) == 1:
        return {variables[0]: Jet(at[0], np.float64(1.0), _ZERO, _ZERO)}
    u1, u2 = at
    return {variables[0]: Jet2(u1, np.float64(1.0), _ZERO, _ZERO, _ZERO, _ZERO),
            variables[1]: Jet2(u2, _ZERO, np.float64(1.0), _ZERO, _ZERO, _ZERO)}


def eval_jet2(ast: ExprAST, at, *, check: bool = True) -> Jet2:
    """Evaluate a bivariate expression: value, first and second partials.

    `at` is a pair (u1, u2) of scalars or broadcastable numpy arrays; a
    point runs as one-element arrays and keeps its signed zeros; arrays
    give every slot their broadcast shape, as a new writable array.
    """
    return _interpret(Jet2, ast, at, 2, check)


def _broadcast(slot, shape) -> np.ndarray:
    """A slot as a new float array of the operands' shape: a constant
    subresult repeated, with no arithmetic on it (adding a zero would make
    -0.0 +0.0, and inf * 0.0 NaN)."""
    out = np.empty(shape)
    out[...] = slot
    return out


def _as_arrays(at) -> tuple[tuple[np.ndarray, ...], bool]:
    """The operands (s,) or (u1, u2) as float arrays, one-element ones for
    a point (numpy's scalar power can differ from its array loop in the
    last bit), and whether it is a point."""
    arrays = tuple(np.asarray(v, dtype=float) for v in at)
    point = not any(a.ndim for a in arrays)
    return (tuple(a.reshape(1) for a in arrays) if point else arrays), point


def _first(slot):
    """The point's slot of a one-element evaluation."""
    return slot[0] if np.ndim(slot) else slot


# ---------------------------------------------------------------------------
# Compiled tapes
# ---------------------------------------------------------------------------

# compiled tapes kept at once; beyond it the oldest is dropped
TAPE_CACHE_SIZE = 64

_TAPES: dict[tuple, object] = {}
_TAPES_LOCK = threading.Lock()
# numpy ufuncs a traced value meets, written as the operators the
# jet formulas use; every other ufunc is written as np.<name>(...)
_OPERATORS = {"add": "{} + {}", "subtract": "{} - {}", "multiply": "{} * {}",
              "divide": "{} / {}", "power": "{} ** {}", "negative": "-{}"}


def on_partials(fn, asts: Sequence[ExprAST], at, args: Sequence[float | np.ndarray] = (),
                *, check: bool = True) -> tuple:
    """fn(*jets, *args) through one compiled tape, where `jets` are the
    Jets of univariate expressions `asts` at at = (s,), or the Jet2s of
    bivariate ones at (u1, u2), and `args` are numbers, or arrays that
    broadcast with `at`, read at call time.

    fn is traced once per structure of the expressions, on jets of traced
    slots: it must be arithmetic and numpy ufuncs on their slots and on its
    other arguments, return a tuple, and keep its identity (it is part of
    the cache key).  The tape computes only what fn's results read.  Each
    result equals fn on the interpreter's own jets, bit for bit (those of
    `eval_jet` at order 3 or `eval_jet2` before they make the structural
    zeros 0.0 and broadcast), on the shape of the operands it depends on; a
    point runs as one-element arrays and gives scalars, as there.  An error
    is the interpreter's error, at the same offset.  The tape is cached by
    the check mode, the expressions' structure (literals and parameters in
    exponents by their exact bits), fn and the number of args; each
    expression's other parameters and literals are read from it at call
    time.
    """
    tape = _compiled(asts, check, fn, len(args))
    at, point = _as_arrays(at)
    with np.errstate(all="ignore"):
        out = tape(at, asts, [a.structure[1] for a in asts], args)
    return tuple(map(_first, out)) if point else out


def _compiled(asts: Sequence[ExprAST], check: bool, fn, nargs: int):
    """The cached tape of on_partials."""
    key = (check, *[a.structure[0] for a in asts], fn, nargs)
    tape = _TAPES.get(key)
    if tape is None:
        with np.errstate(all="ignore"):
            tape = _Tape(asts, check, fn, nargs).compile()
        with _TAPES_LOCK:
            if len(_TAPES) >= TAPE_CACHE_SIZE:
                _TAPES.pop(next(iter(_TAPES)))
            _TAPES[key] = tape
    return tape


class _Sym:
    """A slot known only at run time, while a tape is traced.  Arithmetic
    and numpy ufuncs on it append a line to the tape and return the _Sym of
    the result; constants meeting constants fold in plain Python, and the
    structural zero decides its own operations."""

    __slots__ = ("tape", "name")

    def __init__(self, tape: "_Tape", name: str):
        self.tape, self.name = tape, name

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs or any(x is _ZERO for x in inputs):
            return NotImplemented
        form = (_OPERATORS.get(ufunc.__name__)
                or f"np.{ufunc.__name__}({', '.join(['{}'] * len(inputs))})")
        return self.tape.op(form, *inputs)

    def __neg__(self):
        return self.tape.op("-{}", self)


for _name, _form in (("add", "{} + {}"), ("sub", "{} - {}"), ("mul", "{} * {}"),
                     ("truediv", "{} / {}"), ("pow", "{} ** {}")):
    setattr(_Sym, f"__{_name}__", lambda a, b, form=_form:
            NotImplemented if b is _ZERO else a.tape.op(form, a, b))
    setattr(_Sym, f"__r{_name}__", lambda a, b, form=_form:
            NotImplemented if b is _ZERO else a.tape.op(form, b, a))


def _const_key(x) -> tuple:
    """A constant by type and exact value: 0.0 and -0.0 differ, a NaN
    equals itself."""
    return (type(x), x if type(x) in (int, _Zero) else struct.pack("<d", x))


class _Tape(_Values):
    """Traces `_eval` on jets whose slots are _Syms into one straight-line
    function tape(at, A, L, D) of the operands (s,) or (u1, u2), the
    expressions (whose parameters it reads), their literals (see
    ExprAST.structure) and the arguments of fn.  It returns what fn
    returns of the jet of each expression: Jets when the first expression
    has one variable, else Jet2s, with the domain checks gated at the
    jet's ORDER.

    The walk and the jet formulas are the interpreter's, so every slot is
    equal bit for bit.  A structural zero (_Zero) is decided here, as is an
    operation on constants only and x * 1.0; the same operation on the
    same slots is emitted once; lines whose results fn's results do not
    read are dropped, and each temporary is deleted after its last use.
    Domain checks (check=True) are emitted at their nodes in evaluation
    order; one whose value is a constant is decided here.  The results
    turn a structural zero into the float 0.0.  The function keeps its
    operation counts as `ops` (TapeOps).
    """

    def __init__(self, asts: Sequence[ExprAST], check: bool, fn, nargs: int):
        super().__init__(Jet if len(asts[0].variables) == 1 else Jet2, {}, check)
        self.asts, self.fn, self.nargs = asts, fn, nargs
        self.operands = ("S",) if self.kind is Jet else ("U1", "U2")
        self.env = {"np": np, "ExprDomainError": ExprDomainError,
                    "_arity_error": _arity_error, "kind": self.kind}
        self.lines: list[tuple[str, tuple, tuple, bool]] = []  # code, defs, uses, pure
        self.memo: dict[tuple, object] = {}
        self.consts: dict[tuple, str] = {}

    def ref(self, x) -> str:
        if isinstance(x, _Sym):
            return x.name
        key = _const_key(x)
        if key not in self.consts:
            self.consts[key] = f"k{len(self.consts)}"
            self.env[self.consts[key]] = x
        return self.consts[key]

    def emit(self, code: str, uses=(), outs: int = 1, pure: bool = True):
        """Append `defs = code` (a statement when outs == 0)."""
        defs = tuple(_Sym(self, f"t{len(self.lines)}_{k}") for k in range(outs))
        names = tuple(d.name for d in defs)
        if defs:
            code = f"{', '.join(names)} = {code}"
        self.lines.append((code, names, tuple(u.name for u in uses if isinstance(u, _Sym)),
                           pure))
        return defs

    def op(self, form: str, *args):
        if form == "{} * {}":
            # x * 1.0 is x bit for bit (0.0 * x is not: inf * 0.0 is NaN)
            a, b = args
            if not isinstance(a, _Sym) and a == 1.0:
                return b
            if not isinstance(b, _Sym) and b == 1.0:
                return a
        key = (form, *[a.name if isinstance(a, _Sym) else _const_key(a) for a in args])
        if key not in self.memo:
            self.memo[key] = self.emit(form.format(*map(self.ref, args)), args)[0]
        return self.memo[key]

    def require(self, v, test: str, message: str, offset: int) -> None:
        if not self.check:
            return
        raising = f"raise ExprDomainError({message!r}, {offset})"
        if not isinstance(v, _Sym):
            if np.any(_TESTS[test](v)):
                self.emit(raising, (), 0, False)
        elif ("require", test, v.name) not in self.memo:
            # a test already passed on the same slot passes again
            self.memo["require", test, v.name] = True
            self.emit(f"if ({test.format(v.name)}).any(): {raising}", (v,), 0, False)

    def load(self, code: str, pure: bool = True):
        if code not in self.memo:
            self.memo[code] = self.emit(code, pure=pure)[0]
        return self.memo[code]

    def leaf(self, node: Num | Param, exponent: bool):
        if exponent:
            # keyed by its bits, so the tape knows every constant exponent
            return super().leaf(node, exponent)
        if isinstance(node, Param):
            return self.kind.constant(self.load(
                f"np.float64(A[{self.i}].params[{node.name!r}])", pure=False))
        self.literals += 1
        return self.kind.constant(self.load(f"L[{self.i}][{self.literals - 1}]"))

    def compile(self):
        out: list | None = []
        operands = [_Sym(self, name) for name in self.operands]
        for i, ast in enumerate(self.asts):
            if len(ast.variables) != len(operands):
                self.emit(f"raise _arity_error(A[{i}], kind)", outs=0, pure=False)
                out = None
                break
            if i == 0:
                self.lines.append((f"{', '.join(self.operands)}, = at", self.operands, (), False))
            self.i, self.literals, self.params = i, 0, ast.params
            out.append(_eval(ast.root, _seeds(ast.variables, operands), self.kind.ORDER, self))
        if out is not None:
            results = self.fn(*out, *[self.load(f"D[{k}]") for k in range(self.nargs)])
            code = "".join(f"{self.ref(_real(s))}, " for s in results)
            self.emit(f"({code})", results, 0, False)
            self.lines[-1] = ("return " + self.lines[-1][0],) + self.lines[-1][1:]
        kept = []  # (code, defs, uses, names deleted after it), last line first
        live: set[str] = set()
        for k, (code, defs, uses, pure) in enumerate(reversed(self.lines)):
            if pure and not live.intersection(defs):
                continue
            kept.append((code, defs, uses,
                         [n for n in dict.fromkeys(uses + defs) if n not in live] if k else []))
            live.difference_update(defs)
            live.update(uses)
        kept.reverse()
        src = "def tape(at, A, L, D):\n" + "".join(
            f"    {code}\n" + (f"    del {', '.join(dead)}\n" if dead else "")
            for code, _, _, dead in kept)
        exec(compile(src, "<tape>", "exec"), self.env)
        tape = self.env["tape"]
        tape.ops = _count_ops(kept, self.operands)
        return tape


class TapeOps(NamedTuple):
    """What one call of a compiled tape runs (its `ops`): the lines that
    compute on a run-time slot, those of them whose result depends on
    every operand (for a bivariate tape both u1 and u2, a full grid where
    the operands are an (n1, 1) column and a (1, n2) row, as field_grid
    passes them; for a univariate tape s, the whole sample array), and the
    most temporaries alive at once."""

    operations: int
    full_grid: int
    peak_live: int


def _count_ops(kept, operands: Sequence[str]) -> TapeOps:
    grid = set(operands)
    deps: dict[str, set] = {}
    operations = full_grid = peak = 0
    live: set[str] = set()
    for code, defs, uses, dead in kept[:-1]:  # the last line returns
        d = set().union(*(deps[u] for u in uses))
        for n in defs:
            deps[n] = d or {n} & grid
        if uses:
            operations += 1
            full_grid += d == grid
        live.update(n for n in defs if n not in grid)
        peak = max(peak, len(live))
        live.difference_update(dead)
    return TapeOps(operations, full_grid, peak)
