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

The shading field reads only first partials, so it evaluates on the
private first-order `_Jet1` (value, du1, du2), whose slots are the first
three slots of `Jet2` bit for bit.  That path (`_eval_first`) also skips
the final broadcast of `eval_jet2`: each result keeps the shape of the
operands it depends on, so with (n1, 1) and (1, n2) operands a u2-only
coordinate stays a (1, n2) row.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence, Union

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

@dataclass(frozen=True)
class Num:
    value: float
    offset: int = 0


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = 0


@dataclass(frozen=True)
class Param:
    name: str
    offset: int = 0


@dataclass(frozen=True)
class Neg:
    arg: "Node"
    offset: int = 0


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    lhs: "Node"
    rhs: "Node"
    offset: int = 0


@dataclass(frozen=True)
class Call:
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


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
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
    params = dict(parameters or {})
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
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

def free_variables(node: Node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return free_variables(node.arg)
    if isinstance(node, Bin):
        return free_variables(node.lhs) | free_variables(node.rhs)
    if isinstance(node, Call):
        return free_variables(node.arg)
    return set()


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
    missing = free_variables(root) - set(variables)
    if missing:
        raise ValueError(f"substitution leaves unbound variables {sorted(missing)}")
    subs = ", ".join(f"{k}:={v.source}" for k, v in mapping.items())
    return ExprAST(root, f"{ast.source}[{subs}]", tuple(variables), params)


def const(value: float) -> ExprAST:
    return ExprAST(Num(float(value)), repr(float(value)), (), {})


def combine(op: str, a: ExprAST, b: ExprAST,
            variables: Sequence[str] | None = None) -> ExprAST:
    """Combine two parsed expressions with a binary operator."""
    if op not in "+-*/^" or len(op) != 1:
        raise ValueError(f"unsupported operator {op!r}")
    if variables is None:
        merged = list(a.variables)
        merged += [v for v in b.variables if v not in merged]
        variables = merged
    params = _merge_params(a.params, b.params)
    root = Bin(op, a.root, b.root)
    missing = free_variables(root) - set(variables)
    if missing:
        raise ValueError(f"combination leaves undeclared variables {sorted(missing)}")
    return ExprAST(root, f"({a.source}){op}({b.source})", tuple(variables), params)


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

class _JetOps:
    """Operators the jet classes share; each class supplies +, -, *, the
    reciprocal, the chain rule and the list of its derivative slots."""

    @classmethod
    def _coerce(cls, x):
        return x if isinstance(x, cls) else cls(np.asarray(x, dtype=float))

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

    def derivatives(self) -> tuple:
        return self.d1, self.d2, self.d3

    def __add__(self, other):
        o = self._coerce(other)
        return Jet(self.value + o.value, self.d1 + o.d1, self.d2 + o.d2, self.d3 + o.d3)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet(self.value - o.value, self.d1 - o.d1, self.d2 - o.d2, self.d3 - o.d3)

    def __neg__(self):
        return Jet(-self.value, -self.d1, -self.d2, -self.d3)

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

    def derivatives(self) -> tuple:
        return self.du1, self.du2, self.du1u1, self.du1u2, self.du2u2

    def __add__(self, other):
        o = self._coerce(other)
        return Jet2(self.value + o.value, self.du1 + o.du1, self.du2 + o.du2,
                    self.du1u1 + o.du1u1, self.du1u2 + o.du1u2, self.du2u2 + o.du2u2)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet2(self.value - o.value, self.du1 - o.du1, self.du2 - o.du2,
                    self.du1u1 - o.du1u1, self.du1u2 - o.du1u2, self.du2u2 - o.du2u2)

    def __neg__(self):
        return Jet2(-self.value, -self.du1, -self.du2, -self.du1u1, -self.du1u2, -self.du2u2)

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


@dataclass(frozen=True)
class _Jet1(_JetOps):
    """Value and first partials w.r.t. two variables: the first three slots
    of Jet2, computed by the same formulas, so they are equal bit for bit."""

    ORDER = 1  # highest derivative order carried

    value: Real
    du1: Real = 0.0
    du2: Real = 0.0

    def derivatives(self) -> tuple:
        return self.du1, self.du2

    def __add__(self, other):
        o = self._coerce(other)
        return _Jet1(self.value + o.value, self.du1 + o.du1, self.du2 + o.du2)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return _Jet1(self.value - o.value, self.du1 - o.du1, self.du2 - o.du2)

    def __neg__(self):
        return _Jet1(-self.value, -self.du1, -self.du2)

    def __mul__(self, other):
        f, g = self, self._coerce(other)
        return _Jet1(f.value * g.value,
                     f.du1 * g.value + f.value * g.du1,
                     f.du2 * g.value + f.value * g.du2)

    __rmul__ = __mul__

    def reciprocal(self) -> "_Jet1":
        inv = 1.0 / self.value
        inv2 = inv * inv
        return _Jet1(inv, -self.du1 * inv2, -self.du2 * inv2)

    def compose(self, f0, f1) -> "_Jet1":
        return _Jet1(f0, f1 * self.du1, f1 * self.du2)


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


def _check_function_domain(fn: str, v, order: int, node: Node, check: bool):
    if not check:
        return
    if fn == "log" and np.any(v <= 0.0):
        raise ExprDomainError("log of non-positive value", node.offset)
    if fn == "sqrt":
        if np.any(v < 0.0):
            raise ExprDomainError("sqrt of negative value", node.offset)
        if order >= 1 and np.any(v == 0.0):
            raise ExprDomainError("sqrt is not differentiable at 0", node.offset)
    if fn == "abs" and np.any(v == 0.0):
        raise ExprDomainError("abs is not differentiable at 0", node.offset)


def _constant_exponent(j) -> float | None:
    """Return the exponent as a plain float if it has no variable dependence."""
    if np.ndim(j.value) != 0:
        return None
    if any(np.any(s != 0.0) for s in j.derivatives()):
        return None
    return float(j.value)


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


def _eval_pow(base, expo, c: float | None, node: Node, check: bool):
    """base ** expo, where c is the exponent as a constant, or None."""
    if c is not None and math.isfinite(c):
        if c == int(c) and abs(c) < 2 ** 31:
            n = int(c)
            if n < 0 and check and np.any(base.value == 0.0):
                raise ExprDomainError("zero raised to a negative power", node.offset)
            d = _pow_derivs(base.value, float(n), base.ORDER)
        else:
            if check and np.any(base.value <= 0.0):
                raise ExprDomainError(
                    "non-integer power of a non-positive base", node.offset)
            d = _pow_derivs(base.value, c, base.ORDER)
        return base.compose(*d)
    # variable exponent: a^b = exp(b log a), needs a > 0
    if check and np.any(base.value <= 0.0):
        raise ExprDomainError("variable power of a non-positive base", node.offset)
    logb = base.compose(*_outer_derivs("log", base.value)[:base.ORDER + 1])
    prod = expo * logb
    return prod.compose(*_outer_derivs("exp", prod.value)[:prod.ORDER + 1])


def _eval(ast: ExprAST, seeds: dict, order: int, check: bool):
    """Evaluate `ast` with each variable bound to its seed jet.

    The jet class (Jet, Jet2 or _Jet1) of the result is the class of the
    seeds; `order` only gates the derivative-domain checks.
    """
    kind = type(next(iter(seeds.values())))

    def ev(node: Node):
        if isinstance(node, Num):
            return kind(np.float64(node.value))
        if isinstance(node, Param):
            return kind(np.float64(ast.params[node.name]))
        if isinstance(node, Var):
            return seeds[node.name]
        if isinstance(node, Neg):
            return -ev(node.arg)
        if isinstance(node, Call):
            arg = ev(node.arg)
            _check_function_domain(node.fn, arg.value, order, node, check)
            return arg.compose(*_outer_derivs(node.fn, arg.value)[:kind.ORDER + 1])
        if isinstance(node, Bin):
            lhs = ev(node.lhs)
            rhs = ev(node.rhs)
            if node.op == "^":
                c = _constant_exponent(rhs)
                if c is not None and kind is _Jet1 and not isinstance(node.rhs, (Num, Param)):
                    # Jet2 calls an exponent constant only if its second
                    # partials vanish too (at a scalar point, or where they
                    # are NaN), so decide on its slots
                    c = _constant_exponent(_eval(
                        replace(ast, root=node.rhs),
                        {v: Jet2(j.value, j.du1, j.du2) for v, j in seeds.items()},
                        order, check))
                return _eval_pow(lhs, rhs, c, node, check)
            if node.op == "+":
                return lhs + rhs
            if node.op == "-":
                return lhs - rhs
            if node.op == "*":
                return lhs * rhs
            if check and np.any(rhs.value == 0.0):
                raise ExprDomainError("division by zero", node.offset)
            return lhs / rhs
        raise TypeError(f"unknown node {node!r}")

    return ev(ast.root)


def eval_jet(ast: ExprAST, at, order: int = 3, *, check: bool = True) -> Jet:
    """Evaluate a univariate expression, returning derivatives up to `order`.

    `at` may be a scalar or a numpy array.  Slots above `order` are zeroed.
    With check=False, domain violations produce NaN instead of raising,
    which is what grid shading wants for isolated singular points.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError("order must be 0..3")
    if len(ast.variables) != 1:
        raise ArityError(
            f"eval_jet needs exactly one declared variable, got {ast.variables}")
    at = np.asarray(at, dtype=float)
    seeds = {ast.variables[0]: Jet(at, np.float64(1.0))}
    with np.errstate(all="ignore"):
        j = _eval(ast, seeds, order, check)
    # broadcast constant subresults to the sample shape, zero unused slots
    shaped = at * 0.0 if np.ndim(at) else np.float64(0.0)
    d1 = j.d1 + shaped if order >= 1 else shaped
    d2 = j.d2 + shaped if order >= 2 else shaped
    d3 = j.d3 + shaped if order >= 3 else shaped
    return Jet(j.value + shaped, d1, d2, d3)


def _bivariate_seeds(ast: ExprAST, at, kind) -> tuple:
    if len(ast.variables) != 2:
        raise ArityError(
            f"eval_jet2 needs exactly two declared variables, got {ast.variables}")
    u1, u2 = (np.asarray(v, dtype=float) for v in at)
    return u1, u2, {
        ast.variables[0]: kind(u1, np.float64(1.0), np.float64(0.0)),
        ast.variables[1]: kind(u2, np.float64(0.0), np.float64(1.0)),
    }


def _eval_first(ast: ExprAST, at, *, check: bool = True) -> _Jet1:
    """Value and first partials of a bivariate expression, not broadcast.

    The slots equal the first three of `eval_jet2` before its final
    broadcast, bit for bit; each keeps the shape of the operands it
    depends on (a scalar where it depends on none).
    """
    _, _, seeds = _bivariate_seeds(ast, at, _Jet1)
    with np.errstate(all="ignore"):
        return _eval(ast, seeds, 1, check)


def eval_jet2(ast: ExprAST, at, *, check: bool = True) -> Jet2:
    """Evaluate a bivariate expression: value, first and second partials.

    `at` is a pair (u1, u2) of scalars or broadcastable numpy arrays.
    """
    u1, u2, seeds = _bivariate_seeds(ast, at, Jet2)
    with np.errstate(all="ignore"):
        j = _eval(ast, seeds, 2, check)
    if np.ndim(u1) or np.ndim(u2):
        shaped = (u1 + u2) * 0.0
        return Jet2(j.value + shaped, j.du1 + shaped, j.du2 + shaped,
                    j.du1u1 + shaped, j.du1u2 + shaped, j.du2u2 + shaped)
    return j
