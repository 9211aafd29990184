"""Parser and jet arithmetic tests.

Derivatives are checked two ways: first derivatives against central
finite differences of order-0 evaluation, and all orders against an
independent symbolic differentiator written here (itself spot-checked
against sympy on a mixed sample of expressions).
"""

import math

import numpy as np
import pytest

from g3geom import expr
from g3geom.errors import (
    ArityError,
    ExprDomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
)
from g3geom.expr import Bin, Call, Neg, Num, Param, Var

# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

def test_parse_basic_curve_expression():
    ast = expr.parse("s^2/(2*c)", ["s"], {"c": 1.0})
    assert ast.variables == ("s",)
    assert ast.params == {"c": 1.0}


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        expr.parse("g(s)*sin(t)", ["s", "t"])


def test_parse_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError) as exc:
        expr.parse("2s", ["s"])
    assert exc.value.offset == 1


def test_parse_empty_and_trailing():
    with pytest.raises(ExprSyntaxError):
        expr.parse("", ["s"])
    with pytest.raises(ExprSyntaxError):
        expr.parse("s +", ["s"])
    with pytest.raises(ExprSyntaxError):
        expr.parse("(s", ["s"])


def test_parse_bounds_depth():
    # 3000 nested brackets overflow a recursive parser, and a 1500-term
    # sum parses flat but is 1500 levels deep for a recursive evaluator
    nested = "(" * 3000 + "s" + ")" * 3000
    chain = "+".join(["s"] * 1500)
    for source in (nested, chain, "-" * 3000 + "s", "s" + "^s" * 3000):
        with pytest.raises(ExprSyntaxError, match="nested deeper") as exc:
            expr.parse(source, ["s"])
        assert 0 < exc.value.offset < len(source)
    depth = expr.MAX_DEPTH
    at_limit = "(" * (depth - 1) + "s" + ")" * (depth - 1)
    assert float(expr.eval_jet(expr.parse(at_limit, ["s"]), 0.5).value) == 0.5
    longest = "+".join(["s"] * depth)
    assert float(expr.eval_jet(expr.parse(longest, ["s"]), 0.5).value) == 0.5 * depth
    with pytest.raises(ExprSyntaxError):
        expr.parse("(" + at_limit + ")", ["s"])
    with pytest.raises(ExprSyntaxError):
        expr.parse(longest + "+s", ["s"])


def test_parse_function_arity():
    with pytest.raises(ArityError):
        expr.parse("sin + 1", ["s"])
    with pytest.raises(ArityError):
        expr.parse("s(2)", ["s"])


def test_variable_parameter_overlap_rejected():
    with pytest.raises(ValueError):
        expr.parse("s", ["s"], {"s": 1.0})


def test_precedence_and_associativity():
    def v(src, at=2.0, params=None):
        return float(expr.eval_jet(expr.parse(src, ["s"], params or {}), at, 0).value)

    assert v("-s^2") == -4.0            # ^ binds above unary minus
    assert v("2^3^2", 0.0) == 512.0     # right-associative
    assert v("2^-3", 0.0) == 0.125      # unary minus allowed in exponents
    assert v("1 - 2 - 3", 0.0) == -4.0  # left-associative sums
    assert v("12/2/3", 0.0) == 2.0
    assert v("1 + 2*s") == 5.0
    assert v("pi", 0.0) == pytest.approx(math.pi)
    assert v("e", 0.0) == pytest.approx(math.e)


# ---------------------------------------------------------------------------
# jet evaluation: spec'd examples
# ---------------------------------------------------------------------------

def test_eval_jet_polynomial():
    j = expr.eval_jet(expr.parse("s^2", ["s"]), 3.0, 2)
    assert (j.value, j.d1, j.d2, j.d3) == (9.0, 6.0, 2.0, 0.0)


def test_eval_jet_sine_taylor():
    j = expr.eval_jet(expr.parse("sin(s)", ["s"]), 0.0, 3)
    assert (j.value, j.d1, j.d2, j.d3) == (0.0, 1.0, 0.0, -1.0)


def test_eval_jet_with_parameter():
    j = expr.eval_jet(expr.parse("s^2/(2*c)", ["s"], {"c": 1.0}), 2.0, 3)
    assert (j.value, j.d1, j.d2, j.d3) == (2.0, 2.0, 1.0, 0.0)


def test_eval_jet_order_zeroes_slots():
    j = expr.eval_jet(expr.parse("s^3", ["s"]), 2.0, 1)
    assert (j.value, j.d1, j.d2, j.d3) == (8.0, 12.0, 0.0, 0.0)


def test_eval_jet2_product():
    j = expr.eval_jet2(expr.parse("u1*u2", ["u1", "u2"]), (2.0, 3.0))
    assert (j.value, j.du1, j.du2) == (6.0, 3.0, 2.0)
    assert (j.du1u1, j.du1u2, j.du2u2) == (0.0, 1.0, 0.0)


def test_eval_jet2_trig_product():
    j = expr.eval_jet2(expr.parse("u1*sin(u2)", ["u1", "u2"]), (1.0, 0.0))
    assert (j.value, j.du1, j.du2, j.du1u2) == (0.0, 0.0, 1.0, 1.0)


def test_eval_jet2_constant():
    j = expr.eval_jet2(expr.parse("5", ["u1", "u2"]), (0.3, 0.7))
    assert j.value == 5.0
    assert j.du1 == j.du2 == j.du1u1 == j.du1u2 == j.du2u2 == 0.0


def test_eval_jet_array_broadcast():
    S = np.linspace(0.0, 1.0, 7)
    j = expr.eval_jet(expr.parse("0", ["s"]), S, 3)
    assert j.value.shape == S.shape
    assert np.all(j.value == 0.0)


# ---------------------------------------------------------------------------
# domain errors
# ---------------------------------------------------------------------------

def test_domain_errors_report_offset():
    ast = expr.parse("1 + log(s)", ["s"])
    with pytest.raises(ExprDomainError) as exc:
        expr.eval_jet(ast, -1.0, 0)
    assert exc.value.offset == 4

    with pytest.raises(ExprDomainError):
        expr.eval_jet(expr.parse("sqrt(s)", ["s"]), -0.5, 0)
    with pytest.raises(ExprDomainError):
        expr.eval_jet(expr.parse("1/s", ["s"]), 0.0, 0)
    with pytest.raises(ExprDomainError):
        expr.eval_jet(expr.parse("abs(s)", ["s"]), 0.0, 0)


def test_sqrt_at_zero_order_dependent():
    ast = expr.parse("sqrt(s)", ["s"])
    assert expr.eval_jet(ast, 0.0, 0).value == 0.0
    with pytest.raises(ExprDomainError):
        expr.eval_jet(ast, 0.0, 1)


def test_unchecked_mode_produces_nan():
    ast = expr.parse("log(s)", ["s"])
    j = expr.eval_jet(ast, np.array([-1.0, 1.0]), 1, check=False)
    assert np.isnan(j.value[0]) and j.value[1] == 0.0


def test_pow_integer_negative_base():
    j = expr.eval_jet(expr.parse("s^3", ["s"]), -2.0, 3)
    assert (j.value, j.d1, j.d2, j.d3) == (-8.0, 12.0, -12.0, 6.0)
    with pytest.raises(ExprDomainError):
        expr.eval_jet(expr.parse("s^-1", ["s"]), 0.0, 0)
    with pytest.raises(ExprDomainError):
        expr.eval_jet(expr.parse("s^0.5", ["s"]), -1.0, 0)
    with pytest.raises(ExprDomainError):
        expr.eval_jet(expr.parse("s^s", ["s"]), -1.0, 0)


# ---------------------------------------------------------------------------
# randomized derivative properties
# ---------------------------------------------------------------------------

_FN_DERIV = {
    "sin": lambda a: Call("cos", a),
    "cos": lambda a: Neg(Call("sin", a)),
    "exp": lambda a: Call("exp", a),
    "sinh": lambda a: Call("cosh", a),
    "cosh": lambda a: Call("sinh", a),
}


def _diff(node, var):
    """Independent symbolic differentiation over the same node types."""
    if isinstance(node, (Num, Param)):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0 if node.name == var else 0.0)
    if isinstance(node, Neg):
        return Neg(_diff(node.arg, var))
    if isinstance(node, Call):
        return Bin("*", _FN_DERIV[node.fn](node.arg), _diff(node.arg, var))
    if isinstance(node, Bin):
        da, db = _diff(node.lhs, var), _diff(node.rhs, var)
        if node.op == "+":
            return Bin("+", da, db)
        if node.op == "-":
            return Bin("-", da, db)
        if node.op == "*":
            return Bin("+", Bin("*", da, node.rhs), Bin("*", node.lhs, db))
        if node.op == "^" and isinstance(node.rhs, Num):
            n = node.rhs.value
            return Bin("*", Bin("*", Num(n), Bin("^", node.lhs, Num(n - 1))), da)
    raise NotImplementedError(node)


def _random_ast(rng, depth=0):
    """Random polynomial/trig expression in s (domain-safe function set)."""
    r = rng.random()
    if depth >= 3 or r < 0.25:
        pick = rng.random()
        if pick < 0.4:
            return Var("s")
        if pick < 0.8:
            return Num(round(float(rng.uniform(-2, 2)), 3))
        return Bin("^", Var("s"), Num(float(rng.integers(2, 4))))
    if r < 0.55:
        return Bin(str(rng.choice(["+", "-", "*"])), _random_ast(rng, depth + 1),
                   _random_ast(rng, depth + 1))
    if r < 0.85:
        return Call(str(rng.choice(["sin", "cos", "sinh", "cosh"])),
                    _random_ast(rng, depth + 1))
    return Neg(_random_ast(rng, depth + 1))


def _ast_of(node):
    return expr.ExprAST(node, "<random>", ("s",), {})


def test_random_jets_match_finite_differences_and_symbolic_oracle():
    rng = np.random.default_rng(42)
    h = 1e-5
    checked = 0
    for _ in range(1000):
        node = _random_ast(rng)
        ast = _ast_of(node)
        x = float(rng.uniform(-1.5, 1.5))
        j = expr.eval_jet(ast, x, 3)
        if not all(np.isfinite([j.value, j.d1, j.d2, j.d3])):
            continue
        if max(abs(j.value), abs(j.d1), abs(j.d2), abs(j.d3)) > 1e3:
            continue  # keep the finite-difference comparison well-conditioned
        f = lambda t: float(expr.eval_jet(ast, t, 0).value)
        fd1 = (f(x + h) - f(x - h)) / (2 * h)
        assert abs(fd1 - j.d1) <= 1e-6 * max(1.0, abs(j.d1))
        # higher orders against the symbolic oracle
        d1 = _diff(node, "s")
        d2 = _diff(d1, "s")
        d3 = _diff(d2, "s")
        for got, dn in ((j.d1, d1), (j.d2, d2), (j.d3, d3)):
            want = float(expr.eval_jet(_ast_of(dn), x, 0).value)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        checked += 1
    assert checked >= 900


def test_symbolic_oracle_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")
    cases = [
        ("sin(s)*cos(2*s) + s^3", {}),
        ("exp(s)/(2 + cosh(s))", {}),
        ("sqrt(s + 3)*log(s + 4)", {}),
        ("s^2/(2*c) + tan(s/4)", {"c": 1.5}),
    ]
    for src, params in cases:
        sym = sympy.sympify(src.replace("^", "**"), locals={"c": 1.5} if params else {})
        ast = expr.parse(src, ["s"], params)
        for x in (0.3, 0.9, 1.4):
            j = expr.eval_jet(ast, x, 3)
            for k, got in enumerate((j.value, j.d1, j.d2, j.d3)):
                want = float(sympy.diff(sym, s, k).subs(s, x).evalf(30))
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (src, k)


def test_jet2_mixed_partial_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    srcs = [
        "u1*sin(u2) + u2^2*cos(u1)",
        "exp(u1/3)*u2 + u1*u2^2",
        "sinh(u1)*cosh(u2) - u1^2*u2",
    ]
    for src in srcs:
        ast = expr.parse(src, ["u1", "u2"])
        pts = [(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))) for _ in range(30)]
        for u1, u2 in pts:
            j = expr.eval_jet2(ast, (u1, u2))
            jp = expr.eval_jet2(ast, (u1, u2 + h))
            jm = expr.eval_jet2(ast, (u1, u2 - h))
            fd = (jp.du1 - jm.du1) / (2 * h)
            assert abs(fd - j.du1u2) <= 1e-6 * max(1.0, abs(j.du1u2))


# ---------------------------------------------------------------------------
# the first-order path of the shading field
# ---------------------------------------------------------------------------

_FIRST_ORDER_CORPUS = [
    "u1*sin(u2) + u2^2*cos(u1)",
    "exp(u1/3)*u2 + u1*u2^2",
    "sinh(u1)*cosh(u2) - u1^2*u2",
    "-u1^3 + u2^-2 - tan(u1*u2)",
    "sqrt(u1 + 1)*log(u2 + 1) + sqrt(u1*u2)",
    "log(u1) - abs(u2 - 0.5)/(u1 - 1)",
    "abs(u1) + u1^0.5 + (u2 + 1)^1.5",
    "u1^u2 + (u1 + 2)^(u2/3) + 2^u1",
    "(u2 + 1)^(2 + u1^2) + k*u1^(1/3)",
    "u1^(1 + 0^1.5) + 5",
]


def _operands():
    u1 = np.linspace(-1.0, 2.0, 7)
    u2 = np.linspace(-0.5, 1.5, 5)
    yield 0.7, 0.3
    yield 0.0, 0.0     # first partials of every variable exponent vanish
    yield -1.0, 0.5
    yield u1, np.linspace(-0.2, 1.8, 7)
    yield u1, 0.25
    yield u1[:, None], u2[None, :]


def _outcome(fn):
    try:
        return fn()
    except ExprDomainError as e:
        return (type(e), e.offset)


def test_first_order_jets_equal_jet2_slots_bit_for_bit():
    for src in _FIRST_ORDER_CORPUS:
        ast = expr.parse(src, ["u1", "u2"], {"k": -0.4})
        for u1, u2 in _operands():
            for check in (True, False):
                full = _outcome(lambda: expr.eval_jet2(ast, (u1, u2), check=check))
                first = _outcome(lambda: expr._eval_first(ast, (u1, u2), check=check))
                if isinstance(full, tuple):
                    assert first == full, (src, u1, u2, check)
                    continue
                assert isinstance(first, expr._Jet1)
                # eval_jet2's broadcast, applied to the unbroadcast slots
                zero = ((np.asarray(u1) + np.asarray(u2)) * 0.0
                        if np.ndim(u1) or np.ndim(u2) else 0.0)
                for name in ("value", "du1", "du2"):
                    want = np.asarray(getattr(full, name), dtype=float)
                    got = np.asarray(getattr(first, name), dtype=float)
                    if np.ndim(u1) or np.ndim(u2):
                        got = got + zero
                    assert got.shape == want.shape, (src, name)
                    assert got.tobytes() == want.tobytes(), (src, name, u1, u2, check)


def test_first_order_jets_keep_operand_shapes():
    u1, u2 = np.linspace(0.0, 1.0, 5)[:, None], np.linspace(0.0, 1.0, 3)[None, :]
    j = expr._eval_first(expr.parse("sin(u2) + 2", ["u1", "u2"]), (u1, u2))
    assert np.shape(j.value) == (1, 3)
    j = expr._eval_first(expr.parse("u1 + sin(u2)", ["u1", "u2"]), (u1, u2))
    assert np.shape(j.value) == (5, 3)
    assert np.shape(j.du1) == np.shape(j.du2) == (1, 3)
    assert np.shape(expr._eval_first(expr.parse("4", ["u1", "u2"]), (u1, u2)).value) == ()


def test_first_order_constant_exponent_decided_on_second_partials():
    # at u1 = 0 the exponent 2 + u1^2 has zero first partials but a second
    # partial of 2, so Jet2 takes the variable-exponent path
    ast = expr.parse("(u2 + 1)^(2 + u1^2)", ["u1", "u2"])
    full = expr.eval_jet2(ast, (0.0, 0.3))
    first = expr._eval_first(ast, (0.0, 0.3))
    assert full.value != 1.3 ** 2
    assert (first.value, first.du1, first.du2) == (full.value, full.du1, full.du2)


# ---------------------------------------------------------------------------
# tree building utilities
# ---------------------------------------------------------------------------

def test_subst_composes_expressions():
    outer = expr.parse("u1^2 + sin(u2)", ["u1", "u2"])
    inner1 = expr.parse("s + 1", ["s"])
    inner2 = expr.parse("2*s", ["s"])
    comp = expr.subst(outer, {"u1": inner1, "u2": inner2}, ["s"])
    j = expr.eval_jet(comp, 0.5, 1)
    assert float(j.value) == pytest.approx(1.5 ** 2 + math.sin(1.0))
    assert float(j.d1) == pytest.approx(2 * 1.5 + 2 * math.cos(1.0))


def test_combine_merges_parameters():
    a = expr.parse("k*s", ["s"], {"k": 2.0})
    b = expr.parse("s + k", ["s"], {"k": 2.0})
    c = expr.combine("*", a, b)
    assert float(expr.eval_jet(c, 1.0, 0).value) == pytest.approx(2.0 * 3.0)
    conflicting = expr.parse("k", [], {"k": 5.0})
    with pytest.raises(ValueError):
        expr.combine("+", a, conflicting)
    # the evaluator looks variables up by name, so every one must be declared
    with pytest.raises(ValueError, match="undeclared variables"):
        expr.combine("+", a, expr.parse("t", ["t"]), ["s"])
