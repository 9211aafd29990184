"""Parser and jet arithmetic tests.

Derivatives are checked two ways: first derivatives against central
finite differences of order-0 evaluation, and all orders against an
independent symbolic differentiator written here (itself spot-checked
against sympy on a mixed sample of expressions).
"""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g3geom import ProfileSpec, expr, isophote
from g3geom.errors import (
    ArityError,
    ExprDomainError,
    ExprSyntaxError,
    UnknownIdentifierError,
)
from g3geom.expr import Bin, Call, Neg, Num, Param, Var
from g3geom.galilean import GVec3
from g3geom.surface import (
    OMEGA_MIN,
    SurfaceSpec,
    _coordinate_partials,
    _coordinate_values,
    _normal_parts,
)

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


def test_parse_rejects_a_source_that_is_not_a_string():
    # an AttributeError from str.strip before; now a syntax error at offset 0
    for source in (5, 2.5, None, b"u1", ["u1"]):
        with pytest.raises(ExprSyntaxError, match="must be a string") as e:
            expr.parse(source, ["u1"])
        assert e.value.offset == 0
    with pytest.raises(ExprSyntaxError, match="not int") as e:
        SurfaceSpec.from_strings("u1", 5, "u2")
    assert e.value.offset == 0
    with pytest.raises(ExprSyntaxError, match="not list") as e:
        ProfileSpec.from_string(["s"], (0.0, 1.0))
    assert e.value.offset == 0


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
                first = _outcome(lambda: expr.first_partials((ast,), (u1, u2), check=check)[0])
                if isinstance(full, tuple):
                    assert first == full, (src, u1, u2, check)
                    continue
                assert isinstance(first, expr.Partials)
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
    j, = expr.first_partials([expr.parse("sin(u2) + 2", ["u1", "u2"])], (u1, u2))
    assert np.shape(j.value) == (1, 3)
    j, = expr.first_partials([expr.parse("u1 + sin(u2)", ["u1", "u2"])], (u1, u2))
    assert np.shape(j.value) == (5, 3)
    # du1 is the constant 1: sin(u2)'s du1 is a structural zero, not a row
    assert np.shape(j.du1) == () and j.du1 == 1.0
    assert np.shape(j.du2) == (1, 3)
    j, = expr.first_partials([expr.parse("4", ["u1", "u2"])], (u1, u2))
    assert np.shape(j.value) == ()


def test_first_order_constant_exponent_decided_on_second_partials():
    # at u1 = 0 the exponent 2 + u1^2 has zero first partials but a second
    # partial of 2, so Jet2 takes the variable-exponent path
    ast = expr.parse("(u2 + 1)^(2 + u1^2)", ["u1", "u2"])
    full = expr.eval_jet2(ast, (0.0, 0.3))
    first, = expr.first_partials([ast], (0.0, 0.3))
    assert full.value != 1.3 ** 2
    assert (first.value, first.du1, first.du2) == (full.value, full.du1, full.du2)


def test_structural_zero_partial_times_inf_is_zero():
    # log(u1)'s du2 and u2's du1 are structural zeros, so at u1 = 0 the
    # product's du2 is log(0) * 1 = -inf, its true value; a literal 0.0
    # there made it 1/0 * 0.0 * u2 = NaN
    ast = expr.parse("log(u1)*u2", ["u1", "u2"])
    for at in [(0.0, 0.5), (np.array([0.0, 1.0]), 0.5)]:
        j = expr.eval_jet2(ast, at, check=False)
        assert np.ravel(j.du2)[0] == -math.inf
        assert np.ravel(j.du1)[0] == math.inf and np.ravel(j.du1u2)[0] == math.inf
        p, = expr.first_partials([ast], at, check=False)
        assert np.ravel(p.du2)[0] == -math.inf
    assert expr.eval_jet2(ast, (1.0, 0.5), check=False).du2 == 0.0


def test_structural_zero_minus_zero_partial_is_positive_zero():
    # a constant minus a slot computes 0.0 - x, as a run-time 0.0 slot did,
    # so the du2 of 1 - u2^2 at u2 = 0 is +0.0, not -0.0
    for src in ("1 - u2^2", "u1 - u2^2", "2 - u1*u2"):
        ast = expr.parse(src, ["u1", "u2"])
        for at in [(0.0, 0.0), (np.zeros((2, 1)), np.zeros((1, 3)))]:
            j = expr.eval_jet2(ast, at, check=False)
            p, = expr.first_partials([ast], at, check=False)
            for slot in (j.du2, p.du2):
                assert not np.signbit(slot).any(), (src, at)


def _assert_tape_matches_jet2(asts, at, check):
    """first_partials on `asts` equals the first three slots of eval_jet2
    on each, broadcast as eval_jet2 broadcasts, by bytes and shape; or
    both raise the same domain error class at the same offset."""
    u1, u2 = at
    full = _outcome(lambda: [expr.eval_jet2(a, at, check=check) for a in asts])
    got = _outcome(lambda: expr.first_partials(asts, at, check=check))
    if isinstance(full, tuple):
        assert got == full, (at, check)
        return
    assert len(got) == len(asts)
    broadcast = np.ndim(u1) or np.ndim(u2)
    zero = (np.asarray(u1) + np.asarray(u2)) * 0.0 if broadcast else 0.0
    for j, f in zip(got, full):
        for name in ("value", "du1", "du2"):
            want = np.asarray(getattr(f, name), dtype=float)
            have = np.asarray(getattr(j, name), dtype=float)
            if broadcast:
                have = have + zero
            assert have.shape == want.shape, name
            assert have.tobytes() == want.tobytes(), (name, at, check)


_V = ("u1", "u2")
_KEY_OPERANDS = [(0.7, -0.3), (np.linspace(-1.0, 1.0, 5), np.linspace(-2.0, 0.0, 5)),
                 (np.linspace(-1.0, 1.0, 4)[:, None], np.linspace(-2.0, 0.0, 3)[None, :])]


def test_tape_reads_literals_at_call_time():
    # trees that differ only in literal values share one tape, so each
    # value, signed zeros included, must come from the tree being evaluated
    def trees(c, d):
        x = expr.combine("*", expr.const(c), expr.parse("u1", _V), _V)
        y = expr.combine("*", expr.const(d), expr.parse("u1", _V), _V)
        return x, y, replace(expr.const(c), variables=_V)

    values = (0.0, -0.0, 2.5, math.nan, math.inf, -3.0)
    for c, d in zip(values, values[::-1] + values[:1]):
        for at in _KEY_OPERANDS:
            for check in (True, False):
                _assert_tape_matches_jet2(trees(c, d), at, check)
    assert sum(key[2:] == tuple(t.structure[0] for t in trees(1.0, 1.0))
               for key in expr._TAPES) == 2
    got = expr.first_partials([trees(-0.0, 0.0)[0]], (np.array([2.0]), 0.0))[0]
    assert np.signbit(got.value).all()


def test_tape_binds_parameters_per_expression():
    # x and y are the same tree over one parameter name bound to different
    # values, so the tape must not merge their slots; z agrees with x
    for kx, ky in ((2.0, -3.0), (0.0, -0.0), (1.5, 1.5)):
        x = expr.parse("k*u1 + sin(k*u2)", _V, {"k": kx})
        y = expr.parse("k*u1 + sin(k*u2)", _V, {"k": ky})
        z = expr.parse("u1^k + k", _V, {"k": kx})
        surface = SurfaceSpec(x, y, z, ((0.5, 1.0), (0.0, 1.0)), {"k": kx})
        for at in _KEY_OPERANDS:
            at = (np.abs(at[0]) + 0.5, at[1])
            for check in (True, False):
                _assert_tape_matches_jet2((surface.x, surface.y, surface.z), at, check)
        jx, jy, _ = _coordinate_partials(surface, 0.75, 0.25)
        assert (jx.value, jy.value) == (kx * 0.75 + math.sin(kx * 0.25),
                                        ky * 0.75 + math.sin(ky * 0.25))


def test_tape_key_includes_variable_order():
    a = expr.parse("u1*sin(u2) + u2^2", ["u1", "u2"])
    b = expr.parse("u1*sin(u2) + u2^2", ["u2", "u1"])
    assert a.root == b.root
    for at in _KEY_OPERANDS:
        for check in (True, False):
            _assert_tape_matches_jet2((a,), at, check)
            _assert_tape_matches_jet2((b,), at, check)
            _assert_tape_matches_jet2((a, b), at, check)


def test_tape_on_subtrees_shared_inside_and_outside_exponents():
    # subst puts one replacement node object at every use of its variable;
    # parse never shares nodes.  Here each replacement sits both in a base
    # or an operand and in an exponent, where its literals are keyed.
    outer = expr.parse("a^b + b*a - b^(a^2) + sqrt(a)", ["a", "b"])
    a, b = expr.parse("u1*2.5 + 1", _V), expr.parse("u2^2 + 0.5", _V)
    tree = expr.subst(outer, {"a": a, "b": b}, _V)
    power, product = tree.root.lhs.lhs.lhs, tree.root.lhs.lhs.rhs
    assert power.lhs is a.root and power.rhs is b.root and product.lhs is b.root
    assert tree.root.lhs.rhs.rhs.lhs is a.root
    for at in _KEY_OPERANDS:
        for check in (True, False):
            _assert_tape_matches_jet2((tree,), at, check)
            _assert_tape_matches_jet2((tree, a, b), at, check)


def test_tape_power_in_an_exponent_keeps_its_second_partials():
    # at u1 = 0 the exponent (u1*u1)^k has zero first partials; only its
    # second partial, which needs the base's, makes Jet2 take the variable
    # path, and so reject the negative base
    tree = expr.parse("(0 - 2)^((u1*u1)^k) + u2", _V, {"k": 1.0})
    with pytest.raises(ExprDomainError, match="variable power"):
        expr.eval_jet2(tree, (0.0, 0.3))
    for at in [(0.0, 0.3), *_KEY_OPERANDS]:
        for check in (True, False):
            _assert_tape_matches_jet2((tree,), at, check)


def test_power_structural_zeros_do_not_depend_on_the_values():
    # at u1 = 0 every partial of u1*u1*u1 vanishes, so 2^(u1*u1*u1) takes
    # the constant-exponent way, whose du1 would be a structural zero
    # where the exp-log way's is not: the tape cannot know which way a
    # call takes, so a varying exponent gives the float 0.0 (negated: -0.0)
    tree = expr.parse("-(2^(u1*u1*u1)) + u2", _V)
    assert np.signbit(expr.eval_jet2(tree, (0.0, 0.3)).du1)
    for at in [(0.0, 0.3), *_KEY_OPERANDS]:
        for check in (True, False):
            _assert_tape_matches_jet2((tree,), at, check)


def test_tape_cache_holds_one_nan_exponent_tape_and_stays_bounded():
    # a literal in an exponent is part of the key, as its bits: a NaN,
    # which never equals itself as a node, must still find its tape
    def nan_tree():
        return expr.combine("^", expr.parse("u1*u2", _V), expr.const(float("nan")), _V)

    assert nan_tree().root != nan_tree().root
    for _ in range(expr.TAPE_CACHE_SIZE + 2):
        _assert_tape_matches_jet2((nan_tree(),), _KEY_OPERANDS[1], False)
    assert sum(key[2:] == (nan_tree().structure[0],) for key in expr._TAPES) == 1
    # distinct structures beyond the bound evict the oldest
    for k in range(expr.TAPE_CACHE_SIZE + 3):
        expr.first_partials([expr.parse("u1" + " + u2" * k, _V)], (0.5, 0.5))
    assert len(expr._TAPES) == expr.TAPE_CACHE_SIZE


def test_tape_cache_under_threads():
    # more threads than cores and more structures than the cache holds,
    # with a short switch interval: every result still matches Jet2
    at = (np.linspace(0.1, 1.0, 6)[:, None], np.linspace(-1.0, 1.0, 5)[None, :])
    sources = [f"k*u1^{n % 5 + 1} + sin({n}*u2)" + " + u1" * (n // 5)
               for n in range(expr.TAPE_CACHE_SIZE + 36)]
    failures = []

    def work(t: int) -> None:
        try:
            for n in range(t, len(sources), 3):
                ast = expr.parse(sources[n], _V, {"k": float(t)})
                _assert_tape_matches_jet2((ast,), at, n % 2 == 0)
        except Exception as e:  # reported by the main thread
            failures.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t % 3,)) for t in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not failures, failures[0]
    assert len(expr._TAPES) <= expr.TAPE_CACHE_SIZE


def _bivariate_sources():
    leaves = st.sampled_from(["u1", "u2", "k", "0", "1", "2", "0.5", "3", "1e-200", "1e200"])

    def extend(inner):
        unary = st.builds(lambda f, a: f"{f}({a})",
                          st.sampled_from(["sin", "cos", "tan", "exp", "log", "sqrt",
                                           "sinh", "cosh", "abs"]), inner)
        neg = inner.map(lambda a: f"-({a})")
        binary = st.builds(lambda a, op, b: f"({a}){op}({b})", inner,
                           st.sampled_from("+-*/^"), inner)
        power = st.builds(lambda a, e: f"({a})^{e}", inner,
                          st.sampled_from(["2", "3", "-1", "-2", "0", "0.5", "1.5", "k",
                                           "(1/3)", "-0.5", "u1", "(2 + u2^2)"]))
        return unary | neg | binary | power

    return st.recursive(leaves, extend, max_leaves=6)


def _interpreted_field(surface, axis, at, check):
    """The shading field, masked as _field_block masks it, and omega from
    `_normal_parts` and the axis product on the interpreter's Jet2s: the
    jets of eval_jet2 before it makes structural zeros 0.0 and broadcasts."""
    u1, u2 = (np.asarray(v, dtype=float) for v in at)
    with np.errstate(all="ignore"):
        jets = [expr._eval(a.root, expr._bivariate_seeds(a.variables, u1, u2), 2,
                           expr._Values(expr.Jet2, a.params, check))
                for a in (surface.x, surface.y, surface.z)]
        A, B, omega = _normal_parts(*jets)
        out, omega = map(expr._real, ((A * axis.y + B * axis.z) / omega, omega))
        out = np.where(omega > OMEGA_MIN, out, np.nan)
    return np.asarray(out, dtype=float), omega


def _assert_field_tape_matches_interpreter(surface, at, check):
    """_field_block (the field tape) equals _interpreted_field by bytes and
    shape, NaNs included, or both raise the same error at the same offset."""
    for axis in (GVec3(0.0, 0.6, 0.8), GVec3(1.0, 0.0, -2.0)):
        want = _outcome(lambda: _interpreted_field(surface, axis, at, check))
        got = _outcome(lambda: isophote._field_block(surface, axis, *at, check=check))
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want, (at, check)
            continue
        for have, need in zip(got, want):
            have, need = np.asarray(have, dtype=float), np.asarray(need, dtype=float)
            assert have.shape == need.shape, (at, check)
            assert have.tobytes() == need.tobytes(), (at, check, have, need)


@settings(max_examples=150, deadline=None)
@given(_bivariate_sources(), st.sampled_from([0.0, -0.0, -0.4, 2.0]), st.integers(0, 4))
def test_tape_equals_jet2_slots_on_generated_expressions(src, k, which):
    ast = expr.parse(src, _V, {"k": k})
    grid = np.linspace(-1.0, 2.0, 4)
    at = [(0.7, 0.3), (0.0, 0.0), (grid, grid[::-1]), (grid, -0.5),
          (grid[:, None], np.array([0.0, 0.25, 1.5])[None, :])][which]
    # the field tape, on the graph form of the benchmark's surfaces and on
    # a general x; `swapped` reads u1 as u2 and u2 as u1
    swapped = expr.parse(src, _V[::-1], {"k": k})
    domain = ((0.0, 1.0), (0.0, 1.0))
    surfaces = [SurfaceSpec(expr.parse("u1", _V), ast, swapped, domain),
                SurfaceSpec(ast, swapped, expr.parse("u2*u1", _V), domain)]
    for check in (True, False):
        _assert_tape_matches_jet2((ast,), at, check)
        for surface in surfaces:
            _assert_field_tape_matches_interpreter(surface, at, check)


def _assert_values_tape_matches_partials(surface, at, check):
    """_coordinate_values (the values tape) equals the values of
    _coordinate_partials by bytes and shape, or both raise the same domain
    error with the same message at the same offset."""

    def run(fn):
        try:
            return fn()
        except ExprDomainError as e:
            return (type(e), str(e), e.offset)

    want = run(lambda: [j.value for j in _coordinate_partials(surface, *at, check=check)])
    got = run(lambda: _coordinate_values(surface, *at, check=check))
    if isinstance(want, tuple):
        assert got == want, (at, check)
        return
    for have, need in zip(got, want):
        have, need = np.asarray(have, dtype=float), np.asarray(need, dtype=float)
        assert have.shape == need.shape, (at, check)
        assert have.tobytes() == need.tobytes(), (at, check, have, need)


@settings(max_examples=100, deadline=None)
@given(_bivariate_sources(), st.sampled_from([0.0, -0.0, -0.4, 2.0]), st.integers(0, 4))
def test_values_tape_equals_partials_values_on_generated_expressions(src, k, which):
    ast = expr.parse(src, _V, {"k": k})
    grid = np.linspace(-1.0, 2.0, 4)
    at = [(0.7, 0.3), (0.0, 0.0), (grid, grid[::-1]), (grid, -0.5),
          (grid[:, None], np.array([0.0, 0.25, 1.5])[None, :])][which]
    swapped = expr.parse(src, _V[::-1], {"k": k})
    surface = SurfaceSpec(expr.parse("u1", _V), ast, swapped, ((0.0, 1.0), (0.0, 1.0)))
    for check in (True, False):
        _assert_values_tape_matches_partials(surface, at, check)


def test_values_tape_raises_where_the_partials_tape_raises():
    # the derivative checks (sqrt at 0, abs at 0) stay in the values tape,
    # though it computes no derivative
    cases = [("u1", "u2", "sqrt(u1-1)"), ("u1", "sqrt(1-u2)", "u1"),
             ("u1", "u2", "abs(u2-0.5)*u1"), ("u1", "log(u1*u2)", "sqrt(u1)"),
             ("u1", "u2", "1/(u1-1) + u2^(u1-1)"), ("u1", "u2", "(u1-1)^0.5 + u2^k")]
    grids = [(np.linspace(0.5, 2.0, 7)[:, None], np.linspace(0.0, 1.5, 7)[None, :]),
             (np.linspace(1.0, 2.0, 5), np.linspace(0.0, 1.0, 5)),
             (1.0, 0.5), (1.25, 0.25), (np.array([1.5]), 1.0)]
    raised = 0
    for x, y, z in cases:
        surface = SurfaceSpec.from_strings(x, y, z, ((0.0, 2.0), (0.0, 1.5)), {"k": 0.5})
        for at in grids:
            for check in (True, False):
                _assert_values_tape_matches_partials(surface, at, check)
            try:
                _coordinate_partials(surface, *at)
            except ExprDomainError:
                raised += 1
    assert raised > 10


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
