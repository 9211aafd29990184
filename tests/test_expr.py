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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g3geom import CurveSpec, ProfileSpec, expr, isophote
from g3geom.curve import KAPPA_MIN, _curve_arrays
from g3geom.errors import (
    ArityError,
    ExprDomainError,
    ExprSyntaxError,
    G3Error,
    InadmissibleTraceError,
    SingularNormalError,
    StraightSegmentError,
    UnknownIdentifierError,
)
from g3geom.expr import Bin, Call, Neg, Num, Param, Var
from g3geom.galilean import GVec3
from g3geom.surface import (
    OMEGA_MIN,
    TRACE_TOL,
    SurfaceSpec,
    TraceSpec,
    _coordinate_values,
    _darboux_arrays,
    _normal_parts,
    _values,
    sample_surface,
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


def test_broadcast_repeats_slots_without_arithmetic():
    # the slots were broadcast by adding (u1 + u2) * 0.0 or s * 0.0, which
    # is NaN where u1 + u2 overflows or s is infinite, and +0.0 for -0.0
    j = expr.eval_jet2(expr.parse("u1 - u1 + 2", ["u1", "u2"]),
                       (np.array([1e308]), np.array([1e308])))
    assert j.value.tolist() == [2.0] and j.du1.tolist() == [0.0]
    j = expr.eval_jet(expr.parse("s*s", ["s"]), np.array([math.inf]))
    assert j.value.tolist() == [math.inf] and j.d1.tolist() == [math.inf]
    assert j.d2.tolist() == [2.0] and j.d3.tolist() == [0.0]
    # 0*s is -0.0 at s = -0.5, at the point and on the array
    for at in (-0.5, np.array([-0.5])):
        j = expr.eval_jet(expr.parse("0*s", ["s"]), at)
        assert np.signbit(j.value).all() and np.shape(j.value) == np.shape(at)
    # every slot is a writable array of its own, of the operands' shape
    u1, u2 = np.linspace(0.0, 1.0, 3)[:, None], np.array([0.5])
    j2 = expr.eval_jet2(expr.parse("u1 + 2", ["u1", "u2"]), (u1, u2))
    j1 = expr.eval_jet(expr.parse("s", ["s"]), np.array([0.0, 1.0]), order=1)
    for j in (j1, j2):
        slots = (j.value, *j.derivatives())
        assert all(x.flags.writeable for x in slots)
        assert len({id(x) for x in slots}) == len(slots)
        assert not any(np.shares_memory(x, y) for x in slots for y in (*slots, u1, u2)
                       if x is not y)
    assert j2.value.shape == j2.du2u2.shape == (3, 1)
    assert j1.value.shape == j1.d3.shape == (2,)


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


_SLOTS = ("value", "du1", "du2", "du1u1", "du1u2", "du2u2")


def _all_slots(*jets):
    """Every slot of every jet, flat; traced into the tapes of _tape_jets."""
    return tuple(getattr(j, name) for j in jets for name in _SLOTS)


def _tape_jets(asts, at, check=True):
    """The Jet2 of each expression in `asts` through one compiled tape
    (expr.on_partials) that returns all six slots, each on the shape of
    the operands it depends on."""
    flat = expr.on_partials(_all_slots, asts, at, check=check)
    return [expr.Jet2(*flat[k:k + 6]) for k in range(0, len(flat), 6)]


def test_first_order_jets_equal_jet2_slots_bit_for_bit():
    for src in _FIRST_ORDER_CORPUS:
        ast = expr.parse(src, ["u1", "u2"], {"k": -0.4})
        for u1, u2 in _operands():
            for check in (True, False):
                full = _outcome(lambda: expr.eval_jet2(ast, (u1, u2), check=check))
                first = _outcome(lambda: _tape_jets((ast,), (u1, u2), check=check)[0])
                if isinstance(full, tuple):
                    assert first == full, (src, u1, u2, check)
                    continue
                assert isinstance(first, expr.Jet2)
                # eval_jet2's broadcast, applied to the unbroadcast slots
                shape = np.broadcast_shapes(np.shape(u1), np.shape(u2))
                for name in _SLOTS:
                    want = np.asarray(getattr(full, name), dtype=float)
                    got = np.broadcast_to(np.asarray(getattr(first, name), dtype=float), shape)
                    assert got.shape == want.shape, (src, name)
                    assert got.tobytes() == want.tobytes(), (src, name, u1, u2, check)


def test_first_order_jets_keep_operand_shapes():
    u1, u2 = np.linspace(0.0, 1.0, 5)[:, None], np.linspace(0.0, 1.0, 3)[None, :]
    j, = _tape_jets([expr.parse("sin(u2) + 2", ["u1", "u2"])], (u1, u2))
    assert np.shape(j.value) == (1, 3)
    j, = _tape_jets([expr.parse("u1 + sin(u2)", ["u1", "u2"])], (u1, u2))
    assert np.shape(j.value) == (5, 3)
    # du1 is the constant 1: sin(u2)'s du1 is a structural zero, not a row
    assert np.shape(j.du1) == () and j.du1 == 1.0
    assert np.shape(j.du2) == (1, 3)
    j, = _tape_jets([expr.parse("4", ["u1", "u2"])], (u1, u2))
    assert np.shape(j.value) == ()


def test_exponent_reading_a_variable_takes_exp_log_where_its_partials_vanish():
    # the exponent 2 + u1^2 reads u1, so it is a variable exponent even at
    # u1 = 0, where its first partials vanish: exp((2 + u1^2) log(u2 + 1)),
    # not the constant-exponent power (u2 + 1)^2
    ast = expr.parse("(u2 + 1)^(2 + u1^2)", ["u1", "u2"])
    full = expr.eval_jet2(ast, (0.0, 0.3))
    first, = _tape_jets([ast], (0.0, 0.3))
    assert full.value != 1.3 ** 2
    assert first == full


def test_structural_zero_partial_times_inf_is_zero():
    # log(u1)'s du2 and u2's du1 are structural zeros, so at u1 = 0 the
    # product's du2 is log(0) * 1 = -inf, its true value; a literal 0.0
    # there made it 1/0 * 0.0 * u2 = NaN
    ast = expr.parse("log(u1)*u2", ["u1", "u2"])
    for at in [(0.0, 0.5), (np.array([0.0, 1.0]), 0.5)]:
        j = expr.eval_jet2(ast, at, check=False)
        assert np.ravel(j.du2)[0] == -math.inf
        assert np.ravel(j.du1)[0] == math.inf and np.ravel(j.du1u2)[0] == math.inf
        p, = _tape_jets([ast], at, check=False)
        assert np.ravel(p.du2)[0] == -math.inf
        assert np.ravel(p.du1u2)[0] == math.inf
    assert expr.eval_jet2(ast, (1.0, 0.5), check=False).du2 == 0.0


def test_eval_jet_keeps_structural_zeros():
    # the literal 2's derivatives are structural zeros, so the derivatives
    # of 2*exp(800*s) at s = 1 are 2 * inf; plain zeros gave 0 * inf = NaN
    for at in (1.0, np.array([0.0, 1.0])):
        j = expr.eval_jet(expr.parse("2*exp(800*s)", ["s"]), at)
        assert np.ravel(j.d1)[-1] == np.ravel(j.d2)[-1] == np.ravel(j.d3)[-1] == math.inf


def test_structural_zero_minus_zero_partial_is_positive_zero():
    # a constant minus a slot computes 0.0 - x, as a run-time 0.0 slot did,
    # so the du2 of 1 - u2^2 at u2 = 0 is +0.0, not -0.0
    for src in ("1 - u2^2", "u1 - u2^2", "2 - u1*u2"):
        ast = expr.parse(src, ["u1", "u2"])
        for at in [(0.0, 0.0), (np.zeros((2, 1)), np.zeros((1, 3)))]:
            j = expr.eval_jet2(ast, at, check=False)
            p, = _tape_jets([ast], at, check=False)
            for slot in (j.du2, p.du2):
                assert not np.signbit(slot).any(), (src, at)


def _assert_tape_matches_jet2(asts, at, check):
    """The tape of _tape_jets on `asts` equals all six slots of eval_jet2
    on each, broadcast as eval_jet2 broadcasts, by bytes and shape; or
    both raise the same domain error class at the same offset."""
    u1, u2 = at
    full = _outcome(lambda: [expr.eval_jet2(a, at, check=check) for a in asts])
    got = _outcome(lambda: _tape_jets(asts, at, check=check))
    if isinstance(full, tuple):
        assert got == full, (at, check)
        return
    assert len(got) == len(asts)
    shape = np.broadcast_shapes(np.shape(u1), np.shape(u2))
    for j, f in zip(got, full):
        for name in _SLOTS:
            want = np.asarray(getattr(f, name), dtype=float)
            have = np.broadcast_to(np.asarray(getattr(j, name), dtype=float), shape)
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
    structures = tuple(t.structure[0] for t in trees(1.0, 1.0))
    assert sum(key[1:] == (*structures, _all_slots, 0) for key in expr._TAPES) == 2
    got = _tape_jets([trees(-0.0, 0.0)[0]], (np.array([2.0]), 0.0))[0]
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
                _assert_tape_matches_jet2((surface.x, surface.y), at, check)
        jx, jy, _ = _tape_jets((surface.x, surface.y, surface.z), (0.75, 0.25))
        assert (jx.value, jy.value) == (kx * 0.75 + math.sin(kx * 0.25),
                                        ky * 0.75 + math.sin(ky * 0.25))
    # each tree reads its own parameters, so the bindings do not enter the
    # key: x and y, which read k in no exponent, ran one tape per check mode
    # for the three pairs
    structures = (x.structure[0], y.structure[0])
    assert sum(key[-4:] == (*structures, _all_slots, 0) for key in expr._TAPES) == 2


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


def test_tape_power_in_an_exponent_is_a_variable_exponent():
    # the exponent (u1*u1)^k reads u1, so the outer power takes the
    # variable path and rejects the negative base, also at u1 = 0, where
    # every partial of the exponent but du1u1 vanishes
    tree = expr.parse("(0 - 2)^((u1*u1)^k) + u2", _V, {"k": 1.0})
    with pytest.raises(ExprDomainError, match="variable power"):
        expr.eval_jet2(tree, (0.0, 0.3))
    for at in [(0.0, 0.3), *_KEY_OPERANDS]:
        for check in (True, False):
            _assert_tape_matches_jet2((tree,), at, check)


def test_power_structural_zeros_do_not_depend_on_the_values():
    # u1*u1*u1 reads u1, so 2^(u1*u1*u1) takes the exp-log way at every
    # point, also at u1 = 0, where every partial of the exponent vanishes:
    # its du1 there is the computed float 0.0 (negated: -0.0), never the
    # structural zero of a constant exponent's power of the constant 2
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
    assert sum(key[1:] == (nan_tree().structure[0], _all_slots, 0)
               for key in expr._TAPES) == 1
    # distinct structures beyond the bound evict the oldest
    for k in range(expr.TAPE_CACHE_SIZE + 3):
        _tape_jets([expr.parse("u1" + " + u2" * k, _V)], (0.5, 0.5))
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


def _assert_point_equals_array(point, array):
    """An evaluation at a point and one at a one-element array holding it
    raise the same domain error at the same offset, or give equal slots by
    value (NaN equal to NaN)."""
    if isinstance(point, tuple) or isinstance(array, tuple):
        assert point == array
        return
    for p, a in zip((point.value, *point.derivatives()), (array.value, *array.derivatives())):
        assert np.shape(p) == () and np.shape(a) == (1,)
        np.testing.assert_array_equal(p, a[0])


@settings(max_examples=150, deadline=None)
@given(_bivariate_sources(), st.sampled_from([0.0, -0.0, -0.4, 2.0]),
       st.sampled_from([(0.7, 0.3), (0.0, 0.0), (-1.0, 0.5), (2.0, -0.0)]))
# each took a constant-exponent rule at the point and the exp-log rule on
# the array, when the rule was decided from the exponent's values
@example("3^(u1/u1)", 2.0, (0.7, 0.3))
@example("k^(u1-u1)", 0.0, (0.7, 0.3))
@example("(u1-5)^(u2*u2*u2+2)", 2.0, (0.0, 0.0))
# each differed in the last bit, when a point ran numpy's scalar power and
# an array its ufunc loop
@example("((u2)+(0.5))^-1", 0.0, (0.7, 0.3))
@example("((u1)*(u1))^-2", 0.0, (0.7, 0.3))
@example("-((sin(u1))^(1e-200))", 0.0, (0.7, 0.3))
def test_a_point_and_a_one_element_array_agree(src, k, at):
    u1, u2 = at
    ast = expr.parse(src, _V, {"k": k})
    # eval_jet on the same source, with u2 a parameter bound to the point's
    univariate = expr.parse(src, ["u1"], {"k": k, "u2": u2})
    for check in (True, False):
        _assert_point_equals_array(
            _outcome(lambda: expr.eval_jet2(ast, (u1, u2), check=check)),
            _outcome(lambda: expr.eval_jet2(ast, (np.array([u1]), np.array([u2])),
                                            check=check)))
        _assert_point_equals_array(
            _outcome(lambda: expr.eval_jet(univariate, u1, check=check)),
            _outcome(lambda: expr.eval_jet(univariate, np.array([u1]), check=check)))


_JET_SLOTS = ("value", "d1", "d2", "d3")


def _all_jet_slots(*jets):
    """Every slot of every Jet, flat; traced into univariate tapes."""
    return tuple(getattr(j, name) for j in jets for name in _JET_SLOTS)


def _interpreted_jet(ast, at, check):
    """The slots of eval_jet's Jet before it makes structural zeros 0.0 and
    broadcasts; a point runs as a one-element array, as in eval_jet."""
    (s,), point = expr._as_arrays((at,))
    with np.errstate(all="ignore"):
        j = expr._eval(ast.root, expr._seeds(ast.variables, (s,)), 3,
                       expr._Values(expr.Jet, ast.params, check))
    slots = [expr._real(x) for x in (j.value, *j.derivatives())]
    return tuple(map(expr._first, slots)) if point else tuple(slots)


def _error(fn):
    try:
        return fn()
    except ExprDomainError as e:
        return (type(e), str(e), e.offset)


@settings(max_examples=150, deadline=None)
@given(_bivariate_sources(), st.sampled_from([0.0, -0.0, -0.4, 2.0]),
       st.sampled_from([-0.0, 0.5, -1.0]), st.integers(0, 3))
def test_univariate_tape_equals_eval_jet_slots(src, k, u2, which):
    # the univariate tape of a source over u1, with u2 a parameter: every
    # slot equals the interpreter's before eval_jet's broadcast by bytes and
    # shape, and eval_jet's after it; or it raises eval_jet's domain error
    # with the same message at the same offset
    ast = expr.parse(src, ["u1"], {"k": k, "u2": u2})
    at = [0.7, -0.0, np.linspace(-1.0, 2.0, 7), np.array([-0.0, 1e-200, 3.0])][which]
    for check in (True, False):
        full = _error(lambda: expr.eval_jet(ast, at, check=check))
        got = _error(lambda: expr.on_partials(_all_jet_slots, (ast,), (at,), check=check))
        if isinstance(full, tuple):
            assert got == full, (src, at, check)
            continue
        for have, need, name in zip(got, _interpreted_jet(ast, at, check), _JET_SLOTS):
            have, need = np.asarray(have, dtype=float), np.asarray(need, dtype=float)
            assert have.shape == need.shape, (src, name)
            assert have.tobytes() == need.tobytes(), (src, name, at, check)
            want = np.asarray(getattr(full, name))
            assert want.shape == np.shape(at), (src, name)
            assert np.broadcast_to(have, want.shape).tobytes() == want.tobytes()


def test_a_tape_raises_the_arity_error_of_its_kind():
    # the first expression decides the kind; an expression of another
    # arity raises the ArityError of that kind's interpreter
    s_ast, uv = expr.parse("s", ["s"]), expr.parse("u1", _V)
    for asts, at, kind in (((s_ast, uv), (0.5,), "eval_jet needs exactly one"),
                           ((uv, s_ast), (0.5, 0.5), "eval_jet2 needs exactly two")):
        with pytest.raises(ArityError, match=kind):
            expr.on_partials(_all_slots, asts, at)


def test_variable_exponent_tapes_are_numpy_arithmetic_only():
    # every exponent is decided while tracing (a parameter in an exponent
    # is a keyed constant), so a variable exponent traces exp(b log a) into
    # the tape, and the field tape computes no second partial
    at = (np.linspace(0.5, 2.0, 5)[:, None], np.linspace(0.0, 1.0, 4)[None, :])
    cases = {"(u2 + 1)^(2 + u1^2) + k*u1^(1/3)": ((9, 3, 4), (14, 9, 5)),
             "u1^k + u2^(2*k)": ((3, 1, 3), (7, 0, 5))}
    for z, (values, field) in cases.items():
        surface = SurfaceSpec.from_strings("u1", "u2", z, parameters={"k": 1.5})
        asts = (surface.x, surface.y, surface.z)
        assert expr._compiled(asts, False, _values, 0).ops == values, z
        assert expr._compiled(asts, False, isophote._shading, 2).ops == field, z
        for check in (True, False):
            _assert_tape_matches_jet2(asts, at, check)
            _assert_field_tape_matches_interpreter(surface, at, check)


def _interpreted_field(surface, axis, at, check):
    """The shading field, masked as _shading_block masks it, and omega from
    `_normal_parts` and the axis product on the interpreter's Jet2s: the
    jets of eval_jet2 before it makes structural zeros 0.0 and broadcasts.
    A point runs as one-element arrays, as in eval_jet2."""
    (u1, u2), point = expr._as_arrays(at)
    with np.errstate(all="ignore"):
        jets = [expr._eval(a.root, expr._seeds(a.variables, (u1, u2)), 2,
                           expr._Values(expr.Jet2, a.params, check))
                for a in (surface.x, surface.y, surface.z)]
        A, B, omega = _normal_parts(*jets)
        out, omega = map(expr._real, ((A * axis.y + B * axis.z) / omega, omega))
        out = np.where(omega > OMEGA_MIN, out, np.nan)
    if point:
        out, omega = expr._first(out), expr._first(omega)
    return np.asarray(out, dtype=float), omega


def _assert_field_tape_matches_interpreter(surface, at, check):
    """_shading_block (the field tape) equals _interpreted_field by bytes and
    shape, NaNs included, or both raise the same error at the same offset."""
    for axis in (GVec3(0.0, 0.6, 0.8), GVec3(1.0, 0.0, -2.0)):
        want = _outcome(lambda: _interpreted_field(surface, axis, at, check))
        got = _outcome(lambda: isophote._shading_block(surface, axis, *at, check=check))
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
    """_coordinate_values (the values tape) equals the values of the
    all-slot tape of _tape_jets by bytes and shape, or both raise the same
    domain error with the same message at the same offset."""

    def run(fn):
        try:
            return fn()
        except ExprDomainError as e:
            return (type(e), str(e), e.offset)

    asts = (surface.x, surface.y, surface.z)
    want = run(lambda: [j.value for j in _tape_jets(asts, at, check=check)])
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
                _tape_jets((surface.x, surface.y, surface.z), at)
            except ExprDomainError:
                raised += 1
    assert raised > 10


@pytest.mark.filterwarnings("error")
def test_sample_surface_equals_the_interpreter():
    # sample_surface's tape: the values and first partials of eval_jet2,
    # then _normal_parts on the interpreter's Jet2s, structural zeros
    # included (so the sign of an exactly zero normal part is the field
    # tape's), bit for bit.  Where omega is not a finite number above
    # OMEGA_MIN (a NaN from finite points, or inf) it raises
    # SingularNormalError, and where another field is not finite (h11
    # overflows on the last surface at u1 = 0.5) a G3Error, with no warning
    surfaces = [("u1", "u2", "amp*sin(a*u1)*cos(b*u2)"), ("u1", "r*sin(u2)", "r*cos(u2)"),
                ("u1", "-u1*u2", "u2^2 - u1"), ("u1 + u2", "(u2 - u2)*exp(400*u1)", "u2"),
                ("u1", "u2*log(u1)", "u1*u2"), ("u1 + rotc*u2", "u1*u2", "sqrt(u1)"),
                ("u1", "u1*cos(u2)", "u1*sin(u2)"), ("u1", "exp(800*u1)*u2", "u2")]
    params = {"amp": 1.0, "a": 3.0, "b": 2.8, "r": 0.8, "rotc": 1.5}
    points = [-1.0, -0.0, 0.0, 0.5, 2.0]

    def outcome(fn):
        try:
            return fn()
        except G3Error as e:
            return (type(e), str(e))

    def interpreted(surface, u1, u2):
        at = (np.float64(u1), np.float64(u2))
        with np.errstate(all="ignore"):
            jets = [expr._eval(a.root, expr._seeds(_V, at), 2,
                               expr._Values(expr.Jet2, a.params, True))
                    for a in (surface.x, surface.y, surface.z)]
            A, B, omega = map(expr._real, _normal_parts(*jets))
            vec = [GVec3(*(float(expr._real(getattr(j, name))) for j in jets))
                   for name in ("value", "du1", "du2")]
            n = GVec3(0.0, float(A / omega), float(B / omega))
            _, (_, yu1, zu1), (_, yu2, zu2) = (np.array(v.to_list()) for v in vec)
            h = (yu1 ** 2 + zu1 ** 2, yu1 * yu2 + zu1 * zu2, yu2 ** 2 + zu2 ** 2)
        if not (np.isfinite(omega) and omega > OMEGA_MIN):
            raises = SingularNormalError
        elif not np.isfinite([*(c for v in vec for c in v.to_list()), n.y, n.z, *h]).all():
            raises = G3Error
        else:
            return repr((*vec, n, float(omega)))
        with pytest.raises(raises, match=rf"at \(u1,u2\)=\({u1:.6g},{u2:.6g}\)$") as e:
            sample_surface(surface, u1, u2)
        assert e.type is raises
        raise e.value

    seen = set()
    for x, y, z in surfaces:
        surface = SurfaceSpec.from_strings(x, y, z, parameters=params)
        for u1 in points:
            for u2 in points:
                want = outcome(lambda: interpreted(surface, u1, u2))
                got = outcome(lambda: repr(
                    (lambda p: (p.point, p.Xu1, p.Xu2, p.n, p.omega))(
                        sample_surface(surface, u1, u2))))
                assert got == want, (x, y, z, u1, u2)
                seen.add(want[0].__name__ if isinstance(want, tuple) else "sample")
    assert seen == {"ExprDomainError", "SingularNormalError", "G3Error", "sample"}


def test_sample_surface_and_field_raise_alike_on_a_variable_exponent():
    # the exponent u2*u2*u2 + 2 reads u2, so the base u1 - 5 must be
    # positive, also at (0, 0), where the exponent's partials vanish
    surface = SurfaceSpec.from_strings("u1", "u2", "(u1-5)^(u2*u2*u2+2)")
    errors = []
    for call in (lambda: sample_surface(surface, 0.0, 0.0),
                 lambda: isophote.field(surface, GVec3(0.0, 0.0, 1.0), 0.0, 0.0)):
        with pytest.raises(ExprDomainError, match="variable power of a non-positive base") as e:
            call()
        errors.append((e.type, str(e.value), e.value.offset))
    assert errors[0] == errors[1]


def _interpreted_darboux(surface, trace, S):
    """_darboux_arrays on eval_jet2's jets, the interpreter's structural
    zeros made 0.0 and broadcast, with the chain rule written out: the
    oracle of the Darboux tape."""
    j1 = expr.eval_jet(trace.u1_of_s, S, order=2)
    j2 = expr.eval_jet(trace.u2_of_s, S, order=2)
    u1p, u2p, u1pp, u2pp = j1.d1, j2.d1, j1.d2, j2.d2
    jx, jy, jz = (expr.eval_jet2(c, (j1.value, j2.value))
                  for c in (surface.x, surface.y, surface.z))

    def chain1(j):
        return j.du1 * u1p + j.du2 * u2p

    def chain2(j):
        return (j.du1u1 * u1p * u1p + 2.0 * j.du1u2 * u1p * u2p
                + j.du2u2 * u2p * u2p + j.du1 * u1pp + j.du2 * u2pp)

    with np.errstate(all="ignore"):
        xv = chain1(jx)
        err = np.abs(xv - 1.0)
        if np.any(err > TRACE_TOL):
            i = int(np.argmax(err))
            raise InadmissibleTraceError(
                f"trace x-velocity {float(xv[i]):.6g} != 1 at "
                f"s = {float(S[i]):.6g}; substitute u1 = s (or shear-compensate)")
        A, B, omega = _normal_parts(jx, jy, jz)
        singular = ~(np.isfinite(omega) & (omega > OMEGA_MIN))
        if np.any(singular):
            raise SingularNormalError("omega")
        ny, nz = A / omega, B / omega
        A_u1 = jx.du1u2 * jz.du1 + jx.du2 * jz.du1u1 - jx.du1u1 * jz.du2 - jx.du1 * jz.du1u2
        A_u2 = jx.du2u2 * jz.du1 + jx.du2 * jz.du1u2 - jx.du1u2 * jz.du2 - jx.du1 * jz.du2u2
        B_u1 = jx.du1u1 * jy.du2 + jx.du1 * jy.du1u2 - jx.du1u2 * jy.du1 - jx.du2 * jy.du1u1
        B_u2 = jx.du1u2 * jy.du2 + jx.du1 * jy.du2u2 - jx.du2u2 * jy.du1 - jx.du2 * jy.du1u2
        Ap = A_u1 * u1p + A_u2 * u2p
        Bp = B_u1 * u1p + B_u2 * u2p
        omega_p = (A * Ap + B * Bp) / omega
        nyp = (Ap * omega - A * omega_p) / (omega * omega)
        nzp = (Bp * omega - B * omega_p) / (omega * omega)
        Ty, Tz = chain1(jy), chain1(jz)
        Tpy, Tpz = chain2(jy), chain2(jz)
        Qy, Qz = nz, -ny
        Qpy, Qpz = nzp, -nyp
        kg = Tpy * Qy + Tpz * Qz
        kn = Tpy * ny + Tpz * nz
        taug = Qpy * ny + Qpz * nz
        kappa = np.hypot(kg, kn)
        out = {"s": S, "u1": j1.value, "u2": j2.value,
               "x": jx.value, "y": jy.value, "z": jz.value,
               "Ty": Ty, "Tz": Tz, "Tpy": Tpy, "Tpz": Tpz,
               "ny": ny, "nz": nz, "nyp": nyp, "nzp": nzp,
               "Qy": Qy, "Qz": Qz, "Qpy": Qpy, "Qpz": Qpz,
               "kg": kg, "kn": kn, "taug": taug, "kappa": kappa,
               "phi": np.where(kappa == 0.0, 0.0, np.arctan2(-kn, kg)), "omega": omega}
    if not np.isfinite(list(out.values())).all():
        raise G3Error("not finite")
    return out


# x of the surface, then a trace (u1, u2) along which x advances at unit
# rate, except for the last
_DARBOUX_TRACES = [("u1", "s", "0.5"), ("u1", "s", "s"), ("u1", "s", "1 - s^2"),
                   ("u1", "s", "-sin(s)"), ("u1 + u2", "0.75*s", "0.25*s"),
                   ("u1 + u2", "s - sin(s)", "sin(s)"), ("u1", "2*s", "s")]


@settings(max_examples=150, deadline=None)
@given(_bivariate_sources(), st.sampled_from([0.0, -0.0, -0.4, 2.0]),
       st.sampled_from(_DARBOUX_TRACES))
# on (u1, -u2^3, -u1^3), k_g and k_n are 0 at s = 0 with other signs than
# the interpreter's: phi was -0.0 against -pi, and is 0 in both now
@example("-((u2)^3)", 0.0, ("u1", "s", "0.5"))
def test_darboux_tape_equals_the_interpreter(src, k, xuv):
    # where the interpreter's Darboux data is finite the tape's equals it
    # (== : a structural zero may give the other signed zero, and so phi
    # the other of -pi and pi where k_n is 0; where kappa is 0 phi is 0 in
    # both); where it raises a domain error or rejects the
    # trace, the tape raises the same; and the tape's normal and omega are
    # sample_surface's, bit for bit
    x, *uv = xuv
    ast = expr.parse(src, _V, {"k": k})
    swapped = expr.parse(src, _V[::-1], {"k": k})
    x = expr.parse(x, _V)
    domain = ((0.0, 1.0), (0.0, 1.0))
    # the graph form of the benchmark's surfaces, whose omega is at least 1,
    # and a general one
    surfaces = [SurfaceSpec(x, expr.parse("u2", _V), ast, domain),
                SurfaceSpec(x, ast, swapped, domain)]
    trace = TraceSpec.from_strings(*uv)
    S = np.linspace(-1.0, 2.0, 7)
    for surface in surfaces:
        try:
            want = _interpreted_darboux(surface, trace, S)
        except (ExprDomainError, InadmissibleTraceError) as e:
            with pytest.raises(type(e)) as got:
                _darboux_arrays(surface, trace, S)
            assert (got.type, str(got.value)) == (type(e), str(e)), (src, uv)
            continue
        except G3Error:
            want = None
        try:
            got = _darboux_arrays(surface, trace, S)
        except G3Error:
            assert want is None, (src, uv)
            continue
        for i, s in enumerate(S):
            try:
                sample = sample_surface(surface, got["u1"][i], got["u2"][i])
            except G3Error:
                continue
            assert [float(got[key][i]).hex() for key in ("ny", "nz", "omega")] == \
                [v.hex() for v in (sample.n.y, sample.n.z, sample.omega)], (src, uv, s)
        if want is None:
            continue
        assert list(got) == list(want)
        for key, need in want.items():
            have = got[key]
            assert have.shape == np.shape(need) == S.shape, key
            if key == "phi":
                # atan2(-k_n, k_g) of a zero k_n turns its sign into -pi or pi
                have = np.where((want["kn"] == 0.0) & (np.abs(have) == np.abs(need)), need, have)
            assert (have == need).all(), (src, uv, key, have, need)


def _interpreted_frenet(curve, S):
    """_curve_arrays as it was written on eval_jet's jets, structural zeros
    made 0.0 and broadcast: the oracle of the curve tape."""
    jf = expr.eval_jet(curve.f, S, order=3)
    jg = expr.eval_jet(curve.g, S, order=3)
    with np.errstate(all="ignore"):
        kappa = np.hypot(jf.d2, jg.d2)
        bad = kappa <= KAPPA_MIN
        if np.any(bad):
            s_bad = float(np.asarray(S, dtype=float).reshape(-1)[np.argmax(np.ravel(bad))])
            raise StraightSegmentError(
                f"kappa <= {KAPPA_MIN:g} at s = {s_bad:.6g}: Frenet frame undefined")
        tau = (jf.d2 * jg.d3 - jg.d2 * jf.d3) / (kappa * kappa)
        return {
            "s": S,
            "f": jf.value, "g": jg.value,
            "fp": jf.d1, "gp": jg.d1,
            "fpp": jf.d2, "gpp": jg.d2,
            "kappa": kappa, "tau": tau,
            "Ny": jf.d2 / kappa, "Nz": jg.d2 / kappa,
            "By": -jg.d2 / kappa, "Bz": jf.d2 / kappa,
        }


@settings(max_examples=150, deadline=None)
@given(_bivariate_sources(), st.sampled_from([0.0, -0.0, -0.4, 2.0]),
       st.sampled_from(["u1^2/2", "u1^3/6", "sin(u1)", "0", "exp(800*u1)"]))
def test_curve_tape_equals_the_interpreter(src, k, other):
    # curves over u1 (u2 a parameter) of a generated source and a fixed one,
    # either way round.  Where the oracle is finite the tape's Frenet data
    # equals it (== : a structural zero may give the other signed zero);
    # where the oracle raises a domain or straight-segment error the tape
    # raises the same; where a result is not finite the tape names the
    # oracle's first such sample and result
    params = {"k": k, "u2": 0.5}
    ast, other = expr.parse(src, ["u1"], params), expr.parse(other, ["u1"], params)
    S = np.linspace(-1.0, 2.0, 7)
    for curve in (CurveSpec(ast, other, (-1.0, 2.0)), CurveSpec(other, ast, (-1.0, 2.0))):
        try:
            want = _interpreted_frenet(curve, S)
        except (ExprDomainError, StraightSegmentError) as e:
            with pytest.raises(type(e)) as got:
                _curve_arrays(curve, S)
            assert (got.type, str(got.value)) == (type(e), str(e)), src
            continue
        finite = np.isfinite([np.broadcast_to(v, S.shape) for v in want.values()])
        if not finite.all():
            i = int(np.argmin(finite.all(axis=0)))
            name = list(want)[int(np.argmin(finite[:, i]))]
            with pytest.raises(G3Error) as got:
                _curve_arrays(curve, S)
            assert got.type is G3Error
            assert str(got.value) == (f"{name} = {np.broadcast_to(want[name], S.shape)[i]} "
                                      f"is not finite at s = {S[i]:.6g}"), src
            continue
        got = _curve_arrays(curve, S)
        assert list(got) == list(want)
        for key, need in want.items():
            assert got[key].shape == S.shape, key
            assert (got[key] == need).all(), (src, key, got[key], need)


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
    c = expr.combine("*", a, b, ["s"])
    assert float(expr.eval_jet(c, 1.0, 0).value) == pytest.approx(2.0 * 3.0)
    conflicting = expr.parse("k", [], {"k": 5.0})
    with pytest.raises(ValueError):
        expr.combine("+", a, conflicting, ["s"])
    # the evaluator looks variables up by name, so every one must be declared
    with pytest.raises(ValueError, match="undeclared variables"):
        expr.combine("+", a, expr.parse("t", ["t"]), ["s"])
