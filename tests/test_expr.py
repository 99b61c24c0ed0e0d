import gc
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exactquad import expr
from exactquad.errors import EvalDomainError, SyntaxParseError, UnknownIdentifierError
from exactquad.expr import (
    MAX_DEPTH,
    Expression,
    evaluate_columns,
    overflows,
    parse,
)

# the benchmark's problem generators, imported read-only
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

sys.path.pop(0)


class TestParseExamples:
    def test_identity(self):
        assert parse("t")(0.5) == 0.5

    def test_sin_plus_square_at_zero(self):
        assert parse("sin(t)+t^2")(0.0) == 0.0

    def test_incomplete_input_offset(self):
        with pytest.raises(SyntaxParseError) as exc:
            parse("t +")
        assert exc.value.offset == 3

    def test_power_right_associative(self):
        assert parse("2^3^2")(0.0) == 512.0

    def test_log_domain_error(self):
        with pytest.raises(EvalDomainError):
            parse("log(t)")(0.0)

    def test_exp_matches_platform(self):
        # oracle: the host platform exponential
        assert parse("exp(-t)")(1.0) == math.exp(-1.0)
        assert parse("exp(-t)")(1.0) == 0.36787944117144233

    def test_no_implicit_multiplication(self):
        with pytest.raises(SyntaxParseError):
            parse("2t")

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as exc:
            parse("2*foo(t)")
        assert exc.value.offset == 2

    def test_empty_input(self):
        with pytest.raises(SyntaxParseError):
            parse("   ")

    def test_non_ascii_rejected(self):
        with pytest.raises(SyntaxParseError):
            parse("t+α")

    # the grammar is ASCII: no other digits, letters or spaces
    @pytest.mark.parametrize("text,offset", [
        ("\u0663*t", 0),    # ARABIC-INDIC DIGIT THREE
        ("t+\uff13", 2),    # FULLWIDTH DIGIT THREE
        ("t\u00a0+1", 1),   # NO-BREAK SPACE
        ("t\u2003+1", 1),   # EM SPACE
        ("t\u3000+1", 1),   # IDEOGRAPHIC SPACE
        (" \u00a0", 1),
        ("\uff54", 0),      # FULLWIDTH LATIN SMALL LETTER T
    ])
    def test_non_ascii_digits_and_spaces_rejected(self, text, offset):
        with pytest.raises(SyntaxParseError) as exc:
            parse(text)
        assert type(exc.value) is SyntaxParseError
        bad = text.encode("utf-8")[offset:].decode("utf-8")[0]
        assert str(exc.value) == f"unexpected character {bad!r} (offset {offset})"
        assert exc.value.offset == offset

    def test_min_needs_two_arguments(self):
        with pytest.raises(SyntaxParseError):
            parse("min(t)")
        assert parse("min(t,0.25)")(0.5) == 0.25
        assert parse("max(t,0.25,2)")(0.5) == 2.0

    def test_constants(self):
        assert parse("pi")(0.0) == math.pi
        assert parse("e")(0.0) == math.e


class TestDomainErrors:
    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            parse("1/t")(0.0)

    def test_sqrt_negative(self):
        with pytest.raises(EvalDomainError):
            parse("sqrt(t)")(-1.0)

    def test_negative_base_fractional_power(self):
        with pytest.raises(EvalDomainError):
            parse("t^0.5")(-2.0)
        # integer exponents on negative bases stay real
        assert parse("t^3")(-2.0) == -8.0

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalDomainError):
            parse("t^(-1)")(0.0)

    def test_general_power_domain(self):
        # an exponent that is not a number literal is checked point by point
        with pytest.raises(EvalDomainError,
                           match="negative base with non-integer exponent") as exc:
            parse("(t-1)^t")(0.5)
        assert exc.value.subexpr == "(t-1.0)^t"
        with pytest.raises(EvalDomainError,
                           match="zero raised to a negative power") as exc:
            parse("(t-1)^(t-2)")(1.0)
        assert exc.value.subexpr == "(t-1.0)^(t-2.0)"
        # an integral exponent keeps a negative base real
        assert parse("(t-1)^(t-2)")(0.0) == 1.0
        assert np.array_equal(parse("(t-1)^t")(np.array([1.0, 2.0, 3.0])),
                              [0.0, 1.0, 8.0])

    def test_overflow_is_domain_error(self):
        with pytest.raises(EvalDomainError):
            parse("exp(t)")(1e6)

    def test_error_names_subexpression(self):
        with pytest.raises(EvalDomainError) as exc:
            parse("1+log(t-2)")(1.0)
        assert "log(t-2.0)" in str(exc.value)

    # a constant subtree evaluates to a Python float, not an array, so its
    # domain check must accept a scalar
    @pytest.mark.parametrize("text,message,subexpr", [
        ("(-2)^0.5", "negative base with non-integer exponent", "(-2.0)^0.5"),
        ("0^-1+t", "zero raised to a negative power", "0.0^(-1.0)"),
        ("log(0)+t", "log of a non-positive value", "log(0.0)"),
        ("sqrt(-1)*t", "sqrt of a negative value", "sqrt(-1.0)"),
        ("1/(1-1)", "division by zero", "1.0/(1.0-1.0)"),
    ])
    @pytest.mark.parametrize("x", [0.5, np.array([0.25, 0.5])],
                             ids=["scalar", "array"])
    def test_constant_subtree_domain_error(self, text, message, subexpr, x):
        with pytest.raises(EvalDomainError) as exc:
            parse(text)(x)
        assert str(exc.value) == f"{message} in '{subexpr}'"
        assert exc.value.subexpr == subexpr


# --- powers with a literal exponent ---------------------------------------

_NEGATIVE_BASE = "negative base with non-integer exponent"
_ZERO_BASE = "zero raised to a negative power"


def _exponent_text(c):
    # "t^-0.5" parses as a negated literal, "t^0.5" as a literal
    return ("-" if math.copysign(1.0, c) < 0 else "") + repr(abs(c))


def _power_outcome(x, c):
    """What ``t^c`` must give at ``x``: the error message, or np.power's value."""
    x = np.asarray(x, dtype=float)
    if not c.is_integer() and np.any(x < 0):
        return _NEGATIVE_BASE
    if c < 0 and np.any(x == 0):
        return _ZERO_BASE
    return np.power(x, c)


def _check_power(c, x):
    text = "t^" + _exponent_text(c)
    expected = _power_outcome(x, c)
    if isinstance(expected, str):
        # inside a sum, so the label must name the power, not the whole
        with pytest.raises(EvalDomainError) as exc:
            parse("1+" + text)(x)
        assert str(exc.value) == f"{expected} in '{parse(text).text}'"
        assert exc.value.subexpr == parse(text).text
    else:
        got = parse(text)(x)
        assert type(got) is (float if np.ndim(x) == 0 else np.ndarray)
        assert np.asarray(got).tobytes() == expected.tobytes()


@pytest.mark.parametrize("c,x,outcome", [
    (2.0, [-3.0, -0.0, 0.0, 1.5], "value"),
    (-0.0, [-2.0, -0.0, 0.0], "value"),         # t^-0 is 1 everywhere
    (-3.0, [-2.0, 0.5], "value"),
    (-3.0, [-2.0, 0.0], _ZERO_BASE),
    (-2.0, [-0.0], _ZERO_BASE),
    (0.5, [0.0, -0.0, 4.0], "value"),           # sqrt(-0.0) is -0.0
    (0.5, [4.0, -1.0], _NEGATIVE_BASE),
    (-0.5, [4.0, 0.0], _ZERO_BASE),
    (-0.5, [-0.0], _ZERO_BASE),                 # -0.0 is not negative
    (-0.5, [0.0, -1.0], _NEGATIVE_BASE),        # both fire: negative first
    (-1.5, [-1.0, 0.0], _NEGATIVE_BASE),
])
def test_literal_power_table(c, x, outcome):
    expected = _power_outcome(x, c)
    assert (expected if isinstance(expected, str) else "value") == outcome
    _check_power(c, np.array(x))
    for xi in x:
        _check_power(c, xi)


_LITERAL_EXPONENTS = st.one_of(
    st.integers(-4, 4).map(float),
    st.just(-0.0),
    st.floats(-4.0, 4.0).filter(lambda c: not c.is_integer()),
)
_BASES = st.one_of(
    st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0]),
    st.floats(0.01, 10.0),
    st.floats(-10.0, -0.01),
)


@given(_LITERAL_EXPONENTS, st.lists(_BASES, min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_literal_power_matches_np_power(c, bases):
    _check_power(c, np.array(bases))
    _check_power(c, bases[0])


def test_zero_to_the_zero_is_one():
    assert parse("0^0")(5.0) == 1.0
    assert parse("t^0")(0.0) == 1.0
    assert parse("t^-0")(0.0) == 1.0
    assert np.array_equal(parse("0^0")(np.zeros(3)), np.ones(3))


@pytest.mark.parametrize("text", ["t", "2", "t^2"])
@pytest.mark.parametrize("x", [
    np.linspace(0.5, 1.5, 12).reshape(3, 4),
    np.broadcast_to(0.75, (5,)),                # read-only input
], ids=["2-d", "read-only"])
def test_array_result_is_a_fresh_array(text, x):
    before = x.copy()
    out = parse(text)(x)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    assert out.shape == x.shape and out.flags.writeable
    assert not np.shares_memory(out, x)
    out[...] = -1.0
    assert np.array_equal(x, before)
    assert type(parse(text)(0.75)) is float


# --- round-trip property ------------------------------------------------

def _tree(draw_depth):
    leaf = st.one_of(
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False).map(
            lambda v: ("num", v)
        ),
        st.just(("t",)),
        st.sampled_from([("const", "pi"), ("const", "e")]),
    )

    def extend(children):
        un = st.sampled_from(["sin", "cos", "tan", "exp", "abs", "log", "sqrt"]).flatmap(
            lambda name: children.map(lambda a: ("fn", name, (a,)))
        )
        neg = children.map(lambda a: ("neg", a))
        binop = st.tuples(
            st.sampled_from(["+", "-", "*", "/", "^"]), children, children
        ).map(lambda t: ("bin", t[0], t[1], t[2]))
        # a literal exponent, negated or not, decides its domain checks
        literal_pow = st.tuples(
            children, st.sampled_from([0.0, 0.5, 1.5, 2.0, 3.0]), st.booleans()
        ).map(lambda t: ("bin", "^", t[0], ("neg", ("num", t[1])) if t[2] else ("num", t[1])))
        mm = st.tuples(
            st.sampled_from(["min", "max"]), children, children
        ).map(lambda t: ("fn", t[0], (t[1], t[2])))
        return st.one_of(un, neg, binop, literal_pow, mm)

    return st.recursive(leaf, extend, max_leaves=draw_depth)


_T_GRID = np.linspace(-2.0, 2.0, 1000)
# the domain edges of log, sqrt, division and powers, and points off them
_EDGE_POINTS = (-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0)


def _outcome(e, ts):
    """The bytes of ``e``'s values at ``ts``, or the text of the domain
    error it raises."""
    try:
        return np.asarray(e(ts)).tobytes()
    except EvalDomainError as exc:
        return str(exc)


@given(_tree(12))
@settings(max_examples=200, deadline=None)
def test_pretty_parse_roundtrip_zero_ulp(ast):
    # a tree's text reparses to the same tree and text, and the parsed
    # expression evaluates as the one built from the tree, to the bit, or
    # raises the same domain error naming the same subexpression
    e = Expression(ast)
    reparsed = parse(e.text)
    assert e.ast == ast and reparsed.ast == ast
    assert reparsed.text == e.text
    for ts in (_T_GRID, *_EDGE_POINTS):
        assert _outcome(reparsed, ts) == _outcome(e, ts)


_REFERENCE_FUNCS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
                    "abs": np.abs, "log": np.log, "sqrt": np.sqrt}
_REFERENCE_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
                  "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def _is_constant(tree):
    """Whether ``tree`` is a number, ``pi`` or ``e``, negated any number of
    times: such an exponent decides a power's domain checks once."""
    while tree[0] == "neg":
        tree = tree[1]
    return tree[0] in ("num", "const")


def _reference(tree, t):
    """``tree``'s value at ``t`` by recursion over the tree, with the numpy
    calls that each node's evaluator makes, and no domain checks."""
    tag = tree[0]
    if tag == "num":
        return tree[1]
    if tag == "t":
        return t
    if tag == "const":
        return {"pi": np.pi, "e": np.e}[tree[1]]
    if tag == "neg":
        return -_reference(tree[1], t)
    if tag == "fn":
        args = [_reference(a, t) for a in tree[2]]
        if tree[1] in ("min", "max"):
            out = np.inf if tree[1] == "min" else -np.inf
            for a in args:
                out = (np.minimum if tree[1] == "min" else np.maximum)(out, a)
            return out
        return _REFERENCE_FUNCS[tree[1]](args[0])
    op, a, b = tree[1:]
    base = _reference(a, t)
    if op != "^":
        return _REFERENCE_OPS[op](base, _reference(b, t))
    if _is_constant(b):
        return np.power(base, _reference(b, t))
    return np.power(np.asarray(base, dtype=float),
                    np.asarray(_reference(b, t), dtype=float))


@given(_tree(12))
@settings(max_examples=200, deadline=None)
def test_evaluation_matches_a_reference_recursion(ast):
    # the evaluators built from partials give, to the bit, what the same
    # numpy calls give applied to the tree, wherever no domain error is raised
    e = Expression(ast)
    for ts in (_T_GRID, *_EDGE_POINTS):
        try:
            got = e(ts)
        except EvalDomainError:
            continue
        with np.errstate(all="ignore"):
            want = np.broadcast_to(np.asarray(_reference(ast, np.atleast_1d(ts)),
                                              dtype=float), np.shape(ts) or (1,))
        assert np.asarray(got, dtype=float).tobytes() == want.tobytes()


def _reachable(roots, stop):
    """Objects reachable from ``roots`` by ``gc.get_referents``, by id,
    not entering modules or the objects in ``stop``."""
    seen, todo = {}, list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or id(obj) in stop or isinstance(obj, types.ModuleType):
            continue
        seen[id(obj)] = obj
        todo.extend(gc.get_referents(obj))
    return seen


def _nodes(tree):
    if tree[0] == "bin":
        return 1 + _nodes(tree[2]) + _nodes(tree[3])
    if tree[0] == "neg":
        return 1 + _nodes(tree[1])
    if tree[0] == "fn":
        return 1 + sum(map(_nodes, tree[2]))
    return 1


@pytest.mark.parametrize("text", [
    "-1.5+-0.25*t+-2.0*t^2+-0.5*t^3+-1.25*t^4",
    "1.5*sin(2*t)+-0.5*exp(-0.25*t)",
    "max(t,1-t,0.5)/sqrt(1+t^2)+log(2+t)^t",
])
def test_evaluator_keeps_few_tracked_objects(text):
    # what an evaluator holds beyond the module's own functions and tables:
    # a partial and its argument tuple per inner node, and at most one
    # partial per number literal
    shared = _reachable(vars(expr).values(), {})
    e = parse(text)
    gc.collect()
    own = _reachable([e._fn], shared).values()
    assert sum(map(gc.is_tracked, own)) <= 2 * _nodes(e.ast)
    # a constant, negated or not, is one partial over an untracked float
    for literal in ("2.5", "-2.5"):
        e = parse(literal)
        gc.collect()
        assert sum(map(gc.is_tracked, _reachable([e._fn], shared).values())) == 1


# a composite's operands: parsed trees or plain numbers (negative ones
# too, which compose as negated literals)
_OPERAND = st.one_of(_tree(6).map(Expression),
                     st.floats(-3.0, 3.0, allow_nan=False))
_COMPOSE_OPS = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b,
    "*": lambda a, b: a * b, "/": lambda a, b: a / b,
    "^": lambda a, b: a ** b, "r-": lambda a, b: b - a,
    "r/": lambda a, b: b / a, "neg": lambda a, b: -a,
}


@given(_tree(6), st.lists(st.tuples(st.sampled_from(list(_COMPOSE_OPS)),
                                    _OPERAND), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_composites_print_and_evaluate_as_their_tree(ast, steps):
    # a composite is built from its operands' closures and texts; it must
    # print as its tree does, reparse to that tree, and evaluate (domain
    # error labels included) as the tree compiled from scratch
    e = Expression(ast)
    for op, operand in steps:
        e = _COMPOSE_OPS[op](e, operand)
    fresh = Expression(e.ast)
    assert e.text == fresh.text
    assert parse(e.text).ast == e.ast
    ts = np.linspace(-2.0, 2.0, 101)
    assert _outcome(e, ts) == _outcome(fresh, ts)


@pytest.mark.parametrize("text", [
    "2^3^2", "(2^3)^2", "-t^2", "(-t)^2", "2^-3", "1-2-3", "1-(2-3)",
    "t/(1+t^2)", "t*-t", "--t", "min(t,max(t,0.5),2)", "1/(2+sin(t))",
    "sqrt(abs(t))+log(2+t)", "pi*e^2",
])
def test_roundtrip_hand_cases(text):
    e = parse(text)
    again = parse(e.text)
    ts = np.linspace(-1.5, 1.5, 257)
    assert np.array_equal(e(ts), again(ts))


def test_operator_combinators_roundtrip():
    f, g = parse("t"), parse("t^2")
    h = (f - 0.5) * (g - 1.0 / 3.0) + 2.0 / f
    again = parse(h.text)
    ts = np.linspace(0.1, 2.0, 101)
    assert np.array_equal(h(ts), again(ts))
    assert h(1.0) == (1.0 - 0.5) * (1.0 - 1.0 / 3.0) + 2.0


def test_overflowing_literal_is_syntax_error():
    # it would print as "inf", which does not reparse
    with pytest.raises(SyntaxParseError) as exc:
        parse("exp(-1e400*t^2)")
    assert exc.value.offset == 5


# each shape as text whose tree is k levels deep (parentheses: nested k deep)
_DEEP_SHAPES = {
    "parentheses": lambda k: "(" * k + "t" + ")" * k,
    "unary-minus": lambda k: "-" * (k - 1) + "t",
    "power-chain": lambda k: "^".join(["t"] * k),
    "flat-sum": lambda k: "+".join(["t"] * k),
    "calls": lambda k: "abs(" * (k - 1) + "t" + ")" * (k - 1),
}


@pytest.mark.parametrize("shape", list(_DEEP_SHAPES))
def test_depth_limit(shape):
    make = _DEEP_SHAPES[shape]
    with pytest.raises(SyntaxParseError):
        parse(make(MAX_DEPTH + 1))
    e = parse(make(MAX_DEPTH))
    assert parse(e.text).ast == e.ast
    assert np.isfinite(e(1.0))
    # composites as stats builds them stay evaluable past the limit
    composite = (e - 0.5) * (e - 0.25)
    assert composite(1.0) == (e(1.0) - 0.5) * (e(1.0) - 0.25)


_TREE_TOO_DEEP = f"expression tree is deeper than {MAX_DEPTH} levels"


@pytest.mark.parametrize("text,error,message,offset", [
    ("", SyntaxParseError, "empty expression", 0),
    ("   ", SyntaxParseError, "empty expression", 0),
    ("2t", SyntaxParseError, "unexpected token 't'", 1),
    ("t+", SyntaxParseError, "expected a value", 2),
    ("(t", SyntaxParseError, "expected ')'", 2),
    ("t)", SyntaxParseError, "unexpected token ')'", 1),
    ("sin t", SyntaxParseError, "expected '('", 4),
    ("t,t", SyntaxParseError, "unexpected token ','", 1),
    ("sin(t,t)", SyntaxParseError, "'sin' takes exactly one argument", 0),
    ("min(t)", SyntaxParseError, "'min' needs at least two arguments", 0),
    ("foo(t)", UnknownIdentifierError, "unknown identifier 'foo'", 0),
    ("1e999", SyntaxParseError, "number literal overflows a double", 0),
    ("t $ 2", SyntaxParseError, "unexpected character '$'", 2),
    # an unexpected character is reported before an earlier syntax error
    ("2t $", SyntaxParseError, "unexpected character '$'", 3),
    ("t+.", SyntaxParseError, "unexpected character '.'", 2),
    (_DEEP_SHAPES["parentheses"](MAX_DEPTH + 1), SyntaxParseError,
     f"expression is nested deeper than {MAX_DEPTH} levels", MAX_DEPTH),
    (_DEEP_SHAPES["unary-minus"](MAX_DEPTH + 1), SyntaxParseError, _TREE_TOO_DEEP, 0),
    (_DEEP_SHAPES["power-chain"](MAX_DEPTH + 1), SyntaxParseError, _TREE_TOO_DEEP, 0),
    (_DEEP_SHAPES["flat-sum"](MAX_DEPTH + 1), SyntaxParseError, _TREE_TOO_DEEP, 0),
    (_DEEP_SHAPES["calls"](MAX_DEPTH + 1), SyntaxParseError, _TREE_TOO_DEEP, 0),
], ids=lambda v: v[:12] if isinstance(v, str) else None)
def test_malformed_input_table(text, error, message, offset):
    with pytest.raises(SyntaxParseError) as exc:
        parse(text)
    assert type(exc.value) is error
    assert str(exc.value) == f"{message} (offset {offset})"
    assert exc.value.offset == offset


def test_array_and_scalar_evaluation_agree():
    e = parse("sin(2*t)+t^3-0.25")
    ts = np.linspace(-1, 1, 33)
    arr = e(ts)
    assert arr.shape == ts.shape
    for i, t in enumerate(ts):
        assert arr[i] == e(float(t))


def test_overflows_sees_an_intermediate_overflow():
    # (1+t^2)^-0.5 is a finite 0 once t^2 overflows
    e = parse("(1+t^2)^-0.5")
    assert e(1e160) == 0.0 and overflows(e, 1e160)
    assert not overflows(e, 1e150)
    assert not overflows(parse("exp(-t)"), 1e6)


def test_division_by_an_underflowed_zero_overflows():
    # t^2 underflows to 0 below t = 1e-162: 1/t^2 reads inf there, as t^-2
    # does, and exp(-1/t)/t^2 is 0/0, nan; a plain call refuses both
    cols = evaluate_columns((parse("1/t^2"), parse("-1/t^2"), parse("exp(-1/t)/t^2")),
                            1e-200, finite=False)[0]
    assert cols[0] == math.inf and cols[1] == -math.inf and math.isnan(cols[2])
    with pytest.raises(EvalDomainError, match="non-finite value"):
        parse("1/t^2")(1e-200)
    # a true zero stays a division by zero
    with pytest.raises(EvalDomainError, match="division by zero"):
        evaluate_columns((parse("1/(t-1)"),), 1.0, finite=False)


# --- column reuse -----------------------------------------------------------

def _columns_or_error(exprs, ts):
    """The bytes of each column of the batch, or the text of its error."""
    try:
        out = evaluate_columns(exprs, ts)
    except EvalDomainError as exc:
        return str(exc)
    return [out[:, k].tobytes() for k in range(len(exprs))]


def _calls_or_error(exprs, ts):
    """The bytes of each component's own call, or the text of the first
    error in index order."""
    try:
        return [np.asarray(e(ts)).tobytes() for e in exprs]
    except EvalDomainError as exc:
        return str(exc)


@given(_tree(6), _tree(6))
@settings(max_examples=200, deadline=None)
def test_products_read_from_earlier_columns_match_their_own_calls(fa, ga):
    # a sum, difference or product of two earlier components is read from
    # their columns: bit for bit its own call's values, and a failing
    # batch raises the first failing component's own error
    f, g = parse(Expression(fa).text), parse(Expression(ga).text)
    system = (f, g, f * g, f * f, g * g, f - g, g + f)
    for ts in (np.linspace(-2.0, 2.0, 101), np.array(_EDGE_POINTS)):
        assert _columns_or_error(system, ts) == _calls_or_error(system, ts)


def test_composite_without_earlier_operands_runs_its_evaluator():
    f, g = parse("sin(t)"), parse("exp(t)")
    fg = f * g
    own, calls = fg._fn, []
    fg._fn = lambda ts: calls.append(1) or own(ts)
    ts = np.linspace(-1.0, 1.0, 17)
    # an operand missing, later in the batch, or an equal copy, not f itself
    for batch in ((fg,), (f, fg), (fg, f, g), (f, fg, g), (parse("sin(t)"), g, fg)):
        calls.clear()
        out = evaluate_columns(batch, ts)
        assert calls == [1]
        assert out[:, batch.index(fg)].tobytes() == own(ts).tobytes()
    calls.clear()
    out = evaluate_columns((f, g, fg), ts)
    assert calls == []
    assert out[:, 2].tobytes() == own(ts).tobytes()
    # a composite with a number operand keeps no operands to read
    assert (f * 2.0)._parts is None and (f / g)._parts is None
    assert parse("sin(t)*exp(t)")._parts is None


def test_moments_run_each_tree_once_per_batch(monkeypatch):
    # the moments pass integrates (f, g, fg, f^2, g^2): f's and g's trees
    # run once per batch, not in every product again
    from exactquad import measure, stats

    f, g = parse("sin(3*t)+t"), parse("t^2*exp(-t)")
    runs = {"f": 0, "g": 0}
    for name, e in (("f", f), ("g", g)):
        def counted(ts, fn=e._fn, name=name):
            runs[name] += 1
            return fn(ts)
        e._fn = counted
    batches = 0
    columns = measure.evaluate_columns

    def counting(exprs, ts, **kwargs):
        nonlocal batches
        batches += len(exprs) == 5
        return columns(exprs, ts, **kwargs)

    monkeypatch.setattr(measure, "evaluate_columns", counting)
    m = measure.MeasureSpec(measure.IntervalSpec(0, 2), density=parse("1"))
    stats._moments(f, g, m)
    assert batches >= 1
    assert runs == {"f": batches, "g": batches}


def test_parsing_formats_no_text(monkeypatch):
    # a parse, and the products that stats composes from it, build trees
    # and evaluators only; .text prints the tree when first read, once
    calls = []

    def counted(tree, real=expr._print):
        calls.append(1)
        return real(tree)

    monkeypatch.setattr(expr, "_print", counted)
    products = []
    for item in corpus.acceptance_corpus(20260808, 0):
        problem = item["problem"]
        functions = [parse(text) for text in problem["functions"]]
        parse(problem["measure"]["density"])
        f, g = functions[0], functions[-1]
        products += [f * g, f * f, g * g]
    assert calls == []
    for e in products:
        text = e.text
        printed = len(calls)
        assert printed > 0
        assert e.text is text and len(calls) == printed
        calls.clear()
