"""Parsing and evaluation of one-variable real expressions.

Grammar (closed, no user-defined functions)::

    sum    := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | 't' | 'pi' | 'e'
            | FUNC '(' sum (',' sum)* ')'
            | '(' sum ')'

``^`` binds tightest, then unary minus, then ``* /``, then ``+ -``.
Functions: sin cos tan exp log sqrt abs (one argument), min max (two or
more).  There is no implicit multiplication: ``2t`` is a syntax error.
The text is ASCII: number literals are written in the digits 0-9 and must
be finite doubles, and only ASCII whitespace separates tokens.  Trees may
be ``MAX_DEPTH`` levels deep (``t+t+t`` and ``-(-t)`` have three), and
parentheses, calls and exponents may nest ``MAX_DEPTH`` deep.

A text is parsed in one pass: one regex scan, then precedence climbing
that builds each node's tree and evaluator from its operands' as it
recognises the node, exactly as arithmetic on expressions builds a
composite; ``Expression(ast)`` builds a tree with the same helpers.  A
parse formats no text: the canonical text is printed from the tree on
first use and memoized, and a domain error's label is printed from its
node's tree when the error is raised.  A node's evaluator is a
``functools.partial`` of one module-level function per operation over its
operands' evaluators, not a closure of its own, so a parsed expression
keeps about three collector-tracked objects per inner node (tree, partial,
argument tuple) and none per number literal that is a left operand of
``+ - *``; a negated number literal is one constant.

Expressions are immutable after parsing; evaluation is side-effect free and
follows IEEE-754 double semantics.  Evaluating outside the real domain
(log of a non-positive value, division by zero, sqrt of a negative, a
negative base with a non-integer exponent, or any non-finite result) raises
:class:`~exactquad.errors.EvalDomainError` naming the offending
subexpression, but a denominator that underflowed to 0 divides as in
IEEE: ``1/t^2`` is inf below t = 1e-162, as ``t^-2`` is, and
``exp(-1/t)/t^2`` nan.  A power whose exponent is a constant (``t^3``,
``t^-0.5``, ``t^pi``) decides when it is compiled which of its two domain
checks can fire, so ``t^2`` checks nothing.  Syntax errors carry 0-based
byte offsets.

A function system is evaluated as one batch by :func:`evaluate_columns`:
one ``errstate`` and one output array for all components, checked for
finiteness once; only a failing batch is searched for its first failing
column, so it raises exactly the error that calling the components one by
one, in index order, would.  A sum, difference or product of two
expressions keeps its operands, and a batch that holds both as earlier
components reads its column from theirs instead of walking their trees
again: (f, g, f*g, f*f, g*g) evaluates f and g once each.
"""

from __future__ import annotations

import math
import re
import string
from functools import partial

import numpy as np

from .errors import EvalDomainError, SyntaxParseError, UnknownIdentifierError

__all__ = ["Expression", "parse"]

# evaluation, printing and Expression(ast) recurse once per level, and
# composing parsed expressions (as stats does) adds a few levels
MAX_DEPTH = 100

_UNARY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "abs": np.abs,
}
# one-argument functions with a domain: ufunc, then the out-of-domain test
# (comparison ufunc, bound) and its message.  A test is a ufunc, not an
# operator, so that it gives a numpy bool, which has ``.any()``, also on the
# float that a constant argument evaluates to
_DOMAIN_FUNCS = {
    "log": (np.log, np.less_equal, 0.0, "log of a non-positive value"),
    "sqrt": (np.sqrt, np.less, 0.0, "sqrt of a negative value"),
}
# the checks of a power whose exponent is a constant c, keyed by (c is not
# an integer, c < 0): a negative base fails only for a non-integer c and a zero
# base only for a negative c; each is (comparison ufunc, bound, message), in
# the general power's order
_NEGATIVE_BASE = (np.less, 0, "negative base with non-integer exponent")
_ZERO_BASE = (np.equal, 0, "zero raised to a negative power")
_POW_CHECKS = {
    (False, False): (),
    (False, True): (_ZERO_BASE,),
    (True, False): (_NEGATIVE_BASE,),
    (True, True): (_NEGATIVE_BASE, _ZERO_BASE),
}
# min and max: reducer and start value
_VARIADIC_FUNCS = {"min": (np.minimum, np.inf), "max": (np.maximum, -np.inf)}
_CONSTANTS = {"pi": np.pi, "e": np.e}

_TOKEN_RE = re.compile(
    r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"  # number
    r"|[A-Za-z_]\w*|[-+*/^(),]"                  # name, operator
    r"|\S",                                      # any other character
    re.ASCII,
)
# a one-character token that is none of these is an unexpected character
_TOKEN_CHARS = frozenset(string.ascii_letters + string.digits + "_-+*/^(),")
_FUNCS = {*_UNARY_FUNCS, *_DOMAIN_FUNCS, *_VARIADIC_FUNCS}


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _syntax_error(text, k, message, error=SyntaxParseError):
    """``error(message)`` at the ``k``-th token of ``text`` (``k`` past the
    last token is the end), unless ``text`` holds an unexpected character:
    no such text parses, and its first one is reported instead."""
    starts = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group()
        if len(tok) == 1 and tok not in _TOKEN_CHARS:
            return SyntaxParseError(f"unexpected character {tok!r}",
                                    _byte_offset(text, m.start()))
        starts.append(m.start())
    starts.append(len(text))
    return error(message, _byte_offset(text, starts[k]))


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(node) -> int:
    tag = node[0]
    if tag == "bin":
        return _PREC[node[1]]
    if tag == "neg":
        return 3
    return 5


def _print(tree) -> str:
    """Canonical text of ``tree``; reparsing it rebuilds ``tree``."""
    tag = tree[0]
    if tag == "bin":
        op, a, b = tree[1:]
        return _bin_text(op, a, b, _print(a), _print(b))
    if tag == "neg":
        return _neg_text(tree[1], _print(tree[1]))
    if tag == "num":
        return repr(tree[1])
    if tag == "fn":
        return f"{tree[1]}({','.join([_print(a) for a in tree[2]])})"
    return "t" if tag == "t" else tree[1]  # a named constant


def _neg_text(a, inner: str) -> str:
    """Text of ``-a`` from the tree ``a`` and its text ``inner``."""
    return f"-({inner})" if _prec(a) < 3 else f"-{inner}"


def _bin_text(op, a, b, left: str, right: str) -> str:
    """Text of ``a op b`` from the operand trees and their texts."""
    p, pa, pb = _PREC[op], _prec(a), _prec(b)
    # parenthesize to reparse into the identical tree, not just an
    # equivalent value
    if pa < p or (pa == p and op == "^"):
        left = f"({left})"
    if pb < p or (pb == p and op != "^"):
        right = f"({right})"
    return f"{left}{op}{right}"


# Evaluators.  Each node's evaluator is a partial of one of these functions:
# its operands' evaluators and, for one that can raise, the node's tree
# first, ``t`` last; the tree is printed as the error's label only when the
# error is raised.  A partial holds its arguments in one tuple, where a
# closure holds a cell per captured name, a cell tuple and the function
# object; a constant's partial holds only a float, which the cycle
# collector does not track.  A partial costs a little more to call than a
# closure, so a constant left operand (``2*t``, ``1+t``) is passed as its
# float instead of being called.


def _const(v, t):
    return v


def _negate(fa, t):
    return -fa(t)


def _add(fa, fb, t):
    return fa(t) + fb(t)


def _sub(fa, fb, t):
    return fa(t) - fb(t)


def _mul(fa, fb, t):
    return fa(t) * fb(t)


def _cadd(v, fb, t):
    return v + fb(t)


def _csub(v, fb, t):
    return v - fb(t)


def _cmul(v, fb, t):
    return v * fb(t)


def _div(fa, fb, tree, t):
    den = fb(t)
    zero = np.equal(den, 0.0)  # a numpy bool for a constant denominator too
    if zero.any():
        # a denominator that underflowed to 0 divides as in IEEE
        at, zero = np.broadcast_arrays(t, zero)
        if not all(_raises(fb, x, "under") for x in at[zero]):
            raise EvalDomainError("division by zero", _print(tree))
    return fa(t) / den


def _pow(fa, fb, tree, t):
    base = np.asarray(fa(t), dtype=float)
    expo = np.asarray(fb(t), dtype=float)
    neg = base < 0
    if neg.any():
        e_at = np.broadcast_to(expo, np.broadcast_shapes(base.shape, expo.shape))
        b_neg = np.broadcast_to(neg, e_at.shape)
        if (e_at[b_neg] != np.floor(e_at[b_neg])).any():
            raise EvalDomainError("negative base with non-integer exponent",
                                  _print(tree))
    if ((base == 0) & (expo < 0)).any():
        raise EvalDomainError("zero raised to a negative power", _print(tree))
    return np.power(base, expo)


def _powc(fa, c, checks, tree, t):
    """``fa ^ c`` for a constant ``c``, with the domain ``checks`` that can fire."""
    base = fa(t)
    for outside, bound, message in checks:
        if outside(base, bound).any():
            raise EvalDomainError(message, _print(tree))
    return np.power(base, c)


def _unary(fa, ufunc, t):
    return ufunc(fa(t))


def _domain(fa, tree, ufunc, outside, bound, message, t):
    a = fa(t)
    if outside(a, bound).any():
        raise EvalDomainError(message, _print(tree))
    return ufunc(a)


def _minmax(fs, reducer, sentinel, t):
    out = sentinel
    for f in fs:
        out = reducer(out, f(t))
    return out


_ARITH = {"+": (_add, _cadd), "-": (_sub, _csub), "*": (_mul, _cmul)}
# the ufunc of each: a column of ``a op b`` from the columns of a and b is
# bit-identical to its evaluator's values
_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply}


def _constant(f):
    """The value of a constant's evaluator ``f``, else None."""
    return f.args[0] if isinstance(f, partial) and f.func is _const else None


def _bin_evaluator(op, fa, fb, tree):
    """Evaluator of ``a op b`` from the operands' evaluators ``fa`` and ``fb``.

    ``tree`` is the whole node, which division and power errors name; a
    constant exponent decides a power's domain checks.
    """
    if op in _ARITH:
        general, constant_left = _ARITH[op]
        v = _constant(fa)
        return partial(general, fa, fb) if v is None else partial(constant_left, v, fb)
    if op == "/":
        return partial(_div, fa, fb, tree)
    c = _constant(fb)
    if c is None:
        return partial(_pow, fa, fb, tree)
    return partial(_powc, fa, c, _POW_CHECKS[not c.is_integer(), c < 0], tree)


# A node is the pair (tree, evaluator).  Each is built from its operands'
# nodes, so parsing, Expression(ast) and arithmetic on expressions build a
# node in one step whatever the size of its operands.


def _leaf(tree, v):
    return tree, partial(_const, v)


_T_NODE = ("t",), lambda t: t
_CONST_NODES = {name: _leaf(("const", name), v) for name, v in _CONSTANTS.items()}


def _num_node(v):
    return _leaf(("num", v), v)


def _neg_node(x):
    a, fa = x
    tree = ("neg", a)
    if (v := _constant(fa)) is not None:
        # -v is the float that negating the constant's value gives
        return _leaf(tree, -v)
    return tree, partial(_negate, fa)


def _bin_node(op, x, y):
    (a, fa), (b, fb) = x, y
    tree = ("bin", op, a, b)
    return tree, _bin_evaluator(op, fa, fb, tree)


def _fn_node(name, args):
    tree = ("fn", name, tuple([x[0] for x in args]))
    if name in _UNARY_FUNCS:
        fn = partial(_unary, args[0][1], _UNARY_FUNCS[name])
    elif name in _DOMAIN_FUNCS:
        fn = partial(_domain, args[0][1], tree, *_DOMAIN_FUNCS[name])
    else:
        fn = partial(_minmax, tuple([x[1] for x in args]), *_VARIADIC_FUNCS[name])
    return tree, fn


def _build(tree):
    """The node of ``tree``, built from its leaves up."""
    tag = tree[0]
    if tag == "num":
        return _num_node(tree[1])
    if tag == "t":
        return _T_NODE
    if tag == "const":
        return _CONST_NODES[tree[1]]
    if tag == "neg":
        return _neg_node(_build(tree[1]))
    if tag == "bin":
        return _bin_node(tree[1], _build(tree[2]), _build(tree[3]))
    if tag == "fn":
        return _fn_node(tree[1], [_build(a) for a in tree[2]])
    raise AssertionError(f"bad node {tree!r}")


def _as_ast(value):
    c = float(value)
    if not np.isfinite(c):
        raise ValueError("expression constants must be finite")
    # -0.0 too: it prints as "-0.0", which parses as a negation
    if math.copysign(1.0, c) < 0:
        return ("neg", ("num", -c))
    return ("num", c)


class Expression:
    """A parsed function of the scalar variable ``t``.

    Calling an instance evaluates it: scalars in, float out; ndarray in,
    a new ndarray out.  Arithmetic between expressions (or with plain
    numbers) builds new expressions, so composites like ``(f - c) * g``
    stay in the same grammar and keep printing/round-tripping.  A
    composite is built from its operands' trees and evaluators, so it costs
    the same whatever the size of the operands' trees.  No expression
    formats its text until :attr:`text` is first read, which prints it from
    the tree and memoizes it.  A ``+ - *`` of two expressions also keeps
    ``_parts``, its ufunc and its two operands, for
    :func:`evaluate_columns`; every other expression holds None.
    """

    __slots__ = ("_ast", "_fn", "_text", "_parts")

    def __init__(self, ast):
        self._ast, self._fn = _build(ast)
        self._text = self._parts = None

    @property
    def ast(self):
        return self._ast

    @property
    def text(self) -> str:
        """Canonical source form; reparsing it rebuilds this tree."""
        if self._text is None:
            self._text = _print(self._ast)
        return self._text

    def __call__(self, t):
        """The one-column view of :func:`evaluate_columns`."""
        out = evaluate_columns((self,), t)[..., 0]
        return float(out[0]) if np.asarray(t).ndim == 0 else out

    def __repr__(self):
        return f"Expression({self.text!r})"

    @classmethod
    def _composed(cls, ast, fn, parts=None) -> "Expression":
        """The expression of ``ast``, whose evaluator is built."""
        e = object.__new__(cls)
        e._ast, e._fn, e._text, e._parts = ast, fn, None, parts
        return e

    def _bin(self, op, other, swap=False):
        parts = None
        if isinstance(other, Expression):
            operand = other._ast, other._fn
            if op in _UFUNCS:
                parts = (_UFUNCS[op], other, self) if swap else (_UFUNCS[op], self, other)
        else:
            try:
                operand = _build(_as_ast(other))
            except (TypeError, ValueError):
                return NotImplemented
        mine = self._ast, self._fn
        x, y = (operand, mine) if swap else (mine, operand)
        return Expression._composed(*_bin_node(op, x, y), parts)

    def __add__(self, other):
        return self._bin("+", other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._bin("-", other)

    def __rsub__(self, other):
        return self._bin("-", other, swap=True)

    def __mul__(self, other):
        return self._bin("*", other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._bin("/", other)

    def __rtruediv__(self, other):
        return self._bin("/", other, swap=True)

    def __pow__(self, other):
        return self._bin("^", other)

    def __neg__(self):
        return Expression._composed(*_neg_node((self._ast, self._fn)))


def evaluate_columns(exprs, ts, *, finite=True) -> np.ndarray:
    """Values of every expression at ``ts``, one column per expression.

    Returns a new ``ts.shape + (len(exprs),)`` array, a scalar ``ts``
    counting as one point; column k holds exactly the values of
    ``exprs[k](ts)``.  A ``+ - *`` of two expressions that are both
    earlier components of the batch (the same objects) is computed from
    their columns, so their trees run once; any other component runs its
    evaluator.  All evaluators run under one ``errstate``, and the
    whole batch is checked for finiteness once.  Only when that check
    fails, or an evaluator raises, are the columns before the failure checked
    one by one, so the first component that fails, in index order, raises
    the same :class:`EvalDomainError` as its own call: a composite read
    from its operands' columns cannot raise, as they passed, and a
    non-finite value in it is its own.  With ``finite``
    false, non-finite values stay in the output (an overflow, or ``inf *
    0`` far out on an infinite interval); an evaluator's own domain check
    still raises.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim == 0:
        ts = ts.reshape(1)
    out = np.empty(ts.shape + (len(exprs),))
    with np.errstate(all="ignore"):
        for k, e in enumerate(exprs):
            parts = e._parts
            if parts is not None:
                ufunc, a, b = parts
                i, j = _column(exprs, a, k), _column(exprs, b, k)
                if i >= 0 and j >= 0:
                    ufunc(out[..., i], out[..., j], out=out[..., k])
                    continue
            try:
                out[..., k] = e._fn(ts)
            except EvalDomainError:
                if finite:
                    _raise_first_nonfinite(exprs, out, k)
                raise
    if finite and not np.isfinite(out).all():
        _raise_first_nonfinite(exprs, out, len(exprs))
    return out


def _column(exprs, e, stop) -> int:
    """Index of the object ``e`` among ``exprs[:stop]``, else -1."""
    for i in range(stop):
        if exprs[i] is e:
            return i
    return -1


def overflows(expr: Expression, t: float) -> bool:
    """Whether evaluating ``expr`` at the point ``t`` overflows on the way,
    even where its value is finite: ``(1+t^2)^-0.5`` is 0 once ``t^2`` is
    inf."""
    return _raises(expr._fn, t, "over")


def _raises(fn, t: float, flag: str) -> bool:
    """Whether the evaluator ``fn`` at the point ``t`` raises ``flag``."""
    with np.errstate(all="ignore", **{flag: "raise"}):
        try:
            fn(np.array([float(t)]))
        except FloatingPointError:
            return True
    return False


def _raise_first_nonfinite(exprs, out, stop):
    """Raise the error of the first of the columns ``0..stop-1`` of ``out``
    that holds a non-finite value, if any does."""
    for k in range(stop):
        if not np.isfinite(out[..., k]).all():
            raise EvalDomainError("non-finite value", exprs[k].text)


def parse(text: str) -> Expression:
    """Parse ``text`` into an :class:`Expression`.

    Raises :class:`SyntaxParseError` (with a 0-based byte offset) on
    malformed input and :class:`UnknownIdentifierError` for names outside
    the grammar.
    """
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise SyntaxParseError("empty expression", 0)
    tokens.append("")  # the end
    i = 0  # the next token
    nesting = 0  # open parentheses, calls and exponents
    # tree depth of the node last parsed; a node deeper than MAX_DEPTH is
    # not built, as the parse can only fail
    depth = 0

    def fail(message, k=None, error=SyntaxParseError):
        raise _syntax_error(text, i if k is None else k, message, error)

    def expect(op):
        nonlocal i
        if tokens[i] != op:
            fail(f"expected '{op}'")
        i += 1

    def descend(k):
        """Open the parenthesis, call or exponent at token ``k``; bounds the
        parser's recursion."""
        nonlocal nesting
        nesting += 1
        if nesting > MAX_DEPTH:
            fail(f"expression is nested deeper than {MAX_DEPTH} levels", k)

    def climb(min_prec):
        """Operands joined by ``+ -`` (precedence 1) and ``* /`` (2) of at
        least ``min_prec``, left-associative."""
        nonlocal i, depth
        node = unary()
        d = depth
        while True:
            op = tokens[i]
            prec = _PREC.get(op)  # never "^", which unary takes
            if prec is None or prec < min_prec:
                depth = d
                return node
            i += 1
            rhs = climb(2) if prec == 1 else unary()
            d = max(d, depth) + 1
            if d <= MAX_DEPTH:
                node = _bin_node(op, node, rhs)

    def unary():
        """``'-'* atom ('^' unary)?``: a run of minus signs (a loop: a run can
        be long) over a power, whose unary exponent makes ``^``
        right-associative."""
        nonlocal i, nesting, depth
        k = i
        while tokens[k] == "-":
            k += 1
        signs = k - i
        tok = tokens[k]
        i = k + 1
        depth = 1
        if tok == "t":
            node = _T_NODE
        elif "0" <= tok[:1] <= "9" or tok[:1] == "." and tok != ".":  # a number
            value = float(tok)
            if value == math.inf:
                fail("number literal overflows a double", k)
            node = _num_node(value)
        elif tok in _FUNCS:
            expect("(")
            descend(k)
            args = [climb(1)]
            d = depth
            while tokens[i] == ",":
                i += 1
                args.append(climb(1))
                d = max(d, depth)
            expect(")")
            nesting -= 1
            if tok in _VARIADIC_FUNCS:
                if len(args) < 2:
                    fail(f"'{tok}' needs at least two arguments", k)
            elif len(args) != 1:
                fail(f"'{tok}' takes exactly one argument", k)
            depth = d + 1
            node = _fn_node(tok, args) if depth <= MAX_DEPTH else args[0]
        elif tok == "(":
            descend(k)
            node = climb(1)
            expect(")")
            nesting -= 1
        elif tok in _CONST_NODES:
            node = _CONST_NODES[tok]
        elif not tok:
            fail("expected a value", k)
        elif tok in "-+*/^(),":
            fail(f"unexpected token {tok!r}", k)
        else:
            # a name, or an unexpected character, which fail reports first
            fail(f"unknown identifier {tok!r}", k, UnknownIdentifierError)
        if tokens[i] == "^":
            descend(i)
            i += 1
            d = depth
            exponent = unary()
            nesting -= 1
            depth = max(d, depth) + 1
            if depth <= MAX_DEPTH:
                node = _bin_node("^", node, exponent)
        if signs:
            depth += signs
            if depth <= MAX_DEPTH:
                for _ in range(signs):
                    node = _neg_node(node)
        return node

    try:
        node = climb(1)
    finally:
        # climb and unary call each other through their closures' cells;
        # emptying the cells frees them without the cycle collector
        climb = unary = None
    if tokens[i]:
        fail(f"unexpected token {tokens[i]!r}")
    if depth > MAX_DEPTH:
        fail(f"expression tree is deeper than {MAX_DEPTH} levels", 0)
    return Expression._composed(*node)

