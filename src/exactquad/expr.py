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
Number literals must be finite doubles.  Trees may be ``MAX_DEPTH`` levels
deep (``t+t+t`` and ``-(-t)`` have three), and parentheses, calls and
exponents may nest ``MAX_DEPTH`` deep.

Expressions are immutable after parsing; evaluation is side-effect free and
follows IEEE-754 double semantics.  Evaluating outside the real domain
(log of a non-positive value, division by zero, sqrt of a negative, a
negative base with a non-integer exponent, or any non-finite result) raises
:class:`~exactquad.errors.EvalDomainError` naming the offending
subexpression, but a denominator that underflowed to 0 divides as in
IEEE: ``1/t^2`` is inf below t = 1e-162, as ``t^-2`` is, and
``exp(-1/t)/t^2`` nan.  A power whose exponent is a number literal (``t^3``,
``t^-0.5``) decides when it is compiled which of its two domain checks can
fire, so ``t^2`` checks nothing.  Syntax errors carry 0-based byte offsets.

A function system is evaluated as one batch by :func:`evaluate_columns`:
one ``errstate`` and one output array for all components, checked for
finiteness once; only a failing batch is searched for its first failing
column, so it raises exactly the error that calling the components one by
one, in index order, would.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import EvalDomainError, SyntaxParseError, UnknownIdentifierError

__all__ = ["Expression", "parse", "continuity_probe"]

# evaluation and printing recurse once per level, and composing parsed
# expressions (as stats does) adds a few levels
MAX_DEPTH = 100
CONTINUITY_POINTS = 1024

_UNARY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "abs": np.abs,
}
# one-argument functions with a domain: ufunc, out-of-domain test, message
_DOMAIN_FUNCS = {
    "log": (np.log, lambda a: a <= 0.0, "log of a non-positive value"),
    "sqrt": (np.sqrt, lambda a: a < 0.0, "sqrt of a negative value"),
}
# checks of a power with a literal exponent, in order: base test, message
_POW_CHECKS = (
    (lambda b: b < 0, "negative base with non-integer exponent"),
    (lambda b: b == 0, "zero raised to a negative power"),
)
_VARIADIC_FUNCS = {"min", "max"}
_CONSTANTS = {"pi": np.pi, "e": np.e}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = pos + (len(text[pos:]) - len(stripped))
            raise SyntaxParseError(
                f"unexpected character {stripped[0]!r}", _byte_offset(text, bad)
            )
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0  # open parentheses, calls and exponents

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok if tok is not None else self.peek()
        raise SyntaxParseError(message, _byte_offset(self.text, tok[2]))

    def expect_op(self, op):
        kind, val, _ = self.peek()
        if kind != "op" or val != op:
            self.fail(f"expected '{op}'")
        return self.advance()

    def descend(self, tok):
        """Open a parenthesis, call or exponent; bounds the parser's recursion."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            self.fail(f"expression is nested deeper than {MAX_DEPTH} levels", tok)

    def parse(self):
        node = self.sum()
        kind, val, _ = self.peek()
        if kind != "end":
            self.fail(f"unexpected token {val!r}")
        # each tree level holds at least one token
        if len(self.tokens) > MAX_DEPTH + 1 and _depth(node) > MAX_DEPTH:
            self.fail(f"expression tree is deeper than {MAX_DEPTH} levels",
                      self.tokens[0])
        return node

    def sum(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = ("bin", val, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = ("bin", val, node, self.unary())
            else:
                return node

    def unary(self):
        signs = []  # a loop, not recursion: a run of minus signs can be long
        while self.peek()[:2] == ("op", "-"):
            signs.append(self.advance())
        node = self.power()
        for _ in signs:
            node = ("neg", node)
        return node

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.descend(self.advance())
            base = ("bin", "^", base, self.unary())
            self.nesting -= 1
        return base

    def atom(self):
        tok = kind, val, pos = self.peek()
        if kind == "num":
            self.advance()
            value = float(val)
            if value == math.inf:
                self.fail("number literal overflows a double", tok)
            return ("num", value)
        if kind == "ident":
            self.advance()
            if val == "t":
                return ("t",)
            if val in _CONSTANTS:
                return ("const", val)
            if val in _UNARY_FUNCS or val in _DOMAIN_FUNCS or val in _VARIADIC_FUNCS:
                self.expect_op("(")
                self.descend(tok)
                args = [self.sum()]
                while True:
                    k, v, _ = self.peek()
                    if k == "op" and v == ",":
                        self.advance()
                        args.append(self.sum())
                    else:
                        break
                self.expect_op(")")
                self.nesting -= 1
                if val in _VARIADIC_FUNCS:
                    if len(args) < 2:
                        self.fail(f"'{val}' needs at least two arguments", tok)
                elif len(args) != 1:
                    self.fail(f"'{val}' takes exactly one argument", tok)
                return ("fn", val, tuple(args))
            raise UnknownIdentifierError(
                f"unknown identifier {val!r}", _byte_offset(self.text, pos)
            )
        if kind == "op" and val == "(":
            self.descend(self.advance())
            node = self.sum()
            self.expect_op(")")
            self.nesting -= 1
            return node
        self.fail("expected a value" if kind == "end" else f"unexpected token {val!r}")


def _depth(node) -> int:
    """Depth of an expression tree, level by level rather than recursively."""
    depth, level = 0, [node]
    while level:
        depth += 1
        level = [child for n in level for child in (
            (n[1],) if n[0] == "neg" else n[2:] if n[0] == "bin"
            else n[2] if n[0] == "fn" else ())]
    return depth


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(node) -> int:
    tag = node[0]
    if tag == "bin":
        return _PREC[node[1]]
    if tag == "neg":
        return 3
    return 5


def _pretty(node) -> str:
    tag = node[0]
    if tag == "num":
        return repr(node[1])
    if tag == "t":
        return "t"
    if tag == "const":
        return node[1]
    if tag == "neg":
        return _neg_text(node[1], _pretty(node[1]))
    if tag == "bin":
        op, a, b = node[1], node[2], node[3]
        return _bin_text(op, a, b, _pretty(a), _pretty(b))
    if tag == "fn":
        return f"{node[1]}({','.join(_pretty(a) for a in node[2])})"
    raise AssertionError(f"bad node {node!r}")


def _neg_text(a, inner: str) -> str:
    """Text of ``-a`` from the tree ``a`` and its text ``inner``."""
    return f"-({inner})" if _prec(a) < 3 else f"-{inner}"


def _bin_text(op, a, b, left: str, right: str) -> str:
    """Text of ``a op b`` from the operand trees and their texts."""
    p = _PREC[op]
    # parenthesize to reparse into the identical tree, not just an
    # equivalent value
    if _prec(a) < p or (_prec(a) == p and op == "^"):
        left = f"({left})"
    if _prec(b) < p or (_prec(b) == p and op != "^"):
        right = f"({right})"
    return f"{left}{op}{right}"


def _literal(node):
    """The value of a number literal or a negated one, else None."""
    if node[0] == "num":
        return node[1]
    if node[0] == "neg" and node[1][0] == "num":
        return -node[1][1]
    return None


def _literal_pow(fa, c, label):
    """``fa ^ c`` for a literal ``c``, with only the domain checks that can fire.

    A negative base fails only for a non-integer ``c`` and a zero base only
    for a negative ``c``; the checks keep the general power's order.
    """
    checks = [check for check, fires in zip(_POW_CHECKS, (not c.is_integer(), c < 0))
              if fires]
    if not checks:
        return lambda t: np.power(fa(t), c)

    def _pow(t):
        base = fa(t)
        for outside, message in checks:
            if np.any(outside(base)):
                raise EvalDomainError(message, label)
        return np.power(base, c)

    return _pow


def _bin_closure(op, fa, fb, b, label):
    """Closure of ``a op b`` from the operands' closures ``fa`` and ``fb``.

    ``b`` is the right operand's tree, whose literal value decides a
    power's domain checks, and ``label`` the text of the whole node, which
    division and power errors name.
    """
    if op == "+":
        return lambda t: fa(t) + fb(t)
    if op == "-":
        return lambda t: fa(t) - fb(t)
    if op == "*":
        return lambda t: fa(t) * fb(t)
    if op == "/":

        def _div(t):
            den = fb(t)
            zero = np.asarray(den) == 0.0
            if np.any(zero):
                # a denominator that underflowed to 0 divides as in IEEE
                at, zero = np.broadcast_arrays(t, zero)
                if not all(_raises(fb, x, "under") for x in at[zero]):
                    raise EvalDomainError("division by zero", label)
            return fa(t) / den

        return _div
    if op == "^":
        c = _literal(b)
        if c is not None:
            return _literal_pow(fa, c, label)

        def _pow(t):
            base = np.asarray(fa(t), dtype=float)
            expo = np.asarray(fb(t), dtype=float)
            neg = base < 0
            if np.any(neg):
                e_at = np.broadcast_to(expo, np.broadcast_shapes(base.shape, expo.shape))
                b_neg = np.broadcast_to(neg, e_at.shape)
                if np.any(e_at[b_neg] != np.floor(e_at[b_neg])):
                    raise EvalDomainError(
                        "negative base with non-integer exponent", label
                    )
            if np.any((base == 0) & (expo < 0)):
                raise EvalDomainError("zero raised to a negative power", label)
            return np.power(base, expo)

        return _pow
    raise AssertionError(op)


def _compile(node):
    """Build a closure evaluating ``node`` on a float ndarray."""
    tag = node[0]
    if tag == "num":
        v = node[1]
        return lambda t: v
    if tag == "t":
        return lambda t: t
    if tag == "const":
        v = _CONSTANTS[node[1]]
        return lambda t: v
    if tag == "neg":
        f = _compile(node[1])
        return lambda t: -f(t)
    if tag == "bin":
        op, b = node[1], node[3]
        label = _pretty(node) if op in "/^" else None
        return _bin_closure(op, _compile(node[2]), _compile(b), b, label)
    if tag == "fn":
        name, args = node[1], node[2]
        if name in _UNARY_FUNCS:
            ufunc, fa = _UNARY_FUNCS[name], _compile(args[0])
            return lambda t: ufunc(fa(t))
        if name in _DOMAIN_FUNCS:
            ufunc, outside, message = _DOMAIN_FUNCS[name]
            fa, label = _compile(args[0]), _pretty(node)

            def _checked(t):
                a = fa(t)
                if np.any(outside(np.asarray(a))):
                    raise EvalDomainError(message, label)
                return ufunc(a)

            return _checked
        fs = [_compile(a) for a in args]
        reducer = np.minimum if name == "min" else np.maximum
        sentinel = np.inf if name == "min" else -np.inf

        def _fold(t):
            out = sentinel
            for f in fs:
                out = reducer(out, f(t))
            return out

        return _fold
    raise AssertionError(f"bad node {node!r}")


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
    composite is built from its operands' closures and texts, so it costs
    the same whatever the size of the operands' trees.
    """

    __slots__ = ("_ast", "_fn", "_text")

    def __init__(self, ast):
        self._ast = ast
        self._fn = _compile(ast)
        self._text = _pretty(ast)

    @property
    def ast(self):
        return self._ast

    @property
    def text(self) -> str:
        """Canonical source form; reparsing it rebuilds this tree."""
        return self._text

    def __call__(self, t):
        """The one-column view of :func:`evaluate_columns`."""
        out = evaluate_columns((self,), t)[..., 0]
        return float(out[0]) if np.ndim(t) == 0 else out

    def __repr__(self):
        return f"Expression({self._text!r})"

    @classmethod
    def _composed(cls, ast, fn, text) -> "Expression":
        """The expression of ``ast``, whose closure and text are built."""
        e = object.__new__(cls)
        e._ast, e._fn, e._text = ast, fn, text
        return e

    def _bin(self, op, other, swap=False):
        if isinstance(other, Expression):
            operand = other._ast, other._fn, other._text
        else:
            try:
                rhs = _as_ast(other)
            except (TypeError, ValueError):
                return NotImplemented
            operand = rhs, _compile(rhs), _pretty(rhs)
        mine = self._ast, self._fn, self._text
        (a, fa, left), (b, fb, right) = (operand, mine) if swap else (mine, operand)
        text = _bin_text(op, a, b, left, right)
        return Expression._composed(("bin", op, a, b),
                                    _bin_closure(op, fa, fb, b, text), text)

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
        f = self._fn
        return Expression._composed(("neg", self._ast), lambda t: -f(t),
                                    _neg_text(self._ast, self._text))


def evaluate_columns(exprs, ts, *, finite=True) -> np.ndarray:
    """Values of every expression at ``ts``, one column per expression.

    Returns a new ``ts.shape + (len(exprs),)`` array, a scalar ``ts``
    counting as one point; column k holds exactly the values of
    ``exprs[k](ts)``.  All closures run under one ``errstate``, and the
    whole batch is checked for finiteness once.  Only when that check
    fails, or a closure raises, are the columns before the failure checked
    one by one, so the first component that fails, in index order, raises
    the same :class:`EvalDomainError` as its own call.  With ``finite``
    false, non-finite values stay in the output (an overflow, or ``inf *
    0`` far out on an infinite interval); a closure's own domain check
    still raises.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.empty(ts.shape + (len(exprs),))
    with np.errstate(all="ignore"):
        for k, e in enumerate(exprs):
            try:
                out[..., k] = e._fn(ts)
            except EvalDomainError:
                if finite:
                    _raise_first_nonfinite(exprs, out, k)
                raise
    if finite and not np.isfinite(out).all():
        _raise_first_nonfinite(exprs, out, len(exprs))
    return out


def overflows(expr: Expression, t: float) -> bool:
    """Whether evaluating ``expr`` at the point ``t`` overflows on the way,
    even where its value is finite: ``(1+t^2)^-0.5`` is 0 once ``t^2`` is
    inf."""
    return _raises(expr._fn, t, "over")


def _raises(fn, t: float, flag: str) -> bool:
    """Whether the closure ``fn`` at the point ``t`` raises ``flag``."""
    with np.errstate(all="ignore", **{flag: "raise"}):
        try:
            fn(np.atleast_1d(float(t)))
        except FloatingPointError:
            return True
    return False


def _raise_first_nonfinite(exprs, out, stop):
    """Raise the error of the first of the columns ``0..stop-1`` of ``out``
    that holds a non-finite value, if any does."""
    for k in range(stop):
        if not np.isfinite(out[..., k]).all():
            raise EvalDomainError("non-finite value", exprs[k]._text)


def parse(text: str) -> Expression:
    """Parse ``text`` into an :class:`Expression`.

    Raises :class:`SyntaxParseError` (with a 0-based byte offset) on
    malformed input and :class:`UnknownIdentifierError` for names outside
    the grammar.
    """
    if not text or not text.strip():
        raise SyntaxParseError("empty expression", 0)
    return Expression(_Parser(text).parse())


def continuity_points(lower: float, upper: float) -> np.ndarray:
    """``CONTINUITY_POINTS`` Chebyshev-spaced points of ``[lower, upper]``,
    both ends included."""
    j = np.arange(CONTINUITY_POINTS, dtype=float)
    return 0.5 * (lower + upper) + 0.5 * (upper - lower) * np.cos(
        np.pi * j / (CONTINUITY_POINTS - 1))


def continuity_probe(e: Expression, lower: float, upper: float):
    """Evaluate ``e`` at the :func:`continuity_points` of ``[lower, upper]``.

    Raises :class:`EvalDomainError` if any probe fails; returns the probe
    values otherwise.  Guards the continuity hypothesis before an
    expression is used as a quadrature input.
    """
    return e(continuity_points(lower, upper))
