"""Symbolic expression trees for coordinate formulas.

Immutable expression nodes over a fixed, ordered variable list.  Subtrees
are shared rather than copied (differentiating a product reuses the factor
trees), equality is structural, and every node carries a precomputed key so
repeated comparisons during simplification stay cheap.

Only what the geometry needs lives here: arithmetic, integer powers, and
the analytic primitives sin/cos/exp/log/sqrt.  Exponents are integers by
construction; that keeps differentiation closed over the node set and rules
out fractional-power surprises in the structure formulas.
"""

from __future__ import annotations

import itertools
import math
import operator
import re

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Add", "Mul", "Div", "Pow", "Call",
    "ExprError", "ExprSyntaxError", "UnknownIdentifierError",
    "NonIntegerExponentError",
    "parse", "diff", "simplify", "evaluate", "substitute", "compile_exprs",
    "compile_taylor", "variables",
]


class ExprError(ValueError):
    """Base class for expression failures; carries a byte offset when known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = "%s (byte offset %d)" % (message, offset)
        super().__init__(message)
        self.offset = offset


class ExprSyntaxError(ExprError):
    pass


class UnknownIdentifierError(ExprError):
    pass


class NonIntegerExponentError(ExprError):
    pass


# Structural keys mix a small node-kind code with child keys.  Only int and
# float payloads are hashed, so keys are stable across interpreter runs
# (string hashing would not be).  simplify orders terms and factors by key,
# so the codes are fixed values, not a running count.
_K_CONST, _K_VAR, _K_ADD, _K_MUL, _K_DIV, _K_POW, _K_CALL = 0, 1, 2, 3, 4, 6, 7

_FUNC_CODES = {"sin": 0, "cos": 1, "exp": 2, "log": 3, "sqrt": 4}
_FUNC_EVAL = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp,
    "log": math.log, "sqrt": math.sqrt,
}


class Expr:
    """Base node.  Instances are immutable and safe to share.  `simple`
    is set on the nodes simplify returns, which it returns again as they
    are."""

    __slots__ = ("key", "simple")

    def __setattr__(self, name, value):
        raise AttributeError("expression nodes are immutable")

    def __hash__(self):
        return self.key


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", float(value))
        object.__setattr__(self, "key", hash((_K_CONST, self.value)))

    def __eq__(self, other):
        return isinstance(other, Const) and other.value == self.value

    __hash__ = Expr.__hash__


class Var(Expr):
    __slots__ = ("index",)

    def __init__(self, index):
        object.__setattr__(self, "index", int(index))
        object.__setattr__(self, "key", hash((_K_VAR, self.index)))

    def __eq__(self, other):
        return isinstance(other, Var) and other.index == self.index

    __hash__ = Expr.__hash__


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple(terms)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "key", hash((_K_ADD,) + tuple(t.key for t in terms)))

    def __eq__(self, other):
        return (isinstance(other, Add) and other.key == self.key
                and other.terms == self.terms)

    __hash__ = Expr.__hash__


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "key", hash((_K_MUL,) + tuple(f.key for f in factors)))

    def __eq__(self, other):
        return (isinstance(other, Mul) and other.key == self.key
                and other.factors == self.factors)

    __hash__ = Expr.__hash__


class Div(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num, den):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "key", hash((_K_DIV, num.key, den.key)))

    def __eq__(self, other):
        return (isinstance(other, Div) and other.key == self.key
                and other.num == self.num and other.den == self.den)

    __hash__ = Expr.__hash__


class Pow(Expr):
    """Integer power.  The exponent is a plain int, never a subtree."""

    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise NonIntegerExponentError(
                "exponent must be an integer, got %r" % (exponent,))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "key", hash((_K_POW, base.key, exponent)))

    def __eq__(self, other):
        return (isinstance(other, Pow) and other.key == self.key
                and other.exponent == self.exponent and other.base == self.base)

    __hash__ = Expr.__hash__


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        if fn not in _FUNC_CODES:
            raise ExprError("unknown function %r" % fn)
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "key", hash((_K_CALL, _FUNC_CODES[fn], arg.key)))

    def __eq__(self, other):
        return (isinstance(other, Call) and other.key == self.key
                and other.fn == self.fn and other.arg == self.arg)

    __hash__ = Expr.__hash__


ZERO = Const(0.0)
ONE = Const(1.0)
# Negation is multiplication by MINUS_ONE, the form simplify keeps.
MINUS_ONE = Const(-1.0)


def variables(n):
    """Names x1..xn for an n-dimensional chart."""
    return ["x%d" % (i + 1) for i in range(n)]


# ----------------------------------------------------------------------
# Parsing


_TOKEN_NUM = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_TOKEN_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_LEXEME = re.compile(r"\d+\Z")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _byte_offset(text, pos):
    return len(text[:pos].encode("utf-8"))


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c.isdigit() or c == ".":
            m = _TOKEN_NUM.match(text, i)
            if m is None:
                raise ExprSyntaxError("malformed number", _byte_offset(text, i))
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        if c.isalpha() or c == "_":
            m = _TOKEN_IDENT.match(text, i)
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if c in "+-*/^()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ExprSyntaxError("unexpected character %r" % c, _byte_offset(text, i))
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    """Recursive descent with the usual precedence ladder; '^' binds
    tightest and only accepts an integer literal exponent."""

    def __init__(self, text, variables):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vars = {name: i for i, name in enumerate(variables)}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok, cls=ExprSyntaxError):
        raise cls(message, _byte_offset(self.text, tok.pos))

    def parse(self):
        e = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            self.fail("unexpected %r" % tok.text, tok)
        return e

    def expression(self):
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            e = Add((e, rhs if op.kind == "+" else Mul((MINUS_ONE, rhs))))
        return e

    def term(self):
        e = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.unary()
            e = Mul((e, rhs)) if op.kind == "*" else Div(e, rhs)
        return e

    def unary(self):
        if self.peek().kind == "-":
            self.advance()
            return Mul((MINUS_ONE, self.unary()))
        if self.peek().kind == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            return Pow(base, self.exponent())
        return base

    def exponent(self):
        # Integer literal, optionally signed, optionally in one pair of
        # parentheses.  Anything else is a non-integer exponent.
        parens = False
        if self.peek().kind == "(":
            self.advance()
            parens = True
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind != "num":
            self.fail("exponent must be an integer literal", tok,
                      NonIntegerExponentError)
        if not _INT_LEXEME.match(tok.text):
            self.fail("non-integer exponent %r" % tok.text, tok,
                      NonIntegerExponentError)
        self.advance()
        if parens:
            close = self.advance()
            if close.kind != ")":
                self.fail("expected ')' in exponent", close)
        return sign * int(tok.text)

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "(":
            e = self.expression()
            close = self.advance()
            if close.kind != ")":
                self.fail("expected ')'", close)
            return e
        if tok.kind == "ident":
            if self.peek().kind == "(":
                if tok.text not in _FUNC_CODES:
                    self.fail("unknown function %r" % tok.text, tok,
                              UnknownIdentifierError)
                self.advance()
                arg = self.expression()
                close = self.advance()
                if close.kind != ")":
                    self.fail("expected ')'", close)
                return Call(tok.text, arg)
            if tok.text in self.vars:
                return Var(self.vars[tok.text])
            if tok.text in _FUNC_CODES:
                self.fail("function %r needs an argument list" % tok.text, tok)
            self.fail("unknown identifier %r" % tok.text, tok,
                      UnknownIdentifierError)
        self.fail("unexpected %r" % (tok.text or "end of input"), tok)


def parse(text, variables):
    """Parse `text` over the ordered variable names in `variables`."""
    return _Parser(text, variables).parse()


# ----------------------------------------------------------------------
# Differentiation


def diff(e, var):
    """Exact derivative with respect to variable index `var`.

    Returns an unsimplified tree; pair with simplify() when iterating.
    """
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == var else ZERO
    if isinstance(e, Add):
        return Add(tuple(diff(t, var) for t in e.terms))
    if isinstance(e, Mul):
        terms = []
        factors = e.factors
        for i in range(len(factors)):
            di = diff(factors[i], var)
            if isinstance(di, Const) and di.value == 0.0:
                continue
            terms.append(Mul(factors[:i] + (di,) + factors[i + 1:]))
        if not terms:
            return ZERO
        return terms[0] if len(terms) == 1 else Add(tuple(terms))
    if isinstance(e, Div):
        du = diff(e.num, var)
        dv = diff(e.den, var)
        return Div(Add((Mul((du, e.den)), Mul((MINUS_ONE, e.num, dv)))),
                   Pow(e.den, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return ZERO
        db = diff(e.base, var)
        scaled = Mul((Const(float(e.exponent)), Pow(e.base, e.exponent - 1), db))
        return scaled
    if isinstance(e, Call):
        du = diff(e.arg, var)
        if e.fn == "sin":
            return Mul((Call("cos", e.arg), du))
        if e.fn == "cos":
            return Mul((MINUS_ONE, Call("sin", e.arg), du))
        if e.fn == "exp":
            return Mul((e, du))
        if e.fn == "log":
            return Div(du, e.arg)
        if e.fn == "sqrt":
            return Div(du, Mul((Const(2.0), e)))
    raise TypeError("cannot differentiate %r" % (e,))


# ----------------------------------------------------------------------
# Simplification


def simplify(e):
    """One bottom-up pass: constant folding, neutral elements, flattening
    of nested sums/products, like-term and like-power merging.

    Semantics-preserving on the evaluation domain; x^0 folds to 1 by the
    usual symbolic convention.  The pass is idempotent, so the nodes it
    returns are flagged simple and later passes take them as they are.
    """
    return _simp(e, {})


def _simp(e, memo):
    if isinstance(e, (Const, Var)) or getattr(e, "simple", False):
        return e
    found = memo.get(id(e))
    if found is not None:
        return found
    if isinstance(e, Add):
        out = _simp_add([_simp(t, memo) for t in e.terms])
    elif isinstance(e, Mul):
        out = _simp_mul([_simp(f, memo) for f in e.factors])
    elif isinstance(e, Div):
        out = _simp_div(_simp(e.num, memo), _simp(e.den, memo))
    elif isinstance(e, Pow):
        out = _simp_pow(_simp(e.base, memo), e.exponent)
    elif isinstance(e, Call):
        a = _simp(e.arg, memo)
        out = _fold_call(e.fn, a)
    else:
        raise TypeError("cannot simplify %r" % (e,))
    object.__setattr__(out, "simple", True)
    memo[id(e)] = out
    return out


def _split_coeff(term):
    # term -> (float coefficient, core expr or None for pure constants)
    if isinstance(term, Const):
        return term.value, None
    if isinstance(term, Mul) and term.factors and isinstance(term.factors[0], Const):
        rest = term.factors[1:]
        core = rest[0] if len(rest) == 1 else Mul(rest)
        return term.factors[0].value, core
    return 1.0, term


def _simp_add(terms):
    const = 0.0
    groups = {}  # core expr -> accumulated coefficient
    order = []
    for t in terms:
        stack = [t]
        while stack:
            item = stack.pop()
            if isinstance(item, Add):
                stack.extend(reversed(item.terms))
                continue
            coeff, core = _split_coeff(item)
            if core is None:
                const += coeff
                continue
            if core in groups:
                groups[core] += coeff
            else:
                groups[core] = coeff
                order.append(core)
    out = []
    for core in sorted(order, key=lambda c: c.key):
        coeff = groups[core]
        if coeff == 0.0:
            continue
        if coeff == 1.0:
            out.append(core)
        elif isinstance(core, Mul):
            out.append(Mul((Const(coeff),) + core.factors))
        else:
            out.append(Mul((Const(coeff), core)))
    if const != 0.0 or not out:
        out.insert(0, Const(const))
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def _simp_mul(factors):
    coeff = 1.0
    powers = {}  # base expr -> integer exponent
    order = []
    stack = list(reversed(factors))
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(reversed(f.factors))
            continue
        if isinstance(f, Const):
            coeff *= f.value
            continue
        base, k = (f.base, f.exponent) if isinstance(f, Pow) else (f, 1)
        if base in powers:
            powers[base] += k
        else:
            powers[base] = k
            order.append(base)
    if coeff == 0.0:
        return ZERO
    out = []
    for base in sorted(order, key=lambda b: b.key):
        k = powers[base]
        if k == 0:
            continue
        out.append(base if k == 1 else Pow(base, k))
    if not out:
        return Const(coeff)
    if coeff != 1.0:
        out.insert(0, Const(coeff))
    if len(out) == 1:
        return out[0]
    return Mul(tuple(out))


def _simp_div(num, den):
    if isinstance(num, Const) and num.value == 0.0:
        return ZERO
    if isinstance(den, Const):
        if den.value == 0.0:
            raise ZeroDivisionError("division by constant zero in simplify")
        if isinstance(num, Const):
            return Const(num.value / den.value)
        return _simp_mul([Const(1.0 / den.value), num])
    return Div(num, den)


def _simp_pow(base, k):
    if k == 0:
        return ONE
    if k == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0.0 and k < 0:
            raise ZeroDivisionError("0 raised to a negative power in simplify")
        return Const(base.value ** k)
    if isinstance(base, Pow):
        return _simp_pow(base.base, base.exponent * k)
    return Pow(base, k)


def _fold_call(fn, arg):
    if isinstance(arg, Const):
        try:
            return Const(_FUNC_EVAL[fn](arg.value))
        except (ValueError, OverflowError):
            pass
    return Call(fn, arg)


# ----------------------------------------------------------------------
# Evaluation, substitution, compilation


def evaluate(e, values):
    """Evaluate at a point given as an indexable of floats."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(values[e.index])
    if isinstance(e, Add):
        return math.fsum(evaluate(t, values) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= evaluate(f, values)
        return out
    if isinstance(e, Div):
        return evaluate(e.num, values) / evaluate(e.den, values)
    if isinstance(e, Pow):
        return evaluate(e.base, values) ** e.exponent
    if isinstance(e, Call):
        return _FUNC_EVAL[e.fn](evaluate(e.arg, values))
    raise TypeError("cannot evaluate %r" % (e,))


def substitute(e, mapping):
    """Replace variables by expressions; mapping is {index: Expr|number}."""
    repl = {i: v if isinstance(v, Expr) else Const(v)
            for i, v in mapping.items()}

    def walk(node, memo):
        found = memo.get(id(node))
        if found is not None:
            return found
        if isinstance(node, Const):
            out = node
        elif isinstance(node, Var):
            out = repl.get(node.index, node)
        elif isinstance(node, Add):
            out = Add(tuple(walk(t, memo) for t in node.terms))
        elif isinstance(node, Mul):
            out = Mul(tuple(walk(f, memo) for f in node.factors))
        elif isinstance(node, Div):
            out = Div(walk(node.num, memo), walk(node.den, memo))
        elif isinstance(node, Pow):
            out = Pow(walk(node.base, memo), node.exponent)
        elif isinstance(node, Call):
            out = Call(node.fn, walk(node.arg, memo))
        else:
            raise TypeError("cannot substitute in %r" % (node,))
        memo[id(node)] = out
        return out

    return walk(e, {})


def _atom_source(e):
    if isinstance(e, Const):
        return "(%r)" % e.value if e.value < 0 else repr(e.value)
    if isinstance(e, Var):
        return "v[%d]" % e.index
    return None


def compile_exprs(exprs):
    """Compile expressions into one positional evaluator.

    Returns f(values) -> float ndarray, one entry per expression, for
    `values` one point (nvars,) or a stack (P, nvars) of points, which
    gives a (P, len(exprs)) array.  The generated code runs on Python
    floats, one row at a time.  A formula that overflows or leaves its
    domain makes that row NaN, and a product that overflows gives inf:
    every caller treats a non-finite entry as its own numerical failure.
    Structurally identical subtrees are emitted once, so shared subtrees act
    as free common-subexpression elimination in the generated code.
    """
    exprs = list(exprs)
    names = {}   # node (structural) -> local name or atom source
    lines = []
    counter = [0]

    def emit(node):
        src = _atom_source(node)
        if src is not None:
            return src
        found = names.get(node)
        if found is not None:
            return found
        if isinstance(node, Add):
            body = " + ".join(emit(t) for t in node.terms)
        elif isinstance(node, Mul):
            body = "*".join(emit(f) for f in node.factors)
        elif isinstance(node, Div):
            body = "%s / %s" % (emit(node.num), emit(node.den))
        elif isinstance(node, Pow):
            body = "%s**(%d)" % (emit(node.base), node.exponent)
        elif isinstance(node, Call):
            body = "_%s(%s)" % (node.fn, emit(node.arg))
        else:
            raise TypeError("cannot compile %r" % (node,))
        local = "t%d" % counter[0]
        counter[0] += 1
        lines.append("    %s = %s" % (local, body))
        names[node] = local
        return local

    results = [emit(e) for e in exprs]
    source = "def geoflow_compiled(v):\n%s\n    return (%s%s)\n" % (
        "\n".join(lines) if lines else "    pass",
        ", ".join(results),
        "," if len(results) == 1 else "",
    )
    namespace = {"_%s" % fn: _FUNC_EVAL[fn] for fn in _FUNC_EVAL}
    exec(compile(source, "<geoflow-expr>", "exec"), namespace)
    code = namespace["geoflow_compiled"]

    def evaluator(values):
        values = np.asarray(values, dtype=float)
        out = []
        for row in np.atleast_2d(values).tolist():
            try:
                out.append(code(row))
            except (OverflowError, ZeroDivisionError, ValueError):
                out.append((math.nan,) * len(results))
        out = np.array(out, dtype=float).reshape(len(out), len(results))
        return out if values.ndim > 1 else out[0]

    return evaluator


def compile_taylor(field, extra=()):
    """Compile the Taylor series of the flow of zdot = field(z), a field
    over Var(0)..Var(m - 1), and of the expressions `extra` along it.

    Returns jet(z0, order) -> (Z, E): row k of the (order + 1, m) array Z
    holds the order-k coefficients of z(t) at t = 0, from z_0 = z0 and
    z_{k+1} = field(z)_k / (k + 1); row k of the (order, len(extra))
    array E holds those of the extra expressions.  For a stack (P, m) of
    points z0, Z and E gain a leading axis of P.  The recurrences are
    those of Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13.
    As in compile_exprs, the code is generated and runs one point at a
    time, identical subtrees are emitted once, and a formula that
    overflows or leaves its domain makes that point's output NaN.
    """
    # A reference is (source, None) for a constant, or (None, name) for
    # the list of a node's coefficients.
    names = {}
    head = []    # the statements of order 0
    body = []    # the statements of order k >= 1
    fresh = map("t{}".format, itertools.count()).__next__

    def at0(ref):
        return ref[0] if ref[1] is None else ref[1] + "[0]"

    def conv(a, b):
        return "_sum(map(_mul, %s, _reversed(%s)))" % (a, b)

    def series(zero, step, name=None):
        # A new coefficient list; its step may name the list itself as {0}.
        name = name or fresh()
        head.append("    %s = [%s]" % (name, zero))
        body.append("        %s.append(%s)" % (name, step.format(name)))
        return (None, name)

    def derivative(a):
        # d<a> lists k a_k, k >= 1: the coefficients of a's derivative.
        d = "d" + a
        if d not in names:
            names[d] = d
            head.append("    %s = []" % d)
            body.append("        %s.append(k * %s[k])" % (d, a))
        return d

    def power(base, e):
        # base^e, e >= 1, by repeated squaring.
        if e == 1:
            return emit(base)[1]
        if Pow(base, e) not in names:
            a, b = ((power(base, e - 1), emit(base)[1]) if e % 2
                    else (power(base, e // 2),) * 2)
            names[Pow(base, e)] = series("%s[0]*%s[0]" % (a, b), conv(a, b))
        return names[Pow(base, e)][1]

    def quotient(zero, num, den):
        # c = num / den: c_k = (num_k - sum_{j>=1} den_j c_{k-j}) / den_0.
        rest = "_sum(map(_mul, %s[1:], _reversed({0})))" % den
        step = "-" + rest if num[1] is None else "(%s[k] - %s)" % (num[1],
                                                                  rest)
        return series(zero, "%s / %s[0]" % (step, den))

    def call(node, a, zero):
        if node.fn == "exp":
            return series(zero, conv(derivative(a), "{0}") + " / k")
        if node.fn == "log":
            ref = series(zero, "(%s[k] - _sum(map(_mul, d{0}, %s[k-1:0:-1]))"
                         " / k) / %s[0]" % (a, a, a))
            derivative(ref[1])
            return ref
        if node.fn == "sqrt":
            return series(zero, "(%s[k] - _sum(map(_mul, {0}[1:],"
                          " {0}[:0:-1]))) / (2.0 * {0}[0])" % a)
        # sin and cos as a pair: s' = c a', c' = -s a'.
        da, s, c = derivative(a), fresh(), fresh()
        names[Call("sin", node.arg)] = series(
            "_sin(%s[0])" % a, conv(da, c) + " / k", s)
        names[Call("cos", node.arg)] = series(
            "_cos(%s[0])" % a, "-_sum(map(_mul, %s, %s[-2::-1])) / k"
            % (da, s), c)
        return names[node]

    def emit(node):
        if node not in names:
            names[node] = build(node)
        return names[node]

    def build(node):
        if isinstance(node, Const):
            return ("(%r)" % node.value, None)
        if isinstance(node, Var):
            return (None, "v%d" % node.index)
        if isinstance(node, Add):
            kids = [emit(t) for t in node.terms]
            zero = " + ".join(map(at0, kids))
        elif isinstance(node, Mul):
            kids = [emit(f) for f in node.factors]
            zero = "*".join(map(at0, kids))
        elif isinstance(node, Div):
            kids = [emit(node.num), emit(node.den)]
            zero = "%s / %s" % tuple(map(at0, kids))
        elif isinstance(node, Pow):
            kids = [emit(node.base)]
            zero = "%s**(%d)" % (at0(kids[0]), node.exponent)
        elif isinstance(node, Call):
            kids = [emit(node.arg)]
            zero = "_%s(%s)" % (node.fn, at0(kids[0]))
        else:
            raise TypeError("cannot compile %r" % (node,))
        lists = [r[1] for r in kids if r[1] is not None]
        if not lists:
            local = fresh()
            head.append("    %s = %s" % (local, zero))
            return (local, None)
        if isinstance(node, Add):
            return series(zero, " + ".join(a + "[k]" for a in lists))
        if isinstance(node, Mul):
            scale = "".join(r[0] + "*" for r in kids if r[1] is None)
            acc = lists[0]
            for b in lists[1:-1]:
                acc = series("%s[0]*%s[0]" % (acc, b), conv(acc, b))[1]
            if len(lists) > 1:
                return series(zero, scale + conv(acc, lists[-1]))
            return series(zero, scale + acc + "[k]") if scale else kids[0]
        if isinstance(node, Div):
            if kids[1][1] is None:
                return series(zero, "%s[k] / %s" % (lists[0], kids[1][0]))
            return quotient(zero, kids[0], kids[1][1])
        if isinstance(node, Pow):
            if node.exponent == 0:
                return ("1.0", None)
            if node.exponent > 0:
                return (None, power(node.base, node.exponent))
            return quotient(zero, ("1.0", None),
                            power(node.base, -node.exponent))
        return call(node, lists[0], zero)

    fields = [emit(e) for e in field]
    outputs = [emit(e) for e in extra]
    m = len(fields)
    source = "\n".join(
        ["def geoflow_taylor(%s, order):" % ", ".join(
            "v%d" % i for i in range(m))] + head
        + ["    v%d.append(%s)" % (i, at0(r)) for i, r in enumerate(fields)]
        + ["    for k in range(1, order):"] + body
        + ["        v%d.append(%s / (k + 1))" % (
            i, "0.0" if r[1] is None else r[1] + "[k]")
           for i, r in enumerate(fields)]
        + ["    return [%s]" % ", ".join(
            "[%s] + [0.0] * (order - 1)" % r[0] if r[1] is None
            else r[1] + "[:order]" for r in outputs)]) + "\n"
    namespace = {"_%s" % fn: _FUNC_EVAL[fn] for fn in _FUNC_EVAL}
    namespace.update(_sum=sum, _mul=operator.mul, _reversed=reversed)
    exec(compile(source, "<geoflow-taylor>", "exec"), namespace)
    code = namespace["geoflow_taylor"]

    def jet(z0, order):
        z0 = np.asarray(z0, dtype=float)
        zs, es = [], []
        for row in np.atleast_2d(z0).tolist():
            zs.append([[x] for x in row])
            try:
                es.append(code(*zs[-1], order))
            except (OverflowError, ZeroDivisionError, ValueError):
                zs[-1] = [[math.nan] * (order + 1)] * m
                es.append([[math.nan] * order] * len(outputs))
        Z = np.array(zs, dtype=float).reshape(len(zs), m, order + 1)
        E = np.array(es, dtype=float).reshape(len(es), len(outputs), order)
        Z, E = np.swapaxes(Z, 1, 2), np.swapaxes(E, 1, 2)
        return (Z, E) if z0.ndim > 1 else (Z[0], E[0])

    return jet
