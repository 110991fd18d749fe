"""Expression language for nonlinearities, coefficients, kernels and functionals.

Grammar (see docs/problem-format.md for the full EBNF):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          # right-associative, binds above unary -
    atom   := NUMBER | "e" | "pi" | VARIABLE
            | FUNC "(" expr ")" | ("min" | "max") "(" expr "," expr ")"
            | "U" "(" expr ")" | "DU" "(" expr ")" | "INT" "(" expr ")"
            | "(" expr ")"

Which variables and atoms are legal depends on the role an expression is
parsed for:

    nonlinearity   f(t, u, v)            variables t, u, v
    coefficient    gamma(t)              variable t
    kernel         k(t, s)               variables t, s
    bound          entry(rho)            variable rho
    constant       plain number          no variables
    functional     h[u]                  atoms U(a), DU(a), INT(body);
                                         s only inside INT; free t forbidden

U(a) is the point value u(a), DU(a) is u'(a), and INT(body) integrates the
body over s in [0,1] with U(s), DU(s) available inside.  INT does not nest.
Evaluation is numpy-vectorised; non-finite results raise EvaluationError.

parse_entry parses a problem-file entry into an Entry root that names it,
``[section] key = '<parsed source>'``; derived_entry names an expression
derived from one (gamma_i', dk).  The walk _eval, over any value type
with numpy's operators, names the entry in front of a DomainError; _run,
the float evaluation, in front of a non-finite result.  No caller names
or unwraps an entry: a parse error quotes it as written, an evaluation
error as parsed.

lattice_extrema scans a nonlinearity over a t x u x v lattice without
building it: slab by slab along t, whole (u, v) planes of at most
LATTICE_SLAB points at a time (one plane if a plane is larger), with the
subexpressions that do not read t evaluated once on the (u, v) plane.  It
returns what argmin and argmax on the whole array would.  The same rule
bounds the load's check of the functionals: its cone functions are built
and evaluated in slabs of whole rows, at most LATTICE_SLAB samples each
(one row if a row is larger).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, ExprError
from .grid import GridFunction, integrate, interp_rows

ROLE_VARS = {
    "nonlinearity": frozenset({"t", "u", "v"}),
    "coefficient": frozenset({"t"}),
    "kernel": frozenset({"t", "s"}),
    "bound": frozenset({"rho"}),
    "constant": frozenset(),
    "functional": frozenset(),  # only s, and only inside INT
}

FUNCTIONS = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt, "abs": np.abs}
FUNCTIONS2 = {"min": np.minimum, "max": np.maximum}
CONSTANTS = {"e": math.e, "pi": math.pi}


class Expr:
    """Base class for AST nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_source(self)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Const(Expr):
    name: str


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple


@dataclass(frozen=True)
class PointValue(Expr):
    """U(arg) or, with deriv=True, DU(arg)."""

    deriv: bool
    arg: Expr


@dataclass(frozen=True)
class Integral(Expr):
    """INT(body): integral of the body over s in [0,1]."""

    body: Expr


@dataclass(frozen=True)
class Entry(Expr):
    """The root of a problem-file entry's expression: ``where`` names the
    entry, or the entry a ``derived`` body comes from, in front of an error
    evaluating the body.  A derived body's error also prints the body."""

    where: str
    body: Expr
    derived: bool


# ---------------------------------------------------------------------------
# lexer

@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'name' | one of "+-*/^(),", or 'end'
    text: str
    pos: int


# Numbers are ASCII decimal literals: str.isdigit() would also take '²',
# which float() rejects, and '٣', which it reads as 3.
_DIGITS = frozenset("0123456789")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _DIGITS or (c == "." and i + 1 < n and text[i + 1] in _DIGITS):
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i] in _DIGITS:
                    i += 1
            # exponent part, but only when unambiguously numeric
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j] in _DIGITS:
                    i = j
                    while i < n and text[i] in _DIGITS:
                        i += 1
            tokens.append(_Token("num", text[start:i], start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("name", text[start:i], start))
            continue
        if c in "+-*/^(),":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, tokens: list[_Token], role: str):
        self.tokens = tokens
        self.role = role
        self.i = 0
        self.inside_int = False

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tok
        self.i += 1
        return t

    def expect(self, kind: str) -> _Token:
        if self.tok.kind != kind:
            raise ExprError(f"expected {kind!r}, found {self.tok.text or 'end of input'!r}", self.tok.pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        if self.tok.kind != "end":
            raise ExprError(f"unexpected {self.tok.text!r}", self.tok.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.tok.kind in ("+", "-"):
            op = self.advance().kind
            e = Binary(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.tok.kind in ("*", "/"):
            op = self.advance().kind
            e = Binary(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.tok.kind == "-":
            self.advance()
            return Unary(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.tok.kind == "^":
            self.advance()
            return Binary("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        t = self.tok
        if t.kind == "num":
            self.advance()
            return Num(float(t.text))
        if t.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "name":
            self.advance()
            name = t.text
            if self.tok.kind == "(":
                return self.call(name, t.pos)
            if name in CONSTANTS:
                return Const(name)
            return self.variable(name, t.pos)
        raise ExprError(f"expected a value, found {t.text or 'end of input'!r}", t.pos)

    def call(self, name: str, pos: int) -> Expr:
        self.expect("(")
        if name in FUNCTIONS:
            arg = self.expr()
            self.expect(")")
            return Call(name, (arg,))
        if name in FUNCTIONS2:
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect(")")
            return Call(name, (a, b))
        if name in ("U", "DU", "INT"):
            if self.role != "functional":
                raise ExprError(f"{name}(...) is only allowed in functional expressions", pos)
            if name == "INT":
                if self.inside_int:
                    raise ExprError("INT(...) does not nest", pos)
                self.inside_int = True
                body = self.expr()
                self.inside_int = False
                self.expect(")")
                return Integral(body)
            arg = self.expr()
            self.expect(")")
            return PointValue(name == "DU", arg)
        raise ExprError(f"unknown function {name!r}", pos)

    def variable(self, name: str, pos: int) -> Expr:
        if self.role == "functional":
            if name == "s" and self.inside_int:
                return Var("s")
            if name == "s":
                raise ExprError("variable 's' is only allowed inside INT(...)", pos)
            raise ExprError(f"variable {name!r} not allowed in a functional expression", pos)
        allowed = ROLE_VARS[self.role]
        if name in allowed:
            return Var(name)
        if allowed:
            raise ExprError(
                f"variable {name!r} not allowed in a {self.role} expression "
                f"(allowed: {', '.join(sorted(allowed))})",
                pos,
            )
        raise ExprError(f"variable {name!r} not allowed in a {self.role} expression", pos)


def parse(text: str, role: str) -> Expr:
    """Parse an expression string for the given role; see module docstring."""
    if role not in ROLE_VARS:
        raise ValueError(f"unknown role {role!r}")
    if not text or not text.strip():
        raise ExprError("empty expression")
    return _Parser(_tokenize(text), role).parse()


def parse_entry(section: str, key: str, text: str, role: str) -> Entry:
    """parse(text, role) as the problem-file entry ``[section] key = text``:
    an ExprError names the entry as written, the Entry it as parsed."""
    try:
        body = parse(text, role)
    except ExprError as exc:
        raise ExprError(f"[{section}] {key} = {text!r}: {exc}") from exc
    return Entry(f"[{section}] {key} = {to_source(body)!r}", body, False)


def derived_entry(e: Expr, var: str, name: str) -> Expr:
    """derivative(e, var); of an Entry, the entry ``name from <e.where>``,
    which also names an ExprError of the derivation."""
    if not isinstance(e, Entry):
        return derivative(e, var)
    where = f"{name} from {e.where}"
    try:
        return Entry(where, derivative(e.body, var), True)
    except ExprError as exc:
        raise ExprError(f"{where}: {exc}") from exc


def labelled(e: Expr, message: str) -> str:
    """message after the name of the entry e is, if e is an Entry."""
    return f"{e.where}: {message}" if isinstance(e, Entry) else message


def variables(e: Expr) -> frozenset:
    """The names of the variables an expression reads."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    parts = (getattr(e, name) for name in e.__dataclass_fields__)
    return frozenset().union(*(variables(c) for p in parts
                               for c in (p if isinstance(p, tuple) else (p,))
                               if isinstance(c, Expr)))


# ---------------------------------------------------------------------------
# differentiation

def derivative(e: Expr, var: str) -> Expr:
    """d e / d var over Num, Const, Var, Unary, Binary and Call nodes, with constants folded
    (a subtree free of ``var`` gives Num(0.0)) and no negative Num, so to_source round-trips.
    An exponent that reads ``var`` is an ExprError; abs, min and max are nan at the kink."""
    if e == Var(var) or var not in variables(e):
        return Num(float(e == Var(var)))
    if isinstance(e, Unary):
        return _binary("-", Num(0.0), derivative(e.operand, var))
    if isinstance(e, Binary):
        a, b, da, db = e.left, e.right, derivative(e.left, var), derivative(e.right, var)
        if e.op in "+-":
            return _binary(e.op, da, db)
        if e.op == "*":
            return _binary("+", _binary("*", da, b), _binary("*", a, db))
        if e.op == "/":
            return _binary("-", _binary("/", da, b),
                           _binary("/", _binary("*", a, db), _binary("*", b, b)))
        if var not in variables(b):  # an exponent that reads var falls through to the error
            return _binary("*", _binary("*", b, _binary("^", a, _binary("-", b, Num(1.0)))), da)
    if isinstance(e, Call) and e.func in FUNCTIONS2:  # s = sign(a - b), nan at the kink a = b
        s = Binary("/", Binary("-", *e.args), Call("abs", (Binary("-", *e.args),)))
        up, down = (Call("max", (w, Num(0.0))) for w in (s, Unary(s)))  # 1 where a > b, a < b
        weights = (up, down) if e.func == "max" else (down, up)
        return _binary("+", *(_binary("*", w, derivative(x, var)) for w, x in zip(weights, e.args)))
    if isinstance(e, Call):
        outer = {"exp": e, "sin": Call("cos", e.args), "cos": Unary(Call("sin", e.args)),
                 "sqrt": Binary("/", Num(0.5), e), "abs": Binary("/", e.args[0], e)}[e.func]
        return _binary("*", outer, derivative(e.args[0], var))
    raise ExprError(f"cannot differentiate {to_source(e)!r}: an exponent reads {var} (no log)")


def _binary(op: str, a: Expr, b: Expr) -> Expr:
    """Binary(op, a, b), with constant operands folded and the identities of 0 and 1 applied."""
    with np.errstate(all="ignore"):
        x, y = (None if variables(o) else float(_eval(o, {}, None)) for o in (a, b))
        v = float(_eval(Binary(op, a, b), {}, None)) if None not in (x, y) else math.nan
    if math.isfinite(v):
        return Unary(Num(-v)) if v < 0 else Num(v + 0.0)  # + 0.0 turns -0.0 into 0.0
    if (op == "*" and 0 in (x, y)) or (op == "/" and x == 0):
        return Num(0.0)
    if (op in "+-" and y == 0) or (op in "*/^" and y == 1):
        return a
    if (op == "+" and x == 0) or (op == "*" and x == 1):
        return b
    if op == "-" and x == 0:
        return b.operand if isinstance(b, Unary) else Unary(b)
    return Binary(op, a, b)


# ---------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt(e: Expr, ctx: int) -> str:
    if isinstance(e, Entry):
        return _fmt(e.body, ctx)
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, (Const, Var)):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({', '.join(_fmt(a, 0) for a in e.args)})"
    if isinstance(e, PointValue):
        return f"{'DU' if e.deriv else 'U'}({_fmt(e.arg, 0)})"
    if isinstance(e, Integral):
        return f"INT({_fmt(e.body, 0)})"
    if isinstance(e, Unary):
        s = f"-{_fmt(e.operand, _PREC_UNARY)}"
        return f"({s})" if _PREC_UNARY < ctx else s
    if isinstance(e, Binary):
        if e.op == "^":
            s = f"{_fmt(e.left, _PREC_ATOM)}^{_fmt(e.right, _PREC_UNARY)}"
            return f"({s})" if _PREC_POW < ctx else s
        prec = _PREC_ADD if e.op in "+-" else _PREC_MUL
        sep = f" {e.op} " if e.op in "+-" else e.op
        s = f"{_fmt(e.left, prec)}{sep}{_fmt(e.right, prec + 1)}"
        return f"({s})" if prec < ctx else s
    raise TypeError(f"not an Expr node: {e!r}")


def to_source(e: Expr) -> str:
    """Render an AST back to a string that re-parses to an equal AST."""
    return _fmt(e, 0)


# ---------------------------------------------------------------------------
# evaluation
#
# Functionals are evaluated on a stack of k functions in one tree walk.
# Outside INT every value broadcasts to shape (k, 1), one per row; inside
# INT, s is the nodes (n+1,) and values broadcast to (k, n+1).  So a point
# set is 0-d or 1-D, shared by every row, unless it reads U, DU or INT.

def _eval(e: Expr, env: dict, u: GridFunction | None):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        return CONSTANTS[e.name]
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Unary):
        return -_eval(e.operand, env, u)
    if isinstance(e, Binary):
        a = _eval(e.left, env, u)
        b = _eval(e.right, env, u)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return np.divide(a, b)
        return np.power(a, b)
    if isinstance(e, Call):
        fns = FUNCTIONS if len(e.args) == 1 else FUNCTIONS2
        return fns[e.func](*(_eval(a, env, u) for a in e.args))
    if isinstance(e, PointValue):
        samples = u.dvalues if e.deriv else u.values
        if isinstance(e.arg, Var):  # U(s) inside INT: the node samples, exactly
            return samples
        a = np.asarray(_eval(e.arg, env, u), dtype=float)
        return interp_rows(samples, u.grid, a.reshape(-1) if a.ndim < 2 else a)
    if isinstance(e, Integral):
        grid = u.grid
        body = np.asarray(_eval(e.body, {**env, "s": grid.nodes}, u), dtype=float)
        body = body.reshape(1, -1) if body.ndim < 2 else body
        if body.shape[1] != grid.n + 1:
            body = np.broadcast_to(body, (body.shape[0], grid.n + 1))
        return integrate(np.ascontiguousarray(body), grid)[:, None]
    if isinstance(e, Entry):  # the root alone: after every node type, off the hot path
        try:
            return _eval(e.body, env, u)
        except DomainError as exc:
            raise DomainError(f"{e.where}: {exc}") from exc
    raise TypeError(f"not an Expr node: {e!r}")


def _non_finite_error(e: Expr, env: dict, out: np.ndarray, rows: int | None) -> EvaluationError:
    """The error for a non-finite result: the first such point, named by its
    variables, after the entry e names.  For a stack of ``rows`` functions
    (the leading axis) it also names the row and lists every failing row in
    ``rows``."""
    shape = np.broadcast_shapes(out.shape, *(v.shape for v in env.values()),
                                *(() if rows is None else ((rows, 1),)))
    bad = ~np.isfinite(np.broadcast_to(out, shape))
    idx = np.unravel_index(int(np.argmax(bad)), shape)
    parts = [f"{name}={float(np.broadcast_to(v, shape)[idx]):.6g}" for name, v in env.items()]
    at = f" at {', '.join(parts)}" if parts else ""
    message = f"non-finite{at}"
    if not isinstance(e, Entry) or e.derived:  # an entry's own source is in its name
        message = f"expression '{to_source(e)}' is {message}"
    failed = None
    if rows is not None:
        failed = tuple(np.flatnonzero(bad.reshape(rows, -1).any(axis=1)).tolist())
        if rows > 1:
            message += f" in row {idx[0]} of a stack of {rows}"
    return EvaluationError(labelled(e, message), rows=failed)


def _run(e: Expr, env: dict, u: GridFunction | None = None, rows: int | None = None):
    env = {k: np.asarray(v, dtype=float) for k, v in env.items()}
    with np.errstate(all="ignore"):
        out = np.asarray(_eval(e, env, u), dtype=float)
    if not np.isfinite(out).all():
        raise _non_finite_error(e, env, out, rows)
    return float(out) if out.ndim == 0 else out


def eval_nonlinearity(e: Expr, t, u, v, rows: int | None = None):
    """f(t,u,v); arguments may be scalars or broadcastable numpy arrays.

    ``rows`` is the number of functions when the leading axis of u and v
    indexes a stack; a non-finite value then reports its row and the
    EvaluationError lists every failing row.
    """
    return _run(e, {"t": t, "u": u, "v": v}, rows=rows)


# The most lattice points lattice_extrema evaluates at once (unless a single
# t-plane is larger), and the most samples in a slab of the load's cone
# functions (unless a single row is larger): 2^14 points keep each
# temporary at 128 KiB.
LATTICE_SLAB = 1 << 14


def lattice_extrema(e: Expr, t, u, v) -> tuple[float, tuple, float, tuple]:
    """(min, argmin, max, argmax) of f over the lattice with 1-D axes t, u, v.

    Each extremum is the value at the index numpy's argmin or argmax gives
    on the whole (len(t), len(u), len(v)) array: its first occurrence in C
    order.  That array is never built: f is evaluated slab by slab along
    t, as many whole t-planes at a time as fit in LATTICE_SLAB points, and
    at least one.  The subexpressions of f that do not read t are
    evaluated once, on the (u, v) plane.  The slabs run in C order, so a
    non-finite value raises the EvaluationError the whole lattice would.
    """
    free: dict = {}
    core = _hoist_t_free(e, free)
    dt = max(1, LATTICE_SLAB // (len(u) * len(v)))
    lo = hi = None  # (value, index) so far; a later slab must be strictly better
    with np.errstate(all="ignore"):
        plane = {"u": u[None, :, None], "v": v[None, None, :]}
        parts = {name: _eval(part, plane, None) for name, part in free.items()}
        for i in range(0, len(t), dt):
            env = {"t": t[i:i + dt, None, None], **plane}
            vals = np.atleast_3d(_eval(core, {**env, **parts}, None))
            if not np.isfinite(vals).all():
                raise _non_finite_error(e, env, vals, None)
            kmin, kmax = int(vals.argmin()), int(vals.argmax())
            if lo is None or vals.flat[kmin] < lo[0]:
                lo = _lattice_point(vals, kmin, i)
            if hi is None or vals.flat[kmax] > hi[0]:
                hi = _lattice_point(vals, kmax, i)
    return (*lo, *hi)


def _hoist_t_free(e: Expr, free: dict) -> Expr:
    """e with each largest subtree that reads u or v but not t replaced by a
    variable; ``free`` maps the variable's name to the subtree."""
    if isinstance(e, Entry):  # the root stays, to name a DomainError of the core
        return Entry(e.where, _hoist_t_free(e.body, free), e.derived)
    names = variables(e)
    if "t" not in names:
        if not names or isinstance(e, Var):
            return e
        name = f"#{len(free)}"  # no expression can read it: not an identifier
        free[name] = e
        return Var(name)
    if isinstance(e, Unary):
        return Unary(_hoist_t_free(e.operand, free))
    if isinstance(e, Binary):
        return Binary(e.op, _hoist_t_free(e.left, free), _hoist_t_free(e.right, free))
    if isinstance(e, Call):
        return Call(e.func, tuple(_hoist_t_free(a, free) for a in e.args))
    return e


def _lattice_point(vals: np.ndarray, k: int, i: int) -> tuple[float, tuple]:
    """(value, lattice index) of flat index k of the slab that starts at
    t-plane i; a size-1 axis of the slab (f does not read that variable)
    reads index 0."""
    a, b, c = np.unravel_index(k, vals.shape)
    return float(vals.flat[k]), (i + int(a), int(b), int(c))


def eval_coefficient(e: Expr, t):
    return _run(e, {"t": t})


def eval_kernel_expr(e: Expr, t, s):
    return _run(e, {"t": t, "s": s})


def eval_bound(e: Expr, rho: float) -> float:
    return _run(e, {"rho": rho})


def eval_constant(e: Expr) -> float:
    return _run(e, {})


def eval_functional(e: Expr, u: GridFunction):
    """h[u] for a functional-role AST: point atoms interpolate, INT integrates.

    A stack gives one value per row from a single walk of the tree; a
    single function is evaluated as a stack of one and gives a float.
    """
    stack = u if u.is_stack else GridFunction(u.grid, u.values[None], u.dvalues[None])
    k = stack.values.shape[0]
    out = np.broadcast_to(_run(e, {}, stack, rows=k if u.is_stack else None), (k, 1))[:, 0]
    return np.array(out) if u.is_stack else float(out[0])
