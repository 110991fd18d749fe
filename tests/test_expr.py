import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammcert.errors import DomainError, EvaluationError, ExprError
from hammcert.expr import (Binary, Call, Const, Integral, Num, PointValue,
                           Unary, Var, _eval, _tokenize, derivative, eval_bound, eval_constant,
                           eval_coefficient, eval_functional,
                           eval_nonlinearity, parse, parse_entry, to_source, variables)
from hammcert.grid import Grid, GridFunction

E2 = math.exp(2.0)


def ramp(n=256):
    return GridFunction.ramp(Grid(n), 1.0)


class TestParsing:
    def test_example_nonlinearity(self):
        e = parse("exp(t*(u + v))", "nonlinearity")
        assert e == Call("exp", (Binary("*", Var("t"), Binary("+", Var("u"), Var("v"))),))

    def test_example_functional(self):
        e = parse("U(0.25) + DU(0.75)^2", "functional")
        assert e == Binary("+", PointValue(False, Num(0.25)),
                           Binary("^", PointValue(True, Num(0.75)), Num(2.0)))

    def test_example_oscillatory(self):
        # the second worked example's nonlinearity
        parse("u*(2 - t*sin(u*v))", "nonlinearity")

    @pytest.mark.parametrize("src,expected", [
        ("2+3*4", 14.0),
        ("2*3+4", 10.0),
        ("(2+3)*4", 20.0),
        ("6/3/2", 1.0),
        ("2^3^2", 512.0),       # right-associative
        ("-2^2", -4.0),         # ^ binds above unary minus
        ("2^-1", 0.5),
        ("--2", 2.0),
        ("min(3, max(1, 2))", 2.0),
        ("abs(-4) + sqrt(9)", 7.0),
        ("1e2 + 1.5e-2", 100.015),
    ])
    def test_precedence_and_calls(self, src, expected):
        assert eval_constant(parse(src, "constant")) == pytest.approx(expected, rel=1e-15)

    def test_named_constants(self):
        assert eval_constant(parse("e^2", "constant")) == pytest.approx(E2, rel=1e-15)
        assert eval_constant(parse("pi", "constant")) == math.pi
        assert eval_constant(parse("exp(1)", "constant")) == pytest.approx(math.e, rel=1e-15)

    def test_syntax_error_has_position(self):
        with pytest.raises(ExprError) as err:
            parse("1 + * 2", "constant")
        assert err.value.pos == 4

    def test_unbalanced_parens(self):
        with pytest.raises(ExprError):
            parse("(1 + 2", "constant")

    def test_trailing_garbage(self):
        with pytest.raises(ExprError):
            parse("1 + 2 )", "constant")

    def test_empty(self):
        with pytest.raises(ExprError):
            parse("   ", "constant")

    def test_unknown_character(self):
        with pytest.raises(ExprError):
            parse("1 ? 2", "constant")

    @pytest.mark.parametrize("src", ["²", "٣", "½", "Ⅻ"])
    def test_numbers_are_ascii_decimals(self, src):
        # str.isdigit() takes the first two: '²' crashed float(), '٣' read as
        # 3.0; str.isalnum() takes all four inside a name, never at its start
        with pytest.raises(ExprError) as err:
            parse(src, "constant")
        assert err.value.pos == 0
        assert str(err.value) == f"unexpected character {src!r} (at position 0)"

    def test_exponent_needs_digits(self):
        # '2e' is the number 2 followed by the name e; '2e1' is 20
        assert parse("2e1", "constant") == Num(20.0)
        with pytest.raises(ExprError) as err:
            parse("2e", "constant")
        assert str(err.value) == "unexpected 'e' (at position 1)"

    @pytest.mark.parametrize("src, literal, pos", [
        ("1e999*u", "1e999", 0), ("u + 9e308", "9e308", 4), ("-1.5E+400", "1.5E+400", 1)])
    def test_overflowing_literal_is_an_error(self, src, literal, pos):
        # it parsed to Num(inf), which prints as 'inf' and does not re-parse
        with pytest.raises(ExprError) as err:
            parse(src, "nonlinearity")
        assert str(err.value) == f"number {literal!r} is not finite (at position {pos})"
        assert err.value.pos == pos

    def test_overflowing_literal_names_the_entry_as_written(self):
        with pytest.raises(ExprError) as err:
            parse_entry("nonlinearity", "f", "1e999*u", "nonlinearity")
        assert str(err.value) == ("[nonlinearity] f = '1e999*u': "
                                  "number '1e999' is not finite (at position 0)")

    def test_unknown_function(self):
        with pytest.raises(ExprError):
            parse("tan(t)", "coefficient")

    def test_unknown_role(self):
        with pytest.raises(ValueError):
            parse("1", "no-such-role")


# --- tokenizer oracle ---------------------------------------------------------

_ASCII_DIGITS = frozenset("0123456789")


def _loop_tokenize(text):
    """The character-loop tokenizer that the token pattern replaced, as
    (kind, text, pos) tuples: the reference for _tokenize."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _ASCII_DIGITS or (c == "." and i + 1 < n and text[i + 1] in _ASCII_DIGITS):
            start = i
            while i < n and text[i] in _ASCII_DIGITS:
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i] in _ASCII_DIGITS:
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j] in _ASCII_DIGITS:
                    i = j
                    while i < n and text[i] in _ASCII_DIGITS:
                        i += 1
            tokens.append(("num", text[start:i], start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("name", text[start:i], start))
            continue
        if c in "+-*/^(),":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return [tuple(token) for token in tokenize(text)]
    except ExprError as exc:
        return str(exc)


# ASCII and other digits ('²' is a digit, '½' and 'Ⅻ' numeric, '٣' and '０'
# decimal), letters with and without accents, the characters of a number,
# the operators, and whitespace that str.isspace() takes.
TOKEN_ALPHABET = ("0123456789²٣½Ⅻ０" "abeEsxzéßΩǅʰ_." "+-*/^(),?$'"
                  " \t\n\r\x0b\x0c\x1c\x85\xa0\u1680\u2003\u2028\u3000")


@given(st.text(alphabet=TOKEN_ALPHABET, max_size=30))
@settings(max_examples=500)
def test_tokenizer_matches_the_character_loop(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_loop_tokenize, text)


class TestRoles:
    def test_nonlinearity_vars(self):
        parse("t + u + v", "nonlinearity")
        with pytest.raises(ExprError):
            parse("t + s", "nonlinearity")

    def test_coefficient_only_t(self):
        parse("1 - t^2", "coefficient")
        with pytest.raises(ExprError):
            parse("u", "coefficient")

    def test_kernel_vars(self):
        parse("t*s", "kernel")
        with pytest.raises(ExprError):
            parse("t*u", "kernel")

    def test_bound_var(self):
        assert eval_bound(parse("exp(2*rho)", "bound"), 1.0) == pytest.approx(E2)
        with pytest.raises(ExprError):
            parse("t", "bound")

    def test_functional_atoms_only_in_functional_role(self):
        with pytest.raises(ExprError):
            parse("U(0.5)", "nonlinearity")
        with pytest.raises(ExprError):
            parse("INT(U(s))", "coefficient")

    def test_functional_forbids_free_t(self):
        with pytest.raises(ExprError):
            parse("U(1/4) + t", "functional")

    def test_s_only_inside_int(self):
        parse("INT(s * U(s))", "functional")
        with pytest.raises(ExprError):
            parse("U(s)", "functional")

    def test_int_does_not_nest(self):
        with pytest.raises(ExprError) as err:
            parse("INT(U(s) + INT(DU(s)))", "functional")
        assert "nest" in str(err.value)


class TestEvaluation:
    def test_exp_at_corner(self):
        e = parse("exp(t*(u + v))", "nonlinearity")
        assert eval_nonlinearity(e, 1.0, 1.0, 1.0) == pytest.approx(E2, abs=1e-9)

    def test_exp_at_t_zero(self):
        e = parse("exp(t*(u + v))", "nonlinearity")
        for u, v in ((0.0, 0.0), (3.0, 7.0), (100.0, 0.5)):
            assert eval_nonlinearity(e, 0.0, u, v) == 1.0

    def test_oscillatory_point(self):
        e = parse("u*(2 - t*sin(u*v))", "nonlinearity")
        assert eval_nonlinearity(e, 0.5, 1.0, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_vectorised(self):
        e = parse("t^2 + u - v", "nonlinearity")
        t = np.array([0.0, 0.5, 1.0])
        out = eval_nonlinearity(e, t, 1.0, 0.25)
        np.testing.assert_allclose(out, t**2 + 0.75)

    def test_coefficient(self):
        e = parse("2*t + 1", "coefficient")
        assert eval_coefficient(e, 0.5) == 2.0

    def test_sqrt_of_negative_reports_point(self):
        e = parse("sqrt(u - 1)", "nonlinearity")
        with pytest.raises(EvaluationError) as err:
            eval_nonlinearity(e, 0.0, 0.5, 0.0)
        assert "u=0.5" in str(err.value)

    def test_division_by_zero(self):
        e = parse("1/(t - t)", "nonlinearity")
        with pytest.raises(EvaluationError):
            eval_nonlinearity(e, 1.0, 0.0, 0.0)


class Interval(np.lib.mixins.NDArrayOperatorsMixin):
    """The closed interval [lo, hi] under +, -, *, negation, exp and sqrt,
    with endpoints rounded to nearest: a value type for the tree walk, not
    an enclosure.  sqrt of an interval that reaches below 0 is a
    DomainError."""

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = lo, hi

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        a, *rest = (x if isinstance(x, Interval) else Interval(float(x), float(x))
                    for x in inputs)
        if ufunc is np.negative:
            return Interval(-a.hi, -a.lo)
        if ufunc in (np.exp, np.sqrt):
            if ufunc is np.sqrt and a.lo < 0:
                raise DomainError(f"sqrt of [{a.lo:g}, {a.hi:g}]")
            return Interval(float(ufunc(a.lo)), float(ufunc(a.hi)))
        b, = rest
        if ufunc is np.add:
            return Interval(a.lo + b.lo, a.hi + b.hi)
        if ufunc is np.subtract:
            return Interval(a.lo - b.hi, a.hi - b.lo)
        if ufunc is np.multiply:
            ends = [x * y for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
            return Interval(min(ends), max(ends))
        return NotImplemented


class TestValueTypes:
    """_eval walks a parsed entry over any value type with numpy's operators."""

    def test_interval_contains_the_corners(self, example1):
        unit = Interval(0.0, 1.0)
        box = _eval(example1.f, {"t": unit, "u": unit, "v": unit}, None)
        assert (box.lo, box.hi) == (1.0, float(np.exp(2.0)))
        for t, u, v in itertools.product((0.0, 1.0), repeat=3):
            assert eval_nonlinearity(example1.f, t, u, v) in box

    def test_domain_error_names_the_entry_as_a_float_evaluation_does(self):
        f = parse_entry("nonlinearity", "f", "sqrt(u - 1/2)", "nonlinearity")
        unit = Interval(0.0, 1.0)
        with pytest.raises(DomainError) as interval:
            _eval(f, {"t": unit, "u": unit, "v": unit}, None)
        assert str(interval.value) == "[nonlinearity] f = 'sqrt(u - 1.0/2.0)': sqrt of [-0.5, 0.5]"
        with pytest.raises(DomainError) as floats:
            eval_functional(parse_entry("functionals", "h1", "U(3/2)", "functional"), ramp())
        assert str(floats.value) \
            == "[functionals] h1 = 'U(3.0/2.0)': evaluation point 1.5 outside [0,1]"


class TestFunctionals:
    def test_point_functional_on_ramp(self):
        h1 = parse("U(0.25) + DU(0.75)^2", "functional")
        assert eval_functional(h1, ramp()) == pytest.approx(1.25, abs=1e-12)

    def test_integral_functional_on_zero(self):
        h = parse("INT(U(s)^3 + DU(s))", "functional")
        assert eval_functional(h, GridFunction.zero(Grid(64))) == 0.0

    def test_integral_functional_on_ramp(self):
        h = parse("INT(U(s)^3 + DU(s))", "functional")
        assert eval_functional(h, ramp(256)) == pytest.approx(1.25, abs=1e-3)

    def test_fractional_argument(self):
        h = parse("U(1/4) + DU(3/4)^2", "functional")
        assert eval_functional(h, ramp()) == pytest.approx(1.25, abs=1e-12)

    def test_point_outside_domain(self):
        h = parse("U(1.5)", "functional")
        with pytest.raises(DomainError):
            eval_functional(h, ramp())

    @given(st.integers(min_value=0, max_value=10**6), st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_linear_functionals_are_homogeneous(self, seed, alpha):
        rng = np.random.default_rng(seed)
        a, b = (float(x) for x in rng.uniform(0, 1, size=2))
        c = [float(x) for x in rng.uniform(0, 2, size=5)]
        h = parse(f"{c[0]!r}*U({a!r}) + {c[1]!r}*DU({b!r}) + "
                  f"{c[2]!r}*INT({c[3]!r}*U(s) + {c[4]!r}*DU(s))", "functional")
        g = Grid(32)
        u = GridFunction(g, rng.random(33), rng.random(33))
        hu = eval_functional(h, u)
        hau = eval_functional(h, GridFunction(g, alpha * u.values, alpha * u.dvalues))
        assert hau == pytest.approx(alpha * hu, rel=1e-9, abs=1e-12)


# --- round-trip stability -----------------------------------------------

CORPUS = [
    ("exp(t*(u + v))", "nonlinearity"),
    ("u*(2 - t*sin(u*v))", "nonlinearity"),
    ("U(0.25) + DU(0.75)^2", "functional"),
    ("U(1/4) * cos(DU(3/4))^2", "functional"),
    ("INT(U(s)^3 + DU(s))", "functional"),
    ("1 - t^2/2", "coefficient"),
    ("-t^2^3", "coefficient"),
    ("t - (t - 1)", "coefficient"),
    ("min(t, s)*max(s, 0.5)", "kernel"),
    ("exp(2*rho) + rho^3", "bound"),
    ("1/11", "constant"),
    ("-(1 + 2)*3", "constant"),
]


@pytest.mark.parametrize("src,role", CORPUS)
def test_round_trip_corpus(src, role):
    ast = parse(src, role)
    printed = to_source(ast)
    again = parse(printed, role)
    assert again == ast
    assert to_source(again) == printed


def _exprs(role_vars, top=1e6):
    # abs() keeps -0.0 out: its repr would re-parse as a unary minus node
    leaf = st.one_of(
        st.floats(min_value=0.0, max_value=top, allow_nan=False).map(lambda x: Num(abs(x))),
        st.sampled_from(sorted(role_vars)).map(Var) if role_vars else st.nothing(),
        st.sampled_from(["e", "pi"]).map(Const),
    )

    def extend(children):
        return st.one_of(
            children.map(Unary),
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: Binary(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(["exp", "sin", "cos", "sqrt", "abs"]), children).map(
                lambda t: Call(t[0], (t[1],))),
            st.tuples(st.sampled_from(["min", "max"]), children, children).map(
                lambda t: Call(t[0], (t[1], t[2]))),
        )

    return st.recursive(leaf, extend, max_leaves=12)


@given(_exprs({"t", "u", "v"}))
@settings(max_examples=150)
def test_round_trip_random_nonlinearity(ast):
    assert parse(to_source(ast), "nonlinearity") == ast


@given(st.tuples(_exprs(set()), _exprs(set()), _exprs(set())))
@settings(max_examples=75)
def test_round_trip_random_functional(parts):
    arg, body, other = parts
    ast = Binary("+", PointValue(False, arg),
                 Binary("*", Integral(Binary("+", body, PointValue(True, Var("s")))),
                        PointValue(True, other)))
    assert parse(to_source(ast), "functional") == ast


# --- derivatives ------------------------------------------------------------

class TestDerivative:
    @pytest.mark.parametrize("src, expected", [
        ("1", Num(0.0)), ("t", Num(1.0)), ("pi*e", Num(0.0)), ("-t", Unary(Num(1.0))),
        ("3*t - t/4", Num(2.75)), ("1 - 2*t", Unary(Num(2.0))),
        ("t^2", Binary("*", Num(2.0), Var("t"))),
        ("exp(t)", Call("exp", (Var("t"),))),
        ("cos(t)", Unary(Call("sin", (Var("t"),)))),
    ])
    def test_folds_constants(self, src, expected):
        assert derivative(parse(src, "coefficient"), "t") == expected

    @pytest.mark.parametrize("src", ["2^t", "t^t", "1 + sin(t)^(1 + t)"])
    def test_exponent_reading_the_variable_is_an_error(self, src):
        with pytest.raises(ExprError, match=r"an exponent reads t \(no log\)$"):
            derivative(parse(src, "coefficient"), "t")

    @pytest.mark.parametrize("src, kink, slopes", [
        ("abs(t - 1/2)", 0.5, (-1.0, 1.0)), ("min(t, 1/4)", 0.25, (1.0, 0.0)),
        ("max(1/2, 2*t)", 0.25, (0.0, 2.0)),
    ])
    def test_kink_is_non_finite(self, src, kink, slopes):
        d = derivative(parse(src, "coefficient"), "t")
        assert (eval_coefficient(d, kink - 0.1), eval_coefficient(d, kink + 0.1)) == slopes
        with pytest.raises(EvaluationError, match=f"non-finite at t={kink:g}"):
            eval_coefficient(d, kink)


def _exponent_reads_t(e) -> bool:
    if isinstance(e, Binary):
        here = e.op == "^" and "t" in variables(e.right)
        return here or any(map(_exponent_reads_t, (e.left, e.right)))
    if isinstance(e, Unary):
        return _exponent_reads_t(e.operand)
    return isinstance(e, Call) and any(map(_exponent_reads_t, e.args))


def _at(e, ts):
    """e at each point of ts, nan where it is not finite."""
    out = []
    for t in ts:
        try:
            out.append(eval_coefficient(e, float(t)))
        except EvaluationError:
            out.append(math.nan)
    return np.array(out)


# Constants up to 4 keep the rounding error of the differences below the
# tolerance; an exponent may read t, which derivative must reject.
@given(_exprs({"t"}, top=4.0))
@settings(max_examples=300, deadline=None)
def test_derivative_matches_central_differences(e):
    """At interior points where g and its derivative are finite and smooth
    across the stencil, the derivative agrees with central differences."""
    try:
        d = derivative(e, "t")
    except ExprError:
        assert _exponent_reads_t(e)
        return
    assert not _exponent_reads_t(e)
    assert parse(to_source(d), "coefficient") == d
    h = 1e-6
    for t in np.linspace(0.05, 0.95, 19):
        g = _at(e, (t - h, t + h))
        dl, dt, dr = _at(d, (t - h, t, t + h))
        scale = 1.0 + abs(dt)
        if not np.isfinite([*g, dl, dt, dr]).all() or max(abs(g)) > 1e6 \
                or abs(dr - dl) > 1e-3 * scale or abs(dr - 2 * dt + dl) > 1e-5 * scale:
            continue  # a kink, a pole or a non-finite value within the stencil
        fd = (g[1] - g[0]) / (2 * h)
        assert abs(fd - dt) <= 1e-4 * scale + 1e-9 * max(abs(g)) / h, (to_source(e), t, fd, dt)
