import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammcert.errors import DomainError, EvaluationError, ExprError
from hammcert.expr import (Binary, Call, Const, Integral, Num, PointValue,
                           Unary, Var, eval_bound, eval_constant,
                           eval_coefficient, eval_functional,
                           eval_nonlinearity, parse, to_source)
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

    @pytest.mark.parametrize("src", ["²", "٣"])
    def test_numbers_are_ascii_decimals(self, src):
        # str.isdigit() takes both: '²' crashed float(), '٣' read as 3.0
        with pytest.raises(ExprError) as err:
            parse(src, "constant")
        assert err.value.pos == 0

    def test_unknown_function(self):
        with pytest.raises(ExprError):
            parse("tan(t)", "coefficient")

    def test_unknown_role(self):
        with pytest.raises(ValueError):
            parse("1", "no-such-role")


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
        hau = eval_functional(h, u.scaled(alpha))
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


def _exprs(role_vars, depth=3):
    # abs() keeps -0.0 out: its repr would re-parse as a unary minus node
    leaf = st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(lambda x: Num(abs(x))),
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
