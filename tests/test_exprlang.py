import dataclasses
import math
import warnings

import numpy as np
import pytest

from sosreg.calculus import multiindices
from sosreg.exprlang import (
    _nodes,
    Const,
    Cos,
    DerivativeTable,
    EvalMemo,
    Exp,
    Expr,
    ExprError,
    FlatExp,
    FunctionDef,
    Ln,
    Neg,
    Piecewise,
    ParseError,
    Pow,
    Prod,
    Quot,
    Sin,
    Sum,
    Var,
    catalog_function,
    catalog_names,
    differentiate,
    evaluate,
    free_variables,
    glaeser_stub_with,
    parse_expression,
    parse_function_file,
    read_counts,
    simplify,
    taylor_series,
    to_source,
)
from sosreg.geometry import Ball, ball_points

from oracles import fd_partial_richardson


class TestParse:
    def test_sum_of_squares_shape(self):
        e = parse_expression("x^2 + y^2")
        assert e == Sum((Pow(Var("x"), 2.0), Pow(Var("y"), 2.0)))

    def test_flat_profile_parses(self):
        e = parse_expression("exp(-1/t^2)")
        assert evaluate(e, {"t": 0.5}) == pytest.approx(math.exp(-4.0))

    def test_double_plus_is_a_syntax_error(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x ++ y")
        assert err.value.column == 4

    def test_unknown_function_identifier(self):
        with pytest.raises(ParseError):
            parse_expression("frob(x)")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse_expression("exp(x, y)")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_expression("(x + y")

    @pytest.mark.parametrize(
        "src",
        [
            "x^2 + y^2",
            "exp(-1/t^2)",
            "3*x - 4/y^2 + sin(x)*cos(y)",
            "-(x^2) - y^2",
            "(-x)^2",
            "1.5e-3*x + 2",
            "flatexp(t^2)",
            "piecewise(t^2, 0.25, 1, 0)",
            "ln(x)/x^0.5",
            "1e400*x",  # infinite constants print as 1e999
            "x^1e400",
            "-1e400*x",
        ],
    )
    def test_print_parse_round_trip(self, src):
        e = parse_expression(src)
        assert parse_expression(to_source(e)) == e

    def test_unary_minus_binds_tighter_than_power(self):
        # per the grammar, '-' is part of base, so -x^2 means (-x)^2
        e = parse_expression("-x^2")
        assert evaluate(e, {"x": 3.0}) == 9.0

    def test_function_file(self):
        defs = parse_function_file(
            """
            # a comment
            def f(x, y) = x^2 + y^2
            def g(t) = exp(-1/t^2)   # trailing comment
            """
        )
        assert set(defs) == {"f", "g"}
        assert defs["f"].variables == ("x", "y")
        assert defs["f"](1.0, 2.0) == 5.0

    def test_function_file_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse_function_file("def f(x) = x + z")


class TestDifferentiate:
    def test_polynomial_rule(self):
        d = differentiate(parse_expression("x^4"), "x")
        assert evaluate(d, {"x": 2.0}) == 32.0

    def test_second_derivative_of_flat_profile_matches_fd(self):
        fdef = FunctionDef(
            name="f", variables=("t",), body=parse_expression("exp(-1/t^2)"),
            domain=Ball((0.5,), 0.5),
        )
        d2 = differentiate(fdef.body, "t", 2)
        val = evaluate(d2, {"t": 0.5})
        oracle = float(fd_partial_richardson(fdef, [[0.5]], (2,))[0])
        assert val == pytest.approx(oracle, abs=1e-6 * (1 + abs(val)))

    def test_quartic_partial_example(self):
        L = catalog_function("quartic_L")
        dw = differentiate(L.body, "w")
        # 4w^3 - 2xyz at (1,1,1,1)
        assert evaluate(dw, dict(w=1.0, x=1.0, y=1.0, z=1.0)) == 2.0

    def test_order_cap(self):
        with pytest.raises(ExprError):
            differentiate(parse_expression("x^2"), "x", 9)

    def test_schwarz_symmetry(self):
        body = catalog_function("family_f").body
        dxy = differentiate(differentiate(body, "x"), "t")
        dyx = differentiate(differentiate(body, "t"), "x")
        rng = np.random.default_rng(0)
        pts = {v: rng.uniform(0.25, 0.35, 50) for v in "wxyz"}
        pts["t"] = rng.uniform(0.82, 0.93, 50)
        a = evaluate(dxy, pts)
        b = evaluate(dyx, pts)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


class TestEvaluate:
    """`evaluate` is the degree-0 case of the one DAG walk, `taylor_series`."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_values_are_the_series_constant_term(self, name):
        fdef = catalog_function(name)
        lo, hi = np.array(fdef.sample_box).T
        rng = np.random.default_rng(5)
        X = lo + (hi - lo) * rng.random((64, fdef.arity))
        D = rng.normal(size=X.shape)
        env = {v: X[:, i] for i, v in enumerate(fdef.variables)}
        lines = {v: [X[:, i], D[:, i], None, None] for i, v in enumerate(fdef.variables)}
        values = evaluate(fdef.body, env)
        assert values.dtype == np.float64
        assert values.tobytes() == taylor_series(fdef.body, lines, 3)[0].tobytes()

    def test_longdouble_stays_longdouble(self):
        fdef = catalog_function("family_f")
        X = ball_points(fdef.domain, 16).astype(np.longdouble)
        vals = evaluate(fdef.body, {v: X[:, i] for i, v in enumerate(fdef.variables)})
        assert vals.dtype == np.longdouble
        assert type(evaluate(fdef.body, dict(zip(fdef.variables, X[3])))) is np.longdouble

    def test_unbound_variable(self):
        with pytest.raises(ExprError, match="unbound variable 'y'"):
            evaluate(parse_expression("x + y"), {"x": 1.0})

    @pytest.mark.parametrize(("src", "value"), [
        ("exp(800)", math.inf), ("1e200^2", math.inf), ("(-1e200)^3", -math.inf), ("sin(1e400)", math.nan),
        ("0^-1", math.inf),
    ])
    def test_folds_that_fail_stay_unfolded(self, src, value):
        # float arithmetic overflows or raises on these constants; the node
        # stays, and evaluation reads what numpy gives
        e = simplify(parse_expression(src))
        assert not isinstance(e, Const)
        assert np.array_equal(evaluate(e, {}), value, equal_nan=True)
        assert np.array_equal(evaluate(simplify(parse_expression(f"{src}*x^2")), {"x": 1.0}), value, equal_nan=True)


class TestDerivativeTableAndMemo:
    def test_structurally_equal_nodes_are_one_object(self):
        t = DerivativeTable()
        e = t.simplify(parse_expression("x*y + x*y - 0*x"))
        assert e == parse_expression("x*y + x*y")
        assert e.terms[0] is e.terms[1]
        # zeros keep their sign: 1/-0.0 is not 1/0.0
        assert t.node(Const, 0.0) is not t.node(Const, -0.0)
        assert t.node(Const, 2.0) is t.simplify(Const(2.0))
        # the table's own nodes are their own simplification
        assert t.simplify(e) is e

    def test_shared_table_reuses_derivatives(self):
        t = DerivativeTable()
        e = parse_expression("exp(x*y) * sin(x)")
        d1 = differentiate(e, "x", 2, table=t)
        assert differentiate(e, "x", 2, table=t) is d1
        assert differentiate(differentiate(e, "x", table=t), "x", table=t) is d1
        assert d1 == differentiate(e, "x", 2)

    def test_batch_memo_matches_fresh_evaluation(self):
        e = parse_expression("exp(x*y) * sin(x) + x^3")
        roots = [differentiate(e, v, 2) for v in "xy"] + [e, e]
        env = {"x": np.linspace(-1.0, 1.0, 7), "y": np.linspace(0.5, 2.0, 7)}
        memo = EvalMemo(read_counts(roots))
        for r in roots:
            assert np.array_equal(evaluate(r, env, memo=memo), evaluate(r, env))
        assert memo.values == {}


def _d_reference(e, v, memo):
    """The unsimplified derivative step that `simplify` used to follow: the
    rules of `differentiate` with plain constructors."""
    key = (id(e), v)
    if key in memo:
        return memo[key][0]
    if isinstance(e, Const):
        out = Const(0.0)
    elif isinstance(e, Var):
        out = Const(1.0 if e.name == v else 0.0)
    elif isinstance(e, Sum):
        out = Sum(tuple(_d_reference(u, v, memo) for u in e.terms))
    elif isinstance(e, Neg):
        out = Neg(_d_reference(e.arg, v, memo))
    elif isinstance(e, Prod):
        fs = e.factors
        out = Sum(tuple(Prod(fs[:i] + (_d_reference(f, v, memo),) + fs[i + 1 :]) for i, f in enumerate(fs)))
    elif isinstance(e, Quot):
        da, db = _d_reference(e.num, v, memo), _d_reference(e.den, v, memo)
        out = Quot(Sum((Prod((da, e.den)), Neg(Prod((e.num, db))))), Pow(e.den, 2.0))
    elif isinstance(e, Pow):
        out = Prod((Const(e.exponent), Pow(e.base, e.exponent - 1.0), _d_reference(e.base, v, memo)))
    elif isinstance(e, Exp):
        out = Prod((e, _d_reference(e.arg, v, memo)))
    elif isinstance(e, Ln):
        out = Quot(_d_reference(e.arg, v, memo), e.arg)
    elif isinstance(e, Sin):
        out = Prod((Cos(e.arg), _d_reference(e.arg, v, memo)))
    elif isinstance(e, Cos):
        out = Neg(Prod((Sin(e.arg), _d_reference(e.arg, v, memo))))
    elif isinstance(e, FlatExp):
        u = e.arg
        out = Piecewise(u, (0.0,), (Const(0.0), Prod((e, Quot(_d_reference(u, v, memo), Pow(u, 2.0))))))
    else:
        out = Piecewise(e.scrutinee, e.breaks, tuple(_d_reference(b, v, memo) for b in e.branches))
    memo[key] = (out, e)  # e kept alive for its id
    return out


def _two_pass(e, v, order, t, memo):
    """The derivative step as it was: the unsimplified derivative, then a
    simplification of it."""
    for _ in range(order):
        e = t.simplify(_d_reference(e, v, memo))
    return e


def _shape(e, ids, shapes):
    """A number per structure: two nodes get one number iff they are == (each
    distinct node is visited once, where == walks the expanded tree)."""
    got = ids.get(id(e))
    if got is None:
        fields = []
        for f in dataclasses.fields(e):
            x = getattr(e, f.name)
            if isinstance(x, Expr):
                x = _shape(x, ids, shapes)
            elif isinstance(x, tuple):
                x = tuple(_shape(u, ids, shapes) if isinstance(u, Expr) else u for u in x)
            fields.append(x)
        got = ids[id(e)] = shapes.setdefault((type(e), *fields), len(shapes))
    return got


# every node type, each appearing under differentiation in some expression
PARSED = (
    "exp(x*y) * sin(x) - cos(y)^3",
    "ln(1 + x^2 + y^2) / (2 + sin(x*y))",
    "sqrt(x^2 + y^2 + 1) * flatexp(1 - x^2)",
    "piecewise(x, 0, x^2*y, 0.5, exp(-y)*x, 1 - cos(x))",
    "-(x - 2*y)^3 + x^-1 * y^-2",
    "3*x*y - 0*x + 2 + (2*3)^2 * x + ln(-1) * y",
    "flatexp(x*y) + flatexp(-1) * x + cos(x + y) / (1 + x^4)",
    "x^0.5 * ln(y) - sin(exp(x) * y) * x^2",
)


class TestOnePassDerivatives:
    """`differentiate` builds each step simplified; it must equal the old
    unsimplified step followed by `simplify`, for every multi-index."""

    @staticmethod
    def _check(body, variables, max_order=4):
        t, t_ref, memo = DerivativeTable(), DerivativeTable(), {}
        ids, shapes, keep = {}, {}, []
        for order in range(1, max_order + 1):
            for alpha in multiindices(len(variables), order):
                # axis by axis, as FunctionHandle.from_expr chains them
                new = ref = body
                for v, p in zip(variables, alpha):
                    if p:
                        new = differentiate(new, v, p, table=t)
                        ref = _two_pass(ref, v, p, t_ref, memo)
                assert _shape(new, ids, shapes) == _shape(ref, ids, shapes), (alpha, to_source(body))
                again = simplify(new)
                keep.append(again)  # ids stay keys of `ids` while it lives
                assert _shape(again, ids, shapes) == _shape(new, ids, shapes)

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_derivatives_equal_the_two_pass_step(self, name):
        fdef = catalog_function(name)
        self._check(fdef.body, fdef.variables)

    def test_parsed_derivatives_equal_the_two_pass_step(self):
        seen = set()
        for src in PARSED:
            e = parse_expression(src)
            seen |= {type(n) for n in _nodes(e)}
            self._check(e, ("x", "y"))
        assert seen == {Const, Var, Sum, Neg, Prod, Quot, Pow, Exp, Ln, Sin, Cos, FlatExp, Piecewise}

    @pytest.mark.parametrize(
        ("src", "order", "printed"),
        [
            ("x^3*y", 1, "3*x^2*y"),
            ("exp(2*x) - 1/x", 1, "2*exp(2*x) - -1/x^2"),
            ("sin(x)*cos(x) + ln(x)", 2,
             "(-sin(x))*cos(x) + cos(x)*(-sin(x)) + cos(x)*(-sin(x)) + sin(x)*(-cos(x)) + -1/x^2"),
            ("flatexp(1 - x^2) + piecewise(x, 0, 2*x, x^2)", 1,
             "piecewise(-(x^2) + 1, 0, 0, flatexp(-(x^2) + 1)*((-(2*x))/(-(x^2) + 1)^2)) + piecewise(x, 0, 2, 2*x)"),
        ],
    )
    def test_simplified_forms(self, src, order, printed):
        # the two-pass reference shares the builders, so it cannot pin where
        # they put constants and signs; these forms can
        assert to_source(differentiate(parse_expression(src), "x", order)) == printed

    def test_nested_product_is_differentiated_flattened(self):
        # the input is simplified before the first step, so a nested product
        # differentiates as its flattened form; values agree with the old step
        e = parse_expression("x*(x*x)")
        d = differentiate(e, "x")
        assert d == differentiate(parse_expression("x*x*x"), "x")
        old = _two_pass(e, "x", 1, DerivativeTable(), {})
        assert d != old
        x = np.linspace(-2.0, 2.0, 9)
        assert np.allclose(evaluate(d, {"x": x}), evaluate(old, {"x": x}), rtol=1e-15, atol=0.0)


class TestCatalog:
    def test_names(self):
        assert set(catalog_names()) == {
            "motzkin_M", "quartic_L", "flat_exp_sq", "flat_exp", "bump_h",
            "family_f", "glaeser_stub",
        }

    def test_motzkin_value(self):
        M = catalog_function("motzkin_M", {"lam": 1.0})
        # 1 + 1*(1 + 1 - 3) = 0
        assert M(1.0, 1.0, 1.0) == 0.0

    def test_motzkin_lambda_range(self):
        with pytest.raises(ExprError):
            catalog_function("motzkin_M", {"lam": 1.5})

    def test_unknown_name(self):
        with pytest.raises(ExprError):
            catalog_function("nonsense")

    def test_quartic_values(self):
        L = catalog_function("quartic_L")
        assert L(1.0, 1.0, 1.0, 1.0) == 2.0
        assert L(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_quartic_nonnegative_on_sphere(self):
        L = catalog_function("quartic_L")
        rng = np.random.default_rng(1)
        W = rng.normal(size=(10_000, 4))
        W /= np.linalg.norm(W, axis=1)[:, None]
        vals = evaluate(L.body, {v: W[:, i] for i, v in enumerate("wxyz")})
        assert np.min(vals) >= -1e-12

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_motzkin_nonnegative_on_sphere(self, lam):
        M = catalog_function("motzkin_M", {"lam": lam})
        rng = np.random.default_rng(2)
        W = rng.normal(size=(10_000, 3))
        W /= np.linalg.norm(W, axis=1)[:, None]
        vals = evaluate(M.body, {v: W[:, i] for i, v in enumerate("xyz")})
        assert np.min(vals) >= -1e-12

    def test_bump_plateau(self):
        h = catalog_function("bump_h", {"rho": 0.5})
        assert h(0.0) == 1.0
        assert h(0.4) == 1.0
        assert h(-0.4) == 1.0
        assert 0.0 < h(0.7) < 1.0
        assert h(1.0) == 0.0
        assert h(1.3) == 0.0
        assert h(math.nan) == 0.0  # a NaN scrutinee falls to the last branch
        # scalar inputs give numpy scalars, not 0-d arrays
        assert all(type(h(t)) is np.float64 for t in (0.0, 0.7, 1.3))
        # even and monotone on [0, inf)
        ts = np.linspace(0.0, 1.2, 200)
        vals = evaluate(h.body, {"t": ts})
        assert np.allclose(vals, evaluate(h.body, {"t": -ts}))
        assert np.all(np.diff(vals) <= 1e-12)

    def test_family_guard_at_zero_radius(self):
        fam = catalog_function("family_f")
        t = np.array([0.0, 0.2, 0.5])
        vals = fam(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), t)
        psi = np.exp(-16.0 / np.where(t > 0, t, 1) ** 2) * t**8
        assert vals[0] == 0.0
        assert np.allclose(vals[1:], psi[1:], rtol=1e-12)

    def test_family_on_t_axis_equals_phi_r_at_t0(self):
        fam = catalog_function("family_f")
        assert fam(0.4, 0.0, 0.0, 0.0, 0.0) == pytest.approx(math.exp(-1 / 0.16), rel=1e-12)

    def test_glaeser_stub_hook(self):
        stub = glaeser_stub_with(parse_expression("t^4"), ("t",))
        assert stub(0.0) == 0.0
        assert stub(0.5) == pytest.approx(math.exp(-16.0))
        # flatexp(u) is exactly 0 at u <= 0, without warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = glaeser_stub_with(parse_expression("t"), ("t",))(np.array([-np.inf, -1.0, -0.0, 0.0]))
        assert np.array_equal(vals, np.zeros(4)) and not np.signbit(vals).any()

    def test_free_variable_validation(self):
        with pytest.raises(ExprError):
            FunctionDef(
                name="bad", variables=("x",), body=parse_expression("x + y"),
                domain=Ball((0.0,), 1.0),
            )


class TestDerivativeOracleInvariant:
    @pytest.mark.parametrize("name", ["motzkin_M", "flat_exp_sq", "bump_h"])
    def test_symbolic_matches_fd_to_order_4(self, name):
        from sosreg.calculus import FunctionHandle, multiindices

        fdef = catalog_function(name)
        fh = FunctionHandle.from_def(fdef)
        rng = np.random.default_rng(11)
        pts = np.column_stack([rng.uniform(lo, hi, 40) for lo, hi in fdef.sample_box])
        for order in (1, 2, 3, 4):
            for alpha in multiindices(fdef.arity, order):
                sym = fh.derivative_values(pts, alpha)
                fd = fd_partial_richardson(fdef, pts, alpha)
                assert np.max(np.abs(sym - fd) / (1.0 + np.abs(sym))) <= 1e-5
