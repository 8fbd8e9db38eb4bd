"""Expression layer: parsing, evaluation, differentiation, simplify."""

import math
import warnings

import numpy as np
import pytest

from geoflow import expr as ex
from geoflow import geometry as geo
from geoflow import hamiltonian as ham

import oracles


RNG = np.random.default_rng(20260818)
V2 = ex.variables(2)
V3 = ex.variables(3)


def test_parse_evaluate_basic():
    cases = [
        ("2 + 3*4", [0.0, 0.0], 14.0),
        ("x1^2 - x2", [3.0, 1.0], 8.0),
        ("-x1*(x2 + 1)/2", [4.0, 1.0], -4.0),
        ("sin(x1)*cos(x1)", [0.7, 0.0], math.sin(0.7) * math.cos(0.7)),
        ("exp(0.3*x1 - 0.2*x2)", [1.0, 2.0], math.exp(-0.1)),
        ("sqrt(x1^2 + 1)", [2.0, 0.0], math.sqrt(5.0)),
        ("log(exp(x1))", [1.3, 0.0], 1.3),
    ]
    for text, point, want in cases:
        got = ex.evaluate(ex.parse(text, V2), point)
        assert got == pytest.approx(want, rel=1e-14), text


def test_precedence():
    assert ex.evaluate(ex.parse("1+2 * 3 ^ 2", V2), [0, 0]) == 19.0
    assert ex.evaluate(ex.parse("(1+2)*3^2", V2), [0, 0]) == 27.0
    # unary minus binds looser than power
    assert ex.evaluate(ex.parse("-2^2", V2), [0, 0]) == -4.0


def test_syntax_errors():
    for bad in ["", "1 +", "x1 x2", "sin()", "(x1"]:
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse(bad, V2)


def test_unknown_identifier():
    with pytest.raises(ex.UnknownIdentifierError):
        ex.parse("x1 + y", V2)


def test_non_integer_exponent_rejected():
    with pytest.raises(ex.NonIntegerExponentError):
        ex.parse("x1^0.5", V2)
    with pytest.raises(ex.NonIntegerExponentError):
        ex.parse("x1^x2", V2)


def test_diff_matches_finite_differences():
    texts = [
        "x1^3 - 2*x1*x2 + x2^2",
        "sin(x1*x2) + cos(x1)",
        "exp(0.5*x1) * log(x2 + 3)",
        "x1 / (1 + x2^2)",
        "sqrt(1 + x1^2 + x2^2)",
    ]
    h = 1e-6
    for text in texts:
        node = ex.parse(text, V2)
        for var in (0, 1):
            d = ex.diff(node, var)
            for _ in range(5):
                x = [float(v) for v in RNG.uniform(-1, 1, size=2)]
                up = list(x); up[var] += h
                dn = list(x); dn[var] -= h
                fd = (ex.evaluate(node, up) - ex.evaluate(node, dn)) / (2 * h)
                assert ex.evaluate(d, x) == pytest.approx(fd, abs=1e-8,
                                                          rel=1e-6)


def test_diff_of_independent_variable_is_zero():
    d = ex.simplify(ex.diff(ex.parse("x2^2 + 3.5", V2), 0))
    assert ex.evaluate(d, [7.0, 11.0]) == 0.0


def test_simplify_folds_constants():
    node = ex.simplify(ex.parse("0*x1 + 1*(x2 + 0) + 2*3", V2))
    assert ex.evaluate(node, [99.0, 5.0]) == 11.0
    # idempotent: a second pass changes nothing
    assert ex.simplify(node) == node
    # calls of constants fold, except outside their domain
    assert ex.simplify(ex.parse("exp(0)*x1 + log(1)", V2)) == ex.Var(0)
    assert isinstance(ex.simplify(ex.parse("log(-1)", V2)), ex.Call)


def test_simplify_preserves_value():
    texts = ["x1*(x2 - x2) + x1", "x1^1 * x2^0", "(x1 + 0)/(1)",
             "x1*x1^(-1)"]
    for text in texts:
        node = ex.parse(text, V2)
        simp = ex.simplify(node)
        for _ in range(4):
            x = [float(v) for v in RNG.uniform(-2, 2, size=2)]
            assert ex.evaluate(simp, x) == pytest.approx(
                ex.evaluate(node, x), rel=1e-14, abs=1e-14)


def test_substitute():
    node = ex.parse("x1^2 + x2", V2)
    swapped = ex.substitute(node, {1: ex.parse("2*x1", V2)})
    assert ex.evaluate(swapped, [3.0, 0.0]) == 15.0


def test_compile_exprs_matches_evaluate():
    nodes = [ex.parse(text, V3) for text in (
        "x1^2 - x2", "sin(x1) + x3", "-x1", "x2 - x3", "-(x1*x2)/x3",
        "cos(-x1)")]
    fn = ex.compile_exprs(nodes)
    for _ in range(5):
        x = RNG.uniform(-2, 2, size=3)
        want = [ex.evaluate(n, x) for n in nodes]
        # a list of floats and a 1-D array give the same float ndarray
        for values in (x.tolist(), x):
            got = fn(values)
            assert isinstance(got, np.ndarray) and got.dtype == float
            assert np.allclose(got, want, rtol=1e-14, atol=0)
    # overflow, division by zero and a math-domain error give all-NaN
    # output, with no exception and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text, x1 in (("x1^400", 10.0), ("1/x1", 0.0), ("log(x1)", -1.0)):
            got = ex.compile_exprs(nodes + [ex.parse(text, V3)])(
                [x1, 1.0, 1.0])
            assert got.shape == (len(nodes) + 1,)
            assert np.all(np.isnan(got)), text


def test_compile_taylor_failures_give_nan():
    # xdot = f(x): overflow, division by zero and a math-domain error give
    # an all-NaN jet, with no exception and no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text, x1 in (("exp(x1)", 1000.0), ("1/x1", 0.0),
                         ("log(x1)", -1.0), ("x1^(-2)", 0.0)):
            Z, E = ex.compile_taylor([ex.parse(text, ["x1"])],
                                     [ex.parse("x1^2", ["x1"])])([x1], 4)
            assert Z.shape == (5, 1) and E.shape == (4, 1)
            assert np.all(np.isnan(Z)) and np.all(np.isnan(E)), text


def test_a_stack_is_evaluated_row_by_row():
    # Every node kind of the Hamiltonian field, at 5 covectors: a stack
    # gives the rows of its points bit for bit, and a row that overflows
    # (exp(0.1 x1) at x1 = 1e4) is NaN without touching the others.
    sys = geo.load_structure(oracles.NODE_KINDS)
    field = ham._hamiltonian_field(sys)
    rng = np.random.default_rng(3)
    points = np.column_stack([rng.uniform(0.2, 2.0, 5),
                              rng.uniform(-1.0, 1.0, (5, 3))])
    points[2, 0] = 1e4
    fn, jet = ex.compile_exprs(field), ham._taylor_fn(sys)
    rows = [fn(z) for z in points]
    got = fn(points)
    assert got.shape == (5, 4)
    assert np.all(np.isnan(got[2])) and np.all(np.isnan(rows[2]))
    assert np.array_equal(got, rows, equal_nan=True)
    assert np.all(np.isfinite(np.delete(got, 2, axis=0)))
    Z, E = jet(points, 4)
    # The extras are the 10 entries of the Hessian's upper triangle.
    assert Z.shape == (5, 5, 4) and E.shape == (5, 4, 10)
    assert np.all(np.isnan(Z[2])) and np.all(np.isnan(E[2]))
    for z, Zi, Ei in zip(points, Z, E):
        one = jet(z, 4)
        assert np.array_equal(Zi, one[0], equal_nan=True)
        assert np.array_equal(Ei, one[1], equal_nan=True)
    assert np.all(np.isfinite(np.delete(Z, 2, axis=0)))
