"""Structure declarations, brackets, divergences, auxiliary frames."""

import json

import numpy as np
import pytest

from geoflow import catalog
from geoflow import expr as ex
from geoflow import geometry as geo

import oracles


RNG = np.random.default_rng(4)


def _field(texts, n):
    return geo.VectorField.from_strings(texts, ex.variables(n))


def _at(field, x):
    """The field's values at x, through the compiled evaluator."""
    return ex.compile_exprs(field.components)(x)


def test_vector_field_evaluation():
    f = _field(["x2", "-x1", "1"], 3)
    assert np.allclose(_at(f, np.array([2.0, 3.0, 0.0])),
                       [3.0, -2.0, 1.0])
    assert f.dim == 3
    z = geo.VectorField.zero(3)
    assert np.allclose(_at(z, np.zeros(3)), 0.0)


def test_heisenberg_bracket_is_vertical():
    sys = catalog.builtin("heisenberg3")
    br = oracles.lie_bracket(sys.frame[0], sys.frame[1])
    for _ in range(5):
        x = RNG.uniform(-1, 1, size=3)
        assert np.allclose(_at(br, x), [0.0, 0.0, 1.0], atol=1e-14)


def test_bracket_antisymmetry_and_jacobi():
    n = 3
    fields = [
        _field(["x2^2", "sin(x3)", "x1"], n),
        _field(["1", "x1*x3", "-x2"], n),
        _field(["x3", "0", "exp(0.2*x1)"], n),
    ]
    X, Y, Z = fields
    anti = oracles.lie_bracket(X, Y)
    anti_rev = oracles.lie_bracket(Y, X)
    jac = [oracles.lie_bracket(X, oracles.lie_bracket(Y, Z)),
           oracles.lie_bracket(Y, oracles.lie_bracket(Z, X)),
           oracles.lie_bracket(Z, oracles.lie_bracket(X, Y))]
    for _ in range(5):
        x = RNG.uniform(-0.8, 0.8, size=n)
        assert np.allclose(_at(anti, x), -_at(anti_rev, x),
                           atol=1e-12)
        total = sum(_at(j, x) for j in jac)
        assert np.allclose(total, 0.0, atol=1e-10)


def test_bracket_against_finite_differences():
    X = _field(["x2", "-x1"], 2)
    Y = _field(["x1*x2", "x2^2"], 2)
    br = oracles.lie_bracket(X, Y)
    h = 1e-6
    for _ in range(4):
        x = RNG.uniform(-1, 1, size=2)
        want = np.zeros(2)
        # [X, Y] = DY X - DX Y entrywise by central differences
        for j in range(2):
            e = np.zeros(2); e[j] = h
            want += (_at(Y, x + e) - _at(Y, x - e)) / (2 * h) \
                * _at(X, x)[j]
            want -= (_at(X, x + e) - _at(X, x - e)) / (2 * h) \
                * _at(Y, x)[j]
        assert np.allclose(_at(br, x), want, atol=1e-7)


def test_divergence_weighted_constant_field():
    # div wrt density e^(a.x) of a constant field equals <a, field>
    n = 3
    a = np.array([0.3, -0.2, 0.5])
    density = ex.parse("exp(0.3*x1 - 0.2*x2 + 0.5*x3)", ex.variables(n))
    f = _field(["1", "2", "-1"], n)
    div = oracles.divergence(f, density=density)
    want = float(a @ np.array([1.0, 2.0, -1.0]))
    for _ in range(4):
        x = [float(v) for v in RNG.uniform(-1, 1, size=n)]
        assert ex.evaluate(div, x) == pytest.approx(want, rel=1e-12)


def test_divergence_unweighted():
    f = _field(["x1^2", "x2"], 2)
    div = oracles.divergence(f)
    x = [0.7, -0.4]
    assert ex.evaluate(div, x) == pytest.approx(2 * 0.7 + 1.0, rel=1e-12)


def test_frame_determinant():
    eu = catalog.builtin("euclidean:3")
    det = oracles.frame_determinant(eu)
    assert ex.evaluate(det, [0.3, 0.1, -0.5]) == pytest.approx(1.0)
    sph = catalog.builtin("sphere2")
    det2 = oracles.frame_determinant(sph)
    x = [0.4, -0.2]
    scale = (1 + x[0] ** 2 + x[1] ** 2) / 2
    assert ex.evaluate(det2, x) == pytest.approx(scale ** 2, rel=1e-12)


def test_aux_frame_unimodular():
    # k < n: the auxiliary frame is scaled so density * det == 1 exactly
    sys = catalog.builtin("heisenberg3")
    for _ in range(4):
        x = RNG.uniform(-1, 1, size=3)
        aux = geo.aux_frame_at(sys, x)
        det = np.linalg.det(aux.matrix)
        assert sys.density_at(x) * det == pytest.approx(1.0, rel=1e-12)


def test_structure_from_dict_errors():
    base = {"name": "t", "dim": 2, "rank": 1, "X0": ["0", "0"],
            "frame": [["1", "0"]], "Q": "0", "density": "1"}
    for drop in ("dim", "rank", "X0", "frame", "Q", "density"):
        bad = dict(base)
        del bad[drop]
        with pytest.raises(geo.GeometryError):
            geo.structure_from_dict(bad)
    bad = dict(base)
    bad["frame"] = [["1", "0"], ["0", "1"]]   # rank says 1
    with pytest.raises(geo.GeometryError):
        geo.structure_from_dict(bad)
    bad = dict(base)
    bad["X0"] = ["0"]   # wrong arity
    with pytest.raises(geo.GeometryError, match="'X0'"):
        geo.structure_from_dict(bad)
    for key, value in [("dim", "two"), ("dim", 2.7), ("rank", True),
                       ("X0", "0,0"), ("frame", [["1", 0]]),
                       ("frame", "1,0"), ("Q", 0), ("density", None)]:
        with pytest.raises(geo.GeometryError, match="'%s'" % key):
            geo.structure_from_dict(dict(base, **{key: value}))
    with pytest.raises(geo.GeometryError, match="JSON object"):
        geo.structure_from_dict([base])
    # A malformed expression stays a parse error.
    with pytest.raises(ex.ExprError):
        geo.structure_from_dict(dict(base, Q="x1 +"))


def test_load_structure_roundtrip(tmp_path):
    spec = {"name": "mart", "dim": 3, "rank": 2,
            "X0": ["0", "0", "0"],
            "frame": [["1", "0", "0"], ["0", "1", "x1^2"]],
            "Q": "0", "density": "1"}
    path = tmp_path / "mart.json"
    path.write_text(json.dumps(spec))
    sys = geo.load_structure(str(path))
    assert sys.dim == 3 and sys.rank == 2 and sys.name == "mart"
    got = sys.frame_matrix(np.array([2.0, 0.0, 0.0]))[:, 1]
    assert np.allclose(got, [0.0, 1.0, 4.0])


def test_drift_and_potential_accessors():
    sys = catalog.with_overrides(catalog.builtin("euclidean:2"),
                                 drift=["x2", "0"], potential="x1^2")
    assert np.allclose(sys.drift_at(np.array([0.0, 3.0])), [3.0, 0.0])
    fm = sys.frame_matrix(np.zeros(2))
    assert np.allclose(fm, np.eye(2))
