"""Builtin catalog: spec-string parsing, default bases, and the generic
covector samplers."""

import numpy as np
import pytest

import geoflow.catalog as cat
import geoflow.expr as ex
import geoflow.flag as fl
import geoflow.geometry as geo
import geoflow.hamiltonian as ham


def test_builtin_dimensions_and_ranks():
    table = [
        ("euclidean:2", 2, 2),
        ("euclidean:3", 3, 3),
        ("sphere2", 2, 2),
        ("heisenberg3", 3, 2),
        ("heisenberg5:1,2", 5, 4),
        ("engel", 4, 2),
    ]
    for name, dim, rank in table:
        sys = cat.builtin(name)
        assert sys.dim == dim, name
        assert sys.rank == rank, name
        assert len(sys.frame) == rank, name


def test_euclidean_weight_parsing():
    flat = cat.builtin("euclidean:2")
    weighted = cat.builtin("euclidean:2:psi=x1 + 2*x2")
    x = [0.3, -0.1]
    assert ex.evaluate(flat.density, x) == pytest.approx(1.0)
    assert ex.evaluate(weighted.density, x) == pytest.approx(
        np.exp(0.3 - 0.2))
    # the weight changes the density only, never the frame
    assert np.allclose(flat.frame_matrix(x), weighted.frame_matrix(x))


def test_builtin_error_messages():
    bad = [
        "nosuchspace",
        "euclidean",
        "euclidean:0",
        "euclidean:two",
        "euclidean:2:weight=x1",
        "heisenberg5",
        "heisenberg5:1",
        "heisenberg5:0,1",
        "heisenberg5:1,0",
    ]
    for name in bad:
        with pytest.raises(geo.GeometryError):
            cat.builtin(name)


def test_default_base_is_chart_origin():
    for name in ["euclidean:3", "sphere2", "heisenberg3",
                 "heisenberg5:1,2", "engel"]:
        sys = cat.builtin(name)
        base = cat.default_base(sys)
        assert base.shape == (sys.dim,)
        assert np.all(base == 0.0)


def test_sampled_covectors_carry_unit_energy():
    rng = np.random.default_rng(7)
    for name in ["euclidean:3", "sphere2", "heisenberg3",
                 "heisenberg5:1,2", "engel"]:
        sys = cat.builtin(name)
        base = cat.default_base(sys)
        for _ in range(10):
            p = cat.sample_covector(name, rng)
            assert p.shape == (sys.dim,)
            assert ham.energy_at(sys, base, p) == pytest.approx(
                0.5, abs=1e-12), name


def test_sampler_floors_avoid_degenerate_strata():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = cat.sample_covector("engel", rng)
        assert abs(p[0]) >= 0.4
        assert 0.2 <= abs(p[2]) <= 0.8
        assert 0.2 <= abs(p[3]) <= 0.8
    for _ in range(50):
        p = cat.sample_covector("heisenberg5:1,2", rng)
        assert np.hypot(p[0], p[1]) >= 0.2
        assert np.hypot(p[2], p[3]) >= 0.2
        assert 0.3 <= abs(p[4]) <= 1.5
    for _ in range(50):
        p = cat.sample_covector("heisenberg3", rng)
        assert 0.3 <= abs(p[2]) <= 1.5


def test_sampler_rejects_unknown_names():
    rng = np.random.default_rng(3)
    with pytest.raises(geo.GeometryError):
        cat.sample_covector("martinet", rng)
    with pytest.raises(geo.GeometryError):
        cat.sample_covector("euclidean", rng)


def test_sampled_covectors_are_ample_on_builtins():
    """Every draw from the sampler must land in the ample stratum; that
    is the whole point of the floors."""
    rng = np.random.default_rng(19)
    for name in ["heisenberg3", "heisenberg5:1,2", "engel"]:
        sys = cat.builtin(name)
        base = cat.default_base(sys)
        for _ in range(8):
            p = cat.sample_covector(name, rng)
            assert fl.flag_at(sys, base, p).ample, name


def test_with_overrides_builds_a_fresh_system():
    sys = cat.builtin("heisenberg3")
    x = np.array([0.2, -0.1, 0.4])
    changed = cat.with_overrides(sys, drift=["x2", "0", "0"],
                                 potential="x1^2")
    assert np.allclose(sys.drift_at(x), 0.0)
    assert np.allclose(changed.drift_at(x), [-0.1, 0.0, 0.0])
    assert ex.evaluate(sys.Q, list(x)) == 0.0
    assert ex.evaluate(changed.Q, list(x)) == pytest.approx(0.04)
    # frame and density are shared content-wise but the flag caches not
    assert changed.dim == sys.dim and changed.rank == sys.rank


def test_martinet_is_available_as_an_explicit_structure():
    sys = cat.martinet()
    assert sys.dim == 3 and sys.rank == 2
    flag = fl.flag_at(sys, np.zeros(3), np.array([1.0, 1.0, 0.7]))
    assert flag.growth == (2, 2, 3)
    assert flag.ample


def test_catalog_listing_matches_names():
    rows = cat.list_builtins()
    names = [row[0] for row in rows]
    assert names == ["euclidean:n[:psi=<expr>]", "sphere2", "heisenberg3",
                     "heisenberg5:a1,a2", "engel"]
    assert all(len(row) == 2 and row[1] for row in rows)
    assert "heisenberg3" in names
