"""The volume-dynamics invariant: Gram path, flow path, scaling laws."""

import math
import re

import numpy as np
import pytest

from geoflow import asymptotics as asym
from geoflow import catalog
from geoflow import flag as fl
from geoflow import geometry as geo
from geoflow import hamiltonian as ham
from geoflow import rho as rh


RNG = np.random.default_rng(23)

WE3 = geo.structure_from_dict({
    "name": "weighted-r3", "dim": 3, "rank": 3,
    "X0": ["0", "0", "0"],
    "frame": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "Q": "0",
    "density": "exp(0.3*x1 - 0.2*x2 + 0.5*x3)"})
WE3_GRAD = np.array([0.3, -0.2, 0.5])


def test_euclidean_rho_vanishes():
    sys = catalog.builtin("euclidean:3")
    for _ in range(3):
        p0 = RNG.uniform(-1, 1, size=3)
        assert abs(rh.rho(sys, np.zeros(3), p0)) < 1e-10
        assert abs(rh.rho_flow(sys, np.zeros(3), p0)) < 1e-8


def test_weighted_euclidean_rho_is_gradient_pairing():
    for _ in range(4):
        p0 = RNG.uniform(-1, 1, size=3)
        want = float(WE3_GRAD @ p0)   # identity frame: velocity = p
        assert rh.rho(WE3, np.zeros(3), p0) == pytest.approx(want,
                                                             abs=1e-8)
        assert rh.rho_flow(WE3, np.zeros(3), p0) == pytest.approx(want,
                                                                  abs=1e-6)


def test_weighted_euclidean_closed_field():
    field = rh.riemannian_rho_field(WE3)
    for _ in range(4):
        x = RNG.uniform(-1, 1, size=3)
        p = RNG.uniform(-1, 1, size=3)
        want = float(WE3_GRAD @ p)
        assert field(x, p) == pytest.approx(want, rel=1e-10)


def test_closed_field_rejects_low_rank():
    with pytest.raises(rh.RhoError):
        rh.riemannian_rho_field(catalog.builtin("heisenberg3"))


def test_contact_rho_vanishes():
    for name in ("heisenberg3", "heisenberg5:1,2"):
        sys = catalog.builtin(name)
        for _ in range(3):
            p0 = catalog.sample_covector(name, RNG)
            assert abs(rh.rho(sys, np.zeros(sys.dim), p0)) < 1e-9


def test_sphere_rho_vanishes():
    sys = catalog.builtin("sphere2")
    p0 = np.array([0.0, 2.0])
    assert abs(rh.rho(sys, np.array([1.0, 0.0]), p0)) < 1e-9


def test_two_paths_agree_on_engel():
    sys = catalog.builtin("engel")
    for _ in range(4):
        p0 = catalog.sample_covector("engel", RNG)
        a = rh.rho(sys, np.zeros(4), p0)
        b = rh.rho_flow(sys, np.zeros(4), p0)
        assert abs(a - b) <= 1e-5


def _rho_from(sys, x0, p0, times):
    flag = fl.flag_at(sys, x0, p0)
    geodesic = ham.Geodesic(sys, x0, p0, rh.rho_times(times))
    return rh.rho_from(geodesic, flag, times)


def test_rho_from_shapes():
    sys = catalog.builtin("heisenberg3")
    p0 = np.array([1.0, 0.0, 1.0])
    single = _rho_from(sys, np.zeros(3), p0, [0.1])
    vec = _rho_from(sys, np.zeros(3), p0, [0.0, 0.1, 0.2])
    assert single.shape == (1,)
    assert len(vec) == 3
    assert vec[1] == pytest.approx(single[0], abs=1e-12)


def test_complement_independence():
    # rho is a quotient-space quantity; the complement choice cancels
    sys = catalog.builtin("engel")
    p0 = np.array([0.8, 0.6, 0.5, -0.4])
    base = rh.rho(sys, np.zeros(4), p0)
    for comp in [(2, 3), (3, 2)]:
        alt = rh.rho(sys, np.zeros(4), p0, complement=comp)
        assert alt == pytest.approx(base, abs=1e-7)


def test_degenerate_complement_raises():
    # index 0 duplicates the first frame direction at the origin
    sys = catalog.builtin("heisenberg3")
    with pytest.raises(geo.GeometryError):
        rh.rho(sys, np.zeros(3), np.array([1.0, 0.0, 1.0]),
               complement=(0,))


def test_g_rel_linear_for_constant_rho():
    p0 = np.array([1.0, 0.0, 0.0])
    ts = np.array([0.05, 0.1, 0.2, 0.3])
    g = rh.g_rel(WE3, np.zeros(3), p0, list(ts))
    assert np.allclose(g, 0.3 * ts, atol=1e-9)


def test_g_rel_consistent_with_rho_from():
    # d/dt g_rel = rho(lambda(t)) by central differences
    sys = catalog.builtin("engel")
    p0 = np.array([0.8, 0.6, 0.5, -0.4])
    t, h = 0.1, 1e-3
    g = rh.g_rel(sys, np.zeros(4), p0, [t - h, t + h])
    slope = (g[1] - g[0]) / (2 * h)
    spot = _rho_from(sys, np.zeros(4), p0, [t])[0]
    assert slope == pytest.approx(spot, abs=1e-7)


def test_gram_dets_positive_and_unimodular():
    sys = catalog.builtin("heisenberg3")
    flag = fl.flag_at(sys, np.zeros(3), np.array([1.0, 0.0, 1.0]))
    aux = geo.aux_frame_at(sys, np.zeros(3))
    # a stack of one point
    (logs,) = rh._gram_log_of_levels(
        aux.matrix[None], flag.raw_ranks,
        [C[None] for C in flag.bracket_columns])
    dets = [math.exp(v) for v in logs]
    assert len(dets) == 2
    assert all(d > 0 for d in dets)
    # k < n normalization: the first Gram determinant is exactly 1
    assert dets[0] == pytest.approx(1.0, rel=1e-12)


def test_gram_singular_level_raises_first_point():
    # A level whose columns project to zero has a singular Gram matrix.
    # In a stack the first such point raises, at its own first singular
    # level, as a point-by-point pass would.
    e = np.eye(3)
    good = [e[:, :2], e[:, 2:] @ np.ones((1, 2))]
    late = [e[:, :2], np.zeros((3, 2))]
    early = [np.zeros((3, 2)), e[:, 1:]]

    def gram(*points):
        return rh._gram_log_of_levels(
            np.array([e] * len(points)), (2, 3),
            [np.array(level) for level in zip(*points)])

    logs = gram(good)
    assert logs.shape == (1, 2)
    assert logs[0, 1] == pytest.approx(math.log(2.0), rel=1e-12)
    with pytest.raises(rh.RhoError, match="level 2 Gram matrix"):
        gram(good, late, early)
    with pytest.raises(rh.RhoError, match="level 1 Gram matrix"):
        gram(good, early, late)


@pytest.mark.parametrize("stage", ["rho", "g_rel", "fit_expansion"])
def test_growth_change_along_the_flow_raises(stage):
    # The martinet flag pauses at the origin, (2, 2, 3), and closes at
    # (2, 3) off it; the Gram pipeline compares no levels across profiles.
    sys = catalog.martinet()
    x0, p0 = np.zeros(3), np.array([1.0, 0.3, 0.2])
    run = {"rho": lambda: rh.rho(sys, x0, p0),
           "g_rel": lambda: rh.g_rel(sys, x0, p0, 0.1),
           "fit_expansion": lambda: asym.fit_expansion(sys, x0, p0)}[stage]
    with pytest.raises(rh.RhoError, match=re.escape(
            "growth vector changed along the flow: (2, 3) versus"
            " (2, 2, 3)")):
        run()


def test_scaling_checks_weighted():
    p0 = np.array([0.6, -0.8, 0.2])
    out = rh.scaling_checks(WE3, np.zeros(3), p0, [0.5, 2.0, 3.0])
    assert out["rho_rel"] <= 1e-6
    assert out["g_abs"] <= 1e-5
    assert out["rho_base"] == pytest.approx(float(WE3_GRAD @ p0), abs=1e-8)


def test_scaling_checks_reject_a_potential_that_vanishes_at_a_point():
    # x1 - 0.1 is zero wherever x1 = 0.1, so a check at single points can
    # miss it; the potential is not zero as an expression.
    sys = catalog.with_overrides(catalog.builtin("heisenberg3"),
                                 potential="x1 - 0.1")
    with pytest.raises(rh.RhoError, match="no drift and no potential"):
        rh.scaling_checks(sys, np.zeros(3), np.array([0.6, 0.8, 1.1]),
                          [0.5, 2.0, 3.0])


def test_scaling_checks_contact():
    sys = catalog.builtin("heisenberg5:1,2")
    p0 = np.array([0.5, -0.4, 0.6, 0.3, 1.1])
    out = rh.scaling_checks(sys, np.zeros(5), p0, [0.5, 2.0, 3.0])
    assert out["rho_rel"] <= 1e-6
    assert out["g_abs"] <= 1e-5


def test_divergence_check_weighted():
    chk = rh.riemannian_divergence_check(WE3, np.zeros(3),
                                         np.array([0.6, -0.8, 0.2]))
    assert chk["gap"] == pytest.approx(0.0, abs=1e-9)
    assert chk["div_vol"] == pytest.approx(0.0, abs=1e-9)
    assert chk["rho"] == pytest.approx(float(WE3_GRAD @ [0.6, -0.8, 0.2]),
                                       abs=1e-9)


def test_divergence_check_sphere():
    sys = catalog.builtin("sphere2")
    chk = rh.riemannian_divergence_check(sys, np.array([1.0, 0.0]),
                                         np.array([0.0, 2.0]))
    assert chk["gap"] == pytest.approx(0.0, abs=1e-8)
    assert chk["rho"] == pytest.approx(0.0, abs=1e-8)


def test_log_volume_ratios_mixed_signs():
    sys = catalog.builtin("heisenberg3")
    p0 = np.array([1.0, 0.0, 1.0])
    ys = rh.log_volume_ratios(sys, np.zeros(3), p0, [0.1, -0.1])
    # reversing time flips the covector; the ratio is even here
    assert ys[0] == pytest.approx(ys[1], abs=1e-9)


def test_non_ample_covector_rejected_before_integrating(monkeypatch):
    calls = []
    inner = ham.transition_many

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(ham, "transition_many", counted)
    sys = catalog.builtin("engel")
    p0 = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(rh.RhoError, match="the flag is not ample"):
        rh.rho(sys, np.zeros(4), p0)
    with pytest.raises(rh.RhoError, match="the flag is not ample"):
        rh.g_rel(sys, np.zeros(4), p0, [0.1])
    assert calls == []


def test_scaling_checks_one_flag_and_geodesic_per_covector(monkeypatch):
    flags, geodesics = [], []
    flag_at, transition_many = fl.flag_at, ham.transition_many

    def counted_flag(*args, **kwargs):
        flags.append(args)
        return flag_at(*args, **kwargs)

    def counted_transitions(*args, **kwargs):
        geodesics.append(args)
        return transition_many(*args, **kwargs)

    monkeypatch.setattr(fl, "flag_at", counted_flag)
    monkeypatch.setattr(ham, "transition_many", counted_transitions)
    sys = catalog.builtin("heisenberg3")
    rh.scaling_checks(sys, np.zeros(3), np.array([0.6, 0.8, 1.1]),
                      [0.5, 2.0, 3.0])
    # the base covector and its three multiples
    assert len(flags) == 4
    assert len(geodesics) == 4
