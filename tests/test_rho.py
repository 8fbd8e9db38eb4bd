"""The volume-dynamics invariant: Gram path, flow path, scaling laws."""

import math
import re

import numpy as np
import pytest

from geoflow import asymptotics as asym
from geoflow import catalog
from geoflow import expr as ex
from geoflow import flag as fl
from geoflow import geometry as geo
from geoflow import hamiltonian as ham
from geoflow import rho as rh

import oracles


RNG = np.random.default_rng(23)

WE3 = geo.structure_from_dict({
    "name": "weighted-r3", "dim": 3, "rank": 3,
    "X0": ["0", "0", "0"],
    "frame": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "Q": "0",
    "density": "exp(0.3*x1 - 0.2*x2 + 0.5*x3)"})
WE3_GRAD = np.array([0.3, -0.2, 0.5])


def _series(sys, x0, p0):
    geodesic = ham.Geodesic(sys, x0, p0)
    return rh.volume_series_from(geodesic, fl.flag_from(geodesic))[1]


def test_euclidean_rho_vanishes():
    sys = catalog.builtin("euclidean:3")
    for _ in range(3):
        p0 = RNG.uniform(-1, 1, size=3)
        assert abs(rh.rho(sys, np.zeros(3), p0)) < 1e-10
        assert abs(oracles.rho_flow(sys, np.zeros(3), p0)) < 1e-8


def test_weighted_euclidean_rho_is_gradient_pairing():
    for _ in range(4):
        p0 = RNG.uniform(-1, 1, size=3)
        want = float(WE3_GRAD @ p0)   # identity frame: velocity = p
        assert rh.rho(WE3, np.zeros(3), p0) == pytest.approx(want,
                                                             abs=1e-8)
        assert oracles.rho_flow(WE3, np.zeros(3), p0) == pytest.approx(want,
                                                                  abs=1e-6)
        assert _series(WE3, np.zeros(3), p0) == pytest.approx(want, abs=1e-10)


def test_weighted_euclidean_closed_field():
    field = oracles.riemannian_rho_field(WE3)
    for _ in range(4):
        x = RNG.uniform(-1, 1, size=3)
        p = RNG.uniform(-1, 1, size=3)
        want = float(WE3_GRAD @ p)
        assert field(x, p) == pytest.approx(want, rel=1e-10)


def test_closed_field_rejects_low_rank():
    with pytest.raises(rh.RhoError):
        oracles.riemannian_rho_field(catalog.builtin("heisenberg3"))


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
    # the series against the windowed odd-part fit of log r
    sys = catalog.builtin("engel")
    for _ in range(4):
        p0 = catalog.sample_covector("engel", RNG)
        a = _series(sys, np.zeros(4), p0)
        b = oracles.rho_flow(sys, np.zeros(4), p0)
        assert abs(a - b) <= 1e-5


def test_series_matches_gram_with_drift_potential_and_every_node_kind():
    h3 = catalog.builtin("heisenberg3")
    cases = [
        (catalog.with_overrides(h3, drift=["x2", "0", "0"],
                                potential="x1^2"), np.zeros(3)),
        (catalog.with_overrides(h3, drift=["0", "0", "x1*x2"],
                                potential=None), np.zeros(3)),
        (h3, np.array([0.2, -0.1, 0.4])),
        (catalog.with_overrides(catalog.builtin("sphere2"), drift=None,
                                potential="x1^2"), np.array([1.0, 0.0])),
        (geo.load_structure(oracles.NODE_KINDS), np.array([1.0, 0.0])),
        (catalog.builtin("engel"), np.array([0.3, 0.0, 0.0, 0.0])),
    ]
    rng = np.random.default_rng(43)
    for sys, x0 in cases:
        for _ in range(3):
            p0 = rng.uniform(-1, 1, size=sys.dim)
            gap = abs(_series(sys, x0, p0) - rh.rho(sys, x0, p0))
            assert gap <= 1e-10, sys.name


def test_series_holds_for_a_dimension_beyond_the_jet_order():
    # Growth (2, 3, 4, 5, 6) has N = 26 > ham.ORDER: det A's orders 26
    # and 27 still take A's coefficients only up to order 2s = 10.
    sys = geo.structure_from_dict({
        "dim": 6, "rank": 2, "X0": ["0"] * 6,
        "frame": [["1", "0", "0", "0", "0", "0"],
                  ["0", "1", "x1", "x1^2/2", "x1^3/6", "x1^4/24"]],
        "Q": "0", "density": "1"})
    x0, p0 = np.zeros(6), np.array([0.8, 0.6, 0.5, -0.4, 0.3, 0.2])
    assert fl.flag_at(sys, x0, p0).dimension == 26 > ham.ORDER
    assert abs(_series(sys, x0, p0) - rh.rho(sys, x0, p0)) <= 1e-10


def test_series_leading_term_is_the_young_constant():
    # log|c0| - (2 G(0) - 2 log m(x0)) = log C: det A's coefficient at
    # order N, with the Gram offset the fit subtracts, is the exact Young
    # diagram constant, read with no fit and no served time.
    names = ["euclidean:3", "euclidean:2:psi=0.3*x1 - x2^2", "sphere2",
             "heisenberg3", "heisenberg5:1,2", "heisenberg5:2,5", "engel"]
    for name in names:
        sys = catalog.builtin(name)
        x0 = catalog.default_base(sys)
        rng = np.random.default_rng(41)
        for _ in range(4):
            geodesic = ham.Geodesic(sys, x0, catalog.sample_covector(name,
                                                                     rng))
            flag = fl.flag_from(geodesic)
            N = flag.dimension
            terms, radius = rh._det_series(geodesic, flag)
            log_c0 = math.log(abs(terms[N])) - N * math.log(radius)
            offset = 2.0 * (rh.gram_from(geodesic, flag, [0.0])[0.0]
                            - geodesic.log_density0)
            assert log_c0 - offset == pytest.approx(
                math.log(flag.leading), abs=1e-12), name


def test_volume_change_law():
    # rho_{e^psi m} - rho_m = dpsi(x0) . xdot(0), on both paths of rho.
    cases = [
        ("heisenberg3", [0.2, -0.1, 0.4], "0.4*x2 + x1*x3"),
        ("engel", [0.3, -0.2, 0.1, 0.5], "0.4*x2 + 0.1*x4 + x1*x3"),
        ("heisenberg5:1,2", [0.1, 0.3, -0.2, 0.4, -0.1],
         "0.4*x2 + 0.1*x4 + x1*x3 - x5^2"),
    ]
    rng = np.random.default_rng(47)
    for name, x0, psi in cases:
        sys = catalog.builtin(name)
        psi = ex.parse(psi, ex.variables(sys.dim))
        weighted = geo.ControlSystem(
            dim=sys.dim, rank=sys.rank, X0=sys.X0, frame=sys.frame, Q=sys.Q,
            density=ex.Mul([sys.density, ex.Call("exp", psi)]))
        x0 = np.array(x0)
        dpsi = np.array([ex.evaluate(ex.diff(psi, i), x0)
                         for i in range(sys.dim)])
        for _ in range(3):
            p0 = catalog.sample_covector(name, rng)
            F = sys.frame_matrix(x0)
            want = float(dpsi @ (sys.drift_at(x0) + F @ (F.T @ p0)))
            for path in (rh.rho, _series):
                gap = path(weighted, x0, p0) - path(sys, x0, p0)
                assert gap == pytest.approx(want, abs=1e-10), name


def _rho_from(sys, x0, p0, times):
    flag = fl.flag_at(sys, x0, p0)
    nodes = [t for s in times for t in rh.rho_times(s)]
    gram = rh.gram_from(ham.Geodesic(sys, x0, p0), flag, nodes)
    return np.array([rh.rho_from(gram, s) for s in times])


def test_rho_from_shapes():
    sys = catalog.builtin("heisenberg3")
    p0 = np.array([1.0, 0.0, 1.0])
    single = _rho_from(sys, np.zeros(3), p0, [0.1])
    vec = _rho_from(sys, np.zeros(3), p0, [0.0, 0.1, 0.2])
    assert single.shape == (1,)
    assert len(vec) == 3
    assert vec[1] == pytest.approx(single[0], abs=1e-12)


def _choose_complement(monkeypatch, comp):
    # The completion gram_from picks at the base point and keeps.
    monkeypatch.setattr(geo, "_greedy_complement", lambda F, n, k: comp)


def test_complement_independence(monkeypatch):
    # rho is a quotient-space quantity; the complement choice cancels
    sys = catalog.builtin("engel")
    p0 = np.array([0.8, 0.6, 0.5, -0.4])
    base = rh.rho(sys, np.zeros(4), p0)
    for comp in [(2, 3), (3, 2)]:
        _choose_complement(monkeypatch, comp)
        alt = rh.rho(sys, np.zeros(4), p0)
        assert alt == pytest.approx(base, abs=1e-7)


def test_degenerate_complement_raises(monkeypatch):
    # index 0 duplicates the first frame direction at the origin
    sys = catalog.builtin("heisenberg3")
    _choose_complement(monkeypatch, (0,))
    with pytest.raises(geo.GeometryError):
        rh.rho(sys, np.zeros(3), np.array([1.0, 0.0, 1.0]))


def test_g_rel_linear_for_constant_rho():
    p0 = np.array([1.0, 0.0, 0.0])
    ts = np.array([0.05, 0.1, 0.2, 0.3])
    g = oracles.g_rel(WE3, np.zeros(3), p0, list(ts))
    assert np.allclose(g, 0.3 * ts, atol=1e-9)


def test_g_rel_consistent_with_rho_from():
    # d/dt g_rel = rho(lambda(t)) by central differences
    sys = catalog.builtin("engel")
    p0 = np.array([0.8, 0.6, 0.5, -0.4])
    t, h = 0.1, 1e-3
    g = oracles.g_rel(sys, np.zeros(4), p0, [t - h, t + h])
    slope = (g[1] - g[0]) / (2 * h)
    spot = _rho_from(sys, np.zeros(4), p0, [t])[0]
    assert slope == pytest.approx(spot, abs=1e-7)


def test_gram_dets_positive_and_unimodular():
    sys = catalog.builtin("heisenberg3")
    p0 = np.array([1.0, 0.0, 1.0])
    flag = fl.flag_at(sys, np.zeros(3), p0)
    [(_, columns)] = fl._growth_profile(ham.Geodesic(sys, np.zeros(3), p0),
                                        [0.0], sys.dim + 2)
    aux = geo.aux_frame_at(sys, np.zeros(3))
    # a stack of one point
    (logs,) = rh._gram_log_of_levels(
        aux.matrix[None], flag.raw_ranks, [C[None] for C in columns])
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
           "g_rel": lambda: oracles.g_rel(sys, x0, p0, 0.1),
           "fit_expansion": lambda: asym.fit_expansion(sys, x0, p0)}[stage]
    with pytest.raises(rh.RhoError, match=re.escape(
            "growth vector changed along the flow: (2, 3) versus"
            " (2, 2, 3)")):
        run()


def test_scaling_checks_weighted():
    p0 = np.array([0.6, -0.8, 0.2])
    out = oracles.scaling_checks(WE3, np.zeros(3), p0, [0.5, 2.0, 3.0])
    assert out["rho_rel"] <= 1e-6
    assert out["g_abs"] <= 1e-5
    assert out["rho_base"] == pytest.approx(float(WE3_GRAD @ p0), abs=1e-8)


def test_scaling_checks_reject_a_potential_that_vanishes_at_a_point():
    # x1 - 0.1 is zero wherever x1 = 0.1, so a check at single points can
    # miss it; the potential is not zero as an expression.
    sys = catalog.with_overrides(catalog.builtin("heisenberg3"),
                                 potential="x1 - 0.1")
    with pytest.raises(rh.RhoError, match="no drift and no potential"):
        oracles.scaling_checks(sys, np.zeros(3), np.array([0.6, 0.8, 1.1]),
                          [0.5, 2.0, 3.0])


def test_scaling_checks_contact():
    sys = catalog.builtin("heisenberg5:1,2")
    p0 = np.array([0.5, -0.4, 0.6, 0.3, 1.1])
    out = oracles.scaling_checks(sys, np.zeros(5), p0, [0.5, 2.0, 3.0])
    assert out["rho_rel"] <= 1e-6
    assert out["g_abs"] <= 1e-5


def test_divergence_check_weighted():
    chk = oracles.riemannian_divergence_check(WE3, np.zeros(3),
                                         np.array([0.6, -0.8, 0.2]))
    assert chk["gap"] == pytest.approx(0.0, abs=1e-9)
    assert chk["div_vol"] == pytest.approx(0.0, abs=1e-9)
    assert chk["rho"] == pytest.approx(float(WE3_GRAD @ [0.6, -0.8, 0.2]),
                                       abs=1e-9)


def test_divergence_check_sphere():
    sys = catalog.builtin("sphere2")
    chk = oracles.riemannian_divergence_check(sys, np.array([1.0, 0.0]),
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
        oracles.g_rel(sys, np.zeros(4), p0, [0.1])
    assert calls == []


def test_scaling_checks_one_flag_and_geodesic_per_covector(monkeypatch):
    flags, geodesics = [], []
    flag_from, transition_many = fl.flag_from, ham.transition_many

    def counted_flag(*args, **kwargs):
        flags.append(args)
        return flag_from(*args, **kwargs)

    def counted_transitions(*args, **kwargs):
        geodesics.append(args)
        return transition_many(*args, **kwargs)

    monkeypatch.setattr(fl, "flag_from", counted_flag)
    monkeypatch.setattr(ham, "transition_many", counted_transitions)
    sys = catalog.builtin("heisenberg3")
    oracles.scaling_checks(sys, np.zeros(3), np.array([0.6, 0.8, 1.1]),
                      [0.5, 2.0, 3.0])
    # the base covector and its three multiples
    assert len(flags) == 4
    assert len(geodesics) == 4
