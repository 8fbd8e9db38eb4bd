"""Flows, conservation, variational equations, volume ratios."""

import math

import numpy as np
import pytest

from geoflow import asymptotics as asym
from geoflow import catalog
from geoflow import geometry as geo
from geoflow import hamiltonian as ham
from geoflow import rho as rh

import oracles


RNG = np.random.default_rng(11)


def test_euclidean_flow_is_straight_line():
    sys = catalog.builtin("euclidean:3")
    p0 = np.array([0.4, -1.1, 0.3])
    x, p = oracles.flow(sys, np.zeros(3), p0, 0.8)
    assert np.allclose(x, 0.8 * p0, atol=1e-12)
    assert np.allclose(p, p0, atol=1e-12)
    assert ham.energy_at(sys, x, p) == pytest.approx(0.5 * float(p0 @ p0),
                                                     rel=1e-12)


def test_heisenberg_closed_form():
    # p0 = (1, 0, c): controls rotate at rate c,
    # x1 = sin(ct)/c, x2 = (1 - cos(ct))/c, x3 = (ct - sin(ct))/(2 c^2)
    sys = catalog.builtin("heisenberg3")
    c = 1.7
    p0 = np.array([1.0, 0.0, c])
    for t in (0.3, 0.9, 2.0):
        x, _ = oracles.flow(sys, np.zeros(3), p0, t)
        want = [math.sin(c * t) / c,
                (1 - math.cos(c * t)) / c,
                (c * t - math.sin(c * t)) / (2 * c * c)]
        assert np.allclose(x, want, atol=1e-9)


def test_energy_conservation_on_engel():
    sys = catalog.builtin("engel")
    for _ in range(5):
        p0 = RNG.uniform(-1, 1, size=4)
        x, p = oracles.flow(sys, np.zeros(4), p0, 1.0)
        drift = ham.energy_at(sys, x, p) - ham.energy_at(sys, np.zeros(4), p0)
        assert abs(drift) < 1e-10


def test_flow_reversibility():
    sys = catalog.builtin("heisenberg3")
    p0 = np.array([0.8, 0.5, -1.2])
    mid_x, mid_p = oracles.flow(sys, np.zeros(3), p0, 0.7)
    back_x, back_p = oracles.flow(sys, mid_x, mid_p, -0.7)
    assert np.allclose(back_x, 0.0, atol=1e-10)
    assert np.allclose(back_p, p0, atol=1e-10)


def test_negative_time_flow():
    sys = catalog.builtin("euclidean:2")
    p0 = np.array([1.0, 2.0])
    x, _ = oracles.flow(sys, np.zeros(2), p0, -0.5)
    assert np.allclose(x, -0.5 * p0, atol=1e-12)


def test_geodesic_matches_flow():
    # A geodesic serves any time, also one asked for after the others.
    sys = catalog.builtin("engel")
    p0 = np.array([0.9, 0.6, 0.4, -0.3])
    times = [0.1, 0.25, 0.5, 0.3]
    singles = [oracles.flow(sys, np.zeros(4), p0, t) for t in times]
    geodesic = ham.Geodesic(sys, np.zeros(4), p0)
    xs, ps, _ = geodesic.at(times[:3])
    x3, p3, _ = geodesic.at(times[3:])
    for (x, p), many_x, many_p in zip(singles, np.vstack([xs, x3]),
                                      np.vstack([ps, p3])):
        assert np.allclose(x, many_x, atol=1e-11)
        assert np.allclose(p, many_p, atol=1e-11)


def test_batching_does_not_change_what_a_geodesic_serves(monkeypatch):
    # Served in any split and order of `at` calls, both signs and times
    # several jets out included, a geodesic returns the same states bit
    # for bit as from one call over their union, and computes the same
    # jets, each once.
    sys = catalog.builtin("engel")
    p0 = np.array([0.8, 0.6, 0.5, -0.4])
    times = [-1.0, -0.55, -0.3, -0.02, 0.0, 0.02, 0.1, 0.35, 0.5, 0.75, 1.0]
    jets = []
    inner = ham._jet

    def counted(sys, z, M, t, tol):
        jets.append(t)
        return inner(sys, z, M, t, tol)

    monkeypatch.setattr(ham, "_jet", counted)
    whole = ham.Geodesic(sys, np.zeros(4), p0).at(times)
    union_jets = sorted(jets)
    assert min(union_jets) < 0 < max(union_jets)
    rng = np.random.default_rng(5)
    splits = [[times[::-1]], [[t] for t in times[::-1]],
              [times[6:], times[:6]], [[1.0], [-1.0], times],
              [[0.5, -0.02], [0.02, 1.0, -1.0], times[::2]]]
    for _ in range(4):
        order = [times[i] for i in rng.permutation(len(times))]
        cuts = sorted(rng.choice(np.arange(1, len(times)), 3, replace=False))
        splits.append(np.split(np.array(order), cuts))
    for split in splits:
        jets.clear()
        geodesic = ham.Geodesic(sys, np.zeros(4), p0)
        for batch in split:
            geodesic.at(batch)
        for got, want in zip(geodesic.at(times), whole):
            assert np.array_equal(got, want), split
        assert sorted(jets) == union_jets, split


def test_dense_output_matches_step_ended_transitions():
    # The geodesic serves all of an analyze's times from one call; a
    # single-time transition serves that time alone.
    sys = catalog.builtin("engel")
    x0 = np.zeros(4)
    p0 = np.array([0.9, 0.6, 0.4, -0.3])
    # the growth checks, rho's nodes and the fit of one analyze_report
    # with its default settings, and the times of two test references:
    # the mirrored grid of oracles.rho_flow_from and the decade of
    # oracles.exponent_probe_from
    flow_grid = list(np.geomspace(3e-2, 1.5e-1, 20))
    times = ([0.05, 0.1, 0.15, 0.2] + rh.rho_times() + flow_grid
             + [-t for t in flow_grid] + asym.fit_times()
             + list(np.geomspace(1e-3, 1e-2, 9)))
    geodesic = ham.Geodesic(sys, x0, p0)
    interior = sorted({t for t in times if 1e-3 <= abs(t) <= 0.15})
    assert min(interior) < 0 < max(interior)
    _, _, stack = geodesic.at(times)
    stack = stack[[times.index(t) for t in interior]]
    for t, many in zip(interior, stack):
        _, _, one = oracles.transition(sys, x0, p0, t)
        assert np.allclose(many, one, rtol=0.0, atol=1e-11), t
        sign_many, ld_many = ham.signed_log_det(ham.vertical_jacobian(many, 4))
        sign_one, ld_one = ham.signed_log_det(ham.vertical_jacobian(one, 4))
        assert sign_many == sign_one
        assert abs(ld_many - ld_one) <= 1e-5, t


def test_potential_projectile():
    # H = p^2/2 + x/2 on R: xdot = p, pdot = -1/2
    sys = catalog.with_overrides(catalog.builtin("euclidean:1"),
                                 potential="x1")
    p0 = np.array([1.0])
    for t in (0.4, 1.0):
        x, p = oracles.flow(sys, np.zeros(1), p0, t)
        assert x[0] == pytest.approx(t - t * t / 4, rel=1e-10)
        assert p[0] == pytest.approx(1 - t / 2, rel=1e-10)


def test_drift_translation():
    sys = catalog.with_overrides(catalog.builtin("euclidean:2"),
                                 drift=["1", "0"])
    x, _ = oracles.flow(sys, np.zeros(2), np.zeros(2), 0.6)
    assert np.allclose(x, [0.6, 0.0], atol=1e-12)


def test_transition_matches_finite_differences():
    cases = [
        (catalog.builtin("heisenberg3"), np.zeros(3),
         np.array([0.7, -0.4, 0.9])),
        (geo.load_structure(oracles.NODE_KINDS), np.array([1.0, 0.0]),
         np.array([0.6, 0.8])),
    ]
    t = 0.5
    h = 1e-6
    for sys, x0, p0 in cases:
        _, _, M = oracles.transition(sys, x0, p0, t)
        n = sys.dim
        for j in range(2 * n):
            dz = np.zeros(2 * n)
            dz[j] = h
            up = oracles.flow(sys, x0 + dz[:n], p0 + dz[n:], t)
            dn = oracles.flow(sys, x0 - dz[:n], p0 - dz[n:], t)
            col = (np.concatenate(up) - np.concatenate(dn)) / (2 * h)
            assert np.allclose(M[:, j], col, atol=5e-6), sys.name


def test_vertical_jacobian_euclidean():
    sys = catalog.builtin("euclidean:3")
    t = 0.37
    _, _, M = oracles.transition(sys, np.zeros(3), np.array([1.0, 0.0, 0.0]), t)
    J = ham.vertical_jacobian(M, 3)
    assert np.allclose(J, t * np.eye(3), atol=1e-11)


def test_volume_ratio_euclidean_power():
    sys = catalog.builtin("euclidean:2")
    p0 = np.array([0.6, -0.8])
    for t in (0.05, 0.3, 1.0):
        r = math.exp(rh.log_volume_ratios(sys, np.zeros(2), p0, [t])[0])
        assert r == pytest.approx(t * t, rel=1e-10)
    lr = rh.log_volume_ratios(sys, np.zeros(2), p0, [0.2])[0]
    assert lr == pytest.approx(2 * math.log(0.2), rel=1e-10)


def test_signed_log_det():
    sign, logdet = ham.signed_log_det(np.diag([2.0, -3.0]))
    assert sign == -1.0
    assert logdet == pytest.approx(math.log(6.0), rel=1e-12)
    # A stack: each entry is the one-matrix value, bit for bit, including
    # a zero row and a singular matrix without one.
    graded = np.array([[1e-9, 2e-7], [-3e-4, 5.0]])
    stack = np.array([graded, np.diag([2.0, -3.0]), [[1.0, 2.0], [0.0, 0.0]],
                      [[1.0, 2.0], [2.0, 4.0]]])
    signs, logdets = ham.signed_log_det(stack)
    assert signs.shape == logdets.shape == (4,)
    for A, sign, logdet in zip(stack, signs, logdets):
        assert (sign, logdet) == ham.signed_log_det(A)
    assert (signs[2], logdets[2]) == (0.0, -math.inf)
    assert (signs[3], logdets[3]) == (0.0, -math.inf)


def test_blowup_raises(monkeypatch):
    # x = 1/(1 - t): the jets' steps shrink with the distance to the pole.
    sys = catalog.with_overrides(catalog.builtin("euclidean:1"),
                                 drift=["x1^2"])
    jets = []
    inner = ham._jet

    def counted(*args):
        jets.append(args)
        return inner(*args)

    monkeypatch.setattr(ham, "_jet", counted)
    with pytest.raises(ham.IntegrationError) as err:
        oracles.flow(sys, np.array([1.0]), np.zeros(1), 2.0)
    assert 0.99 < err.value.t_last <= 1.0
    assert len(jets) <= 200


@pytest.mark.parametrize("case", [
    "euclidean:3", "euclidean:2:psi=0.3*x1 - x2^2", "sphere2", "heisenberg3",
    "heisenberg5:1,2", "engel", "node-kinds", "heisenberg3+drift"])
def test_jacobian_from_the_hessian_triangle(case):
    # The flow's evaluator takes the m(m+1)/2 entries of the Hessian's
    # upper triangle; the Jacobian _jet rebuilds from them is the one
    # differentiated entry by entry, at every order of the jet at t = 0.
    if case == "node-kinds":
        sys = geo.load_structure(oracles.NODE_KINDS)
        x0, p0 = np.array([1.0, 0.0]), np.array([0.6, 0.8])
    elif case == "heisenberg3+drift":
        sys = catalog.with_overrides(catalog.builtin("heisenberg3"),
                                     drift=["x2", "0", "0"],
                                     potential="x1^2")
        x0, p0 = np.array([0.2, -0.1, 0.4]), np.array([0.6, 0.8, 1.1])
    else:
        sys = catalog.builtin(case)
        x0 = catalog.default_base(sys) + RNG.uniform(-0.3, 0.3, sys.dim)
        p0 = catalog.sample_covector(case, RNG)
    z = np.concatenate([x0, p0])
    m = z.size
    Z, E = ham._taylor_fn(sys)(z, ham.ORDER)
    assert E.shape == (ham.ORDER, m * (m + 1) // 2)
    want_Z, want = oracles.full_jacobian_fn(sys)(z, ham.ORDER)
    assert np.array_equal(Z, want_Z)
    index, sign = ham._hessian_table(m)
    got = E[:, index] * sign
    scale = np.max(np.abs(want), axis=1)
    assert np.all(np.abs(got - want) <= 1e-14 * scale[:, None])
    assert np.any(scale > 0.0)


def test_taylor_coefficients_match_lie_derivatives():
    # Every node kind of the field: its jet's coefficients are the
    # symbolic Lie derivatives L_F^k z / k!.
    sys = geo.load_structure(oracles.NODE_KINDS)
    x0, p0 = np.array([1.0, 0.0]), np.array([0.6, 0.8])
    want = oracles.lie_series(sys, x0, p0, 5)
    Z, _ = ham._taylor_fn(sys)(np.concatenate([x0, p0]), 5)
    assert np.all(np.abs(Z - want) <= 1e-12 * np.abs(want))


def test_flow_leaving_the_domain_raises():
    # x1 reaches 0, where the drift's log(x1) is undefined.
    sys = geo.load_structure(oracles.NODE_KINDS)
    with pytest.raises(ham.IntegrationError) as err:
        ham.transition_many(sys, np.array([0.05, 0.0]), np.array([-1.0, 0.3]),
                            [0.01, 0.2])
    assert 0.01 < err.value.t_last < 0.05


def test_energy_drift_raises_at_the_first_drifting_time(monkeypatch):
    # The energy is read at t = 0 and then at each time in order; from
    # t = 1.0 on it leaves ENERGY_SLACK.
    sys = catalog.builtin("engel")
    p0 = np.array([0.8, 0.6, 0.5, -0.4])
    ham.energy_at(sys, np.zeros(4), p0)
    energy = sys._cache["ham_fn"]
    calls = []

    def drifting_from_third(values):
        # One call per batch of times: count its covectors, one per row.
        out = energy(values)
        start = len(calls)
        calls.extend(np.reshape(values, (-1, 8)))
        drifting = np.arange(start, len(calls)) >= 2
        return out + np.where(drifting, 1e-6, 0.0).reshape(out.shape)

    monkeypatch.setitem(sys._cache, "ham_fn", drifting_from_third)
    with pytest.raises(ham.IntegrationError,
                       match=r"energy drifted by .* at t=1\.0") as err:
        ham.transition_many(sys, np.zeros(4), p0, [0.5, 1.0, 2.0])
    assert err.value.t_last == 1.0


def test_non_finite_energy_raises(monkeypatch):
    # An energy that turns NaN along the flow is within no slack of the
    # start's, and is reported as not finite, not as a drift.
    sys = catalog.builtin("heisenberg3")
    p0 = np.array([0.7, -0.4, 0.9])
    ham.energy_at(sys, np.zeros(3), p0)
    energy = sys._cache["ham_fn"]
    calls = []

    def nan_after_first(values):
        calls.append(values)
        out = energy(values)
        return out if len(calls) == 1 else np.full_like(out, np.nan)

    monkeypatch.setitem(sys._cache, "ham_fn", nan_after_first)
    with pytest.raises(ham.IntegrationError,
                       match=r"^energy is not finite at t=0\.5$"):
        ham.transition_many(sys, np.zeros(3), p0, [0.5])


def test_non_finite_start_energy_raises_at_zero():
    # The start's energy overflows: the geodesic is refused before any
    # jet, at t = 0, with an energy that is not finite.
    sys = catalog.builtin("heisenberg3")
    with pytest.raises(ham.IntegrationError,
                       match=r"^energy is not finite at t=0\.0$") as err:
        ham.Geodesic(sys, np.zeros(3), np.array([1e200, 0.0, 1.0]))
    assert err.value.t_last == 0.0


def test_tolerance_tightening_converges():
    sys = catalog.builtin("engel")
    p0 = np.array([0.8, 0.6, 0.5, -0.4])
    loose, _, _ = ham.Geodesic(sys, np.zeros(4), p0, tol=1e-6).at([1.0])
    tight, _, _ = ham.Geodesic(sys, np.zeros(4), p0, tol=1e-12).at([1.0])
    assert np.allclose(loose, tight, atol=1e-4)
