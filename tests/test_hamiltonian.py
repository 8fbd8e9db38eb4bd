"""Flows, conservation, variational equations, volume ratios."""

import math

import numpy as np
import pytest

from geoflow import asymptotics as asym
from geoflow import catalog
from geoflow import flag as fl
from geoflow import hamiltonian as ham
from geoflow import rho as rh


RNG = np.random.default_rng(11)


def test_euclidean_flow_is_straight_line():
    sys = catalog.builtin("euclidean:3")
    p0 = np.array([0.4, -1.1, 0.3])
    s = ham.flow(sys, np.zeros(3), p0, 0.8)
    assert np.allclose(s.x, 0.8 * p0, atol=1e-12)
    assert np.allclose(s.p, p0, atol=1e-12)
    assert s.energy == pytest.approx(0.5 * float(p0 @ p0), rel=1e-12)


def test_heisenberg_closed_form():
    # p0 = (1, 0, c): controls rotate at rate c,
    # x1 = sin(ct)/c, x2 = (1 - cos(ct))/c, x3 = (ct - sin(ct))/(2 c^2)
    sys = catalog.builtin("heisenberg3")
    c = 1.7
    p0 = np.array([1.0, 0.0, c])
    for t in (0.3, 0.9, 2.0):
        s = ham.flow(sys, np.zeros(3), p0, t)
        want = [math.sin(c * t) / c,
                (1 - math.cos(c * t)) / c,
                (c * t - math.sin(c * t)) / (2 * c * c)]
        assert np.allclose(s.x, want, atol=1e-9)


def test_energy_conservation_on_engel():
    sys = catalog.builtin("engel")
    for _ in range(5):
        p0 = RNG.uniform(-1, 1, size=4)
        s = ham.flow(sys, np.zeros(4), p0, 1.0)
        assert abs(s.energy_drift) < 1e-10


def test_flow_reversibility():
    sys = catalog.builtin("heisenberg3")
    p0 = np.array([0.8, 0.5, -1.2])
    mid = ham.flow(sys, np.zeros(3), p0, 0.7)
    back = ham.flow(sys, mid.x, mid.p, -0.7)
    assert np.allclose(back.x, 0.0, atol=1e-10)
    assert np.allclose(back.p, p0, atol=1e-10)


def test_negative_time_flow():
    sys = catalog.builtin("euclidean:2")
    p0 = np.array([1.0, 2.0])
    s = ham.flow(sys, np.zeros(2), p0, -0.5)
    assert np.allclose(s.x, -0.5 * p0, atol=1e-12)


def test_geodesic_matches_flow():
    sys = catalog.builtin("engel")
    p0 = np.array([0.9, 0.6, 0.4, -0.3])
    times = [0.1, 0.25, 0.5]
    singles = [ham.flow(sys, np.zeros(4), p0, t) for t in times]
    geodesic = ham.Geodesic(sys, np.zeros(4), p0, times)
    for t, one in zip(times, singles):
        many = geodesic.sample(t)
        assert np.allclose(one.x, many.x, atol=1e-11)
        assert np.allclose(one.p, many.p, atol=1e-11)


def test_dense_output_matches_step_ended_transitions():
    # The geodesic serves interior times from the integrator's continuous
    # extension; a single-time transition ends a step exactly there.
    sys = catalog.builtin("engel")
    x0 = np.zeros(4)
    p0 = np.array([0.9, 0.6, 0.4, -0.3])
    # the time set of one analyze_report with its default settings
    times = (fl.equiregular_times(0.2) + rh.rho_times([0.0])
             + rh.rho_flow_times() + asym.fit_times()
             + asym.exponent_probe_times())
    geodesic = ham.Geodesic(sys, x0, p0, times)
    interior = sorted({t for t in times if 1e-3 <= abs(t) <= 0.15})
    assert min(interior) < 0 < max(interior)
    for t in interior:
        _, many = geodesic.point(t)
        _, one = ham.transition(sys, x0, p0, t)
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
        s = ham.flow(sys, np.zeros(1), p0, t)
        assert s.x[0] == pytest.approx(t - t * t / 4, rel=1e-10)
        assert s.p[0] == pytest.approx(1 - t / 2, rel=1e-10)


def test_drift_translation():
    sys = catalog.with_overrides(catalog.builtin("euclidean:2"),
                                 drift=["1", "0"])
    s = ham.flow(sys, np.zeros(2), np.zeros(2), 0.6)
    assert np.allclose(s.x, [0.6, 0.0], atol=1e-12)


def test_transition_matches_finite_differences():
    sys = catalog.builtin("heisenberg3")
    x0 = np.zeros(3)
    p0 = np.array([0.7, -0.4, 0.9])
    t = 0.5
    _, M = ham.transition(sys, x0, p0, t)
    n = 3
    h = 1e-6
    for j in range(2 * n):
        dz = np.zeros(2 * n)
        dz[j] = h
        up = ham.flow(sys, x0 + dz[:n], p0 + dz[n:], t)
        dn = ham.flow(sys, x0 - dz[:n], p0 - dz[n:], t)
        col = np.concatenate([(up.x - dn.x), (up.p - dn.p)]) / (2 * h)
        assert np.allclose(M[:, j], col, atol=5e-6)


def test_vertical_jacobian_euclidean():
    sys = catalog.builtin("euclidean:3")
    t = 0.37
    _, M = ham.transition(sys, np.zeros(3), np.array([1.0, 0.0, 0.0]), t)
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


def test_blowup_raises():
    sys = catalog.with_overrides(catalog.builtin("euclidean:1"),
                                 drift=["x1^2"])
    with pytest.raises(ham.IntegrationError):
        ham.flow(sys, np.array([1.0]), np.zeros(1), 2.0)


def test_controls_at():
    sys = catalog.builtin("heisenberg3")
    u = ham.controls_at(sys, np.zeros(3), np.array([0.3, -0.5, 2.0]))
    assert np.allclose(u, [0.3, -0.5])


def test_tolerance_tightening_converges():
    sys = catalog.builtin("engel")
    p0 = np.array([0.8, 0.6, 0.5, -0.4])
    loose = ham.Geodesic(sys, np.zeros(4), p0, [1.0], tol=1e-6).sample(1.0)
    tight = ham.Geodesic(sys, np.zeros(4), p0, [1.0], tol=1e-12).sample(1.0)
    assert np.allclose(loose.x, tight.x, atol=1e-4)
