"""Acceptance gate: one test per shipped criterion, each at its stated
tolerance.  Run with -v to get a single pass/fail line per criterion."""

from fractions import Fraction
import math

import numpy as np
import pytest

import geoflow.asymptotics as asym
import geoflow.catalog as cat
import geoflow.exact as exact
import geoflow.flag as fl
import geoflow.geometry as geo
import geoflow.hamiltonian as ham
import geoflow.rho as rh

WEIGHT = np.array([0.3, -0.2, 0.5])
WEIGHTED_SPEC = ("euclidean:3:psi=0.3*x1 - 0.2*x2 + 0.5*x3")


def _weighted_system():
    return cat.builtin(WEIGHTED_SPEC)


def test_criterion_01_exact_rational_identities():
    for n in range(1, 13):
        assert exact.det_nhat(n) == exact.det_formula(n)
    for n in range(1, 9):
        assert exact.nhat_inverse_closed(n) == exact.nhat(n).inverse()
    for n in range(1, 11):
        lhs, rhs = exact.trace_identity(n)
        assert lhs == rhs == Fraction(n, 2 * (4 * n * n - 1))
    for n in range(2, 13):
        assert exact.comb_identity_A(n) == Fraction(1, 2)
        assert exact.comb_identity_B(n) == Fraction(1, 2)
    for n in range(1, 13):
        for k in range(1, 13):
            lhs, rhs = exact.lemma_b0(n, k)
            assert lhs == rhs
    for n in range(1, 9):
        a = [Fraction(2 * i + 1, 2) for i in range(n)]
        b = [Fraction(-3 * j + 2, 3) for j in range(n)]
        closed = exact.hilbert_inverse_closed(a, b)
        assert closed == exact.hilbert_matrix(a, b).inverse()


def test_criterion_02_flat_space_expansion():
    for n in (2, 3):
        sys = cat.builtin("euclidean:%d" % n)
        x0 = np.zeros(n)
        p0 = np.array([0.6, -0.8, 0.5][:n])
        ts = np.geomspace(0.01, 1.0, 12)
        log_r = rh.log_volume_ratios(sys, x0, p0, list(ts))
        rel = np.abs(np.exp(log_r) - ts ** n) / ts ** n
        assert np.max(rel) <= 1e-8
        assert abs(rh.rho(sys, x0, p0)) <= 1e-8
        fit = asym.fit_expansion(sys, x0, p0)
        assert abs(fit.trace_r) <= 1e-6


def test_criterion_03_linear_weight_rho_equals_gradient_pairing():
    sys = _weighted_system()
    x0 = np.array([0.1, -0.2, 0.3])
    rng = np.random.default_rng(23)
    for _ in range(5):
        p0 = cat.sample_covector("euclidean:3", rng)
        expected = float(WEIGHT @ p0)
        assert abs(rh.rho(sys, x0, p0) - expected) <= 1e-6
        assert abs(rh.rho_flow(sys, x0, p0, dimension=3)
                   - expected) <= 1e-6
    fit = asym.fit_expansion(sys, x0, np.array([0.7, 0.4, -0.5]))
    spread = float(np.max(fit.h_values) - np.min(fit.h_values))
    assert spread <= 1e-8


def test_criterion_04_round_sphere_ratio_and_curvature():
    sys = cat.builtin("sphere2")
    x0 = np.array([1.0, 0.0])
    p0 = np.array([0.0, 1.0])
    ts = np.linspace(0.01, 0.5, 15)
    log_r = rh.log_volume_ratios(sys, x0, p0, list(ts))
    oracle = ts * np.sin(ts)
    rel = np.abs(np.exp(log_r) - oracle) / oracle
    assert np.max(rel) <= 1e-6
    fit = asym.fit_expansion(sys, x0, p0)
    assert fit.trace_r == pytest.approx(1.0, abs=1e-2)


def test_criterion_05_heisenberg_twenty_random_covectors():
    sys = cat.builtin("heisenberg3")
    x0 = np.zeros(3)
    rng = np.random.default_rng(101)
    for _ in range(20):
        p0 = cat.sample_covector("heisenberg3", rng)
        flag = fl.flag_at(sys, x0, p0)
        assert flag.growth == (2, 3)
        assert flag.dimension == 5
        assert asym.exponent_probe(sys, x0, p0) == pytest.approx(
            5.0, abs=0.05)
        assert abs(rh.rho(sys, x0, p0)) <= 1e-6
        fit = asym.fit_expansion(sys, x0, p0)
        assert fit.constant == pytest.approx(1.0 / 12.0, abs=1e-3)


def test_criterion_06_engel_ten_random_covectors():
    sys = cat.builtin("engel")
    x0 = np.zeros(4)
    rng = np.random.default_rng(103)
    target = float(exact.det_formula(3))
    assert Fraction(1, 8640) == exact.det_formula(3)
    for _ in range(10):
        p0 = cat.sample_covector("engel", rng)
        flag = fl.flag_at(sys, x0, p0)
        assert flag.growth == (2, 3, 4)
        assert flag.dimension == 10
        assert asym.exponent_probe(sys, x0, p0) == pytest.approx(
            10.0, abs=0.1)
        fit = asym.fit_expansion(sys, x0, p0)
        assert abs(fit.constant - target) / target <= 1e-3


def test_criterion_07_two_path_rho_agreement_all_builtins():
    rng = np.random.default_rng(107)
    cases = [("euclidean:3", 3), ("sphere2", 2), ("heisenberg3", 5),
             ("heisenberg5:1,2", 7), ("engel", 10)]
    for name, dimension in cases:
        sys = cat.builtin(name)
        x0 = cat.default_base(sys)
        for _ in range(20):
            p0 = cat.sample_covector(name, rng)
            gap = abs(rh.rho(sys, x0, p0)
                      - rh.rho_flow(sys, x0, p0, dimension=dimension))
            assert gap <= 1e-5, name


def test_criterion_08_covector_scaling_homogeneity():
    sys = cat.builtin("heisenberg5:1,2")
    x0 = np.zeros(5)
    rng = np.random.default_rng(109)
    for _ in range(3):
        p0 = cat.sample_covector("heisenberg5:1,2", rng)
        out = rh.scaling_checks(sys, x0, p0, [0.5, 2.0, 3.0])
        assert out["rho_rel"] <= 1e-6
        assert out["g_abs"] <= 1e-5


def test_criterion_09_contact_log_norm_oracle():
    a1, a2 = 1.0, 2.0
    sys = cat.builtin("heisenberg5:1,2")
    x0 = np.zeros(5)
    rng = np.random.default_rng(113)
    ts = [0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]

    def j_norm(controls):
        u = np.asarray(controls, dtype=float)
        return math.sqrt(a1 * a1 * (u[0] ** 2 + u[1] ** 2)
                         + a2 * a2 * (u[2] ** 2 + u[3] ** 2))

    for _ in range(2):
        p0 = cat.sample_covector("heisenberg5:1,2", rng)
        rel = rh.g_rel(sys, x0, p0, ts)
        base = j_norm(ham.controls_at(sys, x0, p0))
        for t, measured in zip(ts, rel):
            sample, _ = ham.transition(sys, x0, p0, t)
            controls = ham.controls_at(sys, sample.x, sample.p)
            expected = math.log(j_norm(controls) / base)
            assert abs(measured - expected) <= 1e-6, t


def test_criterion_10_fitted_constant_binds_every_builtin():
    cases = [
        ("euclidean:2", None, np.array([0.8, -0.6])),
        ("euclidean:3", None, np.array([0.6, -0.8, 0.5])),
        (WEIGHTED_SPEC, None, np.array([0.6, -0.8, 0.5])),
        ("sphere2", np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        ("heisenberg3", None, np.array([1.0, 0.2, 0.8])),
        ("heisenberg5:1,2", None, np.array([0.5, -0.4, 0.6, 0.3, 1.1])),
        ("engel", None, np.array([0.8, 0.6, 0.5, -0.4])),
    ]
    for name, x0, p0 in cases:
        sys = cat.builtin(name)
        if x0 is None:
            x0 = cat.default_base(sys)
        flag = fl.flag_at(sys, x0, p0)
        assert flag.ample, name
        target = float(flag.leading)
        fit = asym.fit_expansion(sys, x0, p0)
        assert abs(fit.constant - target) / target <= 1e-3, name
