"""Small-time expansion fits checked against closed forms and the exact
Young-diagram constants."""

import io
import json
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

WEIGHTED_E3 = {
    "name": "weighted-r3", "dim": 3, "rank": 3,
    "X0": ["0", "0", "0"],
    "frame": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "Q": "0",
    "density": "exp(0.3*x1 - 0.2*x2 + 0.5*x3)",
}


def test_euclidean_fit_recovers_flat_expansion():
    sys = cat.builtin("euclidean:3")
    x0 = np.zeros(3)
    p0 = np.array([0.6, -0.8, 0.5])
    fit = asym.fit_expansion(sys, x0, p0)
    assert fit.dimension == 3
    assert fit.constant == pytest.approx(1.0, rel=1e-8)
    # flat space: the quadratic coefficient vanishes, so does the trace
    assert abs(fit.trace_r) <= 6e-6
    assert fit.residual_norm <= 1e-6 * fit.samples
    # square frame with unit density: no Gram normalization at all
    assert fit.gram_offset == 0.0


def test_weighted_euclidean_h_is_constant():
    """With a pure weight the whole t-dependence sits in N log t plus the
    rho integral, so the stripped remainder must be flat."""
    sys = geo.structure_from_dict(WEIGHTED_E3)
    x0 = np.array([0.1, -0.2, 0.3])
    p0 = np.array([0.7, 0.4, -0.5])
    fit = asym.fit_expansion(sys, x0, p0)
    spread = float(np.max(fit.h_values) - np.min(fit.h_values))
    assert spread <= 1e-8
    assert fit.constant == pytest.approx(1.0, rel=1e-8)
    assert abs(fit.trace_r) <= 1e-5


def test_rho_integral_is_the_exact_gram_difference():
    engel = cat.builtin("engel")
    p0 = np.array([0.8, 0.6, 0.5, -0.4])
    fit = asym.fit_expansion(engel, np.zeros(4), p0)
    g = rh.g_rel(engel, np.zeros(4), p0, list(fit.times))
    assert np.allclose(fit.rho_integrals, g, rtol=0.0, atol=1e-12)
    # constant rho = grad(psi) . p on the weighted flat space
    sys = geo.structure_from_dict(WEIGHTED_E3)
    p0 = np.array([0.7, 0.4, -0.5])
    fit = asym.fit_expansion(sys, np.array([0.1, -0.2, 0.3]), p0)
    slope = float(np.array([0.3, -0.2, 0.5]) @ p0)
    assert np.allclose(fit.rho_integrals, slope * fit.times, rtol=0.0,
                       atol=1e-9)


def test_sphere_fit_matches_curvature_oracle():
    sys = cat.builtin("sphere2")
    x0 = np.array([1.0, 0.0])
    p0 = np.array([0.0, 1.0])
    fit = asym.fit_expansion(sys, x0, p0, window=(1e-2, 2e-1))
    assert fit.constant == pytest.approx(1.0, abs=1e-4)
    oracle = asym.ricci_oracle(sys, x0, p0)
    assert oracle == pytest.approx(1.0, abs=1e-12)
    assert fit.trace_r == pytest.approx(oracle, abs=1e-2)


def test_heisenberg_constant_is_one_twelfth():
    sys = cat.builtin("heisenberg3")
    x0 = np.zeros(3)
    p0 = np.array([1.0, 0.2, 0.8])
    fit = asym.fit_expansion(sys, x0, p0)
    assert fit.constant == pytest.approx(1.0 / 12.0, rel=1e-6)
    assert fit.residual_norm <= 1e-6 * fit.samples


def test_higher_step_constants_match_exact_diagram():
    sys5 = cat.builtin("heisenberg5:1,2")
    p5 = np.array([0.5, -0.4, 0.6, 0.3, 1.1])
    fit5 = asym.fit_expansion(sys5, np.zeros(5), p5)
    assert fit5.constant == pytest.approx(1.0 / 12.0, rel=1e-4)

    engel = cat.builtin("engel")
    pe = np.array([0.8, 0.6, 0.5, -0.4])
    fite = asym.fit_expansion(engel, np.zeros(4), pe)
    # rows (3, 1): 1/8640 from the factorial determinant formula
    exact_c = float(exact.det_formula(3))
    assert fite.constant == pytest.approx(exact_c, rel=1e-4)
    assert fite.residual_norm <= 1e-6 * fite.samples


def test_fitted_constant_binds_to_flag_constant():
    cases = [
        ("sphere2", np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        ("heisenberg3", np.zeros(3), np.array([1.0, 0.0, 1.0])),
        ("engel", np.zeros(4), np.array([0.8, 0.6, 0.5, -0.4])),
    ]
    for name, x0, p0 in cases:
        sys = cat.builtin(name)
        flag = fl.flag_at(sys, x0, p0)
        fit = asym.fit_expansion(sys, x0, p0)
        target = float(flag.leading)
        rel = abs(fit.constant - target) / target
        assert rel <= 1e-3, name


def test_trace_fit_is_window_robust():
    cases = [
        ("heisenberg3", np.zeros(3), np.array([1.0, 0.2, 0.8])),
        ("engel", np.zeros(4), np.array([0.8, 0.6, 0.5, -0.4])),
    ]
    for name, x0, p0 in cases:
        sys = cat.builtin(name)
        full = asym.fit_expansion(sys, x0, p0, window=(1e-2, 2e-1))
        half = asym.fit_expansion(sys, x0, p0, window=(1e-2, 1e-1))
        assert abs(full.trace_r - half.trace_r) <= 2e-2, name


def test_exponent_probe_agrees_with_flag_dimension():
    probes = [
        ("euclidean:3", np.zeros(3), np.array([0.6, -0.8, 0.5]), 3.0, 0.01),
        ("heisenberg3", np.zeros(3), np.array([1.0, 0.0, 1.0]), 5.0, 0.05),
        ("engel", np.zeros(4), np.array([0.8, 0.6, 0.5, -0.4]), 10.0, 0.1),
    ]
    for name, x0, p0, expected, tol in probes:
        sys = cat.builtin(name)
        slope = asym.exponent_probe(sys, x0, p0)
        assert slope == pytest.approx(expected, abs=tol), name


def test_ricci_oracle_table():
    def oracle(sys, p0):
        return asym.ricci_oracle(sys, np.zeros(sys.dim), np.array(p0))

    assert oracle(cat.builtin("euclidean:2"), [1.0, 0.0]) == 0.0
    assert oracle(cat.builtin("euclidean:3:psi=x1"), [1.0, 0.0, 0.0]) == 0.0
    assert oracle(cat.builtin("sphere2"), [2.0, 0.0]) == pytest.approx(1.0)
    assert oracle(cat.builtin("heisenberg3"), [1.0, 0.0, 1.0]) is None
    assert oracle(cat.martinet(), [1.0, 0.0, 1.0]) is None
    # scaled covector: the oracle is the squared speed, twice the energy
    sys = cat.builtin("sphere2")
    x0 = np.array([1.0, 0.0])
    p0 = np.array([0.0, 2.0])
    assert asym.ricci_oracle(sys, x0, p0) == pytest.approx(4.0)
    # the structure decides, not its name
    flat = dict(WEIGHTED_E3, name="heisenberg3")
    assert oracle(geo.structure_from_dict(flat), [1.0, 0.0, 0.0]) == 0.0
    heis = {"name": "euclidean:3", "dim": 3, "rank": 2,
            "X0": ["0", "0", "0"],
            "frame": [["1", "0", "-x2/2"], ["0", "1", "x1/2"]],
            "Q": "0", "density": "1"}
    assert oracle(geo.structure_from_dict(heis), [1.0, 0.0, 1.0]) is None
    for name, p0 in (("euclidean:2", [1.0, 0.0]), ("sphere2", [2.0, 0.0])):
        potential = cat.with_overrides(cat.builtin(name), potential="x1^2")
        assert oracle(potential, p0) is None, name
    zero_drift = cat.with_overrides(cat.builtin("euclidean:2"),
                                    drift=["0", "0"])
    assert oracle(zero_drift, [1.0, 0.0]) == 0.0


def test_strong_drift_breaks_the_fit():
    sys = cat.with_overrides(cat.builtin("euclidean:2"),
                             drift=["20*x1^2", "0"])
    with pytest.raises(asym.AsymptoticsError):
        asym.fit_expansion(sys, np.zeros(2), np.array([1.0, 0.0]))


def test_bad_window_rejected():
    sys = cat.builtin("euclidean:2")
    x0 = np.zeros(2)
    p0 = np.array([1.0, 0.0])
    with pytest.raises(asym.AsymptoticsError):
        asym.fit_expansion(sys, x0, p0, window=(0.2, 0.1))
    with pytest.raises(asym.AsymptoticsError):
        asym.fit_expansion(sys, x0, p0, window=(0.0, 0.1))


def test_non_ample_covector_rejected():
    sys = cat.builtin("engel")
    with pytest.raises(asym.AsymptoticsError):
        asym.fit_expansion(sys, np.zeros(4), np.array([0.0, 1.0, 0.0, 0.0]))


def test_non_ample_covector_rejected_before_integrating(monkeypatch):
    calls = []
    inner = ham.transition_many

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(ham, "transition_many", counted)
    sys = cat.builtin("engel")
    with pytest.raises(asym.AsymptoticsError):
        asym.fit_expansion(sys, np.zeros(4), np.array([0.0, 1.0, 0.0, 0.0]))
    assert calls == []


def test_fit_report_and_csv_roundtrip():
    sys = cat.builtin("euclidean:2")
    fit = asym.fit_expansion(sys, np.zeros(2), np.array([0.8, -0.6]))
    report = asym.fit_report(fit)
    assert json.loads(json.dumps(report)) == report
    for key in ("dimension", "constant", "trace_r", "residual_norm",
                "gram_offset", "window", "samples"):
        assert key in report

    buf = io.StringIO()
    asym.write_fit_csv(fit, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].split(",")[0:4] == ["t", "ratio", "h", "model"]
    assert len(lines) == fit.samples + 1
    t0, ratio0, h0, model0 = (float(v) for v in lines[1].split(","))
    assert t0 == pytest.approx(float(fit.times[0]))
    assert ratio0 == pytest.approx(math.exp(float(fit.log_ratios[0])))
    assert h0 == pytest.approx(model0, abs=1e-6)
