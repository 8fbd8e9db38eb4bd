"""Fit the small-time volume expansion and extract its invariants.

The product of the flow, flag and Gram machinery is the expansion

    r(t) = C t^N exp(int_0^t rho) (1 - (trR/6) t^2 + o(t^2)),

with r the chart volume ratio, N the geodesic dimension, C the Young
diagram constant and trR a curvature trace.  This module measures the
left side along an integrated geodesic, strips the three known factors,
and least-squares fits what remains to recover C and trR.

rho is the derivative of the Gram scalar G along the geodesic (see
geoflow.rho), so the factor exp(int_0^t rho) is read exactly as
exp(G(t) - G(0)) at each sample time, with no quadrature.  Every time the
fit needs comes from one Geodesic, integrated once per sign of time.

The chart ratio r(t) = m(gamma(t)) |det J_v(t)| / m(x0) carries one
structure-dependent constant beyond the canonical one: measuring the
vertical Jacobian against raw coordinate fiber directions instead of the
symbol-adapted basis multiplies the leading coefficient by

    prod_i det M_i(0) / m(x0)^2,

the squared volume of the canonical parallelotope at the base covector
over the squared density, i.e. exp(2 G(0)) / m(x0)^2.  fit_expansion
subtracts that offset, so the fitted constant lands directly on the
Young diagram value.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import catalog
from . import expr as ex
from . import flag as fl
from . import hamiltonian as ham
from . import rho as rh

__all__ = [
    "AsymptoticsError", "ExpansionFit", "fit_times", "fit_expansion_from",
    "fit_expansion", "exponent_probe_times", "exponent_probe_from",
    "exponent_probe", "ricci_oracle", "fit_report", "write_fit_csv",
]

# The expansion fit samples FIT_SAMPLES times on a geometric grid over
# FIT_WINDOW unless told otherwise.
FIT_WINDOW = (1e-2, 2e-1)
FIT_SAMPLES = 24

# Largest accepted norm of the fit residual.
FIT_RESIDUAL_TOL = 1e-3

# The exponent probe fits PROBE_SAMPLES times on a geometric grid over
# PROBE_WINDOW.
PROBE_WINDOW = (1e-3, 1e-2)
PROBE_SAMPLES = 9
PROBE_GRID = np.geomspace(*PROBE_WINDOW, PROBE_SAMPLES)


class AsymptoticsError(RuntimeError):
    pass


@dataclass(frozen=True)
class ExpansionFit:
    """Measured small-time expansion of the volume ratio along one
    geodesic."""

    dimension: int
    window: tuple
    samples: int
    times: np.ndarray
    log_ratios: np.ndarray
    rho_integrals: np.ndarray
    h_values: np.ndarray
    model_values: np.ndarray
    gram_offset: float
    log_constant: float
    trace_r: float
    cubic: float
    residual_norm: float

    @property
    def constant(self):
        return math.exp(self.log_constant)


def fit_times(window=FIT_WINDOW, samples=FIT_SAMPLES):
    """The trajectory times fit_expansion_from reads: a geometric grid on
    the window."""
    t_lo, t_hi = float(window[0]), float(window[1])
    if not (0.0 < t_lo < t_hi):
        raise AsymptoticsError("the fit window must satisfy 0 < t_lo < t_hi")
    if not math.isfinite(t_hi):
        raise AsymptoticsError("the fit window must end at a finite time")
    return list(np.geomspace(t_lo, t_hi, samples))


def _require_ample(flag):
    if not flag.ample:
        raise AsymptoticsError("the flag is not ample; the expansion"
                               " exponent is undefined here")


def fit_expansion_from(geodesic, flag, gram, times):
    """Fit h(t) = log r(t) - N log t - int_0^t rho - offset by least
    squares against 1, t^2, t^3 on `times`, the geometric grid fit_times
    returns, reading the geodesic; `flag` is flag_at at the geodesic's
    base covector and `gram` the map rho.gram_from returns for them over
    at least 0 and `times`.  The grid's ends are the window.

    rho is dG/dtau along this very trajectory, so the running integral is
    the exact difference G(t) - G(0) at each sample time, and the offset
    2 G(0) - 2 log m(x0) comes from the same Gram pass.  The intercept is
    log C (directly comparable with the exact Young diagram constant),
    the quadratic coefficient times -6 is the curvature trace, and the
    cubic term only absorbs the next order of the remainder."""
    sys, x0 = geodesic.sys, geodesic.x0
    ts = np.array(times)
    t_lo, t_hi = float(ts[0]), float(ts[-1])
    dimension = flag.dimension

    g0 = gram[0.0]
    integrals = np.array([gram[float(t)] for t in ts]) - g0
    offset = 2.0 * g0 - 2.0 * math.log(sys.density_at(x0))
    log_r = rh.log_volume_ratios_from(geodesic, ts)
    h = log_r - dimension * np.log(ts) - integrals - offset

    tau = ts / t_hi
    A = np.column_stack([np.ones_like(tau), tau ** 2, tau ** 3])
    coef, *_ = np.linalg.lstsq(A, h, rcond=None)
    model = A @ coef
    residual_norm = float(np.linalg.norm(h - model))
    if residual_norm > FIT_RESIDUAL_TOL:
        raise AsymptoticsError(
            "expansion fit residual %.3g exceeds %.3g; the window does"
            " not look like the asymptotic regime" % (residual_norm,
                                                      FIT_RESIDUAL_TOL))
    try:
        c2 = float(coef[1]) / t_hi ** 2
        c3 = float(coef[2]) / t_hi ** 3
    except (OverflowError, ZeroDivisionError):
        raise AsymptoticsError(
            "the fit window end %r is out of range for rescaling the fit"
            % t_hi) from None
    return ExpansionFit(
        dimension=dimension,
        window=(t_lo, t_hi),
        samples=len(ts),
        times=ts,
        log_ratios=log_r,
        rho_integrals=integrals,
        h_values=h,
        model_values=model,
        gram_offset=offset,
        log_constant=float(coef[0]),
        trace_r=-6.0 * c2,
        cubic=c3,
        residual_norm=residual_norm,
    )


def fit_expansion(sys, x0, p0, window=FIT_WINDOW, samples=FIT_SAMPLES,
                  tol=ham.DEFAULT_TOL):
    """fit_expansion_from on a geodesic integrated for its times alone.
    A non-ample covector is rejected before anything is integrated."""
    flag = fl.flag_at(sys, x0, p0)
    _require_ample(flag)
    grid = fit_times(window, samples)
    geodesic = ham.Geodesic(sys, x0, p0, [0.0] + grid, tol)
    gram = rh.gram_from(geodesic, flag, [0.0] + grid)
    return fit_expansion_from(geodesic, flag, gram, grid)


def exponent_probe_times():
    """The trajectory times exponent_probe_from reads."""
    return list(PROBE_GRID)


def exponent_probe_from(geodesic):
    """Log-log slope of the volume ratio over a decade of small times; an
    estimate of the exponent N that never consults the flag."""
    log_r = rh.log_volume_ratios_from(geodesic, PROBE_GRID)
    A = np.column_stack([np.ones(PROBE_SAMPLES), np.log(PROBE_GRID)])
    coef, *_ = np.linalg.lstsq(A, log_r, rcond=None)
    return float(coef[1])


def exponent_probe(sys, x0, p0):
    """exponent_probe_from on a geodesic integrated for its times alone."""
    geodesic = ham.Geodesic(sys, x0, p0, exponent_probe_times())
    return exponent_probe_from(geodesic)


def ricci_oracle(sys, x0, p0):
    """Closed-form curvature trace at the covector (x0, p0), for the
    structures that have one; None for every other structure.

    Flat space (no drift, no potential, the coordinate frame) reports 0
    for any density, the weighted part being absorbed exactly by the rho
    factor.  The round sphere (the drift, frame, potential and density of
    the sphere2 builtin) reports the squared speed of the geodesic.  The
    structure is recognised from its expressions, whatever its name, once
    per structure."""
    kind = sys.cached("ricci_oracle", lambda: _oracle_kind(sys))
    if kind == "flat":
        return 0.0
    if kind == "sphere2":
        return 2.0 * float(ham.energy_at(sys, x0, p0))
    return None


def _oracle_kind(sys):
    """Which oracle the structure has: "flat" when all but the density
    equal the euclidean builtin of the same dimension, "sphere2" when
    everything equals that builtin, and "" for none."""

    def parts(s):
        comps = [c for f in (s.X0,) + s.frame for c in f.components]
        return ((s.dim, s.rank)
                + tuple(ex.simplify(e) for e in comps + [s.Q]))

    if parts(sys) == parts(catalog.builtin("euclidean:%d" % sys.dim)):
        return "flat"
    sphere = catalog.builtin("sphere2")
    if (parts(sys) + (ex.simplify(sys.density),)
            == parts(sphere) + (ex.simplify(sphere.density),)):
        return "sphere2"
    return ""


def fit_report(fit):
    """JSON-ready summary of one expansion fit."""
    return {
        "dimension": fit.dimension,
        "window": list(fit.window),
        "samples": fit.samples,
        "log_constant": fit.log_constant,
        "constant": fit.constant,
        "trace_r": fit.trace_r,
        "cubic_coefficient": fit.cubic,
        "gram_offset": fit.gram_offset,
        "residual_norm": fit.residual_norm,
    }


def write_fit_csv(fit, stream):
    """The sampled table behind the fit: one row per sample time with the
    measured ratio, the stripped remainder h and the fitted model."""
    writer = csv.writer(stream)
    writer.writerow(["t", "ratio", "h", "model"])
    for t, lr, h, mv in zip(fit.times, fit.log_ratios, fit.h_values,
                            fit.model_values):
        writer.writerow([repr(float(t)), repr(math.exp(float(lr))),
                         repr(float(h)), repr(float(mv))])
