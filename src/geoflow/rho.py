"""The volume-dynamics invariant rho and the Gram determinant pipeline
behind it.

At a point of the trajectory, express the level-i bracket columns in a
unimodular auxiliary basis, project them onto the directions that level i
adds (the orthogonal complement of the previous levels inside the current
one), and take the Gram determinant of the projections:

    M_i = L_i L_i^T,   L_i = V_i^T C_i,   g = 1/2 sum_i log det M_i.

The function G(tau) evaluates g along the trajectory with one fixed
auxiliary completion; its derivative at tau = s is rho at the flowed
covector, independent of the completion and of the admissible extension.
That collapses every rho evaluation into finite differences of a single
scalar function along the flow, and makes the running integral of rho an
exact difference G(t) - G(0).

Every stage reads a hamiltonian.Geodesic: `*_times` gives the trajectory
times a stage needs and `*_from` computes it from a geodesic that holds
them, so a caller running several stages integrates once.  The
(sys, x0, p0) entry points build a geodesic for their own times.
"""

from __future__ import annotations

import math

import numpy as np

from . import flag as fl
from . import geometry as geo
from . import hamiltonian as ham
from . import expr as ex

__all__ = [
    "RhoError", "gram_dets", "gram_from", "g_rel", "rho_times", "rho_from",
    "rho", "rho_along", "log_volume_ratios_from", "log_volume_ratios",
    "rho_flow_times", "rho_flow_from", "rho_flow", "scaling_checks",
    "riemannian_rho_field", "riemannian_divergence_check",
]

FD_STEP = 1e-3


class RhoError(RuntimeError):
    pass


def _gram_log_of_levels(aux_matrix, growth, per_level):
    """log det M_i for every level, from bracket columns in chart
    coordinates; a level that adds no direction contributes 0."""
    Yinv = np.linalg.inv(aux_matrix)
    logs = []
    acc = []
    B_prev = None
    for i, C in enumerate(per_level):
        Caux = Yinv @ C
        acc.append(Caux)
        d_i = growth[i] - (growth[i - 1] if i else 0)
        if d_i == 0:
            logs.append(0.0)
            continue
        U = np.column_stack(acc)
        u, _, _ = np.linalg.svd(U, full_matrices=False)
        B = u[:, :growth[i]]
        if B_prev is None:
            V = B
        else:
            P = B - B_prev @ (B_prev.T @ B)
            u2, _, _ = np.linalg.svd(P, full_matrices=False)
            V = u2[:, :d_i]
        L = V.T @ Caux
        sv = np.linalg.svd(L, compute_uv=False)[:d_i]
        if np.any(sv <= 0.0):
            raise RhoError("level %d Gram matrix is singular" % (i + 1))
        logs.append(2.0 * float(np.sum(np.log(sv))))
        B_prev = B
    return logs


def _point_gram(sys, x, p, complement, expected, rank_tol):
    """g = 1/2 sum_i log det M_i at one covector, with the growth vector
    required to equal `expected`."""
    aux = geo.aux_frame_at(sys, x, complement)
    ranks, per_level = fl._growth_profile(sys, x, p, rank_tol,
                                          max_step=len(expected))
    if tuple(ranks) != tuple(expected):
        raise RhoError(
            "growth vector changed along the flow: %r versus %r"
            % (tuple(ranks), tuple(expected)))
    return 0.5 * sum(_gram_log_of_levels(aux.matrix, ranks, per_level))


def gram_dets(sys, x, p, t=0.0, complement=None, rank_tol=fl.RANK_TOL,
              tol=ham.DEFAULT_TOL):
    """The per-level Gram determinants det M_i at the covector flowed to
    time t (rebased there), plus the auxiliary frame used."""
    if t:
        s = ham.flow(sys, x, p, t, tol)
        x, p = s.x, s.p
    aux = geo.aux_frame_at(sys, x, complement)
    ranks, per_level = fl._growth_profile(sys, x, p, rank_tol,
                                          max_step=sys.dim + 2)
    logs = _gram_log_of_levels(aux.matrix, ranks, per_level)
    return [math.exp(v) for v in logs], aux


def gram_from(geodesic, times, complement=None, rank_tol=fl.RANK_TOL):
    """G(tau) for every tau in times, read from the geodesic.

    The auxiliary completion is chosen once at the base point (or given)
    and kept along the trajectory, and the growth vector must stay that
    of the base covector."""
    sys = geodesic.sys
    expected, _ = fl._growth_profile(sys, geodesic.x0, geodesic.p0,
                                     rank_tol, max_step=sys.dim + 2)
    if expected[-1] != sys.dim:
        raise RhoError("the flag is not ample; rho is undefined here")
    comp = geo.aux_frame_at(sys, geodesic.x0, complement).complement
    values = {}
    for t in {float(t) for t in times}:
        s = geodesic.sample(t)
        try:
            values[t] = _point_gram(sys, s.x, s.p, comp, expected, rank_tol)
        except geo.GeometryError as err:
            raise RhoError(
                "auxiliary completion degenerated at t=%r: %s" % (t, err))
    return [values[float(t)] for t in times]


def g_rel(sys, x0, p0, t, complement=None, tol=ham.DEFAULT_TOL):
    """G(t) - G(0): the running integral of rho along the trajectory."""
    scalar = np.isscalar(t)
    ts = [float(t)] if scalar else [float(v) for v in t]
    geodesic = ham.Geodesic(sys, x0, p0, ts, tol)
    vals = gram_from(geodesic, ts + [0.0], complement)
    base = vals[-1]
    out = [v - base for v in vals[:-1]]
    return out[0] if scalar else np.array(out)


def rho_times(times, step=FD_STEP):
    """The trajectory times rho_from reads: four finite-difference nodes
    around each requested time."""
    h = step
    needed = []
    for s in times:
        needed.extend((s - h, s - h / 2, s + h / 2, s + h))
    return needed


def rho_from(geodesic, times, complement=None, step=FD_STEP):
    """rho at the flowed covectors lambda(s), s in times, read from the
    geodesic: Richardson extrapolated central differences of G."""
    h = step
    vals = gram_from(geodesic, rho_times(times, step), complement)
    out = []
    for i in range(len(times)):
        gm, gm2, gp2, gp = vals[4 * i: 4 * i + 4]
        d_h = (gp - gm) / (2 * h)
        d_h2 = (gp2 - gm2) / h
        out.append((4 * d_h2 - d_h) / 3)
    return np.array(out)


def rho(sys, x0, p0, complement=None, step=FD_STEP, tol=ham.DEFAULT_TOL):
    """The invariant rho at one covector: dG/dtau at 0, by Richardson
    extrapolated central differences along the flow."""
    return rho_along(sys, x0, p0, [0.0], complement, step, tol)[0]


def rho_along(sys, x0, p0, times, complement=None, step=FD_STEP,
              tol=ham.DEFAULT_TOL):
    """rho at the flowed covectors lambda(s) for each s in times.

    Every value is a finite difference of the single function G, so one
    call costs four G evaluations per node, all read from one geodesic."""
    scalar = np.isscalar(times)
    times = [float(times)] if scalar else [float(s) for s in times]
    geodesic = ham.Geodesic(sys, x0, p0, rho_times(times, step), tol)
    out = rho_from(geodesic, times, complement, step)
    return out[0] if scalar else out


def log_volume_ratios_from(geodesic, times):
    """log of the volume ratio at each time, read from the geodesic's
    transition matrices."""
    sys = geodesic.sys
    log_m0 = math.log(sys.density_at(geodesic.x0))
    out = []
    for t in times:
        s, M = geodesic.point(t)
        _, ld = ham.signed_log_det(ham.vertical_jacobian(M, sys.dim))
        out.append(ld + math.log(sys.density_at(s.x)) - log_m0)
    return np.array(out)


def log_volume_ratios(sys, x0, p0, times, tol=ham.DEFAULT_TOL):
    """log of the volume ratio at each time, one chained variational
    integration per sign of time."""
    return log_volume_ratios_from(ham.Geodesic(sys, x0, p0, times, tol),
                                  times)


def rho_flow_times(t_lo=3e-2, t_hi=1.5e-1, samples=20):
    """The trajectory times rho_flow_from reads: a geometric grid on
    [t_lo, t_hi] and its mirror image."""
    ts = np.geomspace(t_lo, t_hi, samples)
    return list(ts) + list(-ts)


def rho_flow_from(geodesic, dimension=None, t_lo=3e-2, t_hi=1.5e-1,
                  samples=20):
    """Independent estimate of rho(lambda) from the volume flow itself.

    log r(t) - N log|t| = log C + rho t + c2 t^2 + ... as a series in
    signed time, so sampling a sign-symmetric geometric grid decouples
    the odd and even parts and the linear coefficient can be read off
    the odd part alone:

        (y(t) - y(-t)) / 2 = rho t + c3 t^3 + c5 t^5 + c7 t^7 + ...

    The even terms never enter (on structures with mildly placed series
    singularities they dominate the error of a one-sided fit), and the
    window sits above the small-t noise floor of the variational
    determinant, whose graded entries lose relative accuracy as t -> 0."""
    if dimension is None:
        dimension = fl.flag_at(geodesic.sys, geodesic.x0,
                               geodesic.p0).dimension
    ts = np.geomspace(t_lo, t_hi, samples)
    ys = log_volume_ratios_from(geodesic,
                                rho_flow_times(t_lo, t_hi, samples))
    shift = dimension * np.log(ts)
    odd = 0.5 * ((ys[:samples] - shift) - (ys[samples:] - shift))
    tau = ts / t_hi
    A = np.column_stack([tau ** j for j in (1, 3, 5, 7)])
    coef, *_ = np.linalg.lstsq(A, odd, rcond=None)
    resid = float(np.max(np.abs(A @ coef - odd)))
    if resid > 1e-4:
        raise RhoError(
            "volume-flow fit residual %.3g exceeds 1e-4; the expansion"
            " window is unusable at this covector" % resid)
    return float(coef[0] / t_hi)


def rho_flow(sys, x0, p0, dimension=None, t_lo=3e-2, t_hi=1.5e-1, samples=20,
             tol=ham.DEFAULT_TOL):
    """rho_flow_from on a geodesic integrated for its times alone."""
    geodesic = ham.Geodesic(sys, x0, p0,
                            rho_flow_times(t_lo, t_hi, samples), tol)
    return rho_flow_from(geodesic, dimension, t_lo, t_hi, samples)


def scaling_checks(sys, x0, p0, factors, t_probe=(0.05, 0.1, 0.2),
                   tol=ham.DEFAULT_TOL):
    """Homogeneity of rho and of the running integral under covector
    scaling, valid when the structure has no drift and no potential:
    rho(c lambda) = c rho(lambda) and G_{c lambda}(t) = G_lambda(c t) up
    to the additive normalization.

    Returns a dict of worst relative and absolute discrepancies."""
    x0 = np.asarray(x0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    for comp in list(sys.X0.components) + [sys.Q]:
        probe = ex.evaluate(ex.simplify(comp),
                            list(0.1 + 0.05 * np.arange(sys.dim)))
        if abs(probe) > 0.0:
            raise RhoError(
                "scaling checks need a structure with no drift and no"
                " potential")
    base_rho = rho(sys, x0, p0, tol=tol)
    worst_rho = 0.0
    worst_g = 0.0
    for c in factors:
        scaled = rho(sys, x0, c * p0, tol=tol)
        # Relative where rho is of visible size, absolute where it
        # vanishes (both sides then agree near machine level anyway).
        denom = max(abs(c * base_rho), 1e-6)
        worst_rho = max(worst_rho, abs(scaled - c * base_rho) / denom)
        g_scaled = g_rel(sys, x0, c * p0, list(t_probe), tol=tol)
        g_base = g_rel(sys, x0, p0, [c * t for t in t_probe], tol=tol)
        worst_g = max(worst_g, float(np.max(np.abs(g_scaled - g_base))))
    return {"rho_rel": worst_rho, "g_abs": worst_g, "rho_base": base_rho}


def riemannian_rho_field(sys):
    """For a full-rank frame, rho is the directional derivative of
    log(density * det frame) along the velocity; returns a function of
    (x, p) evaluating that formula symbolically.  An independent check of
    the Gram pipeline in the full-rank case."""
    if sys.rank != sys.dim:
        raise RhoError("the closed form needs rank == dim")
    detF = geo.frame_determinant(sys)
    n = sys.dim
    log_terms = []
    for i in range(n):
        num = ex.Add((ex.Mul((ex.diff(sys.density, i), detF)),
                      ex.Mul((sys.density, ex.diff(detF, i)))))
        den = ex.Mul((sys.density, detF))
        log_terms.append(ex.simplify(ex.Div(num, den)))
    grad_fn = ex.compile_exprs(log_terms)

    def field(x, p):
        v = fl.velocity_at(sys, x, p)
        return float(np.dot(np.array(grad_fn(list(x)), dtype=float), v))

    return field


def riemannian_divergence_check(sys, x0, p0, tol=ham.DEFAULT_TOL):
    """Full-rank cross-check: the difference between the divergence of an
    admissible extension against the declared density and against the
    metric volume of the orthonormal frame equals rho at the base point.

    Returns a report dict with both divergences, their difference, the
    Gram-pipeline rho and the absolute gap."""
    if sys.rank != sys.dim:
        raise RhoError("the divergence check needs rank == dim")
    x0 = np.asarray(x0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    T = fl.admissible_extension(sys, x0, p0, 1)
    detF = geo.frame_determinant(sys)
    # The metric volume of an orthonormal frame has density 1/|det F|;
    # the determinant's sign cancels inside the logarithmic derivative.
    div_mu = geo.divergence(T, sys.density)
    div_vol = geo.divergence(T, ex.Div(ex.Const(1.0), detF))
    at = list(x0)
    d_mu = ex.evaluate(div_mu, at)
    d_vol = ex.evaluate(div_vol, at)
    value = rho(sys, x0, p0, tol=tol)
    return {
        "div_mu": d_mu,
        "div_vol": d_vol,
        "difference": d_mu - d_vol,
        "rho": value,
        "gap": abs(d_mu - d_vol - value),
    }
