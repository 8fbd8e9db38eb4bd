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
them and, where it needs one, the flag at the base covector, so a caller
running several stages integrates once and builds one flag.  The
(sys, x0, p0) entry points build both for their own times.

Each stage stacks its per-point linear algebra: gram_from takes the rank
profiles of all its points level by level and runs each step of the Gram
determinants as one LAPACK or matmul call over the stack, and
log_volume_ratios_from takes one log-determinant call for all its times.
LAPACK treats each matrix of a stack on its own, so every value equals
its one-point computation bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from . import flag as fl
from . import geometry as geo
from . import hamiltonian as ham
from . import expr as ex

__all__ = [
    "RhoError", "gram_from", "g_rel", "rho_times", "rho_from", "rho",
    "log_volume_ratios_from", "log_volume_ratios", "rho_flow_times",
    "rho_flow_from", "rho_flow", "scaling_checks", "riemannian_rho_field",
    "riemannian_divergence_check",
]

# Step of the finite differences of G that give rho.
FD_STEP = 1e-3

# The volume-flow estimate of rho samples RHO_FLOW_SAMPLES times on a
# geometric grid over RHO_FLOW_WINDOW, and their mirror images.
RHO_FLOW_WINDOW = (3e-2, 1.5e-1)
RHO_FLOW_SAMPLES = 20
RHO_FLOW_GRID = np.geomspace(*RHO_FLOW_WINDOW, RHO_FLOW_SAMPLES)

# Times t at which scaling_checks compares G_{c lambda}(t) with
# G_lambda(c t).
SCALING_TIMES = (0.05, 0.1, 0.2)


class RhoError(RuntimeError):
    pass


def _gram_log_of_levels(aux, growth, per_level):
    """log det M_i for every level at each point of a stack, from bracket
    columns in chart coordinates: `aux` holds the (P, n, n) auxiliary
    bases, `growth` the rank profile common to the points and `per_level`
    the (P, n, k) columns of each level.  Returns a (P, levels) array; a
    level that adds no direction contributes 0.

    Each step is one LAPACK or matmul call for the whole stack.  A point
    with a singular level Gram matrix raises, the first such point of the
    stack at its first singular level."""
    Yinv = np.linalg.inv(aux)
    logs = np.zeros((len(aux), len(per_level)))
    singular = np.zeros(len(aux), dtype=int)
    acc = []
    B_prev = None
    for i, C in enumerate(per_level):
        Caux = Yinv @ C
        acc.append(Caux)
        d_i = growth[i] - (growth[i - 1] if i else 0)
        if d_i == 0:
            continue
        u, _, _ = np.linalg.svd(np.concatenate(acc, axis=2),
                                full_matrices=False)
        B = u[:, :, :growth[i]]
        if B_prev is None:
            V = B
        else:
            P = B - B_prev @ (np.swapaxes(B_prev, 1, 2) @ B)
            u2, _, _ = np.linalg.svd(P, full_matrices=False)
            V = u2[:, :, :d_i]
        L = np.swapaxes(V, 1, 2) @ Caux
        sv = np.linalg.svd(L, compute_uv=False)[:, :d_i]
        bad = np.any(sv <= 0.0, axis=1)
        singular[bad & (singular == 0)] = i + 1
        logs[:, i] = 2.0 * np.sum(np.log(np.where(bad[:, None], 1.0, sv)),
                                  axis=1)
        B_prev = B
    failed = np.flatnonzero(singular)
    if failed.size:
        raise RhoError("level %d Gram matrix is singular"
                       % singular[failed[0]])
    return logs


def _require_ample(flag):
    if not flag.ample:
        raise RhoError("the flag is not ample; rho is undefined here")


def gram_from(geodesic, flag, times, complement=None):
    """G(tau) for every tau in times, read from the geodesic; `flag` is
    flag_at at the geodesic's base covector.

    The auxiliary completion is chosen once at the base point (or given)
    and kept along the trajectory, and the growth vector must stay that
    of the base covector.  Each point must pass its checks (completion,
    rank profile, Gram determinants) and the first failing point in the
    order visited raises; the rank profiles and Gram determinants of all
    points are computed as stacks."""
    _require_ample(flag)
    sys = geodesic.sys
    comp = geo.aux_frame_at(sys, geodesic.x0, complement).complement
    expected = tuple(flag.raw_ranks)
    distinct = list({float(t) for t in times})
    xs, ps, _ = geodesic.at(distinct)
    failure = None
    aux = []
    for t, x in zip(distinct, xs):
        try:
            aux.append(geo.aux_frame_at(sys, x, comp).matrix)
        except geo.GeometryError as err:
            failure = RhoError(
                "auxiliary completion degenerated at t=%r: %s" % (t, err))
            break
    # A point after a failing one cannot change the error raised, so each
    # check runs only on the points before the first failure so far.
    columns = []
    for result in fl._growth_profile(sys, xs[:len(aux)], ps[:len(aux)],
                                     len(expected)):
        if isinstance(result, Exception):
            failure = result
            break
        (ranks,), per_level = result
        if ranks != expected:
            failure = RhoError(
                "growth vector changed along the flow: %r versus %r"
                % (ranks, expected))
            break
        columns.append(per_level)
    logs = _gram_log_of_levels(
        np.reshape(aux[:len(columns)], (-1, sys.dim, sys.dim)), expected,
        [np.array(level) for level in zip(*columns)])
    if failure is not None:
        raise failure
    values = dict(zip(distinct, (0.5 * sum(row) for row in logs.tolist())))
    return [values[float(t)] for t in times]


def g_rel(sys, x0, p0, t):
    """G(t) - G(0): the running integral of rho along the trajectory."""
    flag = fl.flag_at(sys, x0, p0)
    _require_ample(flag)
    scalar = np.isscalar(t)
    ts = [float(t)] if scalar else [float(v) for v in t]
    geodesic = ham.Geodesic(sys, x0, p0, ts)
    vals = gram_from(geodesic, flag, ts + [0.0])
    base = vals[-1]
    out = [v - base for v in vals[:-1]]
    return out[0] if scalar else np.array(out)


def rho_times(times):
    """The trajectory times rho_from reads: four finite-difference nodes
    around each requested time."""
    h = FD_STEP
    needed = []
    for s in times:
        needed.extend((s - h, s - h / 2, s + h / 2, s + h))
    return needed


def rho_from(geodesic, flag, times, complement=None):
    """rho at the flowed covectors lambda(s), s in times, read from the
    geodesic: Richardson extrapolated central differences of G.  Every
    value is a finite difference of the single function G, four G
    evaluations per node."""
    h = FD_STEP
    vals = gram_from(geodesic, flag, rho_times(times), complement)
    out = []
    for i in range(len(times)):
        gm, gm2, gp2, gp = vals[4 * i: 4 * i + 4]
        d_h = (gp - gm) / (2 * h)
        d_h2 = (gp2 - gm2) / h
        out.append((4 * d_h2 - d_h) / 3)
    return np.array(out)


def rho(sys, x0, p0, complement=None):
    """The invariant rho at one covector: dG/dtau at 0, by Richardson
    extrapolated central differences along the flow."""
    flag = fl.flag_at(sys, x0, p0)
    _require_ample(flag)
    geodesic = ham.Geodesic(sys, x0, p0, rho_times([0.0]))
    return rho_from(geodesic, flag, [0.0], complement)[0]


def log_volume_ratios_from(geodesic, times):
    """log of the volume ratio at each time, read from the geodesic's
    transition matrices, with one log-determinant call for all of them."""
    sys = geodesic.sys
    log_m0 = math.log(sys.density_at(geodesic.x0))
    xs, _, M = geodesic.at(times)
    _, lds = ham.signed_log_det(ham.vertical_jacobian(M, sys.dim))
    return np.array([ld + math.log(sys.density_at(x)) - log_m0
                     for ld, x in zip(lds, xs)])


def log_volume_ratios(sys, x0, p0, times):
    """log of the volume ratio at each time, one chained variational
    integration per sign of time."""
    return log_volume_ratios_from(ham.Geodesic(sys, x0, p0, times), times)


def rho_flow_times():
    """The trajectory times rho_flow_from reads: a geometric grid on
    RHO_FLOW_WINDOW and its mirror image."""
    return list(RHO_FLOW_GRID) + list(-RHO_FLOW_GRID)


def rho_flow_from(geodesic, dimension):
    """Independent estimate of rho(lambda) from the volume flow itself;
    `dimension` is the geodesic dimension N at the base covector.

    log r(t) - N log|t| = log C + rho t + c2 t^2 + ... as a series in
    signed time, so sampling a sign-symmetric geometric grid decouples
    the odd and even parts and the linear coefficient can be read off
    the odd part alone:

        (y(t) - y(-t)) / 2 = rho t + c3 t^3 + c5 t^5 + c7 t^7 + ...

    The even terms never enter (on structures with mildly placed series
    singularities they dominate the error of a one-sided fit), and the
    window sits above the small-t noise floor of the variational
    determinant, whose graded entries lose relative accuracy as t -> 0."""
    samples = RHO_FLOW_SAMPLES
    t_hi = RHO_FLOW_WINDOW[1]
    ys = log_volume_ratios_from(geodesic, rho_flow_times())
    shift = dimension * np.log(RHO_FLOW_GRID)
    odd = 0.5 * ((ys[:samples] - shift) - (ys[samples:] - shift))
    tau = RHO_FLOW_GRID / t_hi
    A = np.column_stack([tau ** j for j in (1, 3, 5, 7)])
    coef, *_ = np.linalg.lstsq(A, odd, rcond=None)
    resid = float(np.max(np.abs(A @ coef - odd)))
    if resid > 1e-4:
        raise RhoError(
            "volume-flow fit residual %.3g exceeds 1e-4; the expansion"
            " window is unusable at this covector" % resid)
    return float(coef[0] / t_hi)


def rho_flow(sys, x0, p0, dimension=None):
    """rho_flow_from on a geodesic integrated for its times alone; the
    dimension defaults to that of the flag at (x0, p0)."""
    if dimension is None:
        dimension = fl.flag_at(sys, x0, p0).dimension
    geodesic = ham.Geodesic(sys, x0, p0, rho_flow_times())
    return rho_flow_from(geodesic, dimension)


def scaling_checks(sys, x0, p0, factors):
    """Homogeneity of rho and of the running integral under covector
    scaling, valid when the structure has no drift and no potential:
    rho(c lambda) = c rho(lambda) and G_{c lambda}(t) = G_lambda(c t) up
    to the additive normalization, at each t of SCALING_TIMES.

    Returns a dict of worst relative and absolute discrepancies."""
    x0 = np.asarray(x0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    for comp in list(sys.X0.components) + [sys.Q]:
        if ex.simplify(comp) != ex.ZERO:
            raise RhoError(
                "scaling checks need a structure with no drift and no"
                " potential")

    def rho_and_g(p, ts):
        # One flag and one geodesic per covector: rho at it and
        # G(t) - G(0) at each of ts.
        flag = fl.flag_at(sys, x0, p)
        _require_ample(flag)
        geodesic = ham.Geodesic(sys, x0, p, rho_times([0.0]) + ts)
        g0, *g = gram_from(geodesic, flag, [0.0] + ts)
        return rho_from(geodesic, flag, [0.0])[0], np.array(g) - g0

    t_probe = list(SCALING_TIMES)
    base_rho, g_base = rho_and_g(
        p0, [c * t for c in factors for t in t_probe])
    worst_rho = 0.0
    worst_g = 0.0
    for c, g_c in zip(factors, g_base.reshape(len(factors), len(t_probe))):
        scaled, g_scaled = rho_and_g(c * p0, t_probe)
        # Relative where rho is of visible size, absolute where it
        # vanishes (both sides then agree near machine level anyway).
        denom = max(abs(c * base_rho), 1e-6)
        worst_rho = max(worst_rho, abs(scaled - c * base_rho) / denom)
        worst_g = max(worst_g, float(np.max(np.abs(g_scaled - g_c))))
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
        return float(np.dot(grad_fn(x), v))

    return field


def riemannian_divergence_check(sys, x0, p0):
    """Full-rank cross-check: the difference between the divergence of an
    admissible extension against the declared density and against the
    metric volume of the orthonormal frame equals rho at the base point.

    Returns a report dict with both divergences, their difference, the
    Gram-pipeline rho and the absolute gap."""
    if sys.rank != sys.dim:
        raise RhoError("the divergence check needs rank == dim")
    T = fl.admissible_extension(sys, x0, p0, 1)
    detF = geo.frame_determinant(sys)
    # The metric volume of an orthonormal frame has density 1/|det F|;
    # the determinant's sign cancels inside the logarithmic derivative.
    div_mu = geo.divergence(T, sys.density)
    div_vol = geo.divergence(T, ex.Div(ex.Const(1.0), detF))
    d_mu = ex.evaluate(div_mu, x0)
    d_vol = ex.evaluate(div_vol, x0)
    value = rho(sys, x0, p0)
    return {
        "div_mu": d_mu,
        "div_vol": d_vol,
        "difference": d_mu - d_vol,
        "rho": value,
        "gap": abs(d_mu - d_vol - value),
    }
