"""Independent checks and one-shot wrappers that only the tests use.

- flow and transition: the phase state, and its transition matrix, at
  one time.
- lie_series: the Taylor coefficients of the flow at t = 0 from symbolic
  Lie derivatives of the Hamiltonian field.
- full_jacobian_fn: the flow's Taylor evaluator with all (2n)^2 entries
  of the field's Jacobian as its extras, the build the flow used before
  it read the Hessian's upper triangle, kept as its reference.
- poisson_chain: the Taylor coefficients of the controls at t = 0 from
  symbolic Poisson brackets with the Hamiltonian.
- lie_bracket: the bracket of two symbolic vector fields.
- control_jet, the graded admissible extension (_extension_term,
  _extension_coefficient, _extension_fn), _time_gradient,
  _bracket_columns and symbolic_flag: the flag's levels as brackets
  (ad T)^j X_a of an admissible extension, the route the library's flag
  took before it read the flow's jets, kept as their reference.
- velocity_at and admissible_extension: the velocity from row 0 of the
  control jet, and the polynomial admissible extension as a plain vector
  field over the chart.
- divergence and frame_determinant: symbolic divergence against a
  density, and the determinant of a square frame.
- g_rel, rho_flow_from, rho_flow and scaling_checks: the running
  integral of rho, the volume-flow estimate of rho (the odd part of
  log r fitted on a window, a reference for rho.volume_series_from) on
  a geodesic and at one covector, and the homogeneity of both under
  covector scaling.
- exponent_probe_from: the log-log slope of the served volume ratios
  over a decade of small times, the estimate of N that analyze checked
  before it read the order of det A's series, kept as its reference.
- riemannian_rho_field and riemannian_divergence_check: the closed form
  of rho for a full-rank frame, and the divergence identity it satisfies.

Every function reaches the library through module attributes
(`fl.flag_from`, `ham.transition_many`, ...), so a test that counts calls
by monkeypatching one of them sees the calls made here as well.
"""

import math
import pathlib

import numpy as np

from geoflow import expr as ex
from geoflow import flag as fl
from geoflow.flag import FlagError, NonFiniteError
from geoflow import geometry as geo
from geoflow import hamiltonian as ham
from geoflow import rho as rh

# A structure file whose Hamiltonian field has every node kind: sin, cos,
# exp, log, sqrt, a quotient and a negative power, through its frame,
# drift and potential.  log(x1) leaves its domain at x1 = 0.
NODE_KINDS = pathlib.Path(__file__).with_name("node_kinds.json")

# Times t at which scaling_checks compares G_{c lambda}(t) with
# G_lambda(c t).
SCALING_TIMES = (0.05, 0.1, 0.2)

# The volume-flow estimate of rho samples RHO_FLOW_SAMPLES times on a
# geometric grid over RHO_FLOW_WINDOW, and their mirror images.
RHO_FLOW_WINDOW = (3e-2, 1.5e-1)
RHO_FLOW_SAMPLES = 20
RHO_FLOW_GRID = np.geomspace(*RHO_FLOW_WINDOW, RHO_FLOW_SAMPLES)

# The exponent probe fits PROBE_SAMPLES times on a geometric grid over
# PROBE_WINDOW.
PROBE_WINDOW = (1e-3, 1e-2)
PROBE_SAMPLES = 9
PROBE_GRID = np.geomspace(*PROBE_WINDOW, PROBE_SAMPLES)


# ----------------------------------------------------------------------
# The flow at one time


def transition(sys, x0, p0, t):
    """(x, p, M) at one time."""
    Z, M = ham.transition_many(sys, x0, p0, [t])
    return Z[0, :sys.dim], Z[0, sys.dim:], M[0]


def flow(sys, x0, p0, t):
    """(x, p) at one time."""
    return transition(sys, x0, p0, t)[:2]


def lie_series(sys, x0, p0, order):
    """(order + 1, 2n) array whose row k is L_F^k z / k! at (x0, p0): the
    order-k Taylor coefficients of the flow z = (x, p) at t = 0, each
    derivative along the Hamiltonian field F chained symbolically."""
    F = ham._hamiltonian_field(sys)
    point = np.concatenate([x0, p0]).tolist()
    rows = [[ex.Var(i) for i in range(len(F))]]
    for _ in range(order):
        rows.append([ex.simplify(ex.Add(tuple(
            ex.Mul((F[z], ex.diff(g, z))) for z in range(len(F)))))
            for g in rows[-1]])
    return np.array([[ex.evaluate(g, point) / math.factorial(k) for g in row]
                     for k, row in enumerate(rows)])


def full_jacobian_fn(sys):
    """The Taylor evaluator of the Hamiltonian field with its row-major
    Jacobian along the flow as the extras, each entry differentiated on
    its own: row k of the extras holds the order-k coefficients of DF."""
    def build():
        field = ham._hamiltonian_field(sys)
        jac = [ex.simplify(ex.diff(r, j))
               for r in field for j in range(len(field))]
        return ex.compile_taylor(field, jac)

    return sys.cached("full_jacobian_fn", build)


def poisson_chain(sys, x, p, order):
    """(k, order + 1) array whose (i, r) entry is u_i^(r) / r! at (x, p):
    the order-r Taylor coefficient of the control u_i along the flow, from
    u^(r+1) = {H, u^(r)} = sum_m dH/dp_m du/dx_m - dH/dx_m du/dp_m chained
    symbolically, with H differentiated afresh for every bracket."""
    n = sys.dim
    H = ham.hamiltonian(sys)
    point = np.concatenate([x, p]).tolist()
    rows = []
    for u in ham._control_exprs(sys):
        chain = [u]
        for _ in range(order):
            terms = []
            for m in range(n):
                terms.append(ex.Mul((ex.diff(H, n + m),
                                     ex.diff(chain[-1], m))))
                terms.append(ex.Mul((ex.MINUS_ONE, ex.diff(H, m),
                                     ex.diff(chain[-1], n + m))))
            chain.append(ex.simplify(ex.Add(tuple(terms))))
        rows.append([ex.evaluate(g, point) / math.factorial(r)
                     for r, g in enumerate(chain)])
    return np.array(rows)


# ----------------------------------------------------------------------
# Brackets


def lie_bracket(v, w):
    """Lie bracket [v, w], differentiating with respect to the chart
    variables, one per component.

    Components may legitimately mention variables beyond the chart (frozen
    parameters); those are treated as constants.
    """
    if v.dim != w.dim:
        raise geo.GeometryError("bracket of fields of different dimension")
    comps = []
    for j in range(v.dim):
        terms = []
        for i in range(v.dim):
            dw = ex.diff(w.components[j], i)
            if not (isinstance(dw, ex.Const) and dw.value == 0.0):
                terms.append(ex.Mul((v.components[i], dw)))
            dv = ex.diff(v.components[j], i)
            if not (isinstance(dv, ex.Const) and dv.value == 0.0):
                terms.append(ex.Mul((ex.MINUS_ONE, w.components[i], dv)))
        comps.append(ex.simplify(ex.Add(tuple(terms))) if terms else ex.ZERO)
    return geo.VectorField(tuple(comps))


# ----------------------------------------------------------------------
# The symbolic flag: the control jet and the graded admissible extension
#
# The library reads the flag from the flow's jets (flag._jacobi_columns).
# This is the independent route it replaced: the brackets (ad T)^j X_a of
# an admissible extension T of the velocity, built symbolically once per
# structure and bound to each covector's control jet.


def control_jet(sys, x, p, order):
    """Control jet at a covector: array of shape (k, order+1) whose
    (i, r) entry is the order-r Taylor coefficient of u_i(t) at t = 0,
    from the Taylor evaluator of the Hamiltonian field with the controls
    as its extra expressions.  Stacks (P, n) of points x and p give the
    (P, k, order+1) jets of their covectors in one evaluator call."""
    fn = sys.cached("control_fn", lambda: ex.compile_taylor(
        ham._hamiltonian_field(sys), ham._control_exprs(sys)))
    return np.swapaxes(fn(np.concatenate([x, p], axis=-1), order + 1)[1],
                       -1, -2)


# ----------------------------------------------------------------------
# The graded extension and its bracket columns.
#
# Variables: x in [0, n), alpha in [n, 2n), and the control jet c[i][r] at
# 2n + r*k + i.  With S a formal time function (dS = alpha.dx, S = 0 at
# the base point), T = sum_r S^r T_r, T_0 = X_0 + sum_i c_i0 X_i and
# T_r = sum_i c_ir X_i, c_ir being the order-r Taylor coefficient of u_i.
# Fields are held as S-coefficients, bracketed by
#   [S^r A, S^m B] = S^(r+m) [A, B] + S^(r+m-1) (m (alpha.A) B - r (alpha.B) A).
# Only S^0 is evaluated, at the base point.  A bracket lowers the degree by
# at most one, so level l of (ad T)^j X_a needs the degrees <= j - l only.


def _extension_term(sys, r):
    """T_r as a vector field over (x, alpha, c)."""
    def build():
        n, k = sys.dim, sys.rank
        return geo.VectorField(tuple(ex.simplify(ex.Add(tuple(
            ([sys.X0.components[q]] if r == 0 else [])
            + [ex.Mul((ex.Var(2 * n + r * k + i),
                       sys.frame[i].components[q])) for i in range(k)])))
            for q in range(n)))

    return sys.cached(("ext_T", r), build)


def _extension_coefficient(sys, level, degree):
    """The S^degree coefficients of (ad T)^level X_a, one field per a."""
    if level == 0:
        return sys.frame if degree == 0 else ()

    def along_alpha(scale, W):
        return ex.simplify(ex.Mul((ex.Const(float(scale)), ex.Add(tuple(
            ex.Mul((ex.Var(sys.dim + q), c))
            for q, c in enumerate(W.components))))))

    def build():
        terms = [[[] for _ in range(sys.dim)] for _ in range(sys.rank)]
        for m in range(degree + 2):
            # (T_(r-1), W_m) give the bracket term of degree r - 1 + m, and
            # (T_r, W_m) the terms where S is differentiated.
            r = degree + 1 - m
            T = _extension_term(sys, r)
            aT = along_alpha(m, T)
            for a, W in enumerate(_extension_coefficient(sys, level - 1, m)):
                parts = [[ex.Mul((aT, c)) for c in W.components]] if m else []
                if r:
                    aW = along_alpha(-r, W)
                    parts += [lie_bracket(_extension_term(sys, r - 1),
                                          W).components,
                              [ex.Mul((aW, c)) for c in T.components]]
                for part in parts:
                    for q, c in enumerate(part):
                        terms[a][q].append(c)
        return tuple(geo.VectorField(tuple(ex.simplify(ex.Add(tuple(t)))
                                           for t in comps))
                     for comps in terms)

    return sys.cached(("ext_coef", level, degree), build)


def _extension_fn(sys, j):
    """Evaluator of (ad T)^j X_a at the base point, over (x, alpha, c)."""
    return sys.cached(("ext_fn", j), lambda: ex.compile_exprs(
        [c for W in _extension_coefficient(sys, j, 0) for c in W.components]))


def _time_gradient(drifts, frames, us):
    """alpha = v/|v|^2 for the velocity v = X_0 + frame @ u at each point
    of a stack, so that the time function S grows at unit rate along the
    trajectory.  Returns the (P, n) alphas and {row: error} for the points
    whose |v|^2 is not finite (NonFiniteError) or is at most 1e-24 times
    the squared size of its terms X_0 and F_a u_a (FlagError, stationary
    whatever the scale of the covector)."""
    alphas = np.zeros(drifts.shape)
    errors = {}
    with np.errstate(over="ignore", invalid="ignore"):
        sizes = (np.sum(np.square(drifts), axis=1) + np.sum(
            np.square(frames * us[:, None, :]), axis=(1, 2))).tolist()
        for i, (drift, frame, u) in enumerate(zip(drifts, frames, us)):
            v = drift + frame @ u
            norm2 = float(np.dot(v, v))
            if not math.isfinite(norm2):
                errors[i] = NonFiniteError("the squared velocity is not"
                                           " finite at this covector")
            elif norm2 <= 1e-24 * sizes[i]:
                errors[i] = FlagError("the trajectory is stationary at this"
                                      " covector")
            else:
                alphas[i] = v / norm2
    return alphas, errors


def _bracket_columns(sys, x, alpha, jet):
    """(n, k) array whose columns are (ad T)^j X_a at x, j >= 1, where
    `jet` is the control jet to order j at the point and alpha its
    _time_gradient; stacks of points give a stack of arrays."""
    j = jet.shape[-1] - 1
    c = np.swapaxes(jet, -1, -2).reshape(jet.shape[:-2] + (-1,))
    vals = _extension_fn(sys, j)(np.concatenate([x, alpha, c], axis=-1))
    return np.swapaxes(vals.reshape(vals.shape[:-1] + (sys.rank, sys.dim)),
                       -1, -2)


def symbolic_flag(sys, x, p):
    """(raw ranks, level columns) of the flag at one covector from the
    graded extension: level 0 the frame, level j the columns (ad T)^j X_a,
    ranked as flag ranks them, with column-normalized singular values at
    RANK_TOL, up to full rank, two no-gain levels or the cap dim + 2."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    frame = sys.frame_matrix(x)
    [alpha], errors = _time_gradient(sys.drift_at(x[None]), frame[None],
                                     control_jet(sys, x, p, 0)[None, :, 0])
    if errors:
        raise errors[0]
    columns, ranks, rows = [frame], [], np.zeros((0, sys.dim))
    while True:
        norms = np.linalg.norm(columns[-1], axis=0)
        rows = np.concatenate([rows, (columns[-1] / np.where(
            norms > 0.0, norms, 1.0)).T])
        sv = np.linalg.svd(rows.T, compute_uv=False)
        ranks.append(int(np.sum(sv > fl.RANK_TOL * sv[0])))
        if fl._closed(ranks, sys.dim) or len(ranks) == sys.dim + 2:
            return tuple(ranks), columns
        columns.append(_bracket_columns(sys, x, alpha, control_jet(
            sys, x, p, len(columns))))


def symbolic_gram(geodesic, raw_ranks, times):
    """{t: G(t)} at the given times of the geodesic, from the symbolic
    flag's columns at each served state (x(t), p(t)) and the auxiliary
    completion gram_from chooses at the base point."""
    sys = geodesic.sys
    comp = geo.aux_frame_at(sys, geodesic.x0).complement
    xs, ps, _ = geodesic.at(times)
    gram = {}
    for t, x, p in zip(times, xs, ps):
        _, columns = symbolic_flag(sys, x, p)
        [logs] = rh._gram_log_of_levels(
            geo.aux_frame_at(sys, x[None], comp).matrix, raw_ranks,
            [C[None] for C in columns[:len(raw_ranks)]])
        gram[t] = 0.5 * float(np.sum(logs))
    return gram


# ----------------------------------------------------------------------
# The velocity and the admissible extension


def velocity_at(sys, x, p):
    """gammadot = X_0(x) + sum_a u_a X_a(x), the controls u being row 0
    of the control jet."""
    u = control_jet(sys, x, p, 0)[:, 0]
    return sys.drift_at(x) + sys.frame_matrix(x) @ u


def admissible_extension(sys, x, p, order):
    """The polynomial admissible extension around (x, p) to the given jet
    order, as a plain vector field over the chart: sum_r s^r T_r with
    s(x) = <alpha, x - x0> and the jet coefficients bound to their
    values."""
    x = np.asarray(x, dtype=float)
    jet = control_jet(sys, x, p, order)
    [alpha], _ = _time_gradient(sys.drift_at(x[None]),
                                sys.frame_matrix(x[None]), jet[None, :, 0])
    binding = {2 * sys.dim + i: float(c) for i, c in enumerate(jet.T.ravel())}
    s = ex.Add(tuple(ex.Mul((ex.Const(a), ex.Add((ex.Var(q), ex.Const(-xq)))))
                     for q, (a, xq) in enumerate(zip(alpha, x))))
    Ts = [_extension_term(sys, r) for r in range(order + 1)]
    return geo.VectorField(tuple(ex.simplify(ex.Add(tuple(
        ex.Mul((ex.Pow(s, r), ex.substitute(T.components[q], binding)))
        for r, T in enumerate(Ts)))) for q in range(sys.dim)))


# ----------------------------------------------------------------------
# Divergence and the frame determinant


def divergence(f, density=None):
    """Divergence of a vector field, optionally against a density:
    sum_i d_i f^i + (sum_i f^i d_i m)/m.

    The density's sign cancels in the logarithmic derivative, so an
    orientation-dependent determinant may be passed directly.
    """
    n = f.dim
    terms = [ex.diff(f.components[i], i) for i in range(n)]
    if density is not None:
        grad = [ex.diff(density, i) for i in range(n)]
        terms.extend(ex.Div(ex.Mul((f.components[i], grad[i])), density)
                     for i in range(n))
    return ex.simplify(ex.Add(tuple(terms)))


def frame_determinant(sys):
    """Symbolic determinant of the square frame matrix (rank == dim only);
    cofactor expansion is fine at these sizes."""
    if sys.rank != sys.dim:
        raise geo.GeometryError("frame determinant needs rank == dim")
    rows = [[f.components[i] for f in sys.frame] for i in range(sys.dim)]

    def det(rs):
        if len(rs) == 1:
            return rs[0][0]
        total = []
        for j in range(len(rs)):
            minor = [r[:j] + r[j + 1:] for r in rs[1:]]
            factors = (rs[0][j], det(minor))
            total.append(ex.Mul(factors if j % 2 == 0
                                else (ex.MINUS_ONE,) + factors))
        return ex.Add(tuple(total))

    return ex.simplify(det(rows))


# ----------------------------------------------------------------------
# rho at one covector: the running integral, the volume flow, scaling


def g_rel(sys, x0, p0, t):
    """G(t) - G(0): the running integral of rho along the trajectory."""
    geodesic = ham.Geodesic(sys, x0, p0)
    flag = fl.flag_from(geodesic)
    rh._require_ample(flag)
    scalar = np.isscalar(t)
    ts = [float(t)] if scalar else [float(v) for v in t]
    gram = rh.gram_from(geodesic, flag, ts + [0.0])
    out = [gram[t] - gram[0.0] for t in ts]
    return out[0] if scalar else np.array(out)


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
    ys = rh.log_volume_ratios_from(geodesic, list(RHO_FLOW_GRID)
                                   + list(-RHO_FLOW_GRID))
    shift = dimension * np.log(RHO_FLOW_GRID)
    odd = 0.5 * ((ys[:samples] - shift) - (ys[samples:] - shift))
    tau = RHO_FLOW_GRID / t_hi
    A = np.column_stack([tau ** j for j in (1, 3, 5, 7)])
    coef, *_ = np.linalg.lstsq(A, odd, rcond=None)
    resid = float(np.max(np.abs(A @ coef - odd)))
    if resid > 1e-4:
        raise rh.RhoError(
            "volume-flow fit residual %.3g exceeds 1e-4; the expansion"
            " window is unusable at this covector" % resid)
    return float(coef[0] / t_hi)


def rho_flow(sys, x0, p0, dimension=None):
    """rho_flow_from on a geodesic of its own; the dimension defaults to
    that of the flag at (x0, p0)."""
    geodesic = ham.Geodesic(sys, x0, p0)
    if dimension is None:
        dimension = fl.flag_from(geodesic).dimension
    return rho_flow_from(geodesic, dimension)


def exponent_probe_from(geodesic):
    """Log-log slope of the volume ratio over a decade of small times; an
    estimate of the exponent N that never consults the flag."""
    log_r = rh.log_volume_ratios_from(geodesic, PROBE_GRID)
    A = np.column_stack([np.ones(PROBE_SAMPLES), np.log(PROBE_GRID)])
    coef, *_ = np.linalg.lstsq(A, log_r, rcond=None)
    return float(coef[1])


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
            raise rh.RhoError(
                "scaling checks need a structure with no drift and no"
                " potential")

    def rho_and_g(p, ts):
        # One flag and one geodesic per covector: rho at it and
        # G(t) - G(0) at each of ts.
        geodesic = ham.Geodesic(sys, x0, p)
        flag = fl.flag_from(geodesic)
        rh._require_ample(flag)
        gram = rh.gram_from(geodesic, flag,
                            rh.rho_times() + [0.0] + ts)
        return (rh.rho_from(gram),
                np.array([gram[float(t)] for t in ts]) - gram[0.0])

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


# ----------------------------------------------------------------------
# The full-rank closed form of rho


def riemannian_rho_field(sys):
    """For a full-rank frame, rho is the directional derivative of
    log(density * det frame) along the velocity; returns a function of
    (x, p) evaluating that formula symbolically.  An independent check of
    the Gram pipeline in the full-rank case."""
    if sys.rank != sys.dim:
        raise rh.RhoError("the closed form needs rank == dim")
    detF = frame_determinant(sys)
    n = sys.dim
    log_terms = []
    for i in range(n):
        num = ex.Add((ex.Mul((ex.diff(sys.density, i), detF)),
                      ex.Mul((sys.density, ex.diff(detF, i)))))
        den = ex.Mul((sys.density, detF))
        log_terms.append(ex.simplify(ex.Div(num, den)))
    grad_fn = ex.compile_exprs(log_terms)

    def field(x, p):
        v = velocity_at(sys, x, p)
        return float(np.dot(grad_fn(x), v))

    return field


def riemannian_divergence_check(sys, x0, p0):
    """Full-rank cross-check: the difference between the divergence of an
    admissible extension against the declared density and against the
    metric volume of the orthonormal frame equals rho at the base point.

    Returns a report dict with both divergences, their difference, the
    Gram-pipeline rho and the absolute gap."""
    if sys.rank != sys.dim:
        raise rh.RhoError("the divergence check needs rank == dim")
    T = admissible_extension(sys, x0, p0, 1)
    detF = frame_determinant(sys)
    # The metric volume of an orthonormal frame has density 1/|det F|;
    # the determinant's sign cancels inside the logarithmic derivative.
    div_mu = divergence(T, sys.density)
    div_vol = divergence(T, ex.Div(ex.Const(1.0), detF))
    d_mu = ex.evaluate(div_mu, x0)
    d_vol = ex.evaluate(div_vol, x0)
    value = rh.rho(sys, x0, p0)
    return {
        "div_mu": d_mu,
        "div_vol": d_vol,
        "difference": d_mu - d_vol,
        "rho": value,
        "gap": abs(d_mu - d_vol - value),
    }
