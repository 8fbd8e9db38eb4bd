"""Independent checks and one-shot wrappers that only the tests use.

- flow and transition: the phase state, and its transition matrix, at
  one time.
- lie_series: the Taylor coefficients of the flow at t = 0 from symbolic
  Lie derivatives of the Hamiltonian field.
- poisson_chain: the Taylor coefficients of the controls at t = 0 from
  symbolic Poisson brackets with the Hamiltonian.
- velocity_at and admissible_extension: the velocity from row 0 of the
  control jet, and the polynomial admissible extension as a plain vector
  field over the chart.
- divergence and frame_determinant: symbolic divergence against a
  density, and the determinant of a square frame.
- g_rel, rho_flow and scaling_checks: the running integral of rho, the
  volume-flow estimate of rho at one covector, and the homogeneity of
  both under covector scaling.
- riemannian_rho_field and riemannian_divergence_check: the closed form
  of rho for a full-rank frame, and the divergence identity it satisfies.

Every function reaches the library through module attributes
(`fl.flag_at`, `ham.transition_many`, ...), so a test that counts calls
by monkeypatching one of them sees the calls made here as well.
"""

import math
import pathlib

import numpy as np

from geoflow import expr as ex
from geoflow import flag as fl
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
# The velocity and the admissible extension


def velocity_at(sys, x, p):
    """gammadot = X_0(x) + sum_a u_a X_a(x), the controls u being row 0
    of the control jet."""
    u = fl.control_jet(sys, x, p, 0)[:, 0]
    return sys.drift_at(x) + sys.frame_matrix(x) @ u


def admissible_extension(sys, x, p, order):
    """The polynomial admissible extension around (x, p) to the given jet
    order, as a plain vector field over the chart: sum_r s^r T_r with
    s(x) = <alpha, x - x0> and the jet coefficients bound to their
    values."""
    x = np.asarray(x, dtype=float)
    jet = fl.control_jet(sys, x, p, order)
    [alpha], _ = fl._time_gradient(sys.drift_at(x[None]),
                                   sys.frame_matrix(x[None]), jet[None, :, 0])
    binding = {2 * sys.dim + i: float(c) for i, c in enumerate(jet.T.ravel())}
    s = ex.Add(tuple(ex.Mul((ex.Const(a), ex.Add((ex.Var(q), ex.Const(-xq)))))
                     for q, (a, xq) in enumerate(zip(alpha, x))))
    Ts = [fl._extension_term(sys, r) for r in range(order + 1)]
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
    flag = fl.flag_at(sys, x0, p0)
    rh._require_ample(flag)
    scalar = np.isscalar(t)
    ts = [float(t)] if scalar else [float(v) for v in t]
    geodesic = ham.Geodesic(sys, x0, p0, ts)
    gram = rh.gram_from(geodesic, flag, ts + [0.0])
    out = [gram[t] - gram[0.0] for t in ts]
    return out[0] if scalar else np.array(out)


def rho_flow(sys, x0, p0, dimension=None):
    """rho_flow_from on a geodesic integrated for its times alone; the
    dimension defaults to that of the flag at (x0, p0)."""
    if dimension is None:
        dimension = fl.flag_at(sys, x0, p0).dimension
    geodesic = ham.Geodesic(sys, x0, p0, rh.rho_flow_times())
    return rh.rho_flow_from(geodesic, dimension)


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
        flag = fl.flag_at(sys, x0, p)
        rh._require_ample(flag)
        times = rh.rho_times() + [0.0] + ts
        geodesic = ham.Geodesic(sys, x0, p, times)
        gram = rh.gram_from(geodesic, flag, times)
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
