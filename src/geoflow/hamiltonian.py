"""Hamiltonian flow of an affine control structure, with exact variational
transition matrices.

The Hamiltonian on the chart cotangent bundle is

    H(p, x) = 1/2 sum_a <p, X_a(x)>^2 + <p, X_0(x)> + 1/2 Q(x)

and trajectories solve xdot = dH/dp, pdot = -dH/dx.  The transition matrix
solves the variational system Mdot = DF(z) M with M(0) = I, so its upper
right n-by-n block is the Jacobian of the endpoint with respect to the
initial covector.  Both are flowed as Taylor series: one jet of order
ORDER at t = 0 serves every time within its step, on either side.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex

__all__ = [
    "IntegrationError", "Geodesic", "hamiltonian", "transition_many",
    "vertical_jacobian", "signed_log_det",
]

# Relative size, against the state and the transition matrix, of the
# last Taylor terms a step may keep; it sets the step of the Taylor flow.
DEFAULT_TOL = 1e-12

# Order of the flow's Taylor jets, and the most jets one call computes.
ORDER = 20
_MAX_JETS = 50000

# Accepted relative wander of the conserved Hamiltonian along a flow.
ENERGY_SLACK = 1e-8


class IntegrationError(RuntimeError):
    """The flow failed; carries the last trusted time."""

    def __init__(self, message, t_last=None):
        super().__init__(message)
        self.t_last = t_last


# ----------------------------------------------------------------------
# Symbolic assembly, compiled once per structure


def hamiltonian(sys):
    """The Hamiltonian as an expression over (x1..xn, p1..pn)."""
    return sys.cached("ham_expr", lambda: _build_hamiltonian(sys))


def _pairing(sys, f):
    """<p, f(x)> as an expression over (x, p)."""
    n = sys.dim
    return ex.simplify(ex.Add(tuple(
        ex.Mul((ex.Var(n + i), f.components[i])) for i in range(n))))


def _control_exprs(sys):
    """The controls u_a = <p, X_a(x)> as expressions over (x, p)."""
    return [_pairing(sys, f) for f in sys.frame]


def _build_hamiltonian(sys):
    quad = [ex.Pow(u, 2) for u in _control_exprs(sys)]
    return ex.simplify(ex.Add((
        ex.Mul((ex.Const(0.5), ex.Add(tuple(quad)))),
        _pairing(sys, sys.X0),
        ex.Mul((ex.Const(0.5), sys.Q)),
    )))


def _hamiltonian_field(sys):
    """The Hamiltonian vector field (dH/dp, -dH/dx) over (x, p), one
    simplified expression per phase coordinate.  It is derived once per
    structure, and two Taylor evaluators compile it: the flow's, and the
    control jet's, which carries the controls along it."""
    def build():
        n = sys.dim
        H = hamiltonian(sys)
        return tuple(
            [ex.simplify(ex.diff(H, n + i)) for i in range(n)]
            + [ex.simplify(ex.Mul((ex.MINUS_ONE, ex.diff(H, i))))
               for i in range(n)])

    return sys.cached("field", build)


def _taylor_fn(sys):
    """The Taylor evaluator of the Hamiltonian field, with the field's
    row-major Jacobian along the flow as its extra expressions, so the
    two share their common subexpressions."""
    def build():
        field = _hamiltonian_field(sys)
        jac = [ex.simplify(ex.diff(r, j))
               for r in field for j in range(len(field))]
        return ex.compile_taylor(field, jac)

    return sys.cached("taylor_fn", build)


def energy_at(sys, x, p):
    fn = sys.cached("ham_fn", lambda: ex.compile_exprs([hamiltonian(sys)]))
    return float(fn(np.concatenate([x, p]))[0])


# ----------------------------------------------------------------------
# The Taylor-series flow


def _jet(sys, z, M, t, tol):
    """The coefficients of order 0..ORDER of z = (x, p) and of the
    transition matrix Phi from the point z, reached at time t with
    transition matrix M, one row per order; and the step they serve.

    Phi_{k+1} = (1/(k+1)) sum_{j<=k} J_j Phi_{k-j} with Phi_0 = I, J_j
    being the coefficients of the field's Jacobian along the flow.  The
    step, from the decay of the last two orders j (Jorba & Zou,
    Experimental Mathematics 14, 2005), is
    h = 0.5 min_j (tol max(1, |z|, |M|) / |c_j|)^(1/j), c_j holding the
    order-j coefficients of z and Phi together, in max-norms."""
    m = z.size
    Z, E = _taylor_fn(sys)(z, ORDER)
    J = E.reshape(ORDER, m, m)
    Phi = np.empty((ORDER + 1, m, m))
    Phi[0] = np.eye(m)
    for k in range(ORDER):
        Phi[k + 1] = np.tensordot(J[:k + 1], Phi[k::-1],
                                  ([0, 2], [0, 1])) / (k + 1)
    C = np.concatenate([Z, Phi.reshape(ORDER + 1, m * m)], axis=1)
    if not np.all(np.isfinite(C)):
        raise IntegrationError("the flow's Taylor series is not finite at"
                               " t=%r" % t, t_last=t)
    scale = tol * max(1.0, np.max(np.abs(z)), np.max(np.abs(M)))
    last = np.max(np.abs(C[-2:]), axis=1)
    h = 0.5 * float(min((scale / last[0]) ** (1 / (ORDER - 1)),
                        (scale / last[1]) ** (1 / ORDER)))
    return C, h


# Jets and their sums may overflow: the finiteness and energy checks
# classify that, so numpy stays silent.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def transition_many(sys, x0, p0, times, tol=DEFAULT_TOL):
    """Phase states (x, p) as a (len(times), 2n) array and the full 2n-by-2n
    variational transition matrices as a (len(times), 2n, 2n) array, at
    the requested times (any signs, any order, repeats allowed), in the
    order of `times`.  The energy is checked at every distinct time.

    One jet at t = 0 serves both signs of time; times beyond its step
    take one more jet per step outward.  A time s from a jet's point is
    z and Phi_0 = I plus one correction each, sum_{k>=1} c_k s^k, summed
    by Horner and added once."""
    n = sys.dim
    m = 2 * n
    z0 = np.concatenate([x0, p0]).astype(float)
    e0 = energy_at(sys, z0[:n], z0[n:])

    def checked(t, z):
        # z, once its energy is within ENERGY_SLACK of the start's; a
        # non-finite energy never is.
        drift = abs(energy_at(sys, z[:n], z[n:]) - e0)
        if not drift <= ENERGY_SLACK * (1.0 + abs(e0)):
            raise IntegrationError(
                "energy drifted by %r at t=%r" % (drift, t), t_last=t)
        return z

    found = {0.0: (checked(0.0, z0), np.eye(m))} if 0.0 in times else {}
    if any(t != 0.0 for t in times):
        start = _jet(sys, z0, np.eye(m), 0.0, tol)
    jets = 1
    for sign in (-1.0, 1.0):
        targets = sorted({t for t in times if t * sign > 0}, key=abs)
        if not targets:
            continue
        t, z, M, (C, h) = 0.0, z0, np.eye(m), start
        while targets:
            inside = [u for u in targets if (u - t) * sign <= h]
            targets = targets[len(inside):]
            offsets = [u - t for u in inside]
            if targets:
                if h < 1e-14 * max(1.0, abs(t)):
                    raise IntegrationError("flow blew up near t=%r" % t,
                                           t_last=t)
                if jets == _MAX_JETS:
                    raise IntegrationError("jet limit reached at t=%r" % t,
                                           t_last=t)
                offsets.append(sign * h)
            s = np.array(offsets)[:, None]
            acc = C[-1] * s
            for row in C[-2:0:-1]:
                acc = (acc + row) * s
            Z = z + acc[:, :m]
            Ms = (np.eye(m) + acc[:, m:].reshape(-1, m, m)) @ M
            for u, zu, Mu in zip(inside, Z, Ms):
                found[u] = (checked(u, zu), Mu)
            if targets:
                t, z, M = t + sign * h, Z[-1], Ms[-1]
                C, h = _jet(sys, z, M, t, tol)
                jets += 1
    return (np.array([found[t][0] for t in times]).reshape(len(times), m),
            np.array([found[t][1] for t in times]).reshape(-1, m, m))


class Geodesic:
    """The trajectory of one covector and its variational matrix, flowed
    in one call at the union of the times every stage reading it asks for.

    Stages split into the times they need and a function of the geodesic;
    a caller collects the times first, builds one Geodesic, and each stage
    reads its (x, p, M) stacks back by exact requested time.  Time 0 is
    always available."""

    def __init__(self, sys, x0, p0, times, tol=DEFAULT_TOL):
        self.sys = sys
        self.x0 = np.asarray(x0, dtype=float)
        self.p0 = np.asarray(p0, dtype=float)
        distinct = sorted({0.0, *(float(t) for t in times)})
        self._index = {t: i for i, t in enumerate(distinct)}
        self._z, self._M = transition_many(sys, self.x0, self.p0, distinct,
                                           tol)

    def at(self, times):
        """(x, p, M) stacks at times this geodesic was built for, one row
        per time in the order given."""
        rows = []
        for t in times:
            i = self._index.get(float(t))
            if i is None:
                raise KeyError("t=%r is not among the times this geodesic"
                               " was integrated to" % (t,))
            rows.append(i)
        z = self._z[rows]
        return z[:, :self.sys.dim], z[:, self.sys.dim:], self._M[rows]


def vertical_jacobian(M, n):
    """d x(t) / d p(0): the upper right block of each transition matrix of
    a stack (..., 2n, 2n)."""
    return M[..., :n, n:2 * n]


def signed_log_det(A):
    """(sign, log|det|) after row and column max-abs equilibration, of one
    matrix or of each matrix of a stack (..., n, n).  A matrix with a zero
    row or column, or a zero pivot, gives (0, -inf).

    Graded Jacobians have rows and columns spanning many decades; the
    balanced determinant keeps full relative accuracy where a plain LU
    would not.  LAPACK factors each matrix of a stack on its own, so a
    stacked entry equals the one-matrix value.
    """
    A = np.asarray(A, dtype=float)
    stack = A.reshape((-1,) + A.shape[-2:])
    r = np.max(np.abs(stack), axis=2)
    c = np.max(np.abs(stack), axis=1)
    live = np.all(r != 0.0, axis=1) & np.all(c != 0.0, axis=1)
    sign = np.zeros(len(stack))
    total = np.full(len(stack), -math.inf)
    r = r[live]
    B = stack[live] / r[:, :, None]
    c = np.max(np.abs(B), axis=1)
    sign[live], logdet = np.linalg.slogdet(B / c[:, None, :])
    total[live] = logdet + np.sum(np.log(r), axis=1) + np.sum(np.log(c),
                                                              axis=1)
    if A.ndim == 2:
        return float(sign[0]), float(total[0])
    return sign.reshape(A.shape[:-2]), total.reshape(A.shape[:-2])
