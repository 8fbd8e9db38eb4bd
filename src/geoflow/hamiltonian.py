"""Hamiltonian flow of an affine control structure, with exact variational
transition matrices.

The Hamiltonian on the chart cotangent bundle is

    H(p, x) = 1/2 sum_a <p, X_a(x)>^2 + <p, X_0(x)> + 1/2 Q(x)

and trajectories solve xdot = dH/dp, pdot = -dH/dx.  The transition matrix
solves the variational system Mdot = DF(z) M with M(0) = I, so its upper
right n-by-n block is the Jacobian of the endpoint with respect to the
initial covector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex

__all__ = [
    "IntegrationError", "FlowSample", "Geodesic", "hamiltonian",
    "controls_at", "flow", "transition", "transition_many",
    "vertical_jacobian", "signed_log_det", "volume_ratio",
    "log_volume_ratio",
]

# Simulated relative accuracy for the adaptive integrator.
DEFAULT_TOL = 1e-12

# Accepted relative wander of the conserved Hamiltonian along a flow.
ENERGY_SLACK = 1e-8


class IntegrationError(RuntimeError):
    """Adaptive integration failed; carries the last trusted time."""

    def __init__(self, message, t_last=None, state=None):
        super().__init__(message)
        self.t_last = t_last
        self.state = state


@dataclass(frozen=True)
class FlowSample:
    """One point of a trajectory: time, position, covector, the control
    values u_a = <p, X_a(x)>, the energy there, and its drift from t=0."""

    t: float
    x: np.ndarray
    p: np.ndarray
    controls: np.ndarray
    energy: float
    energy_drift: float

    @property
    def phase(self):
        return np.concatenate([self.x, self.p])


# ----------------------------------------------------------------------
# Symbolic assembly, compiled once per structure


def hamiltonian(sys):
    """The Hamiltonian as an expression over (x1..xn, p1..pn)."""
    cached = sys._cache.get("ham_expr")
    if cached is not None:
        return cached
    n = sys.dim
    p = [ex.Var(n + i) for i in range(n)]

    def pair(f):
        return ex.Add(tuple(ex.Mul((p[i], f.components[i])) for i in range(n)))

    quad = [ex.Pow(pair(f), 2) for f in sys.frame]
    H = ex.Add((
        ex.Mul((ex.Const(0.5), ex.Add(tuple(quad)))),
        pair(sys.X0),
        ex.Mul((ex.Const(0.5), sys.Q)),
    ))
    H = ex.simplify(H)
    sys._cache["ham_expr"] = H
    return H


def _compiled(sys, key):
    fn = sys._cache.get(key)
    if fn is not None:
        return fn
    n = sys.dim
    H = hamiltonian(sys)
    if key == "ham_fn":
        fn = ex.compile_exprs([H])
    elif key == "rhs_fn":
        rhs = [ex.simplify(ex.diff(H, n + i)) for i in range(n)]
        rhs += [ex.simplify(ex.Neg(ex.diff(H, i))) for i in range(n)]
        sys._cache["rhs_exprs"] = rhs
        fn = ex.compile_exprs(rhs)
    elif key == "jac_fn":
        _compiled(sys, "rhs_fn")
        rhs = sys._cache["rhs_exprs"]
        jac = [ex.simplify(ex.diff(r, j)) for r in rhs for j in range(2 * n)]
        fn = ex.compile_exprs(jac)
    elif key == "controls_fn":
        p = [ex.Var(n + i) for i in range(n)]
        us = [ex.simplify(ex.Add(tuple(
            ex.Mul((p[i], f.components[i])) for i in range(n))))
            for f in sys.frame]
        fn = ex.compile_exprs(us)
    else:
        raise KeyError(key)
    sys._cache[key] = fn
    return fn


def energy_at(sys, x, p):
    fn = _compiled(sys, "ham_fn")
    return float(fn(list(x) + list(p))[0])


def controls_at(sys, x, p):
    fn = _compiled(sys, "controls_fn")
    return np.array(fn(list(x) + list(p)), dtype=float)


# ----------------------------------------------------------------------
# Dormand-Prince 5(4) with FSAL and a PI step controller

_A = tuple(np.array(row) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
))
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# Difference between the 5th and embedded 4th order weights (k7 = FSAL).
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])

_MAX_STEPS = 200000


def _safe(f):
    def g(y):
        try:
            out = f(y)
        except (OverflowError, ValueError, ZeroDivisionError):
            return np.full(len(y), np.nan)
        return out
    return g


def _initial_step(f, y0, f0, direction, rtol, atol):
    sc = atol + rtol * np.abs(y0)
    d0 = math.sqrt(float(np.mean((y0 / sc) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / sc) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = f(y1)
    d2 = math.sqrt(float(np.mean(((f1 - f0) / sc) ** 2))) / h0
    h1 = 1e-6
    if math.isfinite(d2) and max(d1, d2) > 1e-15:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    elif math.isfinite(d2):
        h1 = max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1)


def _integrate(f, y0, targets, rtol, atol):
    """Integrate ydot = f(y) from t=0, yielding the state at each target
    time.  Targets must be strictly monotone with a common sign; the flow
    is continued from one target to the next rather than restarted."""
    f = _safe(f)
    y = np.asarray(y0, dtype=float).copy()
    t = 0.0
    k1 = f(y)
    if not np.all(np.isfinite(k1)):
        raise IntegrationError("vector field undefined at the start",
                               t_last=0.0, state=y)
    direction = 1.0 if targets[0] > 0 else -1.0
    h = _initial_step(f, y, k1, direction, rtol, atol)
    err_prev = 1.0
    # The seven stage derivatives, one row each; every stage combination
    # is one coefficient-row product against the rows above it.
    K = np.empty((7, y.size))
    out = []
    steps = 0
    for target in targets:
        while (target - t) * direction > 1e-15 * max(1.0, abs(target)):
            steps += 1
            if steps > _MAX_STEPS:
                raise IntegrationError(
                    "step limit reached at t=%r" % t, t_last=t, state=y)
            h = min(h, abs(target - t))
            if not h > 0 or not np.all(np.isfinite(y)):
                raise IntegrationError(
                    "flow lost accuracy at t=%r" % t, t_last=t, state=y)
            hs = h * direction
            with np.errstate(over="ignore", invalid="ignore"):
                K[0] = k1
                for i in range(1, 6):
                    K[i] = f(y + hs * (_A[i] @ K[:i]))
                y_new = y + hs * (_B @ K[:6])
                K[6] = f(y_new)
                err_vec = hs * (_E @ K)
                sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
                err = math.sqrt(float(np.mean((err_vec / sc) ** 2)))
            if not math.isfinite(err):
                h *= 0.1
                if h < 1e-14 * max(1.0, abs(t)):
                    raise IntegrationError(
                        "flow blew up near t=%r" % t, t_last=t, state=y)
                continue
            if err <= 1.0:
                t = t + hs
                y = y_new
                k1 = K[6].copy()
                grow = 0.9 * (max(err, 1e-10) ** -0.14) * (err_prev ** 0.08)
                h = h * min(5.0, max(0.2, grow))
                err_prev = max(err, 1e-10)
            else:
                h = h * min(1.0, max(0.2, 0.9 * err ** -0.2))
                if h < 1e-14 * max(1.0, abs(t)):
                    raise IntegrationError(
                        "step size underflow at t=%r" % t, t_last=t, state=y)
        out.append((t, y.copy()))
    return out


def _make_sample(sys, t, x, p, e0):
    e = energy_at(sys, x, p)
    drift = abs(e - e0)
    if drift > ENERGY_SLACK * (1.0 + abs(e0)):
        raise IntegrationError(
            "energy drifted by %r at t=%r" % (drift, t), t_last=t)
    return FlowSample(t=t, x=np.asarray(x), p=np.asarray(p),
                      controls=controls_at(sys, x, p), energy=e,
                      energy_drift=drift)


def transition_many(sys, x0, p0, times, tol=DEFAULT_TOL):
    """Samples plus full 2n-by-2n variational transition matrices at the
    requested times (any signs, any order, repeats allowed).

    Times of a common sign are visited in a single continued integration,
    so one call makes at most two."""
    n = sys.dim
    x0 = np.asarray(x0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    rhs = _compiled(sys, "rhs_fn")
    jac = _compiled(sys, "jac_fn")
    m = 2 * n

    def f(y):
        z = list(y[:m])
        dz = np.array(rhs(z), dtype=float)
        J = np.array(jac(z), dtype=float).reshape(m, m)
        M = y[m:].reshape(m, m)
        return np.concatenate([dz, (J @ M).ravel()])

    y0 = np.concatenate([x0, p0, np.eye(m).ravel()])
    e0 = energy_at(sys, x0, p0)
    found = {}
    if 0.0 in times:
        found[0.0] = (_make_sample(sys, 0.0, x0.copy(), p0.copy(), e0),
                      np.eye(m))
    neg = sorted({t for t in times if t < 0}, reverse=True)
    pos = sorted({t for t in times if t > 0})
    for group in (neg, pos):
        if not group:
            continue
        reached = _integrate(f, y0, group, tol, tol * 1e-2)
        for target, (t, y) in zip(group, reached):
            sample = _make_sample(sys, t, y[:n], y[n:m], e0)
            found[target] = (sample, y[m:].reshape(m, m).copy())
    return [found[t] for t in times]


def transition(sys, x0, p0, t, tol=DEFAULT_TOL):
    return transition_many(sys, x0, p0, [t], tol)[0]


def flow(sys, x0, p0, t, tol=DEFAULT_TOL):
    return transition(sys, x0, p0, t, tol)[0]


class Geodesic:
    """The trajectory of one covector, integrated once per sign of time
    together with its variational matrix, at the union of the times that
    every stage reading it asks for.

    Stages split into the times they need and a function of the geodesic;
    a caller collects the times first, builds one Geodesic, and each stage
    reads its (sample, M) pairs back by exact requested time.  Time 0 is
    always available."""

    def __init__(self, sys, x0, p0, times, tol=DEFAULT_TOL):
        self.sys = sys
        self.x0 = np.asarray(x0, dtype=float)
        self.p0 = np.asarray(p0, dtype=float)
        distinct = sorted({0.0, *(float(t) for t in times)})
        self._points = dict(zip(distinct, transition_many(
            sys, self.x0, self.p0, distinct, tol)))

    def point(self, t):
        """(FlowSample, transition matrix) at a time this geodesic was
        built for."""
        try:
            return self._points[float(t)]
        except KeyError:
            raise KeyError("t=%r is not among the times this geodesic was"
                           " integrated to" % (t,)) from None

    def sample(self, t):
        return self.point(t)[0]


def vertical_jacobian(M, n):
    """d x(t) / d p(0): the upper right block of the transition matrix."""
    return M[:n, n:2 * n]


def signed_log_det(A):
    """(sign, log|det|) after row and column max-abs equilibration.

    Graded Jacobians have rows and columns spanning many decades; the
    balanced determinant keeps full relative accuracy where a plain LU
    would not.
    """
    A = np.asarray(A, dtype=float)
    r = np.max(np.abs(A), axis=1)
    if np.any(r == 0.0):
        return 0.0, -math.inf
    B = A / r[:, None]
    c = np.max(np.abs(B), axis=0)
    B = B / c[None, :]
    sign, logdet = np.linalg.slogdet(B)
    if sign == 0.0:
        return 0.0, -math.inf
    total = logdet + float(np.sum(np.log(r))) + float(np.sum(np.log(c)))
    return float(sign), total


def log_volume_ratio(sys, x0, p0, t, tol=DEFAULT_TOL):
    """log of m(x(t)) |det dx(t)/dp(0)| / m(x0), fully in log space."""
    sample, M = transition(sys, x0, p0, t, tol)
    _, ld = vertical_log_det(sys, sample, M)
    return ld + math.log(sys.density_at(sample.x)) - math.log(
        sys.density_at(np.asarray(x0, dtype=float)))


def vertical_log_det(sys, sample, M):
    return signed_log_det(vertical_jacobian(M, sys.dim))


def volume_ratio(sys, x0, p0, t, tol=DEFAULT_TOL):
    """m(x(t)) |det dx(t)/dp(0)| / m(x0) at one time."""
    return math.exp(log_volume_ratio(sys, x0, p0, t, tol))
