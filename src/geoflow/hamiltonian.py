"""Hamiltonian flow of an affine control structure, with exact variational
transition matrices.

The Hamiltonian on the chart cotangent bundle is

    H(p, x) = 1/2 sum_a <p, X_a(x)>^2 + <p, X_0(x)> + 1/2 Q(x)

and trajectories solve xdot = dH/dp, pdot = -dH/dx.  The transition matrix
solves the variational system Mdot = DF(z) M with M(0) = I, so its upper
right n-by-n block is the Jacobian of the endpoint with respect to the
initial covector.  Both are flowed as Taylor series: one jet of order
ORDER at t = 0 serves every time within its step, on either side.

DF = Omega Hess(H), and Hess(H) is symmetric: the Taylor evaluator of a
structure carries the m(m+1)/2 entries of its upper triangle along the
flow, m = 2n, and each jet rebuilds DF from them with one index-and-sign
table per dimension.  A Geodesic keeps what it serves, and what the
stages compute at its times, so each is computed once per covector.
"""

from __future__ import annotations

import functools
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
    structure, and two Taylor evaluators compile it, the flow's and the
    density series', each with its own extras: an extra that overflows
    makes its evaluator's whole point NaN."""
    def build():
        n = sys.dim
        H = hamiltonian(sys)
        return tuple(
            [ex.simplify(ex.diff(H, n + i)) for i in range(n)]
            + [ex.simplify(ex.Mul((ex.MINUS_ONE, ex.diff(H, i))))
               for i in range(n)])

    return sys.cached("field", build)


def _taylor_fn(sys):
    """The Taylor evaluator of the Hamiltonian field, with the upper
    triangle of the Hessian of H along the flow as its extra expressions,
    so the two share their common subexpressions.  The field's Jacobian
    is Omega times that symmetric Hessian: _hessian_table rebuilds it.

    The extra of the pair a <= b is the b-derivative of the field
    component pi(a) = (a + n) mod 2n, which is +-d^2H/dz_a dz_b."""
    def build():
        field = _hamiltonian_field(sys)
        m = len(field)
        hessian = [ex.simplify(ex.diff(field[(a + m // 2) % m], b))
                   for a in range(m) for b in range(a, m)]
        return ex.compile_taylor(field, hessian)

    return sys.cached("taylor_fn", build)


@functools.cache
def _hessian_table(m):
    """(index, sign), each of length m*m: entry (i, j) of the field's
    Jacobian, in row-major order, is sign times the extra at index of the
    flow's Taylor evaluator.

    With pi the coordinate swap of _taylor_fn and s(a) = +1 for a >= n,
    -1 below, the extra of a <= b is s(a) S_ab, S the Hessian of H, and
    Jacobian entry (i, j) is s(pi(i)) S_(pi(i), j), i.e. s(pi(i)) s(c)
    times the extra of (c, d) = (min, max)(pi(i), j)."""
    n = m // 2
    rows = {}
    for a in range(m):
        for b in range(a, m):
            rows[a, b] = len(rows)
    index, sign = [], []
    for i in range(m):
        r = (i + n) % m
        for j in range(m):
            c, d = min(r, j), max(r, j)
            index.append(rows[c, d])
            sign.append((1.0 if r >= n else -1.0) * (1.0 if c >= n
                                                      else -1.0))
    return np.array(index), np.array(sign)


def energy_at(sys, x, p):
    """H at the covector (x, p), or at each covector of stacks (P, n)."""
    fn = sys.cached("ham_fn", lambda: ex.compile_exprs([hamiltonian(sys)]))
    return fn(np.concatenate([x, p], axis=-1))[..., 0]


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
    index, sign = _hessian_table(m)
    # Row a of J holds row a of J_0, J_1, ..., and back holds Phi_k at
    # ORDER - k, so that Phi_k, ..., Phi_0 is one contiguous block: each
    # order is one matmul, the product np.tensordot would take.
    J = np.swapaxes((E[:, index] * sign).reshape(ORDER, m, m), 0, 1)
    J = J.reshape(m, ORDER * m)
    back = np.empty((ORDER + 1, m, m))
    back[ORDER] = np.eye(m)
    for k in range(ORDER):
        back[ORDER - k - 1] = (J[:, :(k + 1) * m]
                               @ back[ORDER - k:].reshape(-1, m)) / (k + 1)
    Phi = back[::-1]
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
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _require_energy(ts, energies, e0):
    """IntegrationError at the first of the times ts whose energy is not
    within ENERGY_SLACK of the start's e0; a non-finite energy never is,
    and is reported as not finite rather than as a drift."""
    drifts = np.abs(np.subtract(energies, e0))
    bad = np.flatnonzero(~(drifts <= ENERGY_SLACK * (1.0 + abs(e0))))
    if bad.size:
        t, energy = ts[bad[0]], energies[bad[0]]
        if not math.isfinite(energy):
            raise IntegrationError("energy is not finite at t=%r" % t,
                                   t_last=t)
        raise IntegrationError("energy drifted by %r at t=%r"
                               % (float(drifts[bad[0]]), t), t_last=t)


@_quiet
def transition_many(sys, x0, p0, times, tol=DEFAULT_TOL, geodesic=None):
    """Phase states (x, p) as a (len(times), 2n) array and the full 2n-by-2n
    variational transition matrices as a (len(times), 2n, 2n) array, at
    the requested times (any signs, any order, repeats allowed), in the
    order of `times`, served from and kept in `geodesic`, the Geodesic of
    (x0, p0) at tol, or a new one.  The energy is checked at every time
    served, with one evaluator call per batch of times a jet serves.

    The jet at t = 0 serves both signs in one batch; a time beyond the
    last jet of its sign takes one more jet per step outward, kept in the
    geodesic's chain for that sign.  A time s from a jet's point is z and
    Phi_0 = I plus one correction each, sum_{k>=1} c_k s^k, summed by
    Horner and added once."""
    g = Geodesic(sys, x0, p0, tol) if geodesic is None else geodesic
    n = sys.dim
    m = 2 * n
    todo = {sign: sorted({t for t in times if t * sign > 0}, key=abs)
            for sign in (-1.0, 1.0)}
    # (k, signs): the k-th jet of the chain of each sign, one for them all.
    work = [(0, (-1.0, 1.0))]
    while work:
        k, signs = work.pop(0)
        t, z, M, C, h = g._chains[signs[0]][k]
        served, grown = [], []
        for sign in signs:
            inside = [u for u in todo[sign] if (u - t) * sign <= h]
            todo[sign] = todo[sign][len(inside):]
            served += inside
            if not todo[sign]:
                continue
            work.append((k + 1, [sign]))
            if k + 1 < len(g._chains[sign]):
                continue
            if h < 1e-14 * max(1.0, abs(t)):
                raise IntegrationError("flow blew up near t=%r" % t,
                                       t_last=t)
            # The two chains share their jet at t = 0.
            if sum(map(len, g._chains.values())) - 1 == _MAX_JETS:
                raise IntegrationError("jet limit reached at t=%r" % t,
                                       t_last=t)
            grown.append(sign)
        offsets = [u - t for u in served] + [sign * h for sign in grown]
        if not offsets:
            continue
        s = np.array(offsets)[:, None]
        acc = C[-1] * s
        for c in C[-2:0:-1]:
            acc += c
            acc *= s
        Z = z + acc[:, :m]
        MZ = (np.eye(m) + acc[:, m:].reshape(-1, m, m)) @ M
        q = len(served)
        _require_energy(served, energy_at(sys, Z[:q, :n], Z[:q, n:]), g._e0)
        g._row.update(zip(served, range(len(g._z), len(g._z) + q)))
        g._source.update((u, (signs[0], k, u - t)) for u in served)
        g._z = np.concatenate([g._z, Z[:q]])
        g._M = np.concatenate([g._M, MZ[:q]])
        for sign, zu, Mu in zip(grown, Z[q:], MZ[q:]):
            u = t + sign * h
            g._chains[sign].append((u, zu, Mu) + _jet(sys, zu, Mu, u, tol))
    rows = [g._row[t] for t in times]
    return g._z[rows], g._M[rows]


class Geodesic:
    """The trajectory of one covector and its variational matrix, served
    at any times, in any number of calls.

    The constructor checks the energy at the start and computes the jet
    at t = 0, which `start_jet` holds.  `at` serves each time once,
    through transition_many, which extends the chain of jets of each sign
    outward as far as the times reach; the served states and the jets are
    kept, so what a stage reads does not depend on which stages read
    before it.  `jets_at` names the jet that served each time and the
    time's offset from it, for the stages that read a jet's coefficients
    rather than the state.  `kept` holds what the stages compute at each
    time (rank profiles, frames, densities) the same way, so a stage
    reads what another stage, or one stack computed ahead for several
    stages, already has."""

    @_quiet
    def __init__(self, sys, x0, p0, tol=DEFAULT_TOL):
        self.sys = sys
        self.x0 = np.asarray(x0, dtype=float)
        self.p0 = np.asarray(p0, dtype=float)
        self.tol = tol
        self._z0 = np.concatenate([self.x0, self.p0])
        self._e0 = energy_at(sys, self.x0, self.p0)
        _require_energy([0.0], [self._e0], self._e0)
        eye = np.eye(self._z0.size)
        start = (0.0, self._z0, eye) + _jet(sys, self._z0, eye, 0.0, tol)
        self._chains = {-1.0: [start], 1.0: [start]}
        # The served states, one row per time in the order served, and
        # for each time the jet that served it, as (sign, index in the
        # chain of that sign, offset from the jet's point); the jet at
        # t = 0 serves under the sign -1, as in transition_many.
        self._row = {0.0: 0}
        self._source = {0.0: (-1.0, 0, 0.0)}
        self._z, self._M = self._z0[None], eye[None]
        self._kept = {}

    @property
    def start_jet(self):
        """(C, h): the jet at t = 0 and its step, as _jet returns them."""
        return self._chains[1.0][0][3:]

    @functools.cached_property
    def log_density0(self):
        """log m(x0), the density at the base point; GeometryError where
        it is not finite or not positive."""
        return math.log(self.sys.density_at(self.x0))

    def at(self, times):
        """(x, p, M) stacks, one row per time in the order given."""
        times = [float(t) for t in times]
        new = sorted({t for t in times if t not in self._row})
        if new:
            transition_many(self.sys, self.x0, self.p0, new, self.tol, self)
        rows = [self._row[t] for t in times]
        z = self._z[rows]
        return z[:, :self.sys.dim], z[:, self.sys.dim:], self._M[rows]

    def reached(self, times):
        """The times, in their order, that the jet at t = 0 serves: `at`
        serves them without computing a jet."""
        h = self.start_jet[1]
        return [t for t in times if abs(t) <= h]

    def kept(self, key, times, compute):
        """The stage product `key` at each of the times, in their order,
        each computed once per geodesic: compute(new) gets the times not
        yet kept, once each, in the order they first appear, and returns
        one value per time."""
        table = self._kept.setdefault(key, {})
        new = list(dict.fromkeys(float(t) for t in times
                                 if float(t) not in table))
        if new:
            table.update(zip(new, compute(new)))
        return [table[float(t)] for t in times]

    def jets_at(self, times):
        """The jets that serve the times, as a list of (C, index, s): the
        coefficients C of one jet, as _jet returns them, the positions in
        `times` it serves, and their offsets s from the jet's point."""
        self.at(times)
        groups = {}
        for i, t in enumerate(times):
            sign, k, s = self._source[float(t)]
            groups.setdefault((sign, k), []).append((i, s))
        return [(self._chains[sign][k][3], *map(np.array, zip(*group)))
                for (sign, k), group in groups.items()]


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
