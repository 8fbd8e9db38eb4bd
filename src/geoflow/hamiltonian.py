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

import numpy as np

from . import expr as ex

__all__ = [
    "IntegrationError", "Geodesic", "hamiltonian", "flow", "transition",
    "transition_many", "vertical_jacobian", "signed_log_det",
]

# Simulated relative accuracy for the adaptive integrator.
DEFAULT_TOL = 1e-12

# Accepted relative wander of the conserved Hamiltonian along a flow.
ENERGY_SLACK = 1e-8


class IntegrationError(RuntimeError):
    """Adaptive integration failed; carries the last trusted time."""

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
    structure: the integrator compiles it, and the control jet is its
    derivative along the flow."""
    def build():
        n = sys.dim
        H = hamiltonian(sys)
        return tuple(
            [ex.simplify(ex.diff(H, n + i)) for i in range(n)]
            + [ex.simplify(ex.Mul((ex.MINUS_ONE, ex.diff(H, i))))
               for i in range(n)])

    return sys.cached("field", build)


def _rhs_fn(sys):
    """The Hamiltonian vector field followed by its row-major Jacobian,
    in one evaluator so the two share their common subexpressions."""
    return sys.cached("rhs_fn", lambda: _build_rhs(sys))


def _build_rhs(sys):
    rhs = list(_hamiltonian_field(sys))
    jac = [ex.simplify(ex.diff(r, j)) for r in rhs for j in range(len(rhs))]
    return ex.compile_exprs(rhs + jac)


def energy_at(sys, x, p):
    fn = sys.cached("ham_fn", lambda: ex.compile_exprs([hamiltonian(sys)]))
    return float(fn(np.concatenate([x, p]))[0])


# ----------------------------------------------------------------------
# DOP853: Dormand-Prince 8(5,3) with FSAL, a step-size controller on the
# combined 5th/3rd-order error estimate, and a 7th-order continuous
# extension that costs three more stages on the steps it is used for
# (Hairer, Norsett & Wanner, Solving ODEs I, sections II.6 and II.10).
# The system is autonomous, so the stage nodes c_i are not needed.


def _row(size, entries):
    out = np.zeros(size)
    for j, value in entries.items():
        out[j] = value
    return out


def _table(shape, rows):
    out = np.zeros(shape)
    for i, entries in rows.items():
        out[i] = _row(shape[1], entries)
    return out


# Stage coefficients a_ij.  Row 12 holds the 8th-order solution weights;
# rows 13-15 are the extra stages of the continuous extension.
_A = _table((16, 16), {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {
        0: 1.97250569845378994544595329183e-2,
        1: 5.91751709536136983633785987549e-2,
    },
    3: {
        0: 2.95875854768068491816892993775e-2,
        2: 8.87627564304205475450678981324e-2,
    },
    4: {
        0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1,
    },
    5: {
        0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1,
    },
    6: {
        0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2,
    },
    7: {
        0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3,
    },
    8: {
        0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1,
    },
    9: {
        0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2,
    },
    10: {
        0: -9.3714243008598732571704021658e-1,
        3: 5.18637242884406370830023853209, 4: 1.09143734899672957818500254654,
        5: -8.14978701074692612513997267357,
        6: -1.85200656599969598641566180701e1,
        7: 2.27394870993505042818970056734e1,
        8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022,
    },
    11: {
        0: 2.27331014751653820792359768449,
        3: -1.05344954667372501984066689879e1,
        4: -2.00087205822486249909675718444,
        5: -1.79589318631187989172765950534e1,
        6: 2.79488845294199600508499808837e1,
        7: -2.85899827713502369474065508674,
        8: -8.87285693353062954433549289258,
        9: 1.23605671757943030647266201528e1,
        10: 6.43392746015763530355970484046e-1,
    },
    12: {
        0: 5.42937341165687622380535766363e-2,
        5: 4.45031289275240888144113950566, 6: 1.89151789931450038304281599044,
        7: -5.8012039600105847814672114227,
        8: 3.1116436695781989440891606237e-1,
        9: -1.52160949662516078556178806805e-1,
        10: 2.01365400804030348374776537501e-1,
        11: 4.47106157277725905176885569043e-2,
    },
    13: {
        0: 5.61675022830479523392909219681e-2,
        6: 2.53500210216624811088794765333e-1,
        7: -2.46239037470802489917441475441e-1,
        8: -1.24191423263816360469010140626e-1,
        9: 1.5329179827876569731206322685e-1,
        10: 8.20105229563468988491666602057e-3,
        11: 7.56789766054569976138603589584e-3, 12: -8.298e-3,
    },
    14: {
        0: 3.18346481635021405060768473261e-2,
        5: 2.83009096723667755288322961402e-2,
        6: 5.35419883074385676223797384372e-2,
        7: -5.49237485713909884646569340306e-2,
        10: -1.08347328697249322858509316994e-4,
        11: 3.82571090835658412954920192323e-4,
        12: -3.40465008687404560802977114492e-4,
        13: 1.41312443674632500278074618366e-1,
    },
    15: {
        0: -4.28896301583791923408573538692e-1,
        5: -4.69762141536116384314449447206,
        6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
        8: 3.56727187455281109270669543021e-1,
        12: -1.39902416515901462129418009734e-3,
        13: 2.9475147891527723389556272149,
        14: -9.15095847217987001081870187138,
    },
})
_B = _A[12, :12]
# Weights of the embedded 5th-order error estimate, and of the 3rd-order
# one as a difference from _B.
_E5 = _row(12, {
    0: 0.1312004499419488073250102996e-1,
    5: -0.1225156446376204440720569753e+1, 6: -0.4957589496572501915214079952,
    7: 0.1664377182454986536961530415e+1, 8: -0.3503288487499736816886487290,
    9: 0.3341791187130174790297318841, 10: 0.8192320648511571246570742613e-1,
    11: -0.2235530786388629525884427845e-1,
})
_E3 = _B - _row(12, {
    0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1,
})
# Coefficients of the continuous extension's fourth to seventh terms.
_D = _table((4, 16), {
    0: {
        0: -0.84289382761090128651353491142e+1,
        5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1,
        7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1,
        9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1,
        11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1,
        13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1,
        15: -0.44360363875948939664310572000e+1,
    },
    1: {
        0: 0.10427508642579134603413151009e+2,
        5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3,
        7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2,
        9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2,
        11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2,
        13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1,
        15: 0.35816841486394083752465898540e+2,
    },
    2: {
        0: 0.19985053242002433820987653617e+2,
        5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3,
        7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2,
        9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1,
        11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1,
        13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2,
        15: 0.11992291136182789328035130030e+2,
    },
    3: {
        0: -0.25693933462703749003312586129e+2,
        5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3,
        7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2,
        9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3,
        11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2,
        13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2,
        15: -0.14972683625798562581422125276e+3,
    },
})

_MAX_STEPS = 200000


def _initial_step(f, y0, f0, direction, rtol, atol):
    sc = atol + rtol * np.abs(y0)
    with np.errstate(over="ignore", invalid="ignore"):
        d0 = math.sqrt(float(np.mean((y0 / sc) ** 2)))
        d1 = math.sqrt(float(np.mean((f0 / sc) ** 2)))
        if not math.isfinite(d1):
            # The scaled field overflows: no step size is representable.
            raise IntegrationError(
                "vector field too large to start at t=0.0", t_last=0.0)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        f1 = f(y0 + h0 * direction * f0)
        d2 = math.sqrt(float(np.mean(((f1 - f0) / sc) ** 2))) / h0
    h1 = 1e-6
    if math.isfinite(d2) and max(d1, d2) > 1e-15:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    elif math.isfinite(d2):
        h1 = max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1)


def _extension(f, y, y_new, K, hs):
    """The seven coefficient rows of the continuous extension over the
    step from y to y_new; runs the three extra stages into K[13:16]."""
    for i in range(13, 16):
        K[i] = f(y + hs * (_A[i, :i] @ K[:i]))
    dy = y_new - y
    F = np.empty((7, y.size))
    F[0] = dy
    F[1] = hs * K[0] - dy
    F[2] = 2.0 * dy - hs * (K[12] + K[0])
    F[3:] = hs * (_D @ K)
    return F


def _interpolate(y, F, theta):
    """The continuous extension at the fraction theta of its step; a
    column of fractions gives one row per fraction."""
    acc = F[6] * theta
    for i in range(5, -1, -1):
        acc = (acc + F[i]) * (theta if i % 2 == 0 else 1.0 - theta)
    return y + acc


def _integrate(f, y0, targets, rtol, atol):
    """Integrate ydot = f(y) from t=0 with DOP853, returning (t, y) at each
    target time.  Targets must be strictly monotone with a common sign.

    Steps are chosen by the tolerance alone and end only at the last
    target; every earlier target is read from the 7th-order continuous
    extension of the accepted step that holds it, all of a step's targets
    in one evaluation, and only such steps pay for the extension's three
    extra stages."""
    y = np.asarray(y0, dtype=float).copy()
    t = 0.0
    k1 = f(y)
    if not np.all(np.isfinite(k1)):
        raise IntegrationError("vector field undefined at the start",
                               t_last=0.0)
    end = targets[-1]
    direction = 1.0 if end > 0 else -1.0
    h = _initial_step(f, y, k1, direction, rtol, atol)
    # The sixteen stage derivatives, one row each: twelve for the step,
    # the derivative at its end (FSAL) and three for the extension.
    K = np.empty((16, y.size))
    out = []
    steps = 0
    while (end - t) * direction > 1e-15 * max(1.0, abs(end)):
        steps += 1
        if steps > _MAX_STEPS:
            raise IntegrationError(
                "step limit reached at t=%r" % t, t_last=t)
        h = min(h, abs(end - t))
        if not h > 0 or not np.all(np.isfinite(y)):
            raise IntegrationError(
                "flow lost accuracy at t=%r" % t, t_last=t)
        hs = h * direction
        with np.errstate(over="ignore", invalid="ignore"):
            K[0] = k1
            for i in range(1, 12):
                K[i] = f(y + hs * (_A[i, :i] @ K[:i]))
            y_new = y + hs * (_B @ K[:12])
            K[12] = f(y_new)
            sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            err5 = float(np.sum(((_E5 @ K[:12]) / sc) ** 2))
            err3 = float(np.sum(((_E3 @ K[:12]) / sc) ** 2))
            den = err5 + 0.01 * err3
            err = h * err5 / math.sqrt(den * y.size) if den > 0 else 0.0
        if not math.isfinite(err):
            h *= 0.1
            if h < 1e-14 * max(1.0, abs(t)):
                raise IntegrationError(
                    "flow blew up near t=%r" % t, t_last=t)
            continue
        if err <= 1.0:
            t_new = t + hs
            first = stop = len(out)
            while (stop < len(targets) - 1
                   and (targets[stop] - t_new) * direction <= 0):
                stop += 1
            if stop > first:
                inside = targets[first:stop]
                theta = np.array([(target - t) / hs for target in inside])
                F = _extension(f, y, y_new, K, hs)
                out.extend(zip(inside, _interpolate(y, F, theta[:, None])))
            t = t_new
            y = y_new
            k1 = K[12].copy()
        # The error is of order 8 in h: grow by at most 6, shrink by at
        # most 3.
        h = h * min(6.0, max(0.333, 0.9 * max(err, 1e-10) ** -0.125))
        if err > 1.0 and h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(
                "step size underflow at t=%r" % t, t_last=t)
    # The last target, and any within rounding of it, take the end state.
    out.extend((t, y.copy()) for _ in targets[len(out):])
    return out


def transition_many(sys, x0, p0, times, tol=DEFAULT_TOL):
    """Phase states (x, p) as a (len(times), 2n) array and the full 2n-by-2n
    variational transition matrices as a (len(times), 2n, 2n) array, at
    the requested times (any signs, any order, repeats allowed), in the
    order of `times`.  The energy is checked at every distinct time.

    Times of a common sign are visited in a single continued integration,
    so one call makes at most two."""
    n = sys.dim
    x0 = np.asarray(x0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    rhs = _rhs_fn(sys)
    m = 2 * n

    def f(y):
        # One call of the fused evaluator: the field, then its Jacobian.
        vals = rhs(y[:m])
        J = vals[m:].reshape(m, m)
        return np.concatenate([vals[:m], (J @ y[m:].reshape(m, m)).ravel()])

    y0 = np.concatenate([x0, p0, np.eye(m).ravel()])
    e0 = energy_at(sys, x0, p0)

    def checked(t, y):
        # y, once its energy is within ENERGY_SLACK of the start's; a
        # non-finite energy never is.
        drift = abs(energy_at(sys, y[:n], y[n:m]) - e0)
        if not drift <= ENERGY_SLACK * (1.0 + abs(e0)):
            raise IntegrationError(
                "energy drifted by %r at t=%r" % (drift, t), t_last=t)
        return y

    found = {0.0: checked(0.0, y0)} if 0.0 in times else {}
    neg = sorted({t for t in times if t < 0}, reverse=True)
    pos = sorted({t for t in times if t > 0})
    for group in (neg, pos):
        if not group:
            continue
        # The small-time vertical Jacobian is graded, with entries down to
        # high powers of t; an absolute tolerance far below them keeps its
        # error control relative there.
        reached = _integrate(f, y0, group, tol, tol * 1e-6)
        for target, (t, y) in zip(group, reached):
            found[target] = checked(t, y)
    Y = np.array([found[t] for t in times]).reshape(len(times), m + m * m)
    return Y[:, :m], Y[:, m:].reshape(-1, m, m)


def transition(sys, x0, p0, t):
    """(x, p, M) at one time."""
    Z, M = transition_many(sys, x0, p0, [t])
    return Z[0, :sys.dim], Z[0, sys.dim:], M[0]


def flow(sys, x0, p0, t):
    """(x, p) at one time."""
    return transition(sys, x0, p0, t)[:2]


class Geodesic:
    """The trajectory of one covector, integrated once per sign of time
    together with its variational matrix, at the union of the times that
    every stage reading it asks for.

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
