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
exact difference G(t) - G(0).  volume_series_from reads rho a second
way, and the order N at which the volume vanishes, from the volume's
series in the geodesic's jet at t = 0, with no Gram matrix, no served
time and no fit.

Every stage reads a hamiltonian.Geodesic: `*_from` asks the geodesic
for the times it needs and takes, where it needs one, the flag at the
base covector, so a caller running several stages on one geodesic and
one flag flows each covector once.  rho_from and the expansion fit read
G from the one {tau: G(tau)} map gram_from returns, over rho_times and
the fit's grid.  The (sys, x0, p0) entry points build what they read.

Each stage takes its points as one stack: gram_from evaluates the
auxiliary bases, the rank profiles and the Gram determinants of all its
points with one evaluator, LAPACK or matmul call per step, and
log_volume_ratios_from takes one log-determinant call for all its times.
The evaluators run each point through the same scalar code and LAPACK
treats each matrix of a stack on its own, so every value equals its
one-point computation bit for bit.  The frames, rank profiles and
densities of a time are kept in the geodesic, so a stage computes only
the times no stage and no read-ahead (flag.read_ahead) has computed:
gram_from takes the base completion from one aux_frame_at call and
assembles the bases from the kept frames and densities, and the fit
reads the densities of its times, a subset of the Gram times, from
there.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import expr as ex
from . import flag as fl
from . import geometry as geo
from . import hamiltonian as ham

__all__ = [
    "RhoError", "gram_from", "rho_times", "rho_from", "rho",
    "log_volume_ratios_from", "log_volume_ratios", "volume_series_from",
]

# Step of the finite differences of G that give rho.
FD_STEP = 1e-3

# Points of the circle at which volume_series_from evaluates det A(t),
# unless orders up to N + 1 need more.
SERIES_POINTS = 64

# A term of det A's series on that circle is negligible below this
# fraction of the largest term.
SERIES_FLOOR = 1e-3


class RhoError(RuntimeError):
    pass


def _log_det(M):
    """(log det, singular) of each positive semidefinite matrix of a stack
    (P, d, d), by elimination in the dtype of M; a pivot that is not
    positive marks a singular matrix, whose log det is not read."""
    logs = np.zeros(len(M), M.dtype)
    singular = np.zeros(len(M), dtype=bool)
    for j in range(M.shape[1]):
        pivot = M[:, j, j]
        singular |= ~(pivot > 0.0)
        pivot = np.where(singular, 1.0, pivot)
        logs += np.log(pivot)
        M = M - M[:, :, j:j + 1] * M[:, j:j + 1, :] / pivot[:, None, None]
    return logs, singular


def _gram_log_of_levels(aux, growth, per_level):
    """log det M_i for every level at each point of a stack, from level
    columns in chart coordinates: `aux` holds the (P, n, n) auxiliary
    bases, `growth` the rank profile common to the points and `per_level`
    the (P, n, k) columns of each level.  Returns a (P, levels) array in
    extended precision; a level that adds no direction contributes 0.

    Each step is one LAPACK, matmul or elementwise call for the whole
    stack.  A point with a singular level Gram matrix raises, the first
    such point of the stack at its first singular level."""
    Yinv = np.linalg.inv(aux)
    logs = np.zeros((len(aux), len(per_level)), np.longdouble)
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
        # log det M_i reads the norm of V's columns, which the SVD makes
        # orthonormal to a few ulps only: one Newton step in extended
        # precision makes them orthonormal, and M_i and its log det are
        # formed there too.
        V = V.astype(np.longdouble)
        V -= V @ (np.swapaxes(V, 1, 2) @ V - np.eye(d_i)) / 2
        L = np.swapaxes(V, 1, 2) @ Caux
        logs[:, i], bad = _log_det(L @ np.swapaxes(L, 1, 2))
        singular[bad & (singular == 0)] = i + 1
        B_prev = B
    failed = np.flatnonzero(singular)
    if failed.size:
        raise RhoError("level %d Gram matrix is singular"
                       % singular[failed[0]])
    return logs


def _require_ample(flag):
    if not flag.ample:
        raise RhoError("the flag is not ample; rho is undefined here")


def gram_from(geodesic, flag, times):
    """{float(tau): G(tau)} for every tau in times, read from the
    geodesic; `flag` is flag_from of the geodesic.

    The auxiliary completion is chosen once at the base point and kept
    along the trajectory, and the growth vector must stay that of the
    base covector.  Each point must pass its checks (completion,
    rank profile, Gram determinants), and the failing point nearest the
    base along the flow raises; the rank profiles and Gram determinants of
    all points are computed as stacks."""
    _require_ample(flag)
    sys = geodesic.sys
    comp = geo.aux_frame_at(sys, geodesic.x0).complement
    expected = tuple(flag.raw_ranks)
    # Visited outward from the base, so that the first failure met is the
    # earliest along the flow.
    distinct = sorted({float(t) for t in times}, key=lambda t: (abs(t), t))
    xs, _, _ = geodesic.at(distinct)
    frames = fl._frames(geodesic, distinct)

    def density(end):
        return _densities(geodesic, distinct[:end])

    failure = None
    try:
        aux = geo._unimodular(sys, xs, frames, comp, density)
    except geo.GeometryError as err:
        failure = RhoError("auxiliary completion degenerated at t=%r: %s"
                           % (distinct[err.index], err))
        aux = geo._unimodular(sys, xs[:err.index], frames[:err.index], comp,
                              density)
    # A point after a failing one cannot change the error raised, so each
    # check runs only on the points before the first failure so far.
    points = distinct[:len(aux)]
    results = fl._kept_profiles(geodesic, points, (1.0,))
    if any(isinstance(result, Exception) for result in results):
        # The kept profiles go to the flag's level cap; a point that
        # fails there may pass at the Gram pass's own cap, which decides.
        results = fl._growth_profile(geodesic, points, len(expected))
    columns = []
    for result in results:
        if isinstance(result, Exception):
            failure = result
            break
        (ranks,), per_level = result
        if ranks != expected:
            failure = RhoError(
                "growth vector changed along the flow: %r versus %r"
                % (ranks[:len(expected)], expected))
            break
        columns.append(per_level)
    logs = _gram_log_of_levels(aux[:len(columns)], expected,
                               [np.array(level) for level in zip(*columns)])
    if failure is not None:
        raise failure
    return dict(zip(distinct, (0.5 * np.sum(logs, axis=1)).astype(float)
                    .tolist()))


def _densities(geodesic, times):
    """The density at each of the times, each evaluated once per
    geodesic; GeometryError, indexed in `times`, at the first that is not
    finite or not positive."""
    values = np.array(geodesic.kept("density", times, lambda new: (
        geodesic.sys.density_values(geodesic.at(new)[0]).tolist())))
    if not np.all(np.isfinite(values) & (values > 0.0)):
        geodesic.sys.density_at(geodesic.at(times)[0])
    return values


def rho_times(s=0.0):
    """The trajectory times rho_from reads: four finite-difference nodes
    around the time s."""
    h = FD_STEP
    return [s - h, s - h / 2, s + h / 2, s + h]


def rho_from(gram, s=0.0):
    """rho at the flowed covector lambda(s), read from `gram`, a map of
    G over at least rho_times(s): Richardson extrapolated central
    differences of G."""
    h = FD_STEP
    gm, gm2, gp2, gp = (gram[t] for t in rho_times(s))
    d_h = (gp - gm) / (2 * h)
    d_h2 = (gp2 - gm2) / h
    return (4 * d_h2 - d_h) / 3


def rho(sys, x0, p0):
    """The invariant rho at one covector: dG/dtau at 0, by Richardson
    extrapolated central differences along the flow."""
    geodesic = ham.Geodesic(sys, x0, p0)
    flag = fl.flag_from(geodesic)
    _require_ample(flag)
    return rho_from(gram_from(geodesic, flag, rho_times()))


def log_volume_ratios_from(geodesic, times):
    """log of the volume ratio at each time, read from the geodesic's
    transition matrices, with one log-determinant call for all of them
    and one density call for those the geodesic does not keep yet.  A
    density that fails at a point of the flow raises RhoError naming its
    time; one that fails at the base point is an input error."""
    log_m0 = geodesic.log_density0
    lds = ham.signed_log_det(ham.vertical_jacobian(
        geodesic.at(times)[2], geodesic.sys.dim))[1].tolist()
    try:
        densities = _densities(geodesic, times)
    except geo.GeometryError as err:
        raise RhoError("along the flow at t=%r: %s"
                       % (float(times[err.index]), err)) from None
    return np.array([ld + math.log(m) - log_m0
                     for ld, m in zip(lds, densities.tolist())])


def log_volume_ratios(sys, x0, p0, times):
    """log of the volume ratio at each time, on a geodesic of its own."""
    return log_volume_ratios_from(ham.Geodesic(sys, x0, p0), times)


@functools.cache
def _fourier(points):
    """The turns 2 pi i j / points of a circle's points, and the matrix
    whose row k takes a series' values there to its order-k term,
    exp(-k turns) / points."""
    turns = 2j * np.pi * np.arange(points) / points
    return turns, np.exp(-np.outer(np.arange(points), turns)) / points


def _det_series(geodesic, flag):
    """(terms, radius): the terms a_k r^k, k < P, of det A(w) = sum_k a_k
    w^k for the vertical block A of the transition matrix, on the circle
    |w| = r = min(h, 1), h being the jet's step; `flag` is flag_from of
    the geodesic, N its geodesic dimension.  They are read by a discrete
    Fourier transform of det A at P points of the circle, P being
    SERIES_POINTS or, where orders up to N + 1 would alias there, the
    next power of two above N + 1.  The orders N and N + 1 take A's
    coefficients up to order 2s at step s, so the jet's ORDER serves
    steps up to ORDER / 2, and a deeper flag raises."""
    if 2 * flag.step > ham.ORDER:
        raise RhoError("the series of rho needs the flow's Taylor order %d"
                       " at step %d, beyond its jet order %d"
                       % (2 * flag.step, flag.step, ham.ORDER))
    n = geodesic.sys.dim
    C, h = geodesic.start_jet
    A = C[:, 2 * n:].reshape(-1, 2 * n, 2 * n)[:, :n, n:]
    radius = min(h, 1.0)
    turns, fourier = _fourier(
        max(SERIES_POINTS, 2 ** (flag.dimension + 1).bit_length()))
    w = radius * np.exp(turns)
    dets = np.linalg.det(np.tensordot(w[:, None] ** np.arange(len(A)), A, 1))
    return fourier @ dets, radius


def volume_series_from(geodesic, flag):
    """(order, rho(lambda)) from the volume's series at t = 0; `flag` is
    flag_from of the geodesic, N its geodesic dimension.  With det A(t) =
    t^N (c0 + c1 t + ...) for the vertical block A of the transition
    matrix and m(x(t)) = m0 + m1 t + ... along the flow, log r(t) =
    log|c0| + N log|t| + (c1/c0 + m1/m0) t + O(t^2) (ABP, arXiv
    1602.08745).  order is the lowest order of det A's series whose term
    (_det_series) is not negligible against the largest, below
    SERIES_FLOOR times it: N wherever the volume vanishes as the flag
    says.  rho reads c0 and c1 at the orders N and N + 1."""
    terms, radius = _det_series(geodesic, flag)
    geodesic.log_density0    # a failing base density is an input error
    sizes = np.abs(terms)
    order = int(np.argmax(sizes > SERIES_FLOOR * sizes.max()))
    N = flag.dimension
    sys, n = geodesic.sys, geodesic.sys.dim
    density = sys.cached("density_series", lambda: ex.compile_taylor(
        ham._hamiltonian_field(sys), [sys.density]))
    _, ((m0,), (m1,)) = density(geodesic.start_jet[0][0, :2 * n], 2)
    return order, float((terms[N + 1] / terms[N]).real / radius + m1 / m0)
