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
running several stages integrates once and builds one flag.  rho_from
and the expansion fit read G from the one {tau: G(tau)} map gram_from
returns.  The (sys, x0, p0) entry points build what they read.

Each stage takes its points as one stack: gram_from evaluates the
auxiliary bases, the rank profiles and the Gram determinants of all its
points with one evaluator, LAPACK or matmul call per step, and
log_volume_ratios_from takes one log-determinant call and one density
call for all its times.  The evaluators run each point through the same
scalar code and LAPACK treats each matrix of a stack on its own, so
every value equals its one-point computation bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from . import flag as fl
from . import geometry as geo
from . import hamiltonian as ham

__all__ = [
    "RhoError", "gram_from", "rho_times", "rho_from", "rho",
    "log_volume_ratios_from", "log_volume_ratios", "rho_flow_times",
    "rho_flow_from",
]

# Step of the finite differences of G that give rho.
FD_STEP = 1e-3

# The volume-flow estimate of rho samples RHO_FLOW_SAMPLES times on a
# geometric grid over RHO_FLOW_WINDOW, and their mirror images.
RHO_FLOW_WINDOW = (3e-2, 1.5e-1)
RHO_FLOW_SAMPLES = 20
RHO_FLOW_GRID = np.geomspace(*RHO_FLOW_WINDOW, RHO_FLOW_SAMPLES)


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


def gram_from(geodesic, flag, times):
    """{float(tau): G(tau)} for every tau in times, read from the
    geodesic; `flag` is flag_at at the geodesic's base covector.

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
    xs, ps, _ = geodesic.at(distinct)
    failure = None
    try:
        aux = geo.aux_frame_at(sys, xs, comp).matrix
    except geo.GeometryError as err:
        failure = RhoError("auxiliary completion degenerated at t=%r: %s"
                           % (distinct[err.index], err))
        aux = geo.aux_frame_at(sys, xs[:err.index], comp).matrix
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
    logs = _gram_log_of_levels(aux[:len(columns)], expected,
                               [np.array(level) for level in zip(*columns)])
    if failure is not None:
        raise failure
    return dict(zip(distinct, (0.5 * sum(row) for row in logs.tolist())))


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
    flag = fl.flag_at(sys, x0, p0)
    _require_ample(flag)
    geodesic = ham.Geodesic(sys, x0, p0, rho_times())
    return rho_from(gram_from(geodesic, flag, rho_times()))


def log_volume_ratios_from(geodesic, times):
    """log of the volume ratio at each time, read from the geodesic's
    transition matrices, with one log-determinant call and one density
    call for all of them.  A density that fails at a point of the flow
    raises RhoError naming its time; one that fails at the base point is
    an input error."""
    sys = geodesic.sys
    log_m0 = math.log(sys.density_at(geodesic.x0))
    xs, _, M = geodesic.at(times)
    _, lds = ham.signed_log_det(ham.vertical_jacobian(M, sys.dim))
    try:
        densities = sys.density_at(xs)
    except geo.GeometryError as err:
        raise RhoError("along the flow at t=%r: %s"
                       % (float(times[err.index]), err)) from None
    return np.array([ld + math.log(m) - log_m0
                     for ld, m in zip(lds.tolist(), densities.tolist())])


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
