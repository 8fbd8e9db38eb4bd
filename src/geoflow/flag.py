"""Geodesic flag, growth vector, and the exponent/constant data derived
from them.

Along a trajectory with initial covector (x, p) the distribution is
dragged by any admissible field T that extends the velocity, T(gamma(t)) =
gammadot(t).  The flag at the point collects iterated brackets

    level j+1 columns:  (ad T)^j X_a (x),  a = 1..k

and the growth vector is the rank profile of the accumulated spans.  The
flag does not depend on which admissible extension is used; this module
builds a concrete polynomial one.  Writing s(x) = <alpha, x - x0> for a
transverse affine time function, the extension is

    T(x) = X_0(x) + sum_i uhat_i(s(x)) X_i(x)

where uhat_i is the Taylor polynomial of the control u_i(t) at t = 0.  Its
coefficients, the control jet, are the controls' Taylor coefficients along
the Hamiltonian flow, generated like the flow's own by expr.compile_taylor,
so every coefficient is a function of the covector.  The
brackets are taken in graded form, as polynomials in a formal s whose
coefficients are fields over (x, alpha, c), c the control jet; only the
s^0 coefficient survives at the base point.  They are assembled once per
structure and reused for every covector by binding (x, alpha, c) numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from . import expr as ex
from . import geometry as geo
from . import hamiltonian as ham

__all__ = [
    "FlagError", "NonFiniteError", "GeodesicFlag", "flag_at",
    "geodesic_dimension", "homogeneous_weight", "young_diagram",
    "leading_constant", "equiregular_from",
    "control_jet",
]

RANK_TOL = 1e-9

# Points of the geodesic, the base included, at which equiregular_from
# compares growth vectors.
EQUIREGULAR_SAMPLES = 5


class FlagError(ValueError):
    pass


class NonFiniteError(ArithmeticError):
    """The flag's values at a point overflow or leave the domain of the
    structure's formulas: a numerical failure, not a degenerate
    covector."""


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
                    parts += [geo.lie_bracket(_extension_term(sys, r - 1),
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


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicFlag:
    """Pointwise flag data for one covector."""

    growth: tuple
    raw_ranks: tuple
    increments: tuple
    ample: bool
    step: int
    dimension: int
    weight: int
    young_rows: tuple
    leading: Fraction
    diagnostics: tuple


def _closed(ranks, dim):
    return bool(ranks) and (ranks[-1] == dim or (
        len(ranks) >= 3 and ranks[-1] == ranks[-2] == ranks[-3]))


def _growth_profile(sys, xs, ps, max_step, factors=(1.0,)):
    """Rank profiles of the accumulated bracket columns at each covector
    (xs[i], ps[i]) of the stacks, one per factor of RANK_TOL.  Returns one
    entry per point: (profiles, bracket columns of the first profile's
    levels), or the FlagError or NonFiniteError that point raised.

    Level 0 is the frame; the velocity behind the time gradient is read
    from it and from row 0 of the control jet, computed once per point to
    the last level's order and sliced per level.  Each level evaluates the
    columns of every point with a profile still open in one call,
    normalizes them (a vanishing one gives a zero row, so all points have
    as many rows), and takes one SVD of the accumulated rows of all those
    points; the rank of every open profile is read from it.  A profile
    can pause for one level and then resume (a level that adds no
    direction at the point may still feed later levels), so it closes at
    full rank or after two no-gain levels in a row, not after one.  A
    point whose squared velocity or column norms are not finite fails
    with NonFiniteError and never gets a rank."""
    n, k = sys.dim, sys.rank
    profiles = [tuple([] for _ in factors) for _ in xs]
    per_level = [[] for _ in xs]
    rows = np.empty((len(xs), 0, n))
    failed = {}
    for j in range(max_step):
        live = [i for i in range(len(xs)) if i not in failed
                and not all(_closed(r, n) for r in profiles[i])]
        if j == 1 and live:
            jets = control_jet(sys, xs, ps, max_step - 1)
            alphas, errors = _time_gradient(sys.drift_at(xs), frames,
                                            jets[:, :, 0])
            failed.update((i, errors[i]) for i in live if i in errors)
            live = [i for i in live if i not in failed]
        if not live:
            break
        if j == 0:
            C = frames = sys.frame_matrix(xs)
        else:
            C = _bracket_columns(sys, xs[live], alphas[live],
                                 jets[live, :, :j + 1])
        # One contiguous row per column: each norm is then the same dot
        # product numpy.linalg.norm takes of one column.
        R = np.swapaxes(C, 1, 2)
        with np.errstate(over="ignore"):
            norms = np.sqrt((R[:, :, None, :] @ R[:, :, :, None])[:, :, 0, 0])
        # A column that is not finite has a norm that is not either.
        finite = np.all(np.isfinite(norms), axis=1)
        for i, ok, Ci in zip(live, finite, C):
            if ok:
                per_level[i].append(Ci)
            else:
                failed[i] = NonFiniteError(
                    "level %d column norms are not finite at this covector"
                    % (j + 1))
        live = [i for i in live if i not in failed]
        R, norms = R[finite], norms[finite, :, None]
        rows = np.concatenate([rows, np.zeros((len(xs), k, n))], axis=1)
        rows[live, -k:] = np.divide(R, norms, out=np.zeros_like(R),
                                    where=norms > 0.0)
        sv = np.linalg.svd(np.swapaxes(rows[live], 1, 2), compute_uv=False)
        by_factor = [np.sum(sv > RANK_TOL * factor * sv[:, :1], axis=1)
                     for factor in factors]
        for g, i in enumerate(live):
            for ranks, counts in zip(profiles[i], by_factor):
                if _closed(ranks, n):
                    continue
                r = int(counts[g])
                if j == 0 and r < k:
                    failed[i] = FlagError(
                        "frame fields are dependent at %s"
                        % (xs[i].tolist(),))
                    break
                ranks.append(r)
    return [failed[i] if i in failed else (
        tuple(tuple(r) for r in profiles[i]),
        tuple(per_level[i][:len(profiles[i][0])]))
        for i in range(len(xs))]


def _first_failure_raised(results):
    """_growth_profile results, after raising the error of the first point
    that failed."""
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def _trim(raw, dim):
    """(growth, kept) of a rank profile.  kept ends at the last level that
    gained rank; the reported growth is the whole profile when it reaches
    full rank, else kept plus one stalled level to show the flag stopped
    short."""
    last_gain = max((i for i in range(1, len(raw)) if raw[i] > raw[i - 1]),
                    default=0)
    kept = raw[:last_gain + 1]
    return (raw if raw[-1] == dim else raw[:last_gain + 2]), kept


def flag_at(sys, x, p):
    """Geodesic flag at one covector.

    The level ranks are computed from column-normalized singular values
    at RANK_TOL.  Levels run until full rank or the level cap dim + 2; a
    flag that never reaches full rank is not ample, and its reported
    growth keeps one stalled level to show where it stopped.  The same
    singular values are read at a tenth and ten times the tolerance, in
    one pass over the levels, and a diagnostic is recorded if the growth
    vector is sensitive to that choice.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    max_step = sys.dim + 2
    factors = (1.0, 0.1, 10.0)
    [((raw, *alts), _)] = _first_failure_raised(
        _growth_profile(sys, x[None], p[None], max_step, factors))
    diagnostics = [
        "growth vector is tolerance sensitive: %r at %g times the rank"
        " tolerance" % (alt, factor)
        for factor, alt in zip(factors[1:], alts) if alt != raw]
    ample = raw[-1] == sys.dim
    growth, kept = _trim(raw, sys.dim)
    if not ample and len(raw) >= 2 and raw[-1] > raw[-2]:
        diagnostics.append(
            "rank still increasing at the level cap %d; the flag may be"
            " ample at a deeper level" % max_step)
    increments = tuple([kept[0]] + [kept[i] - kept[i - 1]
                                    for i in range(1, len(kept))])
    rows = young_diagram(increments)
    return GeodesicFlag(
        growth=growth,
        raw_ranks=raw,
        increments=increments,
        ample=ample,
        step=len(raw) if ample else len(kept),
        dimension=geodesic_dimension(increments),
        weight=homogeneous_weight(increments),
        young_rows=rows,
        leading=leading_constant(rows) if ample else Fraction(0),
        diagnostics=tuple(diagnostics),
    )


def geodesic_dimension(increments):
    """sum over levels of (2i - 1) d_i."""
    return int(sum((2 * i + 1) * d for i, d in enumerate(increments)))


def homogeneous_weight(increments):
    """sum over levels of i d_i."""
    return int(sum((i + 1) * d for i, d in enumerate(increments)))


def young_diagram(increments):
    """Row lengths of the diagram whose i-th column has height d_i."""
    if not increments:
        return ()
    top = max(increments)
    return tuple(sum(1 for d in increments if d >= a)
                 for a in range(1, top + 1))


def leading_constant(young_rows):
    """Exact leading coefficient: the product over rows of the closed-form
    determinant value for that row length."""
    out = Fraction(1)
    for r in young_rows:
        out *= exact.det_formula(r)
    return out


def equiregular_from(geodesic, flag, t_max):
    """Check that the growth vector is the same at EQUIREGULAR_SAMPLES
    evenly spaced points of [0, t_max] along the geodesic; `flag` is
    flag_at at its base covector.  Returns (verdict, growths), base first."""
    sys = geodesic.sys
    x, p, _ = geodesic.at([t_max * i / (EQUIREGULAR_SAMPLES - 1)
                           for i in range(1, EQUIREGULAR_SAMPLES)])
    # Only the growth is read here: one rank profile, no diagnostics.
    results = _first_failure_raised(_growth_profile(sys, x, p, sys.dim + 2))
    growths = [flag.growth] + [_trim(raw, sys.dim)[0]
                               for (raw,), _ in results]
    verdict = all(g == flag.growth for g in growths)
    return verdict, tuple(growths)
