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

where uhat_i is the Taylor polynomial of the control u_i(t) at t = 0.  The
control derivatives are iterated Poisson brackets with the Hamiltonian, so
every coefficient is an explicit function of the covector.  The brackets
are taken in graded form, as polynomials in a formal s whose coefficients
are fields over (x, alpha, c), c the control jet; only the s^0 coefficient
survives at the base point.  They are assembled once per structure and
reused for every covector by binding (x, alpha, c) numerically.
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
    "leading_constant", "equiregular_times", "equiregular_from",
    "admissible_extension", "poisson_taylor", "velocity_at",
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


def _poisson_exprs(sys, order):
    """Control derivative expressions U[i][r] = (d/dt)^r u_i as phase
    functions, r = 0..order."""
    return sys.cached(("poisson_exprs", order),
                      lambda: _build_poisson_exprs(sys, order))


def _build_poisson_exprs(sys, order):
    if order == 0:
        return tuple((u,) for u in ham._control_exprs(sys))
    # d/dt u = {H, u} is the derivative of u along the Hamiltonian field F.
    # Its terms are added in the order of sum_m (dH/dp_m du/dx_m -
    # dH/dx_m du/dp_m), which fixes the rounding of merged coefficients.
    n = sys.dim
    F = ham._hamiltonian_field(sys)
    return tuple(row + (ex.simplify(ex.Add(tuple(
        ex.Mul((F[z], ex.diff(row[-1], z)))
        for m in range(n) for z in (m, n + m)))),)
        for row in _poisson_exprs(sys, order - 1))


def poisson_taylor(sys, x, p, order):
    """Control jet at a covector: array of shape (k, order+1) whose
    (i, r) entry is (d/dt)^r u_i at t = 0."""
    fn = sys.cached(("poisson_fn", order), lambda: ex.compile_exprs(
        [e for row in _poisson_exprs(sys, order) for e in row]))
    return fn(np.concatenate([x, p])).reshape(sys.rank, order + 1)


def velocity_at(sys, x, p):
    """gammadot = X_0(x) + sum_a u_a X_a(x), the controls u being row 0
    of the control jet."""
    u = poisson_taylor(sys, x, p, 0)[:, 0]
    return sys.drift_at(x) + sys.frame_matrix(x) @ u


# ----------------------------------------------------------------------
# The graded extension and its bracket columns.
#
# Variables: x in [0, n), alpha in [n, 2n), and the control jet c[i][r] at
# 2n + r*k + i.  With S a formal time function (dS = alpha.dx, S = 0 at
# the base point), T = sum_r S^r T_r, T_0 = X_0 + sum_i c_i0 X_i and
# T_r = sum_i c_ir/r! X_i.  Fields are held as S-coefficients, bracketed by
#   [S^r A, S^m B] = S^(r+m) [A, B] + S^(r+m-1) (m (alpha.A) B - r (alpha.B) A).
# Only S^0 is evaluated, at the base point.  A bracket lowers the degree by
# at most one, so level l of (ad T)^j X_a needs the degrees <= j - l only.


def _extension_term(sys, r):
    """T_r as a vector field over (x, alpha, c)."""
    def build():
        n, k = sys.dim, sys.rank
        scale = ex.Const(1.0 / math.factorial(r))
        return geo.VectorField(tuple(ex.simplify(ex.Add(tuple(
            ([sys.X0.components[q]] if r == 0 else [])
            + [ex.Mul((scale, ex.Var(2 * n + r * k + i),
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


def _time_gradient(sys, x, frame, u):
    """alpha = v/|v|^2 for the velocity v = X_0(x) + frame @ u, with `frame`
    the frame matrix at x and u the controls there, so that the time
    function S grows at unit rate along the trajectory."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = sys.drift_at(x) + frame @ u
        norm2 = float(np.dot(v, v))
    if not math.isfinite(norm2):
        raise NonFiniteError("the squared velocity is not finite at this"
                             " covector")
    if norm2 < 1e-24:
        raise FlagError("the trajectory is stationary at this covector")
    return v / norm2


def _bracket_columns(sys, x, alpha, jet):
    """(n, k) array whose columns are (ad T)^j X_a at x, j >= 1, where
    `jet` is the control jet to order j at the point and alpha its
    _time_gradient."""
    j = jet.shape[1] - 1
    vals = _extension_fn(sys, j)(np.concatenate([x, alpha, jet.T.ravel()]))
    return vals.reshape(sys.rank, sys.dim).T


def admissible_extension(sys, x, p, order):
    """The polynomial admissible extension around (x, p) to the given jet
    order, as a plain vector field over the chart: sum_r s^r T_r with
    s(x) = <alpha, x - x0> and the jet coefficients bound to their
    values."""
    x = np.asarray(x, dtype=float)
    jet = poisson_taylor(sys, x, p, order)
    alpha = _time_gradient(sys, x, sys.frame_matrix(x), jet[:, 0])
    binding = {2 * sys.dim + i: float(c) for i, c in enumerate(jet.T.ravel())}
    s = ex.Add(tuple(ex.Mul((ex.Const(a), ex.Add((ex.Var(q), ex.Const(-xq)))))
                     for q, (a, xq) in enumerate(zip(alpha, x))))
    Ts = [_extension_term(sys, r) for r in range(order + 1)]
    return geo.VectorField(tuple(ex.simplify(ex.Add(tuple(
        ex.Mul((ex.Pow(s, r), ex.substitute(T.components[q], binding)))
        for r, T in enumerate(Ts)))) for q in range(sys.dim)))


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
    bracket_columns: tuple


def _closed(ranks, dim):
    return bool(ranks) and (ranks[-1] == dim or (
        len(ranks) >= 3 and ranks[-1] == ranks[-2] == ranks[-3]))


def _growth_profile(sys, xs, ps, max_step, factors=(1.0,)):
    """Rank profiles of the accumulated bracket columns at each covector
    (xs[i], ps[i]) of the stacks, one per factor of RANK_TOL.  Returns one
    entry per point: (profiles, bracket columns of the first profile's
    levels), or the FlagError or NonFiniteError that point raised.

    Level 0 is the frame; the velocity behind the time gradient is read
    from it and from row 0 of the control jet that level 1 evaluates.
    Each level evaluates the bracket columns of every point with a
    profile still open, normalizes them, drops the vanishing ones, and
    takes one SVD of the accumulated columns per distinct column count
    for all of those points; the rank of every open profile is read from
    it.  A profile can pause for one level and then resume (a level that
    adds no direction at the point may still feed later levels), so it
    closes at full rank or after two no-gain levels in a row, not after
    one.  A point whose squared velocity or column norms are not finite
    fails with NonFiniteError and never gets a rank."""
    n = sys.dim
    profiles = [tuple([] for _ in factors) for _ in xs]
    per_level = [[] for _ in xs]
    rows = [np.empty((0, n)) for _ in xs]
    alphas = {}
    failed = {}
    for j in range(max_step):
        level = {}
        for i, (x, p) in enumerate(zip(xs, ps)):
            if i in failed or all(_closed(r, n) for r in profiles[i]):
                continue
            if j == 0:
                level[i] = sys.frame_matrix(x)
                continue
            jet = poisson_taylor(sys, x, p, j)
            try:
                if j == 1:
                    alphas[i] = _time_gradient(sys, x, per_level[i][0],
                                               jet[:, 0])
                level[i] = _bracket_columns(sys, x, alphas[i], jet)
            except (FlagError, NonFiniteError) as err:
                failed[i] = err
        if not level:
            break
        # One contiguous row per bracket column: each norm is then the
        # same dot product numpy.linalg.norm takes of one column.
        R = np.array([C.T for C in level.values()])
        with np.errstate(over="ignore"):
            norms = np.sqrt((R[:, :, None, :] @ R[:, :, :, None])[:, :, 0, 0])
        by_count = {}
        for i, Ri, ni in zip(level, R, norms):
            # A column that is not finite has a norm that is not either.
            if not np.all(np.isfinite(ni)):
                failed[i] = NonFiniteError(
                    "level %d column norms are not finite at this covector"
                    % (j + 1))
                continue
            per_level[i].append(level[i])
            keep = ni > 0.0
            rows[i] = np.concatenate([rows[i], Ri[keep] / ni[keep, None]])
            by_count.setdefault(len(rows[i]), []).append(i)
        for group in by_count.values():
            sv = np.linalg.svd(np.swapaxes(
                np.array([rows[i] for i in group]), 1, 2), compute_uv=False)
            by_factor = [np.sum(sv > RANK_TOL * factor * sv[:, :1], axis=1)
                         for factor in factors]
            for g, i in enumerate(group):
                for ranks, counts in zip(profiles[i], by_factor):
                    if _closed(ranks, n):
                        continue
                    r = int(counts[g])
                    if j == 0 and r < sys.rank:
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
    [((raw, *alts), per_level)] = _first_failure_raised(
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
        bracket_columns=tuple(per_level),
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


def equiregular_times(t_max):
    """The trajectory times equiregular_from reads: EQUIREGULAR_SAMPLES - 1
    evenly spaced points of (0, t_max]."""
    return [t_max * i / (EQUIREGULAR_SAMPLES - 1)
            for i in range(1, EQUIREGULAR_SAMPLES)]


def equiregular_from(geodesic, flag, t_max):
    """Check that the growth vector is the same at several points of the
    geodesic over [0, t_max]; `flag` is flag_at at the geodesic's base
    covector.  Returns (verdict, growths), the base growth first."""
    sys = geodesic.sys
    x, p, _ = geodesic.at(equiregular_times(t_max))
    # Only the growth is read here: one rank profile, no diagnostics.
    results = _first_failure_raised(_growth_profile(sys, x, p, sys.dim + 2))
    growths = [flag.growth] + [_trim(raw, sys.dim)[0]
                               for (raw,), _ in results]
    verdict = all(g == flag.growth for g in growths)
    return verdict, tuple(growths)
