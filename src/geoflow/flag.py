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
every coefficient is an explicit function of the covector; the symbolic
bracket columns are assembled once per structure and reused for every
base point by binding the parameters numerically.
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
    "FlagError", "GeodesicFlag", "flag_at", "geodesic_dimension",
    "homogeneous_weight", "young_diagram", "leading_constant",
    "equiregular_times", "equiregular_from", "equiregular_on",
    "admissible_extension",
    "poisson_taylor", "velocity_at",
]

RANK_TOL = 1e-9


class FlagError(ValueError):
    pass


def poisson_bracket(f, g, n):
    """{f, g} over phase variables (x1..xn, p1..pn), with the sign fixed
    so that d/dt u = {H, u} along the Hamiltonian flow."""
    terms = []
    for m in range(n):
        a = ex.Mul((ex.diff(f, n + m), ex.diff(g, m)))
        b = ex.Mul((ex.diff(f, m), ex.diff(g, n + m)))
        terms.append(a)
        terms.append(ex.Neg(b))
    return ex.simplify(ex.Add(tuple(terms)))


def _poisson_exprs(sys, order):
    """Control derivative expressions U[i][r] = (d/dt)^r u_i as phase
    functions, r = 0..order."""
    cached = sys._cache.get(("poisson_exprs", order))
    if cached is not None:
        return cached
    n = sys.dim
    H = ham.hamiltonian(sys)
    if order > 0:
        lower = _poisson_exprs(sys, order - 1)
        rows = [list(row) for row in lower]
        for row in rows:
            row.append(poisson_bracket(H, row[-1], n))
    else:
        p = [ex.Var(n + i) for i in range(n)]
        rows = [[ex.simplify(ex.Add(tuple(
            ex.Mul((p[m], f.components[m])) for m in range(n))))]
            for f in sys.frame]
    rows = tuple(tuple(row) for row in rows)
    sys._cache[("poisson_exprs", order)] = rows
    return rows


def poisson_taylor(sys, x, p, order):
    """Control jet at a covector: array of shape (k, order+1) whose
    (i, r) entry is (d/dt)^r u_i at t = 0."""
    fn = sys._cache.get(("poisson_fn", order))
    if fn is None:
        rows = _poisson_exprs(sys, order)
        fn = ex.compile_exprs([e for row in rows for e in row])
        sys._cache[("poisson_fn", order)] = fn
    vals = fn(list(x) + list(p))
    return np.array(vals, dtype=float).reshape(sys.rank, order + 1)


def velocity_at(sys, x, p):
    """gammadot = X_0(x) + sum_a u_a X_a(x)."""
    u = ham.controls_at(sys, x, p)
    return sys.drift_at(x) + sys.frame_matrix(x) @ u


# ----------------------------------------------------------------------
# The parametric extension and its bracket columns.
#
# Symbolic variable layout (nv = 3n + k*(order+1) variables):
#   [0, n)                     chart coordinates
#   [n, 2n)                    alpha, the time-function gradient
#   [2n, 3n)                   x0, the base point of s
#   3n + i*(order+1) + r       c[i][r], the control jet coefficients


def _extension_field(sys, order):
    cached = sys._cache.get(("ext_T", order))
    if cached is not None:
        return cached
    n, k = sys.dim, sys.rank
    s = ex.Add(tuple(
        ex.Mul((ex.Var(n + q), ex.Add((ex.Var(q), ex.Neg(ex.Var(2 * n + q))))))
        for q in range(n)))
    comps = []
    for m in range(n):
        terms = [sys.X0.components[m]]
        for i in range(k):
            poly = []
            for r in range(order + 1):
                c = ex.Var(3 * n + i * (order + 1) + r)
                if r == 0:
                    poly.append(c)
                else:
                    poly.append(ex.Mul((ex.Const(1.0 / math.factorial(r)),
                                        c, ex.Pow(s, r))))
            terms.append(ex.Mul((ex.Add(tuple(poly)),
                                 sys.frame[i].components[m])))
        comps.append(ex.simplify(ex.Add(tuple(terms))))
    T = geo.VectorField(tuple(comps))
    sys._cache[("ext_T", order)] = T
    return T


def _extension_level_at_order(sys, j, order):
    """Fields (ad T)^j X_a as expressions over chart + parameters, with T
    built at the given jet order.  Order j is the minimal sufficient one;
    a larger order builds a depth-j bracket inside a deeper computation."""
    if j == 0:
        return sys.frame
    cached = sys._cache.get(("ext_level_o", j, order))
    if cached is not None:
        return cached
    T = _extension_field(sys, order)
    prev = _extension_level_at_order(sys, j - 1, order)
    fields = tuple(geo.lie_bracket(T, W, nchart=sys.dim) for W in prev)
    sys._cache[("ext_level_o", j, order)] = fields
    return fields


def _extension_fn(sys, j):
    fn = sys._cache.get(("ext_fn", j))
    if fn is None:
        fields = _extension_level_at_order(sys, j, j)
        fn = ex.compile_exprs([c for W in fields for c in W.components])
        sys._cache[("ext_fn", j)] = fn
    return fn


def _extension_params(sys, x, p, order):
    v = velocity_at(sys, x, p)
    norm2 = float(np.dot(v, v))
    if norm2 < 1e-24:
        raise FlagError("the trajectory is stationary at this covector")
    alpha = v / norm2
    jets = poisson_taylor(sys, x, p, order)
    return list(alpha) + list(np.asarray(x, dtype=float)) + list(jets.ravel())


def _bracket_columns(sys, x, p, j):
    """(n, k) array whose columns are (ad T)^j X_a at x."""
    n, k = sys.dim, sys.rank
    if j == 0:
        return sys.frame_matrix(x)
    fn = _extension_fn(sys, j)
    args = list(np.asarray(x, dtype=float)) + _extension_params(sys, x, p, j)
    vals = fn(args)
    return np.array(vals, dtype=float).reshape(k, n).T


def _rank_of(columns, rank_tol):
    cols = []
    for c in columns:
        nc = float(np.linalg.norm(c))
        if nc > 0.0:
            cols.append(c / nc)
    if not cols:
        return 0
    sv = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    return int(np.sum(sv > rank_tol * sv[0]))


def admissible_extension(sys, x, p, order):
    """The polynomial admissible extension around (x, p), as a plain
    vector field over the chart (parameters bound to their values)."""
    T = _extension_field(sys, order)
    params = _extension_params(sys, x, p, order)
    binding = {sys.dim + i: params[i] for i in range(len(params))}
    comps = tuple(ex.simplify(ex.substitute(c, binding)) for c in T.components)
    return geo.VectorField(comps)


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
    rank_tol: float
    diagnostics: tuple
    bracket_columns: tuple


def _growth_profile(sys, x, p, rank_tol, max_step):
    # The rank profile can pause for one level and then resume (a level
    # that adds no direction at the point may still feed later levels),
    # so a single no-gain level does not stop the loop; two in a row do.
    columns = []
    per_level = []
    ranks = []
    for j in range(max_step):
        C = _bracket_columns(sys, x, p, j)
        per_level.append(C)
        columns.extend(C[:, a] for a in range(sys.rank))
        r = _rank_of(columns, rank_tol)
        if j == 0 and r < sys.rank:
            raise FlagError(
                "frame fields are dependent at %s" % (list(np.asarray(x)),))
        ranks.append(r)
        if r == sys.dim:
            break
        if len(ranks) >= 3 and ranks[-1] == ranks[-2] == ranks[-3]:
            break
    return tuple(ranks), tuple(per_level)


def _trim(raw, dim):
    """(growth, kept) of a rank profile.  kept ends at the last level that
    gained rank; the reported growth is the whole profile when it reaches
    full rank, else kept plus one stalled level to show the flag stopped
    short."""
    last_gain = max((i for i in range(1, len(raw)) if raw[i] > raw[i - 1]),
                    default=0)
    kept = raw[:last_gain + 1]
    return (raw if raw[-1] == dim else raw[:last_gain + 2]), kept


def flag_at(sys, x, p, rank_tol=RANK_TOL, max_step=None):
    """Geodesic flag at one covector.

    The level ranks are computed from column-normalized singular values.
    Levels run until full rank or the level cap (dim + 2 by default); a
    flag that never reaches full rank is not ample, and its reported
    growth keeps one stalled level to show where it stopped.  Ranks are
    re-checked at a tenth and ten times the tolerance, and a diagnostic
    is recorded if the growth vector is sensitive to that choice.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if max_step is None:
        max_step = sys.dim + 2
    raw, per_level = _growth_profile(sys, x, p, rank_tol, max_step)
    diagnostics = []
    for factor in (0.1, 10.0):
        alt, _ = _growth_profile(sys, x, p, rank_tol * factor, max_step)
        if alt != raw:
            diagnostics.append(
                "growth vector is tolerance sensitive: %r at %g times the"
                " rank tolerance" % (alt, factor))
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
        rank_tol=rank_tol,
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


def equiregular_times(t_max, samples=5):
    """The trajectory times equiregular_from reads: samples - 1 evenly
    spaced points of (0, t_max]."""
    return [t_max * i / (samples - 1) for i in range(1, samples)]


def equiregular_from(geodesic, t_max, samples=5, rank_tol=RANK_TOL):
    """Check that the growth vector is the same at several points of the
    geodesic over [0, t_max].  Returns (flag at 0, verdict, growths)."""
    sys = geodesic.sys
    base = flag_at(sys, geodesic.x0, geodesic.p0, rank_tol=rank_tol)
    growths = [base.growth]
    for t in equiregular_times(t_max, samples):
        # Only the growth is read here: one rank profile, no diagnostics.
        s = geodesic.sample(t)
        raw, _ = _growth_profile(sys, s.x, s.p, rank_tol, sys.dim + 2)
        growths.append(_trim(raw, sys.dim)[0])
    verdict = all(g == base.growth for g in growths)
    return base, verdict, tuple(growths)


def equiregular_on(sys, x0, p0, t_max, samples=5, tol=ham.DEFAULT_TOL,
                   rank_tol=RANK_TOL):
    """equiregular_from on a geodesic integrated for its times alone."""
    geodesic = ham.Geodesic(sys, x0, p0, equiregular_times(t_max, samples),
                            tol)
    return equiregular_from(geodesic, t_max, samples, rank_tol)
