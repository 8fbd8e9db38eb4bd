"""Geodesic flag, growth vector, and the exponent/constant data derived
from them.

The flag at a covector lambda is the projection of the osculating flag
of its Jacobi curve J(t) = M(t)^-1 V, M being the transition matrix of
the Hamiltonian flow and V the vertical space (Agrachev-Barilari-Rizzi,
arXiv 1306.5318).  M is symplectic, M^-1 = -Omega M^T Omega, so the
projected order-r coefficient of J is spanned by the rows of the order-r
coefficient of B(t) = dx(t)/dp0, which the flow's Taylor jets hold for
every time they serve.  Level j of the flag is the order-(j+1)
coefficient, times (j+1)! and pinv(F^T) to put it in the frame's scale:
modulo the lower levels it is then the bracket columns (ad T)^j X_a of
any admissible extension T of the velocity, level 0 being the frame F.
The growth vector is the rank profile of the accumulated spans.

So the flag needs no symbolic work beyond the flow's: flag_from reads
the geodesic's jet at t = 0, equiregular_from and rho.gram_from the jets
that serve their times.  The flow's jet order hamiltonian.ORDER bounds
the levels a flag can read.

The rank profiles of a time are computed once per geodesic and kept in
it, to the level cap dim + 2, one entry per time and tuple of factors
of RANK_TOL.  read_ahead serves, in one batch, the times of the stages
that the jet at t = 0 reaches, and ranks them in one pass, at RANK_TOL
alone, with the base point at flag_from's FLAG_FACTORS; the stages read
those entries and compute in one more pass only the times missing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from . import hamiltonian as ham

__all__ = [
    "FlagError", "NonFiniteError", "JetOrderError", "GeodesicFlag",
    "flag_from", "flag_at", "geodesic_dimension", "homogeneous_weight",
    "young_diagram", "leading_constant", "equiregular_times",
    "equiregular_from", "read_ahead",
]

RANK_TOL = 1e-9

# The factors of RANK_TOL at which flag_from reads the base flag's ranks.
FLAG_FACTORS = (1.0, 0.1, 10.0)

# Points of the geodesic, the base included, at which equiregular_from
# compares growth vectors.
EQUIREGULAR_SAMPLES = 5


class FlagError(ValueError):
    pass


class NonFiniteError(ArithmeticError):
    """The flag's values at a point overflow or leave the domain of the
    structure's formulas: a numerical failure, not a degenerate
    covector."""


class JetOrderError(ArithmeticError):
    """A flag level needs a Taylor order of the flow beyond the jet's
    hamiltonian.ORDER: a limit of the method, not a degenerate
    covector."""


@functools.cache
def _binomials(orders, terms):
    """binom(q, k) at row k < orders and column q < terms, 0 for q <= k."""
    return np.array([[math.comb(q, k) if q > k else 0 for q in range(terms)]
                     for k in range(orders)], float)


def _shift(C, s, orders):
    """(P, orders, c): the coefficients of orders 0..orders-1 of the series
    whose rows are C, Taylor-shifted to each offset s of a stack,
    D_k(s) = C_k + sum_{q>k} binom(q, k) C_q s^(q-k).  C_k is added to the
    finished sum, so near the jet's point, where the sum is small, D_k
    keeps C_k's digits."""
    q = np.arange(len(C))
    lag = np.maximum(q - np.arange(orders)[:, None], 0)
    powers = np.vander(s, len(C), increasing=True)[:, lag]
    return C[:orders] + (_binomials(orders, len(C)) * powers) @ C


def _jacobi_columns(geodesic, times, frames, depth):
    """The velocity (P, n) and the columns (P, depth - 1, n, k) of levels
    1..depth-1 at each of the times, from the jets that serve them; frames
    holds the (P, n, k) frame at each time.

    At a time served at the offset s by a jet with transition
    coefficients Phi_q, the order-r coefficient of the projected Jacobi
    curve is [Phi(s) (-Omega D_r(s)^T Omega)][:n, n:] = Phi_b D_a^T -
    Phi_a D_b^T, with (D_a, D_b) the left and right halves of the top n
    rows of D_r(s) and (Phi_a, Phi_b) those of Phi(s) = D_0(s).  Level j
    is r = j + 1, times r! and pinv(F^T) to express it in the frame's
    scale: at r = 1 that gives F.

    pinv(F^T) gets one refinement step, and multiplies the blocks and r!,
    in extended precision (numpy.longdouble).  A column's part along the
    lower levels can be larger than its new direction, and the ulps a
    float64 pinv and product leave there reach rho, a difference quotient
    of G over rho.FD_STEP, as noise."""
    n = geodesic.sys.dim
    m = 2 * n
    velocity = np.empty((len(times), n))
    blocks = np.empty((len(times), depth - 1, n, n))
    for C, index, s in geodesic.jets_at(times):
        top = C[:, m:].reshape(len(C), m, m)[:, :n]
        D = _shift(np.concatenate([C[:, :n], top.reshape(len(C), -1)],
                                  axis=1), s, depth + 1)
        velocity[index] = D[:, 1, :n]
        D = D[:, :, n:].reshape(len(index), depth + 1, n, m)
        Da, Db = np.swapaxes(D[:, 2:, :, :n], -1, -2), np.swapaxes(
            D[:, 2:, :, n:], -1, -2)
        blocks[index] = D[:, :1, :, n:] @ Da - D[:, :1, :, :n] @ Db
    scale = np.array([math.factorial(r) for r in range(2, depth + 1)],
                     np.longdouble)[:, None, None]
    Ft = np.swapaxes(frames, -1, -2)
    X = np.linalg.pinv(Ft).astype(np.longdouble)
    X += X @ (np.eye(len(Ft[0])) - Ft.astype(np.longdouble) @ X)
    columns = scale * (blocks.astype(np.longdouble) @ X[:, None])
    return velocity, columns.astype(float)


def _stationary(drifts, frames, ps, velocity):
    """{row: error} for the points of a stack whose squared velocity is
    not finite (NonFiniteError) or is at most 1e-24 times the squared
    size of its terms X_0 and F_a u_a, u = F^T p (FlagError, stationary
    whatever the scale of the covector)."""
    with np.errstate(over="ignore", invalid="ignore"):
        us = (np.swapaxes(frames, -1, -2) @ ps[:, :, None])[:, :, 0]
        sizes = (np.sum(np.square(drifts), axis=1) + np.sum(
            np.square(frames * us[:, None, :]), axis=(1, 2))).tolist()
        norms = np.sum(np.square(velocity), axis=1).tolist()
    return {i: FlagError("the trajectory is stationary at this covector")
            if math.isfinite(norm2) else NonFiniteError(
                "the squared velocity is not finite at this covector")
            for i, (norm2, size) in enumerate(zip(norms, sizes))
            if not math.isfinite(norm2) or norm2 <= 1e-24 * size}


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


def _growth_profile(geodesic, times, max_step, factors=None):
    """Rank profiles of the accumulated level columns at each of the times
    along the geodesic, one per factor of RANK_TOL, the factors of each
    time being the matching tuple of `factors` (by default (1.0,) for
    every time).  Returns one entry per time: (profiles, level columns of
    the first profile's levels), or the FlagError, NonFiniteError or
    JetOrderError that point raised.

    Level 0 is the frame.  The later levels and the velocity come from the
    jets that serve the times, for all levels at once, when a profile
    first needs level 1; a stationary point fails there.  Each level
    normalizes the columns of every point with a profile still open (a
    vanishing one gives a zero row, so all points have as many rows), and
    takes one SVD of the accumulated rows of all those points; the rank
    of every open profile is read from it.  A profile can pause for one
    level and then resume (a level that adds no direction at the point
    may still feed later levels), so it closes at full rank or after two
    no-gain levels in a row, not after one.  A point whose squared
    velocity or column norms are not finite fails with NonFiniteError
    and never gets a rank; level j reads the jet's order j + 1, and a
    profile still open past the jet's order fails with JetOrderError."""
    sys = geodesic.sys
    n, k = sys.dim, sys.rank
    if factors is None:
        factors = [(1.0,)] * len(times)
    xs, ps, _ = geodesic.at(times)
    frames = _frames(geodesic, times)
    depth = min(max_step, ham.ORDER)
    profiles = [tuple([] for _ in f) for f in factors]
    per_level = [[] for _ in times]
    rows = np.zeros((len(times), max_step * k, n))
    failed = {}
    # The points with a profile still open, in order: all of them at
    # level 0, and fewer at each level after.
    live = list(range(len(times)))
    for j in range(max_step):
        if j == 1 and live:
            columns = np.empty((len(times), depth - 1, n, k))
            velocity, columns[live] = _jacobi_columns(
                geodesic, [times[i] for i in live], frames[live], depth)
            errors = _stationary(sys.drift_at(xs[live]), frames[live],
                                 ps[live], velocity)
            failed.update((live[g], err) for g, err in errors.items())
            live = [i for i in live if i not in failed]
        if j == depth and live:
            failed.update((i, JetOrderError(
                "flag level %d needs the flow's Taylor order %d, beyond its"
                " jet order %d" % (j + 1, j + 1, ham.ORDER))) for i in live)
            break
        if not live:
            break
        C = frames if j == 0 else columns[live, j - 1]
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
        rows[live, j * k:(j + 1) * k] = np.divide(
            R, norms, out=np.zeros_like(R), where=norms > 0.0)
        sv = np.linalg.svd(np.swapaxes(rows[live, :(j + 1) * k], 1, 2),
                           compute_uv=False)
        counts = {factor: np.sum(sv > RANK_TOL * factor * sv[:, :1],
                                 axis=1).tolist()
                  for factor in {f for i in live for f in factors[i]}}
        still = []
        for g, i in enumerate(live):
            for ranks, factor in zip(profiles[i], factors[i]):
                if _closed(ranks, n):
                    continue
                r = counts[factor][g]
                if j == 0 and r < k:
                    failed[i] = FlagError(
                        "frame fields are dependent at %s"
                        % (xs[i].tolist(),))
                    break
                ranks.append(r)
            else:
                if not all(_closed(r, n) for r in profiles[i]):
                    still.append(i)
        live = still
    return [failed[i] if i in failed else (
        tuple(tuple(r) for r in profiles[i]),
        tuple(per_level[i][:len(profiles[i][0])]))
        for i in range(len(times))]


def _frames(geodesic, times):
    """The (P, n, k) frame at each of the times, kept in the geodesic."""
    sys = geodesic.sys
    return np.array(geodesic.kept("frame", times, lambda new: list(
        sys.frame_matrix(geodesic.at(new)[0])))).reshape(
        len(times), sys.dim, sys.rank)


def _kept_profiles(geodesic, times, factors):
    """_growth_profile at the level cap dim + 2 at each of the times, with
    the factors for all of them, kept in the geodesic."""
    return geodesic.kept(("ranks", factors), times, lambda new: (
        _growth_profile(geodesic, new, geodesic.sys.dim + 2,
                        [factors] * len(new))))


def read_ahead(geodesic, times):
    """Serve, in one batch, the times that the geodesic's jet at t = 0
    reaches, and rank them in one pass with the base point: the base at
    flag_from's factors and the times at RANK_TOL alone, each kept in the
    geodesic for flag_from, equiregular_from and rho.gram_from to read.
    No jet grows here, and a failure is left to the stage that meets it."""
    times = list(dict.fromkeys(float(t) for t in geodesic.reached(times)))
    try:
        geodesic.at(times)
    except ham.IntegrationError:
        return
    base, *results = _growth_profile(
        geodesic, [0.0] + times, geodesic.sys.dim + 2,
        [FLAG_FACTORS] + [(1.0,)] * len(times))
    by_time = dict(zip(times, results))
    geodesic.kept(("ranks", FLAG_FACTORS), [0.0], lambda new: [base])
    geodesic.kept(("ranks", (1.0,)), times,
                  lambda new: [by_time[t] for t in new])


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


def flag_from(geodesic):
    """Geodesic flag at the geodesic's base covector, read from its jet at
    t = 0.

    The level ranks are computed from column-normalized singular values
    at RANK_TOL.  Levels run until full rank or the level cap dim + 2; a
    flag that never reaches full rank is not ample, and its reported
    growth keeps one stalled level to show where it stopped.  The same
    singular values are read at a tenth and ten times the tolerance, in
    one pass over the levels, and a diagnostic is recorded if the growth
    vector is sensitive to that choice.
    """
    sys = geodesic.sys
    max_step = sys.dim + 2
    [((raw, *alts), _)] = _first_failure_raised(
        _kept_profiles(geodesic, [0.0], FLAG_FACTORS))
    diagnostics = [
        "growth vector is tolerance sensitive: %r at %g times the rank"
        " tolerance" % (alt, factor)
        for factor, alt in zip(FLAG_FACTORS[1:], alts) if alt != raw]
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


def flag_at(sys, x, p):
    """flag_from on a geodesic of its own."""
    return flag_from(ham.Geodesic(sys, x, p))


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
    """The trajectory times equiregular_from reads past the base: the
    rest of EQUIREGULAR_SAMPLES evenly spaced points of [0, t_max]."""
    return [t_max * i / (EQUIREGULAR_SAMPLES - 1)
            for i in range(1, EQUIREGULAR_SAMPLES)]


def equiregular_from(geodesic, flag, t_max):
    """Check that the growth vector is the same at EQUIREGULAR_SAMPLES
    evenly spaced points of [0, t_max] along the geodesic; `flag` is
    flag_from at its base covector.  Returns (verdict, growths), base
    first."""
    sys = geodesic.sys
    # Only the growth is read here: one rank profile, no diagnostics.
    results = _first_failure_raised(
        _kept_profiles(geodesic, equiregular_times(t_max), (1.0,)))
    growths = [flag.growth] + [_trim(raw, sys.dim)[0]
                               for (raw,), _ in results]
    verdict = all(g == flag.growth for g in growths)
    return verdict, tuple(growths)
