"""Vector fields, control structures, and unimodular auxiliary frames.

A structure is declared in one coordinate chart: a drift field, an
orthonormal spanning frame for the distribution, a potential, and a smooth
positive volume density against Lebesgue measure of the chart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex

__all__ = [
    "GeometryError", "VectorField", "ControlSystem", "AuxFrame",
    "aux_frame_at", "load_structure", "structure_from_dict",
]


class GeometryError(ValueError):
    """A structure or point the geometry cannot use; `index` is the row of
    the failing point when a stack of points was given."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class VectorField:
    """A vector field on the chart: one expression per coordinate."""

    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        for c in self.components:
            if not isinstance(c, ex.Expr):
                raise TypeError("components must be expressions")

    @property
    def dim(self):
        return len(self.components)

    @classmethod
    def from_strings(cls, texts, var_names):
        return cls(tuple(ex.parse(t, var_names) for t in texts))

    @classmethod
    def zero(cls, n):
        return cls((ex.ZERO,) * n)


@dataclass(frozen=True)
class ControlSystem:
    """Affine optimal-control structure in one chart.

    dim      chart dimension n
    rank     number of frame fields k (the distribution rank)
    X0       drift field
    frame    orthonormal spanning fields X_1..X_k
    Q        potential (expression over x1..xn)
    density  volume density m(x) > 0 against chart Lebesgue measure
    """

    dim: int
    rank: int
    X0: VectorField
    frame: tuple
    Q: object
    density: object
    name: str = "custom"
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "frame", tuple(self.frame))
        if self.rank != len(self.frame):
            raise GeometryError("rank must match the number of frame fields")
        if not (1 <= self.rank <= self.dim):
            raise GeometryError("need 1 <= rank <= dim")
        if self.X0.dim != self.dim or any(f.dim != self.dim for f in self.frame):
            raise GeometryError("field dimensions must equal the chart dimension")

    def cached(self, key, build):
        """The per-structure product stored under `key`, made by calling
        `build()` on first use.  Symbolic assemblies and compiled
        evaluators are built once per structure this way."""
        value = self._cache.get(key)
        if value is None:
            value = build()
            self._cache[key] = value
        return value

    # Like compiled expressions, these take one point x or a stack (P, n).

    def frame_matrix(self, x):
        """Frame field values at x as an (n, k) matrix of columns."""
        fn = self.cached("frame_fn", lambda: ex.compile_exprs(
            [c for f in self.frame for c in f.components]))
        return np.swapaxes(fn(x).reshape(np.shape(x)[:-1]
                                         + (self.rank, self.dim)), -1, -2)

    def drift_at(self, x):
        fn = self.cached("drift_fn",
                         lambda: ex.compile_exprs(self.X0.components))
        return fn(x)

    def density_values(self, x):
        """The density's formula at x, NaN where it overflows or leaves
        its domain; density_at checks the values."""
        fn = self.cached("density_fn",
                         lambda: ex.compile_exprs([self.density]))
        return fn(x)[..., 0]

    def density_at(self, x):
        """The density at x; GeometryError at the first point where it is
        not finite or not positive."""
        values = self.density_values(x)
        bad = np.flatnonzero(~(np.isfinite(values) & (values > 0.0)))
        if bad.size:
            i = int(bad[0])
            raise GeometryError("density is %s at %s" % (
                "not positive" if np.isfinite(np.ravel(values)[i])
                else "not finite",
                np.reshape(x, (-1, self.dim))[i].tolist()), index=i)
        return values


@dataclass(frozen=True)
class AuxFrame:
    """Unimodular auxiliary basis at a point: frame columns, then constant
    coordinate completions, with the last column rescaled so that
    density * det = 1 exactly."""

    matrix: np.ndarray
    complement: tuple


def _greedy_complement(F, n, k):
    # Pick n-k coordinate directions maximizing the completed determinant,
    # one at a time: always the axis with the largest residual against the
    # span built so far.  Deterministic (ties break to the smallest index).
    q, _ = np.linalg.qr(F)
    span = [q[:, i] for i in range(k)]
    chosen = []
    for _ in range(n - k):
        best, best_norm = None, -1.0
        for i in range(n):
            if i in chosen:
                continue
            v = np.zeros(n)
            v[i] = 1.0
            for b in span:
                v = v - np.dot(b, v) * b
            norm = float(np.linalg.norm(v))
            if norm > best_norm + 1e-15:
                best, best_norm, best_vec = i, norm, v
        if best is None or best_norm < 1e-12:
            raise GeometryError("cannot complete the frame to a basis")
        chosen.append(best)
        span.append(best_vec / best_norm)
    return tuple(sorted(chosen))


def aux_frame_at(sys, x, complement=None):
    """Auxiliary basis at x: Y_1..Y_k are the frame values, Y_{k+1}..Y_n
    the chosen constant coordinate directions, and the last column is
    rescaled so that density(x) * det(Y) = 1.

    A stack (P, n) of points x gives a stack of bases, from one frame,
    determinant and density call.  `complement` fixes the coordinate
    indices (reuse the base-point choice along a geodesic); by default a
    greedy max-|det| choice is made at the (first) point.  Raises
    GeometryError at the first point whose completion is degenerate,
    which is the signal to re-pivot, or whose density fails.
    """
    x = np.asarray(x, dtype=float)
    n, k = sys.dim, sys.rank
    xs = np.reshape(x, (-1, n))
    F = sys.frame_matrix(xs)
    if complement is None:
        complement = () if k == n else _greedy_complement(F[0], n, k)
    Y = _unimodular(sys, xs, F, complement,
                    lambda end: sys.density_at(xs[:end]))
    return AuxFrame(matrix=Y if x.ndim > 1 else Y[0],
                    complement=tuple(complement))


def _unimodular(sys, xs, F, complement, density):
    """The (P, n, n) bases of aux_frame_at at the points xs, from their
    (P, n, k) frame values F and the coordinate indices `complement`;
    density(end) gives the checked density at the points before the
    first degenerate completion, end, and is called before that
    completion raises."""
    n, k = sys.dim, sys.rank
    complement = tuple(complement)
    if len(complement) != n - k:
        raise GeometryError("complement must list %d coordinate indices" % (n - k))
    Y = np.zeros((len(xs), n, n))
    Y[:, :, :k] = F
    for c, idx in enumerate(complement):
        Y[:, idx, k + c] = 1.0
    det0 = np.linalg.det(Y)
    col_scale = np.prod(np.linalg.norm(Y, axis=1), axis=1)
    bad = np.flatnonzero(np.abs(det0) < 1e-12 * np.maximum(col_scale, 1e-300))
    end = int(bad[0]) if bad.size else len(xs)
    m = density(end)
    if bad.size:
        raise GeometryError(
            "degenerate completion %r at %s; choose a different complement"
            % (complement, xs[end].tolist()), index=end)
    Y[:, :, -1] *= (1.0 / (m * det0))[:, None]
    return Y


# ----------------------------------------------------------------------
# Structure files


def _count(data, key):
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise GeometryError("structure field %r must be a positive integer,"
                            " got %r" % (key, value))
    return value


def _texts(value, n, what):
    if not (isinstance(value, (list, tuple)) and len(value) == n
            and all(isinstance(t, str) for t in value)):
        raise GeometryError("%s must be a list of %d expression strings,"
                            " got %r" % (what, n, value))
    return value


def _text(data, key):
    value = data[key]
    if not isinstance(value, str):
        raise GeometryError("structure field %r must be an expression"
                            " string, got %r" % (key, value))
    return value


def structure_from_dict(data):
    """Build a ControlSystem from the JSON structure-file layout:
    {"dim", "rank", "X0", "frame", "Q", "density", "name"}."""
    if not isinstance(data, dict):
        raise GeometryError("a structure must be a JSON object, got %s"
                            % type(data).__name__)
    try:
        n = _count(data, "dim")
        k = _count(data, "rank")
        X0 = _texts(data["X0"], n, "structure field 'X0'")
        frame = data["frame"]
        if not isinstance(frame, (list, tuple)):
            raise GeometryError("structure field 'frame' must be a list of"
                                " fields, got %r" % (frame,))
        frame = [_texts(f, n, "each field of 'frame'") for f in frame]
        Q, density = _text(data, "Q"), _text(data, "density")
    except KeyError as missing:
        raise GeometryError("structure file is missing %s" % missing) from None
    names = ex.variables(n)
    return ControlSystem(
        dim=n, rank=k, X0=VectorField.from_strings(X0, names),
        frame=tuple(VectorField.from_strings(f, names) for f in frame),
        Q=ex.parse(Q, names), density=ex.parse(density, names),
        name=str(data.get("name", "custom")))


def load_structure(path):
    with open(path) as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as err:
            raise GeometryError("structure file %s is not valid JSON: %s"
                                % (path, err)) from None
    return structure_from_dict(data)
