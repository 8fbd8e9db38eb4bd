"""Builtin structure catalog and generic covector samplers.

Catalog names are compact spec strings:

    euclidean:n[:psi=<expr>]   flat frame, density e^psi
    sphere2                    round sphere, stereographic chart
    heisenberg3                contact, one rotation block
    heisenberg5:a1,a2          contact, two rotation blocks with rates
    engel                      rank 2 with a step-3 flag

Samplers draw covectors that are generic for the family: normalized to
energy 1/2 and kept away from the strata where the flag degenerates or
where the expansion window stops being asymptotic.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .geometry import ControlSystem, GeometryError, VectorField

__all__ = [
    "builtin", "list_builtins", "default_base",
    "sample_covector", "with_overrides", "martinet",
]


def _euclidean(n, psi=None):
    names = ex.variables(n)
    cols = []
    for i in range(n):
        comps = ["0"] * n
        comps[i] = "1"
        cols.append(VectorField.from_strings(comps, names))
    density = ex.Call("exp", ex.parse(psi, names)) if psi else ex.Const(1.0)
    label = "euclidean:%d" % n if psi is None else "euclidean:%d:psi=%s" % (n, psi)
    return ControlSystem(dim=n, rank=n, X0=VectorField.zero(n),
                         frame=tuple(cols), Q=ex.Const(0.0), density=density,
                         name=label)


def _sphere2():
    names = ex.variables(2)
    scale = "(1 + x1^2 + x2^2)/2"
    frame = (VectorField.from_strings([scale, "0"], names),
             VectorField.from_strings(["0", scale], names))
    density = ex.parse("4/(1 + x1^2 + x2^2)^2", names)
    return ControlSystem(dim=2, rank=2, X0=VectorField.zero(2),
                         frame=frame, Q=ex.Const(0.0), density=density,
                         name="sphere2")


def _heisenberg3():
    names = ex.variables(3)
    frame = (VectorField.from_strings(["1", "0", "-x2/2"], names),
             VectorField.from_strings(["0", "1", "x1/2"], names))
    return ControlSystem(dim=3, rank=2, X0=VectorField.zero(3),
                         frame=frame, Q=ex.Const(0.0), density=ex.Const(1.0),
                         name="heisenberg3")


def _heisenberg5(a1, a2):
    names = ex.variables(5)
    r1, r2 = repr(float(a1)), repr(float(a2))
    frame = (
        VectorField.from_strings(["1", "0", "0", "0", "-%s*x2/2" % r1], names),
        VectorField.from_strings(["0", "1", "0", "0", "%s*x1/2" % r1], names),
        VectorField.from_strings(["0", "0", "1", "0", "-%s*x4/2" % r2], names),
        VectorField.from_strings(["0", "0", "0", "1", "%s*x3/2" % r2], names),
    )
    return ControlSystem(dim=5, rank=4, X0=VectorField.zero(5),
                         frame=frame, Q=ex.Const(0.0), density=ex.Const(1.0),
                         name="heisenberg5:%g,%g" % (a1, a2))


def _engel():
    names = ex.variables(4)
    frame = (VectorField.from_strings(["1", "0", "0", "0"], names),
             VectorField.from_strings(["0", "1", "x1", "x1^2/2"], names))
    return ControlSystem(dim=4, rank=2, X0=VectorField.zero(4),
                         frame=frame, Q=ex.Const(0.0), density=ex.Const(1.0),
                         name="engel")


def martinet():
    """Rank-2 structure whose flag pauses at the origin before closing;
    not part of the catalog proper but a useful stress case."""
    names = ex.variables(3)
    frame = (VectorField.from_strings(["1", "0", "0"], names),
             VectorField.from_strings(["0", "1", "x1^2"], names))
    return ControlSystem(dim=3, rank=2, X0=VectorField.zero(3),
                         frame=frame, Q=ex.Const(0.0), density=ex.Const(1.0),
                         name="martinet")


def builtin(name):
    """Resolve a catalog spec string to a ControlSystem."""
    text = str(name).strip()
    parts = text.split(":")
    root = parts[0].strip().lower()
    try:
        if root == "euclidean":
            if len(parts) < 2:
                raise GeometryError("euclidean needs a dimension:"
                                    " euclidean:n[:psi=<expr>]")
            n = int(parts[1])
            if n < 1:
                raise GeometryError("euclidean dimension must be positive")
            psi = None
            if len(parts) > 2:
                tail = ":".join(parts[2:])
                if not tail.startswith("psi="):
                    raise GeometryError(
                        "euclidean weight must be given as psi=<expr>")
                psi = tail[len("psi="):]
            return _euclidean(n, psi)
        if root == "sphere2":
            return _sphere2()
        if root == "heisenberg3":
            return _heisenberg3()
        if root == "heisenberg5":
            if len(parts) != 2:
                raise GeometryError("heisenberg5 needs two rates:"
                                    " heisenberg5:a1,a2")
            a1, a2 = (float(v) for v in parts[1].split(","))
            if a1 == 0.0 or a2 == 0.0:
                raise GeometryError("heisenberg5 rates must be nonzero")
            return _heisenberg5(a1, a2)
        if root == "engel":
            return _engel()
    except (ValueError, ex.ExprError) as err:
        raise GeometryError("malformed builtin parameters in %r: %s"
                            % (text, err)) from None
    raise GeometryError("unknown builtin %r; try list-builtins" % text)


def list_builtins():
    """(spec string, description) rows for the catalog."""
    return [
        ("euclidean:n[:psi=<expr>]",
         "flat orthonormal frame on R^n, density e^psi (default 1)"),
        ("sphere2",
         "round 2-sphere in the stereographic chart, metric volume"),
        ("heisenberg3",
         "contact rank 2 on R^3, growth (2,3), Lebesgue = Popp volume"),
        ("heisenberg5:a1,a2",
         "contact rank 4 on R^5, rotation rates a1 and a2, growth (4,5)"),
        ("engel",
         "rank 2 on R^4 with growth (2,3,4) at generic covectors"),
    ]


def default_base(sys):
    """Base point used when none is supplied: the chart origin."""
    return np.zeros(sys.dim)


def _unit(rng, n):
    for _ in range(256):
        v = rng.standard_normal(n)
        norm = float(np.linalg.norm(v))
        if norm >= 1e-8:
            return v / norm
    raise GeometryError("covector sampler drew no nonzero vector")


def _signed_uniform(rng, lo, hi):
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))


def sample_covector(name, rng):
    """A generic covector at the default base, normalized so that the
    controls carry unit energy (H = 1/2 for the drift-free builtins).

    Floors keep the draw away from non-ample strata and from covectors
    whose control series turns over inside the default fit window."""
    parts = str(name).split(":")
    root = parts[0].strip().lower()
    if root == "euclidean":
        if len(parts) < 2:
            raise GeometryError("euclidean sampler needs the dimension")
        return _unit(rng, int(parts[1]))
    if root == "sphere2":
        # Frame scale is 1/2 at the origin, so unit controls need |p| = 2.
        return 2.0 * _unit(rng, 2)
    if root == "heisenberg3":
        u = _unit(rng, 2)
        return np.array([u[0], u[1], _signed_uniform(rng, 0.3, 1.5)])
    if root == "heisenberg5":
        for _ in range(256):
            u = _unit(rng, 4)
            if (np.hypot(u[0], u[1]) >= 0.2
                    and np.hypot(u[2], u[3]) >= 0.2):
                break
        else:
            raise GeometryError("covector sampler failed to satisfy"
                                " its floor")
        p5 = _signed_uniform(rng, 0.3, 1.5)
        return np.array([u[0], u[1], u[2], u[3], p5])
    if root == "engel":
        for _ in range(256):
            u = _unit(rng, 2)
            if abs(u[0]) >= 0.4:
                break
        else:
            raise GeometryError("covector sampler failed to satisfy"
                                " its floor")
        return np.array([u[0], u[1], _signed_uniform(rng, 0.2, 0.8),
                         _signed_uniform(rng, 0.2, 0.8)])
    raise GeometryError("no covector sampler for %r" % name)


def with_overrides(sys, drift=None, potential=None):
    """A copy of the system with a replacement drift and/or potential,
    parsed over the same chart variables.  Always builds a fresh system
    so cached phase-space data from the original cannot leak in."""
    names = ex.variables(sys.dim)
    X0 = (VectorField.from_strings(drift, names) if drift is not None
          else VectorField(tuple(sys.X0.components)))
    Q = ex.parse(potential, names) if potential is not None else sys.Q
    return ControlSystem(dim=sys.dim, rank=sys.rank, X0=X0,
                         frame=tuple(VectorField(tuple(f.components))
                                     for f in sys.frame),
                         Q=Q, density=sys.density, name=sys.name)
