"""Geodesic flag, growth vectors, diagram arithmetic, leading constants."""

from fractions import Fraction

import numpy as np
import pytest

from geoflow import catalog
from geoflow import expr as ex
from geoflow import flag as fl
from geoflow import geometry as geo
from geoflow import hamiltonian as ham

import oracles


RNG = np.random.default_rng(7)


def test_euclidean_flag():
    for n in (2, 3, 4):
        sys = catalog.builtin("euclidean:%d" % n)
        p0 = RNG.uniform(-1, 1, size=n)
        f = fl.flag_at(sys, np.zeros(n), p0)
        assert f.growth == (n,)
        assert f.ample
        assert f.dimension == n
        assert f.weight == n
        assert f.leading == Fraction(1)


def test_heisenberg_flag_generic():
    sys = catalog.builtin("heisenberg3")
    for _ in range(5):
        p0 = RNG.uniform(-1, 1, size=3)
        p0[2] = RNG.uniform(0.3, 1.5)
        f = fl.flag_at(sys, np.zeros(3), p0)
        assert f.growth == (2, 3)
        assert f.increments == (2, 1)
        assert f.dimension == 5
        assert f.weight == 4
        assert f.young_rows == (2, 1)
        assert f.leading == Fraction(1, 12)


def test_heisenberg_flag_straight_line():
    # p3 = 0 gives a straight geodesic; the flag brackets the whole
    # distribution along it, so the growth is still (2, 3)
    sys = catalog.builtin("heisenberg3")
    f = fl.flag_at(sys, np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert f.growth == (2, 3)
    assert f.ample


def test_growth_profile_stacks_ragged_levels(monkeypatch):
    # Along the straight line one level-1 bracket vanishes and becomes a
    # zero row, so the two points still share one SVD per level.
    sys = catalog.builtin("heisenberg3")
    points = [(np.zeros(3), np.array([1.0, 0.0, 0.0])),
              (np.zeros(3), np.array([1.0, 0.0, 1.0]))]
    factors = (1.0, 0.1, 10.0)
    singles = [fl._growth_profile(sys, x[None], p[None], 5, factors)[0]
               for x, p in points]
    svds = []
    inner = np.linalg.svd

    def counted(*args, **kwargs):
        svds.append(args[0].shape)
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    xs, ps = (np.array(stack) for stack in zip(*points))
    stacked = fl._growth_profile(sys, xs, ps, 5, factors)
    assert svds == [(2, 3, 2), (2, 3, 4)]
    for (profiles, columns), (one_profiles, one_columns) in zip(stacked,
                                                                singles):
        assert profiles == one_profiles
        assert len(columns) == len(one_columns) == 2
        assert all(np.array_equal(a, b) for a, b in zip(columns, one_columns))
    assert [sum(np.count_nonzero(np.any(C != 0.0, axis=0)) for C in columns)
            for _, columns in stacked] == [3, 4]


def test_engel_flag_generic():
    sys = catalog.builtin("engel")
    for _ in range(4):
        p0 = np.array([RNG.uniform(0.5, 1.2), RNG.uniform(-1, 1),
                       RNG.uniform(0.3, 1.0), RNG.uniform(0.3, 1.0)])
        f = fl.flag_at(sys, np.zeros(4), p0)
        assert f.growth == (2, 3, 4)
        assert f.increments == (2, 1, 1)
        assert f.dimension == 10
        assert f.weight == 7
        assert f.young_rows == (3, 1)
        assert f.leading == Fraction(1, 8640)


def test_engel_flag_stalls_without_first_control():
    # u1 = 0 initially and p4 = 0: the level-3 direction never appears
    sys = catalog.builtin("engel")
    f = fl.flag_at(sys, np.zeros(4), np.array([0.0, 1.0, 0.0, 0.0]))
    assert not f.ample
    assert f.growth[0] == 2


def test_heisenberg5_flag():
    sys = catalog.builtin("heisenberg5:1,2")
    p0 = np.array([0.5, -0.4, 0.6, 0.3, 1.1])
    f = fl.flag_at(sys, np.zeros(5), p0)
    assert f.growth == (4, 5)
    assert f.increments == (4, 1)
    assert f.dimension == 7
    assert f.young_rows == (2, 1, 1, 1)
    assert f.leading == Fraction(1, 12)


def test_martinet_pause_and_resume():
    # at the origin the second bracket level adds nothing, the third does
    sys = catalog.martinet()
    f = fl.flag_at(sys, np.zeros(3), np.array([1.0, 1.0, 0.8]))
    assert f.growth == (2, 2, 3)
    assert f.ample
    assert f.dimension == 1 * 2 + 5 * 1


def test_martinet_abnormal_line_stalls():
    sys = catalog.martinet()
    f = fl.flag_at(sys, np.zeros(3), np.array([0.0, 1.0, 0.5]))
    assert not f.ample


def test_stationary_covector_raises():
    sys = catalog.builtin("heisenberg3")
    with pytest.raises(fl.FlagError):
        fl.flag_at(sys, np.zeros(3), np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize("name, p0", [
    ("heisenberg3", [1.0, 0.0, 0.0]), ("heisenberg3", [0.6, 0.8, 1.1]),
    ("engel", [0.8, 0.6, 0.5, -0.4])])
def test_flag_does_not_depend_on_the_covector_scale(name, p0):
    # Stationary is a shape, not a size: the squared velocity is compared
    # with the squared size of its terms.
    sys = catalog.builtin(name)
    x0 = np.zeros(sys.dim)
    want = fl.flag_at(sys, x0, np.array(p0))
    for e in range(-13, 4):
        got = fl.flag_at(sys, x0, 10.0 ** e * np.array(p0))
        assert (got.growth, got.leading) == (want.growth, want.leading), e


def test_dependent_frame_names_the_point():
    sys = geo.structure_from_dict({
        "dim": 2, "rank": 2, "X0": ["0", "0"],
        "frame": [["1", "0"], ["x2", "x1"]], "Q": "0", "density": "1"})
    with pytest.raises(fl.FlagError,
                       match=r"frame fields are dependent at \[0\.0, 0\.0\]"):
        fl.flag_at(sys, np.zeros(2), np.array([1.0, 0.5]))


def _nearly_contact(eps):
    # X1 = d1, X2 = (1 + x1) d2 + eps x1 d3: the bracket [X1, X2] has a
    # d3 component of size eps, close to the rank tolerance
    return geo.structure_from_dict({
        "dim": 3, "rank": 2, "X0": ["0", "0", "0"],
        "frame": [["1", "0", "0"], ["0", "1 + x1", "%r*x1" % eps]],
        "Q": "0", "density": "1"})


def test_tolerance_sensitive_growth_is_diagnosed():
    p0 = np.array([1.0, 0.5, 0.3])
    f = fl.flag_at(_nearly_contact(3e-9), np.zeros(3), p0)
    assert f.growth == (2, 3)
    assert f.diagnostics == (
        "growth vector is tolerance sensitive: (2, 2, 2) at 10 times the"
        " rank tolerance",)
    sys = _nearly_contact(3e-10)
    f = fl.flag_at(sys, np.zeros(3), p0)
    assert f.growth == (2, 2)
    assert not f.ample
    assert f.diagnostics == (
        "growth vector is tolerance sensitive: (2, 3) at 0.1 times the"
        " rank tolerance",)
    # the bracket columns are those of the reported (1x) profile
    [(_, columns)] = fl._growth_profile(sys, np.zeros(3)[None], p0[None],
                                        sys.dim + 2, (1.0, 0.1, 10.0))
    assert len(columns) == len(f.raw_ranks)


def test_monotone_increments_on_builtins():
    cases = [("heisenberg3", [0.6, -0.8, 1.1]),
             ("engel", [0.8, 0.6, 0.5, -0.4]),
             ("heisenberg5:1,2", [0.5, -0.4, 0.6, 0.3, 1.1])]
    for name, p in cases:
        sys = catalog.builtin(name)
        f = fl.flag_at(sys, np.zeros(sys.dim), np.array(p, dtype=float))
        d = f.increments
        assert all(d[i] >= d[i + 1] for i in range(len(d) - 1))
        assert not f.diagnostics


def test_dimension_weight_pure_functions():
    assert fl.geodesic_dimension((2, 1)) == 5
    assert fl.geodesic_dimension((2, 1, 1)) == 10
    assert fl.geodesic_dimension((4, 1)) == 7
    assert fl.homogeneous_weight((2, 1)) == 4
    assert fl.homogeneous_weight((2, 1, 1)) == 7
    assert fl.young_diagram((2, 1, 1)) == (3, 1)
    assert fl.young_diagram((4, 1)) == (2, 1, 1, 1)
    assert fl.leading_constant((1, 1, 1)) == Fraction(1)
    assert fl.leading_constant((2, 1)) == Fraction(1, 12)
    assert fl.leading_constant((3, 1)) == Fraction(1, 8640)


def _equiregular(sys, x0, p0, t_max):
    flag = fl.flag_at(sys, x0, p0)
    geodesic = ham.Geodesic(sys, x0, p0, fl.equiregular_times(t_max))
    return fl.equiregular_from(geodesic, flag, t_max)


def test_equiregular_from_contact():
    sys = catalog.builtin("heisenberg3")
    ok, growths = _equiregular(sys, np.zeros(3), np.array([1.0, 0.0, 1.0]),
                               0.3)
    assert ok
    assert all(g == (2, 3) for g in growths)


def test_equiregular_detects_martinet_jump():
    sys = catalog.martinet()
    ok, growths = _equiregular(sys, np.zeros(3), np.array([1.0, 1.0, 0.7]),
                               0.3)
    assert not ok
    assert growths[0] == (2, 2, 3)
    assert growths[-1] == (2, 3)


def test_control_jet_matches_flow_derivatives():
    # r! times the order-r Taylor coefficient of the controls vs finite
    # differences of the integrated controls along the flow
    sys = catalog.builtin("engel")
    x0 = np.zeros(4)
    p0 = np.array([0.8, 0.6, 0.5, -0.4])
    coeffs = fl.control_jet(sys, x0, p0, 2)
    h = 1e-3
    def controls(x, p):
        return fl.control_jet(sys, x, p, 0)[:, 0]

    u = {dt: controls(*oracles.flow(sys, x0, p0, dt))
         for dt in (-2 * h, -h, h, 2 * h)}
    u0 = controls(x0, p0)
    du = (u[h] - u[-h]) / (2 * h)
    d2u = (u[h] - 2 * u0 + u[-h]) / (h * h)
    coeffs = np.asarray(coeffs)
    assert np.allclose(coeffs[:, 0], u0, atol=1e-12)
    assert np.allclose(coeffs[:, 1], du, atol=1e-6)
    assert np.allclose(2 * coeffs[:, 2], d2u, atol=1e-4)


def _jet_system(name):
    if name == "martinet":
        return catalog.martinet()
    if name == "heisenberg3 (drift, potential)":
        return catalog.with_overrides(catalog.builtin("heisenberg3"),
                                      drift=["x2", "0", "0"],
                                      potential="x1^2")
    return catalog.builtin(name)


JET_SYSTEMS = ["heisenberg3", "engel", "heisenberg5:1,2", "martinet",
               "heisenberg3 (drift, potential)"]


@pytest.mark.parametrize("name", JET_SYSTEMS + ["node kinds"])
def test_control_jet_is_the_poisson_bracket_with_h(name):
    # The Taylor coefficients of the controls against the chain
    # u^(r+1) = {H, u^(r)} evaluated and divided by r!, to order 3.  The
    # node-kinds structure draws x inside log's domain.
    rng = np.random.default_rng(5)
    if name == "node kinds":
        sys = geo.load_structure(oracles.NODE_KINDS)
        lo, hi = 0.2, 0.6
    else:
        sys = _jet_system(name)
        lo, hi = -0.6, 0.6
    for _ in range(2):
        x = rng.uniform(lo, hi, size=sys.dim)
        p = rng.uniform(-1.0, 1.0, size=sys.dim)
        got = fl.control_jet(sys, x, p, 3)
        want = oracles.poisson_chain(sys, x, p, 3)
        # relative to the largest coefficient of each order
        gap = np.max(np.abs(got - want) / np.max(np.abs(want), axis=0))
        assert gap <= 1e-12, (name, gap)


@pytest.mark.parametrize("name", ["heisenberg3", "engel", "heisenberg5:1,2"])
def test_hamiltonian_is_differentiated_once_per_phase_coordinate(
        name, monkeypatch):
    # The Taylor flow's field and the control jet share one derivation of
    # the Hamiltonian field.
    sys = catalog.builtin(name)
    H = ham.hamiltonian(sys)
    calls = []
    diff = ex.diff

    def counted(e, var):
        if e is H:
            calls.append(var)
        return diff(e, var)

    monkeypatch.setattr(ex, "diff", counted)
    ham._taylor_fn(sys)
    fl.control_jet(sys, np.zeros(sys.dim), np.ones(sys.dim), 3)
    assert sorted(calls) == list(range(2 * sys.dim))


def test_controls_are_row_zero_of_the_control_jet():
    sys = catalog.builtin("heisenberg3")
    p0 = np.array([0.3, -0.5, 2.0])
    u = fl.control_jet(sys, np.zeros(3), p0, 0)[:, 0]
    assert np.allclose(u, [0.3, -0.5])


def test_velocity_at():
    sys = catalog.builtin("heisenberg3")
    v = oracles.velocity_at(sys, np.zeros(3), np.array([0.3, -0.7, 5.0]))
    assert np.allclose(v, [0.3, -0.7, 0.0], atol=1e-14)


def test_extension_reproduces_velocity_along_curve():
    sys = catalog.builtin("engel")
    x0 = np.zeros(4)
    p0 = np.array([0.8, 0.6, 0.5, -0.4])
    T = oracles.admissible_extension(sys, x0, p0, 4)
    for t in (0.0, 0.02, 0.05):
        x, p = oracles.flow(sys, x0, p0, t)
        want = oracles.velocity_at(sys, x, p)
        got = ex.compile_exprs(T.components)(x)
        assert np.allclose(got, want, atol=1e-6)


@pytest.mark.parametrize("name", ["heisenberg3", "heisenberg5:1,2",
                                  "heisenberg5:2,5", "engel"])
def test_bracket_columns_match_brackets_of_the_extension(name):
    # An independent route to (ad T)^j X_a: bracket the numeric admissible
    # extension j times with lie_bracket, at the jet order j and at j + 2.
    sys = catalog.builtin(name)
    rng = np.random.default_rng(11)
    for _ in range(2):
        x = rng.uniform(-0.6, 0.6, size=sys.dim)
        p = catalog.sample_covector(name, rng)
        u = fl.control_jet(sys, x, p, 0)[:, 0]
        [alpha], _ = fl._time_gradient(sys.drift_at(x[None]),
                                       sys.frame_matrix(x[None]), u[None])
        for j in range(1, fl.flag_at(sys, x, p).step):
            got = fl._bracket_columns(sys, x, alpha,
                                      fl.control_jet(sys, x, p, j))
            for order in (j, j + 2):
                T = oracles.admissible_extension(sys, x, p, order)
                fields = sys.frame
                for _ in range(j):
                    fields = [geo.lie_bracket(T, W) for W in fields]
                want = ex.compile_exprs(
                    [c for W in fields for c in W.components])(x)
                want = want.reshape(sys.rank, sys.dim).T
                gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert gap <= 1e-12, (name, j, order, gap)


def _distinct_nodes(exprs):
    seen = set()
    stack = list(exprs)
    while stack:
        e = stack.pop()
        if e in seen:
            continue
        seen.add(e)
        if isinstance(e, ex.Add):
            stack.extend(e.terms)
        elif isinstance(e, ex.Mul):
            stack.extend(e.factors)
        elif isinstance(e, ex.Div):
            stack.extend((e.num, e.den))
        elif isinstance(e, ex.Call):
            stack.append(e.arg)
        elif isinstance(e, ex.Pow):
            stack.append(e.base)
    return len(seen)


@pytest.mark.parametrize("name", ["euclidean:3", "sphere2", "heisenberg3",
                                  "heisenberg5:1,2", "engel", "martinet"])
def test_simplify_output_is_a_fixed_point(name):
    # simplify takes the nodes it returned earlier as they are; that is
    # sound because re-simplifying them changes nothing.  substitute with
    # no replacements rebuilds a tree without the flag.
    sys = catalog.martinet() if name == "martinet" else catalog.builtin(name)
    exprs = list(ham._hamiltonian_field(sys))
    for X in sys.frame:
        for Y in sys.frame:
            exprs += geo.lie_bracket(X, Y).components
    for j in range(1, 4):
        fl._extension_fn(sys, j)
    for key, fields in sys._cache.items():
        if key[0] == "ext_T":
            exprs += fields.components
        elif key[0] == "ext_coef":
            exprs += [c for W in fields for c in W.components]
    assert len(exprs) > 10 * sys.dim
    for e in exprs:
        copy = ex.substitute(e, {})
        assert ex.simplify(copy) == e


def test_engel_level_two_expressions_stay_small():
    # The graded extension keeps (ad T)^2 X_a at 97 distinct nodes; the
    # bracket chain of the x0-parametric extension it replaced had 265.
    sys = catalog.builtin("engel")
    fields = fl._extension_coefficient(sys, 2, 0)
    assert _distinct_nodes(c for W in fields for c in W.components) < 150
