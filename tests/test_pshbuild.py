import dataclasses
import math
import warnings

import numpy as np
import pytest

from polarhull import pshbuild, ratapprox
from polarhull.core import CircleContour, CompactSample, PolarhullError, _horner, pointwise
from polarhull.fekete import leja_points
from polarhull.models import ExpReciprocal, PoleSeries, RationalModel, RecipSinPi
from polarhull.pshbuild import (
    GridSpec,
    PshField,
    ScheduleExhausted,
    _certification_grid,
    _h_of_cleared,
    _level_clamp,
    certify_schedule,
    export_field,
    u_eval,
)
from polarhull.ratapprox import build_approximant

A = 0.4


@pointwise
def h_eval(approximant, z, w):
    """The deleted `pshbuild.h_eval`: (1/n) log |w q(z) - p(z)|, -inf below the noise."""
    return _h_of_cleared(approximant.cleared_eval(z, w), approximant.normalization)


@pytest.fixture(scope="module")
def single_pole_approx():
    f = RationalModel([A], [1.0])
    system = leja_points(f.singular_sample(), 1)
    return build_approximant(f, system, 1, 1)


@pytest.fixture(scope="module")
def single_pole_field():
    f = RationalModel([A], [1.0])
    return certify_schedule(f, f.singular_sample(), 4)


@pytest.fixture(scope="module")
def gauss10_field(gauss10):
    return certify_schedule(gauss10, gauss10.singular_sample(), 4)


@pytest.fixture(scope="module")
def exp_field():
    f = ExpReciprocal()
    return certify_schedule(f, f.singular_sample(), 4)


class TestHEval:
    def test_on_graph_marker(self, single_pole_approx):
        z = A + 1.0
        w = 1.0 / (z - A)
        assert h_eval(single_pole_approx, z, w) == -math.inf

    def test_at_pole_with_zero_w(self, single_pole_approx):
        # w q - p collapses to -p(a) = -1, so h = log 1 = 0
        assert h_eval(single_pole_approx, A, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_unit_offset_at_unit_q(self, single_pole_approx):
        z = A + 1.0  # |q(z)| = 1
        w = 1.0 / (z - A) + 1.0
        assert h_eval(single_pole_approx, z, w) == pytest.approx(0.0, abs=1e-12)

    def test_explicit_floor_marks_small_values(self, single_pole_approx):
        z = A + 1.0
        w = 1.0 / (z - A) + 1e-3  # h = log(1e-3) = -6.9, a genuine value
        assert h_eval(single_pole_approx, z, w) == pytest.approx(math.log(1e-3))


class TestCertify:
    def test_nu_max_below_two_rejected(self):
        f = RationalModel([A], [1.0])
        with pytest.raises(ValueError, match=r"nu_max must be in \[2, 12\]"):
            certify_schedule(f, f.singular_sample(), nu_max=1)

    def test_single_pole_trivial_levels(self, single_pole_field):
        # the exact approximant pins the graph bound at -inf from the start;
        # the box ceiling still needs the outer order to grow so its n-th
        # root absorbs the torus constants
        for lev in single_pole_field.levels:
            assert lev.h_bound_graph == -math.inf
        assert [lev.approximant.degree for lev in single_pole_field.levels] == [2, 4, 7]

    def test_exp_schedule_degrees(self, exp_field):
        # frozen desk-run oracle; degrees must stay well under the cap
        degrees = [lev.approximant.big_n for lev in exp_field.levels]
        assert degrees == [16, 22, 25]
        assert all(d <= 60 for d in degrees)

    def test_exp_truncation_residual_shows_on_the_boundary(self, exp_field):
        # N = 21 at nu = 3 and N = 24 at nu = 4 read -inf on the old lattice; on
        # the boundary they read the truncation residual, above the level's -nu
        for lev, n in zip(exp_field.levels[1:], (21, 24)):
            hg = {t[0]: t[1] for t in lev.tried}[n]
            assert -lev.nu < hg < -2.0

    def test_gauss10_levels_certify(self, gauss10_field):
        for lev in gauss10_field.levels:
            assert lev.h_bound_graph <= -lev.nu
            assert lev.h_bound_box <= math.log(lev.nu + 2)
            assert lev.h_bound_offgraph >= -math.log(lev.nu + 1)

    def test_graph_bounds_decrease_with_level(self, exp_field):
        bounds = [lev.h_bound_graph for lev in exp_field.levels]
        for a, b in zip(bounds, bounds[1:]):
            assert b <= a
            if math.isfinite(a) and math.isfinite(b):
                assert b < a

    def test_schedule_exhausted(self, monkeypatch):
        monkeypatch.setattr(pshbuild, "DEGREE_CAP", 3)
        f = ExpReciprocal()
        with pytest.raises(ScheduleExhausted) as info:
            certify_schedule(f, f.singular_sample(), 4)
        assert info.value.nu == 2
        assert math.isfinite(info.value.best["graph"])
        tried = info.value.tried
        assert [t[0] for t in tried] == [1, 2, 3]
        best = min(tried, key=lambda t: t[1])
        keys = ("big_n", "graph", "box", "offgraph", "converged")
        assert best == tuple(info.value.best[k] for k in keys)
        assert "'converged': True" in str(info.value)

    def test_exhausted_best_says_it_never_converged(self):
        # the first lowest graph bound, N = 6, passes every bound of level 2,
        # but no try from N = 4 on converged; best must say so
        f = RecipSinPi(2)
        with pytest.raises(ScheduleExhausted) as info:
            certify_schedule(f, f.singular_sample(), 2)
        best = info.value.best
        assert best["graph"] <= -2 and best["box"] <= math.log(4)
        assert best["offgraph"] >= -math.log(3)
        assert best["converged"] is False and "'converged': False" in str(info.value)


    def test_unconverged_approximant_never_certifies(self):
        # the order that certifies level 2 first is reported as unconverged,
        # so the level must move on to the next order
        f = RationalModel([A], [1.0])

        def builder(*args, **kwargs):
            ap = build_approximant(*args, **kwargs)
            return dataclasses.replace(ap, converged=ap.big_n != 2)

        plain = certify_schedule(f, f.singular_sample(), 2)
        assert plain.levels[0].approximant.big_n == 2
        field = certify_schedule(f, f.singular_sample(), 2, builder=builder)
        assert field.levels[0].approximant.big_n == 3
        assert field.levels[0].approximant.converged

    def test_all_unconverged_exhausts_schedule(self, monkeypatch):
        monkeypatch.setattr(pshbuild, "DEGREE_CAP", 6)
        f = RationalModel([A], [1.0])
        builder = lambda *a, **k: dataclasses.replace(build_approximant(*a, **k),
                                                       converged=False)
        with pytest.raises(ScheduleExhausted):
            certify_schedule(f, f.singular_sample(), 2, builder=builder)


FIELD_CERTIFY = {
    "exp-reciprocal/nu8": (ExpReciprocal(), 8),
    "two-pole/nu8": (RationalModel([0.3, 0.5], [1.0, 2.0]), 8),
    "recip-sin-pi-8/nu8": (RecipSinPi(8), 8),
    "gaussian-10/nu4": (PoleSeries.gaussian(10), 4),
    "gaussian-10/nu6": (PoleSeries.gaussian(10), 6),
    "geometric-10/nu6": (PoleSeries.geometric(10), 6),
    "gaussian-20/nu4": (PoleSeries.gaussian(20), 4),
}


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _oracle_bounds(ap, f, nu, zw_grid):
    """The three bounds of `ap` at level nu taken on the (z, w) lattice oracle.

    The graph bound is the largest `h_eval` on the lattice's graph nodes, the
    box ceiling the largest on the 48 x 48 torus and the floor the smallest on
    the off-graph nodes.
    """
    graph, box, off = zw_grid(f, f.singular_sample(), nu, 10)
    hg = float(np.max(h_eval(ap, graph, np.asarray(f(graph), dtype=complex))))
    return hg, float(np.max(h_eval(ap, *box))), float(np.min(h_eval(ap, *off)))


def _grid_search(f, nu_max, build, zw_grid):
    """`certify_schedule`'s search with all three bounds taken on the lattice oracle.

    Returns the order that certifies each level.
    """
    k = f.singular_sample()
    m = len(k)
    system = leja_points(k, m)
    orders, n = [], 1
    for nu in range(2, nu_max + 1):
        while True:
            assert m * n <= max(200, m), "oracle exhausted the degree cap"
            ap = build(f, system, m, n, quad_tol=1e-13)
            hg, hb, ho = _oracle_bounds(ap, f, nu, zw_grid)
            if ap.converged and hg <= -nu and hb <= math.log(nu + 2) and ho >= -math.log(nu + 1):
                break
            n += 1
        orders.append(n)
    return orders


DOMINANCE_FIELDS = {**FIELD_CERTIFY, "single-pole/nu4": (RationalModel([A], [1.0]), 4)}


@pytest.mark.parametrize("label", list(DOMINANCE_FIELDS))
def test_boundary_bounds_dominate_the_lattice(label, zw_grid):
    # by the maximum principle the boundary nodes read every bound at least as
    # far from certifying as the 2-D lattice does, on the same approximants
    f, nu_max = DOMINANCE_FIELDS[label]
    built = {}

    def build(f, system, m, n, *args, **kwargs):
        if n not in built:
            built[n] = build_approximant(f, system, m, n, *args, **kwargs)
        return built[n]

    field = certify_schedule(f, f.singular_sample(), nu_max, builder=build)
    for lev in field.levels:
        for n, hg, hb, ho, conv in lev.tried:
            og, ob, oo = _oracle_bounds(built[n], f, lev.nu, zw_grid)
            assert hg >= og and hb >= ob and ho <= oo and conv == built[n].converged
        bounds = (lev.approximant.big_n, lev.h_bound_graph, lev.h_bound_box,
                  lev.h_bound_offgraph, True)
        assert repr(lev.tried[-1]) == repr(bounds)
    oracle = _grid_search(f, nu_max, build, zw_grid)
    assert all(lev.approximant.big_n >= n for lev, n in zip(field.levels, oracle))


@pytest.mark.parametrize("label", list(FIELD_CERTIFY))
def test_graph_nodes_lie_on_the_boundary(label):
    f, nu_max = FIELD_CERTIFY[label]
    k = f.singular_sample()
    for nu in range(2, nu_max + 1):
        grid = _certification_grid(k, nu)
        z, cut = grid.graph_nodes, 1.0 / nu
        dist = np.abs(z[:, None] - k.points[None, :])
        on_outer = np.abs(np.abs(z) - nu) <= 1e-12 * nu
        on_ring = np.any(np.abs(dist - cut) <= 1e-12, axis=1)
        assert np.all(on_outer | on_ring)
        assert np.all(dist.min(axis=1) > cut * (1 - 1e-9))  # none inside an excluded disk
        # these samples keep 1/nu away from |z| = nu, so the outer circle is whole
        assert on_outer.sum() == math.ceil(2 * math.pi * nu * pshbuild.GRID_DENSITY)
        # the floor reads the graph nodes; the box ceiling reads none
        assert grid.to_dict() == {"nu": nu, "graph_count": len(z),
                                  "box_count": 0, "offgraph_count": len(z)}


def test_floor_is_minus_inf_when_f_n_strays_from_f(monkeypatch):
    # c_0 doubled: f_N = 2/(z - A), so |f - f_N| = 1/|z - A| reaches nu on
    # the ring |z - A| = 1/nu, above 1/nu; no try may certify
    f = RationalModel([A], [1.0])

    def builder(*args, **kwargs):
        ap = build_approximant(*args, **kwargs)
        coeffs = ap.coeffs.copy()
        coeffs[0] *= 2.0
        return dataclasses.replace(ap, coeffs=coeffs)

    monkeypatch.setattr(pshbuild, "DEGREE_CAP", 6)
    with pytest.raises(ScheduleExhausted) as info:
        certify_schedule(f, f.singular_sample(), 2, builder=builder)
    assert [t[0] for t in info.value.tried] == [1, 2, 3, 4, 5, 6]
    assert all(t[3] == -math.inf for t in info.value.tried)
    plain = certify_schedule(f, f.singular_sample(), 2)
    assert math.isfinite(plain.levels[0].h_bound_offgraph)


def test_quadrature_noise_counts_against_both_closed_form_bounds(monkeypatch):
    # coefficient noise 1 puts every graph node below the noise marker, so the
    # graph bound is -inf; the floor must still fail and the ceiling must rise
    f = RationalModel([A], [1.0])

    def noisy(*args, **kwargs):
        ap = build_approximant(*args, **kwargs)
        return dataclasses.replace(ap, noise=np.ones_like(ap.noise))

    monkeypatch.setattr(pshbuild, "DEGREE_CAP", 8)
    with pytest.raises(ScheduleExhausted) as info:
        certify_schedule(f, f.singular_sample(), 2, builder=noisy)
    tried = info.value.tried
    assert [t[0] for t in tried] == list(range(1, 9))
    assert all(t[1] == t[3] == -math.inf for t in tried)
    assert any(t[2] <= math.log(4) for t in tried)  # only the floor keeps the level out
    plain = certify_schedule(f, f.singular_sample(), 2).levels[0].tried
    assert all(a[2] > b[2] for a, b in zip(tried, plain))


@pytest.mark.parametrize("f", [PoleSeries.gaussian(10), RationalModel([0.3, 0.5], [1.0, 2.0])],
                         ids=["gaussian-10", "two-pole"])
def test_box_ceiling_bounds_the_torus(f):
    built = []

    def build(*args, **kwargs):
        built.append(build_approximant(*args, **kwargs))
        return built[-1]

    field = certify_schedule(f, f.singular_sample(), 2, builder=build)
    t = 2.0 * np.exp(2j * np.pi * np.arange(256) / 256)
    assert len(built) == len(field.levels[0].tried)
    for ap, tried in zip(built, field.levels[0].tried):
        assert tried[2] >= np.max(h_eval(ap, t[None, :], t[:, None]))


def test_h_eval_broadcast_equals_flat_pairs(gauss10_field, rng):
    z = rng.uniform(-1.5, 1.5, (300, 1)) + 1j * rng.uniform(-1.5, 1.5, (300, 1))
    w = rng.uniform(-3.0, 3.0, (300, 8)) + 1j * rng.uniform(-3.0, 3.0, (300, 8))
    zf, wf = np.broadcast_arrays(z, w)
    for lev in gauss10_field.levels:
        ap = lev.approximant
        assert _same_bits(h_eval(ap, z, w).ravel(), h_eval(ap, zf.ravel(), wf.ravel()))
        diff, eval_shadow, quad_shadow = ap.cleared_eval(z, w)
        assert diff.shape == eval_shadow.shape == w.shape
        assert quad_shadow.shape == z.shape


class TestUEval:
    def test_on_graph_clamp_sum(self, single_pole_field):
        z = A + 0.9
        w = 1.0 / (z - A)
        clamp_sum = sum((-nu - math.log(nu + 2)) / nu**2 for nu in range(2, 5))
        evans = math.log(abs(z - A))
        assert u_eval(single_pole_field, z, w) == pytest.approx(clamp_sum + evans)

    def test_off_graph_lower_bound(self, gauss10_field, gauss10):
        z = 0.7
        w = complex(gauss10(z)) + 2.0
        lower = sum(
            (-math.log(nu + 1) - math.log(nu + 2)) / nu**2 for nu in range(2, 5)
        )
        atoms = gauss10_field.sample.points
        evans = sum(math.log(abs(z - a)) / len(atoms) for a in atoms)
        assert u_eval(gauss10_field, z, w) >= lower + evans

    def test_gap_regression_oracle(self, gauss10_field, gauss10):
        z = 0.7
        w_on = complex(gauss10(z))
        gap = u_eval(gauss10_field, z, w_on + 2.0) - u_eval(gauss10_field, z, w_on)
        assert gap == pytest.approx(0.7689083506, abs=1e-6)

    def test_atom_sentinel(self, gauss10_field):
        assert u_eval(gauss10_field, 1.0, 0.0) == -math.inf

    def test_clamp_never_below_raw(self, gauss10_field, rng):
        zs = rng.uniform(-2, 2, 20) + 1j * rng.uniform(-2, 2, 20)
        ws = rng.uniform(-2, 2, 20) + 1j * rng.uniform(-2, 2, 20)
        for z, w in zip(zs, ws):
            clamped = 0.0
            raw = 0.0
            for lev in gauss10_field.levels:
                nu = lev.nu
                h = h_eval(lev.approximant, z, w)
                clamped += max(h - math.log(nu + 2), -nu - math.log(nu + 2)) / nu**2
            raw = sum(
                (h_eval(lev.approximant, z, w) - math.log(lev.nu + 2)) / lev.nu**2
                for lev in gauss10_field.levels
            )
            assert clamped >= raw


class TestGraphDetectionGap:
    def test_positive_gap_at_level_scale(self, gauss10_field, gauss10):
        for lev in gauss10_field.levels:
            nu = lev.nu
            for z in (0.7, 0.65 + 0.1j):
                w_on = complex(gauss10(z))
                delta = 1.0 / nu
                on = u_eval(gauss10_field, z, w_on)
                off = u_eval(gauss10_field, z, w_on + delta)
                assert off - on > 0.0


class TestSubMeanValue:
    def test_restrictions_are_subharmonic(self, gauss10_field, rng):
        # 1-D restrictions of the field along random complex lines satisfy
        # the sub-mean-value inequality on small circles
        theta = np.exp(2j * np.pi * np.arange(64) / 64)
        checked = 0
        for _ in range(100):
            base_z = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.5, 1.5)
            base_w = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.5, 1.5)
            vz = rng.normal() + 1j * rng.normal()
            vw = rng.normal() + 1j * rng.normal()
            scale = math.hypot(abs(vz), abs(vw))
            vz, vw = vz / scale, vw / scale
            atoms = gauss10_field.sample.points
            if np.min(np.abs(base_z - atoms)) < 0.2:
                continue
            center = u_eval(gauss10_field, base_z, base_w)
            ring = u_eval(gauss10_field, base_z + 0.05 * vz * theta,
                          base_w + 0.05 * vw * theta)
            if not np.all(np.isfinite(ring)):
                continue
            checked += 1
            assert center <= np.mean(ring) + 1e-3
        assert checked >= 80


class TestExport:
    def test_constant_zero_field(self):
        # no levels, one atom at 0: u = log|z| vanishes on the unit circle
        field = PshField(levels=(), floor_value=0.0, sample=CompactSample([0.0]), model=None)
        plane = np.array([[1.0, 1j], [-1.0, -1j]])
        us = u_eval(field, plane, 0j)
        assert us.shape == (2, 2)
        assert np.all(us == 0.0)
        # weight 1/|K| on each atom: u is the mean log-distance to the sample
        pts = np.concatenate([[0.0], 1.0 / np.arange(1, 51)])
        field = PshField(levels=(), floor_value=0.0, sample=CompactSample(pts), model=None)
        direct = np.mean(np.log(np.abs(2.0 - pts)))
        assert u_eval(field, 2.0, 0j) == pytest.approx(direct, rel=1e-12)
        assert field.to_dict()["evans_weights"] == [
            {"atom": [p, 0.0], "weight": 1.0 / 51} for p in pts]

    def test_single_pole_graph_tube(self, single_pole_field):
        rows = export_field(
            single_pole_field, GridSpec.graph_tube((A + 0.5, A + 0.9), 5, [0.0])
        )
        clamp_sum = sum(_level_clamp(nu) / nu**2 for nu in range(2, 5))
        for z_re, _, _, _, u in rows:
            assert u == pytest.approx(clamp_sum + math.log(abs(z_re - A)), abs=1e-9)

    def test_graph_tube_through_a_pole_is_quiet(self):
        # the tube starts at z = 0.05 = 1/20, a pole of gaussian-20
        f = PoleSeries.gaussian(20)
        field = certify_schedule(f, f.singular_sample(), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = export_field(field, GridSpec.graph_tube((0.05, 0.95), 400, [0.0, 0.5, 1.0]))
        assert len(rows) == 1200
        arr = np.array(rows)
        z = arr[:, 0] + 1j * arr[:, 1]
        sing = f.singular_sample().points
        on_pole = np.min(np.abs(z[:, None] - sing[None, :]), axis=1) <= 1e-12
        assert on_pole.any()
        assert np.all(np.isfinite(arr[~on_pole, 4]))  # -inf or NaN only on the poles

    def test_w_slice_minimum_near_graph(self, gauss10_field, gauss10):
        z = 0.7
        w_graph = complex(gauss10(z))
        w_res = np.linspace(w_graph.real - 1.0, w_graph.real + 1.0, 81)
        us = u_eval(gauss10_field, z, w_res)
        cell = w_res[1] - w_res[0]
        assert abs(w_res[int(np.argmin(us))] - w_graph.real) <= cell


@pytest.mark.parametrize("name", ["gauss10_field", "exp_field"])
def test_u_eval_array_equals_scalar_calls(name, request, rng):
    field = request.getfixturevalue(name)
    z = rng.uniform(-1.5, 1.5, 200) + 1j * rng.uniform(-1.5, 1.5, 200)
    w = rng.uniform(-3.0, 3.0, 200) + 1j * rng.uniform(-3.0, 3.0, 200)
    z[:20] = field.sample.points[0]  # atoms: -inf on both paths
    grid = u_eval(field, z, w)
    assert np.array_equal(grid, [u_eval(field, a, b) for a, b in zip(z, w)])
    assert np.isneginf(grid[:20]).all() and np.isfinite(grid[20:]).all()


def test_exported_rows_equal_u_eval(gauss10_field):
    rows = export_field(gauss10_field, GridSpec.graph_tube((0.12, 0.92), 9, [0.0, 0.5j, 1.0]))
    assert all(type(v) is float for row in rows for v in row)  # plain floats for field.csv
    assert [r[4] for r in rows] == [u_eval(gauss10_field, complex(zr, zi), complex(wr, wi))
                                    for zr, zi, wr, wi, _ in rows]


def _built_or_raised(f, system, m, n):
    try:
        return build_approximant(f, system, m, n, quad_tol=pshbuild.CERTIFY_QUAD_TOL)
    except PolarhullError as e:
        return repr(e)


def _assert_same_build(warm, fresh):
    if isinstance(fresh, str):  # the same error on both
        assert warm == fresh
        return
    for name in ("coeffs", "noise", "floor"):
        assert _same_bits(getattr(warm, name), getattr(fresh, name)), name
    assert (warm.nodes, warm.converged, warm.contour) == (fresh.nodes, fresh.converged,
                                                          fresh.contour)


@pytest.mark.parametrize("label", list(FIELD_CERTIFY))
def test_warm_builds_equal_fresh_builds(label, monkeypatch):
    # every order the search tries, built on its warm Leja system, equals the
    # build on a fresh system; then, on the same warm system, under criterion
    # 3's doubled contour, which must not read the rows of the first contour
    f, nu_max = FIELD_CERTIFY[label]
    k = f.singular_sample()
    built = []

    def builder(*args, **kwargs):
        built.append((args, build_approximant(*args, **kwargs)))
        return built[-1][1]

    certify_schedule(f, k, nu_max, builder=builder)
    warm = built[0][0][1]
    assert all(args[1] is warm for args, _ in built)
    orders = [(m, n) for (_, _, m, n), _ in built]
    for (m, n), (_, ap) in zip(orders, built):
        _assert_same_build(ap, _built_or_raised(f, leja_points(k, m), m, n))

    plain = ratapprox._sample_contour

    def doubled(*args):
        c = plain(*args)
        return CircleContour(c.center, 2 * c.radius)

    monkeypatch.setattr(ratapprox, "_sample_contour", doubled)
    for m, n in orders:
        _assert_same_build(_built_or_raised(f, warm, m, n),
                           _built_or_raised(f, leja_points(k, m), m, n))


def _fresh_box_ceiling(approx, nu):
    """`pshbuild._box_ceiling` from zero, as a formula of its own."""
    r = float(nu)
    p = math.prod(r + abs(root) for root in approx.poles)
    terms = (_horner(np.abs(c[::-1]), r) + pshbuild.QUAD_NOISE_SAFETY * _horner(nv[::-1], r)
             for c, nv in zip(approx.coeffs, approx.noise))
    with np.errstate(over="ignore"):
        s = _horner(terms, p, r + approx.analytic_part.abs_eval(r))
        return float(np.log(s)) / approx.normalization


def _fresh_offgraph_floor(approx, z, cleared, nu):
    """The floor of `pshbuild._graph_bounds` with |q| evaluated afresh on the nodes."""
    diff, eval_shadow, quad_shadow = cleared
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_q = np.log(np.abs(approx.q_values(z)))
        log_r = np.log(np.abs(diff) + pshbuild._noise_threshold(eval_shadow, quad_shadow))
        margin = 1.0 / nu - np.exp(np.max(log_r - approx.big_n * log_q))
        if not (np.isfinite(margin) and margin > 0):
            return -math.inf
        return float(approx.big_n * np.min(log_q) + np.log(margin)) / approx.normalization


@pytest.mark.parametrize("case", ["graph", "all-marked", "nan-diff", "margin-not-positive"])
def test_graph_bounds_equal_the_depth_and_the_fresh_floor(case):
    f = ExpReciprocal()
    k = f.singular_sample()
    approx = build_approximant(f, leja_points(k, 1), 1, 5)  # an order with a finite floor
    z = _certification_grid(k, 2).graph_nodes
    diff, eval_shadow, quad_shadow = approx.cleared_eval(z, np.asarray(f(z), dtype=complex))
    if case == "all-marked":
        diff = np.zeros_like(diff)
    elif case == "nan-diff":
        diff = diff.copy()
        diff[::7] = complex(math.nan, 0.0)
    elif case == "margin-not-positive":
        diff = diff + approx.q_values(z) ** approx.big_n
    cleared = diff, eval_shadow, quad_shadow
    graph, floor = pshbuild._graph_bounds(approx, np.abs(approx.q_values(z)), cleared, 2)
    assert repr(graph) == repr(float(np.max(_h_of_cleared(cleared, approx.normalization))))
    assert repr(floor) == repr(_fresh_offgraph_floor(approx, z, cleared, 2))
    assert (graph == -math.inf) == (case == "all-marked")
    assert (floor == -math.inf) == (case in ("nan-diff", "margin-not-positive"))


def _fresh_search(f, nu_max, builder):
    """`certify_schedule`'s search with every try from scratch.

    Each build gets a fresh Leja system, each try runs `cleared_eval` and
    both closed-form bounds from row 0.  Returns every level's `tried`.
    """
    k = f.singular_sample()
    m = len(k)
    levels, approx, built_n = [], None, 1
    for nu in range(2, nu_max + 1):
        z = _certification_grid(k, nu).graph_nodes
        fz = np.asarray(f(z), dtype=complex)
        tried, n = [], built_n
        while True:
            assert m * n <= max(pshbuild.DEGREE_CAP, m), "oracle exhausted the degree cap"
            if approx is None or n != built_n:
                approx, built_n = builder(f, leja_points(k, m), m, n,
                                          quad_tol=pshbuild.CERTIFY_QUAD_TOL), n
            cleared = approx.cleared_eval(z, fz)
            hg = float(np.max(_h_of_cleared(cleared, approx.normalization)))
            hb = _fresh_box_ceiling(approx, nu)
            ho = _fresh_offgraph_floor(approx, z, cleared, nu)
            tried.append((n, hg, hb, ho, approx.converged))
            if (approx.converged and hg <= -nu and hb <= math.log(nu + 2)
                    and ho >= -math.log(nu + 1)):
                break
            n += 1
        levels.append(tuple(tried))
    return levels


def _bent_builder(*args, **kwargs):
    # row 0 scaled at odd N: no build begins with the previous build's rows,
    # so every try must refold from zero
    ap = build_approximant(*args, **kwargs)
    if ap.big_n % 2:
        coeffs = ap.coeffs.copy()
        coeffs[0] *= 1.0 + 1e-12
        ap = dataclasses.replace(ap, coeffs=coeffs)
    return ap


@pytest.mark.parametrize("bent", [False, True], ids=["plain", "bent"])
@pytest.mark.parametrize("label", list(FIELD_CERTIFY))
def test_incremental_search_equals_the_fresh_search(label, bent):
    f, nu_max = FIELD_CERTIFY[label]
    builder = _bent_builder if bent else build_approximant
    calls = []

    def counted(*args, **kwargs):
        calls.append((args[2:], kwargs))
        return builder(*args, **kwargs)

    field = certify_schedule(f, f.singular_sample(), nu_max, builder=counted)
    oracle = _fresh_search(f, nu_max, builder)
    assert repr([lev.tried for lev in field.levels]) == repr(oracle)
    # the hook runs once per order tried, the first try of a level reusing the last build
    orders = [t[0] for tried in oracle for t in tried]
    assert [n for (_, n), _ in calls] == sorted(set(orders))
    assert all(kw == {"quad_tol": pshbuild.CERTIFY_QUAD_TOL} for _, kw in calls)


@pointwise
def _u_eval_per_level(field, z, w):
    """`u_eval` as a loop of `h_eval` calls, each level folded from zero."""
    out = np.zeros(np.broadcast(z, w).shape)
    for lev in field.levels:
        nu = lev.nu
        h = h_eval(lev.approximant, z, w).reshape(out.shape)
        out += np.maximum(h - math.log(nu + 2), _level_clamp(nu)) / nu**2
    zb = np.broadcast_to(z, out.shape)
    weight = 1.0 / len(field.sample)
    with np.errstate(divide="ignore"):
        for atom in field.sample.points:
            out = out + weight * np.log(np.abs(zb - atom))
    return out


SHARED_FOLD_FIELDS = [*FIELD_CERTIFY, "exp-reciprocal/nu8/bent"]


@pytest.fixture(scope="module")
def certified_fields():
    fields = {label: certify_schedule(f, f.singular_sample(), nu)
              for label, (f, nu) in FIELD_CERTIFY.items()}
    f, nu = FIELD_CERTIFY["exp-reciprocal/nu8"]
    fields["exp-reciprocal/nu8/bent"] = certify_schedule(f, f.singular_sample(), nu,
                                                         builder=_bent_builder)
    return fields


def _fold_paths(field):
    """How each level after the first takes the fold of the level before it."""
    paths = []
    for lower, upper in zip(field.levels, field.levels[1:]):
        k = ratapprox._folded_rows(upper.approximant, (lower.approximant,))
        paths.append("keep" if k == upper.approximant.big_n else "resume" if k else "refold")
    return paths


def test_the_fields_take_every_fold_path(certified_fields):
    paths = {label: _fold_paths(field) for label, field in certified_fields.items()}
    assert set(paths["recip-sin-pi-8/nu8"]) == {"keep"}  # one approximant for all seven levels
    assert paths["exp-reciprocal/nu8"] == ["resume"] * 4 + ["keep"] * 2
    assert paths["exp-reciprocal/nu8/bent"] == ["resume", "refold", "resume", "refold",
                                                "keep", "keep"]


@pytest.mark.parametrize("label", SHARED_FOLD_FIELDS)
def test_shared_fold_equals_the_per_level_loop(label, certified_fields, rng):
    field = certified_fields[label]
    z = rng.uniform(-1.5, 1.5, 300) + 1j * rng.uniform(-1.5, 1.5, 300)
    w = rng.uniform(-3.0, 3.0, 300) + 1j * rng.uniform(-3.0, 3.0, 300)
    z[:10] = field.sample.points[0]
    assert _same_bits(u_eval(field, z, w), _u_eval_per_level(field, z, w))
    grid_w = w[:60] + np.array([0.0, 1e-3, 0.5j]).reshape(-1, 1)  # few z against many w
    assert _same_bits(u_eval(field, z[:60], grid_w), _u_eval_per_level(field, z[:60], grid_w))
    for a, b in zip(z[:25], w[:25]):
        got = u_eval(field, a, b)
        assert type(got) is float and repr(got) == repr(_u_eval_per_level(field, a, b))


@pytest.mark.parametrize("label", SHARED_FOLD_FIELDS)
def test_exported_rows_equal_the_per_level_loop(label, certified_fields):
    # the bench's tube, which runs through a pole of gaussian-20 at 0.05
    field = certified_fields[label]
    rows = np.array(export_field(field, GridSpec.graph_tube((0.05, 0.95), 400, [0.0, 0.5, 1.0])))
    z, w = rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]
    with np.errstate(invalid="ignore"):
        assert _same_bits(rows[:, 4], _u_eval_per_level(field, z, w))


@pytest.mark.parametrize("label", SHARED_FOLD_FIELDS)
def test_u_eval_takes_h_once_per_approximant(label, certified_fields, rng, monkeypatch):
    # a level that keeps the last one's approximant reuses its h, bitwise
    field = certified_fields[label]
    calls = []

    def counted(cleared, n):
        calls.append(n)
        return _h_of_cleared(cleared, n)

    monkeypatch.setattr(pshbuild, "_h_of_cleared", counted)
    z = rng.uniform(-1.5, 1.5, 50) + 1j * rng.uniform(-1.5, 1.5, 50)
    w = rng.uniform(-3.0, 3.0, 50) + 1j * rng.uniform(-3.0, 3.0, 50)
    u = u_eval(field, z, w)
    approximants = [lev.approximant for lev in field.levels]
    distinct = 1 + sum(a is not b for a, b in zip(approximants, approximants[1:]))
    assert len(calls) == distinct == len({id(a) for a in approximants})
    assert _same_bits(u, _u_eval_per_level(field, z, w))


def test_gaussian_40_certifies_every_level_on_exact_rows():
    # the CLI's default model: its quadrature rows stopped unconverged at nu = 2
    f = PoleSeries.gaussian(40)
    field = certify_schedule(f, f.singular_sample(), pshbuild.MAX_NU)
    assert [lev.nu for lev in field.levels] == list(range(2, pshbuild.MAX_NU + 1))
    for lev in field.levels:
        assert lev.approximant.exact and lev.approximant.nodes == 0
        assert lev.approximant.big_n == 1 and lev.to_dict()["exact"] is True
        assert lev.h_bound_graph <= -lev.nu
        assert lev.h_bound_box <= math.log(lev.nu + 2)
        assert lev.h_bound_offgraph >= -math.log(lev.nu + 1)


def test_exp_and_recip_sin_pi_levels_are_not_exact(certified_fields):
    for label in ("exp-reciprocal/nu8", "recip-sin-pi-8/nu8"):
        assert not any(lev.approximant.exact for lev in certified_fields[label].levels)
        assert all(lev.approximant.nodes > 0 for lev in certified_fields[label].levels)
