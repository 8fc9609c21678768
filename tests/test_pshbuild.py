import dataclasses
import math
import warnings

import numpy as np
import pytest

from polarhull.core import CompactSample
from polarhull.fekete import leja_points
from polarhull.models import ExpReciprocal, PoleSeries, RationalModel
from polarhull.pshbuild import (
    GridSpec,
    PshField,
    ScheduleExhausted,
    certify_schedule,
    evans_discrete,
    export_field,
    h_eval,
    u_eval,
)
from polarhull.ratapprox import build_approximant

A = 0.4


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
        # an absolute floor above that value turns it into the marker
        assert h_eval(single_pole_approx, z, w, floor=-5.0) == -math.inf


class TestEvans:
    def test_singleton(self):
        assert evans_discrete(CompactSample([0.0])) == [(0j, 1.0)]

    def test_symmetric_pair(self):
        weights = evans_discrete(CompactSample([1.0, -1.0]))
        val = sum(w * math.log(abs(0.0 - a)) for a, w in weights)
        assert val == pytest.approx(0.0)

    def test_reciprocal_sample_vs_direct_sum(self):
        pts = np.concatenate([[0.0], 1.0 / np.arange(1, 51)])
        weights = evans_discrete(CompactSample(pts.astype(complex)))
        val = sum(w * math.log(abs(2.0 - a.real)) for a, w in weights)
        direct = np.mean(np.log(np.abs(2.0 - pts)))
        assert val == pytest.approx(direct, rel=1e-12)


class TestCertify:
    def test_single_pole_trivial_levels(self, single_pole_field):
        # the exact approximant pins the graph bound at -inf from the start;
        # the box ceiling still needs the outer order to grow so its n-th
        # root absorbs the torus constants
        for lev in single_pole_field.levels:
            assert lev.h_bound_graph == -math.inf
        assert [lev.approximant.degree for lev in single_pole_field.levels] == [2, 4, 6]

    def test_exp_schedule_degrees(self, exp_field):
        # frozen desk-run oracle; degrees must stay well under the cap
        degrees = [lev.approximant.big_n for lev in exp_field.levels]
        assert degrees == [16, 21, 24]
        assert all(d <= 60 for d in degrees)

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

    def test_schedule_exhausted(self):
        f = ExpReciprocal()
        with pytest.raises(ScheduleExhausted) as info:
            certify_schedule(f, f.singular_sample(), 4, degree_cap=3)
        assert info.value.nu == 2
        assert math.isfinite(info.value.best["graph"])


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

    def test_all_unconverged_exhausts_schedule(self):
        f = RationalModel([A], [1.0])
        builder = lambda *a, **k: dataclasses.replace(build_approximant(*a, **k),
                                                       converged=False)
        with pytest.raises(ScheduleExhausted):
            certify_schedule(f, f.singular_sample(), 2, degree_cap=6, builder=builder)


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
        evans = sum(wt * math.log(abs(z - a)) for a, wt in gauss10_field.evans_weights)
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
            atoms = np.array([a for a, _ in gauss10_field.evans_weights])
            if np.min(np.abs(base_z - atoms)) < 0.2:
                continue
            center = u_eval(gauss10_field, base_z, base_w)
            ring = gauss10_field.u_grid(base_z + 0.05 * vz * theta,
                                        base_w + 0.05 * vw * theta)
            if not np.all(np.isfinite(ring)):
                continue
            checked += 1
            assert center <= np.mean(ring) + 1e-3
        assert checked >= 80


class TestExport:
    def test_constant_zero_field(self):
        field = PshField(levels=(), floor_value=0.0, evans_weights=(),
                         sample=CompactSample([0.0]), model=None)
        rows = export_field(field, GridSpec.fixed_w(0j, (0, 1), (0, 1), 2, 2))
        assert len(rows) == 4
        assert all(r[4] == 0.0 for r in rows)

    def test_single_pole_graph_tube(self, single_pole_field):
        f = RationalModel([A], [1.0])
        rows = export_field(
            single_pole_field, GridSpec.graph_tube((A + 0.5, A + 0.9), 5, [0.0])
        )
        clamp_sum = sum((-nu - math.log(nu + 2)) / nu**2 for nu in range(2, 5))
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
        spec = GridSpec.fixed_z(z, (w_graph.real - 1.0, w_graph.real + 1.0),
                                (-0.05, 0.05), 81, 3)
        rows = export_field(gauss10_field, spec)
        mid = [r for r in rows if r[3] == 0.0]
        us = np.array([r[4] for r in mid])
        w_res = np.array([r[2] for r in mid])
        cell = w_res[1] - w_res[0]
        assert abs(w_res[int(np.argmin(us))] - w_graph.real) <= cell


@pytest.mark.parametrize("name", ["gauss10_field", "exp_field"])
def test_u_grid_equals_u_eval_pointwise(name, request, rng):
    field = request.getfixturevalue(name)
    z = rng.uniform(-1.5, 1.5, 200) + 1j * rng.uniform(-1.5, 1.5, 200)
    w = rng.uniform(-3.0, 3.0, 200) + 1j * rng.uniform(-3.0, 3.0, 200)
    z[:20] = field.sample.points[0]  # atoms: -inf on both paths
    grid = field.u_grid(z, w)
    assert np.array_equal(grid, [u_eval(field, a, b) for a, b in zip(z, w)])
    assert np.isneginf(grid[:20]).all() and np.isfinite(grid[20:]).all()


def test_exported_rows_equal_u_eval(gauss10_field, gauss10):
    w_graph = complex(gauss10(0.7))
    specs = [GridSpec.fixed_z(0.7, (w_graph.real - 1.0, w_graph.real + 1.0), (-0.05, 0.05), 9, 3),
             GridSpec.fixed_w(0.5 + 0.2j, (-1.0, 1.0), (-0.5, 0.5), 7, 4),
             GridSpec.graph_tube((0.12, 0.92), 9, [0.0, 0.5j, 1.0])]
    for spec in specs:
        rows = export_field(gauss10_field, spec)
        assert all(type(v) is float for row in rows for v in row)  # plain floats for field.csv
        assert [r[4] for r in rows] == [u_eval(gauss10_field, complex(zr, zi), complex(wr, wi))
                                        for zr, zi, wr, wi, _ in rows]
