import dataclasses
import importlib.util
import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from polarhull import core, ratapprox
from polarhull.core import CircleContour, CompactSample, PolynomialC, _horner, poly_from_roots
from polarhull.fekete import leja_points
from polarhull.models import ExpReciprocal, PoleSeries, RationalModel, RecipSinPi
from polarhull.pshbuild import (
    CERTIFY_QUAD_TOL,
    QUAD_NOISE_SAFETY,
    _box_ceiling,
    _certification_grid,
    _h_of_cleared,
    certify_schedule,
)
from polarhull.ratapprox import SeriesDiverging, build_approximant, convergence_scan, rho_of

BENCH = Path(__file__).resolve().parent.parent / "bench"


class TestRho:
    def test_needs_root_form(self):
        with pytest.raises(ValueError, match="monic root-form polynomial of degree >= 1"):
            rho_of(PolynomialC([1.0, 2.0]), CompactSample([0.5]), 2)

    def test_root_sample(self):
        q = poly_from_roots([0.5])
        assert rho_of(q, CompactSample([0.5]), 3) == 0.0

    def test_linear(self):
        q = poly_from_roots([0.0])
        assert rho_of(q, CompactSample([0.1]), 2) == pytest.approx(0.4)

    def test_quadratic(self):
        q = poly_from_roots([0.1, -0.1])  # z^2 - 0.01
        s = CompactSample([0.1, -0.1, 0.0])
        assert rho_of(q, s, 3) == pytest.approx(0.81)

    @pytest.mark.parametrize("f, m, rho_finite", [
        # 2^96 (2e6)^48 is past float64 for the 48 Leja points of a wide circle
        (RationalModel(1e6 * np.exp(2j * np.pi * np.arange(64) / 64), np.ones(64)), 48, False),
        # rho_1 = 4 * 3.75e307 = 1.5e308 is finite, but 1.25 rho_1 is not
        (RationalModel([0.0, 3.75e307], [1.0, 1.0]), 1, True),
    ], ids=["rho-inf", "margin-inf"])
    def test_overflow_is_inf_and_refuses_the_build(self, f, m, rho_finite):
        k = f.singular_sample()
        system = leja_points(k, m)
        rho = rho_of(poly_from_roots(system.points[:m]), k, 2)
        if rho_finite:
            assert math.isfinite(rho)
        else:
            assert rho == math.inf
        assert ratapprox.CONTOUR_MARGIN * rho == math.inf
        with pytest.raises(core.PolarhullError, match=f"rho_m overflows at m={m}:"):
            build_approximant(f, system, m, 1)


class TestBuild:
    @pytest.mark.parametrize("m, message", [(0, "m and big_n must be >= 1"),
                                            (3, "Leja system shorter than requested m")])
    def test_degree_checked(self, two_pole, m, message):
        system = leja_points(two_pole.singular_sample(), 2)
        with pytest.raises(ValueError, match=message):
            build_approximant(two_pole, system, m, 1)

    def test_single_pole_identity(self):
        f = RationalModel([0.4], [1.0])
        system = leja_points(f.singular_sample(), 1)
        ap = build_approximant(f, system, 1, 1)
        # residue oracle: c_10 is the constant 1
        np.testing.assert_allclose(ap.coeffs[0], [1.0], atol=1e-12)
        z = 2.0 * np.exp(1j * np.linspace(0.1, 6.0, 40))
        assert np.max(np.abs(f(z) - ap.eval(z))) < 1e-12

    def test_zero_function(self):
        f = RationalModel([0.4, -0.2], [0.0, 0.0])
        system = leja_points(f.singular_sample(), 2)
        ap = build_approximant(f, system, 2, 3)
        for ck in ap.coeffs:
            assert np.max(np.abs(ck)) < 1e-12

    def test_truncated_series_small_error(self):
        f = PoleSeries.gaussian(5)
        system = leja_points(f.singular_sample(), 5)
        ap = build_approximant(f, system, 5, 4)
        theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        z = 0.7 + 0.1 * np.exp(1j * theta)
        assert np.max(np.abs(f(z) - ap.eval(z))) < 1e-6

    def test_poles_lie_in_sample(self):
        f = PoleSeries.gaussian(7)
        sample = f.singular_sample()
        system = leja_points(sample, 7)
        ap = build_approximant(f, system, 7, 2)
        for pole in ap.poles:
            assert np.min(np.abs(sample.points - pole)) < 1e-14

    def test_exactness_on_own_class(self, rng):
        # rational with poles among the q roots, f(inf)=0, is reproduced
        poles = np.array([0.2, 0.5, -0.3 + 0.2j])
        res = np.array([1.0, -0.7, 0.4j])
        f = RationalModel(poles, res)
        system = leja_points(f.singular_sample(), 3)
        ap = build_approximant(f, system, 3, 1)
        z = rng.uniform(-2, 2, 100) + 1j * rng.uniform(-2, 2, 100)
        z = z[np.min(np.abs(z[:, None] - poles[None, :]), axis=1) >= 0.1]
        assert np.max(np.abs(f(z) - ap.eval(z))) < 1e-9

    def test_contour_independence(self, two_pole, monkeypatch, quadrature_only):
        two_pole = quadrature_only(two_pole)  # the exact rows of two_pole have no contour
        system = leja_points(two_pole.singular_sample(), 2)
        ap = build_approximant(two_pole, system, 2, 3)
        doubled = CircleContour(ap.contour.center, 2 * ap.contour.radius)
        monkeypatch.setattr(ratapprox, "_sample_contour", lambda *args: doubled)
        ap2 = build_approximant(two_pole, system, 2, 3)
        assert ap2.contour == doubled
        for ca, cb in zip(ap.coeffs, ap2.coeffs):
            assert np.max(np.abs(ca - cb)) < 1e-9

    def test_sample_contour_of_high_degree_denominator(self):
        # |q| on the first circle overflows for 1801 roots; the suite turns
        # the overflow warning into an error, and inf still clears the bar
        points = RecipSinPi(900).singular_sample().points
        contour = ratapprox._sample_contour(points, poly_from_roots(points),
                                            ratapprox.RHO_FLOOR)
        assert (contour.center, contour.radius) == (0j, 1.5)



class TestConvergence:
    def test_target_through_a_sample_point_rejected(self, two_pole):
        system = leja_points(two_pole.singular_sample(), 2)
        with pytest.raises(ValueError, match="target must keep positive distance"):
            convergence_scan(two_pole, system, [(2, 1)], CompactSample([0.5, 1.0]))

    def test_single_pole_floors_immediately(self):
        f = RationalModel([0.4], [1.0])
        system = leja_points(f.singular_sample(), 1)
        theta = np.linspace(0, 2 * np.pi, 100, endpoint=False)
        target = CompactSample(2.0 * np.exp(1j * theta))
        rep = convergence_scan(f, system, [(1, 1), (1, 2)], target)
        assert rep.entries[0][2] == 0.0  # normalized error snaps to zero
        assert rep.entries[0][3]

    def test_two_pole_outer_laurent_schedule(self, two_pole):
        system = leja_points(two_pole.singular_sample(), 1)
        theta = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        target = CompactSample(0.5 + np.exp(1j * theta))
        rep = convergence_scan(two_pole, system,
                               [(1, n) for n in range(1, 13)], target)
        norms = [e[2] for e in rep.entries]
        assert all(b <= a + 1e-12 for a, b in zip(norms[1:], norms[2:]))
        assert rep.entries[-1][1] < 1e-8

    def test_truncated_series_scan_stays_small(self, gauss10):
        # all ten poles are consumed by q_10, so every entry sits at the
        # quadrature floor and the normalized errors report zero
        system = leja_points(gauss10.singular_sample(), 10)
        theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        target = CompactSample(1.3 + 0.4j + 0.1 * np.exp(1j * theta))
        rep = convergence_scan(gauss10, system,
                               [(10, n) for n in range(1, 6)], target)
        assert rep.target_distance >= 0.2
        assert rep.entries[-1][2] < 0.5
        assert all(e[1] < 1e-9 for e in rep.entries)

    def test_geometric_error_law(self, two_pole):
        system = leja_points(two_pole.singular_sample(), 1)
        theta = np.linspace(0, 2 * np.pi, 200, endpoint=False)
        target = CompactSample(0.5 + np.exp(1j * theta))
        rep = convergence_scan(two_pole, system,
                               [(1, n) for n in range(1, 13)], target)
        degrees = np.array([e[0] for e in rep.entries], dtype=float)
        log_err = np.log([e[1] for e in rep.entries])
        slope, _ = np.polyfit(degrees, log_err, 1)
        assert slope < 0  # log sup_error <= alpha - beta * degree with beta > 0

    def test_schedule_must_increase(self, two_pole):
        system = leja_points(two_pole.singular_sample(), 2)
        target = CompactSample([2.0 + 0j, 2.0j])
        with pytest.raises(ValueError):
            convergence_scan(two_pole, system, [(2, 2), (2, 1)], target)

    def test_error_tagged_with_schedule_entry(self):
        system = leja_points(CompactSample([0.5, 0.3]), 1)
        target = CompactSample([2.0 + 0j, 2.0j, -2.0 + 0j])
        with pytest.raises(SeriesDiverging, match=r"schedule entry \(m=1, N=8\)"):
            convergence_scan(_Stray(), system, [(1, 8)], target)


class _Stray:
    """1/(z + 0.4): a singularity missing from the q roots but faster than rho."""

    label = "synthetic"

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return 1.0 / (z + 0.4)  # distance 0.9 from the q root at 0.5

    def split_at_infinity(self):
        return PolynomialC([0.0]), self


def test_series_growth_guard():
    # the stray singularity makes the scaled coefficient magnitudes grow,
    # which the guard must catch
    system = leja_points(CompactSample([0.5, 0.3]), 1)  # rho_1 = 4 * 0.2 = 0.8
    with pytest.raises(SeriesDiverging):
        build_approximant(_Stray(), system, 1, 8)


def _probe_contour_oracle(points, q, rho_floor):
    """Oracle: the contour search that sampled |q| on 256 nodes of each circle tried.

    From the same standoff as `_sample_contour`, it grows the radius by 1.3
    until the nodes clear the bar, then bisects between the last two radii.
    """
    center = complex(np.mean(points))
    base = float(np.max(np.abs(points - center)))

    def ok(r):
        nodes = CircleContour(center, r).nodes(256)
        with np.errstate(over="ignore"):  # |q| = inf on a node still clears the bar
            return (float(np.min(np.exp(q.log_abs_root_form(nodes))))
                    >= ratapprox.CONTOUR_MARGIN * rho_floor)

    r = base + max(0.5 * base, 0.25)
    if not ok(r):
        lo, hi = r, r
        for _ in range(60):
            hi *= 1.3
            if ok(hi):
                break
            lo = hi
        else:
            raise AssertionError("the probe never cleared the bar")
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if ok(mid):
                hi = mid
            else:
                lo = mid
        r = hi
    return CircleContour(center, r)


def _contour_inputs(f, m):
    """The (points, q_m, rho floor) that `build_approximant` hands `_sample_contour`."""
    system = leja_points(f.singular_sample(), m)
    q = poly_from_roots(system.points[:m])
    rho = rho_of(q, system.base_set, ratapprox.N_SCALE)
    return system.base_set.points, q, max(rho, ratapprox.RHO_FLOOR)


def _load_bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_contour_equals_the_probe_on_the_benchmark_builds(monkeypatch):
    # every certify and scan operation of the field-certify benchmark, its pole
    # series with no numerator hook, so that every build finds a contour
    monkeypatch.delattr(PoleSeries, "numerator")
    calls, certified = [], ratapprox._sample_contour

    def recording(*args):
        calls.append((args, certified(*args)))
        return calls[-1][1]

    monkeypatch.setattr(ratapprox, "_sample_contour", recording)
    workloads = _load_bench_workloads()
    lib = workloads.plain_lib()
    for op in workloads.build("field-certify", 1, lib).ops:
        if op.name.startswith(("certify:", "scan:")):
            op.call(lib, {})
    assert len(calls) > 50
    for args, contour in calls:
        oracle = _probe_contour_oracle(*args)
        assert (contour.center, contour.radius) == (oracle.center, oracle.radius)


def test_contour_of_criterion_2_matches_the_probe():
    for f in (RationalModel([0.4], [1.0]), RationalModel([0.3, 0.5], [1.0, 2.0])):
        args = _contour_inputs(f, 1)
        contour, oracle = ratapprox._sample_contour(*args), _probe_contour_oracle(*args)
        assert contour.center == oracle.center
        assert contour.radius == pytest.approx(oracle.radius, rel=1e-12, abs=0)
    assert contour.radius == pytest.approx(1.1, rel=1e-12)


@pytest.mark.parametrize("f, m", [(RecipSinPi(16), 10), (PoleSeries.geometric(10), 5)],
                         ids=["recip-sin-pi-16", "geometric-10"])
def test_contour_clears_the_bar_where_the_probe_cut_it_fine(f, m):
    points, q, rho_floor = _contour_inputs(f, m)
    contour = ratapprox._sample_contour(points, q, rho_floor)
    assert contour.radius >= _probe_contour_oracle(points, q, rho_floor).radius
    q_abs = np.abs(q.eval_root_form(contour.nodes(4096)))
    assert np.min(q_abs) >= ratapprox.CONTOUR_MARGIN * rho_floor


def test_build_at_the_rounding_floor_is_flagged():
    # m = 33 on 1/sin(pi/z): at N = 2 and 3 the doubling differences sit at
    # the rounding floor from 512 nodes on, so the build stops there unsettled
    f = RecipSinPi(16)
    system = leja_points(f.singular_sample(), 33)
    target = CompactSample(2.0 * np.exp(2j * np.pi * np.arange(128) / 128))
    rep = convergence_scan(f, system, [(33, 1), (33, 2), (33, 3)], target)
    entries = rep.to_dict()["entries"]
    assert (entries[0]["nodes"], entries[0]["converged"]) == (512, True)
    for e in entries[1:]:
        assert e["nodes"] <= 1024 and e["converged"] is False
        assert e["rounding_floor"] > 0
    assert len(rep.entries[0]) == 4  # csv rows and callers unpack four fields
    for n in (2, 3):
        ap = build_approximant(f, system, 33, n)
        assert ap.converged is False and ap.nodes <= 1024
        assert ap.floor.shape == ap.coeffs.shape and not ap.floor.flags.writeable
        assert np.all(ap.noise <= core.QUAD_FLOOR_FACTOR * ap.floor)


def test_build_short_of_the_floor_runs_to_the_cap():
    # the contour about the sample {0.5, 0.3} is |z - 0.4| = 0.35; a pole 1e-4
    # of its radius outside keeps the truncation error far above the floor
    system = leja_points(CompactSample([0.5, 0.3]), 2)
    f = RationalModel([0.4 + 0.35 * 1.0001], [1.0])
    ap = build_approximant(f, system, 2, 1)
    assert ap.contour.center == pytest.approx(0.4) and ap.contour.radius == pytest.approx(0.35)
    assert ap.converged is False and ap.nodes == ratapprox.MAX_APPROX_NODES
    assert np.any(ap.noise > core.QUAD_FLOOR_FACTOR * ap.floor)


def _per_order(ap):
    """The per-order path: each row of `coeffs` as its own `PolynomialC`, trimmed."""
    return tuple(PolynomialC(c) for c in ap.coeffs)


def _per_order_principal_eval(ap, z):
    """Oracle: `principal_eval` with every c_k(z) through `PolynomialC`."""
    u = 1.0 / ap.q_values(z)
    return _horner((ck(z) for ck in reversed(_per_order(ap))), u) * u


def _per_order_cleared_eval(ap, z, w):
    """Oracle: `cleared_eval` with every c_k(z) and |c_k|(|z|) through `PolynomialC`."""
    qv = ap.q_values(z)
    aq = np.abs(qv)
    az = np.abs(z)
    qn, aqn = np.ones_like(qv), np.ones_like(aq)
    for _ in range(ap.big_n):
        qn, aqn = qn * qv, aqn * aq
    polys = _per_order(ap)
    pn = _horner((-ck(z) for ck in polys), qv)
    sn = _horner((ck.abs_eval(az) for ck in polys), aq)
    quad_shadow = _horner((_horner(nv[::-1], az) for nv in ap.noise), aq)
    head = np.abs(w) + ap.analytic_part.abs_eval(az)
    return (w - ap.analytic_part(z)) * qn + pn, head * aqn + sn, quad_shadow


def _per_order_box_ceiling(ap, nu):
    """Oracle: `pshbuild._box_ceiling` with every |c_k|(nu) through `PolynomialC`."""
    r = float(nu)
    p = math.prod(r + abs(root) for root in ap.poles)
    terms = (ck.abs_eval(r) + QUAD_NOISE_SAFETY * _horner(nv[::-1], r)
             for ck, nv in zip(_per_order(ap), ap.noise))
    with np.errstate(over="ignore"):
        s = _horner(terms, p, r + ap.analytic_part.abs_eval(r))
        return float(np.log(s)) / ap.normalization


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_as_per_order(ap, z, w, nu):
    assert _same_bits(ap.principal_eval(z), _per_order_principal_eval(ap, z))
    for part, oracle in zip(ap.cleared_eval(z, w), _per_order_cleared_eval(ap, z, w)):
        assert _same_bits(part, oracle)
    assert repr(_box_ceiling(ap, nu)) == repr(_per_order_box_ceiling(ap, nu))


def _power_sum_cleared_eval(ap, z, w):
    """Oracle: `cleared_eval` as a sum of explicit powers q^(N-1-k), term by term."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    qv = ap.q_values(z)
    aq = np.abs(qv)
    az = np.abs(z)
    diff = (w - ap.analytic_part(z)) * qv**ap.big_n
    eval_shadow = (np.abs(w) + ap.analytic_part.abs_eval(az)) * aq**ap.big_n
    quad_shadow = np.zeros_like(eval_shadow)
    for k, ck in enumerate(_per_order(ap)):
        power = ap.big_n - 1 - k
        diff = diff - ck(z) * qv**power
        eval_shadow = eval_shadow + ck.abs_eval(az) * aq**power
        acc = np.zeros_like(az)
        for nv in ap.noise[k][::-1]:
            acc = acc * az + nv
        quad_shadow = quad_shadow + acc * aq**power
    return diff, eval_shadow, quad_shadow


def _per_node_fold(ap, z, w):
    """Oracle: `cleared_eval` with w - A(z) folded into the Horner recurrence at every node."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    qv = ap.q_values(z)
    aq = np.abs(qv)
    az = np.abs(z)
    diff = w - ap.analytic_part(z)
    eval_shadow = np.abs(w) + ap.analytic_part.abs_eval(az)
    quad_shadow = np.zeros_like(aq)
    for ck, nv in zip(_per_order(ap), ap.noise):
        diff = diff * qv - ck(z)
        eval_shadow = eval_shadow * aq + ck.abs_eval(az)
        quad_shadow = quad_shadow * aq + np.polyval(nv[::-1], az)
    return diff, eval_shadow, quad_shadow


# with gaussian-10 to nu=6, whose levels include those to nu=4, these cover
# every level of the seven fields of the field-certify benchmark
@pytest.fixture(scope="module", params=[
    (ExpReciprocal(), 8), (RationalModel([0.3, 0.5], [1.0, 2.0]), 8),
    (RecipSinPi(8), 8), (PoleSeries.gaussian(10), 6),
    (PoleSeries.geometric(10), 6), (PoleSeries.gaussian(20), 4)],
    ids=["exp-reciprocal", "two-pole", "recip-sin-pi-8", "gaussian-10",
         "geometric-10", "gaussian-20"])
def certified_field(request):
    f, nu_max = request.param
    return f, certify_schedule(f, f.singular_sample(), nu_max)


def _assert_cleared_eval_matches(certified_field, oracle, zw_grid):
    """On every level's graph, box and off-graph (z, w) nodes: bitwise at N = 1,
    else |diff error| <= 2 N eps eval_shadow, shadows to 1e-13, the same -inf nodes."""
    eps = np.finfo(float).eps
    f, field = certified_field
    for lev in field.levels:
        ap = lev.approximant
        graph, box, off = zw_grid(f, field.sample, lev.nu, 10)
        graph = (graph, np.asarray(f(graph), dtype=complex))
        for z, w in (graph, box, off):
            diff, eval_shadow, quad_shadow = ap.cleared_eval(z, w)
            o_diff, o_eval, o_quad = oracle(ap, z, w)
            if ap.big_n == 1:
                assert np.array_equal(diff, o_diff)
                assert np.array_equal(eval_shadow, o_eval)
                assert np.array_equal(quad_shadow, o_quad)
            assert np.all(np.abs(diff - o_diff) <= 2 * ap.big_n * eps * o_eval)
            np.testing.assert_allclose(eval_shadow, o_eval, rtol=1e-13, atol=0)
            np.testing.assert_allclose(quad_shadow, o_quad, rtol=1e-13, atol=0)
            h, o_h = (_h_of_cleared(c, ap.normalization) for c in (
                (diff, eval_shadow, quad_shadow), (o_diff, o_eval, o_quad)))
            assert np.array_equal(np.isneginf(h), np.isneginf(o_h))


def test_horner_cleared_eval_matches_power_sums(certified_field, zw_grid):
    _assert_cleared_eval_matches(certified_field, _power_sum_cleared_eval, zw_grid)


def test_z_only_fold_matches_per_node_fold(certified_field, zw_grid):
    _assert_cleared_eval_matches(certified_field, _per_node_fold, zw_grid)


def test_matrix_evaluators_equal_the_per_order_path(certified_field):
    f, field = certified_field
    for lev in field.levels:
        z = lev.grid.graph_nodes
        _assert_same_as_per_order(lev.approximant, z, np.asarray(f(z), dtype=complex), lev.nu)


def test_zero_coefficients_keep_the_bits(two_pole):
    # `PolynomialC` trims a zero top coefficient and a Horner pass over the
    # row does not; for finite z the pass starts 0*z + 0 = +0 either way
    system = leja_points(two_pole.singular_sample(), 2)
    ap = build_approximant(two_pole, system, 2, 3)
    coeffs = ap.coeffs.copy()
    coeffs[1, -1] = 0.0
    coeffs[2] = 0.0
    ap = dataclasses.replace(ap, coeffs=coeffs)
    assert [len(ck.coeffs) for ck in _per_order(ap)] == [2, 1, 1]
    z = 0.4 + 1.5 * np.exp(2j * np.pi * np.arange(64) / 64)
    _assert_same_as_per_order(ap, z, two_pole(z) + 0.1, 2)


def test_coefficient_matrices_are_read_only(two_pole):
    system = leja_points(two_pole.singular_sample(), 2)
    ap = build_approximant(two_pole, system, 2, 3)
    assert ap.coeffs.shape == ap.noise.shape == (3, 2)
    assert (ap.big_n, ap.degree) == (3, 6)
    with pytest.raises(ValueError):
        ap.coeffs[0, 0] = 1.0
    with pytest.raises(ValueError):
        ap.noise[0, 0] = 1.0


def test_a_fold_resumes_only_on_the_same_leading_rows(two_pole, quadrature_only):
    two_pole = quadrature_only(two_pole)  # quadrature rows: no row is exactly 0
    system = leja_points(two_pole.singular_sample(), 2)
    short, full = (build_approximant(two_pole, system, 2, n) for n in (3, 5))
    z = 0.4 + 1.5 * np.exp(2j * np.pi * np.arange(64) / 64)
    w = two_pole(z) + 0.1
    _, fold = short.cleared_fold(z, w, None)
    assert ratapprox._folded_rows(full, fold) == 3
    assert ratapprox._folded_rows(short, full.cleared_fold(z, w, None)[1]) == 0
    noise, coeffs = full.noise.copy(), full.coeffs.copy()
    noise[2, 0] *= 2.0
    coeffs[0, 1] *= 1.0 + 1e-15
    changed = [dataclasses.replace(full, noise=noise), dataclasses.replace(full, coeffs=coeffs),
               dataclasses.replace(full, analytic_part=PolynomialC([1.0])),
               dataclasses.replace(full, q_m=poly_from_roots(full.q_m.roots[::-1]))]
    for ap in [full] + changed:
        resumed, fresh = ap.cleared_fold(z, w, fold)[0], ap.cleared_eval(z, w)
        assert all(_same_bits(a, b) for a, b in zip(resumed, fresh))
    assert all(ratapprox._folded_rows(ap, fold) == 0 for ap in changed)


def test_a_fold_tells_the_signs_of_zero_apart(two_pole):
    # +0 and -0 compare equal but can fold to different bits: no resumption
    system = leja_points(two_pole.singular_sample(), 2)
    short, full = (build_approximant(two_pole, system, 2, n) for n in (3, 5))
    plus, minus = short.coeffs.copy(), full.coeffs.copy()
    plus[1, 0], minus[1, 0] = complex(0.0, 0.0), complex(-0.0, 0.0)
    minus[:1], minus[2:3] = plus[:1], plus[2:3]
    short, full = dataclasses.replace(short, coeffs=plus), dataclasses.replace(full, coeffs=minus)
    assert np.array_equal(full.coeffs[:3], short.coeffs)
    z = 0.4 + 1.5 * np.exp(2j * np.pi * np.arange(64) / 64)
    _, fold = short.cleared_fold(z, z, None)
    assert ratapprox._folded_rows(full, fold) == 0


@pytest.mark.parametrize("case", ["two-pole", "gaussian-10"])
def test_builds_on_one_system_keep_their_own_rows(case, two_pole, gauss10, quadrature_only):
    # the saved rows are keyed by principal part, m and contour: another
    # function or another m on the same system must not read them (gaussian-10
    # at m = 7 and 8 picks the same contour); the series take the quadrature,
    # whose rows these are, not their exact rows at m = len(k)
    f, m = {"two-pole": (two_pole, 2), "gaussian-10": (gauss10, 8)}[case]
    k = f.singular_sample()
    f = quadrature_only(f)
    other = quadrature_only(RationalModel(k.points, np.arange(1.0, len(k) + 1)))
    shared = leja_points(k, len(k))
    for g, mm, n in [(f, m, 2), (other, m, 1), (f, m - 1, 2), (other, m, 3), (f, m, 1),
                     (f, m - 1, 3), (f, m, 3)]:
        got = build_approximant(g, shared, mm, n)
        want = build_approximant(g, leja_points(k, len(k)), mm, n)
        for name in ("coeffs", "noise", "floor"):
            assert _same_bits(getattr(got, name), getattr(want, name)), (case, mm, n, name)
        assert (got.nodes, got.converged, got.contour) == (want.nodes, want.converged, want.contour)
    assert len(shared.quad_rows) == 3


def test_one_denominator_per_system_and_m(monkeypatch):
    # q_m and rho_m are the same at every order, so a search of 28 builds makes each once
    calls = {"poly_from_roots": 0, "rho_of": 0}
    for name in calls:
        def counted(*args, plain=getattr(ratapprox, name), name=name):
            calls[name] += 1
            return plain(*args)
        monkeypatch.setattr(ratapprox, name, counted)
    builds = []

    def builder(*args, **kwargs):
        builds.append(args[2:])
        return build_approximant(*args, **kwargs)

    f = ExpReciprocal()
    certify_schedule(f, f.singular_sample(), 8, builder=builder)
    assert len(builds) == 28 and calls == {"poly_from_roots": 1, "rho_of": 1}


def test_scan_memory_stays_bounded():
    # what a system keeps is O(m) per m beside its trapezoid rows: the scan peaks
    # near 51 MiB, where keeping each node count's m x nodes kernel rows too
    # takes it to 97 MiB
    f = RecipSinPi(64)
    system = leja_points(f.singular_sample(), 129)
    target = CompactSample(2.0 * np.exp(2j * np.pi * np.arange(128) / 128))
    tracemalloc.start()
    try:
        convergence_scan(f, system, [(129, n) for n in range(1, 5)], target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 70 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------- exact rows

def _fraction_numerator(roots, residues):
    """Oracle: sum_k c_k prod_{j != k} (z - r_j) in exact rationals, (re, im) per power."""
    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    exact = [complex(v) for v in roots], [complex(v) for v in residues]
    roots, residues = ([(Fraction(v.real), Fraction(v.imag)) for v in vs] for vs in exact)
    zero = (Fraction(0), Fraction(0))
    p = [zero] * len(roots)
    for k, c in enumerate(residues):
        term = [c]  # c_k times the factors (z - r_j), j != k, ascending powers
        for j, r in enumerate(roots):
            if j != k:
                shifted, scaled = [zero] + term, [mul(t, r) for t in term] + [zero]
                term = [(a[0] - b[0], a[1] - b[1]) for a, b in zip(shifted, scaled)]
        p = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(p, term)]
    return p


def _series_and_roots(rng, case):
    """(series, roots) for the rounding-bound oracle: roots hold every live pole, shuffled."""
    if case == "random":
        poles = rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)
        residues = 10.0 ** rng.uniform(-8, 2, 7) * np.exp(2j * np.pi * rng.uniform(size=7))
    elif case == "clustered":  # 1e-7 apart, residues of alternating sign: heavy cancellation
        poles = 0.5 + 1e-7 * np.arange(6) + 1e-7j * (np.arange(6) % 2)
        residues = (-1.0) ** np.arange(6) * (1.0 + rng.uniform(size=6))
    elif case == "zero residue":  # one dead pole among the roots, one off them
        poles, residues = np.array([0.3, -0.2j, 0.7, 1.5]), np.array([1.0, 2.0 - 1j, 0.0, 0.0])
    else:  # residues near and below the smallest normal float: the products underflow
        poles, residues = np.array([0.25, 0.5, 1.0, 2e-3]), np.array([1e-310, 1.0, -3e-300, 1e-200])
    series = PoleSeries(poles, residues)
    live = series.poles[series.log_abs_c > -math.inf]
    roots = np.concatenate([live, [0.9 - 0.1j]])  # a root with no pole carries c = 0
    return series, roots[rng.permutation(len(roots))]


@pytest.mark.parametrize("case", ["random", "clustered", "zero residue", "underflow"])
def test_numerator_rounding_bound_holds_against_fractions(case, rng):
    for _ in range(4):
        series, roots = _series_and_roots(rng, case)
        p, bound = series.numerator(roots)
        assert p.shape == bound.shape == (len(roots),)
        c = np.zeros(len(roots), dtype=complex)
        for pole, res in zip(series.poles, series.residues):
            if res != 0:
                c[list(roots).index(pole)] = res
        for got, (re, im), b in zip(p, _fraction_numerator(roots, c), bound):
            err = (Fraction(got.real) - re) ** 2 + (Fraction(got.imag) - im) ** 2
            assert err <= Fraction(float(b)) ** 2, (case, got, b)
        # and it is a rounding bound, gamma_12m < 1e-13 times the twin, which is at
        # most sum |c_k| prod (1 + |r_j|)
        reach = float(np.sum(np.abs(c))) * math.prod(1 + abs(r) for r in roots)
        assert np.max(bound) <= 1e-13 * reach


@pytest.mark.parametrize("case", ["fewer roots than poles", "a pole off the sample",
                                  "an underflowed residue off the sample"])
def test_a_live_pole_off_the_roots_takes_the_quadrature(case, quadrature_only):
    f, k, m = {
        "fewer roots than poles": (PoleSeries.gaussian(10), None, 5),
        "a pole off the sample": (PoleSeries([0.3, 0.5, 0.7], [1.0, 2.0, 0.5]),
                                  CompactSample([0.3, 0.5, 0.9]), 3),
        # c = 0 in float64, but its log says the pole is live
        "an underflowed residue off the sample": (
            PoleSeries([0.3, 0.7], [1.0, 0.0], log_abs_c=[0.0, -800.0]), CompactSample([0.3]), 1),
    }[case]
    k = k or f.singular_sample()
    system = leja_points(k, m)
    assert f.numerator(system.points[:m]) is None
    for n in (1, 3):
        got = build_approximant(f, system, m, n)
        want = build_approximant(quadrature_only(f), leja_points(k, m), m, n)
        assert not got.exact and got.nodes > 0 and got.contour is not None
        for name in ("coeffs", "noise", "floor"):
            assert _same_bits(getattr(got, name), getattr(want, name)), (case, n, name)
        assert (got.nodes, got.converged, got.contour) == (want.nodes, want.converged, want.contour)


def test_a_zero_residue_off_the_roots_is_no_pole():
    f = PoleSeries([0.3, 0.5, 0.7], [1.0, 2.0, 0.0])
    system = leja_points(CompactSample([0.3, 0.5]), 2)
    ap = build_approximant(f, system, 2, 2)
    assert ap.exact and (ap.nodes, ap.converged, ap.contour) == (0, True, None)
    z = 0.4 + 1.5 * np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.max(np.abs(ap.eval(z) - f(z))) < 1e-14


def test_exact_rows_are_p_and_zeros_at_every_order(two_pole):
    system = leja_points(two_pole.singular_sample(), 2)
    p, bound = two_pole.numerator(system.points)
    for n in (1, 2, 5):
        ap = build_approximant(two_pole, system, 2, n)
        assert ap.exact and ap.converged and ap.nodes == 0 and ap.contour is None
        assert _same_bits(ap.coeffs[0], p) and not ap.coeffs[1:].any()
        assert _same_bits(ap.noise[0], bound) and not ap.noise[1:].any()
        assert _same_bits(ap.floor, ap.noise) and not ap.coeffs.flags.writeable
    # 1/(z - 0.3) + 2/(z - 0.5) = (3z - 1.1)/q, in the Leja order 0.5, 0.3
    np.testing.assert_allclose(p, [-1.1, 3.0], rtol=1e-15)


def test_one_numerator_per_system_m_and_principal(monkeypatch, gauss10):
    calls = []
    plain = PoleSeries.numerator
    monkeypatch.setattr(PoleSeries, "numerator", lambda self, roots: calls.append(1) or
                        plain(self, roots))
    system = leja_points(gauss10.singular_sample(), 10)
    for m, n in [(10, 1), (10, 2), (9, 1), (10, 4), (9, 3)]:
        build_approximant(gauss10, system, m, n)
    assert len(calls) == 2  # m = 10 and m = 9; m = 9 offers nothing and takes the quadrature
    assert [system.denominators[m][2][gauss10] is None for m in (9, 10)] == [True, False]


def test_argument_checks_run_before_the_exact_rows():
    f = PoleSeries.gaussian(5)
    system = leja_points(f.singular_sample(), 5)
    for m, n, message in [(0, 1, "m and big_n must be >= 1"), (5, 0, "m and big_n must be >= 1"),
                          (6, 1, "Leja system shorter than requested m")]:
        with pytest.raises(ValueError, match=message):
            build_approximant(f, system, m, n)
    # every pole a root, but rho_m overflows: refused as for any other model
    k = CompactSample(1e6 * np.exp(2j * np.pi * np.arange(64) / 64))
    system = leja_points(k, 48)
    wide = PoleSeries(system.points, np.ones(48))
    assert wide.numerator(system.points) is not None
    with pytest.raises(core.PolarhullError, match="m=48"):
        build_approximant(wide, system, 48, 1)


def _cross_check_orders():
    return [(f, n) for f in (PoleSeries.gaussian(10), PoleSeries.gaussian(20),
                             PoleSeries.geometric(10), RationalModel([0.3, 0.5], [1.0, 2.0]))
            for n in (1, 2, 3, 4)]


@pytest.mark.parametrize("f, n", _cross_check_orders(),
                         ids=lambda v: getattr(v, "label", str(v)))
def test_quadrature_rows_agree_with_the_exact_rows(f, n, quadrature_only):
    # on the graph nodes of nu = 2..4, each quadrature row c_k differs from the
    # exact one (p, then 0) by less than QUAD_NOISE_SAFETY times its recorded
    # noise row plus p's bound, both evaluated at |z|: the error the level
    # bounds allow for.  The noise row alone is not enough: taken entry by entry
    # the rows differ by up to 14 times it, and by 2.9 times as polynomials
    k = f.singular_sample()
    system = leja_points(k, len(k))
    exact = build_approximant(f, system, len(k), n, quad_tol=CERTIFY_QUAD_TOL)
    quad = build_approximant(quadrature_only(f), system, len(k), n, quad_tol=CERTIFY_QUAD_TOL)
    assert exact.exact and not quad.exact
    z = np.concatenate([_certification_grid(k, nu).graph_nodes for nu in (2, 3, 4)])
    az = np.abs(z)
    for row in range(n):
        gap = np.abs(_horner((quad.coeffs[row] - exact.coeffs[row])[::-1], z))
        allowed = (QUAD_NOISE_SAFETY * _horner(quad.noise[row][::-1], az)
                   + _horner(exact.noise[row][::-1], az))
        assert np.all(gap <= allowed), (f.label, n, row, float(np.max(gap / allowed)))
