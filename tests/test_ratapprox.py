import dataclasses
import importlib.util
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from polarhull import core, ratapprox
from polarhull.core import CircleContour, CompactSample, PolynomialC, _horner, poly_from_roots
from polarhull.fekete import leja_points
from polarhull.models import ExpReciprocal, PoleSeries, RationalModel, RecipSinPi
from polarhull.pshbuild import QUAD_NOISE_SAFETY, _box_ceiling, certify_schedule, h_eval
from polarhull.ratapprox import SeriesDiverging, build_approximant, convergence_scan, rho_of

BENCH = Path(__file__).resolve().parent.parent / "bench"


class TestRho:
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


class TestBuild:
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

    def test_contour_independence(self, two_pole, monkeypatch):
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
    # every certify and scan operation of the field-certify benchmark
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
        oracle_ap = SimpleNamespace(normalization=ap.normalization,
                                    cleared_eval=lambda z, w: oracle(ap, z, w))
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
            assert np.array_equal(np.isneginf(h_eval(ap, z, w)),
                                  np.isneginf(h_eval(oracle_ap, z, w)))


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


def test_a_fold_resumes_only_on_the_same_leading_rows(two_pole):
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
def test_builds_on_one_system_keep_their_own_rows(case, two_pole, gauss10):
    # the saved rows are keyed by principal part, m and contour: another
    # function or another m on the same system must not read them (gaussian-10
    # at m = 7 and 8 picks the same contour)
    f, m = {"two-pole": (two_pole, 2), "gaussian-10": (gauss10, 8)}[case]
    k = f.singular_sample()
    other = RationalModel(k.points, np.arange(1.0, len(k) + 1))
    shared = leja_points(k, len(k))
    for g, mm, n in [(f, m, 2), (other, m, 1), (f, m - 1, 2), (other, m, 3), (f, m, 1),
                     (f, m - 1, 3), (f, m, 3)]:
        got = build_approximant(g, shared, mm, n)
        want = build_approximant(g, leja_points(k, len(k)), mm, n)
        for name in ("coeffs", "noise", "floor"):
            assert _same_bits(getattr(got, name), getattr(want, name)), (case, mm, n, name)
        assert (got.nodes, got.converged, got.contour) == (want.nodes, want.converged, want.contour)
    assert len(shared.quad_rows) == 3
