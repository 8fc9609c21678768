from types import SimpleNamespace

import numpy as np
import pytest

from polarhull.core import CircleContour, CompactSample, poly_from_roots
from polarhull.fekete import leja_points
from polarhull.models import ExpReciprocal, PoleSeries, RationalModel, RecipSinPi
from polarhull.pshbuild import certify_schedule, h_values
from polarhull.ratapprox import (
    ContourTooClose,
    SeriesDiverging,
    build_approximant,
    convergence_scan,
    rho_of,
)


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
        np.testing.assert_allclose(ap.coeff_polys[0].coeffs, [1.0], atol=1e-12)
        z = 2.0 * np.exp(1j * np.linspace(0.1, 6.0, 40))
        assert np.max(np.abs(f(z) - ap.eval(z))) < 1e-12

    def test_zero_function(self):
        f = RationalModel([0.4, -0.2], [0.0, 0.0])
        system = leja_points(f.singular_sample(), 2)
        ap = build_approximant(f, system, 2, 3)
        for ck in ap.coeff_polys:
            assert np.max(np.abs(ck.coeffs)) < 1e-12

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

    def test_contour_independence(self, two_pole):
        system = leja_points(two_pole.singular_sample(), 2)
        ap = build_approximant(two_pole, system, 2, 3)
        doubled = [CircleContour(c.center, 2 * c.radius) for c in ap.contour]
        ap2 = build_approximant(two_pole, system, 2, 3, contour=doubled)
        for a, b in zip(ap.coeff_polys, ap2.coeff_polys):
            ca, cb = a.coeffs, b.coeffs
            n = max(len(ca), len(cb))
            ca = np.pad(ca, (0, n - len(ca)))
            cb = np.pad(cb, (0, n - len(cb)))
            assert np.max(np.abs(ca - cb)) < 1e-9

    def test_contour_too_close(self, two_pole):
        system = leja_points(two_pole.singular_sample(), 2)
        bad = [CircleContour(0.5 + 0j, 0.2)]  # node lands on the root at 0.3
        with pytest.raises(ContourTooClose):
            build_approximant(two_pole, system, 2, 2, contour=bad)

    def test_labeled_groups_get_separate_circles(self):
        f = RationalModel([2.0, 1.9, -2.0, -1.9], [1.0, 0.5, -1.0, 2.0])
        sample = CompactSample(f.poles, labels=[0, 0, 1, 1])
        system = leja_points(sample, 4)
        ap = build_approximant(f, system, 4, 1)
        assert len(ap.contour) == 2
        centers = sorted(c.center.real for c in ap.contour)
        assert centers[0] < 0 < centers[1]
        z = 5.0 * np.exp(1j * np.linspace(0.1, 6.2, 60))
        assert np.max(np.abs(f(z) - ap.eval(z))) < 1e-9


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

    def test_error_tagged_with_schedule_entry(self, two_pole):
        system = leja_points(two_pole.singular_sample(), 2)
        target = CompactSample([2.0 + 0j, 2.0j, -2.0 + 0j])
        bad = [CircleContour(0.5 + 0j, 0.2)]
        with pytest.raises(ContourTooClose, match=r"schedule entry \(m=2, N=1\)"):
            convergence_scan(two_pole, system, [(2, 1)], target, contour=bad)


def test_series_growth_guard():
    # a singularity missing from the q roots but faster than rho makes the
    # scaled coefficient magnitudes grow, which the guard must catch
    from polarhull.core import PolynomialC

    class Stray:
        family = "synthetic"
        label = "synthetic"

        def __call__(self, z):
            z = np.asarray(z, dtype=complex)
            return 1.0 / (z + 0.4)  # distance 0.9 from the q root at 0.5

        def split_at_infinity(self):
            return PolynomialC([0.0]), self

    system = leja_points(CompactSample([0.5, 0.3]), 1)  # rho_1 = 4 * 0.2 = 0.8
    with pytest.raises(SeriesDiverging):
        build_approximant(Stray(), system, 1, 8, n_scale=2)


def test_capped_build_is_flagged():
    # m = 33 on 1/sin(pi/z) needs more than the 2^14 node cap at N = 2
    f = RecipSinPi(16)
    system = leja_points(f.singular_sample(), 33)
    target = CompactSample(2.0 * np.exp(2j * np.pi * np.arange(128) / 128))
    rep = convergence_scan(f, system, [(33, 1), (33, 2)], target)
    assert [(e["nodes"], e["converged"]) for e in rep.to_dict()["entries"]] == [
        (512, True), (2**14, False)]
    assert len(rep.entries[0]) == 4  # csv rows and callers unpack four fields
    ap = build_approximant(f, system, 33, 2)
    assert ap.to_dict()["converged"] is False and ap.to_dict()["nodes"] == 2**14


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
    for k, ck in enumerate(ap.coeff_polys):
        power = ap.big_n - 1 - k
        diff = diff - ck(z) * qv**power
        eval_shadow = eval_shadow + ck.abs_eval(az) * aq**power
        acc = np.zeros_like(az)
        for nv in ap.coeff_noise[k][::-1]:
            acc = acc * az + nv
        quad_shadow = quad_shadow + acc * aq**power
    return diff, eval_shadow, quad_shadow


@pytest.fixture(scope="module", params=[
    (ExpReciprocal(), 8), (RationalModel([0.3, 0.5], [1.0, 2.0]), 8),
    (RecipSinPi(8), 8), (PoleSeries.gaussian(10), 6)],
    ids=["exp-reciprocal", "two-pole", "recip-sin-pi-8", "gaussian-10"])
def certified_field(request):
    f, nu_max = request.param
    return f, certify_schedule(f, f.singular_sample(), nu_max)


def test_horner_cleared_eval_matches_power_sums(certified_field):
    eps = np.finfo(float).eps
    f, field = certified_field
    for lev in field.levels:
        ap, grid = lev.approximant, lev.grid
        graph = (grid.graph_nodes, np.asarray(f(grid.graph_nodes), dtype=complex))
        oracle_ap = SimpleNamespace(normalization=ap.normalization,
                                    cleared_eval=lambda z, w: _power_sum_cleared_eval(ap, z, w))
        for z, w in (graph, grid.box_nodes, grid.offgraph_nodes):
            diff, eval_shadow, quad_shadow = ap.cleared_eval(z, w)
            o_diff, o_eval, o_quad = _power_sum_cleared_eval(ap, z, w)
            if ap.big_n == 1:
                assert np.array_equal(diff, o_diff)
                assert np.array_equal(eval_shadow, o_eval)
                assert np.array_equal(quad_shadow, o_quad)
            assert np.all(np.abs(diff - o_diff) <= 2 * ap.big_n * eps * o_eval)
            np.testing.assert_allclose(eval_shadow, o_eval, rtol=1e-13, atol=0)
            np.testing.assert_allclose(quad_shadow, o_quad, rtol=1e-13, atol=0)
            assert np.array_equal(np.isneginf(h_values(ap, z, w)),
                                  np.isneginf(h_values(oracle_ap, z, w)))
