import numpy as np
import pytest

from polarhull.core import CompactSample, poly_from_roots
from polarhull.fekete import InsufficientSample, capacity_estimate, leja_points


def test_single_point():
    sys1 = leja_points(CompactSample([0.3 + 0.1j]), 1)
    assert sys1.points[0] == 0.3 + 0.1j
    assert sys1.diagnostics == ((1, 0.0),)


def test_two_point_roots_consume_sample():
    sys2 = leja_points(CompactSample([-1.0, 1.0]), 2)
    assert set(np.round(sys2.points.real, 12)) == {-1.0, 1.0}
    assert sys2.diagnostics[-1] == (2, 0.0)


def test_insufficient_sample():
    with pytest.raises(InsufficientSample):
        leja_points(CompactSample([0.0, 1.0]), 3)


def test_leja_count_must_be_positive():
    with pytest.raises(ValueError, match="m must be >= 1"):
        leja_points(CompactSample([0.0, 1.0]), 0)


def test_segment_norms_approach_capacity(segment_sample):
    # transfinite diameter of [-1, 1] is 1/2 (length over four); the degree-m
    # norm roots converge to it from above
    sys_long = leja_points(segment_sample, 200)
    d = sys_long.norms()
    assert abs(d[39] - 0.5) <= 0.15 * 0.5
    est = capacity_estimate(sys_long)
    assert abs(est.value - 0.5) <= 0.15 * 0.5
    # extrapolation sharpens the raw degree-200 value
    assert abs(est.value - 0.5) < abs(d[-1] - 0.5) + 0.01


def test_capacity_estimate_segment_short(segment_sample):
    sys40 = leja_points(segment_sample, 40)
    est = capacity_estimate(sys40)
    assert abs(est.value - 0.5) <= 0.15 * 0.5
    assert est.decreasing


def test_capacity_zero_on_consumed_finite_set():
    pts = CompactSample(np.linspace(0.1, 1.0, 10).astype(complex))
    sys10 = leja_points(pts, 10)
    assert sys10.diagnostics[-1][1] == 0.0
    est = capacity_estimate(sys10)
    assert est.value < 0.2  # extrapolation driven to the degenerate limit


def test_capacity_estimate_needs_depth():
    sys4 = leja_points(CompactSample(np.linspace(0, 1, 20).astype(complex)), 4)
    with pytest.raises(ValueError):
        capacity_estimate(sys4)


def test_permutation_changes_nothing_but_ties(rng, segment_sample):
    perm = rng.permutation(len(segment_sample.points))
    shuffled = CompactSample(segment_sample.points[perm])
    a = leja_points(segment_sample, 30).norms()
    b = leja_points(shuffled, 30).norms()
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_reciprocal_cluster_diagnostics():
    pts = np.concatenate([[0.0], 1.0 / np.arange(1, 61)])
    sample = CompactSample(pts.astype(complex))
    system = leja_points(sample, len(pts))
    d = system.norms()
    assert d[-1] == 0.0  # all points consumed
    tail = d[30:50]
    assert tail[-1] < tail[0]  # eventually decreasing


def test_root_form_matches_coefficient_form(segment_sample):
    system = leja_points(segment_sample, 30)
    q = poly_from_roots(system.points)
    # points well off the interval, where coefficient Horner is conditioned
    z = np.array([0.37 + 0.5j, -0.9 + 0.4j, 1.4 - 0.3j])
    root_form = q.eval_root_form(z)
    coeff_form = q(z)
    np.testing.assert_allclose(root_form, coeff_form, rtol=1e-8)
