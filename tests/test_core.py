import math
import time

import numpy as np
import pytest

from polarhull import core
from polarhull.core import (
    CircleContour,
    CompactSample,
    Disk,
    DiskUnion,
    MAX_QUAD_NODES,
    NodeEvaluationError,
    PolynomialC,
    circle_trapezoid,
    poly_from_roots,
)
from polarhull.models import PoleSeries


def test_poly_call_constant():
    p = PolynomialC([1.0])
    assert p(5.0 + 0j) == 1.0 + 0j


def test_poly_call_identity():
    p = PolynomialC([0.0, 1.0])
    assert p(2.0 + 3.0j) == 2.0 + 3.0j


def test_root_form_needs_roots():
    with pytest.raises(ValueError, match="polynomial was not built from roots"):
        PolynomialC([1.0, 2.0]).eval_root_form(0.5)


def test_poly_call_two_roots_at_zero():
    # (z-1)(z-2) = z^2 - 3z + 2
    p = PolynomialC([2.0, -3.0, 1.0])
    assert p(0.0 + 0j) == 2.0 + 0j


def test_poly_from_roots_empty():
    p = poly_from_roots([])
    assert p.degree == 0
    assert p.coeffs[0] == 1.0


def test_poly_from_roots_single():
    a = 0.7 + 0.2j
    p = poly_from_roots([a])
    np.testing.assert_allclose(p.coeffs, [-a, 1.0])


def test_poly_from_roots_pm_one():
    p = poly_from_roots([1.0, -1.0])
    np.testing.assert_allclose(p.coeffs, [-1.0, 0.0, 1.0], atol=1e-15)
    assert abs(p(2.0) - 3.0) < 1e-14


@pytest.mark.parametrize("trial", range(5))
def test_roots_roundtrip_random(rng, trial):
    n = int(rng.integers(1, 31))
    roots = rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.9, 0.9, n)
    p = poly_from_roots(roots)
    scale = np.sum(np.abs(p.coeffs))
    for r in roots:
        assert abs(p(r)) <= 1e-10 * max(scale, 1.0)
        assert abs(p.eval_root_form(r)) == 0.0


def _contour(f, c, n0):
    return circle_trapezoid(f, c, _mean_times_rot(c), n0, tol=1e-10,
                            max_nodes=MAX_QUAD_NODES)


def test_contour_residue_inside():
    quad = _contour(lambda z: 1.0 / z, CircleContour(0j, 1.0), 64)
    assert quad.converged and abs(quad.value - 1.0) < 1e-12


def test_contour_entire_zero():
    quad = _contour(lambda z: np.ones_like(z), CircleContour(0j, 1.0), 256)
    assert quad.converged and abs(quad.value) < 1e-12


def test_contour_pole_outside():
    quad = _contour(lambda z: 1.0 / (z - 3.0), CircleContour(0j, 1.0), 256)
    assert quad.converged and abs(quad.value) < 1e-10


@pytest.mark.parametrize("k", [0, 1, 2, 5, 9])
def test_contour_monomials_vanish(k):
    # analytic integrands have no residue, on any circle missing 0
    quad = _contour(lambda z, k=k: z**k, CircleContour(0.3 + 0.1j, 0.8), 256)
    assert quad.converged and abs(quad.value) < 1e-12


def test_contour_node_doubling_stable():
    f = lambda z: np.exp(z) / (z - 0.2)
    a = _contour(f, CircleContour(0j, 1.0), 64)
    b = _contour(f, CircleContour(0j, 1.0), 128)
    assert a.converged and b.converged
    assert abs(a.value - b.value) < 1e-10


def test_contour_rejects_nonfinite():
    def bad(z):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / (z - z)

    with pytest.raises(NodeEvaluationError):
        _contour(bad, CircleContour(0j, 1.0), 256)


def test_contour_rejects_nonfinite_reduction():
    # 1e15^16 is finite and 1e15^32 overflows: the first doubling raises, silently
    def reduce(rot, vals):
        return complex(np.prod(np.full(len(rot), 1e15))), 0.0

    with pytest.raises(NodeEvaluationError, match="not finite on 32 nodes"):
        circle_trapezoid(np.ones_like, CircleContour(0j, 1.0), reduce, 16, tol=0.0,
                         max_nodes=MAX_QUAD_NODES)


def test_scalar_only_integrand_raises_its_own_error():
    # integrands are called once on the node array, never retried node by node
    with pytest.raises(TypeError):
        _contour(lambda z: math.exp(z.real), CircleContour(0j, 1.0), 256)


def test_wrong_shape_integrand_names_both_shapes():
    with pytest.raises(NodeEvaluationError, match=r"shape \(\) on nodes of shape \(256,\)"):
        _contour(lambda z: 1.0, CircleContour(0j, 1.0), 256)


def test_contour_reports_node_cap():
    # a pole 1e-9 outside the circle: the trapezoid error decays like (1 + 1e-9)^-n
    quad = _contour(lambda z: 1.0 / (z - (1.0 + 1e-9)), CircleContour(0j, 1.0), 256)
    assert quad.converged is False
    assert quad.nodes == MAX_QUAD_NODES


def test_sample_rejects_duplicates():
    with pytest.raises(ValueError):
        CompactSample([0.5, 0.5 + 1e-16])


@pytest.mark.parametrize("points", [[0.5, math.nan, math.inf], [complex(0.0, math.inf)],
                                    [-math.inf, 1.0]])
def test_sample_rejects_non_finite_points(points):
    with pytest.raises(ValueError, match="finite"):
        CompactSample(points)


def test_sample_rejects_empty():
    with pytest.raises(ValueError):
        CompactSample([])


def test_sample_copies_its_points_and_keeps_them_read_only():
    pts = np.array([0.5, 0.25, 0.125], dtype=complex)
    sample = CompactSample(pts)
    pts[0] = pts[1]  # a duplicate the constructor would refuse
    assert sample.points.tolist() == [0.5, 0.25, 0.125]
    with pytest.raises(ValueError, match="read-only"):
        sample.points[0] = 1.0


def test_sample_equality_is_identity():
    a, b = CompactSample([1, 2]), CompactSample([1, 2])
    assert a == a and a != b
    assert {a: 1}[a] == 1 and hash(a) != hash(b)


def test_disk_requires_positive_radius():
    with pytest.raises(ValueError):
        Disk(0j, 0.0)


@pytest.mark.parametrize("center,radius,message", [
    (complex(np.nan, 0.0), 0.1, "finite"), (complex(0.0, np.inf), 0.1, "finite"),
    (0j, np.inf, "finite"), (0j, np.nan, "finite"), (0j, -np.inf, "finite"),
    (complex(np.nan, 0.0), -0.1, "finite"),  # a bad centre is named before a bad radius
    (0j, 0.0, "positive"), (0j, -0.1, "positive"),
])
def test_disk_union_arrays_checked_like_disk(center, radius, message):
    with pytest.raises(ValueError, match=message):
        Disk(center, radius)
    with pytest.raises(ValueError, match=f"disk .*must be {message}"):
        DiskUnion.from_arrays([0.5 + 0j, center], [0.1, radius], side="exact")


def test_disk_union_array_lengths_must_match():
    with pytest.raises(ValueError, match="equal length"):
        DiskUnion.from_arrays([0j, 1.0], [0.1], side="exact")


def test_empty_disk_union():
    empty = DiskUnion([])
    assert len(empty) == 0 and not empty
    assert tuple(empty) == ()


def test_disk_union_keeps_disk_behaviour():
    disks = [Disk(0.5 + 0.25j, 0.125), Disk(-0.3 + 0j, 0.05), Disk(2.0 - 1.0j, 1.5)]
    union = DiskUnion(disks)
    assert len(union) == 3
    assert list(union) == disks
    assert union.side == "exact"
    same = DiskUnion.from_arrays([d.center for d in disks], [d.radius for d in disks],
                                 side="exact")
    assert list(same) == list(union) and same.side == "exact"
    inner = DiskUnion.from_arrays(same.centers, same.radii, "inner")
    assert list(inner) == list(union) and inner.side == "inner"
    with pytest.raises(ValueError, match="side"):
        DiskUnion.from_arrays(same.centers, same.radii, side="sideways")
    with pytest.raises(ValueError):
        union.radii[0] = 1.0  # the arrays are read-only


@pytest.mark.parametrize("center, radius", [
    (0j, math.nan), (0j, math.inf), (complex(math.nan, 0), 1.0), (complex(0, math.inf), 1.0),
    (0j, 0.0), (0j, -1.0),
])
def test_contour_rejects_bad_center_or_radius(center, radius):
    with pytest.raises(ValueError):
        CircleContour(center, radius)


def _fresh_node_trapezoid(f, contour, n0, tol=1e-10, max_nodes=2**16):
    """Oracle: node doubling that evaluates `f` afresh on every node of every level."""
    def level(n):
        rot = np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
        return complex(contour.radius * np.mean(f(contour.center + contour.radius * rot) * rot))

    n = n0
    value = level(n)
    while n < max_nodes:
        n *= 2
        new = level(n)
        if abs(new - value) <= tol * max(1.0, abs(new)):
            return new, n
        value = new
    return value, n


def _mean_times_rot(circle):
    """The reduce of (1/(2 pi i)) * integral of f dz over `circle`, with its rounding floor."""
    return lambda rot, vals: (circle.radius * np.mean(vals * rot),
                              np.finfo(float).eps * circle.radius * np.mean(np.abs(vals)))


ORACLE_CASES = [
    (lambda z: np.exp(1.0 / z), CircleContour(0j, 0.5), 64),
    (PoleSeries.gaussian(8), CircleContour(0j, 1.5), 256),
    (lambda z: 1.0 / (z - 0.2), CircleContour(0j, 1.0), 16),
]


@pytest.mark.parametrize("f, contour, n0", ORACLE_CASES)
def test_engine_matches_fresh_node_oracle(f, contour, n0):
    want, n_want = _fresh_node_trapezoid(f, contour, n0)
    quad = circle_trapezoid(f, contour, _mean_times_rot(contour), n0,
                            tol=1e-10, max_nodes=2**16)
    assert quad.converged and quad.nodes == n_want
    assert abs(quad.value - want) <= 1e-13 * max(1.0, abs(want))


def test_doubling_evaluates_each_node_once():
    calls = []

    def f(z):
        calls.append(z.copy())
        return 1.0 / (z - 1.05)  # settles only after several doublings

    contour = CircleContour(0j, 1.0)
    quad = circle_trapezoid(f, contour, _mean_times_rot(contour), 16, tol=1e-12,
                            max_nodes=2**16)
    assert quad.converged and quad.nodes >= 512
    # one call per level: the 16 starting nodes, then only the n/2 new odd nodes
    levels = 2 ** np.arange(5, 17)
    assert [len(z) for z in calls] == [16] + [n // 2 for n in levels if n <= quad.nodes]
    seen = np.concatenate(calls)
    assert len(seen) == quad.nodes
    np.testing.assert_array_equal(np.sort_complex(seen),
                                  np.sort_complex(contour.nodes(quad.nodes)))


def test_unsettled_integrand_reports_not_converged():
    # a pole 1e-3 outside the circle needs thousands of nodes; the cap is 256
    contour = CircleContour(0j, 1.0)
    quad = circle_trapezoid(lambda z: 1.0 / (z - 1.001), contour, _mean_times_rot(contour), 16,
                            tol=1e-10, max_nodes=256)
    assert not quad.converged
    assert quad.nodes == 256
    assert quad.noise > 1e-10


def test_differences_at_the_rounding_floor_stop_the_doubling():
    # the same unsettled integrand, with a floor that says its first
    # doubling difference is rounding: no further doubling is run
    contour = CircleContour(0j, 1.0)
    quad = circle_trapezoid(lambda z: 1.0 / (z - 1.001), contour,
                            lambda rot, vals: (np.mean(vals * rot), 100.0), 16,
                            tol=1e-10, max_nodes=256)
    assert not quad.converged
    assert quad.nodes == 32 and quad.floor == 100.0
    assert 1e-10 < quad.noise <= core.QUAD_FLOOR_FACTOR * quad.floor


def test_start_above_the_cap_is_refused():
    calls = []
    contour = CircleContour(0j, 1.0)
    with pytest.raises(ValueError, match="above its cap of 256"):
        circle_trapezoid(lambda z: calls.append(z) or z, contour, _mean_times_rot(contour), 512,
                         tol=1e-10, max_nodes=256)
    assert calls == []


def _dense_has_duplicates(pts):
    with np.errstate(over="ignore"):  # huge points far apart are an infinite distance apart
        d = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(d, np.inf)
    return d.min() <= 1e-14


def _refused(pts):
    try:
        CompactSample(pts)
    except ValueError:
        return True
    return False


def test_sample_rejects_near_pair_across_cell_edge():
    # 0.9e-14 apart, on either side of a rounding cell edge of a 1e-14 grid
    pair = [0.5e-14, 1.4e-14]
    for n in (1500, 2500):
        with pytest.raises(ValueError):
            CompactSample(np.concatenate([np.linspace(1.0, 2.0, n - 2), pair]))


@pytest.mark.parametrize("seed", range(4))
def test_duplicate_check_matches_dense_oracle(seed):
    # one planted pair per sample, 0.5 to 1.5 times the 1e-14 tolerance apart
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1, 1, 400) + 1j * rng.uniform(-1, 1, 400)
    gaps = rng.uniform(0.5, 1.5, 20) * 1e-14 * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
    verdicts = set()
    for a, d in zip(base[:20], gaps):
        pts = np.append(base, a + d)
        rejected = _refused(pts)
        assert rejected == _dense_has_duplicates(pts)
        verdicts.add(rejected)
    assert verdicts == {True, False}
    # axis-aligned and huge inputs, each with no warning: equal pairs at 1e300
    # on each axis; a pair 0.9e-14 apart with a point between them along the
    # sorted axis; a spread whose differences overflow on both axes; a
    # vertical line with and without a planted pair; that line with a point off
    # to the side, so the wider real spread is the crowded axis; a cross, whose
    # two axes are both crowded, with and without a planted pair; and a lattice
    # whose 40 columns each share one real part
    spread = 1.7e308 * (rng.uniform(-1, 1, 50) + 1j * rng.uniform(-1, 1, 50))
    line = 1j * np.linspace(-1.0, 1.0, 2000)
    i = rng.integers(1, 1999)
    cross = np.concatenate([line[::2], line[1::2] / 1j])
    lattice = (np.arange(40)[:, None] + 1j * np.arange(40)).ravel()
    cases = [np.array([0.0, c, 1.0, c]) for c in (1e300j, 1e300, -1e300j)] + [
        np.array([0.0, 0.5e-14 + 1j, 0.9e-14, 10.0]),
        spread, np.append(spread, spread[7]), line, np.append(line[:-1], line[i] + gaps[0]),
        np.append(line[:-1], 10.0), np.append(line[:-2], [10.0, line[i] + gaps[0] / 2]),
        cross, np.append(cross[:-1], cross[i] + gaps[0] / 2),
        lattice * 1e-14 * rng.uniform(0.999, 1.001)]
    for pts in cases:
        assert _refused(pts) == _dense_has_duplicates(pts)
    verdicts = [_refused(pts) for pts in cases[:7] + cases[8:12]]
    assert verdicts == [True, True, True, True, False, True, False, False, True, False, True]


def test_a_crowded_axis_is_not_swept():
    # all 20,000 points of the line share one real strip, and the real spread
    # is the larger: swept along it this takes about a second, along y a few ms
    start = time.perf_counter()
    CompactSample(np.append(1j * np.linspace(0.0, 1.0, 20_000), 10.0))
    assert time.perf_counter() - start < 0.25


@pytest.mark.parametrize("n_z", [1, 7, 40, 41, 3000])
def test_min_distance_matches_the_dense_minimum(n_z):
    # 40 sample points: z smaller than, equal to and larger than the sample,
    # so both the blocked and the one-point-at-a-time path run
    rng = np.random.default_rng(n_z)
    pts = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)
    z = rng.uniform(-2, 2, n_z) + 1j * rng.uniform(-2, 2, n_z)
    z[0] = pts[3]  # distance exactly 0
    dense = np.min(np.abs(z[:, None] - pts[None, :]), axis=1)
    got = CompactSample(pts).min_distance_to(z)
    assert got.dtype == dense.dtype and got.tobytes() == dense.tobytes()
    grid = CompactSample(pts).min_distance_to(z.reshape(1, -1))
    assert grid.shape == (1, n_z) and grid.tobytes() == dense.tobytes()
