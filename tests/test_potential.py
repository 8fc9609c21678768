import math

import numpy as np
import pytest

from polarhull import potential
from polarhull.core import CircleContour, Disk, DiskUnion, PolarhullError
from polarhull.models import (
    ExpReciprocal,
    PoleSeries,
    RationalModel,
    RecipSinPi,
    TailUncertifiable,
)
from polarhull.potential import (
    DepthOverflow,
    DivergentBase,
    InvalidBounds,
    MeasureEstimate,
    PointInsideCover,
    StartInsideObstacle,
    StartInsideTarget,
    ThresholdTooSmall,
    UnsupportedFamily,
    harmonic_measure,
    sublevel_cover,
    two_constants_check,
    wiener_test,
    witness_build,
)


class TestSublevelCover:
    def test_exp_level_disk_geometry(self):
        cover = sublevel_cover(ExpReciprocal(), math.e)
        (disk,) = cover.disks
        assert disk.center == pytest.approx(0.5)
        assert disk.radius == pytest.approx(0.5)

    def test_exp_cover_shrinks_with_level(self):
        radii = [
            sublevel_cover(ExpReciprocal(), r).disks[0].radius
            for r in (math.e, math.e**2, math.e**10)
        ]
        assert radii == sorted(radii, reverse=True)
        assert radii[-1] == pytest.approx(0.05)

    def test_exp_threshold_too_small(self):
        with pytest.raises(ThresholdTooSmall):
            sublevel_cover(ExpReciprocal(), 0.9)

    def test_pole_series_radii_follow_tail(self, gauss40):
        cover = sublevel_cover(gauss40, 1.0)
        # r_n = C sqrt(gamma_n) with gamma_n the coefficient tail sum
        log_c = np.log(np.array([d.radius for d in cover.disks[:6]]))
        gamma = [sum(math.exp(-k * k) / k**2 for k in range(n, 200))
                 for n in range(1, 7)]
        expect = log_c[0] - 0.5 * math.log(gamma[0])
        for lc, g in zip(log_c, gamma):
            assert lc - 0.5 * math.log(g) == pytest.approx(expect, abs=1e-6)
        # certificate: sum of |c_n| / r_n stays below the level
        total = sum(
            math.exp(-n * n) / n**2 / d.radius
            for n, d in zip(range(1, 41), cover.disks)
        )
        assert total <= 1.0

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFamily):
            sublevel_cover(RationalModel([0.5], [1.0]), 2.0)

    def test_recip_sin_inner_disks_certify(self):
        big_r = math.e
        cover = sublevel_cover(RecipSinPi(), big_r, 0j, 1.2)
        f = RecipSinPi()
        rng = np.random.default_rng(5)
        for d in cover.disks[:8]:
            z = d.center + d.radius * 0.95 * np.exp(2j * np.pi * rng.random(8))
            vals = np.abs(f(z))
            assert np.all(vals >= big_r)  # inner certificate: disks inside the set


class TestWiener:
    def test_far_disk_is_thin(self):
        cover = DiskUnion([Disk(3.0 + 0j, 0.5)])
        rep = wiener_test(cover, 0j, 40)
        assert rep.verdict == "THIN"
        assert all(cap == 0.0 for _, _, _, cap in rep.annuli[1:])

    def test_exp_tangent_disk_non_thin(self):
        cover = sublevel_cover(ExpReciprocal(), math.e)
        rep = wiener_test(cover, 0j, 40)
        assert rep.verdict == "NON_THIN"
        # segment rule: each annulus keeps capacity >= 2^-n / 8
        for n, _, _, cap in rep.annuli:
            assert cap >= 2.0 ** (-n) / 8.0
        s = rep.partial_sums_lower
        assert np.all(s[-10:] >= 0.1 * np.arange(31, 41))

    def test_exp_partial_sums_slope(self):
        cover = sublevel_cover(ExpReciprocal(), math.e**2)
        rep = wiener_test(cover, 0j, 40)
        n = np.arange(1, 41)
        slope = np.polyfit(n, rep.partial_sums_lower, 1)[0]
        assert slope > 0
        assert rep.partial_sums_lower[-1] >= 0.5 * 40 * slope

    def test_gaussian_cover_thin_at_origin(self, gauss40):
        cover = sublevel_cover(gauss40, 1.0)
        rep = wiener_test(cover, 0j, 40)
        assert rep.verdict == "THIN"
        inc = np.diff(rep.partial_sums_upper)
        assert np.sum(inc[-20:]) < 1e-3

    def test_point_inside_cover_rejected(self):
        with pytest.raises(PointInsideCover):
            wiener_test(DiskUnion([Disk(0j, 0.5)]), 0j, 10)

    def test_conflicting_signals_inconclusive(self):
        # a chain truncated well above the test depth grows linearly early on
        # but goes silent past its truncation: neither verdict may win
        chain = DiskUnion([Disk(0.75 * 2.0**-k, 2.0**-k / 4.0)
                           for k in range(1, 16)])
        rep = wiener_test(chain, 0j, 40)
        assert rep.verdict == "INCONCLUSIVE"
        assert rep.bound_used == "none"

    def test_depth_cap(self):
        with pytest.raises(DepthOverflow):
            wiener_test(DiskUnion([Disk(1.0 + 0j, 0.1)]), 0j, 61)

    def test_enlarging_radii_keeps_non_thin(self):
        # dyadic chain toward the origin; enlarging keeps the origin exterior
        base = DiskUnion([Disk(0.75 * 2.0**-k, 2.0**-k / 4.0) for k in range(1, 41)])
        rep = wiener_test(base, 0j, 40)
        assert rep.verdict == "NON_THIN"
        grown = DiskUnion([Disk(d.center, 1.4 * d.radius) for d in base.disks])
        rep2 = wiener_test(grown, 0j, 40)
        # the lower-bound rule may coarsen, but the verdict cannot flip to THIN
        assert rep2.verdict == "NON_THIN"


class TestWitness:
    def test_single_disk_value(self):
        wit = witness_build([0.5], [1e-6])
        expect = (math.log(0.5) - math.log(1.5)) / math.log(1e6)
        assert wit.value_at_point == pytest.approx(expect)
        assert wit.alphas[0] == 1.0

    def test_empty_witness(self):
        wit = witness_build([], [])
        assert wit.value_at_point == 0.0

    def test_gaussian_cover_witness(self, gauss40):
        cover = sublevel_cover(gauss40, 1.0)
        radii = np.array([d.radius for d in cover.disks])
        # stick to the representable radii; the generator clamps the rest
        keep = radii > 1e-289
        wit = witness_build(gauss40.poles[keep], radii[keep])
        assert math.isfinite(wit.value_at_point)
        sups = wit.disk_sup_bounds
        assert np.all(np.diff(sups[2:]) < 0)  # disk sup bounds fall to -inf
        assert sups[-1] < -10
        assert np.all(np.diff(wit.alphas) >= 0)

    def test_witness_consistent_with_wiener(self, gauss40):
        cover = sublevel_cover(gauss40, 1.0)
        radii = np.array([d.radius for d in cover.disks])
        witness_build(gauss40.poles, radii)  # succeeds
        rep = wiener_test(cover, 0j, 40)
        assert rep.verdict != "NON_THIN"

    def test_eval_at_origin_matches_value(self, gauss40):
        radii = sublevel_cover(gauss40, 1.0).radii
        keep = radii > 1e-289
        wit = witness_build(gauss40.poles[keep], radii[keep])
        assert wit.eval(0j) == pytest.approx(wit.value_at_point, rel=1e-12)
        a, r = wit.centers[3], wit.radii[3]
        one = witness_build([a], [r])
        z = 0.3 + 0.1j
        expect = one.alphas[0] / math.log(1.0 / r) * (math.log(abs(z - a)) - math.log(1.0 + abs(a)))
        assert one.eval(z) == pytest.approx(expect, rel=1e-12)

    def test_divergent_base_rejected(self):
        n = np.arange(1, 200)
        centers = 1.0 / n
        radii = np.full_like(centers, 0.5)  # log r_n does not grow: summands ~ log n
        with pytest.raises(DivergentBase):
            witness_build(centers, radii)


class TestHarmonicMeasure:
    def test_annulus_oracle(self):
        est = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                               walks=100000, seed=7)
        oracle = math.log(1.0 / 0.4) / math.log(10.0)
        assert abs(est.value - oracle) < 0.02
        assert est.std_error < 0.01

    def test_immediate_absorption(self):
        est = harmonic_measure(0.10005 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                               walks=2000, seed=1, eps_abs=1e-3)
        assert est.value > 0.99

    def test_start_inside_solid_target(self):
        with pytest.raises(StartInsideTarget):
            harmonic_measure(0j, Disk(0j, 0.1), Disk(0j, 1.0), walks=10, seed=0)

    def test_start_inside_obstacle(self):
        with pytest.raises(StartInsideObstacle):
            harmonic_measure(0.5 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                             DiskUnion([Disk(0.5 + 0j, 0.2)]), walks=10, seed=0)

    def test_reproducible_for_seed(self):
        kw = dict(walks=5000, seed=123)
        a = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0), **kw)
        b = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0), **kw)
        assert a.value == b.value and a.std_error == b.std_error

    @pytest.mark.parametrize("seed", range(50))
    def test_oracle_within_three_sigma(self, seed):
        # 99%-style check: allow the rare excursion but catch systematic bias
        est = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                               walks=20000, seed=seed)
        oracle = math.log(1.0 / 0.4) / math.log(10.0)
        if abs(est.value - oracle) >= 3.0 * est.std_error:
            pytest.xfail("single-seed three-sigma excursion")

    def test_obstacles_only_decrease(self):
        base = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                                walks=40000, seed=5)
        obst = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                                DiskUnion([Disk(0.25 + 0j, 0.05)]),
                                walks=40000, seed=5)
        tol = 3.0 * (base.std_error + obst.std_error)
        assert obst.value <= base.value + tol

    def test_grid_backend_agrees_with_wos(self):
        wos = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                               walks=100000, seed=7)
        grid = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                                method="grid")
        assert grid.method == "GRID"
        assert abs(grid.value - wos.value) < 0.01

    def test_empty_obstacles_match_default(self):
        kw = dict(walks=2000, seed=4)
        a = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0), **kw)
        b = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                             DiskUnion([]), **kw)
        assert (a.value, a.std_error) == (b.value, b.std_error)

    def test_disk_union_target_grid_agrees_with_wos(self):
        target = DiskUnion([Disk(0.3 + 0j, 0.1), Disk(-0.3 + 0j, 0.1)])
        args = (0.6j, target, Disk(0j, 1.0), DiskUnion([Disk(0.3j, 0.1)]))
        wos = harmonic_measure(*args, walks=40000, seed=2)
        grid = harmonic_measure(*args, method="grid", grid_n=161)
        assert abs(grid.value - wos.value) < 0.01

    def test_grid_reports_sweeps_and_residual(self):
        est = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                               method="grid", grid_n=161)
        assert est.iterations == 423
        assert est.residual < 1e-8

    def test_wos_reports_step_rounds(self):
        args = (0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0))
        est = harmonic_measure(*args, walks=2000, seed=3)
        assert est.iterations > 0 and est.residual is None
        assert harmonic_measure(*args, walks=2000, seed=3, max_steps=est.iterations + 1) == est
        assert harmonic_measure(*args, walks=2000, seed=3, max_steps=est.iterations) == est
        with pytest.raises(PolarhullError, match="step budget"):
            harmonic_measure(*args, walks=2000, seed=3, max_steps=est.iterations - 1)

    def test_boundary_target_with_thin_obstacles(self, gauss40):
        cover = sublevel_cover(gauss40, 1.0)
        r = 0.05
        inner = [d for d in cover.disks if abs(d.center) + d.radius < r]
        for zk in (r / 4.0, r / 8.0):
            est = harmonic_measure(zk + 0j, CircleContour(0j, r), Disk(0j, r),
                                   DiskUnion(inner), walks=20000, seed=11)
            assert est.value >= 0.5 - 3.0 * est.std_error


class TestTwoConstants:
    def test_midpoint(self):
        omega = MeasureEstimate(0.5, 0.0, 1, 0, "WOS")
        assert two_constants_check({"H": 0.0, "C_nk": -10.0}, omega) == -5.0

    def test_full_absorption(self):
        omega = MeasureEstimate(1.0, 0.0, 1, 0, "WOS")
        assert two_constants_check({"H": 3.0, "C_nk": -2.0}, omega) == -2.0

    def test_no_absorption(self):
        omega = MeasureEstimate(0.0, 0.0, 1, 0, "WOS")
        assert two_constants_check({"H": 3.0, "C_nk": -2.0}, omega) == 3.0

    def test_invalid_bounds(self):
        omega = MeasureEstimate(0.5, 0.0, 1, 0, "WOS")
        with pytest.raises(InvalidBounds):
            two_constants_check({"H": -5.0, "C_nk": 0.0}, omega)


# ------------------------------------------------ scalar oracles of the array paths

def _annulus_lower_cap_oracle(d, z0, inner, outer):
    """Capacity of a piece of the disk contained in the annulus (lower bound)."""
    dist = abs(d.center - z0)
    if dist - d.radius >= outer or dist + d.radius <= inner:
        return 0.0
    if dist - d.radius >= inner and dist + d.radius <= outer:
        return d.radius
    lo = max(inner, dist - d.radius)
    hi = min(outer, dist + d.radius)
    return max(hi - lo, 0.0) / 4.0


def _wiener_oracle(cover, point, depth, tolerance=1e-3, slope=0.1):
    """Disk-by-disk Wiener sums: (annuli, lower sums, upper sums, verdict, bound_used)."""
    point = complex(point)
    cover = cover.disks
    annuli = []
    low_terms = np.zeros(depth)
    up_terms = np.zeros(depth)
    for n in range(1, depth + 1):
        inner, outer = 2.0 ** (-n - 1), 2.0 ** (-n)
        cap_lo = 0.0
        up = 0.0
        for d in cover:
            cap_lo = max(cap_lo, _annulus_lower_cap_oracle(d, point, inner, outer))
            dist = abs(d.center - point)
            if dist - d.radius < outer and dist + d.radius > inner:
                up += 1.0 / math.log(1.0 / min(d.radius, outer, 0.5))
        if cap_lo > 0.0:
            low_terms[n - 1] = n / math.log(1.0 / min(cap_lo, 0.5))
        up_terms[n - 1] = n * up
        annuli.append((n, inner, outer, cap_lo))
    s_low, s_up = np.cumsum(low_terms), np.cumsum(up_terms)
    tail = min(10, depth)
    non_thin = bool(np.all(s_low[-tail:] >= slope * np.arange(depth - tail + 1, depth + 1)))
    thin = bool(np.sum(up_terms[-min(5, depth):]) < tolerance)
    if non_thin and not thin:
        verdict, used = "NON_THIN", "lower"
    elif thin and not non_thin:
        verdict, used = "THIN", "upper"
    else:
        verdict, used = "INCONCLUSIVE", "none"
    return tuple(annuli), s_low, s_up, verdict, used


def _dyadic_chain_oracle(z0, region_radius, region_center, depth=50):
    slack = region_radius - abs(region_center - z0)
    k0 = max(1, math.ceil(-math.log2(max(slack, 1e-280))))
    out, last_k = [], k0
    for k in range(k0, k0 + depth):
        step = 2.0 ** (-k)
        if step < 1e-280:
            break
        out.append(Disk(z0 + 0.75 * step, step / 4.0))
        last_k = k
    return out, last_k


def _recip_sin_cover_oracle(big_r, z0, radius=1.0, pole_cap=4096):
    """Pole-by-pole 1/sin(pi/z) cover: (disks, faithful_depth)."""
    rho = math.asinh(1.0 / big_r) / math.pi / 2.0
    disks, chain_depth = [], 0
    z0 = complex(z0)
    for sign in (1, -1):
        for n in range(1, pole_cap + 1):
            pole = sign / n
            if abs(pole - z0) > radius + 1.0 / n**2:
                continue
            denom = n * n - rho * rho
            center, r = sign * n / denom, rho / denom
            if abs(pole - z0) < r:
                chain, last_k = _dyadic_chain_oracle(z0, r, center)
                disks.extend(chain)
                chain_depth = max(chain_depth, last_k)
            else:
                disks.append(Disk(complex(center), r))
    if abs(z0) <= 2.0 / pole_cap:
        faithful = int(math.floor(math.log2(pole_cap))) - 1
    elif chain_depth:
        faithful = min(60, chain_depth - 2)
    else:
        faithful = 60
    return disks, faithful


def _log_gamma_oracle(f, n_start):
    """log of sum_{n >= n_start} |c_n| including the certified tail, one sum per call."""
    if n_start > f.n_terms:
        if f.log_gamma_tail is None:
            raise TailUncertifiable(f.label)
        return float(f.log_gamma_tail(n_start))
    body = f.log_abs_c[n_start - 1 :]
    mx = float(body.max())
    acc = float(np.sum(np.exp(body - mx)))
    if f.log_gamma_tail is not None:
        acc += math.exp(f.log_gamma_tail(f.n_terms + 1) - mx)
    return mx + math.log(acc)


def _pole_series_radii_oracle(f, big_r, min_disk_radius=1e-290):
    log_gamma = np.array([_log_gamma_oracle(f, i) for i in range(1, f.n_terms + 1)])
    needed = float(np.sum(np.exp(f.log_abs_c - 0.5 * log_gamma))) / big_r
    log_radii = math.log(2.0 ** math.ceil(math.log2(needed))) + 0.5 * log_gamma
    return np.maximum(np.exp(log_radii), min_disk_radius)


def _chain(ks, grow=1.0):
    return DiskUnion([Disk(0.75 * 2.0**-k, grow * 2.0**-k / 4.0) for k in ks])


def _oracle_cases():
    e = math.e
    sin = RecipSinPi()
    cases = [
        ("far-disk", DiskUnion([Disk(3.0 + 0j, 0.5)]), 0j, 40),
        ("exp-reciprocal", sublevel_cover(ExpReciprocal(), e), 0j, 40),
        ("gaussian-40@0", sublevel_cover(PoleSeries.gaussian(40), 1.0), 0j, 40),
        ("truncated-chain", _chain(range(1, 16)), 0j, 40),
        ("enlarged-chain", _chain(range(1, 41), grow=1.4), 0j, 40),
    ]
    for z0 in (0j, 0.5 + 0j, -0.5 + 0j):
        for big_r in (e, e**2, e**4):
            cover = sublevel_cover(sin, big_r, z0)
            cases.append((f"recip-sin-pi@{z0.real}/R={big_r:.3g}", cover, z0,
                          min(30, cover.faithful_depth)))
    return cases


ORACLE_CASES = _oracle_cases()


class TestArrayPathsAgainstOracles:
    @pytest.mark.parametrize("name,cover,z0,depth", ORACLE_CASES,
                             ids=[c[0] for c in ORACLE_CASES])
    def test_wiener_matches_disk_loop(self, name, cover, z0, depth):
        rep = wiener_test(cover, z0, depth)
        annuli, s_low, s_up, verdict, used = _wiener_oracle(cover, z0, depth)
        assert rep.verdict == verdict
        assert rep.bound_used == used
        assert rep.annuli == annuli  # capacities exactly equal
        np.testing.assert_allclose(rep.partial_sums_lower, s_low, rtol=1e-12, atol=0)
        np.testing.assert_allclose(rep.partial_sums_upper, s_up, rtol=1e-12, atol=0)

    def test_oracle_cases_cover_every_verdict(self):
        verdicts = {wiener_test(c, z0, d).verdict for _, c, z0, d in ORACLE_CASES}
        assert verdicts == {"THIN", "NON_THIN", "INCONCLUSIVE"}

    @pytest.mark.parametrize("z0", [0j, 0.5 + 0j, -0.5 + 0j, 0.3 + 0j])
    @pytest.mark.parametrize("big_r", [math.e, math.e**2, math.e**4])
    def test_recip_sin_cover_matches_pole_loop(self, z0, big_r):
        cover = sublevel_cover(RecipSinPi(), big_r, z0)
        disks, faithful = _recip_sin_cover_oracle(big_r, z0)
        assert np.array_equal(cover.centers, [d.center for d in disks])
        assert np.array_equal(cover.radii, [d.radius for d in disks])
        assert cover.faithful_depth == faithful

    def test_recip_sin_faithful_depths(self):
        assert sublevel_cover(RecipSinPi(), math.e, 0j).faithful_depth == 11
        # at +-1/2 the pole's own disk is replaced by a dyadic chain
        chain = sublevel_cover(RecipSinPi(), math.e, 0.5 + 0j)
        assert chain.faithful_depth < 60
        assert np.sum(np.abs(chain.centers - 0.5) < 0.01) >= 40

    @pytest.mark.parametrize("n_terms", [40, 1000])
    @pytest.mark.parametrize("big_r", [1.0, 2.0])
    def test_pole_series_cover_matches_scalar_gamma(self, n_terms, big_r):
        f = PoleSeries.gaussian(n_terms)
        cover = sublevel_cover(f, big_r)
        assert np.array_equal(cover.centers, f.poles)
        np.testing.assert_allclose(cover.radii, _pole_series_radii_oracle(f, big_r),
                                   rtol=1e-15, atol=0)
        assert cover.faithful_depth == 60

    @pytest.mark.parametrize("f", [PoleSeries.gaussian(8), PoleSeries.gaussian(4000),
                                   PoleSeries.geometric(300, 0.7),
                                   PoleSeries(1.0 / np.arange(1, 41), np.exp(-np.arange(1, 41)))],
                             ids=["gaussian-8", "gaussian-4000", "geometric-300", "no-tail"])
    def test_log_gamma_suffix_matches_scalar(self, f):
        suffix = f.log_gamma_suffix()
        oracle = [_log_gamma_oracle(f, i) for i in range(1, f.n_terms + 1)]
        np.testing.assert_allclose(suffix[: f.n_terms], oracle, rtol=1e-15, atol=1e-15)
        if f.log_gamma_tail is None:
            assert len(suffix) == f.n_terms
        else:
            assert suffix[-1] == _log_gamma_oracle(f, f.n_terms + 1)


def _masked_sor_oracle(u, free, omega, tol):
    """Red-black SOR on the whole grid: the stencil everywhere, scattered through masks."""
    ii, jj = np.meshgrid(np.arange(u.shape[0]), np.arange(u.shape[1]), indexing="ij")
    red = (ii + jj) % 2 == 0
    for sweep in range(1, 200001):
        for mask in (free & red, free & ~red):
            nb = np.zeros_like(u)
            nb[1:-1, 1:-1] = 0.25 * (
                u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
            )
            u[mask] += omega * (nb[mask] - u[mask])
        res = np.zeros_like(u)
        res[1:-1, 1:-1] = np.abs(
            0.25 * (u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:])
            - u[1:-1, 1:-1]
        )
        residual = float(np.max(res[free]))
        if residual < tol:
            return sweep, residual
    raise PolarhullError("grid relaxation did not reach the residual target")


def _grid_cases():
    r = 0.05
    thin = DiskUnion([d for d in sublevel_cover(PoleSeries.gaussian(40), 1.0)
                      if abs(d.center) + d.radius < r])
    annulus = (0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0))
    two_disks = (0.6j, DiskUnion([Disk(0.3 + 0j, 0.1), Disk(-0.3 + 0j, 0.1)]), Disk(0j, 1.0),
                 DiskUnion([Disk(0.3j, 0.1)]))
    return [
        ("annulus-161", annulus, 161),
        ("thin-obstacles@r/4", (r / 4 + 0j, CircleContour(0j, r), Disk(0j, r), thin), 161),
        ("two-disk-target", two_disks, 161),
        ("annulus-100", annulus, 100),  # even: the four sub-lattices differ in shape
    ]


GRID_CASES = _grid_cases()


@pytest.mark.parametrize("name,args,grid_n", GRID_CASES, ids=[c[0] for c in GRID_CASES])
def test_grid_sweeps_match_masked_oracle(monkeypatch, name, args, grid_n):
    fast = harmonic_measure(*args, method="grid", grid_n=grid_n)
    monkeypatch.setattr(potential, "_sor", _masked_sor_oracle)
    slow = harmonic_measure(*args, method="grid", grid_n=grid_n)
    # bitwise: value, free-node count, sweep count and final residual
    assert fast == slow
