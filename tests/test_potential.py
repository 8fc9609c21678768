import dataclasses
import json
import math
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from polarhull import potential
from polarhull.core import CircleContour, Disk, DiskUnion, PolarhullError
from polarhull.hull import classify_fiber
from polarhull.models import (
    MIN_DISK_RADIUS,
    ExpReciprocal,
    PoleSeries,
    RationalModel,
    RecipSinPi,
    TailUncertifiable,
)
from polarhull.potential import (
    MeasureEstimate,
    StartInsideObstacle,
    ThresholdTooSmall,
    harmonic_measure,
    sublevel_cover,
    wiener_test,
)


class TestSublevelCover:
    def test_exp_level_disk_geometry(self):
        cover = sublevel_cover(ExpReciprocal(), math.e)
        (disk,) = cover
        assert disk.center == pytest.approx(0.5)
        assert disk.radius == pytest.approx(0.5)

    def test_exp_cover_shrinks_with_level(self):
        radii = [
            sublevel_cover(ExpReciprocal(), r).radii[0]
            for r in (math.e, math.e**2, math.e**10)
        ]
        assert radii == sorted(radii, reverse=True)
        assert radii[-1] == pytest.approx(0.05)

    def test_exp_threshold_too_small(self):
        with pytest.raises(ThresholdTooSmall):
            sublevel_cover(ExpReciprocal(), 0.9)

    @pytest.mark.parametrize("big_r", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("f", [PoleSeries.gaussian(40), ExpReciprocal(), RecipSinPi(16),
                                   RationalModel([0.4, -0.2], [0.0, 0.0])],
                             ids=["gaussian-40", "exp-reciprocal", "recip-sin-pi-16",
                                  "all-zero-residues"])
    def test_threshold_out_of_range(self, f, big_r):
        # each model's own cover refuses the level, naming its range and the level;
        # `sublevel_cover` only forwards
        message = re.escape(f"{0 if isinstance(f, PoleSeries) else 1} < big_r < inf, "
                            f"got {big_r!r}")
        for cover in (f.cover, lambda r: sublevel_cover(f, r)):
            with pytest.raises(ThresholdTooSmall, match=message):
                cover(big_r)

    def test_pole_series_radii_overflow(self):
        # C >= 1e150 / 1e-10 times sqrt(gamma_1) = 1e150 is not a float; no numpy warning
        with pytest.raises(ThresholdTooSmall):
            sublevel_cover(RationalModel([0.5], [1e300]), 1e-10)

    def test_pole_series_radii_follow_tail(self, gauss40):
        cover = sublevel_cover(gauss40, 1.0)
        # r_n = C sqrt(gamma_n) with gamma_n the coefficient tail sum
        log_c = np.log(cover.radii[:6])
        gamma = [sum(math.exp(-k * k) / k**2 for k in range(n, 200))
                 for n in range(1, 7)]
        expect = log_c[0] - 0.5 * math.log(gamma[0])
        for lc, g in zip(log_c, gamma):
            assert lc - 0.5 * math.log(g) == pytest.approx(expect, abs=1e-6)
        # certificate: sum of |c_n| / r_n stays below the level
        total = sum(
            math.exp(-n * n) / n**2 / d.radius
            for n, d in zip(range(1, 41), cover)
        )
        assert total <= 1.0

    def test_zero_residue_pole_gets_no_disk(self):
        # a zero residue leaves its pole removable: no disk, no certificate term
        cover = sublevel_cover(PoleSeries([0.5, 0.25], [1.0, 0.0]), 1.0)
        assert (cover.centers.tolist(), cover.radii.tolist(), cover.side) == (
            [0.5 + 0j], [1.0], "outer")

    @pytest.mark.parametrize("poles,residues", [([0.5, math.inf], [1, 1]),
                                                ([0.5, 0.25], [1, math.nan])])
    def test_pole_series_refuses_non_finite_terms(self, poles, residues):
        with pytest.raises(ValueError, match="finite"):
            PoleSeries(poles, residues)

    @pytest.mark.parametrize("log_abs_c, message", [
        ([0.0], "shape"),
        ([math.nan, math.log(2.0)], "NaN"),
        ([math.inf, math.log(2.0)], r"\+inf"),
        ([-math.inf, math.log(2.0)], "-inf only where the residue is 0"),
        ([math.log(2.0), math.log(2.0)], "agree with log"),
        ([0.0, math.log(2.0) * (1 + 1e-11)], "agree with log"),
    ], ids=["short", "nan", "plus-inf", "minus-inf-live", "wrong", "off-by-1e-11"])
    def test_pole_series_log_abs_c_checks(self, log_abs_c, message):
        # the covers trust log_abs_c: before, a short one raised IndexError at
        # the first cover, and NaN or -inf dropped a live pole from an outer cover
        with pytest.raises(ValueError, match=message):
            PoleSeries([0.5, 0.25], [1.0, 2.0], log_abs_c=log_abs_c)

    def test_pole_series_refuses_a_live_pole_marked_removable(self):
        g = PoleSeries.geometric(40)
        log_abs_c = g.log_abs_c.copy()
        log_abs_c[10:] = -math.inf
        with pytest.raises(ValueError, match="-inf only"):
            PoleSeries(g.poles, g.residues, log_abs_c=log_abs_c)

    def test_pole_series_log_abs_c_is_free_where_the_residue_is_not_normal(self):
        # an underflowed or subnormal residue keeps the log it was given
        f = PoleSeries([0.5, 0.25, 0.125], [0.0, 5e-324, 1.0],
                       log_abs_c=[-1000.0, -800.0, 1e-13])
        assert f.log_abs_c.tolist() == [-1000.0, -800.0, 1e-13]
        assert len(PoleSeries([0.5, 0.25], [0.0, 1.0], log_abs_c=[-math.inf, 0.0]).cover(2.0)) == 1
        for preset in (PoleSeries.gaussian(400), PoleSeries.geometric(400)):
            PoleSeries(preset.poles, preset.residues, log_abs_c=preset.log_abs_c)

    @pytest.mark.parametrize("ca_tail", [-1e-300, math.nan, math.inf])
    def test_pole_series_ca_tail_must_be_finite_and_not_negative(self, ca_tail):
        with pytest.raises(ValueError, match="ca_tail"):
            PoleSeries([0.5], [1.0], ca_tail=ca_tail)

    @pytest.mark.parametrize("build, message", [
        (lambda: PoleSeries([0.5], [1, 2]), "poles and residues must have equal length"),
        (lambda: PoleSeries.geometric(10, 1.0), r"ratio must lie in \(0, 1\)"),
    ], ids=["unequal-lengths", "ratio-one"])
    def test_pole_series_input_checks(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("build, error", [
        (lambda: RecipSinPi(2.7), TypeError),
        (lambda: RecipSinPi(0), ValueError),
        (lambda: RecipSinPi(-3), ValueError),
        (lambda: PoleSeries.gaussian(0), ValueError),
        (lambda: PoleSeries.gaussian(-2), ValueError),
        (lambda: PoleSeries.geometric(0), ValueError),
    ], ids=["cutoff-2.7", "cutoff-0", "cutoff--3", "gaussian-0", "gaussian--2", "geometric-0"])
    def test_model_size_must_be_an_integer_of_at_least_one(self, build, error):
        # a size is never rounded or emptied into another model
        with pytest.raises(error, match="integer"):
            build()

    def test_recip_sin_cutoff_is_a_python_int(self):
        cutoff = RecipSinPi(np.int64(8)).pole_cutoff
        assert type(cutoff) is int and cutoff == 8

    def test_pole_series_copies_its_inputs_and_keeps_them_read_only(self):
        poles, residues = np.array([0.5, 0.25], dtype=complex), np.array([1.0, 2.0], dtype=complex)
        log_abs_c = np.log(np.abs(residues))
        f = PoleSeries(poles, residues, log_abs_c=log_abs_c)
        before = sublevel_cover(f, 1.0)
        poles[0], residues[0], log_abs_c[0] = poles[1], 0.0, -math.inf
        assert (f.poles.tolist(), f.residues.tolist()) == ([0.5, 0.25], [1.0, 2.0])
        assert f.log_abs_c.tolist() == [0.0, math.log(2.0)]
        after = sublevel_cover(f, 1.0)
        assert (after.centers.tolist(), after.radii.tolist()) == (
            before.centers.tolist(), before.radii.tolist())
        for name in ("poles", "residues", "log_abs_c"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(f, name)[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            PoleSeries.gaussian(8).log_gamma_suffix()[0] = 0.0

    def test_all_zero_residues_give_empty_thin_cover(self):
        cover = sublevel_cover(RationalModel([0.4, -0.2], [0.0, 0.0]), 1.0)
        assert (len(cover), cover.side) == (0, "outer")
        assert wiener_test(cover, 0.4).verdict == "THIN"

    def test_recip_sin_inner_disks_certify(self):
        big_r = math.e
        cover = sublevel_cover(RecipSinPi(), big_r)
        f = RecipSinPi()
        rng = np.random.default_rng(5)
        for d in tuple(cover)[:8]:
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

    @pytest.mark.parametrize("side,verdict", [("exact", "NON_THIN"), ("inner", "NON_THIN"),
                                              ("outer", "INCONCLUSIVE")])
    def test_disk_containing_point_is_evidence(self, side, verdict):
        cover = DiskUnion.from_arrays([0.125 + 0j], [0.5], side=side)
        rep = wiener_test(cover, 0j, 10)
        assert (rep.verdict, rep.cover_side) == (verdict, side)
        # the disk holds the radial segment [2^-n-1, 2^-n] of every annulus
        assert [cap for _, _, _, cap in rep.annuli] == [2.0 ** (-n - 3) for n in range(1, 11)]
        # and the per-disk upper bound n / log(2^n) never dies out
        np.testing.assert_allclose(np.diff(rep.partial_sums_upper), 1.0 / math.log(2.0))

    @pytest.mark.parametrize("side,far_verdict,exp_verdict", [
        ("exact", "THIN", "NON_THIN"), ("inner", "INCONCLUSIVE", "NON_THIN"),
        ("outer", "THIN", "INCONCLUSIVE")])
    def test_each_bound_speaks_only_from_its_side(self, side, far_verdict, exp_verdict):
        far = DiskUnion.from_arrays([3.0 + 0j], [0.5], side=side)
        exp = sublevel_cover(ExpReciprocal(), math.e)
        tangent = DiskUnion.from_arrays(exp.centers, exp.radii, side=side)
        assert wiener_test(far, 0j, 40).verdict == far_verdict
        assert wiener_test(tangent, 0j, 40).verdict == exp_verdict

    def test_covers_carry_their_side(self):
        assert sublevel_cover(ExpReciprocal(), math.e).side == "exact"
        assert sublevel_cover(PoleSeries.gaussian(40), 1.0).side == "outer"
        assert sublevel_cover(RecipSinPi(), math.e).side == "inner"

    def test_geometric_low_level_is_inconclusive(self):
        # at R = 2 the outer disk about the pole 1 reaches past the origin,
        # so the upper sums diverge: INCONCLUSIVE, no ThresholdTooSmall
        cover = sublevel_cover(PoleSeries.geometric(40), 2.0)
        assert np.any(np.abs(cover.centers) < cover.radii)
        rep = wiener_test(cover, 0j, 40)
        assert (rep.verdict, rep.bound_used) == ("INCONCLUSIVE", "none")

    @pytest.mark.parametrize("point", [complex(math.nan, 0), complex(0, math.inf)])
    def test_non_finite_point_rejected(self, point):
        for cover in (DiskUnion([Disk(0.5 + 0j, 0.25)]), DiskUnion([])):
            with pytest.raises(ValueError, match="not finite"):
                wiener_test(cover, point, 10)

    def test_conflicting_signals_inconclusive(self):
        # a chain truncated well above the test depth grows linearly early on
        # but goes silent past its truncation: neither verdict may win
        chain = DiskUnion([Disk(0.75 * 2.0**-k, 2.0**-k / 4.0)
                           for k in range(1, 16)])
        rep = wiener_test(chain, 0j, 40)
        assert rep.verdict == "INCONCLUSIVE"
        assert rep.bound_used == "none"

    def test_depth_cap(self):
        with pytest.raises(ValueError, match="need depth <= 60"):
            wiener_test(DiskUnion([Disk(1.0 + 0j, 0.1)]), 0j, 61)

    @pytest.mark.parametrize("depth", [40.0, 20.5, "40"])
    def test_depth_must_be_an_integer(self, depth):
        with pytest.raises(TypeError, match="integer"):
            wiener_test(DiskUnion([Disk(1.0 + 0j, 0.1)]), 0j, depth)

    def test_subnormal_radius_counts_in_the_upper_sums(self):
        # 1/r overflows for r = 1e-310; the disk in annulus 10 adds 10/log(1e310)
        cover = DiskUnion([Disk(0.75 * 2.0**-10, 1e-310)])
        rep = wiener_test(cover, 0j, 12)
        increments = np.diff(rep.partial_sums_upper, prepend=0.0)
        assert increments[9] == pytest.approx(10 / (310 * math.log(10)), rel=1e-12)
        assert np.count_nonzero(increments) == 1
        assert rep.verdict == "INCONCLUSIVE"

    def test_enlarging_radii_keeps_non_thin(self):
        # dyadic chain toward the origin; enlarging keeps the origin exterior
        base = DiskUnion([Disk(0.75 * 2.0**-k, 2.0**-k / 4.0) for k in range(1, 41)])
        rep = wiener_test(base, 0j, 40)
        assert rep.verdict == "NON_THIN"
        grown = DiskUnion([Disk(d.center, 1.4 * d.radius) for d in base])
        rep2 = wiener_test(grown, 0j, 40)
        # the lower-bound rule may coarsen, but the verdict cannot flip to THIN
        assert rep2.verdict == "NON_THIN"


class TestHarmonicMeasure:
    def test_annulus_oracle(self):
        est = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                               walks=100000, seed=7)
        oracle = math.log(1.0 / 0.4) / math.log(10.0)
        assert abs(est.value - oracle) < 0.02
        assert est.std_error < 0.01

    def test_immediate_absorption(self, monkeypatch):
        monkeypatch.setattr(potential, "WOS_SHELL", 1e-3)
        est = harmonic_measure(0.10005 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                               walks=2000, seed=1)
        assert est.value > 0.99

    @pytest.mark.parametrize("walks", [0, -5])
    def test_walks_must_be_positive(self, walks):
        with pytest.raises(ValueError, match="walks must be >= 1"):
            harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0), walks=walks)

    @pytest.mark.parametrize("value", [-0.1, 1.5, math.nan])
    def test_measure_estimate_out_of_unit_interval_rejected(self, value):
        with pytest.raises(ValueError, match=re.escape("measure estimate out of [0, 1]")):
            MeasureEstimate(value=value, std_error=0.0, walks=1, seed=0, method="wos",
                            iterations=1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method must be 'wos' or 'grid'"):
            harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0), method="x")

    def test_non_finite_start_rejected(self, monkeypatch):
        # walks=10 and 1000 rounds: a NaN walk that is never absorbed fails fast
        monkeypatch.setattr(potential, "MAX_WOS_ROUNDS", 1000)
        with pytest.raises(ValueError, match="inside the domain"):
            harmonic_measure(complex(math.nan, 0), CircleContour(0j, 0.1), Disk(0j, 1.0),
                             walks=10)

    @pytest.mark.parametrize("target", [DiskUnion([Disk(0j, 0.1)])], ids=["disk-union"])
    def test_target_must_be_a_circle(self, target):
        with pytest.raises(TypeError, match="CircleContour"):
            harmonic_measure(0.4 + 0j, target, Disk(0j, 1.0), walks=10, seed=0)

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
        assert abs(est.value - oracle) < 3.0 * est.std_error

    def test_obstacles_only_decrease(self):
        base = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                                walks=40000, seed=5)
        obst = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                                DiskUnion([Disk(0.25 + 0j, 0.05)]),
                                walks=40000, seed=5)
        tol = 3.0 * (base.std_error + obst.std_error)
        assert obst.value <= base.value + tol

    def test_grid_backend_agrees_with_wos(self, monkeypatch):
        wos = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                               walks=100000, seed=7)
        grid = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                                method="grid")
        assert grid.method == "GRID"
        assert abs(grid.value - wos.value) < 0.01
        # a target off the center, beside an obstacle
        monkeypatch.setattr(potential, "GRID_N", 161)
        args = (0.6j, CircleContour(0.3 + 0j, 0.1), Disk(0j, 1.0), DiskUnion([Disk(0.3j, 0.1)]))
        wos = harmonic_measure(*args, walks=40000, seed=2)
        grid = harmonic_measure(*args, method="grid")
        assert abs(grid.value - wos.value) < 0.01

    @pytest.mark.parametrize("r_in", [1e-5, 1e-300])
    def test_grid_refuses_target_below_step(self, r_in):
        with pytest.raises(PolarhullError, match="grid step"):
            harmonic_measure(0.5 + 0j, CircleContour(0j, r_in), Disk(0j, 1.0), method="grid")

    def test_grid_takes_target_above_step(self):
        est = harmonic_measure(0.5 + 0j, CircleContour(0j, 1e-2), Disk(0j, 1.0), method="grid")
        assert abs(est.value - math.log(2.0) / math.log(100.0)) < 0.01

    def test_grid_step_follows_grid_n(self, monkeypatch):
        # r = 1e-2 clears the step 2/320 of the default grid, not the step 2/100
        monkeypatch.setattr(potential, "GRID_N", 101)
        with pytest.raises(PolarhullError, match="grid step"):
            harmonic_measure(0.5 + 0j, CircleContour(0j, 1e-2), Disk(0j, 1.0), method="grid")

    def test_grid_takes_obstacle_below_step(self):
        kw = dict(method="grid")
        free = harmonic_measure(0.5 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0), **kw)
        dot = harmonic_measure(0.5 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                               DiskUnion([Disk(-0.5 + 0j, 1e-5)]), **kw)
        assert dot.value <= free.value

    def test_empty_obstacles_match_default(self):
        kw = dict(walks=2000, seed=4)
        a = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0), **kw)
        b = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0),
                             DiskUnion([]), **kw)
        assert (a.value, a.std_error) == (b.value, b.std_error)

    def test_grid_reports_sweeps_and_residual(self, monkeypatch):
        monkeypatch.setattr(potential, "GRID_N", 161)
        est = harmonic_measure(0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0), method="grid")
        assert est.iterations == 423
        assert est.residual < 1e-8

    def test_wos_reports_step_rounds(self, monkeypatch):
        args = (0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0))
        est = harmonic_measure(*args, walks=2000, seed=3)
        assert est.iterations > 0 and est.residual is None
        for rounds in (est.iterations + 1, est.iterations):
            monkeypatch.setattr(potential, "MAX_WOS_ROUNDS", rounds)
            assert harmonic_measure(*args, walks=2000, seed=3) == est
        monkeypatch.setattr(potential, "MAX_WOS_ROUNDS", est.iterations - 1)
        with pytest.raises(PolarhullError, match="step budget"):
            harmonic_measure(*args, walks=2000, seed=3)

    def test_boundary_target_with_thin_obstacles(self, gauss40):
        cover = sublevel_cover(gauss40, 1.0)
        r = 0.05
        inner = [d for d in cover if abs(d.center) + d.radius < r]
        for zk in (r / 4.0, r / 8.0):
            est = harmonic_measure(zk + 0j, CircleContour(0j, r), Disk(0j, r),
                                   DiskUnion(inner), walks=20000, seed=11)
            assert est.value >= 0.5 - 3.0 * est.std_error


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
    """Disk-by-disk Wiener sums: (annuli, lower sums, upper sums, verdict, bound_used).

    The lower sums decide only for a cover that is not outer, the upper sums
    only for one that is not inner.
    """
    point = complex(point)
    side = cover.side
    cover = tuple(cover)
    contains = any(abs(d.center - point) < d.radius for d in cover)
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
                up += -1.0 / math.log(min(d.radius, outer, 0.5))
        if cap_lo > 0.0:
            low_terms[n - 1] = -n / math.log(min(cap_lo, 0.5))
        up_terms[n - 1] = n * up
        annuli.append((n, inner, outer, cap_lo))
    s_low, s_up = np.cumsum(low_terms), np.cumsum(up_terms)
    tail = min(10, depth)
    non_thin = bool(np.all(s_low[-tail:] >= slope * np.arange(depth - tail + 1, depth + 1)))
    thin = bool(np.sum(up_terms[-min(5, depth):]) < tolerance)
    if non_thin and not thin and side in ("inner", "exact"):
        verdict, used = "NON_THIN", "lower"
    elif thin and not non_thin and side in ("outer", "exact") and not contains:
        verdict, used = "THIN", "upper"
    else:
        verdict, used = "INCONCLUSIVE", "none"
    return tuple(annuli), s_low, s_up, verdict, used


def _wiener_scatter_oracle(cover, point, depth):
    """One cover's Wiener report from its own scatter pass, as before covers shared one.

    Its THIN needs no more than the sums and the side: a disk that strictly
    contains `point` does not block it.
    """
    point = complex(point)
    r, dist = cover.radii, np.abs(cover.centers - point)
    near, far = dist - r, dist + r
    m_far, e_far = np.frexp(far)
    lo = np.maximum(np.where(m_far > 0.5, -e_far, 1 - e_far), 1)
    hi = np.minimum(np.where(near > 0.0, -np.frexp(near)[1], depth), depth)
    counts = np.maximum(hi - lo + 1, 0)
    i = np.repeat(np.arange(len(r)), counts)
    n = np.arange(len(i)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    edges = np.ldexp(1.0, -np.arange(1, depth + 2))
    near, far, r, inner, outer = near[i], far[i], r[i], edges[n], edges[n - 1]
    whole = (near >= inner) & (far <= outer)
    seg = np.maximum(np.minimum(outer, far) - np.maximum(inner, near), 0.0) / 4.0
    cap_lo = np.zeros(depth)
    np.maximum.at(cap_lo, n - 1, np.where(whole, r, seg))
    ns = np.arange(1, depth + 1)
    up_terms = ns * np.bincount(n - 1, -1.0 / np.log(np.minimum(r, outer)), depth)
    with np.errstate(divide="ignore"):
        low_terms = -ns / np.log(np.minimum(cap_lo, 0.5))
    annuli = tuple(zip(ns.tolist(), edges[1:].tolist(), edges[:-1].tolist(), cap_lo.tolist()))
    s_low, s_up = np.cumsum(low_terms), np.cumsum(up_terms)
    non_thin = bool(np.all(s_low[-10:] >= potential.WIENER_SLOPE * ns[-10:]))
    thin = bool(np.sum(up_terms[-5:]) < potential.WIENER_TOLERANCE)
    if non_thin and not thin and cover.side != "outer":
        verdict, used, sums = "NON_THIN", "lower", s_low
    elif thin and not non_thin and cover.side != "inner":
        verdict, used, sums = "THIN", "upper", s_up
    else:
        verdict, used, sums = "INCONCLUSIVE", "none", s_up
    return potential.WienerReport(
        point=point, annuli=annuli, partial_sums=sums, verdict=verdict,
        depth=depth, bound_used=used, partial_sums_lower=s_low, partial_sums_upper=s_up,
        cover_disks=len(cover), cover_side=cover.side,
    )


def _check_against_scatter_oracle(rep, cover, point, depth):
    """`rep` is `_wiener_scatter_oracle`'s report bitwise, with THIN refused over a disk."""
    want = _wiener_scatter_oracle(cover, point, depth)
    assert rep.annuli == want.annuli
    for name in ("partial_sums", "partial_sums_lower", "partial_sums_upper"):
        assert getattr(rep, name).tobytes() == getattr(want, name).tobytes(), name
    assert (rep.point, rep.depth, rep.cover_disks, rep.cover_side) == (
        want.point, want.depth, want.cover_disks, want.cover_side)
    if np.any(np.abs(cover.centers - complex(point)) < cover.radii):
        verdict = "INCONCLUSIVE" if want.verdict == "THIN" else want.verdict
        used = "none" if want.verdict == "THIN" else want.bound_used
        assert (rep.verdict, rep.bound_used) == (verdict, used)
    else:
        assert (rep.verdict, rep.bound_used) == (want.verdict, want.bound_used)


def _recip_sin_ns(cutoff, max_depth=60):
    """The n of the poles +-1/n in a 1/sin(pi/z) cover: n <= cutoff, then
    n = 3 * 2^(j-1) in each annulus j about 0 where that n > cutoff."""
    deep = [3 * 2 ** (j - 1) for j in range(1, max_depth + 1)]
    return list(range(1, cutoff + 1)) + [n for n in deep if n > cutoff]


def _recip_sin_cover_oracle(big_r, cutoff):
    """Pole-by-pole 1/sin(pi/z) cover, +1/n ascending, then -1/n."""
    rho = math.asinh(1.0 / big_r) / math.pi / 2.0
    disks = []
    for sign in (1, -1):
        for n in _recip_sin_ns(cutoff):
            denom = n * n - rho * rho
            disks.append(Disk(complex(sign * n / denom), rho / denom))
    return disks


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
        # an outer disk over the point, and inner disks that look thin
        ("geometric-40@0/R=2", sublevel_cover(PoleSeries.geometric(40), 2.0), 0j, 40),
        ("recip-sin-pi@0.5/R=e30", sublevel_cover(sin, e**30), 0.5 + 0j, 40),
        ("subnormal-disk", DiskUnion([Disk(0.75 * 2.0**-10, 1e-310)]), 0j, 12),
        # the ends of each disk's annulus range n = lo..hi
        ("empty-cover", PoleSeries([0.5], [0.0]).cover(1.0), 0j, 40),
        ("tangent-at-point", DiskUnion([Disk(0.25 + 0j, 0.25)]), 0j, 20),
        ("contains-point@max-depth", DiskUnion([Disk(0.1 + 0.1j, 0.3)]), 0j, potential.MAX_DEPTH),
        ("depth-1", DiskUnion([Disk(0.375 + 0j, 0.125), Disk(0.1 + 0j, 0.05)]), 0j, 1),
        ("below-last-annulus", DiskUnion([Disk(2.0**-15, 2.0**-17)]), 0j, 12),
        ("far-on-last-outer-edge", DiskUnion([Disk(0.75 * 2.0**-12, 2.0**-14)]), 0j, 12),
        ("far-beyond-1", DiskUnion([Disk(0.9 + 0j, 0.6), Disk(-3.0 + 0j, 2.5)]), 0j, 8),
        # outer disks about the poles, each too small to reach annulus 40 about its own
        ("gaussian-40@1/2/R=1e14", sublevel_cover(PoleSeries.gaussian(40), 1e14), 0.5 + 0j, 40),
        ("gaussian-40@1/3/R=1e60", sublevel_cover(PoleSeries.gaussian(40), 1e60),
         1.0 / 3.0 + 0j, 60),
    ]
    covers = {big_r: sublevel_cover(sin, big_r) for big_r in (e, e**2, e**4)}
    for z0 in (0j, 0.5 + 0j, -0.5 + 0j):
        for big_r, cover in covers.items():
            cases.append((f"recip-sin-pi@{z0.real}/R={big_r:.3g}", cover, z0, 30))
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

    @pytest.mark.parametrize("name,cover,z0,depth", ORACLE_CASES,
                             ids=[c[0] for c in ORACLE_CASES])
    def test_one_cover_stack_matches_scatter_oracle(self, name, cover, z0, depth):
        (rep,) = potential._wiener_sums((cover,), z0, depth)
        _check_against_scatter_oracle(rep, cover, z0, depth)
        assert wiener_test(cover, z0, depth).to_dict() == rep.to_dict()

    @pytest.mark.parametrize("names,depth", [
        (("far-disk", "gaussian-40@0", "recip-sin-pi@0.0/R=2.72", "exp-reciprocal"), 40),
        (("empty-cover", "far-disk", "empty-cover", "truncated-chain", "empty-cover"), 40),
        (("contains-point@max-depth", "geometric-40@0/R=2", "subnormal-disk"), 60),
        (("depth-1", "tangent-at-point", "far-beyond-1", "empty-cover"), 1),
        (("below-last-annulus", "far-on-last-outer-edge", "subnormal-disk"), 12),
        (tuple(c[0] for c in ORACLE_CASES if c[2] == 0j), 40),
    ], ids=["sides", "empty-covers", "contains-point@max-depth", "depth-1",
            "below-last-annulus", "every-cover-at-0"])
    def test_mixed_stack_matches_scatter_oracle(self, names, depth):
        covers = {c[0]: c[1] for c in ORACLE_CASES}
        stack = tuple(covers[name] for name in names)
        reports = potential._wiener_sums(stack, 0j, depth)
        assert len(reports) == len(stack)
        for rep, cover in zip(reports, stack):
            _check_against_scatter_oracle(rep, cover, 0j, depth)

    def test_fiber_table_matches_scatter_oracle(self):
        fibers = _fiber_table()
        assert len(fibers) == 21
        for f, z0, r_grid, depth in fibers:
            entry = classify_fiber(f, z0, r_grid, depth=depth)
            assert len(entry.wiener_reports) == len(r_grid)
            for big_r, rep in zip(r_grid, entry.wiener_reports):
                _check_against_scatter_oracle(rep, sublevel_cover(f, big_r), z0, depth)

    def test_a_fiber_without_covers_has_no_report(self):
        entry = classify_fiber(RecipSinPi(), 0.5, [0.5, 0.75, 1.0])
        assert (entry.classification, entry.wiener_reports) == ("UNKNOWN", ())
        assert entry.notes.count("ThresholdTooSmall") == 3

    @pytest.mark.parametrize("cutoff", [1, 2, 8, 64, 100])
    @pytest.mark.parametrize("big_r", [math.e, math.e**2, math.e**4])
    def test_recip_sin_cover_matches_pole_loop(self, cutoff, big_r):
        cover = sublevel_cover(RecipSinPi(cutoff), big_r)
        disks = _recip_sin_cover_oracle(big_r, cutoff)
        assert np.array_equal(cover.centers, [d.center for d in disks])
        assert np.array_equal(cover.radii, [d.radius for d in disks])

    def test_recip_sin_cover_fills_every_annulus(self):
        for big_r in (math.e, math.e**2, math.e**4, math.e**30):
            cover = sublevel_cover(RecipSinPi(), big_r)
            dist = np.abs(cover.centers)
            for j in range(1, potential.MAX_DEPTH + 1):
                inside = (dist - cover.radii >= 2.0 ** (-j - 1)) & (dist + cover.radii <= 2.0**-j)
                assert inside.any(), (big_r, j)
        # at +-1/2 the cover keeps the pole's own disk, which contains the pole
        own = sublevel_cover(RecipSinPi(), math.e)
        assert np.count_nonzero(np.abs(own.centers - 0.5) < own.radii) == 1

    @pytest.mark.parametrize("big_r", [math.e, math.e**4, math.e**30])
    def test_recip_sin_float_disks_sit_in_the_annuli_of_exact_ones(self, big_r):
        # a rounded centre can leave the certified disk, but in each annulus
        # about 0 a float disk meets and lies wholly inside where its exact
        # Moebius disk does; the flags are computed as wiener_test computes them
        f = RecipSinPi()
        cover = sublevel_cover(f, big_r)
        rho = Fraction(math.asinh(1.0 / big_r) / math.pi / 2.0)
        ns = _recip_sin_ns(f.pole_cutoff)
        exact = [(n / (n * n - rho * rho), rho / (n * n - rho * rho)) for n in ns] * 2
        dist = np.abs(cover.centers)
        near, far = dist - cover.radii, dist + cover.radii
        for j in range(1, potential.MAX_DEPTH + 1):
            inner, outer = Fraction(1, 2 ** (j + 1)), Fraction(1, 2**j)
            meets = [c - r < outer and c + r > inner for c, r in exact]
            whole = [c - r >= inner and c + r <= outer for c, r in exact]
            assert list((near < float(outer)) & (far > float(inner))) == meets, j
            assert list((near >= float(inner)) & (far <= float(outer))) == whole, j

    @pytest.mark.parametrize("big_r", [math.e, math.e**2, math.e**4])
    def test_deep_representatives_certify_the_level(self, big_r):
        # on annuli 12..16, pi/z < 1e6 carries an error near 1e-10, far inside
        # the 2x margin, so float values of f there are evidence; once pi/z
        # passes ~1e15, one ulp of z moves it by more than 1, and only the
        # Moebius certificate proves |f| >= R
        cover = sublevel_cover(RecipSinPi(), big_r)
        rot = np.exp(2j * np.pi * np.arange(64) / 64)
        for j in range(12, 17):
            for pole in np.array([1.0, -1.0]) / (3 * 2 ** (j - 1)):
                (i,) = np.flatnonzero(np.abs(cover.centers - pole) < 1e-3 * abs(pole))
                ring = cover.centers[i] + cover.radii[i] * rot
                assert np.all(np.abs(RecipSinPi()(ring)) >= big_r)

    @pytest.mark.parametrize("n_terms", [40, 1000])
    @pytest.mark.parametrize("big_r", [1.0, 2.0])
    def test_pole_series_cover_matches_scalar_gamma(self, n_terms, big_r):
        f = PoleSeries.gaussian(n_terms)
        cover = sublevel_cover(f, big_r)
        assert np.array_equal(cover.centers, f.poles)
        np.testing.assert_allclose(cover.radii, _pole_series_radii_oracle(f, big_r),
                                   rtol=1e-15, atol=0)

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


# ------------------------------------------- covers rebuilt per call, as oracles

def _recip_sin_cover_per_call(f, big_r):
    """RecipSinPi.cover with its poles and their squares built anew on every call."""
    if big_r <= 1.0:
        raise ThresholdTooSmall(f"1/sin(pi/z) cover needs 1 < big_r < inf, got {big_r!r}")
    rho = math.asinh(1.0 / big_r) / math.pi / 2.0
    deep = 3.0 * 2.0 ** np.arange(potential.MAX_DEPTH)
    n = np.concatenate([np.arange(1, f.pole_cutoff + 1), deep[deep > f.pole_cutoff]])
    n, sign = np.tile(n, 2), np.repeat([1.0, -1.0], len(n))
    denom = n * n - rho * rho
    if not rho / denom[-1] > 0.0:
        raise ThresholdTooSmall(f"1/sin(pi/z) cover underflows at big_r={big_r!r}")
    return DiskUnion.from_arrays(sign * n / denom, rho / denom, side="inner")


def _pole_series_cover_per_call(f, big_r):
    """PoleSeries.cover with the live mask, log gamma and certificate sum built anew."""
    live = f.log_abs_c > -math.inf
    if not live.any():
        return DiskUnion.from_arrays([], [], side="outer")
    log_gamma = np.logaddexp.accumulate(f.log_abs_c[::-1])[::-1]
    if f.log_gamma_tail is not None:
        log_gamma = np.logaddexp(log_gamma, float(f.log_gamma_tail(f.n_terms + 1)))
    log_gamma = log_gamma[live]
    terms = np.exp(f.log_abs_c[live] - 0.5 * log_gamma)
    needed = float(np.sum(terms)) / big_r
    if not 0 < needed < math.inf:
        raise ThresholdTooSmall(f"no cover certificate at big_r={big_r!r}")
    c_factor = 2.0 ** math.ceil(math.log2(needed)) if needed <= 2.0**1023 else math.inf
    with np.errstate(over="ignore"):
        radii = np.maximum(np.exp(math.log(c_factor) + 0.5 * log_gamma), MIN_DISK_RADIUS)
    if not np.isfinite(radii).all():
        raise ThresholdTooSmall(f"cover radii overflow at big_r={big_r!r}")
    return DiskUnion.from_arrays(f.poles[live], radii, side="outer")


def _sublevel_cover_per_call(f, big_r):
    """`sublevel_cover` with the pole-series and 1/sin(pi/z) covers rebuilt per call."""
    per_call = {PoleSeries: _pole_series_cover_per_call, RecipSinPi: _recip_sin_cover_per_call}
    if type(f) not in per_call or not 0 < big_r < math.inf:
        return sublevel_cover(f, big_r)
    return per_call[type(f)](f, big_r)


def _cover_outcome(cover, f, big_r):
    """The cover's bytes and side, or the type and message of what it raised."""
    try:
        union = cover(f, big_r)
    except Exception as e:
        return type(e), str(e)
    return union.centers.tobytes(), union.radii.tobytes(), union.side


KEPT_COVER_LEVELS = (6e-309, 1e-308, 1e-10, 0.5, 1.0, 1.0 + 1e-12, 2.0, math.e, math.e**2,
                     math.e**4, math.e**30, 1e10, 1e100, 1e290, 1e300)


def _kept_cover_models():
    yield from (RecipSinPi(cutoff) for cutoff in (1, 8, 64, 400))
    for n_terms in (10, 40, 1000, 4000):
        yield PoleSeries.gaussian(n_terms)
        yield PoleSeries.geometric(n_terms)
    yield PoleSeries([0.5, 0.25, 0.125], [1.0, 0.0, 0.5])
    yield RationalModel([0.4, -0.2], [0.0, 0.0])


def _fiber_table():
    """The 21 fibers of the benchmark's fiber table: (model, z0, r_grid, depth)."""
    e, sin = math.e, RecipSinPi(64)
    fibers = [(ExpReciprocal(), 0j, (e, e**2, e**10), 40)]
    points = [0.0] + [s / n for s in (1.0, -1.0) for n in range(1, 9)]
    fibers += [(sin, complex(p), (e, e**2, e**4), 30) for p in points]
    fibers += [(PoleSeries.gaussian(n), 0j, (1.0, 2.0, 4.0), 40) for n in (40, 1000, 4000)]
    return fibers


class TestKeptCoverData:
    @pytest.mark.parametrize("f", list(_kept_cover_models()), ids=lambda f: f.label)
    def test_cover_matches_per_call_oracle(self, f):
        # one model across every level, so all but the first cover read kept data
        for big_r in KEPT_COVER_LEVELS:
            assert (_cover_outcome(sublevel_cover, f, big_r)
                    == _cover_outcome(_sublevel_cover_per_call, f, big_r)), big_r

    @pytest.mark.parametrize("f,big_r", [(PoleSeries.gaussian(10), 6e-309),
                                         (PoleSeries.geometric(10), 1e-308),
                                         (RationalModel([0.5], [1e300]), 1e-10)])
    def test_overflow_refusals_match_per_call_oracle(self, f, big_r):
        got = _cover_outcome(sublevel_cover, f, big_r)
        assert got[0] is ThresholdTooSmall
        assert got == _cover_outcome(_sublevel_cover_per_call, f, big_r)

    def test_fiber_table_matches_per_call_oracle(self):
        oracle = SimpleNamespace(sublevel_cover=_sublevel_cover_per_call)
        fibers = _fiber_table()
        assert len(fibers) == 21
        for f, z0, r_grid, depth in fibers:
            got = classify_fiber(f, z0, r_grid, depth=depth).to_dict()
            want = classify_fiber(f, z0, r_grid, depth=depth, potential=oracle).to_dict()
            assert json.dumps(got) == json.dumps(want), (f.label, z0)
            if isinstance(f, PoleSeries):
                assert f.limit(z0).value == complex(-np.sum(f.residues / f.poles))

    def test_recip_sin_cutoff_is_read_only(self):
        f = RecipSinPi(8)
        assert f.singular_sample() is f.singular_sample()
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.pole_cutoff = 16


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
    offset = (0.6j, CircleContour(0.3 + 0j, 0.1), Disk(0j, 1.0), DiskUnion([Disk(0.3j, 0.1)]))
    return [
        ("annulus-161", annulus, 161),
        ("thin-obstacles@r/4", (r / 4 + 0j, CircleContour(0j, r), Disk(0j, r), thin), 161),
        ("offset-target", offset, 161),
        ("annulus-100", annulus, 100),  # even: the four sub-lattices differ in shape
    ]


GRID_CASES = _grid_cases()


@pytest.mark.parametrize("name,args,grid_n", GRID_CASES, ids=[c[0] for c in GRID_CASES])
def test_grid_sweeps_match_masked_oracle(monkeypatch, name, args, grid_n):
    monkeypatch.setattr(potential, "GRID_N", grid_n)
    fast = harmonic_measure(*args, method="grid")
    monkeypatch.setattr(potential, "_sor", _masked_sor_oracle)
    slow = harmonic_measure(*args, method="grid")
    # bitwise: value, free-node count, sweep count and final residual
    assert fast == slow


def _sor_problem(n):
    """An n x n grid on the unit disk: 1 on an off-centre target, 0 on one obstacle and outside."""
    ax = np.linspace(-1.0, 1.0, n)
    Z = ax[None, :] + 1j * ax[:, None]
    target, obstacle = np.abs(Z - (0.3 + 0.2j)) <= 0.3, np.abs(Z + (0.2 + 0.5j)) <= 0.2
    u = np.where(target, 1.0, 0.0)
    free = np.zeros((n, n), dtype=bool)
    free[1:-1, 1:-1] = ~((np.abs(Z) >= 1.0) | target | obstacle)[1:-1, 1:-1]
    return u, free, 2.0 / (1.0 + math.sin(math.pi / (n - 1)))


@pytest.mark.parametrize("tol", [10.0 ** -e for e in range(2, 13)])
@pytest.mark.parametrize("n", [21, 40, 41])
def test_sor_stop_test_matches_oracle_at_every_tolerance(n, tol):
    u, free, omega = _sor_problem(n)
    fast, slow = u.copy(), u.copy()
    sweeps, residual = potential._sor(fast, free, omega, tol)
    assert (sweeps, residual) == _masked_sor_oracle(slow, free, omega, tol)
    assert fast.tobytes() == slow.tobytes()


@pytest.mark.parametrize("n", [21, 40, 41])
def test_sor_stop_test_is_strict_at_a_tie(n):
    """With only red nodes free the residual is the red one, and each sweep's
    steps share one sign, alternating from sweep to sweep.  A tolerance t
    above the reached residual R with fl(t * omega) == fl(R * omega) is a tie:
    max |step| = fl(t * omega) does not prove a residual above t.  omega = 1.2
    is not dyadic, so such ties occur, on both signs, within few sweeps."""
    u, free, _ = _sor_problem(n)
    ii, jj = np.indices(free.shape)
    free &= (ii + jj) % 2 == 0
    omega, ties = 1.2, 0
    for tol in np.geomspace(1e-2, 1e-12, 16):
        tie = residual = _masked_sor_oracle(u.copy(), free, omega, tol)[1]
        while np.nextafter(tie, 1.0) * omega == residual * omega:
            tie = np.nextafter(tie, 1.0)
        ties += tie > residual
        fast, slow = u.copy(), u.copy()
        assert potential._sor(fast, free, omega, tie) == _masked_sor_oracle(slow, free, omega, tie)
        assert fast.tobytes() == slow.tobytes()
    assert ties


def _wos_block_oracle(z, target, domain, obstacles, walks, seed):
    """Walk-on-spheres with the whole (live walks x surfaces) distance block per round."""
    eps = 1e-4 * domain.radius
    same = abs(domain.center - target.center) < 1e-12 and abs(domain.radius - target.radius) < 1e-12
    n_dom = 0 if same else 1
    centers = np.concatenate([[target.center], np.full(n_dom, domain.center), obstacles.centers])
    radii = np.concatenate([[target.radius], np.full(n_dom, domain.radius), obstacles.radii])
    scores = np.repeat([1.0, 0.0], [1, n_dom + len(obstacles)])
    rng = np.random.default_rng(seed)
    result = np.zeros(walks)
    idx = np.arange(walks)
    pos = np.full(walks, complex(z), dtype=complex)
    rounds = 0
    while idx.size:
        rounds += 1
        dist = np.abs(np.abs(pos[:, None] - centers) - radii)
        nearest = np.argmin(dist, axis=1)
        dmin = dist[np.arange(len(idx)), nearest]
        hit = dmin < eps
        result[idx[hit]] = scores[nearest[hit]]
        move = ~hit
        idx, pos, dmin = idx[move], pos[move], dmin[move]
        theta = rng.uniform(0.0, 2.0 * np.pi, size=len(idx))
        pos = pos + dmin * np.exp(1j * theta)
    value = min(max(float(np.mean(result)), 0.0), 1.0)
    return value, float(np.std(result, ddof=1) / math.sqrt(walks)), rounds


def _wos_cases():
    r = 0.05

    def inside(f):
        return DiskUnion([d for d in sublevel_cover(f, 1.0) if abs(d.center) + d.radius < r])

    ball = (CircleContour(0j, r), Disk(0j, r))
    return [
        ("annulus", (0.4 + 0j, CircleContour(0j, 0.1), Disk(0j, 1.0), DiskUnion([]))),
        ("thin-obstacles@r/4", (r / 4 + 0j, *ball, inside(PoleSeries.gaussian(40)))),
        ("dense-obstacles", (0.0123 + 0j, *ball, inside(PoleSeries.gaussian(100)))),
    ]


WOS_CASES = _wos_cases()


@pytest.mark.parametrize("name,args", WOS_CASES, ids=[c[0] for c in WOS_CASES])
def test_wos_matches_block_oracle(name, args):
    est = harmonic_measure(*args, walks=2000, seed=5)
    assert (est.value, est.std_error, est.iterations) == _wos_block_oracle(*args, 2000, 5)


def test_wos_tie_at_absorption_goes_to_target():
    # the start is exactly 2**-17 from the target circle and from the obstacle's
    # circle, inside the 1e-4 shell: every walk is absorbed in round 1 on a tie
    args = (0.5 + 2**-17, CircleContour(0j, 0.5), Disk(0j, 1.0),
            DiskUnion([Disk(0.5 + 2**-15, 2**-16)]))
    est = harmonic_measure(*args, walks=50, seed=3)
    assert (est.value, est.iterations) == (1.0, 1)
    assert (est.value, est.std_error, est.iterations) == _wos_block_oracle(*args, 50, 3)


def test_wos_peak_memory_on_dense_obstacles():
    # the one-block walker peaked at 51 MiB on this case
    tracemalloc.start()
    try:
        harmonic_measure(*WOS_CASES[2][1], walks=20000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
