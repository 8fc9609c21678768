import math
from types import SimpleNamespace

import numpy as np
import pytest

from polarhull import potential
from polarhull.core import ZERO_POLY, CompactSample, Disk, DiskUnion
from polarhull.models import (
    ExpReciprocal,
    OriginValue,
    PoleSeries,
    RationalModel,
    RecipSinPi,
    TailUncertifiable,
)
from polarhull.hull import (
    ProbeEqualsValue,
    classify_fiber,
    series_conditions,
    vn_upper_bound,
)

# independent direct-sum oracle for the origin value of the gaussian family
ORIGIN_ORACLE = -sum(math.exp(-n * n) / n for n in range(1, 9))


class _RemovableAtOrigin:
    """1/(z - 2) with a removable singular point at 0, as a model of its own.

    Its sample holds only the pole; 0 is a singular point through `limit`.
    """

    label = "removable-at-origin"

    def __call__(self, z):
        return 1.0 / (np.asarray(z, dtype=complex) - 2.0)

    def singular_sample(self):
        return CompactSample([2.0])

    def split_at_infinity(self):
        return ZERO_POLY, self

    def cover(self, big_r):
        # |f| >= R is the closed disk |z - 2| <= 1/R
        return DiskUnion.from_arrays([2.0], [1.5 / big_r], side="outer")

    def limit(self, z0):
        return OriginValue(-0.5, 2.0**-60) if z0 == 0 else None


class TestSeriesConditions:
    def test_needs_a_pole_series(self):
        with pytest.raises(TypeError, match="series_conditions expects a PoleSeries model"):
            series_conditions(ExpReciprocal())

    def test_gaussian_family_holds(self):
        rep = series_conditions(PoleSeries.gaussian(20000))
        assert rep.verdict_summability == "HOLDS"
        assert rep.verdict_ratio == "HOLDS"
        # sum log n / n^2-type series: compare against the direct oracle
        oracle = sum(math.log(n) / (n * n + 2 * math.log(n)) for n in range(2, 20001))
        assert rep.summability_sums[-1] == pytest.approx(oracle, rel=1e-2)

    def test_geometric_family_fails(self):
        rep = series_conditions(PoleSeries.geometric(20000))
        assert rep.verdict_summability == "FAILS"

    def test_summability_implies_ratio(self):
        for model in (PoleSeries.gaussian(20000), PoleSeries.gaussian(1000)):
            rep = series_conditions(model)
            if rep.verdict_summability == "HOLDS":
                assert rep.verdict_ratio == "HOLDS"

    def test_short_truncation_inconclusive(self):
        rep = series_conditions(PoleSeries.gaussian(5))
        assert rep.verdict_ratio == "INCONCLUSIVE"
        assert rep.verdict_summability == "INCONCLUSIVE"

    def test_opaque_series_uncertifiable(self):
        f = PoleSeries(1.0 / np.arange(1, 41), np.exp(-np.arange(1, 41)))
        with pytest.raises(TailUncertifiable):
            series_conditions(f)

    def test_log_gamma_strictly_decreasing(self):
        rep = series_conditions(PoleSeries.gaussian(100))
        assert np.all(np.diff(rep.log_gamma) < 0)


class TestOriginValue:
    def test_gaussian_origin(self, gauss40):
        val = gauss40.limit(0j)
        assert abs(val.value - ORIGIN_ORACLE) < 1e-15
        assert val.error_bound < 1e-17

    def test_single_pole(self):
        f = PoleSeries([1.0], [1.0], log_gamma_tail=lambda n: -np.inf, ca_tail=0.0)
        assert f.limit(0j).value == -1.0

    def test_zero_coefficients(self):
        f = PoleSeries([1.0, 0.5], [0.0, 0.0], log_gamma_tail=lambda n: -np.inf,
                       ca_tail=0.0)
        assert f.limit(0j).value == 0.0

    @pytest.mark.parametrize("f, z0", [
        (PoleSeries.gaussian(40), 0.5 + 0j),  # a pole, not the accumulation point
        (PoleSeries.gaussian(40), 1e-10 + 0j),  # near 0, but farther than SAMPLE_TOL
        (PoleSeries(1.0 / np.arange(1, 21), np.exp(-np.arange(1.0, 21.0) ** 2)), 0j),
    ], ids=["pole", "near-origin", "untailed-series"])
    def test_no_limit_elsewhere(self, f, z0):
        assert f.limit(z0) is None


class TestClassify:
    def test_exp_reciprocal_empty_fiber(self):
        entry = classify_fiber(ExpReciprocal(), 0j, [math.e, math.e**2, math.e**10])
        assert entry.classification == "FIBER_EMPTY"
        assert all(r.verdict == "NON_THIN" for r in entry.wiener_reports)

    @pytest.mark.parametrize("z0", [0j, 0.2 + 0j, -1.0 / 3.0 + 0j])
    def test_recip_sin_empty_fibers(self, z0):
        entry = classify_fiber(RecipSinPi(), z0, [math.e, math.e**2, math.e**4],
                               depth=30)
        assert entry.classification == "FIBER_EMPTY"

    def test_recip_sin_every_sampled_fiber_empty(self):
        # the cover holds every pole the model samples, so each fiber over
        # the 129 sample points is decided, not only those over 0 and +-1/n, n <= 8
        f = RecipSinPi()
        points = f.singular_sample().points
        found = {classify_fiber(f, z0, [math.e, math.e**2, math.e**4], depth=30).classification
                 for z0 in points}
        assert (len(points), found) == (129, {"FIBER_EMPTY"})

    def test_recip_sin_origin_reads_all_sixty_annuli(self):
        entry = classify_fiber(RecipSinPi(), 0j, [math.e, math.e**2, math.e**4], depth=60)
        assert entry.classification == "FIBER_EMPTY"
        assert [r.depth for r in entry.wiener_reports] == [60, 60, 60]
        assert entry.notes == ""

    def test_gaussian_hull_point(self, gauss40):
        entry = classify_fiber(gauss40, 0j, [1.0, 2.0, 4.0])
        assert entry.classification == "HULL_POINT"
        assert abs(entry.w0 - ORIGIN_ORACLE) < 1e-12
        assert abs(entry.w0) <= entry.radius_bound

    def test_grid_needs_three_levels(self, gauss40):
        with pytest.raises(ValueError):
            classify_fiber(gauss40, 0j, [1.0, 2.0])

    @pytest.mark.parametrize("r_grid", [[1.0, 1.0, 2.0], [2.0, 1.0, 2.0, 4.0]])
    def test_repeated_levels_rejected(self, gauss40, r_grid):
        # a repeated level would only run the same test twice
        with pytest.raises(ValueError, match="3 distinct values"):
            classify_fiber(gauss40, 0j, r_grid)

    @pytest.mark.parametrize("depth", [0, 61])
    def test_depth_out_of_range_rejected(self, gauss40, depth):
        # checked before any cover is built, so no verdict carries it as a note
        untouched = SimpleNamespace(sublevel_cover=lambda *a, **k: pytest.fail("cover built"))
        with pytest.raises(ValueError, match=r"depth must be in \[1, 60\]"):
            classify_fiber(gauss40, 0j, [1.0, 2.0, 4.0], depth=depth, potential=untouched)

    @pytest.mark.parametrize("depth", [40.0, 20.5, "40"])
    def test_depth_must_be_an_integer(self, gauss40, depth):
        untouched = SimpleNamespace(sublevel_cover=lambda *a, **k: pytest.fail("cover built"))
        with pytest.raises(TypeError, match="integer"):
            classify_fiber(gauss40, 0j, [1.0, 2.0, 4.0], depth=depth, potential=untouched)

    def test_numpy_integer_depth_is_a_python_int(self, gauss40):
        entry = classify_fiber(gauss40, 0j, [1.0, 2.0, 4.0], depth=np.int64(30))
        assert all(type(r.depth) is int and r.depth == 30 for r in entry.wiener_reports)

    # 1e-10 is near the origin, but farther than SAMPLE_TOL from it
    @pytest.mark.parametrize("z0", [0.123 + 0.4j, 1e-10])
    def test_point_must_be_singular(self, gauss40, z0):
        with pytest.raises(ValueError, match="singular"):
            classify_fiber(gauss40, z0, [1.0, 2.0, 4.0])

    def test_point_within_sample_tol_counts_as_origin(self, gauss40):
        # 1e-13 lies within SAMPLE_TOL of the origin, so it is the origin
        entry = classify_fiber(gauss40, 1e-13, [1.0, 2.0, 4.0])
        assert entry.classification == "HULL_POINT"
        assert abs(entry.w0 - ORIGIN_ORACLE) < 1e-12

    def test_non_finite_point_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            classify_fiber(ExpReciprocal(), complex(math.nan, 0), [math.e, math.e**2, math.e**10])

    def test_recip_sin_cover_underflow_is_unknown(self):
        # at R = 1e300 the deepest Moebius radius rounds to 0: that level has no
        # cover, so it is a note, not an uncaught ValueError from DiskUnion
        entry = classify_fiber(RecipSinPi(), 0.5, [2.0, 4.0, 1e300])
        assert entry.classification == "UNKNOWN"
        assert "R=1e+300: ThresholdTooSmall" in entry.notes
        assert len(entry.wiener_reports) == 2

    def test_pole_series_cover_overflow_is_unknown(self):
        # at R = 6e-309 the certificate needs C > 2^1023: no float cover, a note
        entry = classify_fiber(PoleSeries.gaussian(10), 0.0, [6e-309, 1.0, 2.0])
        assert entry.classification == "UNKNOWN"
        assert "R=6e-309: ThresholdTooSmall" in entry.notes
        assert len(entry.wiener_reports) == 2

    def test_model_brings_its_own_cover_and_limit(self):
        # the hull machinery reads a model only through its protocol
        entry = classify_fiber(_RemovableAtOrigin(), 0j, [1.0, 2.0, 4.0])
        assert entry.classification == "HULL_POINT"
        assert (entry.w0, entry.w0_error, entry.radius_bound) == (-0.5, 2.0**-60, 1.0)
        assert [r.cover_side for r in entry.wiener_reports] == ["outer"] * 3

    def test_limit_beyond_thin_bound_unknown(self):
        # no PoleSeries reaches this guard: a THIN level needs every disk off 0,
        # so sum |c_n/a_n| < sum |c_n|/r_n <= R
        class LargeLimit(_RemovableAtOrigin):
            def limit(self, z0):
                return OriginValue(10.0, 2.0**-60) if z0 == 0 else None

        entry = classify_fiber(LargeLimit(), 0j, [1.0, 2.0, 4.0])
        assert [r.verdict for r in entry.wiener_reports] == ["THIN"] * 3
        assert (entry.classification, entry.w0, entry.radius_bound) == ("UNKNOWN", None, None)
        assert entry.notes == "limit value exceeds thin-level radius bound"

    def test_thin_without_limit_locates_no_point(self):
        # the empty cover of an all-zero pole sum is THIN at every level
        entry = classify_fiber(RationalModel([0.4, -0.2], [0.0, 0.0]), 0.4, [1, 2, 4])
        assert (entry.classification, entry.w0, entry.radius_bound) == ("HULL_POINT", None, 1.0)
        assert entry.notes == "no limit value at z0 locates the hull point"

    def test_rational_pole_inside_its_outer_disk_unknown(self):
        # the outer disk about the pole contains the query point, so no
        # level proves THIN, and an outer cover never proves NON_THIN
        entry = classify_fiber(RationalModel([0.5], [1.0]), 0.5, [1.0, 2.0, 4.0])
        assert entry.classification == "UNKNOWN"
        assert entry.notes == "incomplete or inconclusive evidence"

    @pytest.mark.parametrize("f", [
        PoleSeries(1.0 / np.arange(1, 21), np.exp(-np.arange(1.0, 21.0) ** 2)),
        RationalModel([0.3, 0.5], [1.0, 2.0]),
    ], ids=["untailed-series", "rational"])
    def test_origin_needs_certified_tail(self, f):
        # without a certified tail the series models only its stored poles,
        # so 0 is no singular point and no origin value could be certified
        with pytest.raises(ValueError, match="singular"):
            classify_fiber(f, 0j, [1.0, 2.0, 4.0])

    def test_inner_cover_never_proves_thin(self):
        # at R = e^30 the pole's own inner disk reaches only 2^-48, so the
        # 40 annuli look empty; inner disks cannot show that the set is thin
        entry = classify_fiber(RecipSinPi(), 0.5, (math.e, math.e**2, math.e**30))
        assert entry.classification == "UNKNOWN"
        assert [r.verdict for r in entry.wiener_reports] == ["NON_THIN", "NON_THIN",
                                                             "INCONCLUSIVE"]

    def test_conflicting_evidence_stays_unknown(self, gauss40):
        # thin below a non-thin level is contradictory and must not be
        # silently resolved either way: an empty outer cover is THIN at R = 1,
        # the dense inner 1/sin(pi/z) cover NON_THIN at R = 2 and 4
        empty, dense = DiskUnion.from_arrays([], [], side="outer"), RecipSinPi().cover(math.e)
        stub = SimpleNamespace(sublevel_cover=lambda f, big_r: empty if big_r == 1.0 else dense)
        entry = classify_fiber(gauss40, 0j, [1.0, 2.0, 4.0], potential=stub)
        assert [r.verdict for r in entry.wiener_reports] == ["THIN", "NON_THIN", "NON_THIN"]
        assert entry.classification == "UNKNOWN"
        assert "conflicting" in entry.notes

    @pytest.mark.parametrize("f,z0,r_grid", [
        (ExpReciprocal(), 0j, [math.e, math.e**2, math.e**10]),
        (RecipSinPi(), 0.5, [2.0, 4.0, 1e300]),  # a level that raises leaves its note
        (PoleSeries.gaussian(40), 0j, [1.0, 2.0, 4.0]),
        (PoleSeries.gaussian(40), 0.5, [1e12, 1e13, 1e14]),
    ])
    def test_a_cover_only_namespace_classifies_like_the_default(self, f, z0, r_grid):
        hook = SimpleNamespace(sublevel_cover=potential.sublevel_cover)
        want = classify_fiber(f, z0, r_grid).to_dict()
        assert classify_fiber(f, z0, r_grid, potential=hook).to_dict() == want

    @pytest.mark.parametrize("n_terms,z0,r_grid,depth", [
        (40, 0.5, (1e12, 1e13, 1e14), 40),
        (40, 1.0 / 3.0, (1e12, 1e13, 1e14), 40),
        (10, 0.25, (1e12, 1e13, 1e14), 40),
        (1000, 1.0 / 1000.0, (1e12, 1e13, 1e14), 40),
        (40, 0.5, (1e20, 1e40, 1e60), 60),
    ])
    def test_a_pole_inside_its_own_disk_is_no_hull_point(self, n_terms, z0, r_grid, depth):
        # at these levels the outer disk about the pole z0 is narrower than
        # 2^-depth-1, so its annuli look empty; the disk over z0 refuses THIN
        entry = classify_fiber(PoleSeries.gaussian(n_terms), z0, r_grid, depth=depth)
        assert entry.classification != "HULL_POINT"
        assert "THIN" not in [r.verdict for r in entry.wiener_reports]


class TestVnBound:
    DISC = Disc = Disk(0.75j, 0.25)

    def test_decreasing_and_bounded(self, gauss40):
        w = gauss40.limit(0j).value + 1.0
        out = vn_upper_bound(gauss40, 1.0, self.DISC, w, [5, 10, 20])
        values = [v for _, v in out]
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in values)
        assert values == sorted(values, reverse=True)
        # frozen desk oracle for this probe geometry
        assert values[-1] == pytest.approx(0.10193, abs=5e-4)

    def test_probe_on_limit_value_rejected(self, gauss40):
        w0 = gauss40.limit(0j).value
        with pytest.raises(ProbeEqualsValue):
            vn_upper_bound(gauss40, 1.0, self.DISC, w0, [5])

    def test_probe_outside_level_rejected(self, gauss40):
        with pytest.raises(ValueError):
            vn_upper_bound(gauss40, 1.0, self.DISC, 2.0 + 0j, [5])

    def test_disc_separation_enforced(self, gauss40):
        w = gauss40.limit(0j).value + 1.0
        with pytest.raises(ValueError):
            vn_upper_bound(gauss40, 1.0, Disk(0.3 + 0j, 0.2), w, [5])

    @pytest.mark.parametrize("n", [0, 41])
    def test_order_outside_terms_rejected(self, gauss40, n):
        w = gauss40.limit(0j).value + 1.0
        with pytest.raises(ValueError, match="n_terms"):
            vn_upper_bound(gauss40, 1.0, self.DISC, w, [n])

    def test_needs_certified_origin_value(self):
        f = PoleSeries(1.0 / np.arange(1, 21), np.exp(-np.arange(1.0, 21.0) ** 2))
        with pytest.raises(TailUncertifiable):
            vn_upper_bound(f, 1.0, self.DISC, 1.0 + 0j, [5])

    def test_needs_pole_series(self):
        with pytest.raises(TypeError):
            vn_upper_bound(ExpReciprocal(), 1.0, self.DISC, 1.0 + 0j, [5])

    def test_v_grows_toward_one_near_limit_value(self, gauss40):
        # h falls toward the graph bound K as the probe approaches the limit
        # value, pushing the ratio toward its upper endpoint
        w0 = gauss40.limit(0j).value
        offsets = (1.0, 1e-4, 1e-9)
        vs = [
            vn_upper_bound(gauss40, 1.0, self.DISC, w0 + t, [10])[0][1]
            for t in offsets
        ]
        assert vs == sorted(vs)
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in vs)

    def test_last_order_needs_certified_tail(self):
        # the origin value is certified, but gamma_{n_terms+1} is not
        g = PoleSeries.gaussian(40)
        f = PoleSeries(g.poles, g.residues, log_abs_c=g.log_abs_c, ca_tail=g.ca_tail)
        w = f.limit(0j).value + 1.0
        assert vn_upper_bound(f, 1.0, self.DISC, w, [39])[0][1] == pytest.approx(
            vn_upper_bound(g, 1.0, self.DISC, w, [39])[0][1], rel=1e-12)
        with pytest.raises(TailUncertifiable):
            vn_upper_bound(f, 1.0, self.DISC, w, [39, 40])
