"""Verdict audit: the Wiener verdict swept over levels, points and depths,
against what is known to be true of each model.

Each model is swept at 0 and at some of its poles, over 40 levels spaced
geometrically from its smallest level up to 1e300, at depths 30 and 60.  A
level that the model refuses (ThresholdTooSmall) is skipped.  The tests
assert only known truths.  {|f| >= R} is a neighbourhood of each pole, so no
pole reads THIN.  The exact level disk of exp(1/z) touches 0, so 0 never
reads THIN there.  The level sets shrink as R grows, so along R no NON_THIN
follows a THIN.  A deeper sum never turns THIN into NON_THIN or back.  The
INCONCLUSIVE share of each model is printed, not asserted (`pytest -s`).
"""
import functools
import math

import numpy as np
import pytest

from polarhull import ExpReciprocal, PoleSeries, RecipSinPi, sublevel_cover, wiener_test
from polarhull.models import ThresholdTooSmall

DEPTHS = (30, 60)

# name -> (model, smallest level, points swept)
MODELS = {
    "exp-reciprocal": (ExpReciprocal(), 1.0001, [0.0]),
    # +-1/65, 1/100 and 1/3000 are poles past the cutoff, covered by the deep pairs
    "recip-sin-pi-64": (RecipSinPi(64), 1.0001,
                        [0.0, 1.0, 0.5, 1 / 64, -1 / 64, 1 / 65, -1 / 65, 1 / 100, 1 / 3000]),
    # 1/41 is a pole of the infinite series, not of its 40-term truncation
    "gaussian-40": (PoleSeries.gaussian(40), 1e-6, [0.0, 1.0, 0.5, 1 / 40, 1 / 41]),
    "gaussian-1000": (PoleSeries.gaussian(1000), 1e-6, [0.0, 0.5, 1 / 1000]),
    "geometric-40": (PoleSeries.geometric(40), 1e-6, [0.0, 0.5, 1 / 40]),
    "geometric-40-ratio-0.9": (PoleSeries.geometric(40, ratio=0.9), 1e-6, [0.0, 0.5]),
}


@functools.cache
def _sweep(name):
    """(levels, {(point, depth): the verdict at each level}) for one model."""
    f, lowest, points = MODELS[name]
    covers = {}
    for big_r in np.geomspace(lowest, 1e300, 40).tolist():
        try:
            covers[big_r] = sublevel_cover(f, big_r)
        except ThresholdTooSmall:
            continue
    verdicts = {(z, depth): [wiener_test(cover, z, depth).verdict for cover in covers.values()]
                for z in points for depth in DEPTHS}
    return list(covers), verdicts


def _is_pole(f, z):
    if isinstance(f, PoleSeries):
        return z in f.poles[f.log_abs_c > -math.inf]
    if isinstance(f, RecipSinPi):  # the poles are +-1/k for every integer k >= 1
        return z != 0 and abs(z) == 1.0 / round(1.0 / abs(z))
    return False


@pytest.mark.parametrize("name", [name for name in MODELS if name != "exp-reciprocal"])
def test_no_pole_reads_thin(name):
    f, _, points = MODELS[name]
    _, verdicts = _sweep(name)
    poles = [z for z in points if _is_pole(f, z)]
    assert poles
    for z in poles:
        for depth in DEPTHS:
            assert "THIN" not in verdicts[z, depth], (name, z, depth)


def test_exp_reciprocal_never_reads_thin_at_zero():
    levels, verdicts = _sweep("exp-reciprocal")
    assert len(levels) == 40
    for depth in DEPTHS:
        assert "THIN" not in verdicts[0.0, depth]


@pytest.mark.parametrize("name", MODELS)
def test_no_non_thin_after_thin_along_r(name):
    for key, along_r in _sweep(name)[1].items():
        if "THIN" in along_r:
            assert "NON_THIN" not in along_r[along_r.index("THIN"):], (name, key)


@pytest.mark.parametrize("name", MODELS)
def test_a_deeper_sum_never_flips_the_verdict(name):
    levels, verdicts = _sweep(name)
    for z in MODELS[name][2]:
        for big_r, pair in zip(levels, zip(*(verdicts[z, depth] for depth in DEPTHS))):
            assert set(pair) != {"THIN", "NON_THIN"}, (name, z, big_r)


def test_every_verdict_is_known_and_the_inconclusive_shares_are_printed():
    # the shares that sounder evidence (a proved NON_THIN, verdicts at every level) targets
    for name in MODELS:
        flat = [v for along_r in _sweep(name)[1].values() for v in along_r]
        assert set(flat) <= {"THIN", "NON_THIN", "INCONCLUSIVE"}, name
        print(f"{name}: {flat.count('INCONCLUSIVE')}/{len(flat)} INCONCLUSIVE")
    # the truncation is not the infinite series: 1/41 is a pole only of the latter
    levels, verdicts = _sweep("gaussian-40")
    thin = [big_r for big_r, v in zip(levels, verdicts[1 / 41, 60]) if v == "THIN"]
    if thin:
        print(f"gaussian-40 reads THIN at 1/41 on {len(thin)} levels from R = {thin[0]:.3g}")
