"""A scalar point evaluates exactly as the same point inside an array.

numpy's complex scalar arithmetic rounds differently from its array loops,
so every point evaluator runs a scalar as a one-element array.  These tests
check `fn(z[i]) == fn(z)[i]` bitwise at seeded points off the singular sets,
and that a scalar comes back as a Python complex or float.
"""
import numpy as np
import pytest

from polarhull import (
    CircleContour,
    CompactSample,
    Disk,
    DiskUnion,
    ExpReciprocal,
    PoleSeries,
    PolynomialC,
    RationalModel,
    RecipSinPi,
    certify_schedule,
    h_eval,
    laurent_split,
    mittag_leffler,
    poly_eval,
    poly_from_roots,
    u_eval,
)
from polarhull.pshbuild import h_values

N_POINTS = 200


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(6)
    # |z| in [0.2, 1.5], away from exp(1/z)'s essential singularity at 0
    z = rng.uniform(0.2, 1.5, N_POINTS) * np.exp(2j * np.pi * rng.uniform(0, 1, N_POINTS))
    w = rng.uniform(-3.0, 3.0, N_POINTS) + 1j * rng.uniform(-3.0, 3.0, N_POINTS)
    return z, w


@pytest.fixture(scope="module")
def gauss10_field():
    f = PoleSeries.gaussian(10)
    return certify_schedule(f, f.singular_sample(), 4)


@pytest.fixture(scope="module")
def evaluators(gauss10_field):
    """name -> callable of z alone, or of (z, w) for the field evaluators."""
    rng = np.random.default_rng(7)
    roots = rng.uniform(-0.9, 0.9, 12) + 1j * rng.uniform(-0.9, 0.9, 12)
    q = poly_from_roots(roots)
    poly = PolynomialC(rng.normal(size=9) + 1j * rng.normal(size=9))
    exp, rsp = ExpReciprocal(), RecipSinPi(16)
    rational = RationalModel([0.3, 0.5], [1.0, 2.0], PolynomialC([0.5, 1.0, -0.25]))
    gauss = PoleSeries.gaussian(10)
    laurent = laurent_split(exp, CircleContour(0j, 1.0), 24)
    g5 = PoleSeries.gaussian(5)
    ml = mittag_leffler(g5, DiskUnion([Disk(0.6 + 0j, 0.55)]), g5.singular_sample(), k_max=60)
    level = gauss10_field.levels[-1].approximant
    return {
        "poly_eval": lambda z: poly_eval(poly, z),
        "PolynomialC.__call__": poly,
        "eval_root_form": q.eval_root_form,
        "log_abs_root_form": q.log_abs_root_form,
        "PoleSeries": gauss,
        "ExpReciprocal": exp,
        "ExpReciprocal.principal": exp.split_at_infinity()[1],
        "RecipSinPi": rsp,
        "RecipSinPi.principal": rsp.split_at_infinity()[1],
        "RationalModel": rational,
        "RationalModel.principal": rational.split_at_infinity()[1],
        "LaurentSplit.principal_eval": laurent.principal_eval,
        "LaurentSplit.analytic_eval": laurent.analytic_eval,
        "MittagLefflerSplit.principal_sum": ml.principal_sum,
        "MittagLefflerSplit.analytic_eval": ml.analytic_eval,
        "RationalApproximant.principal_eval": level.principal_eval,
        "RationalApproximant.eval": level.eval,
        "RationalApproximant.q_values": level.q_values,
        "CompactSample.min_distance_to": CompactSample(roots).min_distance_to,
        "h_eval": lambda z, w: h_eval(level, z, w),
        "u_eval": lambda z, w: u_eval(gauss10_field, z, w),
    }


NAMES = [
    "poly_eval", "PolynomialC.__call__", "eval_root_form", "log_abs_root_form",
    "PoleSeries", "ExpReciprocal", "ExpReciprocal.principal", "RecipSinPi",
    "RecipSinPi.principal", "RationalModel", "RationalModel.principal",
    "LaurentSplit.principal_eval", "LaurentSplit.analytic_eval",
    "MittagLefflerSplit.principal_sum", "MittagLefflerSplit.analytic_eval",
    "RationalApproximant.principal_eval", "RationalApproximant.eval",
    "RationalApproximant.q_values", "CompactSample.min_distance_to", "h_eval", "u_eval",
]


@pytest.mark.parametrize("name", NAMES)
def test_scalar_equals_array_entry(name, evaluators, points):
    fn = evaluators[name]
    args = points if name in ("h_eval", "u_eval") else points[:1]
    grid = fn(*args)
    assert isinstance(grid, np.ndarray) and grid.shape == (N_POINTS,)
    scalars = [fn(*pt) for pt in zip(*args)]
    kind = complex if np.iscomplexobj(grid) else float
    assert all(type(s) is kind for s in scalars)
    assert scalars == grid.tolist()


def test_h_eval_matches_certification_values(gauss10_field, points):
    z, w = points
    for lev in gauss10_field.levels:
        grid = h_values(lev.approximant, z, w)
        assert [h_eval(lev.approximant, a, b) for a, b in zip(z, w)] == grid.tolist()
