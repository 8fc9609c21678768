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
    laurent_split,
    mittag_leffler,
    poly_from_roots,
    u_eval,
)
from polarhull import laurent as laurent_module
from polarhull.core import pointwise
from polarhull.pshbuild import _h_of_cleared

N_POINTS = 200


@pointwise
def h_eval(approximant, z, w):
    """The deleted `pshbuild.h_eval`: (1/n) log |w q(z) - p(z)|, -inf below the noise."""
    return _h_of_cleared(approximant.cleared_eval(z, w), approximant.normalization)


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
    rational = RationalModel([0.3, 0.5], [1.0, 2.0])
    gauss = PoleSeries.gaussian(10)
    laurent = laurent_split(exp, CircleContour(0j, 1.0), 24)
    g5 = PoleSeries.gaussian(5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent_module, "ML_KMAX", 60)
        ml = mittag_leffler(g5, DiskUnion([Disk(0.6 + 0j, 0.55)]), g5.singular_sample())
    level = gauss10_field.levels[-1].approximant
    return {
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
    "PolynomialC.__call__", "eval_root_form", "log_abs_root_form",
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
        grid = h_eval(lev.approximant, z, w)
        assert [h_eval(lev.approximant, a, b) for a, b in zip(z, w)] == grid.tolist()


def test_cleared_eval_scalar_equals_array_entry(gauss10_field, points):
    z, w = points
    for lev in gauss10_field.levels:
        grid = lev.approximant.cleared_eval(z, w)
        scalars = [lev.approximant.cleared_eval(a, b) for a, b in zip(z, w)]
        for part, kind, column in zip(grid, (complex, float, float), zip(*scalars)):
            assert all(type(s) is kind for s in column)
            assert list(column) == part.tolist()


N_LARGE = 20_000  # 320 KB of complex128, above numpy's 256 KiB temporary-elision threshold


@pytest.mark.parametrize("name", ["eval_root_form", "q_values", "cleared_eval", "h_eval"])
def test_point_equals_entry_of_a_large_grid(name, gauss10_field):
    # numpy may compute a product with an elidable temporary right operand in
    # place, operands swapped, once the arrays pass the elision threshold;
    # complex products are not bitwise commutative, so without care a point
    # would differ from the same point in a large grid
    rng = np.random.default_rng(8)
    z = rng.uniform(0.2, 1.5, N_LARGE) * np.exp(2j * np.pi * rng.uniform(0, 1, N_LARGE))
    w = rng.uniform(-3.0, 3.0, N_LARGE) + 1j * rng.uniform(-3.0, 3.0, N_LARGE)
    level = gauss10_field.levels[-1].approximant
    fn, args = {
        "eval_root_form": (level.q_m.eval_root_form, (z,)),
        "q_values": (level.q_values, (z,)),
        "cleared_eval": (level.cleared_eval, (z, w)),
        "h_eval": (lambda a, b: h_eval(level, a, b), (z, w)),
    }[name]
    grid = fn(*args)
    pick = rng.choice(N_LARGE, 300, replace=False)
    scalars = [fn(*(a[i] for a in args)) for i in pick]
    if name == "cleared_eval":
        for part, column in zip(grid, zip(*scalars)):
            assert list(column) == part[pick].tolist()
    else:
        assert scalars == grid[pick].tolist()
