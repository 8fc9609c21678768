import numpy as np
import pytest

from polarhull import CompactSample, PoleSeries, RationalModel
from polarhull.core import ZERO_POLY


@pytest.fixture(scope="session")
def gauss10():
    return PoleSeries.gaussian(10)


@pytest.fixture(scope="session")
def gauss40():
    return PoleSeries.gaussian(40)


@pytest.fixture(scope="session")
def two_pole():
    return RationalModel([0.3, 0.5], [1.0, 2.0])


@pytest.fixture(scope="session")
def segment_sample():
    return CompactSample(np.linspace(-1.0, 1.0, 1001).astype(complex))


class _QuadratureOnly:
    """A pole series seen through its values alone: with no `numerator` hook, every
    build of it runs the contour quadrature on the series' own values."""

    def __init__(self, series):
        self.series, self.label = series, series.label

    def __call__(self, z):
        return self.series(z)

    def singular_sample(self):
        return self.series.singular_sample()

    def split_at_infinity(self):
        return ZERO_POLY, self


@pytest.fixture(scope="session")
def quadrature_only():
    """`_QuadratureOnly`: wraps a pole series so that its approximants take the quadrature."""
    return _QuadratureOnly


@pytest.fixture
def rng():
    return np.random.default_rng(20240229)


def _flat_certification_grid(f, sample, nu, density):
    """The (z, w) certification nodes that the closed-form level bounds replaced.

    Returns the graph nodes, the box's flat (z, w) pairs (48 x 48 on
    |z| = |w| = nu) and the off-graph pairs (every third graph node with
    8 angles at each of 3 distances from its graph point, kept where
    |w| < nu), each z repeated per w.
    """
    pts, cut = sample.points, 1.0 / nu
    axis = np.linspace(-nu, nu, 2 * density * nu + 1)
    zz = (axis[None, :] + 1j * axis[:, None]).ravel()
    zz = zz[np.abs(zz) < nu]
    graph = zz[sample.min_distance_to(zz) > cut]
    angles = np.exp(2j * np.pi * np.arange(16) / 16)
    ring = np.concatenate([(pts[:, None] + s * cut * angles[None, :]).ravel()
                           for s in (1.02, 1.1, 1.3)])
    ring = ring[(sample.min_distance_to(ring) > cut) & (np.abs(ring) < nu)]
    graph = np.concatenate([graph, ring])

    tb = np.exp(2j * np.pi * np.arange(48) / 48)
    bz, bw = np.meshgrid(nu * tb, nu * tb)

    base = graph[::3]
    fb = np.asarray(f(base), dtype=complex)
    wa = np.exp(2j * np.pi * np.arange(8) / 8)
    oz, ow = [], []
    for s in (1.02, 1.5, 3.0):
        z_rep = np.repeat(base, len(wa))
        w_off = (fb[:, None] + s * cut * wa[None, :]).ravel()
        ok = np.abs(w_off) < nu
        oz.append(z_rep[ok])
        ow.append(w_off[ok])
    return graph, (bz.ravel(), bw.ravel()), (np.concatenate(oz), np.concatenate(ow))


@pytest.fixture(scope="session")
def zw_grid():
    """`_flat_certification_grid`: the (z, w) oracle for the level bounds."""
    return _flat_certification_grid
