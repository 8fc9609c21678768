import warnings

import numpy as np
import pytest

from polarhull import laurent
from polarhull.core import (
    MAX_QUAD_NODES,
    CircleContour,
    CompactSample,
    Disk,
    DiskUnion,
    NodeEvaluationError,
)
from polarhull.laurent import (
    CoverError,
    TruncationError,
    _laurent_coeffs,
    laurent_split,
    mittag_leffler,
)
from polarhull.models import ExpReciprocal, PoleSeries, RationalModel, RecipSinPi


class TestLaurentSplit:
    def test_k_max_must_be_positive(self):
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            laurent_split(lambda z: 1.0 / z, CircleContour(0j, 1.0), 0)

    def test_pure_principal(self):
        split = laurent_split(lambda z: 1.0 / z, CircleContour(0j, 1.0), 8)
        assert np.max(np.abs(split.analytic_part.coeffs)) == 0.0
        np.testing.assert_allclose(split.principal_part[0], 1.0, atol=1e-13)
        assert np.max(np.abs(split.principal_part[1:])) == 0.0

    def test_mixed_function(self):
        f = lambda z: z**2 + 3.0 / (z - 0.2)
        split = laurent_split(f, CircleContour(0j, 0.6), 40)
        np.testing.assert_allclose(split.analytic_part.coeffs[2], 1.0, atol=1e-12)
        # principal coefficients follow the geometric expansion 3 * 0.2^(k-1)
        expect = 3.0 * 0.2 ** np.arange(0, 6)
        np.testing.assert_allclose(split.principal_part[:6], expect, rtol=1e-10)

    def test_entire_function(self):
        split = laurent_split(lambda z: np.exp(z), CircleContour(0j, 1.0), 12)
        assert np.max(np.abs(split.principal_part)) < 1e-12

    def test_truncation_error_raised(self):
        f = lambda z: 1.0 / (z - 0.95)  # slowly decaying tail on |z|=1
        with pytest.raises(TruncationError):
            laurent_split(f, CircleContour(0j, 1.0), 8, tol=1e-8)

    @pytest.mark.parametrize("f", [ExpReciprocal(), RecipSinPi(8)], ids=["exp", "sin"])
    def test_overflowing_coefficients_raise(self, f):
        # a_k = moment_k r^-k overflows for r = 1e300 and k <= -2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TruncationError, match="overflow"):
                laurent_split(f, CircleContour(0j, 1e300), 32)

    @pytest.mark.parametrize("f", [ExpReciprocal(), RecipSinPi(8)], ids=["exp", "sin"])
    def test_overflowing_integrand_raises_without_warning(self, f):
        # f overflows on the nodes |z| = 1e-300; the node check names the node
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NodeEvaluationError, match=r"not finite at node \([-+.e0-9]+j\)$"):
                laurent_split(f, CircleContour(0j, 1e-300), 32)

    @pytest.mark.parametrize("trial", range(4))
    def test_reconstruction_random_rational(self, rng, trial):
        deg = int(rng.integers(1, 7))
        poles = 0.4 * (rng.uniform(-1, 1, deg) + 1j * rng.uniform(-1, 1, deg))
        res = rng.uniform(0.5, 2.0, deg) + 1j * rng.uniform(-1, 1, deg)
        f = RationalModel(poles, res)
        split = laurent_split(f, CircleContour(0j, 0.7), 60, tol=1e-6)
        zt = 0.85 * np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
        err = np.max(np.abs(f(zt) - split.reconstruct(zt)))
        assert err < 1e-9

    def test_principal_decay_at_infinity(self):
        f = lambda z: 2.0 / (z - 0.3) + 0.5 / (z + 0.1) ** 2
        split = laurent_split(f, CircleContour(0j, 0.7), 40)
        total = np.sum(np.abs(split.principal_part))
        for radius in (2.0 * split.annulus_outer, 3.0, 10.0):
            z = radius * np.exp(1j * np.linspace(0, 2 * np.pi, 17))
            vals = np.abs(split.principal_eval(z))
            assert np.all(vals <= 2.0 * total / radius)


class TestMittagLeffler:
    def test_two_separated_poles(self):
        f = RationalModel([0.3, -0.3], [1.0, 1.0])
        cover = DiskUnion([Disk(0.3 + 0j, 0.15), Disk(-0.3 + 0j, 0.15)])
        ml = mittag_leffler(f, cover, f.singular_sample())
        for (disk, split), expect_center in zip(ml.components, (0.3, -0.3)):
            assert disk.center == expect_center
            np.testing.assert_allclose(split.principal_part[0], 1.0, atol=1e-10)
            assert np.max(np.abs(split.principal_part[1:])) < 1e-10
        assert ml.residual < 1e-10

    def test_entire_function_gives_zero_parts(self):
        class Entire:
            def __call__(self, z):
                return np.cos(np.asarray(z, dtype=complex))

        cover = DiskUnion([Disk(0.2 + 0j, 0.1)])
        ml = mittag_leffler(Entire(), cover, CompactSample([0.2]))
        for _, split in ml.components:
            assert np.max(np.abs(split.principal_part)) < 1e-10

    def test_truncated_pole_series_single_disk(self, rng, monkeypatch):
        monkeypatch.setattr(laurent, "ML_KMAX", 60)
        f = PoleSeries.gaussian(5)  # poles 1, 1/2, ..., 1/5
        cover = DiskUnion([Disk(0.6 + 0j, 0.55)])
        ml = mittag_leffler(f, cover, f.singular_sample())
        z = 1.5 * np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        err = np.max(np.abs(f(z) - ml.reconstruct(z)))
        assert err < 1e-8

    def test_agrees_with_recentred_split(self):
        f = RationalModel([0.25, 0.45], [1.0, -0.5])
        disk = Disk(0.35 + 0j, 0.3)
        ml = mittag_leffler(f, DiskUnion([disk]), f.singular_sample())
        direct = laurent_split(f, CircleContour(disk.center, disk.radius), 40,
                               tol=np.inf)
        got = ml.components[0][1].principal_part
        np.testing.assert_allclose(got, direct.principal_part, atol=1e-10)

    def test_cover_error_when_boundary_hits_sample(self):
        f = RationalModel([0.3], [1.0])
        cover = DiskUnion([Disk(0.2 + 0j, 0.1)])  # boundary passes through 0.3
        with pytest.raises(CoverError):
            mittag_leffler(f, cover, f.singular_sample())

    def test_cover_error_names_the_meeting_disk(self):
        f = RationalModel([0.3, -0.3], [1.0, 1.0])
        # the first boundary clears both poles; the second passes through -0.3
        cover = DiskUnion([Disk(0.3 + 0j, 0.15), Disk(-0.5 + 0j, 0.2)])
        with pytest.raises(CoverError, match=r"\(-0\.5\+0j\) r=0\.2 meets"):
            mittag_leffler(f, cover, f.singular_sample())

    def test_taylor_fit_convergence_reported(self):
        f = RationalModel([0.3, 0.9], [1.0, 1.0])
        cover = DiskUnion([Disk(0.3 + 0j, 0.1)])
        ml = mittag_leffler(f, cover, f.singular_sample())
        assert ml.converged is True and ml.nodes < MAX_QUAD_NODES
        # the test circle |z - 0.3| = 1.5 * 0.1 + 0.5 passes 1e-6 from the
        # uncovered pole at 0.950001
        f = RationalModel([0.3, 0.950001], [1.0, 1.0])
        near = mittag_leffler(f, cover, f.singular_sample())
        assert not near.converged
        assert near.nodes == MAX_QUAD_NODES
        assert near.converged is False

    def test_exp_reciprocal_principal(self, monkeypatch):
        monkeypatch.setattr(laurent, "ML_KMAX", 30)
        f = ExpReciprocal()
        cover = DiskUnion([Disk(0j, 0.5)])
        ml = mittag_leffler(f, cover, f.singular_sample())
        # principal coefficients of exp(1/z) are 1/k!
        split = ml.components[0][1]
        np.testing.assert_allclose(split.principal_part[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(split.principal_part[1], 0.5, atol=1e-12)
        np.testing.assert_allclose(ml.analytic_part.coeffs[0], 1.0, atol=1e-10)


def _phase_matrix_moments(f, circle, ks, n):
    """Oracle: circle moments from fresh nodes and the dense exp(-i k theta) matrix."""
    theta = 2.0 * np.pi * np.arange(n) / n
    vals = np.asarray(f(circle.center + circle.radius * np.exp(1j * theta)), dtype=complex)
    return np.exp(-1j * np.outer(ks, theta)) @ vals / n


class TestMoments:
    @pytest.mark.parametrize("f, circle", [
        (lambda z: np.exp(1.0 / z), CircleContour(0j, 0.5)),
        (PoleSeries.gaussian(8), CircleContour(0j, 1.5)),
        (lambda z: 1.0 / (z - 0.2), CircleContour(0j, 0.6)),
    ])
    def test_fft_moments_match_phase_matrix(self, f, circle):
        ks, _, quad = _laurent_coeffs(f, circle, 40)
        assert quad.converged
        want = _phase_matrix_moments(f, circle, ks, quad.nodes)
        assert np.max(np.abs(quad.value - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    def test_split_reports_its_quadrature(self):
        split = laurent_split(lambda z: np.exp(1.0 / z), CircleContour(0j, 0.5), 40)
        assert split.converged and split.nodes == 512
        assert split.to_dict()["nodes"] == 512 and split.to_dict()["converged"] is True

    def test_unsettled_split_is_flagged(self, monkeypatch):
        # a pole 1e-3 outside the circle cannot settle below the lowered cap
        monkeypatch.setattr(laurent, "MAX_QUAD_NODES", 512)
        split = laurent_split(lambda z: 1.0 / (z - 1.001), CircleContour(0j, 1.0), 8,
                              tol=np.inf)
        assert not split.converged and split.nodes == 512
        assert split.to_dict()["converged"] is False
