"""Split functions holomorphic off a compact set into analytic + principal parts.

The principal parts vanish at infinity and are produced one covering disk at a
time; circles that stay clear of a given point sample are found by a grid
search over candidate radii.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    CircleContour,
    CompactSample,
    Disk,
    DiskUnion,
    MAX_QUAD_NODES,
    PolarhullError,
    PolynomialC,
    _horner,
    circle_trapezoid,
    complex_to_pair,
    pointwise,
)

__all__ = [
    "NoCleanRadius",
    "TruncationError",
    "CoverError",
    "CleanRadius",
    "LaurentSplit",
    "MittagLefflerSplit",
    "find_clean_radius",
    "laurent_split",
    "mittag_leffler",
]


class NoCleanRadius(PolarhullError):
    """No circle in the requested radius bracket clears the sample."""


class TruncationError(PolarhullError):
    """Laurent truncation residual exceeded the requested tolerance."""


class CoverError(PolarhullError):
    """A covering disk boundary passes through the singular sample."""


class CleanRadius(NamedTuple):
    radius: float
    clearance: float


def find_clean_radius(a: CompactSample, center: complex, r_lo: float, r_hi: float,
                      n_candidates: int = 1024) -> CleanRadius:
    """Radius r in (r_lo, r_hi) whose circle about `center` stays farthest from `a`.

    Grid search over n_candidates radii; the clearance (min distance from any
    sample point to the circle) is maximized and returned alongside.
    """
    if not r_lo < r_hi:
        raise ValueError("need r_lo < r_hi")
    dists = np.abs(a.points - complex(center))
    k = np.arange(n_candidates)
    radii = r_lo + (k + 0.5) * (r_hi - r_lo) / n_candidates
    clearance = np.min(np.abs(dists[None, :] - radii[:, None]), axis=1)
    best = int(np.argmax(clearance))
    if clearance[best] < 1e-12:
        raise NoCleanRadius(
            f"best clearance {clearance[best]:.3e} in ({r_lo}, {r_hi})"
        )
    return CleanRadius(float(radii[best]), float(clearance[best]))


@dataclass(frozen=True, eq=False)
class LaurentSplit:
    """Truncated two-sided expansion about `center` measured on one circle.

    analytic_part holds coefficients of (z-center)^k for k >= 0; the principal
    coefficients are a_{-1}, a_{-2}, ... so the principal part vanishes at
    infinity by construction.
    """

    center: complex
    analytic_part: PolynomialC
    principal_part: np.ndarray
    annulus_inner: float
    annulus_outer: float
    truncation_residual: float
    nodes: int
    converged: bool

    @pointwise
    def analytic_eval(self, z):
        return self.analytic_part(z - self.center)

    @pointwise
    def principal_eval(self, z):
        u = 1.0 / (z - self.center)
        return _horner(self.principal_part[::-1], u) * u

    def reconstruct(self, z):
        return self.analytic_eval(z) + self.principal_eval(z)

    def to_dict(self) -> dict:
        return {
            "center": complex_to_pair(self.center),
            "analytic_coeffs": [complex_to_pair(c) for c in self.analytic_part.coeffs],
            "principal_coeffs": [complex_to_pair(c) for c in self.principal_part],
            "annulus_inner": self.annulus_inner,
            "annulus_outer": self.annulus_outer,
            "truncation_residual": self.truncation_residual,
            "nodes": self.nodes,
            "converged": self.converged,
        }


def _laurent_coeffs(f, circle: CircleContour, k_max: int, *, quad_tol: float = 1e-12,
                    snap_rel: float = 1e-13):
    """(ks, a_k for -k_max <= k <= k_max, quadrature) by the periodic trapezoid rule.

    All coefficients come from the FFT of one set of node values.  Node
    doubling is judged on the raw circle moments (which settle at machine
    precision); a_k = moment_k * r^{-k} afterwards, and any coefficient below
    the measurement resolution snap_rel * max|f| * r^{-k} is reported as
    exactly zero, since quadrature on this circle cannot distinguish it from zero.
    """
    ks = np.arange(-k_max, k_max + 1)
    n0 = 1 << (max(256, 4 * (k_max + 1)) - 1).bit_length()
    f_scale = 0.0

    def moments(circ, rot, vals):
        nonlocal f_scale
        f_scale = float(np.max(np.abs(vals)))
        return np.fft.fft(vals)[ks] / len(vals)

    quad = circle_trapezoid(f, (circle,), moments, n0, tol=quad_tol, max_nodes=MAX_QUAD_NODES)
    scale = circle.radius ** (-ks.astype(float))
    coeffs = quad.value * scale
    floor = snap_rel * max(f_scale, 1e-300) * scale
    coeffs[np.abs(coeffs) < floor] = 0.0
    return ks, coeffs, quad


def laurent_split(f, circle: CircleContour, k_max: int, *, tol: float = 1e-8,
                  quad_tol: float = 1e-12) -> LaurentSplit:
    """Two-sided coefficient split of `f` on the given circle.

    Raises TruncationError when the outermost retained coefficients indicate
    the truncation at k_max is not yet below `tol`.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    ks, coeffs, quad = _laurent_coeffs(f, circle, k_max, quad_tol=quad_tol)
    analytic = coeffs[ks >= 0]
    principal = coeffs[ks < 0][::-1]  # a_{-1}, a_{-2}, ...
    residual = float(max(abs(analytic[-1]), abs(principal[-1])))
    if residual > tol:
        raise TruncationError(
            f"truncation residual {residual:.3e} exceeds tol {tol:.1e} at k_max={k_max}"
        )
    return LaurentSplit(
        center=circle.center,
        analytic_part=PolynomialC(analytic),
        principal_part=principal,
        annulus_inner=0.5 * circle.radius,
        annulus_outer=circle.radius,
        truncation_residual=residual,
        nodes=quad.nodes,
        converged=quad.converged,
    )


@dataclass(frozen=True, eq=False)
class MittagLefflerSplit:
    """Per-disk principal parts plus a polynomial stand-in for the entire part.

    Evaluation of any principal part is only certified outside its measuring
    circle; `analytic_domain` records where the Taylor stand-in was fitted,
    and `nodes`/`converged` how its quadrature ended.
    """

    components: tuple
    analytic_part: PolynomialC
    analytic_center: complex
    analytic_domain: Disk
    residual: float
    nodes: int
    converged: bool

    @pointwise
    def principal_sum(self, z):
        out = np.zeros(z.shape, dtype=complex)
        for _, split in self.components:
            out = out + split.principal_eval(z)
        return out

    @pointwise
    def analytic_eval(self, z):
        return self.analytic_part(z - self.analytic_center)

    def reconstruct(self, z):
        return self.analytic_eval(z) + self.principal_sum(z)

    def to_dict(self) -> dict:
        return {
            "components": [
                {"disk": d.to_dict(), "split": s.to_dict()} for d, s in self.components
            ],
            "analytic_coeffs": [complex_to_pair(c) for c in self.analytic_part.coeffs],
            "analytic_center": complex_to_pair(self.analytic_center),
            "analytic_domain": self.analytic_domain.to_dict(),
            "residual": self.residual,
            "nodes": self.nodes,
            "converged": self.converged,
        }


def mittag_leffler(f, cover: DiskUnion, sample_of_k: CompactSample, *,
                   k_max: int = 40, taylor_degree: int = 24,
                   test_radius: float | None = None,
                   quad_tol: float = 1e-12) -> MittagLefflerSplit:
    """Peel principal parts off `f`, one covering disk at a time.

    Each disk boundary must clear `sample_of_k`; the leftover function is
    fitted by a Taylor polynomial about the centroid of the cover on a test
    circle enclosing everything, and the reconstruction residual on that
    circle is recorded.
    """
    gaps = np.abs(np.abs(sample_of_k.points[:, None] - cover.centers) - cover.radii)
    meets = np.min(gaps, axis=0) < 1e-10
    if meets.any():
        i = int(np.argmax(meets))
        raise CoverError(f"disk boundary at {complex(cover.centers[i])!r} "
                         f"r={cover.radii[i]} meets sample")

    splits = []

    def remainder(z):
        z = np.asarray(z, dtype=complex)
        out = np.asarray(f(z), dtype=complex)
        for s in splits:
            out = out - s.principal_eval(z)
        return out

    components = []
    for d in cover:
        circle = CircleContour(d.center, d.radius)
        split = laurent_split(remainder, circle, k_max, tol=np.inf, quad_tol=quad_tol)
        splits.append(split)
        components.append((d, split))

    center = complex(np.mean(cover.centers))
    if test_radius is None:
        test_radius = 1.5 * float(np.max(np.abs(cover.centers - center) + cover.radii)) + 0.5
    test_circle = CircleContour(center, test_radius)
    ks, coeffs, quad = _laurent_coeffs(remainder, test_circle, taylor_degree,
                                       quad_tol=quad_tol)
    analytic = PolynomialC(coeffs[ks >= 0])

    nodes = test_circle.nodes(512)
    recon = analytic(nodes - center)
    residual = float(np.max(np.abs(remainder(nodes) - recon)))
    return MittagLefflerSplit(
        components=tuple(components),
        analytic_part=analytic,
        analytic_center=center,
        analytic_domain=Disk(center, test_radius),
        residual=residual,
        nodes=quad.nodes,
        converged=quad.converged,
    )
