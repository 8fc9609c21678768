"""Rational approximants with poles prescribed inside a compact sample.

The approximant of denominator q_m and outer order N evaluates as

    f_N(z) = analytic(z) + sum_{k<N} c_k(z) / q_m(z)^{k+1},

with each coefficient polynomial c_k of degree <= m-1 obtained from contour
integrals of the divided-difference kernel (q(zeta)-q(z))/(zeta-z).  The
kernel is expanded by synthetic division, never by numerical division, so the
removable singularity is gone analytically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import (
    CircleContour,
    CompactSample,
    PolarhullError,
    PolynomialC,
    _horner,
    circle_trapezoid,
    complex_to_pair,
    pointwise,
    poly_from_roots,
)
from .fekete import FeketeSystem

__all__ = [
    "ContourTooClose",
    "SeriesDiverging",
    "RationalApproximant",
    "ConvergenceReport",
    "rho_of",
    "build_approximant",
    "convergence_scan",
]

RHO_FLOOR = 1e-300
# each doubling of this cap doubles the work of every build that cannot settle
MAX_APPROX_NODES = 2**14


class ContourTooClose(PolarhullError):
    """A contour node sits where |q_m| is not safely above the rho threshold."""


class SeriesDiverging(PolarhullError):
    """Scaled coefficient magnitudes grew over the last outer orders."""


def rho_of(q_m: PolynomialC, k: CompactSample, n: int) -> float:
    """n^(2m) * sup |q_m| over the sample, accumulated in log space."""
    if q_m.roots is None or len(q_m.roots) < 1:
        raise ValueError("q_m must be a monic root-form polynomial of degree >= 1")
    m = len(q_m.roots)
    log_sup = float(np.max(q_m.log_abs_root_form(k.points)))
    if log_sup == -np.inf:
        return 0.0
    return math.exp(2.0 * m * math.log(n) + log_sup)


@dataclass(frozen=True, eq=False)
class RationalApproximant:
    """Evaluable rational approximant with poles among the sample points.

    coeff_noise holds per-coefficient quadrature error estimates (the last
    node-doubling differences); evaluation shadows fold them in so callers
    can tell a genuinely small residual from one that is below the noise.
    """

    q_m: PolynomialC
    rho_m: float
    coeff_polys: tuple
    contour: tuple
    degree: int
    analytic_part: PolynomialC
    m: int
    big_n: int
    degenerate_polar: bool
    nodes: int              # trapezoid nodes per contour circle
    converged: bool         # False when node doubling hit MAX_APPROX_NODES
    coeff_noise: tuple

    @property
    def poles(self) -> np.ndarray:
        return self.q_m.roots

    @property
    def normalization(self) -> int:
        """Degree used to normalize log-potentials: max(deg p, deg q)."""
        extra = self.analytic_part.degree if not self.analytic_part.is_zero else 0
        return self.degree + max(extra, 0)

    def q_values(self, z):
        return self.q_m.eval_root_form(z)

    @pointwise
    def principal_eval(self, z):
        """sum_k c_k(z) / q(z)^{k+1}; finite wherever q(z) != 0."""
        u = 1.0 / self.q_values(z)
        return _horner((ck(z) for ck in reversed(self.coeff_polys)), u) * u

    @pointwise
    def eval(self, z):
        return self.analytic_part(z) + self.principal_eval(z)

    __call__ = eval

    def cleared_eval(self, z, w):
        """Denominator-cleared difference  w*q^N - p  with its error shadows.

        Returns (diff, eval_shadow, quad_shadow):
        diff = (w - A(z)) q^N - sum_k c_k(z) q^{N-1-k}; eval_shadow is the same
        expression with every term replaced by its absolute value (the running
        bound for cancellation noise); quad_shadow propagates the recorded
        coefficient quadrature errors through the same evaluation.  All three
        are one Horner recurrence in q, from c_0 down to c_{N-1}.
        """
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        qv = self.q_values(z)
        aq = np.abs(qv)
        az = np.abs(z)
        diff = _horner(chain([w - self.analytic_part(z)],
                             (-ck(z) for ck in self.coeff_polys)), qv)
        eval_shadow = _horner(chain([np.abs(w) + self.analytic_part.abs_eval(az)],
                                    (ck.abs_eval(az) for ck in self.coeff_polys)), aq)
        quad_shadow = _horner(chain([np.zeros(eval_shadow.shape)],
                                    (_horner(noise[::-1], az) for noise in self.coeff_noise)), aq)
        return diff, eval_shadow, quad_shadow

    def to_dict(self) -> dict:
        return {
            "poles": [complex_to_pair(p) for p in self.poles],
            "rho_m": self.rho_m,
            "degree": self.degree,
            "m": self.m,
            "big_n": self.big_n,
            "degenerate_polar": self.degenerate_polar,
            "coeff_polys": [p.to_dict() for p in self.coeff_polys],
            "analytic_part": self.analytic_part.to_dict(),
            "contour": [c.to_dict() for c in self.contour],
            "nodes": self.nodes,
            "converged": self.converged,
        }


def _kernel_rows(q: PolynomialC, zeta: np.ndarray) -> np.ndarray:
    """Synthetic-division coefficients b_i(zeta) of (q(zeta)-q(z))/(zeta-z).

    Row i holds b_i at every node, with b_{m-1} = lead(q) and the downward
    recurrence b_i = zeta*b_{i+1} + q_{i+1}.
    """
    m = q.degree
    rows = np.empty((m, len(zeta)), dtype=complex)
    rows[m - 1] = q.coeffs[m]
    for i in range(m - 2, -1, -1):
        rows[i] = zeta * rows[i + 1] + q.coeffs[i + 1]
    return rows


CONTOUR_MARGIN = 1.25


def _contour_for_group(points: np.ndarray, q: PolynomialC, rho_floor: float,
                       radius_cap: float | None) -> CircleContour:
    """Circle around one sample group with min |q| >= margin*rho on its nodes.

    The margin keeps the circle inside the region where the integrand series
    converges while staying snug: large circles make |q|^k on the nodes dwarf
    the coefficient integrals and destroy their conditioning.
    """
    center = complex(np.mean(points))
    base = float(np.max(np.abs(points - center)))

    def ok(r):
        nodes = CircleContour(center, r).nodes(256)
        return float(np.min(np.exp(q.log_abs_root_form(nodes)))) >= CONTOUR_MARGIN * rho_floor

    # a comfortable standoff keeps |f| tame on the nodes; circles hugging the
    # sample make functions with singularities there blow up and cost digits
    r = base + max(0.5 * base, 0.25)
    if radius_cap is not None:
        r = min(r, radius_cap)
    if not ok(r):
        lo, hi = r, r
        for _ in range(60):
            hi *= 1.3
            if radius_cap is not None and hi > radius_cap:
                raise ContourTooClose("no admissible contour radius below group gap")
            if ok(hi):
                break
            lo = hi
        else:
            raise ContourTooClose("|q_m| never cleared 10*rho_m on candidate circles")
        for _ in range(50):  # bisect to the constraint boundary, keep the safe side
            mid = 0.5 * (lo + hi)
            if ok(mid):
                hi = mid
            else:
                lo = mid
        r = hi
    return CircleContour(center, r)


def _build_contours(sample: CompactSample, q: PolynomialC,
                    rho_floor: float) -> tuple:
    if sample.labels is None:
        return (_contour_for_group(sample.points, q, rho_floor, None),)
    groups = [sample.points[sample.labels == lab] for lab in np.unique(sample.labels)]
    centers = [complex(np.mean(g)) for g in groups]
    circles = []
    for g, c in zip(groups, centers):
        gap = min((abs(c - o) for o in centers if o != c), default=None)
        cap = None if gap is None else 0.45 * gap
        circles.append(_contour_for_group(g, q, rho_floor, cap))
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            if abs(circles[i].center - circles[j].center) <= circles[i].radius + circles[j].radius:
                # overlapping group circles would double-count; fall back to one circle
                return (_contour_for_group(sample.points, q, rho_floor, None),)
    return tuple(circles)


def build_approximant(f, sys: FeketeSystem, m: int, big_n: int, n_scale: int = 2, *,
                      quad_tol: float = 1e-10, contour=None) -> RationalApproximant:
    """Assemble the order-(m, N) approximant of `f` from its Leja system.

    `f` is split into its polynomial part at infinity plus a principal part,
    and only the principal part is approximated; the polynomial part rides
    along exactly.  Coefficients come from counterclockwise circles around the
    sample, which by holomorphy agree with integrals over any admissible level
    curve of |q_m|.
    """
    if m < 1 or big_n < 1:
        raise ValueError("m and big_n must be >= 1")
    roots = sys.points[:m]
    if len(roots) < m:
        raise ValueError("Leja system shorter than requested m")
    q = poly_from_roots(roots)
    rho = rho_of(q, sys.base_set, n_scale)
    degenerate = rho < RHO_FLOOR
    rho_floor = max(rho, RHO_FLOOR)

    analytic, principal = f.split_at_infinity()
    circles = contour if contour is not None else _build_contours(
        sys.base_set, q, rho_floor
    )
    circles = tuple(circles)

    gap_tol = 1e-9 * min(c.radius for c in circles)
    root_sample = CompactSample(roots)

    def principal_on_nodes(zeta):  # vets the nodes before evaluating on them
        qv = np.abs(q.eval_root_form(zeta))
        if qv.min() <= rho or np.min(root_sample.min_distance_to(zeta)) <= gap_tol:
            raise ContourTooClose(f"|q_m| <= rho_m at the contour node {zeta[qv.argmin()]!r}")
        return principal(zeta)

    def integrals(circ, rot, fv):
        zeta = circ.center + circ.radius * rot
        qv = q.eval_root_form(zeta)
        rows = _kernel_rows(q, zeta)
        weights = circ.radius * rot / len(rot)
        coeff = np.empty((big_n, m), dtype=complex)
        qpow = np.ones_like(zeta)
        for k in range(big_n):
            coeff[k] = rows @ (fv * qpow * weights)
            qpow = qpow * qv
        return coeff

    quad = circle_trapezoid(principal_on_nodes, circles, integrals,
                            max(256, 1 << (4 * m - 1).bit_length()),
                            tol=quad_tol, max_nodes=MAX_APPROX_NODES)
    coeff = quad.value
    noise = np.maximum(quad.noise, np.finfo(float).eps * np.abs(coeff))

    if not degenerate and big_n >= 4:
        scaled = [
            float(np.max(np.abs(coeff[k]))) for k in range(big_n)
        ]
        with np.errstate(divide="ignore"):
            t = [
                (math.log(s) if s > 0 else -np.inf) - k * math.log(rho_floor)
                for k, s in enumerate(scaled)
            ]
        tail = t[-4:]
        if all(b > a for a, b in zip(tail, tail[1:])):
            raise SeriesDiverging("scaled coefficient terms grew over the last 3 orders")

    coeff_polys = tuple(PolynomialC(coeff[k]) for k in range(big_n))
    return RationalApproximant(
        q_m=q,
        rho_m=rho,
        coeff_polys=coeff_polys,
        contour=circles,
        degree=m * big_n,
        analytic_part=analytic,
        m=m,
        big_n=big_n,
        degenerate_polar=degenerate,
        coeff_noise=tuple(noise[k] for k in range(big_n)),
        nodes=quad.nodes,
        converged=quad.converged,
    )


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Sup errors and degree-normalized errors over an approximation schedule."""

    entries: tuple  # (degree, sup_error, normalized_error, at_noise_floor)
    target_set: CompactSample
    target_distance: float
    quadrature: tuple  # (nodes, converged) of each entry's approximant

    def to_dict(self) -> dict:
        return {
            "entries": [
                {
                    "degree": int(d),
                    "sup_error": e,
                    "normalized_error": ne,
                    "at_noise_floor": bool(fl),
                    "nodes": nodes,
                    "converged": conv,
                }
                for (d, e, ne, fl), (nodes, conv) in zip(self.entries, self.quadrature)
            ],
            "target_distance": self.target_distance,
        }

    def to_csv_rows(self):
        yield ["degree", "sup_error", "normalized_error"]
        for d, e, ne, _ in self.entries:
            yield [str(int(d)), repr(e), repr(ne)]


def convergence_scan(f, sys: FeketeSystem, schedule, target: CompactSample, *,
                     n_scale: int = 2, quad_tol: float = 1e-10,
                     noise_floor: float = 1e-12, contour=None) -> ConvergenceReport:
    """Run `build_approximant` over a schedule and record sup errors on `target`.

    Sup errors at or below `noise_floor` are reported with normalized error 0:
    the approximant is exact there up to quadrature noise and the degree-th
    root of that noise would say nothing about convergence.
    """
    degrees = [m * n for m, n in schedule]
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("schedule degrees must be strictly increasing")
    dist = float(np.min(sys.base_set.min_distance_to(target.points)))
    if dist <= 0:
        raise ValueError("target must keep positive distance from the sample")

    fv = np.asarray(f(target.points), dtype=complex)
    entries, quadrature = [], []
    for m, n in schedule:
        try:
            approx = build_approximant(f, sys, m, n, n_scale, quad_tol=quad_tol,
                                       contour=contour)
        except PolarhullError as e:
            raise type(e)(f"schedule entry (m={m}, N={n}): {e}") from e
        err = float(np.max(np.abs(fv - approx.eval(target.points))))
        floored = err <= noise_floor
        if floored:
            norm = 0.0
        else:
            norm = math.exp(math.log(err) / (m * n))
        entries.append((m * n, err, norm, floored))
        quadrature.append((approx.nodes, approx.converged))
    return ConvergenceReport(entries=tuple(entries), target_set=target,
                             target_distance=float(dist), quadrature=tuple(quadrature))
