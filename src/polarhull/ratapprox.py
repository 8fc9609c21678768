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

import numpy as np

from .core import (
    CircleContour,
    CompactSample,
    NodeEvaluationError,
    PolarhullError,
    PolynomialC,
    _eval_on_nodes,
    _horner,
    circle_trapezoid,
    pointwise,
    poly_from_roots,
)
from .fekete import FeketeSystem

__all__ = [
    "SeriesDiverging",
    "RationalApproximant",
    "ConvergenceReport",
    "rho_of",
    "build_approximant",
    "convergence_scan",
]

RHO_FLOOR = 1e-300
N_SCALE = 2
NOISE_FLOOR = 1e-12
# each doubling of this cap doubles the work of every build that cannot settle
MAX_APPROX_NODES = 2**14


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

    `coeffs` is the (N, m) matrix that the contour quadrature returns: row k
    holds c_k in ascending powers of z.  `noise` is the (N, m) matrix of
    their quadrature error estimates (the last node-doubling differences);
    evaluation shadows fold them in so callers can tell a genuinely small
    residual from one that is below the noise.  `floor` is the (N, m) matrix
    of their rounding floors, eps times the sum of the integrand terms'
    magnitudes.  All three are read-only, so approximants can be shared
    between levels.
    """

    q_m: PolynomialC
    coeffs: np.ndarray
    noise: np.ndarray
    floor: np.ndarray
    contour: CircleContour
    analytic_part: PolynomialC
    nodes: int              # trapezoid nodes on the contour
    converged: bool         # false at the cap or at the rounding floor

    def __post_init__(self):
        for name, dtype in (("coeffs", complex), ("noise", float), ("floor", float)):
            value = np.array(getattr(self, name), dtype=dtype)
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def big_n(self) -> int:
        return len(self.coeffs)

    @property
    def degree(self) -> int:
        """m * N, the degree of the denominator q_m^N."""
        return self.coeffs.size

    @property
    def poles(self) -> np.ndarray:
        return self.q_m.roots

    @property
    def normalization(self) -> int:
        """Degree used to normalize log-potentials: max(deg p, deg q)."""
        return self.degree + self.analytic_part.degree  # a zero polynomial has degree 0

    def q_values(self, z):
        return self.q_m.eval_root_form(z)

    @pointwise
    def principal_eval(self, z):
        """sum_k c_k(z) / q(z)^{k+1}; finite wherever q(z) != 0."""
        u = 1.0 / self.q_values(z)
        return _horner((_horner(c[::-1], z) for c in self.coeffs[::-1]), u) * u

    @pointwise
    def eval(self, z):
        return self.analytic_part(z) + self.principal_eval(z)

    __call__ = eval

    @pointwise
    def cleared_eval(self, z, w):
        """Denominator-cleared difference  w*q^N - p  with its error shadows.

        Returns (diff, eval_shadow, quad_shadow):
        diff = (w - A(z)) q^N - sum_k c_k(z) q^{N-1-k}; eval_shadow is the same
        expression with every term replaced by its absolute value (the running
        bound for cancellation noise); quad_shadow propagates the recorded
        coefficient quadrature errors through the same evaluation.  Each c_k,
        |c_k| and noise polynomial is a Horner pass over one row of `coeffs`
        or `noise`.

        Both diff and eval_shadow are linear in w, so every Horner recurrence
        in q (q^N, the c_k sum, their absolute-value twins and quad_shadow)
        runs on z alone, and quad_shadow keeps z's shape; per (z, w) node
        there is one multiply-add for each of diff and eval_shadow.  z and w
        broadcast together, so on a grid of few distinct z against many w
        (z of shape (n, 1), w of shape (n, k)) all of the recurrences run
        once per z.  Each entry is bitwise that of the flattened (z, w) pairs.
        """
        return self.cleared_fold(z, w, None)[0]

    def cleared_fold(self, z, w, prior):
        """(`cleared_eval`'s triple, the fold: this approximant and its recurrences in q).

        `prior`, a fold over the same z or None, is extended by the rows past its
        own (`_folded_rows`), each sum taking the steps of a fold from zero.
        """
        k = _folded_rows(self, prior)
        if k:
            qv, aq, az, qn, aqn, pn, sn, quad_shadow = prior[1:]
        else:
            qv = self.q_values(z)
            aq, az = np.abs(qv), np.abs(z)
            qn, aqn, pn = np.ones_like(qv), np.ones_like(aq), np.zeros_like(qv)
            sn = quad_shadow = np.zeros_like(aq)
        for _ in range(k, self.big_n):
            qn, aqn = qn * qv, aqn * aq
        pn = _horner((-_horner(c[::-1], z) for c in self.coeffs[k:]), qv, pn)
        sn = _horner((_horner(np.abs(c[::-1]), az) for c in self.coeffs[k:]), aq, sn)
        quad_shadow = _horner((_horner(nv[::-1], az) for nv in self.noise[k:]), aq, quad_shadow)
        head = np.abs(w) + self.analytic_part.abs_eval(az)
        cleared = (w - self.analytic_part(z)) * qn + pn, head * aqn + sn, quad_shadow
        return cleared, (self, qv, aq, az, qn, aqn, pn, sn, quad_shadow)


def _folded_rows(approx: RationalApproximant, prior) -> int:
    """The rows of the approximant leading the fold `prior` if `approx` has its q_m and
    analytic part and begins with its coefficient and noise rows, bit for bit; else 0."""
    if prior is None:
        return 0
    old, k = prior[0], prior[0].big_n
    pairs = ((approx.q_m.roots, old.q_m.roots), (approx.q_m.coeffs, old.q_m.coeffs),
             (approx.analytic_part.coeffs, old.analytic_part.coeffs),
             (approx.coeffs[:k], old.coeffs), (approx.noise[:k], old.noise))
    return k if all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in pairs) else 0


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


def _sample_contour(points: np.ndarray, q: PolynomialC, rho_floor: float) -> CircleContour:
    """Circle |z - c| = r around the sample with |q| >= margin*rho on all of it.

    For monic q, |q(z)| >= prod (r - |root - c|) on the whole circle by the
    reverse triangle inequality; r is where that bound, summed in logs,
    clears the bar, so no node is sampled.  The margin keeps the circle
    inside the region where the integrand series converges while staying
    snug: large circles make |q|^k on the nodes dwarf the coefficient
    integrals and destroy their conditioning.
    """
    center = complex(np.mean(points))
    base = float(np.max(np.abs(points - center)))
    gaps = np.abs(q.roots - center)
    bar = math.log(CONTOUR_MARGIN * rho_floor)

    def ok(r):
        return float(np.sum(np.log(r - gaps))) >= bar

    # a comfortable standoff keeps |f| tame on the nodes; circles hugging the
    # sample make functions with singularities there blow up and cost digits
    r = base + max(0.5 * base, 0.25)
    if not ok(r):
        # (r - base)^m <= prod (r - g_i), so the bound clears at hi
        lo, hi = r, base + math.exp(bar / len(gaps))
        for _ in range(50):  # bisect to the bound's boundary, keep the safe side
            mid = 0.5 * (lo + hi)
            if ok(mid):
                hi = mid
            else:
                lo = mid
        r = hi
    return CircleContour(center, r)


def build_approximant(f, sys: FeketeSystem, m: int, big_n: int, *,
                      quad_tol: float = 1e-10) -> RationalApproximant:
    """Assemble the order-(m, N) approximant of `f` from its Leja system.

    `f` is split into its polynomial part at infinity plus a principal part,
    and only the principal part is approximated; the polynomial part rides
    along exactly.  Coefficients are integrals over a counterclockwise circle
    around the sample (the one `_sample_contour` finds), which by holomorphy
    agree with integrals over any admissible level curve of |q_m|.  That
    circle is certified whole, not node by node: |q_m| >= 1.25 rho_m > rho_m
    on all of it, by the closed-form bound prod (r - |root - c|), and every
    sample point lies at least 1/4 away from it.  The trapezoid rows are kept on
    `sys.quad_rows`, so a build computes only rows no earlier build on `sys` did;
    the stop rule and the growth check still read exactly its own N rows.
    """
    if m < 1 or big_n < 1:
        raise ValueError("m and big_n must be >= 1")
    roots = sys.points[:m]
    if len(roots) < m:
        raise ValueError("Leja system shorter than requested m")
    q = poly_from_roots(roots)
    rho = rho_of(q, sys.base_set, N_SCALE)
    degenerate = rho < RHO_FLOOR
    rho_floor = max(rho, RHO_FLOOR)

    analytic, principal = f.split_at_infinity()
    contour = _sample_contour(sys.base_set.points, q, rho_floor)

    # node count -> (q^K on the nodes, K coefficient rows, K floor rows before eps), replaced whole
    saved = sys.quad_rows.setdefault((principal, m, contour), {})

    def integrals(rot, fv):  # only the rows that no earlier build on these nodes computed
        qpow, coeff, floor = saved.get(len(rot), (np.ones(len(rot), dtype=complex), (), ()))
        if len(coeff) < big_n:
            zeta = contour.center + contour.radius * rot
            qv, rows = q.eval_root_form(zeta), _kernel_rows(q, zeta)
            weights, abs_rows = contour.radius * rot / len(rot), np.abs(rows)
            coeff, floor = [*coeff], [*floor]
            for _ in range(len(coeff), big_n):
                terms = fv * qpow * weights
                coeff.append(rows @ terms)
                floor.append(abs_rows @ np.abs(terms))
                qpow = qpow * qv
            saved[len(rot)] = qpow, tuple(coeff), tuple(floor)
        return np.array(coeff[:big_n]), np.finfo(float).eps * np.array(floor[:big_n])

    quad = circle_trapezoid(principal, contour, integrals,
                            max(256, 1 << (4 * m - 1).bit_length()),
                            tol=quad_tol, max_nodes=MAX_APPROX_NODES)
    coeff = quad.value
    noise = np.maximum(quad.noise, np.finfo(float).eps * np.abs(coeff))

    if not degenerate and big_n >= 4:
        peaks = np.max(np.abs(coeff[-4:]), axis=1).tolist()
        tail = [(math.log(s) if s > 0 else -math.inf) - k * math.log(rho_floor)
                for k, s in zip(range(big_n - 4, big_n), peaks)]
        if all(b > a for a, b in zip(tail, tail[1:])):
            raise SeriesDiverging("scaled coefficient terms grew over the last 3 orders")

    return RationalApproximant(
        q_m=q,
        coeffs=coeff,
        noise=noise,
        floor=quad.floor,
        contour=contour,
        analytic_part=analytic,
        nodes=quad.nodes,
        converged=quad.converged,
    )


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Sup errors and degree-normalized errors over an approximation schedule."""

    entries: tuple  # (degree, sup_error, normalized_error, at_noise_floor)
    target_distance: float
    quadrature: tuple  # (nodes, converged, max floor) of each entry's approximant

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
                    "rounding_floor": floor,
                }
                for (d, e, ne, fl), (nodes, conv, floor) in zip(self.entries, self.quadrature)
            ],
            "target_distance": self.target_distance,
        }

    def to_csv_rows(self):
        yield ["degree", "sup_error", "normalized_error"]
        for d, e, ne, _ in self.entries:
            yield [str(int(d)), repr(e), repr(ne)]


def convergence_scan(f, sys: FeketeSystem, schedule, target: CompactSample, *,
                     quad_tol: float = 1e-10) -> ConvergenceReport:
    """Run `build_approximant` over a schedule and record sup errors on `target`.

    Sup errors at or below NOISE_FLOOR are reported with normalized error 0:
    the approximant is exact there up to quadrature noise and the degree-th
    root of that noise would say nothing about convergence.
    """
    degrees = [m * n for m, n in schedule]
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("schedule degrees must be strictly increasing")
    dist = float(np.min(sys.base_set.min_distance_to(target.points)))
    if dist <= 0:
        raise ValueError("target must keep positive distance from the sample")

    fv = _eval_on_nodes(f, target.points)
    entries, quadrature = [], []
    for m, n in schedule:
        try:
            approx = build_approximant(f, sys, m, n, quad_tol=quad_tol)
        except PolarhullError as e:
            raise type(e)(f"schedule entry (m={m}, N={n}): {e}") from e
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
            err = float(np.max(np.abs(fv - approx.eval(target.points))))
        if not math.isfinite(err):
            raise NodeEvaluationError(
                f"schedule entry (m={m}, N={n}): the approximant is not finite on the target")
        floored = err <= NOISE_FLOOR
        if floored:
            norm = 0.0
        else:
            norm = math.exp(math.log(err) / (m * n))
        entries.append((m * n, err, norm, floored))
        quadrature.append((approx.nodes, approx.converged, float(np.max(approx.floor))))
    return ConvergenceReport(entries=tuple(entries), target_distance=float(dist),
                             quadrature=tuple(quadrature))
