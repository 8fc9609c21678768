"""Shared numeric foundation: complex samples, polynomials, circles, quadrature.

All types in this module are immutable values and all operations are pure
functions, so everything is safe to share between threads.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "PolarhullError",
    "NodeEvaluationError",
    "Disk",
    "DiskUnion",
    "CompactSample",
    "PolynomialC",
    "CircleContour",
    "Quadrature",
    "circle_trapezoid",
    "poly_eval",
    "poly_from_roots",
    "pointwise",
    "sup_norm",
    "as_complex_array",
    "complex_to_pair",
]


class PolarhullError(Exception):
    """Base class for every error raised by this library."""


class NodeEvaluationError(PolarhullError):
    """A function failed to produce a finite value at a required node."""


def as_complex_array(values) -> np.ndarray:
    """Coerce scalars / sequences to a flat complex128 array."""
    return np.atleast_1d(np.asarray(values, dtype=complex)).ravel()


def complex_to_pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def pointwise(fn):
    """Evaluate `fn(obj, *points)` on complex arrays; scalar points run as one-element arrays.

    The positional arguments after the first (the polynomial, model or
    approximant being evaluated) are points.  Arrays are passed on as complex
    arrays.  When every point is a scalar, each runs as a shape-(1,) array and
    the value comes back as a Python complex, or float for a real result:
    numpy's complex scalar arithmetic rounds differently from its array loops,
    so this keeps a point value bitwise equal to the same point in a grid.
    """
    @functools.wraps(fn)
    def evaluate(obj, *points, **kwargs):
        points = [np.asarray(p, dtype=complex) for p in points]
        if any([p.ndim for p in points]):
            return fn(obj, *points, **kwargs)
        return fn(obj, *(p.reshape(1) for p in points), **kwargs).item()
    return evaluate


def _eval_on_nodes(f, nodes: np.ndarray, what: str = "integrand") -> np.ndarray:
    """Evaluate `f` at all nodes, accepting both vectorized and scalar callables."""
    try:
        vals = np.asarray(f(nodes), dtype=complex)
        if vals.shape != nodes.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([complex(f(z)) for z in nodes])
    if not np.all(np.isfinite(vals)):
        bad = nodes[~np.isfinite(vals)][:1]
        raise NodeEvaluationError(f"{what} is not finite at node {bad[0]!r}")
    return vals


@dataclass(frozen=True)
class Disk:
    """Open disk |z - center| < radius."""

    center: complex
    radius: float

    def __post_init__(self):
        if not (np.isfinite(self.center) and math.isfinite(self.radius)):
            raise ValueError("disk center/radius must be finite")
        if self.radius <= 0:
            raise ValueError("disk radius must be positive")

    def contains(self, z, strict_margin: float = 0.0) -> bool:
        return abs(complex(z) - self.center) < self.radius - strict_margin

    def to_dict(self) -> dict:
        return {"center": complex_to_pair(self.center), "radius": self.radius}


@dataclass(frozen=True, eq=False)
class DiskUnion:
    """Ordered finite union of open disks, held as center and radius arrays.

    `faithful_depth` is how many dyadic annuli about a point the union speaks
    for: a cover of a truncated family may look empty deeper in only because
    of the truncation, so thinness tests read no evidence past it.
    """

    centers: np.ndarray
    radii: np.ndarray
    faithful_depth: int = 60

    def __init__(self, disks=(), faithful_depth: int = 60):
        disks = tuple(disks)
        self._set([d.center for d in disks], [d.radius for d in disks], faithful_depth)

    @classmethod
    def from_arrays(cls, centers, radii, faithful_depth: int = 60) -> "DiskUnion":
        """Union of the disks D(centers[i], radii[i]), checked as `Disk` checks one."""
        return cls.__new__(cls)._set(centers, radii, faithful_depth)

    def _set(self, centers, radii, faithful_depth) -> "DiskUnion":
        centers = np.array(centers, dtype=complex).ravel()
        radii = np.array(radii, dtype=float).ravel()
        if centers.shape != radii.shape:
            raise ValueError("centers and radii must have equal length")
        if not (np.isfinite(centers).all() and np.isfinite(radii).all()):
            raise ValueError("disk center/radius must be finite")
        if np.any(radii <= 0):
            raise ValueError("disk radius must be positive")
        for name, value in (("centers", centers), ("radii", radii)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "faithful_depth", int(faithful_depth))
        return self

    @property
    def disks(self) -> tuple:
        return tuple(self)

    def __len__(self):
        return len(self.radii)

    def __iter__(self):
        return (Disk(c, r) for c, r in zip(self.centers.tolist(), self.radii.tolist()))

    def contains(self, z, strict_margin: float = 0.0) -> bool:
        return bool(np.any(np.abs(complex(z) - self.centers) < self.radii - strict_margin))

    def to_dict(self) -> dict:
        return {"disks": [d.to_dict() for d in self]}


_DUPLICATE_TOL = 1e-14


@dataclass(frozen=True)
class CompactSample:
    """Finite point sample standing in for a compact set.

    Tolerance metadata travels with the sample; the library never represents
    uncountable sets exactly.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    tol: float = 1e-12

    def __init__(self, points, labels=None, tol: float = 1e-12):
        pts = as_complex_array(points)
        if pts.size == 0:
            raise ValueError("sample must be nonempty")
        _check_no_duplicates(pts)
        object.__setattr__(self, "points", pts)
        if labels is not None:
            labels = np.asarray(labels, dtype=int).ravel()
            if labels.shape != pts.shape:
                raise ValueError("labels must match points")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "tol", float(tol))

    def __len__(self):
        return len(self.points)

    @pointwise
    def min_distance_to(self, z):
        """min |z - p| over the sample points p, for each entry of z.

        The sample is taken in blocks, so no temporary holds more entries
        than the larger of z and the sample.
        """
        step = max(1, len(self.points) // max(z.size, 1))
        out = np.full(z.shape, np.inf)
        for lo in range(0, len(self.points), step):
            near = np.abs(z[..., None] - self.points[lo : lo + step])
            np.minimum(out, np.min(near, axis=-1), out=out)
        return out

    def to_dict(self) -> dict:
        return {
            "points": [complex_to_pair(p) for p in self.points],
            "labels": None if self.labels is None else self.labels.tolist(),
            "tol": self.tol,
        }


def _check_no_duplicates(pts: np.ndarray) -> None:
    """Reject two points within 1e-14 of each other, in O(n log n).

    A pair that close shares a cell of side 3e-14 in at least one of four
    grids offset by half a cell along each axis.  A cell holds at most 25
    points pairwise farther apart, so comparing each point with the next few
    of its cell suffices.
    """
    if len(pts) < 2:
        return
    cell = 3.0 * _DUPLICATE_TOL
    for sx, sy in ((0, 0), (0, 0.5), (0.5, 0), (0.5, 0.5)):
        keys = np.floor(pts.real / cell + sx) + 1j * np.floor(pts.imag / cell + sy)
        order = np.argsort(keys)  # complex keys sort lexicographically: cells become runs
        keys, near = keys[order], pts[order]
        for s in range(1, len(pts)):
            same = keys[s:] == keys[:-s]
            if not same.any():
                break
            if np.any(np.abs(near[s:] - near[:-s])[same] <= _DUPLICATE_TOL):
                raise ValueError("sample contains duplicate points (within 1e-14)")


@dataclass(frozen=True, eq=False)
class PolynomialC:
    """Complex polynomial, coefficients in ascending degree.

    When built by `poly_from_roots` the roots are retained so that |p(z)| can
    be evaluated in factored form; the product of distances is far more stable
    than the expanded coefficients for clustered roots.
    """

    coeffs: np.ndarray
    roots: np.ndarray | None = None

    def __init__(self, coeffs, roots=None):
        c = as_complex_array(coeffs)
        # trim trailing zeros but keep at least the constant term
        nz = np.nonzero(np.abs(c) > 0)[0]
        c = c[: nz[-1] + 1] if nz.size else c[:1]
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(
            self, "roots", None if roots is None else as_complex_array(roots)
        )

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0

    def __call__(self, z):
        return poly_eval(self, z)

    def _fold_roots(self, step, start, z):
        """step(acc, z - root) folded over the retained roots, in their order."""
        if self.roots is None:
            raise ValueError("polynomial was not built from roots")
        out = start
        for r in self.roots:
            out = step(out, z - r)
        return out

    @pointwise
    def eval_root_form(self, z):
        """Evaluate as a monic product of (z - root); requires retained roots."""
        return self._fold_roots(operator.mul, np.ones_like(z), z) * self.coeffs[-1]

    @pointwise
    def log_abs_root_form(self, z):
        """log|p(z)| as a sum of log-distances (avoids over/underflow)."""
        with np.errstate(divide="ignore"):
            out = self._fold_roots(lambda acc, d: acc + np.log(np.abs(d)),
                                   np.zeros(z.shape, dtype=float), z)
        return out + math.log(abs(self.coeffs[-1]))

    def abs_eval(self, r):
        """Evaluate sum_i |c_i| r^i at a nonnegative radius (error shadow)."""
        return _horner(np.abs(self.coeffs[::-1]), np.asarray(r, dtype=float))

    def to_dict(self) -> dict:
        d = {"coeffs": [complex_to_pair(c) for c in self.coeffs]}
        if self.roots is not None:
            d["roots"] = [complex_to_pair(r) for r in self.roots]
        return d


ZERO_POLY = PolynomialC([0.0])


def _horner(high_first, x):
    """Horner's rule for the polynomial in x with coefficients `high_first`.

    The coefficients run from the highest power down to the constant; each
    may be a scalar or an array that broadcasts against the array x, and
    `high_first` may be a generator, so array coefficients are made one at a
    time.  The running sum starts from zeros shaped like x.
    """
    out = np.zeros_like(x)
    for c in high_first:
        out = out * x + c
    return out


@pointwise
def poly_eval(p: PolynomialC, z):
    """Horner evaluation of p at z (scalar or array)."""
    return _horner(p.coeffs[::-1], z)


def poly_from_roots(roots) -> PolynomialC:
    """Monic polynomial with exactly the given roots (with multiplicity)."""
    roots = np.asarray(roots, dtype=complex).ravel()
    coeffs = np.array([1.0 + 0j])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0 + 0j]))
    return PolynomialC(coeffs, roots=roots)


@dataclass(frozen=True)
class CircleContour:
    """Circle used as an integration path, counterclockwise."""

    center: complex
    radius: float
    node_count: int = 256

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("contour radius must be positive")
        if self.node_count < 16 or self.node_count % 2:
            raise ValueError("node_count must be even and >= 16")

    def nodes(self, n: int | None = None) -> np.ndarray:
        n = self.node_count if n is None else n
        theta = 2.0 * np.pi * np.arange(n) / n
        return self.center + self.radius * np.exp(1j * theta)

    def to_dict(self) -> dict:
        return {
            "center": complex_to_pair(self.center),
            "radius": self.radius,
            "node_count": self.node_count,
        }


MAX_QUAD_NODES = 2**16


class Quadrature(NamedTuple):
    value: complex | np.ndarray
    noise: float | np.ndarray   # |last - previous|, inf if never doubled
    nodes: int                  # per circle, at the last doubling
    converged: bool             # False when max_nodes came first


def circle_trapezoid(f, circles, reduce, n0: int, *, tol: float,
                     max_nodes: int) -> Quadrature:
    """Periodic trapezoid rule on circles, doubling the nodes until it settles.

    Each circle gets nodes c + r*rot with rot = exp(2 pi i j/n), n = n0 first;
    `reduce(circle, rot, vals)` turns one circle's values of `f` into the
    wanted quantity, summed over the circles.  A doubling keeps the old nodes
    and evaluates `f` only on the new odd ones.  It stops once
    max|new - old| <= tol * max(1, max|new|), or at `max_nodes`.
    """
    n = n0
    rot = np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
    vals = [_eval_on_nodes(f, c.center + c.radius * rot) for c in circles]
    value = sum(reduce(c, rot, v) for c, v in zip(circles, vals))
    noise = np.full_like(np.abs(value), np.inf)
    while n < max_nodes:
        n *= 2
        odd = np.exp(1j * (2.0 * np.pi * np.arange(1, n, 2) / n))
        # ravel of the stacked (old, odd) pair in Fortran order interleaves them
        rot = np.ravel([rot, odd], order="F")
        vals = [np.ravel([v, _eval_on_nodes(f, c.center + c.radius * odd)], order="F")
                for c, v in zip(circles, vals)]
        new = sum(reduce(c, rot, v) for c, v in zip(circles, vals))
        noise, value = np.abs(new - value), new
        if np.max(noise) <= tol * max(1.0, float(np.max(np.abs(new)))):
            return Quadrature(value, noise, n, True)
    return Quadrature(value, noise, n, False)


def sup_norm(f, sample: CompactSample) -> float:
    """max |f| over the sample points."""
    vals = _eval_on_nodes(f, sample.points, what="function")
    return float(np.max(np.abs(vals)))
