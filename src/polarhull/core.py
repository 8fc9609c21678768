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
    "poly_from_roots",
    "pointwise",
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
    A function that returns a tuple of arrays returns a tuple of such values.
    """
    @functools.wraps(fn)
    def evaluate(obj, *points, **kwargs):
        points = [np.asarray(p, dtype=complex) for p in points]
        if any([p.ndim for p in points]):
            return fn(obj, *points, **kwargs)
        out = fn(obj, *(p.reshape(1) for p in points), **kwargs)
        return tuple(v.item() for v in out) if isinstance(out, tuple) else out.item()
    return evaluate


def _eval_on_nodes(f, nodes: np.ndarray) -> np.ndarray:
    """Evaluate the vectorized callable `f` on the node array in one call."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        vals = np.asarray(f(nodes), dtype=complex)
    if vals.shape != nodes.shape:
        raise NodeEvaluationError(
            f"function returned shape {vals.shape} on nodes of shape {nodes.shape}")
    if not np.all(np.isfinite(vals)):
        bad = nodes[~np.isfinite(vals)][:1]
        raise NodeEvaluationError(f"function is not finite at node {complex(bad[0])}")
    return vals


@dataclass(frozen=True)
class CircleContour:
    """Circle |z - center| = radius, counterclockwise, and the open disk it bounds."""

    center: complex
    radius: float

    def __post_init__(self):
        if not (np.isfinite(self.center) and math.isfinite(self.radius)):
            raise ValueError("circle center/radius must be finite")
        if self.radius <= 0:
            raise ValueError("circle radius must be positive")

    def nodes(self, n: int) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(n) / n
        return self.center + self.radius * np.exp(1j * theta)


Disk = CircleContour  # the same class, named for the open disk


@dataclass(frozen=True, eq=False)
class DiskUnion:
    """Ordered finite union of open disks, held as center and radius arrays.

    `side` says how the union stands to the set S it covers: "inner" (every
    disk lies in S), "outer" (the union contains S) or "exact" (the union
    is S).  A lower capacity bound speaks for S only from a union that is
    not outer, an upper bound only from one that is not inner.
    """

    centers: np.ndarray
    radii: np.ndarray
    side: str

    def __init__(self, disks):
        disks = tuple(disks)
        self._set([d.center for d in disks], [d.radius for d in disks], "exact")

    @classmethod
    def from_arrays(cls, centers, radii, side: str) -> "DiskUnion":
        """Union of the disks D(centers[i], radii[i]), each checked as a `CircleContour`."""
        return cls.__new__(cls)._set(centers, radii, side)

    def _set(self, centers, radii, side) -> "DiskUnion":
        if side not in ("inner", "outer", "exact"):
            raise ValueError(f"side must be 'inner', 'outer' or 'exact', got {side!r}")
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
        object.__setattr__(self, "side", side)
        return self

    def __len__(self):
        return len(self.radii)

    def __iter__(self):
        return (CircleContour(c, r) for c, r in zip(self.centers.tolist(), self.radii.tolist()))


MAX_DEPTH = 60  # the deepest annulus a Wiener test reads is 2^-61 < |z - point| < 2^-60

_DUPLICATE_TOL = 1e-14
# how near a sample point counts as on it; written into every sample's record
SAMPLE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CompactSample:
    """Finite point sample standing in for a compact set.

    The library never represents uncountable sets exactly; a point within
    SAMPLE_TOL of a sample point counts as that point.  Every point is finite.
    """

    points: np.ndarray

    def __init__(self, points):
        pts = as_complex_array(points)
        if pts.size == 0:
            raise ValueError("sample must be nonempty")
        if not np.isfinite(pts).all():
            raise ValueError("sample points must be finite")
        _check_no_duplicates(pts)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    @pointwise
    def min_distance_to(self, z):
        """min |z - p| over the sample points p, for each entry of z.

        The sample is taken in blocks, so no temporary holds more entries
        than the larger of z and the sample (one point when z is the larger).
        """
        step = len(self.points) // max(z.size, 1)
        out = np.full(z.shape, np.inf)
        for lo in range(0, len(self.points), max(step, 1)):
            near = (np.abs(z - self.points[lo]) if step <= 1 else
                    np.min(np.abs(z[..., None] - self.points[lo : lo + step]), axis=-1))
            np.minimum(out, near, out=out)
        return out

    def to_dict(self) -> dict:
        return {
            "points": [complex_to_pair(p) for p in self.points],
            "tol": SAMPLE_TOL,
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

    @pointwise
    def __call__(self, z):
        """Horner evaluation at z (scalar or array)."""
        return _horner(self.coeffs[::-1], z)

    def _fold_roots(self, step, start, z):
        """step(acc, z - root) folded over the retained roots, in their order.

        The difference is bound to a name so that numpy never treats it as
        an elidable temporary: past its elision threshold (256 KiB) numpy
        computes `acc * (z - r)` in place as `(z - r) * acc`, and complex
        products are not bitwise commutative, so a point's value would depend
        on the size of its array.  No in-place ufunc call either: with `out`
        aliasing an operand, numpy rounds a one-element complex product
        differently.
        """
        if self.roots is None:
            raise ValueError("polynomial was not built from roots")
        out = start
        for r in self.roots:
            d = z - r
            out = step(out, d)
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


ZERO_POLY = PolynomialC([0.0])


def _horner(high_first, x, start=None):
    """Horner's rule for the polynomial in x with coefficients `high_first`.

    The coefficients run from the highest power down to the constant; each
    may be a scalar or an array that broadcasts against the array x, and
    `high_first` may be a generator, so array coefficients are made one at a
    time.  The running sum starts from zeros shaped like x, or from `start`:
    a fold that resumes at a later row passes its running sum so far.
    """
    out = np.zeros_like(x) if start is None else start
    for c in high_first:
        out = out * x + c
    return out


def poly_from_roots(roots) -> PolynomialC:
    """Monic polynomial with exactly the given roots (with multiplicity)."""
    roots = np.asarray(roots, dtype=complex).ravel()
    coeffs = np.array([1.0 + 0j])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0 + 0j]))
    return PolynomialC(coeffs, roots=roots)


MAX_QUAD_NODES = 2**16
# a doubling whose differences all lie within this factor of their rounding
# floor is the last: more nodes cannot make two results agree more closely
QUAD_FLOOR_FACTOR = 16


class Quadrature(NamedTuple):
    value: complex | np.ndarray
    noise: float | np.ndarray   # |last - previous|, inf if never doubled
    floor: float | np.ndarray   # rounding floor of value, from `reduce`
    nodes: int                  # at the last doubling
    converged: bool             # false at the cap or at the rounding floor


def circle_trapezoid(f, circle: CircleContour, reduce, n0: int, *, tol: float,
                     max_nodes: int) -> Quadrature:
    """Periodic trapezoid rule on a circle, doubling the nodes until it settles.

    The nodes are c + r*rot with rot = exp(2 pi i j/n), n = n0 first;
    `reduce(rot, vals)` turns the values of `f` there into the wanted
    quantity and its entrywise rounding floor, the error that summing those
    values alone may leave.  A doubling keeps the old nodes and evaluates
    `f` only on the new odd ones.  It stops, converged, once max|new - old|
    <= tol * max(1, max|new|).  `converged` is false at the cap or at the
    rounding floor: at `max_nodes`, or as soon as every |new - old| lies
    within QUAD_FLOOR_FACTOR of its floor, where more nodes cannot help.
    An `n0` above `max_nodes` raises ValueError, and a reduction that is not
    finite, value or floor, raises NodeEvaluationError at once.
    """
    if n0 > max_nodes:
        raise ValueError(f"quadrature would start at {n0} nodes, above its cap of {max_nodes}")

    def reduce_finite(rot, vals):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
            value, floor = reduce(rot, vals)
        if not (np.all(np.isfinite(value)) and np.all(np.isfinite(floor))):
            raise NodeEvaluationError(f"quadrature is not finite on {len(rot)} nodes")
        return value, floor

    n = n0
    rot = np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
    vals = _eval_on_nodes(f, circle.center + circle.radius * rot)
    value, floor = reduce_finite(rot, vals)
    noise = np.full_like(np.abs(value), np.inf)
    while n < max_nodes:
        n *= 2
        odd = np.exp(1j * (2.0 * np.pi * np.arange(1, n, 2) / n))
        # ravel of the stacked (old, odd) pair in Fortran order interleaves them
        rot = np.ravel([rot, odd], order="F")
        vals = np.ravel([vals, _eval_on_nodes(f, circle.center + circle.radius * odd)],
                        order="F")
        new, floor = reduce_finite(rot, vals)
        noise, value = np.abs(new - value), new
        if np.max(noise) <= tol * max(1.0, float(np.max(np.abs(new)))):
            return Quadrature(value, noise, floor, n, True)
        if np.all(noise <= QUAD_FLOOR_FACTOR * floor):
            break
    return Quadrature(value, noise, floor, n, False)
