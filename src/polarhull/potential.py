"""One-variable potential theory: thinness tests and harmonic measure.

The Wiener test works on dyadic annuli around the query point and keeps two
one-sided capacity bounds per annulus: a contained segment/disk rule that can
only under-estimate (sound for a divergence verdict) and a per-disk radius
bound that can only over-estimate (sound for a convergence verdict).  The
report records which side drove the verdict.

Harmonic measure is estimated by walk-on-spheres with absorbing circles, or
by a five-point relaxation sweep on a Cartesian grid for cross-checking.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CircleContour,
    Disk,
    DiskUnion,
    PolarhullError,
    complex_to_pair,
)
from .models import ExpReciprocal, FunctionModel, PoleSeries, RecipSinPi

__all__ = [
    "UnsupportedFamily",
    "ThresholdTooSmall",
    "DepthOverflow",
    "PointInsideCover",
    "DivergentBase",
    "StartInsideTarget",
    "StartInsideObstacle",
    "InvalidBounds",
    "WienerReport",
    "ThinnessWitness",
    "MeasureEstimate",
    "sublevel_cover",
    "wiener_test",
    "witness_build",
    "harmonic_measure",
    "two_constants_check",
]


class UnsupportedFamily(PolarhullError):
    """No analytic sublevel cover is available for this function family."""


class ThresholdTooSmall(PolarhullError):
    """No valid cover certificate exists at this level threshold."""


class DepthOverflow(PolarhullError):
    """Requested annulus depth exceeds the supported range."""


class PointInsideCover(PolarhullError):
    """The thinness query point lies interior to a cover disk."""


class DivergentBase(PolarhullError):
    """The unweighted witness sum already diverges at this truncation."""


class StartInsideTarget(PolarhullError):
    pass


class StartInsideObstacle(PolarhullError):
    pass


class InvalidBounds(PolarhullError):
    """Two-constants bound called with H < C."""


# --------------------------------------------------------------------- covers

def sublevel_cover(f: FunctionModel, big_r: float, z0: complex = 0j,
                   radius: float = 1.0, *, pole_cap: int = 4096,
                   min_disk_radius: float = 1e-290) -> DiskUnion:
    """Family-specific disk cover of {|f| >= big_r} near z0.

    Pole series get disks about each pole with radius C sqrt(gamma_n), C the
    smallest power of two certifying sum |c_n|/r_n <= big_r.  exp(1/z) gets
    the exact level disk of re(1/z) >= log R.  1/sin(pi/z) gets rigorously
    inner disks (Moebius images of |eps| <= asinh(1/R)/(2 pi), a 2x margin on
    the linearized radius); when z0 is itself a pole, its own disk is replaced
    by a dyadic chain of inscribed disks so the query point stays exterior.
    """
    if isinstance(f, PoleSeries):
        return _pole_series_cover(f, big_r, min_disk_radius)
    if isinstance(f, ExpReciprocal):
        if big_r <= 1.0:
            raise ThresholdTooSmall("exp(1/z) cover needs big_r > 1")
        h = 0.5 / math.log(big_r)
        return DiskUnion([Disk(complex(h), h)])
    if isinstance(f, RecipSinPi):
        return _recip_sin_cover(f, big_r, z0, radius, pole_cap)
    raise UnsupportedFamily(f.family)


def _pole_series_cover(f: PoleSeries, big_r: float, min_disk_radius: float) -> DiskUnion:
    log_gamma = f.log_gamma_suffix()[: f.n_terms]
    # certificate sum |c_n| / (C sqrt(gamma_n)) computed in log space
    terms = np.exp(f.log_abs_c - 0.5 * log_gamma)
    needed = float(np.sum(terms)) / big_r
    if needed <= 0:
        raise ThresholdTooSmall("empty coefficient data")
    c_factor = 2.0 ** math.ceil(math.log2(needed))
    log_radii = math.log(c_factor) + 0.5 * log_gamma
    if np.any(log_radii >= np.log(np.abs(f.poles))):
        raise ThresholdTooSmall(
            "cover disks would swallow their poles; raise big_r or the truncation"
        )
    radii = np.maximum(np.exp(log_radii), min_disk_radius)
    # tail disks beyond the truncation shrink at the sqrt(gamma) rate, so the
    # deep annuli they would occupy contribute below any verdict tolerance
    return DiskUnion.from_arrays(f.poles, radii)


def _recip_sin_cover(f: RecipSinPi, big_r: float, z0: complex, radius: float,
                     pole_cap: int) -> DiskUnion:
    if big_r <= 1.0:
        raise ThresholdTooSmall("1/sin(pi/z) cover needs big_r > 1")
    # |sin(pi eps)| <= sinh(pi |eps|), so |eps| <= asinh(1/R)/pi certifies
    # |f| >= R; halving gives the 2x enclosure margin.
    rho = math.asinh(1.0 / big_r) / math.pi / 2.0
    z0 = complex(z0)
    # poles +1/n for ascending n, then -1/n
    n = np.tile(np.arange(1, pole_cap + 1, dtype=float), 2)
    sign = np.repeat([1.0, -1.0], pole_cap)
    gap = np.abs(sign / n - z0)
    denom = n * n - rho * rho
    centers, radii = sign * n / denom, rho / denom
    keep = gap <= radius + 1.0 / (n * n)
    # each disk spans 1/(n + rho)..1/(n - rho) on the axis, so with rho < 1/2
    # the disks are disjoint and z0 sits inside at most one pole's own disk
    own = np.flatnonzero(keep & (gap < radii))
    chain_depth = 0
    if own.size:
        i = own[0]
        chain_centers, chain_radii, chain_depth = _dyadic_chain(z0, radii[i], centers[i])
        keep[i] = False
        at = np.count_nonzero(keep[:i])
        centers = np.insert(centers[keep].astype(complex), at, chain_centers)
        radii = np.insert(radii[keep], at, chain_radii)
    else:
        centers, radii = centers[keep], radii[keep]
    if not radii.size:
        raise ThresholdTooSmall("no singular points inside the requested window")
    # poles with index beyond pole_cap are missing near 0; annuli around z0
    # deeper than their scale are truncation artifacts, not evidence
    if abs(z0) <= 2.0 / pole_cap:
        faithful = int(math.floor(math.log2(pole_cap))) - 1
    elif chain_depth:
        faithful = min(60, chain_depth - 2)
    else:
        faithful = 60
    return DiskUnion.from_arrays(centers, radii, faithful_depth=faithful)


def _dyadic_chain(z0: complex, region_radius: float, region_center: complex,
                  depth: int = 50) -> tuple[np.ndarray, np.ndarray, int]:
    """Inscribed disks D(z0 + 0.75 2^-k, 2^-k/4) inside a punctured disk at z0.

    They witness the full annulus occupancy of a set that surrounds z0 without
    ever containing z0, so the Wiener test precondition holds.  Returns the
    centers, the radii and the deepest dyadic scale reached.
    """
    slack = region_radius - abs(region_center - z0)
    k0 = max(1, math.ceil(-math.log2(max(slack, 1e-280))))
    k = np.arange(k0, k0 + depth)
    step = np.ldexp(1.0, -k)
    k, step = k[step >= 1e-280], step[step >= 1e-280]
    return z0 + 0.75 * step, step / 4.0, int(k[-1]) if k.size else k0


# ---------------------------------------------------------------- wiener test

@dataclass(frozen=True, eq=False)
class WienerReport:
    point: complex
    annuli: tuple          # (index, inner, outer, capacity_estimate)
    partial_sums: np.ndarray
    verdict: str           # THIN | NON_THIN | INCONCLUSIVE
    depth: int
    tolerance: float
    slope: float
    bound_used: str        # lower | upper | none
    partial_sums_lower: np.ndarray
    partial_sums_upper: np.ndarray

    def to_dict(self) -> dict:
        return {
            "point": complex_to_pair(self.point),
            "annuli": [
                {"index": int(i), "inner": a, "outer": b, "capacity_estimate": c}
                for i, a, b, c in self.annuli
            ],
            "partial_sums": [float(x) for x in self.partial_sums],
            "partial_sums_lower": [float(x) for x in self.partial_sums_lower],
            "partial_sums_upper": [float(x) for x in self.partial_sums_upper],
            "verdict": self.verdict,
            "depth": self.depth,
            "tolerance": self.tolerance,
            "slope": self.slope,
            "bound_used": self.bound_used,
        }


def wiener_test(cover: DiskUnion, point: complex, depth: int = 40, *,
                tolerance: float = 1e-3, slope: float = 0.1) -> WienerReport:
    """Dyadic-annulus Wiener sum around `point` with a two-sided verdict.

    NON_THIN requires the lower partial sums to majorize slope*n over the last
    10 depths; THIN requires the upper partial sum increments over the last 5
    depths to total below `tolerance`; anything else, or both at once, is
    INCONCLUSIVE.
    """
    if depth > 60:
        raise DepthOverflow("depth must be <= 60")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    point = complex(point)
    r = cover.radii
    dist = np.abs(cover.centers - point)
    inside = dist < r - 1e-15
    if inside.any():
        raise PointInsideCover(
            f"{point!r} interior to disk at {complex(cover.centers[inside][0])!r}")

    near, far = dist - r, dist + r
    annuli = []
    low_terms = np.zeros(depth)
    up_terms = np.zeros(depth)
    # one annulus at a time: a (depth x disks) broadcast costs depth times the memory
    for n in range(1, depth + 1):
        inner, outer = 2.0 ** (-n - 1), 2.0 ** (-n)
        meets = (near < outer) & (far > inner)
        # lower bound: a whole closed disk inside the annulus has cap = radius;
        # otherwise its radial diameter clipped to the annulus has cap = len/4
        whole = (near >= inner) & (far <= outer)
        seg = np.maximum(np.minimum(outer, far) - np.maximum(inner, near), 0.0) / 4.0
        cap_lo = float(np.where(whole, r, seg)[meets].max(initial=0.0))
        # upper bound: every meeting disk counts with cap <= min(radius, outer)
        up = float(np.sum(1.0 / np.log(1.0 / np.minimum(r[meets], min(outer, 0.5)))))
        if cap_lo > 0.0:
            low_terms[n - 1] = n / math.log(1.0 / min(cap_lo, 0.5))
        up_terms[n - 1] = n * up
        annuli.append((n, inner, outer, cap_lo))

    s_low = np.cumsum(low_terms)
    s_up = np.cumsum(up_terms)

    tail = min(10, depth)
    ns = np.arange(depth - tail + 1, depth + 1)
    non_thin = bool(np.all(s_low[-tail:] >= slope * ns))
    thin_window = min(5, depth)
    thin = bool(np.sum(up_terms[-thin_window:]) < tolerance)

    if non_thin and not thin:
        verdict, used, sums = "NON_THIN", "lower", s_low
    elif thin and not non_thin:
        verdict, used, sums = "THIN", "upper", s_up
    else:
        verdict, used, sums = "INCONCLUSIVE", "none", s_up
    return WienerReport(
        point=point, annuli=tuple(annuli), partial_sums=sums, verdict=verdict,
        depth=depth, tolerance=tolerance, slope=slope, bound_used=used,
        partial_sums_lower=s_low, partial_sums_upper=s_up,
    )


# ------------------------------------------------------------------ witnesses

@dataclass(frozen=True, eq=False)
class ThinnessWitness:
    """Explicit negative subharmonic witness for thinness at the origin.

    u(z) = sum alpha_n / log(1/r_n) * [log|z - a_n| - log(1 + |a_n|)], with
    disk-sup bounds sup_n = alpha_n [log r_n - log(1+|a_n|)] / log(1/r_n).
    """

    centers: np.ndarray
    radii: np.ndarray
    alphas: np.ndarray
    summands: np.ndarray
    value_at_point: float
    disk_sup_bounds: np.ndarray

    def eval(self, z) -> float:
        a = self.centers
        return float(np.sum(self.alphas / np.log(1.0 / self.radii)
                            * (np.log(np.abs(complex(z) - a)) - np.log(1.0 + np.abs(a)))))

    def to_dict(self) -> dict:
        return {
            "centers": [complex_to_pair(c) for c in self.centers],
            "radii": [float(r) for r in self.radii],
            "alphas": [float(a) for a in self.alphas],
            "summands": [float(s) for s in self.summands],
            "value_at_point": self.value_at_point,
            "disk_sup_bounds": [float(b) for b in self.disk_sup_bounds],
        }


def witness_build(a, r) -> ThinnessWitness:
    """Build the weighted log-distance witness for disks D(a_n, r_n).

    The weights alpha_n = min(n, s_n^{-1/2}) grow without bound while keeping
    the weighted sum finite at the truncation (s_n is the n-th unweighted
    convergence-check summand); a running max keeps them nondecreasing.
    """
    a = np.asarray(a, dtype=complex).ravel()
    r = np.asarray(r, dtype=float).ravel()
    if a.shape != r.shape:
        raise ValueError("centers and radii must have equal length")
    if len(a) == 0:
        return ThinnessWitness(a, r, np.array([]), np.array([]), 0.0, np.array([]))
    if np.any(r >= 1.0) or np.any(r <= 0.0):
        raise ValueError("radii must lie in (0, 1)")
    if np.any(np.abs(a) > 1.0):
        raise ValueError("centers must lie in the closed unit disk")

    s = np.log(np.abs(a) / (1.0 + np.abs(a))) / np.log(r)
    partial = np.cumsum(s)
    if len(s) >= 8:
        tail = partial[-1] - partial[3 * len(s) // 4 - 1]
        if tail > 0.25 * max(partial[-1], 1e-12) and tail > 0.5:
            raise DivergentBase("unweighted summand partial sums still growing")

    n_idx = np.arange(1, len(a) + 1, dtype=float)
    alphas = np.minimum(n_idx, 1.0 / np.sqrt(np.maximum(s, 1e-300)))
    alphas = np.maximum.accumulate(alphas)

    log_inv_r = np.log(1.0 / r)
    value = float(np.sum(alphas / log_inv_r * (np.log(np.abs(0.0 - a)) - np.log(1.0 + np.abs(a)))))
    sups = alphas / log_inv_r * (np.log(r) - np.log(1.0 + np.abs(a)))
    return ThinnessWitness(
        centers=a, radii=r, alphas=alphas, summands=alphas * s,
        value_at_point=value, disk_sup_bounds=sups,
    )


# ------------------------------------------------------------ harmonic measure

@dataclass(frozen=True)
class MeasureEstimate:
    value: float
    std_error: float
    walks: int
    seed: int
    method: str  # WOS | GRID
    iterations: int = 0  # GRID: SOR sweeps; WOS: step rounds until every walk was absorbed
    residual: float | None = None  # GRID: final max residual over free nodes

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("measure estimate out of [0, 1]")

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "walks": self.walks,
            "seed": self.seed,
            "method": self.method,
            "iterations": self.iterations,
            "residual": self.residual,
        }


def _target_disks(target) -> tuple[DiskUnion, bool]:
    """The target's absorbing circles as disks, and whether those disks are solid."""
    if isinstance(target, DiskUnion):
        return target, True
    if isinstance(target, (CircleContour, Disk)):
        return DiskUnion([Disk(target.center, target.radius)]), isinstance(target, Disk)
    raise TypeError("target must be a CircleContour, Disk, or DiskUnion")


def harmonic_measure(z, target, domain: Disk, obstacles: DiskUnion | None = None,
                     walks: int = 10000, seed: int = 0, *, method: str = "wos",
                     eps_abs: float | None = None, grid_n: int = 321,
                     max_steps: int = 200000) -> MeasureEstimate:
    """Estimate the harmonic function with value 1 on `target`, 0 elsewhere.

    The walk-on-spheres estimator steps to a uniform point on the largest
    circle that avoids every absorbing surface and scores 1 when it lands
    within the absorption shell of the target.  Isolated polar points are
    never hit, matching the theory.  Fixed (seed, walks) give reproducible
    results; std_error is the sample standard deviation over walks.
    """
    z = complex(z)
    obstacles = obstacles or DiskUnion([])
    targets, solid = _target_disks(target)
    eps = eps_abs if eps_abs is not None else 1e-4 * domain.radius

    in_target = solid & (np.abs(z - targets.centers) < targets.radii - eps)
    if in_target.any():
        raise StartInsideTarget(
            f"start {z!r} inside target disk at {complex(targets.centers[in_target][0])!r}")
    in_obstacle = np.abs(z - obstacles.centers) < obstacles.radii - eps
    if in_obstacle.any():
        raise StartInsideObstacle(
            f"start {z!r} inside obstacle at {complex(obstacles.centers[in_obstacle][0])!r}")
    if abs(z - domain.center) >= domain.radius:
        raise ValueError("start point must lie inside the domain")

    # absorbing surfaces: targets, the domain circle unless a target circle
    # coincides with it, obstacles; every surface but the domain circle is a curve
    dom_c, dom_r = complex(domain.center), float(domain.radius)
    on_boundary = ((np.abs(dom_c - targets.centers) < 1e-12)
                   & (np.abs(dom_r - targets.radii) < 1e-12))
    n_t, n_dom = len(targets), 0 if on_boundary.any() else 1
    centers = np.concatenate([targets.centers, np.full(n_dom, dom_c), obstacles.centers])
    radii = np.concatenate([targets.radii, np.full(n_dom, dom_r), obstacles.radii])
    scores = np.repeat([1.0, 0.0], [n_t, n_dom + len(obstacles)])
    curve = np.ones(len(radii), dtype=bool)
    curve[n_t : n_t + n_dom] = False
    if method == "grid":
        # fixed disks: targets and obstacles, less a target on the domain circle
        disks = curve.copy()
        disks[:n_t] = ~on_boundary
        return _grid_measure(z, centers[disks], radii[disks], scores[disks], domain,
                             1.0 - n_dom, grid_n)
    if method != "wos":
        raise ValueError("method must be 'wos' or 'grid'")

    rng = np.random.default_rng(seed)
    pos = np.full(walks, z, dtype=complex)
    result = np.zeros(walks)
    active = np.ones(walks, dtype=bool)
    rounds = 0  # only rounds that find an active walk use the budget
    while active.any():
        if rounds == max_steps:
            raise PolarhullError("walk-on-spheres failed to absorb within step budget")
        rounds += 1
        idx = np.nonzero(active)[0]
        p = pos[idx]
        d = np.abs(p[:, None] - centers[None, :])
        dist = np.where(curve[None, :], np.abs(d - radii[None, :]),
                        radii[None, :] - d)
        nearest = np.argmin(dist, axis=1)
        dmin = dist[np.arange(len(idx)), nearest]
        hit = dmin < eps
        result[idx[hit]] = scores[nearest[hit]]
        active[idx[hit]] = False
        move = ~hit
        if np.any(move):
            theta = rng.uniform(0.0, 2.0 * np.pi, size=int(np.sum(move)))
            pos[idx[move]] = p[move] + dmin[move] * np.exp(1j * theta)

    value = float(np.mean(result))
    std_error = float(np.std(result, ddof=1) / math.sqrt(walks)) if walks > 1 else 0.0
    return MeasureEstimate(value=min(max(value, 0.0), 1.0), std_error=std_error,
                           walks=walks, seed=seed, method="WOS", iterations=rounds)


def _grid_measure(z, centers, radii, values, domain: Disk, boundary_value: float,
                  grid_n: int, tol: float = 1e-8) -> MeasureEstimate:
    """Five-point relaxation cross-check on a Cartesian grid (red-black SOR).

    The grid holds `boundary_value` outside the domain and values[i] on the
    closed disk i, later disks overriding earlier ones.  `_sor` relaxes the
    free nodes on the four sub-lattices u[a::2, b::2], each of one colour;
    the estimate is the bilinear interpolation at z.
    """
    R = domain.radius
    ax = np.linspace(domain.center.real - R, domain.center.real + R, grid_n)
    ay = np.linspace(domain.center.imag - R, domain.center.imag + R, grid_n)
    X, Y = np.meshgrid(ax, ay)
    Z = X + 1j * Y

    u = np.zeros_like(X)
    fixed = np.zeros(X.shape, dtype=bool)

    outside = np.abs(Z - domain.center) >= R
    u[outside] = boundary_value
    fixed |= outside
    # one mask per disk: a (grid x disks) broadcast would hold them all at once
    for c, r, value in zip(centers, radii, values):
        inside = np.abs(Z - c) <= r
        u[inside] = value
        fixed |= inside

    h = ax[1] - ax[0]
    omega = 2.0 / (1.0 + math.sin(math.pi * h / (2 * R)))
    free = np.zeros(X.shape, dtype=bool)
    free[1:-1, 1:-1] = ~fixed[1:-1, 1:-1]
    sweeps, residual = _sor(u, free, omega, tol)

    # bilinear interpolation at the query point
    x = (z.real - ax[0]) / h
    y = (z.imag - ay[0]) / h
    i0, j0 = int(np.clip(math.floor(y), 0, grid_n - 2)), int(np.clip(math.floor(x), 0, grid_n - 2))
    fx, fy = x - j0, y - i0
    val = (
        u[i0, j0] * (1 - fx) * (1 - fy)
        + u[i0, j0 + 1] * fx * (1 - fy)
        + u[i0 + 1, j0] * (1 - fx) * fy
        + u[i0 + 1, j0 + 1] * fx * fy
    )
    return MeasureEstimate(value=float(np.clip(val, 0.0, 1.0)), std_error=0.0,
                           walks=int(np.sum(free)), seed=0, method="GRID",
                           iterations=sweeps, residual=residual)


def _sor(u: np.ndarray, free: np.ndarray, omega: float, tol: float) -> tuple[int, float]:
    """Red-black SOR on `u` in place until max |stencil - u| over `free` < tol.

    `free` must be False on the border rows and columns.  The sweeps run on
    four contiguous sub-lattices u[a::2, b::2]: red is (0, 0) and (1, 1),
    black (0, 1) and (1, 0).  Every neighbour of a node lies on a lattice of
    the other colour, so a colour is updated in place from shifted slices of
    the other colour's lattices, with weight omega on free nodes and 0 on
    fixed ones.  The neighbours are added up, down, left, right and then
    scaled by 1/4, the order of the whole-grid stencil, so every iterate is
    bitwise that of the whole-grid masked update.  The residual is checked
    after every sweep.  Returns the sweep count and the final residual.
    """
    rows, cols = u.shape

    def interior(a, n, shift=0):
        # lattice indices p of the nodes 2p + a in 1..n-2, shifted by `shift`
        return slice(1 - a + shift, (n - a) // 2 + shift)

    lat = {(a, b): np.ascontiguousarray(u[a::2, b::2]) for a in (0, 1) for b in (0, 1)}
    plan = []
    for a, b in ((0, 0), (1, 1), (0, 1), (1, 0)):  # red, then black
        r, c = interior(a, rows), interior(b, cols)
        vert, horiz = lat[1 - a, b], lat[a, 1 - b]
        neighbours = (vert[interior(a, rows, a - 1), c], vert[interior(a, rows, a), c],
                      horiz[r, interior(b, cols, b - 1)], horiz[r, interior(b, cols, b)])
        mask = free[a::2, b::2][r, c]
        plan.append((lat[a, b][r, c], neighbours, np.where(mask, omega, 0.0),
                     mask.astype(float), np.empty(mask.shape), np.empty(mask.shape)))

    def stencil(neighbours, out):
        up, down, left, right = neighbours
        np.add(up, down, out=out)
        out += left
        out += right
        out *= 0.25

    for sweep in range(1, 200001):
        for node, neighbours, weight, _, nb, step in plan:
            stencil(neighbours, nb)
            np.subtract(nb, node, out=step)
            step *= weight
            node += step
        residual = 0.0
        for k, (node, neighbours, _, is_free, nb, res) in enumerate(plan):
            if k < 2:  # the black update moved the red lattices' neighbours
                stencil(neighbours, nb)
            np.subtract(nb, node, out=res)
            np.abs(res, out=res)
            res *= is_free
            residual = max(residual, float(res.max(initial=0.0)))
        if residual < tol:
            break
    else:
        raise PolarhullError("grid relaxation did not reach the residual target")
    for (a, b), sub in lat.items():
        u[a::2, b::2] = sub
    return sweep, residual


# ------------------------------------------------------------- two constants

def two_constants_check(h_values: dict, omega: MeasureEstimate) -> float:
    """Interpolated bound H - (H - C)*omega from the two-constants theorem."""
    H, C = float(h_values["H"]), float(h_values["C_nk"])
    if H < C:
        raise InvalidBounds(f"H={H} < C_nk={C}")
    bound = H - (H - C) * omega.value
    if omega.value >= 0.5:
        assert bound <= 0.5 * (H + C) + 1e-12
    return bound
