"""One-variable potential theory: thinness tests and harmonic measure.

The Wiener test works on dyadic annuli around the query point and keeps two
one-sided capacity bounds per annulus: a contained segment/disk rule that
under-estimates the capacity of the union (a divergence verdict) and a
per-disk radius bound that over-estimates it (a convergence verdict).  Each
bound speaks for the sublevel set only from a cover on its side: the lower
one from disks inside the set, the upper one from disks that cover it (see
`DiskUnion.side`).  The report records the cover's side and which bound
drove the verdict.  A fiber's levels share one pass (`_wiener_sums`); the
`potential=` hook of `classify_fiber` supplies only their covers.

Harmonic measure is estimated by walk-on-spheres with absorbing circles, or
by a five-point relaxation sweep on a Cartesian grid for cross-checking; the
grid refuses a target circle narrower than its step.  A walk-on-spheres round
keeps a running minimum of the walks' distances to the surfaces, the target's
first, and an absorbed walk scores 1 when its target distance is that minimum.
"""
from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .core import MAX_DEPTH, CircleContour, DiskUnion, PolarhullError, complex_to_pair
from .models import ThresholdTooSmall

__all__ = [
    "ThresholdTooSmall",
    "StartInsideObstacle",
    "WienerReport",
    "MeasureEstimate",
    "sublevel_cover",
    "wiener_test",
    "harmonic_measure",
]


class StartInsideObstacle(PolarhullError):
    pass


# --------------------------------------------------------------------- covers

def sublevel_cover(f, big_r: float) -> DiskUnion:
    """The model's disk cover `f.cover(big_r)` of {|f| >= big_r}; it depends on (f, big_r) alone.

    Its `side` says which Wiener bound it certifies, and the model raises
    ThresholdTooSmall at a level outside its range (see each model's
    `cover`).  A disk may contain the query point; it then refuses THIN.
    """
    return f.cover(big_r)


# ---------------------------------------------------------------- wiener test

WIENER_TOLERANCE = 1e-3
WIENER_SLOPE = 0.1
_EDGES = np.ldexp(1.0, -np.arange(1, MAX_DEPTH + 2))  # the annulus edges 2^-1 .. 2^-61
_NS = np.arange(1, MAX_DEPTH + 1)  # the annulus indices 1 .. MAX_DEPTH


@dataclass(frozen=True, eq=False)
class WienerReport:
    point: complex
    annuli: tuple          # (index, inner, outer, capacity_estimate)
    partial_sums: np.ndarray
    verdict: str           # THIN | NON_THIN | INCONCLUSIVE
    depth: int
    bound_used: str        # lower | upper | none
    partial_sums_lower: np.ndarray
    partial_sums_upper: np.ndarray
    cover_disks: int
    cover_side: str        # inner | outer | exact, see DiskUnion.side

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
            "cover_disks": self.cover_disks,
            "cover_side": self.cover_side,
            "tolerance": WIENER_TOLERANCE,
            "slope": WIENER_SLOPE,
            "bound_used": self.bound_used,
        }


def wiener_test(cover: DiskUnion, point: complex, depth: int = 40) -> WienerReport:
    """Dyadic-annulus Wiener sums around `point` and the verdict its cover can prove.

    The lower partial sums show divergence when they majorize WIENER_SLOPE*n
    over the last 10 depths; the upper ones show convergence when their
    increments over the last 5 depths total below WIENER_TOLERANCE.  NON_THIN
    needs the first alone and a cover that is not outer, THIN the second
    alone, a cover that is not inner and no disk strictly over `point`, which
    the upper sums see only in the annuli it reaches (none when its radius is
    below 2^-depth-1).  The sums run to `depth`, at most MAX_DEPTH.
    """
    return _wiener_sums((cover,), point, depth)[0]


def _wiener_sums(covers, point: complex, depth: int) -> tuple:
    """`wiener_test(cover, point, depth)` for each of one or more covers, in one scatter pass.

    A disk at distances near..far from `point` meets the annuli n with
    2^-n-1 < far and near < 2^-n, a range lo..hi read exactly off frexp.  The
    pairs (disk of cover k, annulus n) of all covers go to bins k*depth + n-1
    at once, in O(disks + pairs), where a disk meets about log2(far/near)
    annuli; each row of bins sums bitwise as a pass over its cover alone.
    """
    depth = operator.index(depth)  # refuses a float such as 40.0
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"need depth <= {MAX_DEPTH} and depth >= 1, got {depth!r}")
    point = complex(point)
    if not np.isfinite(point):
        raise ValueError(f"point {point!r} is not finite")
    level = np.arange(len(covers)).repeat([len(c) for c in covers])  # each disk's cover
    r = np.concatenate([c.radii for c in covers])
    dist = np.abs(np.concatenate([c.centers for c in covers]) - point)
    near, far = dist - r, dist + r
    # fl(|c - point|) < r exactly when fl(|c - point| - r) < 0: subtraction is sign-exact
    contains = set(level[near < 0.0].tolist())  # the covers with a disk over `point`
    m_far, e_far = np.frexp(far)
    lo = np.maximum(np.where(m_far > 0.5, -e_far, 1 - e_far), 1)
    hi = np.minimum(np.where(near > 0.0, -np.frexp(near)[1], depth), depth)
    counts = np.maximum(hi - lo + 1, 0)
    i = np.arange(len(r)).repeat(counts)
    n = np.arange(len(i)) + (lo - (counts.cumsum() - counts)).repeat(counts)
    bins = level[i] * depth + n - 1
    edges, ns = _EDGES[:depth + 1], _NS[:depth]  # edges[n - 1] = 2^-n, edges[n] = 2^-n-1
    near, far, r, inner, outer = near[i], far[i], r[i], edges[n], edges[n - 1]
    # lower bound: cap = radius for a whole closed disk in the annulus, else clipped diameter/4
    whole = (near >= inner) & (far <= outer)
    seg = np.maximum(np.minimum(outer, far) - np.maximum(inner, near), 0.0) / 4.0
    cap_lo = np.zeros((len(covers), depth))
    np.maximum.at(cap_lo.reshape(-1), bins, np.where(whole, r, seg))  # a view of cap_lo
    # upper bound: cap <= min(radius, outer) <= 1/2 per meeting disk; -1/log(r), as 1/r overflows
    up = np.bincount(bins, -1.0 / np.log(np.minimum(r, outer)), cap_lo.size)
    up_terms = ns * up.reshape(cap_lo.shape)
    with np.errstate(divide="ignore"):  # an annulus that no disk meets: -n/log(0) = 0
        low_terms = -ns / np.log(np.minimum(cap_lo, 0.5))
    s_low, s_up = low_terms.cumsum(axis=1), up_terms.cumsum(axis=1)
    non_thin = (s_low[:, -10:] >= WIENER_SLOPE * ns[-10:]).all(axis=1).tolist()
    thin = (up_terms[:, -5:].sum(axis=1) < WIENER_TOLERANCE).tolist()

    bounds, reports = (ns.tolist(), edges[1:].tolist(), edges[:-1].tolist()), []
    for k, (cover, caps) in enumerate(zip(covers, cap_lo.tolist())):
        if non_thin[k] and not thin[k] and cover.side != "outer":
            verdict, used, sums = "NON_THIN", "lower", s_low[k]
        elif thin[k] and not non_thin[k] and cover.side != "inner" and k not in contains:
            verdict, used, sums = "THIN", "upper", s_up[k]
        else:
            verdict, used, sums = "INCONCLUSIVE", "none", s_up[k]
        reports.append(WienerReport(point, tuple(zip(*bounds, caps)), sums, verdict, depth, used,
                                    s_low[k], s_up[k], len(cover), cover.side))
    return tuple(reports)


# ------------------------------------------------------------ harmonic measure

@dataclass(frozen=True)
class MeasureEstimate:
    value: float
    std_error: float
    walks: int
    seed: int
    method: str  # WOS | GRID
    iterations: int  # GRID: SOR sweeps; WOS: step rounds until every walk was absorbed
    residual: float | None = None  # GRID: final max residual over free nodes

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("measure estimate out of [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)


WOS_SHELL = 1e-4  # absorption shell width, relative to the domain radius
GRID_N = 321  # grid nodes per side
MAX_WOS_ROUNDS = 200000  # step rounds before walk-on-spheres gives up


def harmonic_measure(z, target: CircleContour, domain: CircleContour,
                     obstacles: DiskUnion | None = None, walks: int = 10000, seed: int = 0, *,
                     method: str = "wos") -> MeasureEstimate:
    """Estimate the harmonic function with value 1 on the `target` circle, 0 elsewhere.

    The walk-on-spheres estimator (Muller 1956) steps to a uniform point on
    the largest circle that avoids every absorbing surface and scores 1 when
    it lands within the absorption shell, WOS_SHELL times the domain radius,
    of the target.  Obstacles absorb within the same shell, so a disk far
    narrower than the shell absorbs walks as a disk of the shell's radius
    would, although Brownian motion never hits a polar set: on the dense
    gaussian-100 cover disks near 0 the estimate is far too low (ROADMAP
    item 5).  Each round keeps one running minimum of the live walks' distances,
    the target's first, in O(walks) memory whatever the number of obstacles; a
    walk scores 1 when its target distance is that minimum, so a tie goes to the
    target.  Fixed (seed, walks) give reproducible results; std_error is the
    sample standard deviation of the scores over sqrt(walks).
    """
    if not isinstance(target, CircleContour):
        raise TypeError("target must be a CircleContour")
    z = complex(z)
    obstacles = obstacles or DiskUnion([])
    eps = WOS_SHELL * domain.radius

    in_obstacle = np.abs(z - obstacles.centers) < obstacles.radii - eps
    if in_obstacle.any():
        raise StartInsideObstacle(
            f"start {z!r} inside obstacle at {complex(obstacles.centers[in_obstacle][0])!r}")
    if not abs(z - domain.center) < domain.radius:  # NaN fails too
        raise ValueError("start point must lie inside the domain")

    # absorbing surfaces: the target, the domain circle unless the target is
    # that circle, obstacles
    dom_c, dom_r = complex(domain.center), float(domain.radius)
    t_c, t_r = complex(target.center), float(target.radius)
    n_dom = 0 if abs(dom_c - t_c) < 1e-12 and abs(dom_r - t_r) < 1e-12 else 1
    if method == "grid":
        # fixed disks: the target unless it is the domain circle, then obstacles
        return _grid_measure(z, np.append(np.full(n_dom, t_c), obstacles.centers),
                             np.append(np.full(n_dom, t_r), obstacles.radii),
                             np.repeat([1.0, 0.0], [n_dom, len(obstacles)]), domain, 1.0 - n_dom)
    if method != "wos":
        raise ValueError("method must be 'wos' or 'grid'")
    if walks < 1:
        raise ValueError("walks must be >= 1")

    others = [(dom_c, dom_r)] * n_dom + list(zip(obstacles.centers, obstacles.radii))
    rng = np.random.default_rng(seed)
    result = np.zeros(walks)
    idx = np.arange(walks)  # the live walks and their positions
    pos = np.full(walks, z, dtype=complex)
    rounds = 0  # only rounds that find a live walk use the budget
    while idx.size:
        if rounds == MAX_WOS_ROUNDS:
            raise PolarhullError("walk-on-spheres failed to absorb within step budget")
        rounds += 1
        # a walk never leaves the domain, where r - |p - c| is bitwise
        # |(|p - c|) - r|: one formula serves the domain circle and the curves
        to_target = np.abs(np.abs(pos - t_c) - t_r)
        dmin = to_target.copy()
        for c, r in others:
            np.minimum(dmin, np.abs(np.abs(pos - c) - r), out=dmin)
        hit = dmin < eps
        result[idx[hit]] = to_target[hit] == dmin[hit]  # a tie goes to the target
        move = ~hit
        idx, pos, dmin = idx[move], pos[move], dmin[move]
        theta = rng.uniform(0.0, 2.0 * np.pi, size=len(idx))
        pos = pos + dmin * np.exp(1j * theta)

    value = float(np.mean(result))
    std_error = float(np.std(result, ddof=1) / math.sqrt(walks)) if walks > 1 else 0.0
    return MeasureEstimate(value=min(max(value, 0.0), 1.0), std_error=std_error,
                           walks=walks, seed=seed, method="WOS", iterations=rounds)


def _grid_measure(z, centers, radii, values, domain: CircleContour, boundary_value: float,
                  tol: float = 1e-8) -> MeasureEstimate:
    """Five-point relaxation cross-check on a Cartesian grid (red-black SOR).

    The grid holds `boundary_value` outside the domain and values[i] on the
    closed disk i, later disks overriding earlier ones.  `_sor` relaxes the
    free nodes on the four sub-lattices u[a::2, b::2], each of one colour;
    the estimate is the bilinear interpolation at z.  A target disk (value 1)
    narrower than the grid step fixes at most its center node, so the
    estimate would not depend on its radius: it raises PolarhullError.
    """
    R, grid_n = domain.radius, GRID_N
    ax = np.linspace(domain.center.real - R, domain.center.real + R, grid_n)
    ay = np.linspace(domain.center.imag - R, domain.center.imag + R, grid_n)
    h = ax[1] - ax[0]
    narrow = (values == 1.0) & (radii < h)
    if narrow.any():
        raise PolarhullError(f"target radius {radii[narrow][0]:.3e} is below the grid step "
                             f"{h:.3e}; use walk-on-spheres or a larger GRID_N")
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
    the four sub-lattices u[a::2, b::2], red (0, 0) and (1, 1), black (0, 1)
    and (1, 0), each stored flat with zero pad rows above and below and a
    zero pad column, all of one width: a node's neighbours lie on lattices
    of the other colour at flat shifts of 0 or +-width and 0 or +-1.  A
    colour moves in place by fl(nb - u) * weight, weight omega on free nodes
    and 0 elsewhere, nb the neighbours added up, down, left, right, then
    scaled by 1/4, so every iterate is bitwise the whole-grid masked update.
    A sweep ends with the next one's red steps (the black lattices do not
    move in between), their differences the red residual's.  Rounding is
    monotone and odd, so max |step| > fl(tol * omega), strictly, proves the
    residual > tol and the sweeps go on.  Only otherwise is the residual
    taken over all four lattices, in fresh arrays; the sweeps stop once it
    is below tol, and return their count and that residual.
    """
    # the tallest lattice's rows; the widest lattice's columns and the pad column
    height, width = (u.shape[0] + 1) // 2, (u.shape[1] + 1) // 2 + 1
    size = height * width  # a flat lattice without its pad rows

    def flat(grid, a, b):
        block = np.zeros((height + 2, width))
        sub = grid[a::2, b::2]
        block[1:1 + sub.shape[0], :sub.shape[1]] = sub
        return block

    lat = {(a, b): flat(u, a, b).ravel() for a in (0, 1) for b in (0, 1)}
    plan = []
    for a, b in ((0, 0), (1, 1), (0, 1), (1, 0)):  # red, then black
        vert, horiz = lat[1 - a, b], lat[a, 1 - b]
        # up, down, left, right
        neighbours = tuple(x[width + s:width + s + size] for x, s in (
            (vert, (a - 1) * width), (vert, a * width), (horiz, b - 1), (horiz, b)))
        is_free = flat(free, a, b).ravel()[width:width + size]
        plan.append((lat[a, b][width:width + size], neighbours, omega * is_free, is_free,
                     np.empty(size), np.empty(size)))

    def step_of(node, neighbours, weight, nb, step):
        np.add(neighbours[0], neighbours[1], out=nb)  # up, down, left, right
        nb += neighbours[2]
        nb += neighbours[3]
        nb *= 0.25
        np.subtract(nb, node, out=step)
        step *= weight

    for node, neighbours, weight, _, nb, step in plan[:2]:
        step_of(node, neighbours, weight, nb, step)
    for sweep in range(1, 200001):
        for k, (node, neighbours, weight, _, nb, step) in enumerate(plan):
            if k >= 2:  # the red steps carry over from the end of the last sweep
                step_of(node, neighbours, weight, nb, step)
            node += step
        for node, neighbours, weight, _, nb, step in plan[:2]:
            step_of(node, neighbours, weight, nb, step)
        if any(step.max() > tol * omega or step.min() < -tol * omega for *_, step in plan[:2]):
            continue
        residual = max(float((np.abs(nb - node) * is_free).max())
                       for node, _, _, is_free, nb, _ in plan)
        if residual < tol:
            break
    else:
        raise PolarhullError("grid relaxation did not reach the residual target")
    for (a, b), block in lat.items():
        sub = u[a::2, b::2]
        sub[...] = block.reshape(height + 2, width)[1:1 + sub.shape[0], :sub.shape[1]]
    return sweep, residual
