"""Classify fibers of the pluripolar hull over singular points.

A fiber over z0 is declared empty when the sublevel sets {|f| >= R} test
NON_THIN at z0 for every R in the tested grid; a THIN level instead produces
a hull point, located at the limit value `f.limit(z0)` when the model has
one.  Both verdicts are evidence-based and carry their reports.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import MAX_DEPTH, SAMPLE_TOL, CircleContour, PolarhullError, complex_to_pair
from .models import PoleSeries, TailUncertifiable
from . import potential as potential_mod

__all__ = [
    "ProbeEqualsValue",
    "SeriesConditionReport",
    "FiberClassification",
    "series_conditions",
    "classify_fiber",
    "vn_upper_bound",
]


class ProbeEqualsValue(PolarhullError):
    """The upper-bound probe coincides with the limit value at the origin."""


# ------------------------------------------------------------ series criteria

@dataclass(frozen=True, eq=False)
class SeriesConditionReport:
    """Evidence for the two tail conditions of a pole series.

    gamma_n, the coefficient tail sums, decay so fast for the interesting
    examples that they are carried only as logs: `log_gamma` stays finite
    where gamma_n itself would underflow to 0.
    """

    log_gamma: np.ndarray
    ratio_sequence: np.ndarray    # sum_{n<=N} log|a_n| / log gamma_{N+1}
    summability_sums: np.ndarray            # partial sums of log|a_n| / log gamma_n
    verdict_ratio: str
    verdict_summability: str
    truncation: int


STABILIZE_TOL = 1e-6
RATIO_TOL = 1e-3


def series_conditions(f: PoleSeries) -> SeriesConditionReport:
    """Evaluate both tail conditions for a pole series at its truncation.

    The summability condition (verdict_summability) HOLDS when the partial sums have
    Cauchy-stabilized below STABILIZE_TOL with a certified dominated tail;
    the subsequence-ratio condition (verdict_ratio) HOLDS when the running
    minimum of the ratio over the last half of the range falls below
    RATIO_TOL.  Truncations below 20 terms return INCONCLUSIVE verdicts.
    """
    if not isinstance(f, PoleSeries):
        raise TypeError("series_conditions expects a PoleSeries model")
    n = f.n_terms
    if n < 20:
        empty = np.array([])
        return SeriesConditionReport(
            log_gamma=empty, ratio_sequence=empty, summability_sums=empty,
            verdict_ratio="INCONCLUSIVE", verdict_summability="INCONCLUSIVE", truncation=n,
        )
    if f.log_gamma_tail is None:
        raise TailUncertifiable(f.label)

    log_gamma = f.log_gamma_suffix()
    log_a = np.log(np.abs(f.poles))
    cum_log_a = np.cumsum(log_a)

    ratio = cum_log_a / log_gamma[1 : n + 1]
    # zero numerators (poles on the unit circle) contribute nothing, even
    # when the matching gamma is exactly 1 and its log vanishes
    with np.errstate(divide="ignore", invalid="ignore"):
        summands = np.where(log_a == 0.0, 0.0, log_a / log_gamma[:n])
    sums = np.cumsum(summands)

    window = min(5, n)
    stabilized = float(np.sum(summands[-window:])) < STABILIZE_TOL
    # dominated tail: the summand must already be decaying at the truncation
    tail_decaying = summands[-1] <= summands[max(0, n - window)] + 1e-15
    if stabilized and tail_decaying:
        verdict_summability = "HOLDS"
    else:
        half_growth = sums[-1] - sums[n // 2 - 1]
        verdict_summability = "FAILS" if half_growth > 100 * STABILIZE_TOL else "INCONCLUSIVE"

    tail_min = float(np.min(ratio[n // 2 :]))
    if tail_min < RATIO_TOL:
        verdict_ratio = "HOLDS"
    else:
        running_min = np.minimum.accumulate(ratio)
        improving = running_min[-1] < 0.5 * running_min[n // 2]
        verdict_ratio = "INCONCLUSIVE" if improving else "FAILS"

    return SeriesConditionReport(
        log_gamma=log_gamma[:n], ratio_sequence=ratio, summability_sums=sums,
        verdict_ratio=verdict_ratio, verdict_summability=verdict_summability, truncation=n,
    )


# --------------------------------------------------------------- classification

@dataclass(frozen=True, eq=False)
class FiberClassification:
    point: complex
    classification: str            # FIBER_EMPTY | HULL_POINT | UNKNOWN
    w0: complex | None
    w0_error: float | None
    radius_bound: float | None
    wiener_reports: tuple
    r_grid: tuple
    notes: str

    def to_dict(self) -> dict:
        return {
            "point": complex_to_pair(self.point),
            "classification": self.classification,
            "w0": None if self.w0 is None else complex_to_pair(self.w0),
            "w0_error": self.w0_error,
            "radius_bound": self.radius_bound,
            "r_grid": [float(r) for r in self.r_grid],
            "notes": self.notes,
            "evidence": [rep.to_dict() for rep in self.wiener_reports],
        }


def classify_fiber(f, z0: complex, r_grid, *,
                   depth: int = 40, potential=potential_mod) -> FiberClassification:
    """Classify the fiber over one singular point from Wiener evidence.

    z0 must be a sampled singular point or have a limit value `f.limit(z0)`.
    Each R in the grid gets a cover from `potential.sublevel_cover` (the hook
    supplies covers only), and all levels share one Wiener pass at z0.  All
    NON_THIN means an empty fiber over the tested grid; a THIN level yields a
    hull point with that radius bound, at w0 = the limit value (w0_error its
    error bound) if any; conflicting or inconclusive evidence stays UNKNOWN.
    """
    r_grid = sorted(float(r) for r in r_grid)
    if len(r_grid) < 3 or any(a == b for a, b in zip(r_grid, r_grid[1:])):
        raise ValueError(f"r_grid needs at least 3 distinct values, got {r_grid!r}")
    depth = operator.index(depth)  # refuses a float such as 40.0
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [1, {MAX_DEPTH}], got {depth!r}")
    z0 = complex(z0)
    limit = f.limit(z0) if hasattr(f, "limit") else None
    if limit is None and not f.singular_sample().min_distance_to(z0) <= SAMPLE_TOL:  # NaN too
        raise ValueError(f"{z0!r} is not a sampled singular point of {f.label}")

    covers, notes = [], []  # a level that raised leaves a note and no report
    for big_r in r_grid:
        try:
            covers.append(potential.sublevel_cover(f, big_r))
        except PolarhullError as e:
            notes.append(f"R={big_r}: {type(e).__name__}: {e}")
    reports = potential_mod._wiener_sums(covers, z0, depth) if covers else ()

    def entry(cls, w0=None, w0_err=None, bound=None, extra=""):
        return FiberClassification(
            point=z0, classification=cls, w0=w0, w0_error=w0_err,
            radius_bound=bound, wiener_reports=reports, r_grid=tuple(r_grid),
            notes="; ".join(notes + ([extra] if extra else [])),
        )

    verdicts = [r.verdict for r in reports]
    if notes or "INCONCLUSIVE" in verdicts:
        return entry("UNKNOWN", extra="incomplete or inconclusive evidence")

    thin_rs = [big_r for big_r, v in zip(r_grid, verdicts) if v == "THIN"]
    # larger R shrinks the sublevel set, so THIN below a NON_THIN level is
    # contradictory evidence and must stay UNKNOWN
    if thin_rs and "NON_THIN" in verdicts[verdicts.index("THIN"):]:
        return entry("UNKNOWN", extra="conflicting thinness pattern across R grid")

    if not thin_rs:
        return entry("FIBER_EMPTY")

    bound = min(thin_rs)
    if limit is not None:
        if abs(limit.value) > bound:
            return entry("UNKNOWN", extra="limit value exceeds thin-level radius bound")
        return entry("HULL_POINT", w0=limit.value, w0_err=limit.error_bound, bound=bound)
    return entry("HULL_POINT", bound=bound, extra="no limit value at z0 locates the hull point")


# ----------------------------------------------------------------- v_N bounds

def vn_upper_bound(f: PoleSeries, big_r: float, disc: CircleContour, w_probe: complex,
                   n_list) -> list:
    """Normalized two-constants ratios v_N(0, w_probe) for N in n_list.

    v_N = (M_N - h_N) / (M_N - K_N) with M_N the box ceiling of the truncated
    log-potential, K_N its graph bound over the witness disc, and h_N the
    value at (0, w_probe).  Each v_N upper-bounds the relative extremal
    function of the graph piece over the disc, and v_N -> 0 exactly when the
    probe avoids the origin limit value.
    """
    if not isinstance(f, PoleSeries):
        raise TypeError("vn_upper_bound expects a PoleSeries model")
    w_probe = complex(w_probe)
    origin = f.limit(0j)
    if origin is None:
        raise TailUncertifiable(f.label)
    if abs(w_probe - origin.value) < 1e-12:
        raise ProbeEqualsValue("probe coincides with the origin limit value")
    if abs(w_probe) >= big_r:
        raise ValueError("probe must satisfy |w| < big_r")
    z0, r0 = complex(disc.center), float(disc.radius)
    if min(abs(z0), f.singular_sample().min_distance_to(z0)) < 2.0 * r0:
        raise ValueError("need the doubled disc to avoid the closed singular set")

    abs_a = np.abs(f.poles)
    abs_c = np.abs(f.residues)
    log_a = np.log(abs_a)
    log_gamma = f.log_gamma_suffix()
    out = []
    for N in sorted(int(n) for n in n_list):
        if N < 1 or N > f.n_terms:
            raise ValueError("each N must lie in [1, n_terms]")
        if N >= len(log_gamma):  # gamma_{n_terms+1} needs the certified tail
            raise TailUncertifiable(f.label)
        m_n = (
            math.log(big_r + float(np.sum(abs_c[:N])) / big_r)
            + float(np.sum(np.log(big_r + abs_a[:N])))
        ) / N
        # graph bound over the disc: |z - a_n| <= r0 + |z0 - a_n| for z in the disc
        k_n = (
            log_gamma[N]
            - math.log(r0)
            + float(np.sum(np.log(r0 + np.abs(z0 - f.poles[:N]))))
        ) / N
        f_n0 = -np.sum(f.residues[:N] / f.poles[:N])
        h_n = (math.log(abs(w_probe - f_n0)) + float(np.sum(log_a[:N]))) / N
        v_n = (m_n - h_n) / (m_n - k_n)
        out.append((N, float(v_n)))
    return out
