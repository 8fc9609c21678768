"""Leja point systems on compact samples and the capacity diagnostic.

Greedy Leja selection keeps the same norm asymptotics as true Fekete points
at O(m |K|) cost; distance products are accumulated in log space so samples
that cluster like 1/n do not underflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import CompactSample, PolarhullError, complex_to_pair

__all__ = [
    "InsufficientSample",
    "FeketeSystem",
    "CapacityEstimate",
    "leja_points",
    "capacity_estimate",
]


class InsufficientSample(PolarhullError):
    """Fewer sample points than requested Leja points."""


@dataclass(frozen=True, eq=False)
class FeketeSystem:
    """Ordered Leja sequence over a base sample.

    The prefix of length m defines the monic polynomial q_m with those roots;
    diagnostics[m-1] = (m, sup |q_m| over the sample, to the power 1/m).
    `quad_rows` keeps `ratapprox.build_approximant`'s trapezoid rows, no f values:
    q_m^K on the nodes and K coefficient and floor rows, per principal part, m, contour, nodes.
    """

    base_set: CompactSample
    points: np.ndarray
    diagnostics: tuple
    quad_rows: dict = field(default_factory=dict, init=False, repr=False)

    def norms(self) -> np.ndarray:
        return np.array([d for _, d in self.diagnostics])

    def to_dict(self) -> dict:
        return {
            "points": [complex_to_pair(p) for p in self.points],
            "diagnostics": [[int(m), float(d)] for m, d in self.diagnostics],
            "base_size": len(self.base_set),
        }


def leja_points(k: CompactSample, m: int) -> FeketeSystem:
    """Greedy Leja sequence of length m on the sample.

    The first point maximizes |z|; point j maximizes the distance product to
    the points already chosen.  Ties break to the smallest sample index so the
    selection is deterministic.
    """
    pts = k.points
    if len(pts) < m:
        raise InsufficientSample(f"sample has {len(pts)} points, need {m}")
    if m < 1:
        raise ValueError("m must be >= 1")

    log_prod = np.zeros(len(pts))
    chosen = np.empty(m, dtype=int)
    chosen[0] = int(np.argmax(np.abs(pts)))
    diagnostics = []
    with np.errstate(divide="ignore"):
        for j in range(m):
            log_prod = log_prod + np.log(np.abs(pts - pts[chosen[j]]))
            top = float(np.max(log_prod))
            d = 0.0 if top == -np.inf else math.exp(top / (j + 1))
            diagnostics.append((j + 1, d))
            if j + 1 < m:
                chosen[j + 1] = int(np.argmax(log_prod))
    return FeketeSystem(base_set=k, points=pts[chosen].copy(),
                        diagnostics=tuple(diagnostics))


class CapacityEstimate(NamedTuple):
    value: float
    decreasing: bool


def capacity_estimate(sys: FeketeSystem) -> CapacityEstimate:
    """Extrapolate the norm diagnostic d_m to m -> infinity.

    Fits d_m ~ c + A/m over the last half of the available degrees and reports
    the limit c, together with a flag for whether d_m was nonincreasing over
    the last 5 entries.
    """
    d = sys.norms()
    if len(d) < 8:
        raise ValueError("need at least 8 diagnostic entries")
    half = d[len(d) // 2 :]
    ms = np.arange(len(d) // 2 + 1, len(d) + 1, dtype=float)
    basis = np.vstack([np.ones_like(ms), 1.0 / ms]).T
    coef, *_ = np.linalg.lstsq(basis, half, rcond=None)
    value = max(float(coef[0]), 0.0)
    # net decrease over the last 5 entries; single steps may wobble
    decreasing = bool(d[-1] <= d[-5] + 1e-15)
    return CapacityEstimate(value, decreasing)
