"""Concrete holomorphic function families with known singular sets.

A model is any object with `label`, a name for reports, and three methods:
`__call__(z)` evaluates it off its singularities, `singular_sample()` is a
`CompactSample` of its singular set, and `split_at_infinity()` returns
(polynomial_part, principal), principal a callable that tends to 0 at
infinity, whose sum reproduces the model off its singular set.  The
built-in families carry analytic tail bounds where the hull machinery needs
them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CompactSample,
    PolarhullError,
    PolynomialC,
    ZERO_POLY,
    as_complex_array,
    pointwise,
)

__all__ = [
    "PoleSeries",
    "ExpReciprocal",
    "RecipSinPi",
    "RationalModel",
    "TailUncertifiable",
]


class TailUncertifiable(PolarhullError):
    """No analytic tail bound is available for this coefficient sequence."""


@dataclass(frozen=True, eq=False)
class PoleSeries:
    """f(z) = sum c_n / (z - a_n), truncated at n_terms stored terms.

    `log_abs_c` stays finite even when c_n underflows, and the optional
    `log_gamma_tail(N)` bound certifies the log of the coefficient tail sum
    beyond the stored terms.  Presets `gaussian` and `geometric` populate both.
    """

    poles: np.ndarray
    residues: np.ndarray
    log_abs_c: np.ndarray
    label: str = "pole-series"
    log_gamma_tail=None
    ca_tail: float | None = None

    def __init__(self, poles, residues, *, log_abs_c=None, label="pole-series",
                 log_gamma_tail=None, ca_tail=None):
        poles = as_complex_array(poles)
        residues = as_complex_array(residues)
        if poles.shape != residues.shape:
            raise ValueError("poles and residues must have equal length")
        if log_abs_c is None:
            with np.errstate(divide="ignore"):
                log_abs_c = np.log(np.abs(residues))
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "log_abs_c", np.asarray(log_abs_c, dtype=float))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "log_gamma_tail", log_gamma_tail)
        object.__setattr__(self, "ca_tail", ca_tail)

    @property
    def n_terms(self) -> int:
        return len(self.poles)

    @pointwise
    def __call__(self, z):
        out = np.zeros(z.shape, dtype=complex)
        flat, zf = out.reshape(-1), z.reshape(-1)
        for lo in range(0, self.n_terms, 512):  # 512 poles at a time bound the temporary
            p, w = self.poles[lo : lo + 512], self.residues[lo : lo + 512]
            flat += (w[None, :] / (zf[:, None] - p[None, :])).sum(axis=1)
        return out

    def singular_sample(self, include_origin: bool = False) -> CompactSample:
        pts = self.poles
        if include_origin:
            pts = np.concatenate([[0.0 + 0j], pts])
        return CompactSample(pts)

    def split_at_infinity(self):
        return ZERO_POLY, self

    def log_gamma_suffix(self) -> np.ndarray:
        """log gamma_n = log sum_{k >= n} |c_k| at index n - 1, in O(n_terms).

        A certified tail is included in every entry and adds a last entry,
        gamma_{n_terms+1}; without one the sums stop at the stored terms.
        """
        suffix = np.logaddexp.accumulate(self.log_abs_c[::-1])[::-1]
        if self.log_gamma_tail is None:
            return suffix
        tail = float(self.log_gamma_tail(self.n_terms + 1))
        return np.append(np.logaddexp(suffix, tail), tail)

    # ---------------------------------------------------------------- presets

    @classmethod
    def gaussian(cls, n_terms: int = 40) -> "PoleSeries":
        """Poles at 1/n with super-exponentially decaying residues exp(-n^2)/n^2."""
        n = np.arange(1, n_terms + 1)
        log_c = -n.astype(float) ** 2 - 2.0 * np.log(n)
        residues = np.exp(log_c)

        def log_gamma_tail(n_start: int) -> float:
            # sum_{k>=N} e^{-k^2}/k^2 <= e^{-N^2}/N^2 * (1 + e^{-2N})
            return -float(n_start) ** 2 - 2.0 * math.log(n_start) + math.log1p(
                math.exp(-2.0 * n_start)
            )

        # tail of sum |c_n/a_n| = sum e^{-n^2}/n beyond the stored terms
        m = n_terms + 1
        ca_tail = math.exp(-float(m) ** 2) / m * (1.0 + math.exp(-2.0 * m))
        return cls(
            1.0 / n, residues, log_abs_c=log_c, label=f"gaussian-poles-{n_terms}",
            log_gamma_tail=log_gamma_tail, ca_tail=ca_tail,
        )

    @classmethod
    def geometric(cls, n_terms: int = 40, ratio: float = 0.5) -> "PoleSeries":
        """Poles at 1/n with residues ratio^n (slow, merely geometric decay)."""
        if not 0 < ratio < 1:
            raise ValueError("ratio must lie in (0, 1)")
        n = np.arange(1, n_terms + 1)
        log_c = n * math.log(ratio)
        residues = np.exp(log_c)
        lr = math.log(ratio)

        def log_gamma_tail(n_start: int) -> float:
            # sum_{k>=N} r^k = r^N/(1-r)
            return n_start * lr - math.log1p(-ratio)

        m = n_terms + 1
        ca_tail = (m + 1.0) * ratio**m / (1.0 - ratio) ** 2  # sum n r^n tail bound
        return cls(
            1.0 / n, residues, log_abs_c=log_c, label=f"geometric-poles-{n_terms}",
            log_gamma_tail=log_gamma_tail, ca_tail=ca_tail,
        )


class ExpReciprocal:
    """f(z) = exp(1/z), essential singularity at 0."""

    label = "exp-reciprocal"

    @pointwise
    def __call__(self, z):
        return np.exp(1.0 / z)

    def singular_sample(self) -> CompactSample:
        return CompactSample([0.0 + 0j])

    def split_at_infinity(self):
        return PolynomialC([1.0]), self._principal

    @pointwise
    def _principal(self, z):
        return np.expm1(1.0 / z)


class RecipSinPi:
    """f(z) = 1/sin(pi/z), poles at 1/n for integer n plus the limit point 0."""

    label = "recip-sin-pi"

    def __init__(self, pole_cutoff: int = 64):
        self.pole_cutoff = int(pole_cutoff)

    @pointwise
    def __call__(self, z):
        return 1.0 / np.sin(np.pi / z)

    def singular_sample(self) -> CompactSample:
        n = np.arange(1, self.pole_cutoff + 1)
        pts = np.concatenate([[0.0 + 0j], 1.0 / n, -1.0 / n])
        return CompactSample(pts)

    def split_at_infinity(self):
        # sin(pi/z) ~ pi/z at infinity, so f(z) - z/pi -> 0
        return PolynomialC([0.0, 1.0 / math.pi]), self._principal

    @pointwise
    def _principal(self, z):
        return 1.0 / np.sin(np.pi / z) - z / math.pi


# a finite pole sum is a rational function with simple poles
RationalModel = PoleSeries
