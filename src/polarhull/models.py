"""Concrete holomorphic function families with known singular sets.

A model is any object with `label`, a name for reports, and four methods:
`__call__(z)` evaluates it off its singularities, `singular_sample()` is a
`CompactSample` of its singular set, `split_at_infinity()` returns
(polynomial_part, principal), principal a callable that tends to 0 at
infinity, whose sum reproduces the model off its singular set, and
`cover(big_r)` is a `DiskUnion` certifying {|f| >= big_r} from its `side`;
it raises `ThresholdTooSmall` at a level outside its range, NaN and infinity
included, or at one it cannot certify.  The optional `limit(z0)` is the
certified limit value at z0 as an `OriginValue`, or None; a z0 with one is
singular and its hull point lies there, and without it none is located.  A
principal part may offer `numerator(roots)`, its numerator over
prod (z - r_k) with a proved rounding bound, or None; an approximant over
those roots then takes it in place of quadrature.

Models are immutable.  Each family holds its defaults and checks its own
size, an integer of at least 1, so the CLI passes only the fields a spec
gives.  A cover depends on the level only through one scalar, so each model
computes the level-independent part of its cover once, on first use, and
keeps it: `cover(big_r)` then does only the arithmetic in R.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import (
    MAX_DEPTH,
    SAMPLE_TOL,
    CompactSample,
    DiskUnion,
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
    "ThresholdTooSmall",
]


class TailUncertifiable(PolarhullError):
    """No analytic tail bound is available for this coefficient sequence."""


class ThresholdTooSmall(PolarhullError):
    """No valid cover certificate exists at this level threshold."""


class OriginValue(NamedTuple):
    value: complex
    error_bound: float


MIN_DISK_RADIUS = 1e-290


def _size(key: str, n) -> int:
    if operator.index(n) < 1:  # operator.index refuses a float such as 2.7
        raise ValueError(f"{key} must be an integer of at least 1, got {n}")
    return operator.index(n)


def _check_log_abs_c(log_abs_c, log_c, abs_c) -> None:
    """Refuse a `log_abs_c` the covers cannot trust, given |c_n| and log |c_n|."""
    if log_abs_c.shape != abs_c.shape:
        raise ValueError(f"log_abs_c has shape {log_abs_c.shape}, the poles {abs_c.shape}")
    if np.isnan(log_abs_c).any() or (log_abs_c == math.inf).any():
        raise ValueError("log_abs_c must contain no NaN and no +inf, nor |c_n| overflow")
    if ((log_abs_c == -math.inf) & (abs_c > 0)).any():
        raise ValueError("log_abs_c may be -inf only where the residue is 0")
    normal = np.isfinite(abs_c) & (abs_c >= np.finfo(float).tiny)
    given, exact = log_abs_c[normal], log_c[normal]
    if (np.abs(given - exact) > 1e-12 * np.maximum(np.abs(exact), 1.0)).any():
        raise ValueError("log_abs_c must agree with log|residues| to 1e-12 where |c_n| is normal")


@dataclass(frozen=True, eq=False)
class PoleSeries:
    """f(z) = sum c_n / (z - a_n), truncated at n_terms stored terms.

    `log_abs_c` stays finite even when c_n underflows, and the optional
    `log_gamma_tail(N)` bound certifies the log of the coefficient tail sum
    beyond the stored terms.  Presets `gaussian` and `geometric` populate both.
    `log_abs_c` has the poles' shape, no NaN or +inf, is -inf only where
    c_n = 0, and, where |c_n| is a normal float, is log|c_n| to 1e-12
    relative (absolute below 1); `ca_tail`, if given, is finite and >= 0.
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
        if not (np.isfinite(poles).all() and np.isfinite(residues).all()):
            raise ValueError("poles and residues must be finite")
        with np.errstate(divide="ignore", over="ignore"):
            abs_c = np.abs(residues)
            log_c = np.log(abs_c)
        log_abs_c = log_c if log_abs_c is None else np.array(log_abs_c, dtype=float)
        _check_log_abs_c(log_abs_c, log_c, abs_c)
        if ca_tail is not None and not 0 <= ca_tail < math.inf:
            raise ValueError(f"ca_tail must be finite and at least 0, got {ca_tail!r}")
        arrays = (poles, residues, log_abs_c)  # copies of the inputs
        for name, value in zip(("poles", "residues", "log_abs_c"), arrays):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
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

    def singular_sample(self) -> CompactSample:
        return CompactSample(self.poles)

    def split_at_infinity(self):
        return ZERO_POLY, self

    def numerator(self, roots):
        """(p, bound): the numerator of this sum over q = prod (z - r_k), ascending, or None.

        Offered when every live pole (`log_abs_c` > -inf) equals exactly one
        of the distinct `roots`, no two poles the same one, and p and bound are
        finite.  Root r_k carries its pole's residue c_k, or 0, and
        p = sum_k c_k prod_{j != k} (z - r_j) comes from products by linear
        factors, P <- P (z - r_k) + c_k Q and Q <- Q (z - r_k) from P = 0 and
        Q = 1; the same recurrence in |r_k| and |c_k| gives its twin A.  Each
        term of p meets at most m complex products, each within
        sqrt(2) gamma_2 <= (1+u)^3 - 1 of exact, and 2m - 1 sums, and each term
        of A at most 5m roundings, its absolute values' included.  So
        |fl(p) - p| <= gamma_5m A <= gamma_10m fl(A), with gamma_n = nu/(1 - nu)
        and u = 2^-53 (Higham, *Accuracy and Stability of Numerical
        Algorithms*, §3.1, §3.6); `bound` = gamma_12m fl(A) covers its own
        rounding.  Underflow adds at most 2^-1073 at each product; carried
        through the recurrence, all of it stays below
        2^-1070 m^2 (2 + sum |c_k|) prod (1 + |r_k|), which every entry adds.
        """
        roots = as_complex_array(roots)
        where = {r: k for k, r in enumerate(roots.tolist())}
        live = self.log_abs_c > -math.inf
        at = [where.get(a) for a in self.poles[live].tolist()]
        if len(where) < len(roots) or None in at or len(set(at)) < len(at):
            return None
        m, c = len(roots), np.zeros(len(roots), dtype=complex)
        c[at] = self.residues[live]
        # rows P, Q and their twins A, B in |r_k|, |c_k|: the twins are kept complex with
        # zero imaginary parts, where each product and sum rounds as in real arithmetic
        rows, shifted = np.zeros((2, 4, m + 1), dtype=complex)
        rows[1, 0] = rows[3, 0] = 1.0
        scale = np.stack([roots, roots, -np.abs(roots), -np.abs(roots)], axis=1)[:, :, None]
        feed = np.stack([c, np.abs(c)], axis=1)[:, :, None]
        with np.errstate(over="ignore", invalid="ignore"):  # a value past float64 offers nothing
            for k in range(m):
                shifted[:, 1:] = rows[:, :-1]
                grown = shifted - scale[k] * rows
                grown[::2] += feed[k] * rows[1::2]
                rows = grown
            gamma = 12 * m * 2.0**-53 / (1 - 12 * m * 2.0**-53)
            tiny = m * m * (2 + float(np.sum(np.abs(c)))) * float(np.prod(1 + np.abs(roots)))
            p, bound = rows[0, :m], gamma * rows[2, :m].real + tiny * 2.0**-1070
        return (p, bound) if np.isfinite(p).all() and np.isfinite(bound).all() else None

    def limit(self, z0) -> OriginValue | None:
        """-sum c_n/a_n at 0 with error bound `ca_tail`; None elsewhere or without it."""
        if self.ca_tail is None or not abs(z0) <= SAMPLE_TOL:
            return None
        return self._origin

    @cached_property
    def _origin(self) -> OriginValue:
        return OriginValue(complex(-np.sum(self.residues / self.poles)), float(self.ca_tail))

    def cover(self, big_r: float) -> DiskUnion:
        """Outer cover: disks of radius C sqrt(gamma_n), C certifying sum |c_n|/r_n <= big_r."""
        if not 0 < big_r < math.inf:
            raise ThresholdTooSmall(f"a pole-series cover needs 0 < big_r < inf, got {big_r!r}")
        poles, half_log_gamma, certificate = self._cover_data
        if not len(poles):
            return DiskUnion.from_arrays([], [], side="outer")
        needed = certificate / big_r
        if not 0 < needed < math.inf:
            raise ThresholdTooSmall(f"no cover certificate at big_r={big_r!r}")
        c_factor = 2.0 ** math.ceil(math.log2(needed)) if needed <= 2.0**1023 else math.inf
        with np.errstate(over="ignore"):  # C or a radius past float64 is inf, refused below
            radii = np.maximum(np.exp(math.log(c_factor) + half_log_gamma), MIN_DISK_RADIUS)
        if not np.isfinite(radii).all():
            raise ThresholdTooSmall(f"cover radii overflow at big_r={big_r!r}")
        # tail disks beyond the truncation shrink at the sqrt(gamma) rate, so the
        # deep annuli they would occupy contribute below any verdict tolerance
        return DiskUnion.from_arrays(poles, radii, side="outer")

    @cached_property
    def _cover_data(self) -> tuple:
        # the live poles, 0.5 log gamma_n there and sum |c_n| / sqrt(gamma_n) in log space
        live = self.log_abs_c > -math.inf  # a zero residue leaves its pole removable
        half_log_gamma = 0.5 * self.log_gamma_suffix()[: self.n_terms][live]
        certificate = float(np.sum(np.exp(self.log_abs_c[live] - half_log_gamma)))
        return self.poles[live], half_log_gamma, certificate

    def log_gamma_suffix(self) -> np.ndarray:
        """log gamma_n = log sum_{k >= n} |c_k| at index n - 1, in O(n_terms), read-only.

        A certified tail is included in every entry and adds a last entry,
        gamma_{n_terms+1}; without one the sums stop at the stored terms.
        """
        return self._log_gamma

    @cached_property
    def _log_gamma(self) -> np.ndarray:
        suffix = np.logaddexp.accumulate(self.log_abs_c[::-1])[::-1]
        if self.log_gamma_tail is not None:
            tail = float(self.log_gamma_tail(self.n_terms + 1))
            suffix = np.append(np.logaddexp(suffix, tail), tail)
        suffix.setflags(write=False)
        return suffix

    # ---------------------------------------------------------------- presets

    @classmethod
    def gaussian(cls, n_terms: int = 40) -> "PoleSeries":
        """Poles at 1/n with super-exponentially decaying residues exp(-n^2)/n^2."""
        n_terms = _size("n_terms", n_terms)
        n = np.arange(1, n_terms + 1)
        log_c = -n.astype(float) ** 2 - 2.0 * np.log(n)

        def log_gamma_tail(n_start: int) -> float:
            # sum_{k>=N} e^{-k^2}/k^2 <= e^{-N^2}/N^2 * (1 + e^{-2N})
            return -float(n_start) ** 2 - 2.0 * math.log(n_start) + math.log1p(
                math.exp(-2.0 * n_start)
            )

        # tail of sum |c_n/a_n| = sum e^{-n^2}/n beyond the stored terms
        m = n_terms + 1
        ca_tail = math.exp(-float(m) ** 2) / m * (1.0 + math.exp(-2.0 * m))
        return cls(1.0 / n, np.exp(log_c), log_abs_c=log_c, label=f"gaussian-poles-{n_terms}",
                   log_gamma_tail=log_gamma_tail, ca_tail=ca_tail)

    @classmethod
    def geometric(cls, n_terms: int = 40, ratio: float = 0.5) -> "PoleSeries":
        """Poles at 1/n with residues ratio^n (slow, merely geometric decay)."""
        if not 0 < ratio < 1:
            raise ValueError("ratio must lie in (0, 1)")
        n_terms = _size("n_terms", n_terms)
        n = np.arange(1, n_terms + 1)
        lr = math.log(ratio)
        log_c = n * lr

        def log_gamma_tail(n_start: int) -> float:
            # sum_{k>=N} r^k = r^N/(1-r)
            return n_start * lr - math.log1p(-ratio)

        m = n_terms + 1
        ca_tail = (m + 1.0) * ratio**m / (1.0 - ratio) ** 2  # sum n r^n tail bound
        return cls(1.0 / n, np.exp(log_c), log_abs_c=log_c, label=f"geometric-poles-{n_terms}",
                   log_gamma_tail=log_gamma_tail, ca_tail=ca_tail)


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

    def cover(self, big_r: float) -> DiskUnion:
        """The exact level disk re(1/z) >= log big_r."""
        if not 1 < big_r < math.inf:
            raise ThresholdTooSmall(f"exp(1/z) cover needs 1 < big_r < inf, got {big_r!r}")
        h = 0.5 / math.log(big_r)
        return DiskUnion.from_arrays([h], [h], side="exact")

    @pointwise
    def _principal(self, z):
        return np.expm1(1.0 / z)


@dataclass(frozen=True, eq=False)
class RecipSinPi:
    """f(z) = 1/sin(pi/z), poles at 1/n for integer n plus the limit point 0."""

    pole_cutoff: int = 64
    label = "recip-sin-pi"

    def __post_init__(self):
        object.__setattr__(self, "pole_cutoff", _size("pole_cutoff", self.pole_cutoff))

    @pointwise
    def __call__(self, z):
        return 1.0 / np.sin(np.pi / z)

    def singular_sample(self) -> CompactSample:
        return self._sample

    @cached_property
    def _sample(self) -> CompactSample:
        n = np.arange(1, self.pole_cutoff + 1)
        return CompactSample(np.concatenate([[0.0 + 0j], 1.0 / n, -1.0 / n]))

    def split_at_infinity(self):
        # sin(pi/z) ~ pi/z at infinity, so f(z) - z/pi -> 0
        return PolynomialC([0.0, 1.0 / math.pi]), self._principal

    @pointwise
    def _principal(self, z):
        return 1.0 / np.sin(np.pi / z) - z / math.pi

    def cover(self, big_r: float) -> DiskUnion:
        """Inner cover: Moebius disks about +-1/n, n <= pole_cutoff, and a pair in each
        deeper annulus about 0.  Rounded, a disk need not lie in the set, but it
        meets, or lies wholly inside, the same annuli about 0 as its exact disk."""
        if not 1 < big_r < math.inf:
            raise ThresholdTooSmall(f"1/sin(pi/z) cover needs 1 < big_r < inf, got {big_r!r}")
        # |sin(pi eps)| <= sinh(pi |eps|), so |eps| <= asinh(1/R)/pi certifies
        # |f| >= R; halving gives the 2x enclosure margin.
        rho = math.asinh(1.0 / big_r) / math.pi / 2.0
        # Moebius images of |eps| <= rho about the poles
        signed_n, n_squared = self._cover_poles
        denom = n_squared - rho * rho
        if not rho / denom[-1] > 0.0:  # the deepest radius underflows
            raise ThresholdTooSmall(f"1/sin(pi/z) cover underflows at big_r={big_r!r}")
        return DiskUnion.from_arrays(signed_n / denom, rho / denom, side="inner")

    @cached_property
    def _cover_poles(self) -> tuple:
        # sign * n and n * n of the poles sign/n: n <= pole_cutoff, and n = 3 * 2^(j-1),
        # exact in float64, in each annulus j about 0 where that n passes the cutoff
        deep = 3.0 * 2.0 ** np.arange(MAX_DEPTH)
        n = np.concatenate([np.arange(1, self.pole_cutoff + 1), deep[deep > self.pole_cutoff]])
        n, sign = np.tile(n, 2), np.repeat([1.0, -1.0], len(n))  # +1/n ascending, then -1/n
        return sign * n, n * n


# a finite pole sum is a rational function with simple poles
RationalModel = PoleSeries
