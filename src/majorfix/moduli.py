"""Radius-dependent Lipschitz bounds and their exact primitives.

A modulus is a nonnegative, nondecreasing function k(r) on [0, R] together
with its primitive K(r) = integral of k from 0 to r.  Every radius the
library reports is a root of a +- K(r) - r, so K is never approximated:

* constant and power-sum moduli evaluate K in closed form;
* a tabulated modulus is a linear interpolant and K is its exact
  piecewise-quadratic integral;
* a sampled modulus is a sound upper envelope of its samples for a declared
  shape (the right-endpoint step envelope of a nondecreasing k, the chord of
  a convex one) and K is the envelope's exact integral;
* weighted sums and recentered moduli are one shifted weighted sum
  k(r) = sum_i w_i k_i(offset + r) with
  K(r) = sum_i w_i (K_i(offset + r) - K_i(offset)), built from the inputs'
  own exact primitives and never resampled;
* a power envelope k(r) = min_i (a_i + b_i r**e) sums the closed-form
  integrals of its pieces between crossings.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LipschitzModulus",
    "ConstantModulus",
    "PowerSumModulus",
    "TabulatedModulus",
    "combine_moduli",
    "recenter_modulus",
    "modulus_from_samples",
]

_DOMAIN_SLACK = 1e-12
# float noise a sampled modulus may show against its declared shape,
# relative to its largest sample
_SAMPLE_NOISE = 1e-9


class LipschitzModulus:
    """Base class: evaluate k(r) and its exact primitive K(r)."""

    def __call__(self, r: float) -> float:
        raise NotImplementedError

    def primitive(self, r: float) -> float:
        raise NotImplementedError

    def domain_end(self) -> float | None:
        """Largest radius the modulus is defined for (None = unbounded)."""
        return None

    def _check_radius(self, r: float) -> float:
        r = float(r)
        if not math.isfinite(r) or r < 0.0:
            raise ValueError(f"radius must be finite and nonnegative, got {r!r}")
        end = self.domain_end()
        if end is not None:
            if r > end * (1.0 + _DOMAIN_SLACK) + _DOMAIN_SLACK:
                raise ValueError(f"radius {r!r} beyond the tabulated range [0, {end!r}]")
            r = min(r, end)
        return r


@dataclass(frozen=True)
class ConstantModulus(LipschitzModulus):
    """Classical contraction constant: k(r) = q for all r."""

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value < 0.0:
            raise ValueError(f"constant modulus must be finite and >= 0, got {self.value!r}")

    def __call__(self, r: float) -> float:
        self._check_radius(r)
        return self.value

    def primitive(self, r: float) -> float:
        return self.value * self._check_radius(r)


@dataclass(frozen=True)
class PowerSumModulus(LipschitzModulus):
    """Finite power sum k(r) = sum_i c_i * r**p_i with c_i >= 0, p_i >= 0."""

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        cleaned = []
        for coef, exponent in self.terms:
            coef, exponent = float(coef), float(exponent)
            if not (math.isfinite(coef) and math.isfinite(exponent)):
                raise ValueError("power-sum terms must be finite")
            if coef < 0.0:
                raise ValueError(f"power-sum coefficient must be >= 0, got {coef!r}")
            if exponent < 0.0:
                raise ValueError(f"power-sum exponent must be >= 0, got {exponent!r}")
            cleaned.append((coef, exponent))
        object.__setattr__(self, "terms", tuple(cleaned))

    def __call__(self, r: float) -> float:
        r = self._check_radius(r)
        return sum(c * r**p for c, p in self.terms)

    def primitive(self, r: float) -> float:
        r = self._check_radius(r)
        return sum(c * r ** (p + 1.0) / (p + 1.0) for c, p in self.terms)


@dataclass(frozen=True, eq=False)
class TabulatedModulus(LipschitzModulus):
    """Linear interpolant of nonnegative nondecreasing samples on [0, t_M].

    The primitive is the exact piecewise-quadratic integral of the
    interpolant, precomputed segment by segment.
    """

    abscissae: np.ndarray
    ordinates: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.abscissae, dtype=float).copy()
        ys = np.asarray(self.ordinates, dtype=float).copy()
        if xs.ndim != 1 or ys.ndim != 1 or xs.size != ys.size or xs.size < 2:
            raise ValueError("tabulated modulus needs matching 1-d arrays of length >= 2")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("tabulated modulus samples must be finite")
        if xs[0] != 0.0:
            raise ValueError("tabulated abscissae must start at 0")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("tabulated abscissae must be strictly increasing")
        if np.any(ys < 0.0):
            raise ValueError("tabulated ordinates must be nonnegative")
        if np.any(np.diff(ys) < 0.0):
            raise ValueError("tabulated ordinates must be nondecreasing")
        self._check_slopes(xs, ys)
        xs.setflags(write=False)
        ys.setflags(write=False)
        # exact primitive of the interpolant at every node
        cumulative = np.concatenate(([0.0], np.cumsum(self._segment_integrals(xs, ys))))
        cumulative.setflags(write=False)
        object.__setattr__(self, "abscissae", xs)
        object.__setattr__(self, "ordinates", ys)
        object.__setattr__(self, "_cumulative", cumulative)

    @staticmethod
    def _segment_integrals(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.diff(xs) * (ys[:-1] + ys[1:]) / 2.0

    @staticmethod
    def _check_slopes(xs: np.ndarray, ys: np.ndarray) -> None:
        # primitive reads each segment through its slope dy/dx, which
        # overflows on a steep enough segment (a subnormal spacing, say)
        with np.errstate(over="ignore"):
            slopes = np.diff(ys) / np.diff(xs)
        if not np.all(np.isfinite(slopes)):
            lo, hi = xs[np.argmin(np.isfinite(slopes)):][:2].tolist()
            raise ValueError(f"tabulated segment [{lo!r}, {hi!r}] is too steep: "
                             f"its slope overflows")

    def domain_end(self) -> float:
        return float(self.abscissae[-1])

    def __call__(self, r: float) -> float:
        r = self._check_radius(r)
        return float(np.interp(r, self.abscissae, self.ordinates))

    def primitive(self, r: float) -> float:
        r = self._check_radius(r)
        xs, ys = self.abscissae, self.ordinates
        j = int(np.searchsorted(xs, r, side="right")) - 1
        j = min(max(j, 0), xs.size - 2)
        dr = r - xs[j]
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        return float(self._cumulative[j] + ys[j] * dr + 0.5 * slope * dr * dr)


class _StepEnvelope(TabulatedModulus):
    """Right-endpoint step envelope of nondecreasing samples: k(r) = k(r_j)
    on (r_{j-1}, r_j], above every nondecreasing k through the samples.
    The primitive is piecewise linear, the running sum of the steps."""

    @staticmethod
    def _segment_integrals(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.diff(xs) * ys[1:]

    @staticmethod
    def _check_slopes(xs: np.ndarray, ys: np.ndarray) -> None:
        pass  # a step envelope is read without slopes

    def __call__(self, r: float) -> float:
        r = self._check_radius(r)
        return float(self.ordinates[np.searchsorted(self.abscissae, r)])

    def primitive(self, r: float) -> float:
        r = self._check_radius(r)
        j = max(int(np.searchsorted(self.abscissae, r)), 1)
        return float(self._cumulative[j - 1]
                     + self.ordinates[j] * (r - self.abscissae[j - 1]))


# declared shape of a sampled modulus -> its sound upper envelope, and the
# radii a builder samples it at: the step envelope's error is first order in
# the spacing, the chord's second order
_ENVELOPES = {"monotone": _StepEnvelope, "convex": TabulatedModulus}
_SHAPE_RADII = {"monotone": 257, "convex": 33}


def _check_shape(shape: str) -> None:
    if shape not in _ENVELOPES:
        raise ValueError(f"unknown modulus shape {shape!r}; expected one of "
                         f"{sorted(_ENVELOPES)}")


@dataclass(frozen=True, eq=False)
class _ShiftedSum(LipschitzModulus):
    """k(r) = sum_i w_i k_i(offset + r) with the exact primitive
    K(r) = sum_i w_i (K_i(offset + r) - K_i(offset)), K_i(offset) taken once."""

    parts: tuple[tuple[float, LipschitzModulus], ...]
    offset: float = 0.0

    def __post_init__(self):
        ends = [m.domain_end() for _, m in self.parts if m.domain_end() is not None]
        object.__setattr__(self, "_end", min(ends) - self.offset if ends else None)
        object.__setattr__(self, "_bases",
                           tuple(m.primitive(self.offset) for _, m in self.parts))

    def domain_end(self) -> float | None:
        return self._end

    def __call__(self, r: float) -> float:
        r = self.offset + self._check_radius(r)
        return sum(w * m(r) for w, m in self.parts)

    def primitive(self, r: float) -> float:
        r = self.offset + self._check_radius(r)
        return sum(w * (m.primitive(r) - base)
                   for (w, m), base in zip(self.parts, self._bases))


@dataclass(frozen=True, eq=False)
class _PowerEnvelope(LipschitzModulus):
    """k(r) = min_i (a_i + b_i r**e) for e > 0, with its exact primitive.

    In u = r**e the curves are lines, so between consecutive crossings the
    minimum is one curve (a, b), and K is the running sum of the pieces'
    integrals a (r - r_j) + b (r**(e+1) - r_j**(e+1)) / (e+1).
    """

    curves: tuple[tuple[float, float], ...]
    exponent: float

    def __post_init__(self):
        if not all(math.isfinite(a) and math.isfinite(b) for a, b in self.curves):
            raise ValueError("envelope curves must be finite")
        e1 = self.exponent + 1.0
        # walk the lines from u = 0: the lowest intercept starts, and each
        # piece hands over to the first line to cross it, the flattest on a tie
        a, b = min(self.curves)
        u = start = base = power = 0.0
        pieces = []
        while True:
            pieces.append((start, base, power, a, b))
            later = [((aj - a) / (b - bj), bj, aj) for aj, bj in self.curves if bj < b]
            if not later:
                break
            crossing, b_next, a_next = min(later)
            u = max(u, crossing)  # a crossing rounded below u is at u
            end = u ** (1.0 / self.exponent)
            end_power = end**e1
            base += a * (end - start) + b * (end_power - power) / e1
            start, power, a, b = end, end_power, a_next, b_next
        object.__setattr__(self, "_starts", tuple(piece[0] for piece in pieces))
        object.__setattr__(self, "_pieces", tuple(pieces))

    def __call__(self, r: float) -> float:
        r = self._check_radius(r)
        return min(a + b * r**self.exponent for a, b in self.curves)

    def primitive(self, r: float) -> float:
        r = self._check_radius(r)
        start, base, power, a, b = self._pieces[bisect.bisect_right(self._starts, r) - 1]
        e1 = self.exponent + 1.0
        return base + a * (r - start) + b * (r**e1 - power) / e1


def combine_moduli(moduli, weights=None) -> LipschitzModulus:
    """Weighted sum of moduli (weights >= 0, default 1), with the exact
    primitive sum_i w_i K_i, on the smallest of the inputs' domains."""
    moduli = list(moduli)
    if not moduli:
        raise ValueError("need at least one modulus to combine")
    if weights is None:
        weights = [1.0] * len(moduli)
    weights = [float(w) for w in weights]
    if len(weights) != len(moduli):
        raise ValueError("weights length must match moduli length")
    if any(not math.isfinite(w) or w < 0.0 for w in weights):
        raise ValueError("combination weights must be finite and >= 0")
    return _ShiftedSum(tuple(zip(weights, moduli)))


def recenter_modulus(modulus: LipschitzModulus, offset: float) -> LipschitzModulus:
    """Modulus for a ball recentered at distance ``offset`` from the origin.

    Points of the new ball of radius r lie within radius offset + r of the
    original center, so the valid bound is k(offset + r), whose exact
    primitive is K(offset + r) - K(offset).
    """
    offset = float(offset)
    if not math.isfinite(offset) or offset < 0.0:
        raise ValueError(f"offset must be finite and >= 0, got {offset!r}")
    if isinstance(modulus, _ShiftedSum):
        return _ShiftedSum(modulus.parts, modulus.offset + offset)
    return _ShiftedSum(((1.0, modulus),), offset)


def modulus_from_samples(radii, samples, shape: str = "monotone") -> TabulatedModulus:
    """Sound upper envelope of a modulus k sampled at radii, for its shape.

    * monotone (k nondecreasing): the right-endpoint step envelope, whose
      error is first order in the spacing;
    * convex (k convex and nondecreasing): the chord through the samples,
      whose error is second order.

    The samples must be finite and nonnegative.  The shape is checked on
    them against _SAMPLE_NOISE relative to the largest sample: under convex
    a second difference below minus that band is rejected.  Dips within the
    band, floored at _SAMPLE_NOISE, are clamped up and deeper ones rejected.
    """
    _check_shape(shape)
    ys = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(ys)) or np.any(ys < 0.0):
        raise ValueError("sampled modulus values must be finite and nonnegative")
    scale = float(np.max(np.abs(ys))) if ys.size else 0.0
    running = np.maximum.accumulate(ys)
    worst_dip = float(np.max(running - ys)) if ys.size else 0.0
    # clamping a dip up errs on the safe side, so its band keeps a floor of 1
    if worst_dip > _SAMPLE_NOISE * max(scale, 1.0):
        raise ValueError(
            f"sampled modulus is not nondecreasing (worst dip {worst_dip:.3g})"
        )
    # the envelope checks the radii before they divide anything
    envelope = _ENVELOPES[shape](radii, running)
    if shape == "convex" and ys.size > 2:
        xs = envelope.abscissae
        second = np.diff(np.diff(ys) / np.diff(xs)) * (xs[2:] - xs[:-2]) / 2.0
        if float(np.min(second)) < -_SAMPLE_NOISE * scale:
            raise ValueError("sampled modulus is not convex (worst second "
                             f"difference {float(np.min(second)):.3g})")
    return envelope
