"""Radius-dependent Lipschitz bounds and their exact primitives.

A modulus is a nonnegative, nondecreasing function k(r) on [0, R] together
with its primitive K(r) = integral of k from 0 to r.  Every radius the
library reports is a root of a +- K(r) - r, so K is never approximated.
Three evaluators cover every modulus:

* a power sum evaluates K in closed form, piece by piece: a constant is
  the one-term sum q r**0, and a power envelope
  k(r) = min_i (a_i + b_i r**e) is the sum a + b r**e of one curve on each
  piece between crossings;
* a table holds a level and a slope per segment: a tabulated modulus is a
  linear interpolant, and a sampled modulus is a sound upper envelope of
  its samples for a declared shape (the right-endpoint step envelope of a
  nondecreasing k, the chord of a convex one); K is the exact integral;
* weighted sums and recentered moduli are one shifted weighted sum
  k(r) = sum_i w_i k_i(offset + r) with
  K(r) = sum_i w_i (K_i(offset + r) - K_i(offset)), built from the inputs'
  own exact primitives and never resampled.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

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

    # largest radius the modulus is defined for (None = unbounded): a
    # subclass with a bounded domain sets it, and _check_radius reads it
    _end: float | None = None

    def __call__(self, r: float) -> float:
        raise NotImplementedError

    def primitive(self, r: float) -> float:
        raise NotImplementedError

    def domain_end(self) -> float | None:
        """Largest radius the modulus is defined for (None = unbounded)."""
        return self._end

    def _check_radius(self, r: float) -> float:
        r = float(r)
        if not 0.0 <= r < math.inf:
            raise ValueError(f"radius must be finite and nonnegative, got {r!r}")
        end = self._end
        if end is not None:
            if r > end * (1.0 + _DOMAIN_SLACK) + _DOMAIN_SLACK:
                raise ValueError(f"radius {r!r} beyond the tabulated range [0, {end!r}]")
            r = min(r, end)
        return r


@dataclass(frozen=True)
class PowerSumModulus(LipschitzModulus):
    """Finite power sum k(r) = sum_i c_i * r**p_i with c_i >= 0, p_i >= 0.

    It is evaluated piece by piece, a plain sum being one piece from 0: on
    a piece from s with base K(s), K(r) = K(s) + sum_i c_i (r**(p_i + 1) -
    s**(p_i + 1)) / (p_i + 1), with p_i + 1 and s**(p_i + 1) precomputed.
    A superposition envelope (_envelope) has a piece per curve it follows;
    its terms are those of its first piece.
    """

    terms: tuple[tuple[float, float], ...]
    # per piece: (base, ((c, p), ...), ((c, p + 1, start**(p + 1)), ...))
    _pieces: tuple = field(init=False, repr=False)

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
        self._set_pieces(((0.0, 0.0, self.terms),))

    def _set_pieces(self, pieces) -> None:
        """Store (start, base, terms) pieces, sorted by start from 0."""
        object.__setattr__(self, "_breaks", tuple(start for start, _, _ in pieces[1:]))
        object.__setattr__(self, "_pieces", tuple(
            (base, terms, tuple((c, p + 1.0, start ** (p + 1.0)) for c, p in terms))
            for start, base, terms in pieces))

    @classmethod
    def _envelope(cls, curves, exponent: float) -> PowerSumModulus:
        """k(r) = min_i (a_i + b_i r**e) for e > 0, as pieces a r**0 + b r**e.

        In u = r**e the curves are lines, so between consecutive crossings
        the minimum is one curve (a, b), and each piece's base is the
        running sum of the pieces' integrals a (r - r_j) + b (r**(e+1) -
        r_j**(e+1)) / (e+1).  k reads the piece's curve, which is the
        minimum but within rounding of a crossing.  The walk stops at the
        first crossing whose end or end**(e+1) is not finite: the current
        curve then bounds the minimum from above, the safe side for radii.
        """
        if not all(math.isfinite(a) and math.isfinite(b) for a, b in curves):
            raise ValueError("envelope curves must be finite")
        e1 = exponent + 1.0
        # walk the lines from u = 0: the lowest intercept starts, and each
        # piece hands over to the first line to cross it, the flattest on a tie
        a, b = min(curves)
        u = start = base = power = 0.0
        pieces = []
        while True:
            pieces.append((start, base, ((a, 0.0), (b, exponent))))
            later = [((aj - a) / (b - bj), bj, aj) for aj, bj in curves if bj < b]
            crossing, b_next, a_next = min(later, default=(math.inf, b, a))
            u = max(u, crossing)  # a crossing rounded below u is at u
            try:
                end = u ** (1.0 / exponent)
                end_power = end**e1
            except OverflowError:
                end_power = math.inf
            if end_power == math.inf:
                break
            base += a * (end - start) + b * (end_power - power) / e1
            start, power, a, b = end, end_power, a_next, b_next
        envelope = object.__new__(cls)
        object.__setattr__(envelope, "terms", pieces[0][2])
        envelope._set_pieces(pieces)
        return envelope

    # the terms add left to right from the base: sum() of floats is
    # compensated from Python 3.12 on, which would change K's bits with the
    # interpreter
    def __call__(self, r: float) -> float:
        r = self._check_radius(r)
        total = 0.0
        for c, p in self._pieces[bisect_right(self._breaks, r)][1]:
            total += c * r**p
        return total

    def primitive(self, r: float) -> float:
        r = self._check_radius(r)
        total, _, terms = self._pieces[bisect_right(self._breaks, r)]
        for c, p1, power in terms:
            total += c * (r**p1 - power) / p1
        return total


class ConstantModulus(PowerSumModulus):
    """Classical contraction constant: k(r) = q for all r, the one-term
    power sum q r**0, whose k = 0.0 + q * r**0.0 is q and whose
    K = 0.0 + q * (r**1.0 - 0.0) / 1.0 is q * r, bit for bit."""

    def __init__(self, value: float):
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"constant modulus must be finite and >= 0, got {value!r}")
        super().__init__(((value, 0.0),))


@dataclass(frozen=True, eq=False)
class TabulatedModulus(LipschitzModulus):
    """Linear interpolant of nonnegative nondecreasing samples on [0, t_M].

    Each segment holds a level and a slope: off the nodes k = slope (r - x_j)
    + level, and K = K(x_j) + level dr + 0.5 slope dr dr, the exact integral,
    with dr = r - x_j.  A chord segment holds (y_j, its slope); a segment of
    a step envelope (_steps) holds (y_{j+1}, 0).  k and K read float tuples
    of the nodes, ordinates, segments and node primitives: a numpy scalar
    costs microseconds per call, and every bisection step makes one.
    """

    abscissae: np.ndarray
    ordinates: np.ndarray

    def __post_init__(self):
        xs, ys = self._checked(self.abscissae, self.ordinates)
        # primitive reads each segment through its slope dy/dx, which
        # overflows on a steep enough segment (a subnormal spacing, say)
        with np.errstate(over="ignore"):
            slopes = np.diff(ys) / np.diff(xs)
        if not np.all(np.isfinite(slopes)):
            lo, hi = xs[np.argmin(np.isfinite(slopes)):][:2].tolist()
            raise ValueError(f"tabulated segment [{lo!r}, {hi!r}] is too steep: "
                             f"its slope overflows")
        self._set_segments(ys[:-1], slopes, np.diff(xs) * (ys[:-1] + ys[1:]) / 2.0)

    @classmethod
    def _steps(cls, abscissae, ordinates) -> TabulatedModulus:
        """Right-endpoint step envelope of nondecreasing samples: k(r) = k(r_j)
        on (r_{j-1}, r_j], above every nondecreasing k through the samples.
        Its primitive is piecewise linear, the running sum of the steps."""
        table = object.__new__(cls)
        xs, ys = table._checked(abscissae, ordinates)
        table._set_segments(ys[1:], np.zeros(ys.size - 1), np.diff(xs) * ys[1:])
        return table

    def _checked(self, abscissae, ordinates) -> tuple[np.ndarray, np.ndarray]:
        """Check the nodes and ordinates and store read-only copies."""
        xs = np.asarray(abscissae, dtype=float).copy()
        ys = np.asarray(ordinates, dtype=float).copy()
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
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "abscissae", xs)
        object.__setattr__(self, "ordinates", ys)
        return xs, ys

    def _set_segments(self, levels, slopes, integrals) -> None:
        # exact primitive of the table at every node
        cumulative = np.concatenate(([0.0], np.cumsum(integrals)))
        object.__setattr__(self, "_xs", tuple(self.abscissae.tolist()))
        object.__setattr__(self, "_ys", tuple(self.ordinates.tolist()))
        object.__setattr__(self, "_segments", tuple(zip(levels.tolist(), slopes.tolist())))
        object.__setattr__(self, "_cumulative", tuple(cumulative.tolist()))
        object.__setattr__(self, "_end", self._xs[-1])

    def __call__(self, r: float) -> float:
        # np.interp's own arithmetic on a chord: a node returns its ordinate,
        # the last one included (r is clamped to it); r in (x_j, x_{j+1})
        # reads the segment
        r = self._check_radius(r)
        xs = self._xs
        j = bisect_right(xs, r) - 1
        if xs[j] == r:
            return self._ys[j]
        level, slope = self._segments[j]
        return slope * (r - xs[j]) + level

    def primitive(self, r: float) -> float:
        r = self._check_radius(r)
        xs = self._xs
        j = min(bisect_right(xs, r) - 1, len(xs) - 2)
        dr = r - xs[j]
        level, slope = self._segments[j]
        return self._cumulative[j] + level * dr + 0.5 * slope * dr * dr


# declared shape of a sampled modulus -> its sound upper envelope, and the
# radii a builder samples it at: the step envelope's error is first order in
# the spacing, the chord's second order
_ENVELOPES = {"monotone": TabulatedModulus._steps, "convex": TabulatedModulus}
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

    # left to right from 0.0, as PowerSumModulus adds its terms
    def __call__(self, r: float) -> float:
        r = self.offset + self._check_radius(r)
        total = 0.0
        for w, m in self.parts:
            total += w * m(r)
        return total

    def primitive(self, r: float) -> float:
        r = self.offset + self._check_radius(r)
        total = 0.0
        for (w, m), base in zip(self.parts, self._bases):
            total += w * (m.primitive(r) - base)
        return total


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
