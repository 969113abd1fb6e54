"""Radius-dependent Lipschitz bounds and their exact primitives.

A modulus is a nonnegative, nondecreasing function k(r) on [0, R] together
with its primitive K(r) = integral of k from 0 to r.  The primitive is
always evaluated in closed form (constant and power-sum variants) or as the
exact integral of the linear interpolant (tabulated variant), never by
numeric quadrature, so downstream root finding sees a noise-free function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LipschitzModulus",
    "ConstantModulus",
    "PowerSumModulus",
    "TabulatedModulus",
    "scale_modulus",
    "combine_moduli",
    "recenter_modulus",
    "modulus_from_samples",
]

_DOMAIN_SLACK = 1e-12


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
        xs.setflags(write=False)
        ys.setflags(write=False)
        # exact primitive of the interpolant at every node
        segments = np.diff(xs) * (ys[:-1] + ys[1:]) / 2.0
        cumulative = np.concatenate(([0.0], np.cumsum(segments)))
        cumulative.setflags(write=False)
        object.__setattr__(self, "abscissae", xs)
        object.__setattr__(self, "ordinates", ys)
        object.__setattr__(self, "_cumulative", cumulative)

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


def scale_modulus(modulus: LipschitzModulus, factor: float) -> LipschitzModulus:
    """Return factor * k as a modulus of the same variant (factor >= 0)."""
    factor = float(factor)
    if not math.isfinite(factor) or factor < 0.0:
        raise ValueError(f"scale factor must be finite and >= 0, got {factor!r}")
    if isinstance(modulus, ConstantModulus):
        return ConstantModulus(factor * modulus.value)
    if isinstance(modulus, PowerSumModulus):
        return PowerSumModulus(tuple((factor * c, p) for c, p in modulus.terms))
    if isinstance(modulus, TabulatedModulus):
        return TabulatedModulus(modulus.abscissae, factor * modulus.ordinates)
    raise TypeError(f"unsupported modulus type {type(modulus)!r}")


def _merge_power_terms(moduli, weights) -> PowerSumModulus:
    merged: dict[float, float] = {}
    for modulus, weight in zip(moduli, weights):
        if isinstance(modulus, ConstantModulus):
            terms = ((modulus.value, 0.0),)
        else:
            terms = modulus.terms
        for coef, exponent in terms:
            merged[exponent] = merged.get(exponent, 0.0) + weight * coef
    return PowerSumModulus(tuple(sorted((c, p) for p, c in merged.items() if c != 0.0))
                           or ((0.0, 0.0),))


def combine_moduli(moduli, weights=None, *, radius: float | None = None,
                   samples: int = 257) -> LipschitzModulus:
    """Weighted sum of moduli (weights >= 0).

    Constant and power-sum inputs combine exactly.  Any tabulated input
    forces resampling on the union of all tabulated breakpoints plus a
    uniform fill, which is exact when every input is tabulated or constant.
    """
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

    if all(isinstance(m, (ConstantModulus, PowerSumModulus)) for m in moduli):
        return _merge_power_terms(moduli, weights)

    ends = [m.domain_end() for m in moduli if m.domain_end() is not None]
    end = min(ends) if ends else None
    if radius is None:
        radius = end
    if radius is None:
        raise ValueError("radius required to combine moduli without a tabulated range")
    if end is not None and radius > end * (1.0 + _DOMAIN_SLACK):
        raise ValueError(f"radius {radius!r} beyond the combined tabulated range {end!r}")

    nodes = {0.0, float(radius)}
    nodes.update(np.linspace(0.0, radius, samples).tolist())
    for m in moduli:
        if isinstance(m, TabulatedModulus):
            nodes.update(x for x in m.abscissae.tolist() if x <= radius)
    xs = np.array(sorted(nodes))
    ys = np.zeros_like(xs)
    for m, w in zip(moduli, weights):
        ys += w * np.array([m(x) for x in xs])
    return modulus_from_samples(xs, ys)


def recenter_modulus(modulus: LipschitzModulus, offset: float, radius: float,
                     samples: int = 257) -> LipschitzModulus:
    """Modulus for a ball recentered at distance ``offset`` from the origin.

    Points of the new ball of radius r lie within radius offset + r of the
    original center, so the valid bound is k(offset + r).  Exact for
    constants and for power sums with integer exponents (binomial shift);
    tabulated resampling otherwise.
    """
    offset = float(offset)
    if offset < 0.0:
        raise ValueError("offset must be >= 0")
    if offset == 0.0:
        return modulus
    if isinstance(modulus, ConstantModulus):
        return modulus
    if isinstance(modulus, PowerSumModulus) and all(
        float(p).is_integer() for _, p in modulus.terms
    ):
        shifted: dict[float, float] = {}
        for coef, exponent in modulus.terms:
            p = int(exponent)
            for j in range(p + 1):
                c = coef * math.comb(p, j) * offset ** (p - j)
                shifted[float(j)] = shifted.get(float(j), 0.0) + c
        return PowerSumModulus(tuple(sorted((c, p) for p, c in shifted.items())))
    xs = np.linspace(0.0, radius, samples)
    ys = np.array([modulus(offset + x) for x in xs])
    return modulus_from_samples(xs, ys)


def modulus_from_samples(abscissae, ordinates, *, monotone_tol: float = 1e-9
                         ) -> TabulatedModulus:
    """Build a tabulated modulus, tolerating float-level monotonicity noise.

    Dips no deeper than monotone_tol relative to the sample scale are
    clamped; anything larger is a genuine non-monotone input and rejected.
    """
    xs = np.asarray(abscissae, dtype=float)
    ys = np.asarray(ordinates, dtype=float)
    scale = float(np.max(np.abs(ys))) if ys.size else 0.0
    running = np.maximum.accumulate(ys)
    worst_dip = float(np.max(running - ys)) if ys.size else 0.0
    if worst_dip > monotone_tol * max(scale, 1.0):
        raise ValueError(
            f"sampled modulus is not nondecreasing (worst dip {worst_dip:.3g})"
        )
    return TabulatedModulus(xs, running)
