"""Scalar analysis of the majorant functions of an operator.

Given the displacement a = ||A x0 - x0|| and a Lipschitz modulus k(r) valid
on the ball of radius R, the pair upper(r) = a + K(r), lower(r) = a - K(r)
(with K the primitive of k) controls where fixed points of A can live:

* convergence_radius: smallest r with upper(r) = r.  Successive
  approximations from the center converge and the fixed point lies within
  this radius.
* inner_radius: smallest r with lower(r) = r.  No fixed point lies strictly
  inside this radius.
* uniqueness_radius: supremum of radii beyond convergence_radius where the
  upper majorant still sits below the bisectrix; the fixed point is unique
  in every ball up to it (boundary open or closed depending on the sign of
  upper(R) - R).
* contraction_radius: first radius where k reaches 1; the classical
  contraction-mapping argument applies to balls between convergence_radius
  and this radius.

Since k is nondecreasing, gap(r) = upper(r) - r is convex with derivative
k(r) - 1, so the gap is minimized exactly at the contraction radius (or at
R when k never reaches 1), and is strictly decreasing up to that point.
Each radius is one bisection, reported from the safe end of its bracket:
from above for the convergence radius, from below for the others.
The finders form a chain: the contraction radius is searched once and
locates the gap minimum for the convergence radius, and both bound the
search for the uniqueness radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoExistenceError
from .moduli import LipschitzModulus

__all__ = [
    "MajorantProfile",
    "Interval",
    "ZoneReport",
    "eval_majorants",
    "find_convergence_radius",
    "find_inner_radius",
    "find_uniqueness_radius",
    "find_contraction_radius",
    "analyze",
]

_TOL = 1e-12


@dataclass(frozen=True)
class MajorantProfile:
    """Displacement, modulus and ball radius defining the majorant pair.

    center_shift is a = ||A x0 - x0||; radius is the R of the ball on which
    the modulus is valid.  upper/lower always satisfy
    upper(r) + lower(r) == 2 * center_shift.
    """

    center_shift: float
    modulus: LipschitzModulus
    radius: float

    def __post_init__(self):
        a, R = float(self.center_shift), float(self.radius)
        if not math.isfinite(a) or a < 0.0:
            raise ValueError(f"center_shift must be finite and >= 0, got {a!r}")
        if not math.isfinite(R) or R <= 0.0:
            raise ValueError(f"radius must be finite and > 0, got {R!r}")
        end = self.modulus.domain_end()
        if end is not None and R > end * (1.0 + 1e-12):
            raise ValueError(
                f"radius {R!r} exceeds the modulus tabulation range {end!r}"
            )
        try:
            top = a + float(self.modulus.primitive(R))
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ValueError(f"a + K(R) must be finite, got {top!r} at R = {R!r}")
        object.__setattr__(self, "center_shift", a)
        object.__setattr__(self, "radius", R)

    def _check(self, r: float) -> float:
        r = float(r)
        if not math.isfinite(r) or r < 0.0 or r > self.radius * (1.0 + 1e-12):
            raise ValueError(f"radius {r!r} outside [0, {self.radius}]")
        return min(r, self.radius)

    def slope(self, r: float) -> float:
        """k(r)."""
        return float(self.modulus(self._check(r)))

    def modulus_integral(self, r: float) -> float:
        """K(r) = integral of k over [0, r]."""
        return float(self.modulus.primitive(self._check(r)))

    def upper(self, r: float) -> float:
        """a + K(r)."""
        return self.center_shift + self.modulus_integral(r)

    def lower(self, r: float) -> float:
        """a - K(r)."""
        return self.center_shift - self.modulus_integral(r)


@dataclass(frozen=True)
class Interval:
    """Radius interval with explicit endpoint openness."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    @classmethod
    def empty(cls) -> "Interval":
        return cls(0.0, 0.0, False, False)

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and not (self.lo_closed and self.hi_closed)

    def contains(self, value: float) -> bool:
        if self.is_empty():
            return False
        lo_ok = value > self.lo or (value == self.lo and self.lo_closed)
        hi_ok = value < self.hi or (value == self.hi and self.hi_closed)
        return lo_ok and hi_ok

    def contains_interval(self, other: "Interval") -> bool:
        if other.is_empty():
            return True
        if self.is_empty():
            return False
        lo_ok = other.lo > self.lo or (
            other.lo == self.lo and (self.lo_closed or not other.lo_closed)
        )
        hi_ok = other.hi < self.hi or (
            other.hi == self.hi and (self.hi_closed or not other.hi_closed)
        )
        return lo_ok and hi_ok

    def to_dict(self) -> dict:
        return {
            "empty": self.is_empty(),
            "lo": self.lo,
            "hi": self.hi,
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }


@dataclass(frozen=True)
class ZoneReport:
    """Radii certified for one majorant profile; the zones follow from them.

    A report with no convergence radius is a refuted existence check: it
    keeps the contraction radius and the minimized-gap witness, and every
    zone is empty.
    """

    inner_radius: float | None
    convergence_radius: float | None
    uniqueness_radius: float | None
    uniqueness_radius_closed: bool
    degenerate: bool
    contraction_radius: float | None
    gap: float | None = None
    gap_argmin: float | None = None

    @property
    def existence_certified(self) -> bool:
        return self.convergence_radius is not None

    @property
    def existence_zone(self) -> Interval:
        if not self.existence_certified:
            return Interval.empty()
        return Interval(self.inner_radius, self.convergence_radius, True, True)

    @property
    def uniqueness_zone(self) -> Interval:
        if not self.existence_certified:
            return Interval.empty()
        return Interval(0.0, self.uniqueness_radius, True, self.uniqueness_radius_closed)

    @property
    def contraction_zone(self) -> Interval:
        """[convergence radius, min(contraction, uniqueness radius))."""
        if not self.existence_certified:
            return Interval.empty()
        r_conv, cap = self.convergence_radius, self.uniqueness_radius
        if self.contraction_radius is not None:
            cap = min(self.contraction_radius, cap)
        if cap <= r_conv:
            return Interval.empty()
        return Interval(r_conv, cap, True, False)


def eval_majorants(profile: MajorantProfile, r: float) -> tuple[float, float]:
    """Evaluate (upper, lower) at radius r in [0, R]."""
    integral = profile.modulus_integral(r)
    return profile.center_shift + integral, profile.center_shift - integral


def _resolution(profile: MajorantProfile) -> float:
    """Bracket width of the finders: _TOL, or R / 1024 on smaller balls, so
    every bracket is halved at least ten times."""
    return min(_TOL, profile.radius / 1024.0)


def _predicate_boundary(pred, lo: float, hi: float, width: float) -> tuple[float, float]:
    """Bisect for the switch point of a predicate that is True at lo and
    False at hi, down to width; returns the final bracket (lo, hi)."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def find_contraction_radius(profile: MajorantProfile) -> float | None:
    """Smallest r with k(r) >= 1, from below; None when k < 1 up to R."""
    if profile.slope(profile.radius) < 1.0:
        return None
    if profile.slope(0.0) >= 1.0:
        return 0.0
    return _predicate_boundary(lambda r: profile.slope(r) < 1.0,
                               0.0, profile.radius, _resolution(profile))[0]


def _gap_minimum(profile: MajorantProfile, contraction_radius: float | None
                 ) -> tuple[float, float, float]:
    """Location, value and float noise of min_r (upper(r) - r).

    The gap has nondecreasing derivative k(r) - 1, so its minimum sits at
    the contraction radius, or at R when k never reaches 1.  At a tangency
    the true gap falls below the rounding of a + K(r) - r, so its sign is
    decided only outside the noise band: above it existence is refuted,
    within it the minimum is a double root.  The band is 16 ulps of the
    largest term, with a floor of 1 that shrinks with the resolution on
    balls too small for _TOL: a fixed floor would outgrow the gaps of a
    small ball and read a refuted gap as a tangency.
    """
    argmin = (profile.radius if contraction_radius is None
              else float(contraction_radius))
    if not 0.0 <= argmin <= profile.radius:
        raise ValueError(f"contraction radius {argmin!r} outside [0, R]")
    upper = profile.upper(argmin)
    floor = _resolution(profile) / _TOL
    scale = max(floor, profile.center_shift, argmin, abs(upper))
    return argmin, upper - argmin, 16.0 * math.ulp(scale)


def find_convergence_radius(profile: MajorantProfile,
                            contraction_radius: float | None) -> float:
    """Smallest fixed point of the upper majorant on [0, R], from above.

    contraction_radius is find_contraction_radius(profile): the gap
    minimizer, or None when the minimizer is R.

    The gap is strictly decreasing on [0, argmin], so one bisection there
    brackets the root; flat segments (k == 1) resolve to the infimum of the
    fixed-point set.  A gap minimum zero within float noise is a double
    root: min(argmin + _resolution(profile), R), the upper end of the
    contraction bracket.

    Raises NoExistenceError when the minimized gap exceeds float noise
    (upper(r) > r across [0, R]), reporting the gap and its location.
    """
    if profile.center_shift == 0.0:
        return 0.0
    argmin, min_gap, noise = _gap_minimum(profile, contraction_radius)
    if min_gap > noise:
        raise NoExistenceError(min_gap, argmin)
    width = _resolution(profile)
    if min_gap >= -noise:
        return min(argmin + width, profile.radius)
    return _predicate_boundary(lambda x: profile.upper(x) - x > 0.0,
                               0.0, argmin, width / 10.0)[1]


def find_inner_radius(profile: MajorantProfile) -> float:
    """Unique root of lower(r) = r on [0, min(a, R)].

    lower(r) - r is strictly decreasing (slope -k(r) - 1 <= -1), so the
    bisection bracket [0, min(a, R)] is certified whenever the profile is
    in the existence regime (a <= convergence_radius <= R).
    """
    a = profile.center_shift
    if a == 0.0:
        return 0.0
    hi = min(a, profile.radius)
    if profile.lower(hi) - hi > 0.0:
        raise ValueError(
            "lower majorant has no root on [0, R]; profile outside the "
            "existence regime"
        )
    return _predicate_boundary(lambda r: profile.lower(r) - r > 0.0,
                               0.0, hi, _resolution(profile) / 10.0)[0]


def find_uniqueness_radius(profile: MajorantProfile, convergence_radius: float,
                           contraction_radius: float | None
                           ) -> tuple[float, bool, bool]:
    """Supremum radius of guaranteed uniqueness beyond the convergence radius.

    convergence_radius and contraction_radius are what
    find_convergence_radius and find_contraction_radius return for profile.

    Returns (radius, closed, degenerate): closed means upper(R) < R, so the
    boundary radius itself is certified; degenerate marks the tangency case
    where the upper majorant never drops below the bisectrix and the
    uniqueness radius collapses onto the convergence radius, exactly when
    find_convergence_radius reports a double root.  Raises
    NoExistenceError where find_convergence_radius does.
    """
    r_conv = float(convergence_radius)
    if not math.isfinite(r_conv) or r_conv < 0.0 or r_conv > profile.radius:
        raise ValueError(f"convergence radius {r_conv!r} outside [0, R]")
    R = profile.radius
    if profile.upper(R) - R < 0.0:
        return R, True, False
    argmin, min_gap, noise = _gap_minimum(profile, contraction_radius)
    if min_gap > noise:
        raise NoExistenceError(min_gap, argmin)
    if min_gap >= -noise:
        return r_conv, False, True
    boundary = _predicate_boundary(lambda r: profile.upper(r) - r < 0.0,
                                   argmin, R, _resolution(profile) / 10.0)[0]
    return boundary, False, False


def analyze(profile: MajorantProfile) -> ZoneReport:
    """Compose the radius finders into a full zone report.

    The contraction radius is searched once and handed down the chain.

    A failed existence check is not an error here: the report comes back
    with no convergence radius, the contraction radius, and the
    minimized-gap witness.
    """
    r_cr = find_contraction_radius(profile)
    try:
        r_conv = find_convergence_radius(profile, r_cr)
    except NoExistenceError as exc:
        return ZoneReport(None, None, None, False, False, r_cr,
                          gap=exc.gap, gap_argmin=exc.argmin)
    r_inner = find_inner_radius(profile)
    r_uni, closed, degenerate = find_uniqueness_radius(profile, r_conv, r_cr)
    return ZoneReport(r_inner, r_conv, r_uni, closed, degenerate, r_cr)
