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
    "DEFAULT_TOL",
    "MajorantProfile",
    "Interval",
    "ZoneReport",
    "eval_majorants",
    "find_convergence_radius",
    "find_inner_radius",
    "find_uniqueness_radius",
    "find_contraction_radius",
    "analyze",
    "majorant_sequence",
]

DEFAULT_TOL = 1e-12


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

    def __str__(self) -> str:
        if self.is_empty():
            return "(empty)"
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo:.12g}, {self.hi:.12g}{right}"


@dataclass(frozen=True)
class ZoneReport:
    """Radii and radius zones certified for one majorant profile."""

    existence_certified: bool
    inner_radius: float | None
    convergence_radius: float | None
    uniqueness_radius: float | None
    uniqueness_radius_closed: bool
    degenerate: bool
    contraction_radius: float | None
    contraction_zone: Interval
    uniqueness_zone: Interval
    existence_zone: Interval
    gap: float | None = None
    gap_argmin: float | None = None


def eval_majorants(profile: MajorantProfile, r: float) -> tuple[float, float]:
    """Evaluate (upper, lower) at radius r in [0, R]."""
    integral = profile.modulus_integral(r)
    return profile.center_shift + integral, profile.center_shift - integral


def _check_tol(tol: float, radius: float) -> None:
    """0 < tol <= radius / 1024: every bracket is halved at least ten times."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if tol > radius / 1024.0:
        raise ValueError(f"tol {tol!r} exceeds R / 1024 = {radius / 1024.0!r}")


def _predicate_boundary(pred, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Bisect for the switch point of a predicate that is True at lo and
    False at hi; returns the final bracket (lo, hi)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def find_contraction_radius(profile: MajorantProfile,
                            tol: float = DEFAULT_TOL) -> float | None:
    """Smallest r with k(r) >= 1, from below; None when k < 1 up to R."""
    _check_tol(tol, profile.radius)
    if profile.slope(profile.radius) < 1.0:
        return None
    if profile.slope(0.0) >= 1.0:
        return 0.0
    return _predicate_boundary(lambda r: profile.slope(r) < 1.0,
                               0.0, profile.radius, tol)[0]


def _gap_minimum(profile: MajorantProfile,
                 contraction_radius: float | None) -> tuple[float, float]:
    """Location and value of min_r (upper(r) - r).

    The gap has nondecreasing derivative k(r) - 1, so its minimum sits at
    the contraction radius, or at R when k never reaches 1.
    """
    argmin = (profile.radius if contraction_radius is None
              else float(contraction_radius))
    if not 0.0 <= argmin <= profile.radius:
        raise ValueError(f"contraction radius {argmin!r} outside [0, R]")
    return argmin, profile.upper(argmin) - argmin


def _gap_noise(profile: MajorantProfile, argmin: float) -> float:
    """Float evaluation noise of the gap near its minimum.

    At a tangency the true gap falls below the rounding of a + K(r) - r,
    so sign tests there are meaningless; anything within this band is
    treated as zero (the conservative direction: zones only shrink)."""
    scale = max(1.0, profile.center_shift, argmin, abs(profile.upper(argmin)))
    return 16.0 * math.ulp(scale)


def find_convergence_radius(profile: MajorantProfile,
                            contraction_radius: float | None,
                            tol: float = DEFAULT_TOL) -> float:
    """Smallest fixed point of the upper majorant on [0, R], from above.

    contraction_radius is find_contraction_radius(profile, tol): the gap
    minimizer, or None when the minimizer is R.

    The gap is strictly decreasing on [0, argmin], so one bisection there
    brackets the root; flat segments (k == 1) resolve to the infimum of the
    fixed-point set.  A gap minimum zero within float noise is a double
    root: min(argmin + tol, R), the upper end of the contraction bracket.

    Raises NoExistenceError when upper(r) > r across [0, R], reporting the
    minimized gap and its location.
    """
    _check_tol(tol, profile.radius)
    if profile.center_shift == 0.0:
        return 0.0
    argmin, min_gap = _gap_minimum(profile, contraction_radius)
    if min_gap > tol:
        raise NoExistenceError(min_gap, argmin)
    if min_gap > -_gap_noise(profile, argmin):
        return min(argmin + tol, profile.radius)
    return _predicate_boundary(lambda x: profile.upper(x) - x > 0.0,
                               0.0, argmin, tol / 10.0)[1]


def find_inner_radius(profile: MajorantProfile,
                      tol: float = DEFAULT_TOL) -> float:
    """Unique root of lower(r) = r on [0, min(a, R)].

    lower(r) - r is strictly decreasing (slope -k(r) - 1 <= -1), so the
    bisection bracket [0, min(a, R)] is certified whenever the profile is
    in the existence regime (a <= convergence_radius <= R).
    """
    _check_tol(tol, profile.radius)
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
                               0.0, hi, tol / 10.0)[0]


def find_uniqueness_radius(profile: MajorantProfile, convergence_radius: float,
                           contraction_radius: float | None,
                           tol: float = DEFAULT_TOL
                           ) -> tuple[float, bool, bool]:
    """Supremum radius of guaranteed uniqueness beyond the convergence radius.

    convergence_radius and contraction_radius are what
    find_convergence_radius and find_contraction_radius return for profile.

    Returns (radius, closed, degenerate): closed means upper(R) < R, so the
    boundary radius itself is certified; degenerate marks the tangency case
    where the upper majorant never drops below the bisectrix and the
    uniqueness radius collapses onto the convergence radius.
    """
    _check_tol(tol, profile.radius)
    r_conv = float(convergence_radius)
    if not math.isfinite(r_conv) or r_conv < 0.0 or r_conv > profile.radius:
        raise ValueError(f"convergence radius {r_conv!r} outside [0, R]")
    R = profile.radius
    if profile.upper(R) - R < 0.0:
        return R, True, False
    argmin, min_gap = _gap_minimum(profile, contraction_radius)
    if min_gap >= -_gap_noise(profile, argmin):
        return r_conv, False, True
    boundary = _predicate_boundary(lambda r: profile.upper(r) - r < 0.0,
                                   argmin, R, tol / 10.0)[0]
    return boundary, False, False


def analyze(profile: MajorantProfile, tol: float = DEFAULT_TOL) -> ZoneReport:
    """Compose the radius finders into a full zone report.

    The contraction radius is searched once and handed down the chain.

    A failed existence check is not an error here: the report comes back
    with existence_certified False, the contraction radius, and the
    minimized-gap witness.
    """
    _check_tol(tol, profile.radius)
    r_cr = find_contraction_radius(profile, tol)
    try:
        r_conv = find_convergence_radius(profile, r_cr, tol)
    except NoExistenceError as exc:
        return ZoneReport(
            existence_certified=False,
            inner_radius=None,
            convergence_radius=None,
            uniqueness_radius=None,
            uniqueness_radius_closed=False,
            degenerate=False,
            contraction_radius=r_cr,
            contraction_zone=Interval.empty(),
            uniqueness_zone=Interval.empty(),
            existence_zone=Interval.empty(),
            gap=exc.gap,
            gap_argmin=exc.argmin,
        )
    r_inner = find_inner_radius(profile, tol)
    r_uni, closed, degenerate = find_uniqueness_radius(profile, r_conv, r_cr, tol)

    existence_zone = Interval(r_inner, r_conv, True, True)
    uniqueness_zone = Interval(0.0, r_uni, True, closed)
    contraction_cap = r_uni if r_cr is None else min(r_cr, r_uni)
    if contraction_cap <= r_conv:
        contraction_zone = Interval.empty()
    else:
        contraction_zone = Interval(r_conv, contraction_cap, True, False)

    return ZoneReport(
        existence_certified=True,
        inner_radius=r_inner,
        convergence_radius=r_conv,
        uniqueness_radius=r_uni,
        uniqueness_radius_closed=closed,
        degenerate=degenerate,
        contraction_radius=r_cr,
        contraction_zone=contraction_zone,
        uniqueness_zone=uniqueness_zone,
        existence_zone=existence_zone,
    )


def majorant_sequence(profile: MajorantProfile, start: float,
                      count: int) -> list[float]:
    """Iterate the upper majorant: [s_0 = start, s_1 = upper(s_0), ...].

    Started at 0 this is the certified envelope of the center iteration;
    started at the initial offset it is the envelope of an arbitrary start.
    The sequence is monotone toward the convergence radius when the start
    lies in its basin; it exits [0, R] only in the no-existence regime,
    which raises ValueError naming the offending step.
    """
    start = float(start)
    if count < 0:
        raise ValueError("count must be >= 0")
    if start < 0.0 or start > profile.radius:
        raise ValueError(f"start {start!r} outside [0, {profile.radius}]")
    values = [start]
    s = start
    for step in range(count):
        s = profile.upper(s)
        if s > profile.radius * (1.0 + 1e-12):
            raise ValueError(
                f"majorant sequence left [0, {profile.radius}] at step "
                f"{step + 1} (value {s!r}); no fixed point below R"
            )
        values.append(s)
    return values
