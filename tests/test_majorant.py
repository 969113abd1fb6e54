import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorfix import (
    ConstantModulus,
    LipschitzModulus,
    MajorantProfile,
    NoExistenceError,
    PowerSumModulus,
    TabulatedModulus,
    ZoneReport,
    analyze,
    eval_majorants,
    find_contraction_radius,
    find_convergence_radius,
    find_inner_radius,
    find_uniqueness_radius,
)
from majorfix import majorant
from majorfix.cli import run_analyze
from majorfix.presets import get_preset
from helpers import quadratic_radii, random_existence_profile


def quad_profile(a, c=1.0, radius=1.0):
    return MajorantProfile(a, PowerSumModulus(((2.0 * c, 1.0),)), radius)


BANACH = MajorantProfile(1.0, ConstantModulus(0.5), 10.0)
QUAD = quad_profile(0.1875)
TANGENT = quad_profile(0.25)


class CountingModulus(LipschitzModulus):
    """Delegates to another modulus and counts primitive evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.primitive_calls = 0

    def __call__(self, r):
        return self.inner(r)

    def primitive(self, r):
        self.primitive_calls += 1
        return self.inner.primitive(r)


class TestEvalMajorants:
    def test_constant_modulus_hand_integration(self):
        assert eval_majorants(BANACH, 2.0) == pytest.approx((2.0, 0.0), abs=1e-15)

    def test_at_origin(self):
        profile = MajorantProfile(0.5, PowerSumModulus(((3.0, 2.0),)), 1.0)
        assert eval_majorants(profile, 0.0) == (0.5, 0.5)

    def test_quadratic_arithmetic(self):
        assert eval_majorants(QUAD, 0.5) == pytest.approx((0.4375, -0.0625), abs=1e-15)

    @pytest.mark.parametrize("modulus,radius", [
        (PowerSumModulus(((2.0, 1.0),)), 1e200),      # K(R) overflows
        (ConstantModulus(1e300), 1e10),               # K(R) is inf
    ])
    def test_profile_needs_finite_upper_at_radius(self, modulus, radius):
        with pytest.raises(ValueError, match="finite"):
            MajorantProfile(0.1875, modulus, radius)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            eval_majorants(QUAD, 1.5)
        with pytest.raises(ValueError):
            eval_majorants(QUAD, -0.1)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=200, deadline=None)
    def test_symmetry_within_four_ulps(self, r, a):
        profile = MajorantProfile(a, PowerSumModulus(((1.3, 0.7),)), 1.0)
        upper, lower = eval_majorants(profile, r)
        target = 2.0 * a
        assert abs((upper + lower) - target) <= 4.0 * math.ulp(max(abs(upper), 1.0))

    def test_monotone_on_grid(self):
        rs = np.linspace(0.0, 1.0, 1000)
        uppers = [QUAD.upper(float(r)) for r in rs]
        lowers = [QUAD.lower(float(r)) for r in rs]
        assert all(b >= a for a, b in zip(uppers, uppers[1:]))
        assert all(b <= a for a, b in zip(lowers, lowers[1:]))


class TestConvergenceRadius:
    def test_quadratic_smaller_root(self):
        r_conv = find_convergence_radius(QUAD, find_contraction_radius(QUAD))
        assert r_conv == pytest.approx(0.25, abs=1e-10)

    def test_zero_displacement(self):
        assert find_convergence_radius(
            quad_profile(0.0), find_contraction_radius(quad_profile(0.0))) == 0.0

    def test_geometric_series_closed_form(self):
        r_conv = find_convergence_radius(BANACH, find_contraction_radius(BANACH))
        assert r_conv == pytest.approx(2.0, abs=1e-10)

    def test_no_existence_with_witness(self):
        with pytest.raises(NoExistenceError) as excinfo:
            find_convergence_radius(quad_profile(0.5),
                                    find_contraction_radius(quad_profile(0.5)))
        assert excinfo.value.gap == pytest.approx(0.25, abs=1e-10)
        assert excinfo.value.argmin == pytest.approx(0.5, abs=1e-10)

    def test_tangency(self):
        r_conv = find_convergence_radius(TANGENT, find_contraction_radius(TANGENT))
        assert r_conv == pytest.approx(0.5, abs=1e-10)

    def test_flat_segment_returns_infimum(self):
        # k ramps to 1 then stays flat; the fixed-point set is [0.2, 1]
        modulus = TabulatedModulus(np.array([0.0, 0.2, 1.0]),
                                   np.array([0.0, 1.0, 1.0]))
        profile = MajorantProfile(0.1, modulus, 1.0)
        r_conv = find_convergence_radius(profile, find_contraction_radius(profile))
        assert r_conv == pytest.approx(0.2, abs=1e-9)

    def test_near_tangent_root_takes_one_bisection(self):
        # the roots 0.5 -+ 1e-5 of r = a + r^2 nearly touch; one bisection on
        # [0, 0.5] down to 1e-13 needs about 45 primitive evaluations
        modulus = CountingModulus(PowerSumModulus(((2.0, 1.0),)))
        profile = MajorantProfile(0.25 - 1e-10, modulus, 1.0)
        r_cr = find_contraction_radius(profile)
        modulus.primitive_calls = 0
        r_conv = find_convergence_radius(profile, r_cr)
        assert modulus.primitive_calls <= 64
        assert r_conv == pytest.approx(0.5 - 1e-5, abs=1e-9)


class TestInnerRadius:
    def test_constant_closed_form(self):
        assert find_inner_radius(BANACH) == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_zero(self):
        assert find_inner_radius(quad_profile(0.0)) == 0.0

    def test_quadratic_root(self):
        expected = (math.sqrt(1.75) - 1.0) / 2.0
        assert find_inner_radius(QUAD) == pytest.approx(expected, abs=1e-10)


class TestUniquenessRadius:
    def test_open_at_second_root(self):
        r, closed, degenerate = find_uniqueness_radius(
            QUAD, 0.25, find_contraction_radius(QUAD))
        assert r == pytest.approx(0.75, abs=1e-10)
        assert not closed and not degenerate

    def test_closed_at_domain_end(self):
        r, closed, degenerate = find_uniqueness_radius(
            BANACH, 2.0, find_contraction_radius(BANACH))
        assert r == 10.0 and closed and not degenerate

    def test_degenerate_tangency(self):
        r_cr = find_contraction_radius(TANGENT)
        r_conv = find_convergence_radius(TANGENT, r_cr)
        r, closed, degenerate = find_uniqueness_radius(TANGENT, r_conv, r_cr)
        assert r == pytest.approx(0.5, abs=1e-10)
        assert not closed and degenerate

    def test_invalid_convergence_radius(self):
        with pytest.raises(ValueError):
            find_uniqueness_radius(QUAD, 2.0, find_contraction_radius(QUAD))


class TestExistenceVerdict:
    # the sign of the minimized gap is decided only outside the float-noise
    # band; the bracket resolution (1e-12) plays no part in it
    PAST_TANGENCY = quad_profile(0.25 + 9e-13)

    def test_gap_past_tangency_refutes_existence(self):
        report = analyze(self.PAST_TANGENCY)
        assert not report.existence_certified
        assert report.convergence_radius is None
        assert report.gap == pytest.approx(9.0e-13, rel=1e-4)
        assert report.gap_argmin == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("R", [1e-10, 1e-16, 1e-300])
    def test_small_ball_gap_past_tangency_refutes_existence(self, R):
        # k = 1/2, a = 0.50001 R: the only fixed point, 2a, lies outside the
        # ball; the gap at R, 1e-5 R, is far below 16 ulp(1), so the band
        # must shrink with the ball for the verdict to hold
        report = analyze(MajorantProfile(0.50001 * R, ConstantModulus(0.5), R))
        assert not report.existence_certified
        assert report.gap == pytest.approx(1e-5 * R, rel=1e-6)
        assert report.gap_argmin == R

    @staticmethod
    def verdicts(profile):
        """(convergence verdict, uniqueness degenerate flag) of one profile."""
        r_cr = find_contraction_radius(profile)
        try:
            r_conv = find_convergence_radius(profile, r_cr)
        except NoExistenceError:
            with pytest.raises(NoExistenceError):
                find_uniqueness_radius(profile, r_cr, r_cr)
            return "refuted", None
        # a double root is reported past the gap minimizer, a bisected root
        # at or before it
        verdict = "tangent" if r_conv > r_cr else "bisected"
        return verdict, find_uniqueness_radius(profile, r_conv, r_cr)[2]

    def test_ulp_sweep_across_tangency_agrees_between_finders(self):
        # a = 0.25 + j ulp(0.25), k = 2r: the gap minimum is j ulp(0.25), and
        # the noise band is 16 ulp(1) = 64 ulp(0.25)
        order = {"bisected": 0, "tangent": 1, "refuted": 2}
        seen = []
        for j in range(-128, 129):
            verdict, degenerate = self.verdicts(
                quad_profile(0.25 + j * math.ulp(0.25)))
            if verdict != "refuted":
                assert degenerate == (verdict == "tangent"), j
            if -64 <= j <= 64:
                assert verdict == "tangent", j
            seen.append(order[verdict])
        assert seen == sorted(seen)
        assert seen[0] == order["bisected"] and seen[-1] == order["refuted"]

    def test_gap_minimum_read_once_per_finder(self):
        modulus = CountingModulus(PowerSumModulus(((2.0, 1.0),)))
        profile = MajorantProfile(0.25, modulus, 1.0)
        r_cr = find_contraction_radius(profile)
        modulus.primitive_calls = 0
        r_conv = find_convergence_radius(profile, r_cr)
        assert modulus.primitive_calls == 1
        modulus.primitive_calls = 0
        find_uniqueness_radius(profile, r_conv, r_cr)
        assert modulus.primitive_calls == 2      # upper(R), then upper(argmin)


class TestFinderChain:
    @pytest.mark.parametrize("profile", [QUAD, BANACH, TANGENT, quad_profile(0.5)],
                             ids=["quadratic", "contraction", "tangency",
                                  "supercritical"])
    def test_analyze_searches_contraction_radius_once(self, monkeypatch, profile):
        calls = []
        search = majorant.find_contraction_radius

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(majorant, "find_contraction_radius", counted)
        analyze(profile)
        assert len(calls) == 1

    def test_contraction_radius_outside_ball_rejected(self):
        with pytest.raises(ValueError, match="contraction radius"):
            find_convergence_radius(QUAD, 1.5)
        with pytest.raises(ValueError, match="contraction radius"):
            find_uniqueness_radius(QUAD, 0.25, -0.1)
        with pytest.raises(ValueError, match="contraction radius"):
            find_uniqueness_radius(QUAD, 0.25, math.nan)


class TestResolution:
    # the finders bracket to min(1e-12, R / 1024): a fixed width on ordinary
    # balls, a tenth of a percent of R on balls too small for it

    @pytest.mark.parametrize("R", [1.0, 1e-3, 1.024e-9, 1e-10, 1e-12, 1e-16, 1e-300])
    def test_constant_modulus_radii_within_a_tenth(self, R):
        # a = R/100, k = 1/2: roots 2a (upper) and 2a/3 (lower) at every
        # scale, no contraction radius, uniqueness up to R closed; the gap
        # at R, -0.49 R, stays outside the noise band, which shrinks with
        # the ball
        a = R / 100.0
        report = analyze(MajorantProfile(a, ConstantModulus(0.5), R))
        width = Fraction(min(1e-12, R / 1024.0) / 10.0)
        conv, inner = Fraction(report.convergence_radius), Fraction(report.inner_radius)
        assert 0 <= conv - 2 * Fraction(a) <= width
        assert 0 <= 2 * Fraction(a) / 3 - inner <= width
        assert report.contraction_radius is None
        assert report.uniqueness_radius == R and report.uniqueness_radius_closed

    @pytest.mark.parametrize("k", [0, 10, 34, 300])
    def test_contraction_radius_within_one(self, k):
        # s = 2^-k, slope 2r/s on R = 0.9 s: the predicate is exact in floats
        # and switches at s/2, found from below
        s = 2.0 ** -k
        profile = MajorantProfile(0.1 * s, PowerSumModulus(((2.0 / s, 1.0),)), 0.9 * s)
        r_cr = find_contraction_radius(profile)
        assert 0 <= Fraction(s / 2.0) - Fraction(r_cr) <= Fraction(min(1e-12, 0.9 * s / 1024.0))


class TestContractionRadius:
    def test_quadratic(self):
        assert find_contraction_radius(QUAD) == pytest.approx(0.5, abs=1e-10)

    def test_absent_below_one(self):
        assert find_contraction_radius(BANACH) is None

    def test_tabulated_crossing(self):
        modulus = TabulatedModulus(np.array([0.0, 1.0]), np.array([0.2, 1.8]))
        profile = MajorantProfile(0.05, modulus, 1.0)
        assert find_contraction_radius(profile) == pytest.approx(0.5, abs=1e-10)


class TestAnalyze:
    def test_quadratic_zones(self):
        report = analyze(QUAD)
        assert report.existence_certified
        assert report.inner_radius == pytest.approx(0.161437827766, abs=1e-9)
        assert report.convergence_radius == pytest.approx(0.25, abs=1e-10)
        assert report.contraction_radius == pytest.approx(0.5, abs=1e-10)
        assert report.uniqueness_radius == pytest.approx(0.75, abs=1e-10)
        assert not report.uniqueness_radius_closed
        assert report.contraction_zone.lo == pytest.approx(0.25, abs=1e-10)
        assert report.contraction_zone.hi == pytest.approx(0.5, abs=1e-10)
        assert report.contraction_zone.lo_closed and not report.contraction_zone.hi_closed
        assert report.existence_zone.lo_closed and report.existence_zone.hi_closed

    def test_tangency_collapses_contraction_zone(self):
        report = analyze(TANGENT)
        assert report.degenerate
        assert report.contraction_zone.is_empty()
        for value in (report.convergence_radius, report.contraction_radius,
                      report.uniqueness_radius):
            assert value == pytest.approx(0.5, abs=1e-10)

    def test_zero_displacement_constant_modulus(self):
        report = analyze(MajorantProfile(0.0, ConstantModulus(0.5), 1.0))
        assert report.inner_radius == 0.0
        assert report.convergence_radius == 0.0
        assert report.uniqueness_radius == 1.0
        assert report.uniqueness_radius_closed
        assert report.uniqueness_zone.contains(1.0)

    def test_no_existence_report_keeps_witness(self):
        report = analyze(quad_profile(0.5))
        assert not report.existence_certified
        assert report.contraction_radius == pytest.approx(0.5, abs=1e-10)
        assert report.gap == pytest.approx(0.25, abs=1e-10)
        assert report.existence_zone.is_empty()

    def test_refuted_report_has_no_zones(self):
        # no convergence radius: the flag and all three zones follow from it
        report = ZoneReport(None, None, None, False, False, 0.5,
                            gap=0.25, gap_argmin=0.5)
        assert report.existence_certified is False
        for zone in (report.existence_zone, report.uniqueness_zone,
                     report.contraction_zone):
            assert zone.is_empty()

    @pytest.mark.parametrize("a,c", [(0.1875, 1.0), (0.05, 2.0), (0.12, 1.5)])
    def test_matches_quadratic_oracle(self, a, c):
        radius = 1.0
        report = analyze(quad_profile(a, c, radius))
        oracle = quadratic_radii(a, c, radius)
        assert report.inner_radius == pytest.approx(oracle["inner"], abs=1e-10)
        assert report.convergence_radius == pytest.approx(oracle["convergence"], abs=1e-10)
        r_uni, closed, degenerate = oracle["uniqueness"]
        assert report.uniqueness_radius == pytest.approx(r_uni, abs=1e-10)
        assert report.uniqueness_radius_closed == closed
        assert report.degenerate == degenerate


def _quadratic_roots(a: float, c: float) -> dict:
    """Exact radii of upper(r) = a + c r^2, lower(r) = a - c r^2 (50 digits)."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, c = Decimal(a), Decimal(c)
        disc = (1 - 4 * a * c).sqrt()
        roots = {"inner_radius": ((1 + 4 * a * c).sqrt() - 1) / (2 * c),
                 "convergence_radius": (1 - disc) / (2 * c),
                 "uniqueness_radius": (1 + disc) / (2 * c),
                 "contraction_radius": 1 / (2 * c)}
    return {key: Fraction(value) for key, value in roots.items()}


EXACT_RADII = {
    "quadratic": _quadratic_roots(0.1875, 1.0),
    "multilinear-quadratic": _quadratic_roots(0.1875, 1.0),
    "tangency": _quadratic_roots(0.25, 1.0),
    # upper(r) = 1 + r/2 on R = 10: uniqueness closed at R, no contraction radius
    "contraction": {"inner_radius": Fraction(2, 3), "convergence_radius": Fraction(2),
                    "uniqueness_radius": Fraction(10)},
}


class TestSafeSide:
    @pytest.mark.parametrize("name", sorted(EXACT_RADII))
    def test_preset_radii_on_safe_side_within_width(self, name):
        # up for the convergence radius, down for the others; the bracket is
        # _TOL/10 wide, _TOL for the contraction radius and at a tangency
        resolution = majorant._TOL
        radii = run_analyze(get_preset(name))["radii"]
        for key, root in EXACT_RADII[name].items():
            if key == "uniqueness_radius" and radii["degenerate"]:
                continue          # collapses onto the convergence radius
            value = Fraction(radii[key])
            offset = value - root if key == "convergence_radius" else root - value
            wide = key == "contraction_radius" or (
                key == "convergence_radius" and radii["degenerate"])
            width = Fraction(resolution if wide else resolution / 10.0)
            assert 0 <= offset <= width, (key, float(offset))


class TestRandomProfiles:
    def test_radius_ordering_and_sequence_limit(self, rng):
        for _ in range(200):
            profile, rho = random_existence_profile(rng)
            report = analyze(profile)
            assert report.existence_certified
            assert report.convergence_radius == pytest.approx(rho, abs=1e-9)
            assert 0.0 <= report.inner_radius <= report.convergence_radius + 1e-12
            if report.contraction_radius is not None:
                assert report.convergence_radius <= report.contraction_radius + 1e-9
            assert report.convergence_radius <= report.uniqueness_radius + 1e-9
            assert report.uniqueness_radius <= profile.radius + 1e-12
            s = 0.0
            for _ in range(400):
                s = profile.upper(s)
            assert s <= report.convergence_radius + 1e-9

    def test_banach_reduction(self, rng):
        for _ in range(100):
            q = float(rng.uniform(0.01, 0.99))
            a = float(rng.uniform(0.01, 2.0))
            r_star = a / (1.0 - q)
            radius = 1.5 * r_star + 0.1
            profile = MajorantProfile(a, ConstantModulus(q), radius)
            report = analyze(profile)
            assert report.convergence_radius == pytest.approx(r_star, abs=1e-10)
            assert report.inner_radius == pytest.approx(a / (1.0 + q), abs=1e-10)
            assert report.contraction_radius is None
            assert report.uniqueness_radius == radius
            assert report.uniqueness_radius_closed
