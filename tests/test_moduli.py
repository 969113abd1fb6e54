import functools
import math
import operator
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorfix import (
    ConstantModulus,
    MajorantProfile,
    PowerSumModulus,
    TabulatedModulus,
    combine_moduli,
    modulus_from_samples,
    recenter_modulus,
)


def riemann_primitive(modulus, r, n=200_000):
    """Independent midpoint-rule oracle for K(r)."""
    if r == 0.0:
        return 0.0
    mids = (np.arange(n) + 0.5) * (r / n)
    return float(sum(modulus(m) for m in mids) * (r / n))


class TestEvaluation:
    def test_constant(self):
        k = ConstantModulus(0.5)
        assert k(3.0) == 0.5
        assert k.primitive(3.0) == 1.5

    def test_power_sum(self):
        k = PowerSumModulus(((2.0, 1.0), (1.0, 0.0)))
        assert k(0.5) == 2.0
        assert k.primitive(0.5) == pytest.approx(0.25 + 0.5, abs=1e-15)

    def test_power_sum_zero_exponent_at_origin(self):
        k = PowerSumModulus(((3.0, 0.0),))
        assert k(0.0) == 3.0

    def test_tabulated_interpolation(self):
        k = TabulatedModulus(np.array([0.0, 1.0]), np.array([0.2, 1.8]))
        assert k(0.5) == pytest.approx(1.0, abs=1e-15)
        # exact piecewise-quadratic primitive of the interpolant
        assert k.primitive(0.5) == pytest.approx(0.2 * 0.5 + 0.8 * 0.25, abs=1e-15)

    @pytest.mark.parametrize("modulus, r", [
        (ConstantModulus(0.7), 2.5),
        (PowerSumModulus(((1.5, 2.3), (0.2, 0.0))), 1.7),
        (TabulatedModulus(np.array([0.0, 0.4, 2.0]), np.array([0.1, 0.3, 0.9])), 1.3),
    ])
    def test_primitive_matches_riemann_oracle(self, modulus, r):
        assert modulus.primitive(r) == pytest.approx(
            riemann_primitive(modulus, r), rel=1e-9, abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=100, deadline=None)
    def test_primitive_is_nondecreasing_and_zero_at_origin(self, r):
        k = PowerSumModulus(((0.3, 0.5), (0.1, 2.0)))
        assert k.primitive(0.0) == 0.0
        assert k.primitive(r) >= 0.0
        assert k.primitive(r + 0.1) >= k.primitive(r)


class TestValidation:
    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            ConstantModulus(-0.1)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            PowerSumModulus(((-1.0, 1.0),))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            PowerSumModulus(((1.0, -0.5),))

    def test_decreasing_tabulated_rejected(self):
        with pytest.raises(ValueError):
            TabulatedModulus(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 2.0]))

    def test_tabulated_must_start_at_zero(self):
        with pytest.raises(ValueError):
            TabulatedModulus(np.array([0.1, 1.0]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("xs,ys", [
        ([0.0, 5e-324, 1.0], [0.0, 0.5, 1e300]),   # slope 0.5/5e-324
        ([0.0, 1e-320, 1.0], [0.0, 1e-5, 0.6]),    # slope 1e315
    ])
    def test_tabulated_slope_overflow_rejected_without_warning(self, xs, ys):
        # the slope that primitive reads overflowed to inf, so K(0) was
        # 0 * inf = NaN and analyze certified a refuted profile
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="slope overflows"):
                TabulatedModulus(np.array(xs), np.array(ys))

    @pytest.mark.parametrize("xs,ys", [
        ([0.0, 1e-320, 1.0], [0.0, 1e-320, 0.6]),  # subnormal spacing, slope 1
        ([0.0, 1e-5, 0.6], [0.0, 1e-5, 0.6]),
    ])
    def test_tabulated_steep_but_finite_slopes_kept(self, xs, ys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = TabulatedModulus(np.array(xs), np.array(ys))
            assert k.primitive(0.0) == 0.0
            assert k.primitive(5e-324) == 0.0
            assert k.primitive(xs[-1]) == pytest.approx(
                0.5 * xs[-1] * ys[-1], rel=1e-12)

    def test_step_envelope_reads_no_slopes(self):
        # a monotone sampled modulus is a step envelope: its steep steps stay
        k = modulus_from_samples(np.array([0.0, 5e-324, 1.0]),
                                 np.array([0.0, 0.5, 1e300]))
        assert k(5e-324) == 0.5 and k.primitive(1.0) == 1e300

    def test_tabulated_domain_enforced(self):
        k = TabulatedModulus(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            k(1.5)
        with pytest.raises(ValueError):
            k(-0.5)

    def test_sampled_noise_clamped_but_real_dips_rejected(self):
        xs = np.linspace(0.0, 1.0, 5)
        noisy = np.array([0.0, 0.5, 0.5 - 1e-12, 0.7, 1.0])
        k = modulus_from_samples(xs, noisy)
        assert k(xs[2]) >= k(xs[1])
        with pytest.raises(ValueError):
            modulus_from_samples(xs, np.array([0.0, 0.5, 0.2, 0.7, 1.0]))


# nondecreasing k with its exact primitive; the first two are concave, the
# step function is neither concave nor convex
NONDECREASING = {
    "sqrt": (math.sqrt, lambda r: (2.0 / 3.0) * r**1.5),
    "r^0.3": (lambda r: r**0.3, lambda r: r**1.3 / 1.3),
    "r^2": (lambda r: r * r, lambda r: r**3 / 3.0),
    "step": (lambda r: float(r > 0.4), lambda r: max(0.0, r - 0.4)),
}
CONVEX = ("r^2",)
# radii between and on the nodes of linspace(0, 1, 9), whose spacing is 1/8
PROBES = [j / 64.0 for j in range(65)] + [0.3, 0.41, 0.999]


class TestSampledModulus:
    @pytest.mark.parametrize("name", sorted(NONDECREASING))
    def test_step_envelope_covers_every_nondecreasing_k(self, name):
        k, primitive = NONDECREASING[name]
        xs = np.linspace(0.0, 1.0, 9)
        env = modulus_from_samples(xs, [k(x) for x in xs])
        for r in PROBES:
            assert env(r) >= k(r)
            assert env.primitive(r) >= primitive(r)

    @pytest.mark.parametrize("name", sorted(NONDECREASING))
    def test_step_primitive_is_exact(self, name):
        # the steps' exact running sum, in Fractions, at and between nodes
        k = NONDECREASING[name][0]
        xs = np.linspace(0.0, 1.0, 9)
        ys = [k(x) for x in xs]
        env = modulus_from_samples(xs, ys, "monotone")
        for r in PROBES:
            j = max(int(np.searchsorted(xs, r)), 1)
            exact = (sum(Fraction(ys[i]) / 8 for i in range(1, j))
                     + Fraction(ys[j]) * (Fraction(r) - Fraction(xs[j - 1])))
            assert env(r) == ys[j] or r == 0.0
            assert env.primitive(r) == pytest.approx(float(exact), abs=1e-15)

    @pytest.mark.parametrize("name", CONVEX)
    def test_chord_covers_a_convex_k(self, name):
        k, primitive = NONDECREASING[name]
        xs = np.linspace(0.0, 1.0, 9)
        env = modulus_from_samples(xs, [k(x) for x in xs], "convex")
        for r in PROBES:
            assert env(r) >= k(r)
            assert env.primitive(r) >= primitive(r)
            j = max(int(np.searchsorted(xs, r)), 1)
            x0, x1 = Fraction(xs[j - 1]), Fraction(xs[j])
            y0, y1 = Fraction(k(xs[j - 1])), Fraction(k(xs[j]))
            dr = Fraction(r) - x0
            exact = (sum((Fraction(k(xs[i - 1])) + Fraction(k(xs[i]))) / 16
                         for i in range(1, j))
                     + y0 * dr + (y1 - y0) / (x1 - x0) * dr * dr / 2)
            assert env.primitive(r) == pytest.approx(float(exact), abs=1e-15)

    @pytest.mark.parametrize("name", sorted(set(NONDECREASING) - set(CONVEX)))
    def test_convex_declaration_checked_on_the_samples(self, name):
        k = NONDECREASING[name][0]
        xs = np.linspace(0.0, 1.0, 9)
        with pytest.raises(ValueError, match="not convex"):
            modulus_from_samples(xs, [k(x) for x in xs], "convex")

    def test_one_noise_band_for_dips_and_second_differences(self):
        xs = np.linspace(0.0, 1.0, 5)
        line = 0.5 + xs
        bent = line.copy()
        bent[2] += 1e-10       # a second difference of -2e-10, in the band
        env = modulus_from_samples(xs, bent, "convex")
        assert np.array_equal(env.ordinates, bent)
        bent[2] += 1e-8        # beyond it
        with pytest.raises(ValueError, match="not convex"):
            modulus_from_samples(xs, bent, "convex")
        flat = np.full(5, 0.5)
        flat[3] -= 1e-10       # a dip in the band is clamped under both shapes
        for shape in ("monotone", "convex"):
            assert np.array_equal(modulus_from_samples(xs, flat, shape).ordinates,
                                  np.full(5, 0.5))

    def test_convex_band_scales_with_the_samples(self):
        # second differences are held to the samples' own scale, with no
        # floor of 1; a dip is clamped up within a band floored at 1e-9
        xs = np.linspace(0.0, 1.0, 33)
        small = 9.5e-9 * np.sqrt(xs)
        with pytest.raises(ValueError, match="not convex"):
            modulus_from_samples(xs, small, "convex")
        assert np.array_equal(modulus_from_samples(xs, 1e-3 * xs * xs, "convex").ordinates,
                              1e-3 * xs * xs)
        dipped = np.full(33, 1e-6)
        dipped[5] -= 5e-10
        assert np.array_equal(modulus_from_samples(xs, dipped).ordinates,
                              np.full(33, 1e-6))

    @pytest.mark.parametrize("shape", ["monotone", "convex"])
    def test_decreasing_samples_rejected_under_every_shape(self, shape):
        xs = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="not nondecreasing"):
            modulus_from_samples(xs, np.maximum(0.0, 0.5 - xs), shape)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="unknown modulus shape"):
            modulus_from_samples([0.0, 1.0], [1.0, 1.0], "concave")

    # checked before any arithmetic on the samples, so numpy warns of nothing
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5],
                             ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("shape", ["monotone", "convex"])
    def test_non_finite_or_negative_samples_rejected(self, shape, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite and nonnegative"):
                modulus_from_samples(np.linspace(0.0, 1.0, 5),
                                     [0.0, 1.0, bad, 3.0, 4.0], shape)


def sqrt_primitive(offset, r):
    """Exact primitive of k(r) = sqrt(offset + r) from 0 to r."""
    return (2.0 / 3.0) * ((offset + r) ** 1.5 - offset**1.5)


class TestAlgebra:
    def test_scale(self):
        k = combine_moduli([PowerSumModulus(((2.0, 1.0),))], [0.5])
        assert k(1.0) == 1.0

    def test_combine_power_sums_exact(self):
        combined = combine_moduli(
            [ConstantModulus(1.0), PowerSumModulus(((2.0, 1.0),))],
            weights=[0.3, 0.7],
        )
        for r in (0.0, 0.4, 1.0, 2.0):
            assert combined(r) == pytest.approx(0.3 + 1.4 * r, abs=1e-15)
            assert combined.primitive(r) == pytest.approx(0.3 * r + 0.7 * r * r,
                                                          abs=1e-15)

    def test_combine_with_tabulated_is_exact_on_breakpoints(self):
        tab = TabulatedModulus(np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.6, 0.6]))
        combined = combine_moduli([tab, ConstantModulus(0.1)])
        assert combined.domain_end() == 1.0
        for r in (0.0, 0.15, 0.3, 0.65, 1.0):
            tab_k = 2.0 * r if r <= 0.3 else 0.6
            tab_K = r * r if r <= 0.3 else 0.09 + 0.6 * (r - 0.3)
            assert combined(r) == pytest.approx(tab_k + 0.1, abs=1e-15)
            assert combined.primitive(r) == pytest.approx(tab_K + 0.1 * r, abs=1e-15)

    def test_recenter_constant_identity(self):
        k = recenter_modulus(ConstantModulus(0.4), 0.7)
        for r in (0.0, 0.3, 1.0, 2.5):
            assert k(r) == 0.4
            assert k.primitive(r) == pytest.approx(0.4 * r, abs=1e-15)

    def test_recenter_integer_power_exact(self):
        k = PowerSumModulus(((3.0, 2.0),))
        shifted = recenter_modulus(k, 0.5)
        for r in (0.0, 0.3, 1.0):
            assert shifted(r) == pytest.approx(3.0 * (r + 0.5) ** 2, abs=1e-14)
            assert shifted.primitive(r) == pytest.approx((r + 0.5) ** 3 - 0.125,
                                                         abs=1e-14)

    def test_recenter_fractional_power_sampled(self):
        k = PowerSumModulus(((1.0, 0.5),))
        shifted = recenter_modulus(k, 0.25)
        for r in (0.0, 0.1, 0.5, 1.0):
            assert shifted(r) == pytest.approx(math.sqrt(0.25 + r), abs=1e-14)
            assert shifted.primitive(r) == pytest.approx(sqrt_primitive(0.25, r),
                                                         abs=1e-14)

    def test_recentered_sqrt_primitive_is_exact_near_origin(self):
        shifted = recenter_modulus(PowerSumModulus(((1.0, 0.5),)), 0.01)
        for r in (0.0, 1e-3, 0.05, 0.3, 1.0):
            assert shifted.primitive(r) == pytest.approx(sqrt_primitive(0.01, r),
                                                         abs=1e-15)

    def test_combine_table_with_sqrt_is_sum_of_primitives(self):
        tab = TabulatedModulus(np.array([0.0, 0.4, 2.0]), np.array([0.1, 0.3, 0.9]))
        root = PowerSumModulus(((1.0, 0.5),))
        combined = combine_moduli([tab, root])
        for r in (0.0, 0.01, 0.2, 0.4, 1.3, 2.0):
            assert combined(r) == pytest.approx(tab(r) + math.sqrt(r), abs=1e-15)
            assert combined.primitive(r) == pytest.approx(
                tab.primitive(r) + sqrt_primitive(0.0, r), abs=1e-15)

    def test_recentered_table_domain_shrinks_by_offset(self):
        tab = TabulatedModulus(np.array([0.0, 0.4, 2.0]), np.array([0.1, 0.3, 0.9]))
        shifted = recenter_modulus(tab, 0.5)
        assert shifted.domain_end() == 2.0 - 0.5
        assert shifted.primitive(1.5) == pytest.approx(
            tab.primitive(2.0) - tab.primitive(0.5), abs=1e-15)
        MajorantProfile(0.1, shifted, 1.5)
        with pytest.raises(ValueError):
            MajorantProfile(0.1, shifted, 1.6)
        with pytest.raises(ValueError):
            shifted(1.6)

    def test_recentering_twice_adds_offsets(self):
        k = recenter_modulus(recenter_modulus(PowerSumModulus(((1.0, 0.5),)), 0.25),
                             0.5)
        for r in (0.0, 0.2, 1.0):
            assert k(r) == pytest.approx(math.sqrt(0.75 + r), abs=1e-15)
            assert k.primitive(r) == pytest.approx(sqrt_primitive(0.75, r), abs=1e-15)

    @pytest.mark.parametrize("offset", [-0.1, math.inf, math.nan])
    def test_recenter_rejects_bad_offset(self, offset):
        with pytest.raises(ValueError):
            recenter_modulus(ConstantModulus(1.0), offset)

    @pytest.mark.parametrize("weights", [[1.0], [1.0, -0.5], [1.0, math.inf]])
    def test_combine_rejects_bad_weights(self, weights):
        with pytest.raises(ValueError):
            combine_moduli([ConstantModulus(1.0), ConstantModulus(2.0)], weights)


def same_bits(value, reference):
    """value is a Python float with exactly the bits of reference, sign of
    zero included."""
    return type(value) is float and value.hex() == float(reference).hex()


# The numpy expressions a tabulated modulus evaluated k and K through before
# it read float tuples, kept as the references its bits are held to; r is
# already clamped to the domain end.
def chord_primitive(xs, ys, r):
    cumulative = np.concatenate(([0.0], np.cumsum(np.diff(xs) * (ys[:-1] + ys[1:]) / 2.0)))
    j = int(np.searchsorted(xs, r, side="right")) - 1
    j = min(max(j, 0), xs.size - 2)
    dr = r - xs[j]
    slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
    return float(cumulative[j] + ys[j] * dr + 0.5 * slope * dr * dr)


def step_value(xs, ys, r):
    return float(ys[np.searchsorted(xs, r)])


def step_primitive(xs, ys, r):
    cumulative = np.concatenate(([0.0], np.cumsum(np.diff(xs) * ys[1:])))
    j = max(int(np.searchsorted(xs, r)), 1)
    return float(cumulative[j - 1] + ys[j] * (r - xs[j - 1]))


@st.composite
def tables(draw):
    """Valid nodes and ordinates: up to two leading subnormal spacings, then
    spacings of scale 10**ex; steps of scale 10**ey, some flat.  Both scales
    run from 1e-300 to 1e300, bounded so that every slope and every
    integral stays finite."""
    n = draw(st.integers(2, 7))
    ex = draw(st.integers(-300, 300))
    ey = draw(st.integers(-300, min(300, ex + 300, 300 - ex)))
    tiny = draw(st.integers(0, min(2, n - 1)))
    mantissa = st.floats(1.0, 10.0)
    gaps, steps = [], []
    for i in range(n - 1):
        if i < tiny:
            gap = draw(st.integers(1, 2**40)) * 5e-324
            step = gap * 10.0 ** draw(st.integers(0, 300))   # slope up to 1e300
        else:
            gap = draw(mantissa) * 10.0**ex
            step = draw(mantissa) * 10.0**ey
        gaps.append(gap)
        steps.append(step if draw(st.booleans()) else 0.0)
    xs, ys = [0.0], [draw(st.sampled_from([0.0, -0.0, draw(mantissa) * 10.0**ey]))]
    for gap, step in zip(gaps, steps):
        xs.append(xs[-1] + gap)
        ys.append(ys[-1] + step)
    return np.array(xs), np.array(ys)


@st.composite
def tables_and_radii(draw):
    """A table and radii at 0, at every node and its neighbours, inside every
    segment, at the end and inside the domain slack past it."""
    xs, ys = draw(tables())
    nodes, end = xs.tolist(), float(xs[-1])
    limit = end * (1.0 + 1e-12) + 1e-12
    radii = [0.0, -0.0, end, limit] + nodes
    radii += [math.nextafter(x, math.inf) for x in nodes[:-1]]
    radii += [math.nextafter(x, 0.0) for x in nodes[1:]]
    for u in draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6)):
        j = draw(st.integers(0, len(nodes) - 2))
        radii.append(nodes[j] + u * (nodes[j + 1] - nodes[j]))
        radii.append(min(end + u * (limit - end), limit))
    return xs, ys, radii


class TestFloatEvaluation:
    @given(tables_and_radii())
    @settings(max_examples=300, deadline=None)
    def test_tabulated_k_and_K_keep_the_numpy_bits(self, drawn):
        xs, ys, radii = drawn
        chord = TabulatedModulus(xs, ys)
        step = modulus_from_samples(xs, ys, "monotone")
        for r in radii:
            clamped = min(r, float(xs[-1]))
            assert same_bits(chord(r), np.interp(clamped, xs, ys)), r
            assert same_bits(chord.primitive(r), chord_primitive(xs, ys, clamped)), r
            assert same_bits(step(r), step_value(xs, ys, clamped)), r
            assert same_bits(step.primitive(r), step_primitive(xs, ys, clamped)), r

    def test_nodes_and_ordinates_stay_read_only_arrays(self):
        k = TabulatedModulus([0.0, 0.5, 1.0], [0.1, 0.2, 0.4])
        for values in (k.abscissae, k.ordinates):
            assert isinstance(values, np.ndarray) and not values.flags.writeable
        assert type(k.domain_end()) is float and k.domain_end() == 1.0


def left_to_right(values):
    """Explicit left-to-right float sum from 0.0."""
    return functools.reduce(operator.add, values, 0.0)


class TestLeftToRightSums:
    """Multi-term k and K add their terms left to right on every Python:
    sum() of floats is compensated from 3.12 on and would change their bits."""

    def test_compensated_sum_would_differ(self):
        terms = ((1e16, 0.0), (1.0, 0.0), (1.0, 0.0))
        assert math.fsum(c for c, _ in terms) == 1e16 + 2.0
        assert same_bits(PowerSumModulus(terms)(0.5), 1e16)
        combined = combine_moduli([ConstantModulus(c) for c, _ in terms])
        assert same_bits(combined(0.5), 1e16)

    @given(terms=st.lists(st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 4.0)),
                          min_size=2, max_size=4),
           weights=st.lists(st.floats(0.0, 1e3), min_size=4, max_size=4),
           r=st.floats(0.0, 10.0), offset=st.floats(0.0, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_multi_term_sums_add_left_to_right(self, terms, weights, r, offset):
        k = PowerSumModulus(tuple(terms))
        assert same_bits(k(r), left_to_right(c * r**p for c, p in terms))
        assert same_bits(k.primitive(r), left_to_right(
            c * r ** (p + 1.0) / (p + 1.0) for c, p in terms))
        s = offset + r
        shifted = recenter_modulus(k, offset)
        assert same_bits(shifted(r), left_to_right([1.0 * k(s)]))
        assert same_bits(shifted.primitive(r),
                         left_to_right([1.0 * (k.primitive(s) - k.primitive(offset))]))

        parts = list(zip(weights, (PowerSumModulus((term,)) for term in terms)))
        combined = combine_moduli([m for _, m in parts], [w for w, _ in parts])
        assert same_bits(combined(r), left_to_right(w * m(r) for w, m in parts))
        assert same_bits(combined.primitive(r), left_to_right(
            w * (m.primitive(r) - m.primitive(0.0)) for w, m in parts))
        shifted = recenter_modulus(combined, offset)
        assert same_bits(shifted(r), left_to_right(w * m(s) for w, m in parts))
        assert same_bits(shifted.primitive(r), left_to_right(
            w * (m.primitive(s) - m.primitive(offset)) for w, m in parts))
