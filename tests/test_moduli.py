import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorfix import (
    ConstantModulus,
    PowerSumModulus,
    TabulatedModulus,
    combine_moduli,
    modulus_from_samples,
    recenter_modulus,
    scale_modulus,
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


class TestAlgebra:
    def test_scale(self):
        k = scale_modulus(PowerSumModulus(((2.0, 1.0),)), 0.5)
        assert k(1.0) == 1.0

    def test_combine_power_sums_exact(self):
        combined = combine_moduli(
            [ConstantModulus(1.0), PowerSumModulus(((2.0, 1.0),))],
            weights=[0.3, 0.7],
        )
        assert isinstance(combined, PowerSumModulus)
        assert combined(2.0) == pytest.approx(0.3 + 0.7 * 4.0, abs=1e-15)

    def test_combine_with_tabulated_is_exact_on_breakpoints(self):
        tab = TabulatedModulus(np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.6, 0.6]))
        combined = combine_moduli([tab, ConstantModulus(0.1)], radius=1.0)
        for r in (0.0, 0.15, 0.3, 0.65, 1.0):
            assert combined(r) == pytest.approx(tab(r) + 0.1, abs=1e-12)

    def test_recenter_constant_identity(self):
        k = ConstantModulus(0.4)
        assert recenter_modulus(k, 0.7, 1.0) is k

    def test_recenter_integer_power_exact(self):
        k = PowerSumModulus(((3.0, 2.0),))
        shifted = recenter_modulus(k, 0.5, 1.0)
        assert isinstance(shifted, PowerSumModulus)
        for r in (0.0, 0.3, 1.0):
            assert shifted(r) == pytest.approx(3.0 * (r + 0.5) ** 2, abs=1e-12)

    def test_recenter_fractional_power_sampled(self):
        k = PowerSumModulus(((1.0, 0.5),))
        shifted = recenter_modulus(k, 0.25, 1.0, samples=2001)
        assert shifted(0.5) == pytest.approx(math.sqrt(0.75), abs=1e-6)
