import bisect
import dataclasses
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from majorfix import (
    CompositionSpec,
    ConstantModulus,
    Grid,
    HammersteinSpec,
    HammersteinTerm,
    KernelTable,
    LipschitzPairSet,
    MultilinearSpec,
    PowerSumModulus,
    StoppingRule,
    UrysohnSpec,
    analyze,
    build_composition,
    build_hammerstein_lp,
    build_hammerstein_sup,
    build_multilinear,
    build_superposition_modulus,
    build_urysohn,
    iterate,
    multilinear_critical_shift,
)
from majorfix.discretize import _absolute
from majorfix.presets import (COMPOSITION_INNER, COMPOSITION_OUTER, FORCINGS,
                              KERNELS, URYSOHN_KERNELS)
from helpers import lipschitz_increment_holds, per_radius_modulus, quadratic_radii


def bisect_root(fn, lo, hi, iters=200):
    """Brute-force sign bisection, independent of the library solvers."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# standard-normal 8x8x8 probe: HOPM reaches 7.20, the smallest unfolding
# spectral norm is 10.42
PROBE = np.random.default_rng(0).normal(size=(8, 8, 8))


def hopm(tensor, iters=500):
    """Higher-order power method: the value |y . T(x_1, x_2)| it converges
    to over unit y, x_1, x_2 is a lower bound on the bilinear norm C."""
    d = tensor.shape[0]
    y = x1 = x2 = np.ones(d) / math.sqrt(d)
    for _ in range(iters):
        y = np.einsum("ijk,j,k->i", tensor, x1, x2)
        y /= np.linalg.norm(y)
        x1 = np.einsum("ijk,i,k->j", tensor, y, x2)
        x1 /= np.linalg.norm(x1)
        x2 = np.einsum("ijk,i,j->k", tensor, y, x1)
        value = np.linalg.norm(x2)
        x2 /= value
    return float(value)


class TestMultilinear:
    def test_scalar_quadratic_matches_core_oracle(self):
        op = build_multilinear(MultilinearSpec(1, 2, 1.0, 0.1875), 1.0)
        assert op.profile.center_shift == 0.1875
        assert isinstance(op.profile.modulus, PowerSumModulus)
        assert op.profile.modulus.terms == ((2.0, 1.0),)
        report = analyze(op.profile)
        assert report.convergence_radius == pytest.approx(0.25, abs=1e-10)

    def test_zero_constant_term(self):
        op = build_multilinear(MultilinearSpec(1, 2, 1.0, 0.0), 1.0)
        assert op.profile.center_shift == 0.0
        x, trace = iterate(op, np.zeros(1), StoppingRule(bound_tol=1e-12))
        assert trace.steps == [] and x[0] == 0.0

    def test_cubic_against_brute_force_root(self):
        op = build_multilinear(MultilinearSpec(1, 3, 1.0, 0.2), 1.0)
        report = analyze(op.profile)
        oracle = bisect_root(lambda r: 0.2 + r**3 - r, 0.0, 0.5)
        assert report.convergence_radius == pytest.approx(oracle, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_multilinear(MultilinearSpec(2, 2, np.zeros((2, 2, 2)), 0.5), 1.0)
        with pytest.raises(ValueError):
            build_multilinear(
                MultilinearSpec(2, 2, np.zeros((2, 2)), [0.1, 0.1]), 1.0)

    def test_norm_estimation_conservative(self):
        tensor = np.zeros((2, 2, 2))
        tensor[0, 0, 1] = tensor[0, 1, 0] = 0.5   # true bilinear norm 0.5
        op = build_multilinear(
            MultilinearSpec(2, 2, tensor, [0.05, 0.08]), 1.0)
        estimated = op.profile.modulus.terms[0][0]  # C * m
        assert 1.0 <= estimated <= 1.12

    def test_estimated_norm_passes_increment_check(self, rng):
        tensor = np.zeros((2, 2, 2))
        tensor[0, 0, 1] = tensor[0, 1, 0] = 0.5
        op = build_multilinear(
            MultilinearSpec(2, 2, tensor, [0.05, 0.08]), 1.0)
        lipschitz_increment_holds(op, rng, count=200)

    def test_probe_norm_between_hopm_and_every_unfolding(self):
        op = build_multilinear(MultilinearSpec(8, 2, PROBE, np.zeros(8)), 1.0)
        norm_c = op.profile.modulus.terms[0][0] / 2.0
        lower = hopm(PROBE)
        assert lower > 7.2
        assert norm_c >= lower
        for k in range(3):
            unfolding = np.moveaxis(PROBE, k, 0).reshape(8, 64)
            assert norm_c <= np.linalg.norm(unfolding, 2)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("v,length", [([1.0, 2.0, 2.0], 3.0),
                                          ([2.0, 3.0, 6.0], 7.0),
                                          ([1.0, 2.0, 2.0, 4.0], 5.0)])
    def test_rank_one_norm_is_exact(self, v, length, m):
        v = np.array(v)
        tensor = v
        for _ in range(m):
            tensor = np.multiply.outer(tensor, v)
        op = build_multilinear(MultilinearSpec(v.size, m, tensor, np.zeros(v.size)), 1.0)
        exact = length ** (m + 1)
        assert abs(op.profile.modulus.terms[0][0] / m - exact) <= 4 * math.ulp(exact)

    def test_probe_passes_increment_check(self, rng):
        op = build_multilinear(MultilinearSpec(8, 2, PROBE, np.zeros(8)), 1.0)
        lipschitz_increment_holds(op, rng, count=200)
        # random increments stay far below C; from the center along a unit x
        # that maximizes ||T(x, x)||, the increment is ||T(x, x)|| r**2
        sym = 0.5 * (PROBE + PROBE.transpose(0, 2, 1))
        x = np.ones(8) / math.sqrt(8.0)
        for _ in range(500):
            y = np.einsum("ijk,j,k->i", sym, x, x)
            x = np.einsum("ijk,i,k->j", sym, y / np.linalg.norm(y), x)
            x /= np.linalg.norm(x)
        for r in (0.25, 0.5, 1.0):
            step = op.norm(op.apply(r * x) - op.apply(np.zeros(8)))
            assert step <= op.profile.modulus_integral(r)

    @pytest.mark.parametrize("c,m,expected", [
        (1.0, 2, 0.25),
        (1.0, 3, (1.0 / 3.0) ** 0.5 * (2.0 / 3.0)),
        (2.0, 2, 0.125),
    ])
    def test_critical_shift_closed_form(self, c, m, expected):
        assert multilinear_critical_shift(c, m) == pytest.approx(expected, abs=1e-12)

    def test_critical_shift_is_peak_clearance(self):
        rs = np.linspace(0.0, 2.0, 200_001)
        for c, m in [(0.5, 2), (1.0, 3), (2.0, 4)]:
            brute = float(np.max(rs - c * rs**m))
            assert multilinear_critical_shift(c, m) == pytest.approx(brute, abs=1e-6)


SEPARABLE = HammersteinSpec(
    (HammersteinTerm(lambda t, s: t * s, lambda u: u**2,
                     PowerSumModulus(((2.0, 1.0),))),),
    0.1,
    lambda t: np.asarray(t, dtype=float),
)
BETA = (1.0 - math.sqrt(0.9)) / 0.05


class TestHammersteinSup:
    def test_separable_instance(self):
        grid = Grid.simpson(0.0, 1.0, 201)
        op = build_hammerstein_sup(SEPARABLE, grid, 3.0)
        assert op.profile.center_shift == pytest.approx(1.0, abs=1e-12)
        assert op.profile.slope(1.0) == pytest.approx(0.1, abs=1e-12)
        report = analyze(op.profile)
        oracle = quadratic_radii(1.0, 0.05, 3.0)
        assert report.convergence_radius == pytest.approx(oracle["convergence"], abs=1e-9)
        assert report.inner_radius == pytest.approx(oracle["inner"], abs=1e-9)
        assert report.inner_radius <= BETA <= report.convergence_radius

    def test_lambda_zero_decouples(self):
        spec = HammersteinSpec(
            SEPARABLE.terms, 0.0, lambda t: np.asarray(t, dtype=float))
        grid = Grid.simpson(0.0, 1.0, 51)
        op = build_hammerstein_sup(spec, grid, 2.0)
        assert op.profile.center_shift == pytest.approx(1.0, abs=1e-14)
        assert op.profile.slope(1.5) == 0.0
        x, _ = iterate(op, op.center, StoppingRule(bound_tol=1e-11, max_steps=10))
        assert np.allclose(x, grid.nodes, atol=1e-12)

    def test_two_summand_modulus_merges(self):
        spec = HammersteinSpec(
            (
                HammersteinTerm(lambda t, s: np.ones_like(t * s),
                                lambda u: np.sin(u), ConstantModulus(1.0)),
                HammersteinTerm(lambda t, s: t * s, lambda u: u**2,
                                PowerSumModulus(((2.0, 1.0),))),
            ),
            0.5,
            lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        )
        grid = Grid.simpson(0.0, 1.0, 101)
        op = build_hammerstein_sup(spec, grid, 1.0)
        # 0.5 * (1 * 1 + (1/2) * 2r): kernel norms 1 and 1/2
        for r in (0.0, 0.25, 0.5, 1.0):
            assert op.profile.slope(r) == pytest.approx(0.5 + 0.5 * r, abs=1e-12)
            assert op.profile.modulus.primitive(r) == pytest.approx(
                0.5 * r + 0.25 * r * r, abs=1e-12)

    def test_recentered_fractional_power_primitive_is_exact(self):
        spec = HammersteinSpec(
            (HammersteinTerm(lambda t, s: t * s, np.sqrt,
                             PowerSumModulus(((1.0, 0.5),))),),
            0.5,
            lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        )
        grid = Grid.simpson(0.0, 1.0, 101)
        op = build_hammerstein_sup(spec, grid, 1.0, center=0.05)
        weight = 0.5 * float(np.max(_absolute(grid.nodes[:, None] * grid.nodes)
                                    @ grid.weights))
        for r in (0.0, 0.01, 0.3, 1.0):
            exact = weight * (2.0 / 3.0) * ((0.05 + r) ** 1.5 - 0.05**1.5)
            assert op.profile.modulus.primitive(r) == pytest.approx(exact, abs=1e-15)
            assert op.profile.slope(r) == pytest.approx(
                weight * math.sqrt(0.05 + r), abs=1e-15)

    def test_kernel_norm_richardson_ratio(self):
        # exp kernel has genuine trapezoid error; halving h divides it by ~4
        exact = math.e - 1.0
        errors = []
        for n in (17, 33, 65):
            grid = Grid.trapezoid(0.0, 1.0, n)
            mat = np.exp(np.outer(grid.nodes, grid.nodes))
            errors.append(abs(float(np.max(np.abs(mat) @ grid.weights)) - exact))
        assert 3.5 <= errors[0] / errors[1] <= 4.5
        assert 3.5 <= errors[1] / errors[2] <= 4.5

    def test_nystrom_fixed_point_converges_at_quadrature_order(self):
        errors = []
        for n in (17, 33, 65):
            grid = Grid.trapezoid(0.0, 1.0, n)
            op = build_hammerstein_sup(SEPARABLE, grid, 3.0)
            x, _ = iterate(op, op.center,
                           StoppingRule(bound_tol=1e-12, max_steps=2000))
            errors.append(abs(float(np.max(np.abs(x))) - BETA))
        assert 3.0 <= errors[0] / errors[1] <= 5.0
        assert 3.0 <= errors[1] / errors[2] <= 5.0

    def test_missing_term_modulus_rejected(self):
        # the modulus is a required field of every term
        with pytest.raises(TypeError, match="modulus"):
            HammersteinTerm(lambda t, s: t * s, lambda u: u)


def _square_spec(kernel, nonlinearity=lambda u: u**2, forcing=FORCINGS["identity"]):
    return HammersteinSpec(
        (HammersteinTerm(kernel, nonlinearity, PowerSumModulus(((2.0, 1.0),))),),
        0.1, forcing)


class TestHammersteinSampling:
    @pytest.mark.parametrize("n", [1001, 2001])
    @pytest.mark.parametrize("name", ["product", "exp_product", "signed_cos"])
    def test_kernel_norm_matches_whole_table(self, name, n):
        grid = Grid.simpson(-1.0 if name == "signed_cos" else 0.0, 1.0, n)
        kernel = KERNELS.get(name, lambda t, s: np.cos(3.0 * t * s) - 0.5)
        mat = kernel(grid.nodes[:, None], grid.nodes[None, :])
        signed = np.any(np.signbit(mat))
        assert signed == (name == "signed_cos") and (_absolute(mat) is mat) != signed
        assert np.array_equal(_absolute(mat) @ grid.weights, np.abs(mat) @ grid.weights)

    def test_table_on_another_grid_is_rejected(self):
        grid = Grid.simpson(0.0, 1.0, 11)
        other = Grid.trapezoid(0.0, 1.0, 11)
        spec = _square_spec(KernelTable.from_function(other, KERNELS["product"]))
        with pytest.raises(ValueError, match="build grid"):
            build_hammerstein_sup(spec, grid, 1.0)

    def test_table_on_an_equal_grid_is_used_as_is(self):
        grid = Grid.simpson(0.0, 1.0, 11)
        table = KernelTable.from_function(Grid.simpson(0.0, 1.0, 11), KERNELS["product"])
        op = build_hammerstein_sup(_square_spec(table), grid, 1.0)
        twin = build_hammerstein_sup(_square_spec(KERNELS["product"]), grid, 1.0)
        x = np.linspace(0.1, 0.3, grid.n)
        assert np.array_equal(op.apply(x), twin.apply(x))

    def test_array_kernel_is_copied_at_build(self):
        grid = Grid.simpson(0.0, 1.0, 11)
        mat = grid.nodes[:, None] * grid.nodes
        op = build_hammerstein_sup(_square_spec(mat), grid, 1.0)
        twin = build_hammerstein_sup(_square_spec(KERNELS["product"]), grid, 1.0)
        mat[:] = 5.0
        x = np.linspace(0.1, 0.3, grid.n)
        assert np.array_equal(op.apply(x), twin.apply(x))
        with pytest.raises(ValueError, match="does not match grid"):
            build_hammerstein_sup(_square_spec(mat[:, :-1]), grid, 1.0)

    # exp_product makes a temporary t * s before np.exp: sampled whole, the
    # build would peak at two tables; a block of rows holds 2 x 1 MiB
    @pytest.mark.parametrize("name", ["product", "exp_product"])
    def test_build_peak_memory_is_one_table(self, name):
        n = 1001
        grid = Grid.simpson(0.0, 1.0, n)
        spec = _square_spec(KERNELS[name])
        build_hammerstein_sup(spec, grid, 1.0)
        tracemalloc.start()
        try:
            build_hammerstein_sup(spec, grid, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n * n

    def test_kernel_array_error_fails_build_without_scalar_retry(self):
        calls = []

        def kernel(t, s):
            calls.append(np.ndim(t))
            if np.ndim(t):
                raise RuntimeError("bug in the kernel")
            return t * s

        with pytest.raises(RuntimeError, match="bug in the kernel"):
            build_hammerstein_sup(_square_spec(kernel), Grid.simpson(0.0, 1.0, 11), 1.0)
        assert calls == [2]

    def test_misshaped_nonlinearity_fails_build(self):
        calls = []

        def h(u):
            calls.append(np.shape(u))
            return u[:-1] ** 2  # does not broadcast to the shape of u

        grid = Grid.simpson(0.0, 1.0, 11)
        with pytest.raises(RuntimeError, match=r"\.h raised ValueError") as info:
            build_hammerstein_sup(_square_spec(KERNELS["product"], h), grid, 1.0)
        assert isinstance(info.value.__cause__, ValueError)
        assert calls == [(11,)]  # the build's one apply, at the center

    def test_scalar_only_callbacks_match_numpy_twins(self):
        # sqrt, fabs and products round alike in math and numpy
        grid = Grid.simpson(0.0, 1.0, 21)
        scalar = _square_spec(*(np.vectorize(fn, otypes=[float]) for fn in (
            lambda t, s: math.sqrt(t * s), lambda u: math.fabs(u) * u,
            lambda t: math.sqrt(t))))
        twin = _square_spec(lambda t, s: np.sqrt(t * s), lambda u: np.abs(u) * u,
                            np.sqrt)
        x = np.linspace(-0.2, 0.3, grid.n)
        op_scalar = build_hammerstein_sup(scalar, grid, 1.0)
        op_twin = build_hammerstein_sup(twin, grid, 1.0)
        assert op_scalar.profile.center_shift == op_twin.profile.center_shift
        # k(r) = 0.1 * knorm * 2r with knorm the largest row sum of sqrt(t s)
        knorm = float(np.max(np.sqrt(np.outer(grid.nodes, grid.nodes)) @ grid.weights))
        for r in (0.0, 0.3, 1.0):
            for op in (op_scalar, op_twin):
                assert op.profile.slope(r) == pytest.approx(0.2 * knorm * r, abs=1e-15)
                assert op.profile.modulus.primitive(r) == pytest.approx(
                    0.1 * knorm * r * r, abs=1e-15)
            assert op_scalar.profile.slope(r) == op_twin.profile.slope(r)
            assert (op_scalar.profile.modulus.primitive(r)
                    == op_twin.profile.modulus.primitive(r))
        assert np.array_equal(op_scalar.apply(x), op_twin.apply(x))


def envelope_walk(curves, e):
    """(start, base, start**(e+1), a, b) of each piece of min_i (a_i + b_i r**e),
    e > 0: in u = r**e the curves are lines, each piece hands over to the
    first line to cross it (the flattest on a tie), and base is the running
    sum of the pieces' integrals.  The walk stops at the first crossing whose
    end or end**(e+1) overflows, or lies at u = inf."""
    e1 = e + 1.0
    a, b = min(curves)
    u = start = base = power = 0.0
    pieces = []
    while True:
        pieces.append((start, base, power, a, b))
        later = [((aj - a) / (b - bj), bj, aj) for aj, bj in curves if bj < b]
        if not later:
            return pieces
        crossing, b_next, a_next = min(later)
        u = max(u, crossing)
        try:
            end = u ** (1.0 / e)
            end_power = end**e1
        except OverflowError:
            return pieces
        if end_power == math.inf:
            return pieces
        base += a * (end - start) + b * (end_power - power) / e1
        start, power, a, b = end, end_power, a_next, b_next


class TestSuperpositionModulus:
    def test_two_curve_envelope(self):
        pairs = LipschitzPairSet(((1.0, 0.0), (0.0, 1.0)))
        h = build_superposition_modulus(pairs, 2.0, 1.0, 1.0)
        for r in (0.0, 0.25, 0.5, 1.0, 1.7, 2.0):
            assert h(r) == pytest.approx(min(1.0, r), abs=1e-12)

    def test_single_constant_pair(self):
        h = build_superposition_modulus(
            LipschitzPairSet(((2.0, 0.0),)), 2.0, 1.0, 4.0)
        for r in (0.0, 0.3, 1.0, 7.5):
            assert h(r) == 4.0
            assert h.primitive(r) == pytest.approx(4.0 * r, abs=1e-15)

    def test_equal_exponents_degenerate(self):
        h = build_superposition_modulus(
            LipschitzPairSet(((1.0, 1.0),)), 2.0, 2.0, 1.0)
        assert h(0.0) == h(5.0) == 2.0

    def test_concave_envelope_primitive_is_exact(self):
        # k = min(1, r**(1/3)) is concave, so a linear interpolant undercuts K
        pairs = LipschitzPairSet(((1.0, 0.0), (0.0, 1.0)))
        h = build_superposition_modulus(pairs, 2.0, 1.5, 1.0)
        assert h.primitive(1.0) == pytest.approx(0.75, abs=1e-15)
        assert h.primitive(0.125) == pytest.approx(0.75 * 0.125 ** (4.0 / 3.0),
                                                   abs=1e-15)
        assert h.primitive(10.0) == pytest.approx(9.75, abs=1e-14)

    def test_envelope_needs_no_radius(self):
        pairs = LipschitzPairSet(((1.0, 0.0), (0.0, 1.0)))
        envelope = build_superposition_modulus(pairs, 2.0, 1.5, 1.0)
        grid = Grid.simpson(0.0, 1.0, 51)
        spec = HammersteinSpec(
            (HammersteinTerm(lambda t, s: t * s, lambda u: u, envelope),),
            0.1, lambda t: np.asarray(t, dtype=float))
        op = build_hammerstein_lp(spec, [1.0 / 3.0], 2.0, grid, 10.0)
        assert op.profile.modulus_integral(10.0) == pytest.approx(
            0.1 / 3.0 * 9.75, abs=1e-14)
        assert analyze(op.profile).existence_certified

    def test_linear_envelope_matches_exact_primitive(self):
        # e = 1: k is the lower envelope of the lines a + b r
        lines = ((2.0, 0.0), (1.0, 0.25), (0.75, 0.5), (0.5, 1.0), (0.0, 4.0),
                 (1.5, 0.25))
        h = build_superposition_modulus(LipschitzPairSet(lines), 2.0, 1.0, 1.0)
        exact = [(Fraction(a), Fraction(b)) for a, b in lines]
        cuts = {(ai - aj) / (bj - bi) for ai, bi in exact for aj, bj in exact
                if bi != bj and (ai - aj) / (bj - bi) > 0}

        def primitive(r):
            total, lo = Fraction(0), Fraction(0)
            for hi in sorted(c for c in cuts if c < r) + [r]:
                mid = (lo + hi) / 2
                a, b = min(exact, key=lambda ab: ab[0] + ab[1] * mid)
                total += a * (hi - lo) + b * (hi * hi - lo * lo) / 2
                lo = hi
            return total

        for r in sorted(cuts) + [Fraction(1, 3), Fraction(3, 2), Fraction(10)]:
            assert h.primitive(float(r)) == pytest.approx(float(primitive(r)),
                                                          rel=1e-15, abs=1e-15)

    def test_k_is_the_brute_force_minimum(self, rng):
        for _ in range(20):
            pairs = LipschitzPairSet(tuple(map(tuple, rng.uniform(0.0, 2.0, (4, 2)))))
            p = float(rng.uniform(1.5, 4.0))
            q = float(rng.uniform(0.5, p))
            length = float(rng.uniform(0.5, 2.0))
            h = build_superposition_modulus(pairs, p, q, length)
            e0, e = (p - q) / (p * q), (p - q) / q
            a = np.array([first for first, _ in pairs.pairs]) * length**e0
            b = np.array([second for _, second in pairs.pairs])
            rs = np.sort(rng.uniform(0.0, 5.0, 50))
            ks = [float(np.min(a + b * r**e)) for r in rs]
            for r, k in zip(rs, ks):
                assert h(r) == k
            # K rises between the brute-force k at either end of each step
            for r0, r1, k0, k1 in zip(rs, rs[1:], ks, ks[1:]):
                rise = h.primitive(r1) - h.primitive(r0)
                assert k0 * (r1 - r0) - 1e-12 <= rise <= k1 * (r1 - r0) + 1e-12

    @pytest.mark.parametrize("first,second", [(0.7, 0.0), (0.0, 1.3), (0.7, 1.3)])
    def test_one_pair_is_bit_equal_to_power_sum(self, first, second):
        p, q, length = 3.0, 2.0, 2.0
        e0, e = (p - q) / (p * q), (p - q) / q
        h = build_superposition_modulus(LipschitzPairSet(((first, second),)),
                                        p, q, length)
        a = first * length**e0
        if second == 0.0:
            old = ConstantModulus(a)
        else:
            old = PowerSumModulus(((second, e),) if a == 0.0
                                  else ((a, 0.0), (second, e)))
        for r in (0.0, 1e-3, 0.37, 1.0, 2.5, 40.0):
            assert h(r) == old(r)
            assert h.primitive(r) == old.primitive(r)

    @given(pairs=st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
                          min_size=2, max_size=6),
           p=st.floats(1.5, 4.0), fraction=st.floats(0.1, 0.95),
           length=st.floats(0.5, 2.0),
           spots=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    # a slope near 1e-155 crosses where r**(e+1) overflows, and one of
    # 5e-324 at u = inf: the walk stops there
    @example(pairs=[(0.0, 1e-156), (1.0, 0.0)], p=2.0, fraction=0.5, length=1.0,
             spots=[0.5])
    @example(pairs=[(0.0, 5e-324), (1.0, 0.0)], p=2.0, fraction=0.5, length=1.0,
             spots=[0.5])
    def test_pieces_keep_the_bits_of_the_crossing_walk(self, pairs, p, fraction,
                                                       length, spots):
        q = p * fraction
        e0, e = (p - q) / (p * q), (p - q) / q
        pieces = envelope_walk([(first * length**e0, second) for first, second in pairs], e)
        h = build_superposition_modulus(LipschitzPairSet(tuple(pairs)), p, q, length)
        assert len(h._pieces) == len(pieces)
        starts = [piece[0] for piece in pieces]
        radii = starts + [math.nextafter(x, math.inf) for x in starts]
        radii += [math.nextafter(x, 0.0) for x in starts[1:]]
        radii += [u * 2.0 * (starts[-1] + 1.0) for u in spots]
        e1 = e + 1.0
        for r in radii:
            try:
                r**e1
            except OverflowError:
                continue  # K overflows here, past the last piece's start
            start, base, power, a, b = pieces[bisect.bisect_right(starts, r) - 1]
            walked = base + a * (r - start) + b * (r**e1 - power) / e1
            assert h.primitive(r).hex() == walked.hex(), r
            assert h(r).hex() == (a + b * r**e).hex(), r

    @pytest.mark.parametrize("curves", [((0.0, 1e-156), (1.0, 0.0)),
                                        ((0.0, 5e-324), (1.0, 0.0))])
    def test_crossing_that_overflows_stops_the_walk(self, curves):
        # the second crossing lies at u = 1e156, whose end**2 overflows, or
        # at u = inf: the first curve is kept beyond, above the minimum 1
        h = PowerSumModulus._envelope(curves, 1.0)
        assert all(math.isfinite(x) for x in h._breaks)
        assert all(math.isfinite(base) for base, _, _ in h._pieces)
        for r in (0.0, 1.0, 1e150):
            assert h(r) >= min(a + b * r for a, b in curves)
            assert math.isfinite(h.primitive(r))

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            LipschitzPairSet(())
        with pytest.raises(ValueError):
            LipschitzPairSet(((-1.0, 0.0),))


class TestHammersteinLp:
    def test_modulus_composition(self):
        pairs = LipschitzPairSet(((1.0, 0.0), (0.0, 1.0)))
        envelope = build_superposition_modulus(pairs, 2.0, 1.0, 1.0)
        grid = Grid.simpson(0.0, 1.0, 101)
        spec = HammersteinSpec(
            (HammersteinTerm(lambda t, s: t * s, lambda u: u**2, envelope),),
            1.0,
            lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        )
        op = build_hammerstein_lp(spec, [1.0 / 3.0], 2.0, grid, 2.0)
        for r in (0.5, 1.0, 2.0):
            assert op.profile.slope(r) == pytest.approx(min(1.0, r) / 3.0, abs=1e-9)

    def test_zero_norms_zero_modulus(self):
        grid = Grid.simpson(0.0, 1.0, 51)
        spec = HammersteinSpec(
            (HammersteinTerm(lambda t, s: t * s, lambda u: u, ConstantModulus(1.0)),),
            1.0, lambda t: np.asarray(t, dtype=float))
        op = build_hammerstein_lp(spec, [0.0], 2.0, grid, 2.0)
        assert op.profile.slope(1.3) == 0.0

    def test_linear_instance_converges(self):
        grid = Grid.simpson(0.0, 1.0, 101)
        spec = HammersteinSpec(
            (HammersteinTerm(lambda t, s: t * s, lambda u: u, ConstantModulus(1.0)),),
            0.3, lambda t: np.asarray(t, dtype=float))
        op = build_hammerstein_lp(spec, [1.0 / 3.0], 2.0, grid, 2.0)
        assert op.profile.center_shift == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-10)
        x, trace = iterate(op, op.center, StoppingRule(bound_tol=1e-10, max_steps=200))
        assert trace.status == "converged"
        # x(t) = t + 0.3 t int s x(s) ds resolves to x(t) = c t with
        # c = 1 / (1 - 0.3 / 3)
        assert np.allclose(x, grid.nodes / 0.9, atol=1e-9)


class TestUrysohn:
    def test_constant_moduli_integral(self):
        spec = UrysohnSpec(
            lambda t, s, u, v: 0.05 * (u + v),
            lambda t, s, r: 0.05 + 0.0 * (t + s),
            lambda t, s, r: 0.05 + 0.0 * (t + s),
        )
        grid = Grid.simpson(0.0, 2.0, 51)
        op = build_urysohn(spec, grid, 1.0)
        assert op.profile.slope(0.7) == pytest.approx(2.0 * 0.05 * 2.0, abs=1e-12)

    def test_kernel_independent_of_state(self):
        spec = UrysohnSpec(
            lambda t, s, u, v: t + s + 0.0 * u + 0.0 * v,
            lambda t, s, r: 0.0 * (t + s),
            lambda t, s, r: 0.0 * (t + s),
        )
        grid = Grid.simpson(0.0, 1.0, 101)
        op = build_urysohn(spec, grid, 2.0)
        assert op.profile.slope(1.0) == 0.0
        x, _ = iterate(op, op.center, StoppingRule(bound_tol=1e-11, max_steps=10))
        assert np.allclose(x, grid.nodes + 0.5, atol=1e-12)

    def test_mixed_quadratic_demo_matches_hand_modulus(self):
        spec = UrysohnSpec(
            lambda t, s, u, v: 0.2 * t + 0.1 * s * u**2 + 0.05 * v,
            lambda t, s, r: 0.2 * s * r + 0.0 * t,
            lambda t, s, r: 0.05 + 0.0 * (t + s),
            shape="convex",
        )
        grid = Grid.simpson(0.0, 1.0, 101)
        op = build_urysohn(spec, grid, 1.0)
        for r in (0.0, 0.3, 1.0):
            assert op.profile.slope(r) == pytest.approx(0.1 * r + 0.05, abs=1e-10)
        report = analyze(op.profile)
        # K(r) = 0.05 r^2 + 0.05 r, displacement 0.2: quadratic oracle
        root = bisect_root(lambda r: 0.2 + 0.05 * r**2 + 0.05 * r - r, 0.0, 0.5)
        assert report.convergence_radius == pytest.approx(root, abs=1e-9)

    @pytest.mark.parametrize("shape", ["monotone", "convex"])
    def test_non_monotone_modulus_rejected(self, shape):
        spec = UrysohnSpec(
            lambda t, s, u, v: 0.0 * (t + s + u + v),
            lambda t, s, r: np.maximum(0.0, 0.5 - r) + 0.0 * (t + s),
            lambda t, s, r: 0.0 * (t + s),
            shape=shape,
        )
        grid = Grid.simpson(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="not nondecreasing"):
            build_urysohn(spec, grid, 1.0)

    @staticmethod
    def _sqrt_spec(shape="monotone", scale=1.0):
        # K(u) = 1/4 + scale (2/3)|u|^1.5 has u-slope scale sqrt|u| <=
        # scale sqrt(r) on the ball of radius r, so k(r) = scale W sqrt(r)
        # with W the weight sum
        return UrysohnSpec(
            lambda t, s, u, v: 0.25 + scale * (2.0 / 3.0) * np.abs(u) ** 1.5
            + 0.0 * (t + v),
            lambda t, s, r: scale * np.sqrt(r) + 0.0 * (t + s),
            lambda t, s, r: 0.0 * (t + s),
            shape=shape,
        )

    def test_undeclared_concave_modulus_is_sound(self):
        grid = Grid.simpson(0.0, 1.0, 101)
        op = build_urysohn(self._sqrt_spec(), grid, 1.0)
        r_conv = analyze(op.profile).convergence_radius
        # the smallest root of W/4 + (2/3) W r^1.5 = r in 60 digits; the gap
        # falls until W sqrt(r) = 1, near r = 1, so [0, 1/2] holds one root
        with localcontext() as ctx:
            ctx.prec = 60
            W = sum(Decimal(w) for w in grid.weights)
            lo, hi = Decimal(0), Decimal("0.5")
            for _ in range(200):
                mid = (lo + hi) / 2
                if W / 4 + Decimal(2) / 3 * W * mid * mid.sqrt() - mid > 0:
                    lo = mid
                else:
                    hi = mid
            assert Decimal(r_conv) >= hi
            # the step envelope over 257 radii adds at most (1/256) k(1) to
            # K, which moves the root by less than 1/64 where k < 0.7
            assert Decimal(r_conv) - hi < Decimal(1) / 64

    def test_convex_declaration_on_a_concave_modulus_rejected(self):
        with pytest.raises(ValueError, match="not convex"):
            build_urysohn(self._sqrt_spec("convex"), Grid.simpson(0.0, 1.0, 101), 1.0)

    def test_convex_declaration_on_a_small_concave_modulus_rejected(self):
        # second differences are held to the modulus's own scale, not to 1
        with pytest.raises(ValueError, match="not convex"):
            build_urysohn(self._sqrt_spec("convex", 9.5e-9),
                          Grid.simpson(0.0, 1.0, 101), 1.0)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="unknown modulus shape"):
            self._sqrt_spec("concave")

    @pytest.mark.parametrize("shape", ["monotone", "convex"])
    def test_nan_modulus_callback_rejected(self, shape):
        spec = UrysohnSpec(
            lambda t, s, u, v: 0.1 * (u + v),
            lambda t, s, r: np.where(r > 0.5, np.nan, 0.1) + 0.0 * (t + s),
            lambda t, s, r: 0.1 + 0.0 * (t + s),
            shape=shape,
        )
        with pytest.raises(ValueError, match="finite and nonnegative"):
            build_urysohn(spec, Grid.simpson(0.0, 1.0, 11), 1.0)


class TestComposition:
    def test_constant_moduli_formula(self):
        c1, c2, c3 = 0.3, 0.2, 0.4
        spec = CompositionSpec(
            lambda t, u, v: 0.1 * t + 0.0 * u + 0.0 * v,
            lambda t, r, rho: c1 + 0.0 * np.asarray(t, dtype=float),
            lambda t, r, rho: c2 + 0.0 * np.asarray(t, dtype=float),
            lambda t, s, u: 0.0 * (t + s + u),
            lambda t, s, r: 0.1 + 0.0 * (t + s),
            lambda t, s, r: c3 + 0.0 * (t + s),
        )
        grid = Grid.simpson(0.0, 1.0, 51)
        op = build_composition(spec, grid, 1.0)
        assert op.profile.slope(0.6) == pytest.approx(c1 + c2 * c3 * 1.0, abs=1e-12)

    def test_outer_projection_reduces_to_urysohn(self):
        comp = CompositionSpec(
            lambda t, u, v: v + 0.0 * u + 0.0 * np.asarray(t, dtype=float),
            lambda t, r, rho: 0.0 * np.asarray(t, dtype=float),
            lambda t, r, rho: 1.0 + 0.0 * np.asarray(t, dtype=float),
            lambda t, s, u: s * u**2 + 0.0 * t,
            lambda t, s, r: s * r**2 + 0.0 * t,
            lambda t, s, r: 2.0 * s * r + 0.0 * t,
        )
        ury = UrysohnSpec(
            lambda t, s, u, v: s * u**2 + 0.0 * t + 0.0 * v,
            lambda t, s, r: 2.0 * s * r + 0.0 * t,
            lambda t, s, r: 0.0 * (t + s),
        )
        grid = Grid.simpson(0.0, 1.0, 51)
        op_c = build_composition(comp, grid, 0.9)
        op_u = build_urysohn(ury, grid, 0.9)
        x = 0.3 * np.sin(grid.nodes) + 0.1
        assert np.allclose(op_c.apply(x), op_u.apply(x), atol=1e-13)
        for r in (0.2, 0.9):
            assert op_c.profile.slope(r) == pytest.approx(
                op_u.profile.slope(r), abs=1e-10)

    def test_affine_demo_hand_modulus(self):
        spec = CompositionSpec(
            lambda t, u, v: 0.5 * u + 0.25 * v + 0.0 * np.asarray(t, dtype=float),
            lambda t, r, rho: 0.5 + 0.0 * np.asarray(t, dtype=float),
            lambda t, r, rho: 0.25 + 0.0 * np.asarray(t, dtype=float),
            lambda t, s, u: s * u**2 + 0.0 * t,
            lambda t, s, r: s * r**2 + 0.0 * t,
            lambda t, s, r: 2.0 * s * r + 0.0 * t,
            shape="convex",
        )
        grid = Grid.simpson(0.0, 1.0, 101)
        op = build_composition(spec, grid, 1.0)
        for r in (0.0, 0.4, 1.0):
            assert op.profile.slope(r) == pytest.approx(0.5 + 0.25 * r, abs=1e-10)



def _tabulation_spec(kind: str, shape: str = "monotone"):
    # every modulus here is convex and nondecreasing in its radius arguments
    if kind == "urysohn":
        demo = URYSOHN_KERNELS["mixed_quadratic"]
        return UrysohnSpec(demo["kernel"], demo["u_modulus"], demo["v_modulus"],
                           shape)
    outer = COMPOSITION_OUTER["affine_mix"]
    inner = COMPOSITION_INNER["weighted_square"]
    if kind == "composition":
        return CompositionSpec(outer["outer"], outer["u_modulus"],
                               outer["v_modulus"], inner["kernel"],
                               inner["bound"], inner["modulus"], shape)
    # outer moduli that read rho, so the inner envelope reaches the samples
    return CompositionSpec(
        outer["outer"],
        lambda t, r, rho: 0.3 + 0.1 * rho + 0.0 * t,
        lambda t, r, rho: 0.2 + 0.05 * (r + rho) ** 2,
        inner["kernel"],
        lambda t, s, r: s * r * r + 0.0 * t,
        inner["modulus"],
        shape,
    )


def _build(spec, *args, **kwargs):
    builder = build_urysohn if isinstance(spec, UrysohnSpec) else build_composition
    return builder(spec, *args, **kwargs)


class TestRadiusTabulation:
    # Each callback round covers at most 2**17 (r, t, s) points: all rows
    # for chunks of 12 radii at n = 101 and 3 at n = 201, where 33 and 257
    # radii leave a partial last chunk; at n = 401 one radius over blocks of
    # 208 and 193 rows of t, which start at multiples of 16 so that each
    # row's gemv keeps its bits.
    @pytest.mark.parametrize("n,shape,samples", [
        (101, "convex", 33), (101, "monotone", 257),
        (201, "monotone", 257), (401, "convex", 33)])
    @pytest.mark.parametrize("x0", [None, 0.15])
    @pytest.mark.parametrize("kind", ["urysohn", "composition", "composition-rho"])
    def test_moduli_match_per_radius_reference(self, kind, n, shape, samples, x0):
        spec = _tabulation_spec(kind, shape)
        grid = Grid.simpson(0.3, 1.4, n)
        op = _build(spec, grid, 1.5, center=x0)
        rs, ks = per_radius_modulus(spec, grid, 1.5, shift=x0 or 0.0,
                                    samples=samples)
        assert np.array_equal(op.profile.modulus.abscissae, rs)
        assert np.array_equal(op.profile.modulus.ordinates, ks)

    @pytest.mark.parametrize("shape,samples", [("convex", 33), ("monotone", 257)])
    @pytest.mark.parametrize("kind", ["urysohn", "composition"])
    def test_radius_count_follows_the_shape(self, kind, shape, samples):
        calls = []

        def counted(fn):
            def wrapped(t, s, r):
                calls.append((np.ravel(r).tolist(), np.shape(t)[1]))
                return fn(t, s, r)
            return wrapped

        spec = _tabulation_spec(kind, shape)
        if kind == "urysohn":
            spec = dataclasses.replace(spec, u_modulus=counted(spec.u_modulus))
        else:
            spec = dataclasses.replace(spec, inner_bound=counted(spec.inner_bound))
        op = _build(spec, Grid.simpson(0.0, 1.0, 401), 1.0)
        # at n = 401 each radius reaches the callback once per row block
        radii = list(op.profile.modulus.abscissae)
        assert calls == [([r], rows) for r in radii for rows in (208, 193)]
        assert len(radii) == samples

    @pytest.mark.parametrize("kind", ["urysohn", "composition-rho"])
    def test_a_last_row_alone_joins_the_block_before_it(self, kind):
        # at n = 1121 the blocks take 112 rows, and 1121 = 10 * 112 + 1;
        # numpy sums a block of one row by a dot, which moves modulus bits
        rows = []
        spec = _tabulation_spec(kind, "convex")
        name = "u_modulus" if kind == "urysohn" else "inner_bound"
        fn = getattr(spec, name)
        spec = dataclasses.replace(
            spec, **{name: lambda t, s, r: rows.append(np.shape(t)[1]) or fn(t, s, r)})
        grid = Grid.simpson(0.3, 1.4, 1121)
        op = _build(spec, grid, 1.5, center=0.15)
        assert rows == ([112] * 9 + [113]) * 33
        _, ks = per_radius_modulus(spec, grid, 1.5, shift=0.15, samples=33)
        assert np.array_equal(op.profile.modulus.ordinates, ks)

    @pytest.mark.parametrize("x0", [None, 0.15])
    def test_scalar_only_callbacks_match_numpy_twins(self, x0):
        def scalar_only(fn):
            return np.vectorize(fn, otypes=[float])

        twins = [
            UrysohnSpec(
                lambda t, s, u, v: np.sqrt(s) * u * u + 0.05 * v + 0.0 * t,
                lambda t, s, r: np.sqrt(s) * r,
                lambda t, s, r: np.maximum(0.05, 0.1 * t * r) + 0.0 * s),
            CompositionSpec(
                lambda t, u, v: np.maximum(0.1 * t, 0.5 * u + 0.25 * v),
                lambda t, r, rho: np.maximum(0.2, 0.1 + rho),
                lambda t, r, rho: 0.25 + 0.0 * t,
                lambda t, s, u: np.sqrt(s) * u * u + 0.0 * t,
                lambda t, s, r: np.sqrt(s) * r * r + 0.0 * t,
                lambda t, s, r: 2.0 * np.sqrt(s) * r + 0.0 * t),
        ]
        scalars = [
            UrysohnSpec(
                scalar_only(lambda t, s, u, v: math.sqrt(s) * u * u + 0.05 * v),
                scalar_only(lambda t, s, r: math.sqrt(s) * r),
                scalar_only(lambda t, s, r: max(0.05, 0.1 * t * r))),
            CompositionSpec(
                scalar_only(lambda t, u, v: max(0.1 * t, 0.5 * u + 0.25 * v)),
                scalar_only(lambda t, r, rho: max(0.2, 0.1 + rho)),
                scalar_only(lambda t, r, rho: 0.25),
                scalar_only(lambda t, s, u: math.sqrt(s) * u * u),
                scalar_only(lambda t, s, r: math.sqrt(s) * r * r),
                scalar_only(lambda t, s, r: 2.0 * math.sqrt(s) * r)),
        ]
        grid = Grid.simpson(0.3, 1.4, 21)
        x = 0.2 + 0.1 * np.cos(grid.nodes)
        for twin, scalar in zip(twins, scalars):
            op_twin = _build(twin, grid, 1.5, center=x0)
            op_scalar = _build(scalar, grid, 1.5, center=x0)
            assert np.array_equal(op_scalar.profile.modulus.ordinates,
                                  op_twin.profile.modulus.ordinates)
            assert np.array_equal(op_scalar.apply(x), op_twin.apply(x))

    @pytest.mark.parametrize("role", ["kernel", "nonlinearity", "u_modulus"])
    def test_scalar_only_callback_fails_build(self, role):
        calls = []

        def scalar_only(fn):
            def wrapped(*args):
                calls.append(tuple(map(np.shape, args)))
                return fn(*args)
            return wrapped

        grid = Grid.simpson(0.0, 1.0, 101)
        if role == "u_modulus":
            spec = UrysohnSpec(lambda t, s, u, v: 0.0 * (t + s + u + v),
                               scalar_only(lambda t, s, r: math.sqrt(s) * r),
                               lambda t, s, r: 0.05 + 0.0 * (t + s), "convex")
            build, shapes = build_urysohn, ((1, 101, 1), (1, 1, 101), (12, 1, 1))
        else:
            kernel, h = KERNELS["product"], lambda u: u**2
            if role == "kernel":
                kernel = scalar_only(lambda t, s: math.exp(t * s))
                shapes = ((101, 1), (1, 101))
            else:
                h = scalar_only(lambda u: math.fabs(u) * u)
                shapes = ((101,),)
            spec, build = _square_spec(kernel, h), build_hammerstein_sup
        with pytest.raises(RuntimeError, match="wrapped raised TypeError") as info:
            build(spec, grid, 1.0)
        assert isinstance(info.value.__cause__, TypeError)
        assert calls == [shapes]  # one call, on arrays; no per-element retry

    def test_array_error_fails_build_without_scalar_retry(self):
        calls = []

        def u_modulus(t, s, r):
            calls.append(np.ndim(r))
            raise RuntimeError("bug in the modulus")

        spec = UrysohnSpec(lambda t, s, u, v: 0.0 * (t + s + u + v),
                           u_modulus, lambda t, s, r: 0.05 + 0.0 * (t + s))
        with pytest.raises(RuntimeError, match="bug in the modulus"):
            build_urysohn(spec, Grid.simpson(0.0, 1.0, 11), 1.0)
        assert calls == [3]

    def test_outer_modulus_error_fails_build_without_scalar_retry(self):
        calls = []

        def outer_u_modulus(t, r, rho):
            calls.append(np.ndim(rho))
            raise RuntimeError("bug in the outer modulus")

        spec = _tabulation_spec("composition")
        spec = CompositionSpec(spec.outer, outer_u_modulus,
                               spec.outer_v_modulus, spec.inner_kernel,
                               spec.inner_bound, spec.inner_modulus)
        with pytest.raises(RuntimeError, match="bug in the outer modulus"):
            build_composition(spec, Grid.simpson(0.0, 1.0, 11), 1.0)
        assert calls == [2]

    def test_error_after_first_chunk_propagates(self):
        calls = []

        def u_modulus(t, s, r):
            calls.append(np.ndim(r))
            if len(calls) > 1:
                raise TypeError("fails on the second chunk")
            return 0.1 * r + 0.0 * (t + s)

        spec = UrysohnSpec(lambda t, s, u, v: 0.0 * (t + s + u + v),
                           u_modulus, lambda t, s, r: 0.05 + 0.0 * (t + s))
        with pytest.raises(RuntimeError, match="u_modulus.*second chunk") as info:
            build_urysohn(spec, Grid.simpson(0.0, 1.0, 101), 1.0)
        assert isinstance(info.value.__cause__, TypeError)
        assert calls == [3, 3]

    def test_apply_error_propagates_without_scalar_retry(self):
        calls = []

        def kernel(t, s, u, v):
            calls.append(np.ndim(u))
            raise RuntimeError("bug in the kernel")

        spec = UrysohnSpec(kernel, lambda t, s, r: 0.1 + 0.0 * (t + s),
                           lambda t, s, r: 0.05 + 0.0 * (t + s))
        # the build applies the kernel once, for the center displacement
        with pytest.raises(RuntimeError, match="bug in the kernel"):
            build_urysohn(spec, Grid.simpson(0.0, 1.0, 11), 1.0)
        assert calls == [2]

