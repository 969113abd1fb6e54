"""Rounded-up sums (majorfix._enclose) and the sup builds of kernel tables.

The helpers are checked against fractions.Fraction on nonnegative and
signed terms, n up to 2001, magnitudes from subnormal to 1e300.  Then each
sup build's kernel norm and a must lie at or above their exact values at
the grid's float nodes, with h(x0) and f taken as given, for a table of
factors and for its dense twin, the same kernel sampled by
KernelTable.from_function: Fraction for `product`, `one` and two synthetic
kernels whose factors carry a declared rounding and a declared remainder,
50-digit decimal for the factored `exp_product`, and the samples
themselves for every dense twin.  A copy of either build that drops any
one rounding-up term must break that, and a factored sup build never
calls its kernel.
"""

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from majorfix import (ConstantModulus, Grid, HammersteinSpec, HammersteinTerm, KernelTable,
                      PowerSumModulus, _enclose, build_hammerstein_sup, cli, operators,
                      presets)
from majorfix.discretize import _mesh_callback
from majorfix.presets import FORCINGS

from helpers import row_sum_bound

U = 2.0**-53


def exact_sum(values) -> Fraction:
    return sum(map(Fraction, values), Fraction(0))


@st.composite
def term_arrays(draw, rows=3, most=2001, signed=None):
    """(m, n) float arrays of terms from subnormal to 1e300 in magnitude:
    a random mantissa at each entry times 2^k, k drawn per row around a
    drawn centre, and zeros sprinkled in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, rows)), draw(st.integers(1, most))
    if signed is None:
        signed = draw(st.booleans())
    centre = draw(st.integers(-1074, 990))
    spread = draw(st.integers(0, 60))
    exponents = np.clip(centre + rng.integers(-spread, spread + 1, (m, n)), -1074, 996)
    terms = np.ldexp(rng.random((m, n)) + 0.5, exponents)
    if signed:
        terms *= rng.choice([-1.0, 1.0], (m, n))
    terms[rng.random((m, n)) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    return terms


FLOATS = st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True)
MAGNITUDES = st.floats(0.0, 1e300, allow_nan=False, allow_subnormal=True)


class TestHelpers:
    @given(FLOATS, FLOATS)
    def test_add_up_rounds_upward(self, a, b):
        up = float(_enclose.add_up(a, b))
        exact = Fraction(a) + Fraction(b)
        assert Fraction(up) >= exact > Fraction(math.nextafter(up, -math.inf))

    @given(MAGNITUDES, MAGNITUDES)
    def test_mul_up_bounds_the_product(self, a, b):
        assume(a * b < 1e308)
        up = float(_enclose.mul_up(a, b))
        exact = Fraction(a) * Fraction(b)
        assert Fraction(up) >= exact
        assert up == 0.0 if exact == 0 else up == math.nextafter(a * b, math.inf)

    @settings(max_examples=60, deadline=None)
    @given(term_arrays(), st.sampled_from([0.0, math.inf]))
    def test_row_sums_enclose_the_exact_sums(self, terms, budget):
        # budget 0 sums every row by extraction, inf none
        sums, errors, magnitudes = _enclose.row_sums(terms, np.ones(len(terms)), budget)
        for row, s, e, size in zip(terms, sums, errors, magnitudes):
            assert abs(exact_sum(row) - Fraction(s)) <= Fraction(e)
            assert exact_sum(np.abs(row)) <= Fraction(size)

    @settings(max_examples=40, deadline=None)
    @given(term_arrays(signed=False))
    @example(np.zeros((1, 2)))  # a zero row once took sigma 2^2, error 9.9e-32
    def test_extraction_is_within_about_an_ulp(self, terms):
        sums, errors = _enclose._extract(terms, 1)
        for row, s, e in zip(terms, sums, errors):
            assert abs(exact_sum(row) - Fraction(s)) <= Fraction(e)
            assert e <= 4.0 * U * s + 2.0**-1070

    @settings(max_examples=30, deadline=None)
    @given(term_arrays(rows=3, most=2001), st.data(), st.sampled_from([0.0, 1.0]))
    def test_factored_rows_enclose_the_exact_product(self, psi, data, s):
        # s = 0 leaves every column sum a priori, s = 1 extracts those that
        # an ulp of max |y| cannot take
        r, n = psi.shape
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # psi z and phi psi z stay finite
        phi = rng.standard_normal((r, n)) * 2.0 ** data.draw(st.integers(-40, 0))
        z = rng.standard_normal(n) * 2.0 ** data.draw(st.integers(-40, 0))
        y, errors = _enclose.factored_rows(phi, psi, z, 0.0, s)
        columns = [sum((Fraction(p) * Fraction(x) for p, x in zip(row, z)), Fraction(0))
                   for row in psi]
        for i in range(0, n, max(1, n // 50)):
            exact = sum((Fraction(phi[j, i]) * columns[j] for j in range(r)), Fraction(0))
            assert abs(exact - Fraction(y[i])) <= Fraction(errors[i])


# ---------------------------------------------------------------------------
# sup builds of factored kernels against their exact row sums and a
# ---------------------------------------------------------------------------

DELTA = 2.0**-40
TAU = 2.0**-30
# name -> (factors of the nodes, rounding, remainder, exact kernel on Fractions);
# "shrunk" stores t (1 - DELTA) for the exact factor t, "offset" is t s + TAU
SYNTHETIC = {
    "shrunk": (lambda t: (t[:, None] * (1.0 - DELTA), t[:, None]), 2.0 * DELTA, 0.0,
               lambda t, s: t * s),
    "offset": (lambda t: (t[:, None], t[:, None]), 0.0, TAU,
               lambda t, s: t * s + Fraction(TAU)),
}


# the synthetic kernels on floats, for their dense twins
SAMPLED = {"shrunk": lambda t, s: t * s, "offset": lambda t, s: t * s + TAU}


def dense_table(name: str, grid: Grid) -> KernelTable:
    return KernelTable.from_function(grid, SAMPLED.get(name) or presets.KERNELS[name])


def factored_table(name: str, grid: Grid) -> KernelTable:
    if name in SYNTHETIC:
        factors, rounding, remainder, _ = SYNTHETIC[name]
        return KernelTable._from_factors(grid, *factors(grid.nodes), rounding, remainder)
    table = cli._resolve_kernel({"kernel": name}, grid)
    assert table.values is None and table._factors is not None
    return table


@functools.lru_cache(maxsize=None)
def exact_kernel(name: str, rule: str, interval: tuple, n: int, form: str) -> tuple:
    """The kernel at the float node pairs as Fractions, row by row;
    exp_product to 50 digits, and a dense twin's own samples."""
    grid = getattr(Grid, rule)(*interval, n)
    if form == "dense":
        return tuple(tuple(map(Fraction, row)) for row in dense_table(name, grid).values.tolist())
    nodes = grid.nodes.tolist()
    t = [Fraction(x) for x in nodes]
    if name in SYNTHETIC:
        fn = SYNTHETIC[name][3]
        return tuple(tuple(fn(a, b) for b in t) for a in t)
    if name == "product":
        return tuple(tuple(a * b for b in t) for a in t)
    if name == "one":
        return tuple((Fraction(1),) * n for _ in t)
    with localcontext() as ctx:
        ctx.prec = 50
        d = [Decimal(x) for x in nodes]
        return tuple(tuple(Fraction((a * b).exp()) for b in d) for a in d)


# a dense twin's knorm lies within this many u of its exact value, relative
DENSE_KNORM = 8
NONLINEARITIES = {"square": (lambda u: u**2, PowerSumModulus(((2.0, 1.0),))),
                  "sin": (np.sin, ConstantModulus(1.0))}
# kernel, rule, interval, n, nonlinearity, center, lambda and the table's
# form; the centers make h(x0) nonzero, so a sums a real image
CASES = [
    (kernel, rule, interval, n, nonlinearity, center, lam, form)
    for form in ("factored", "dense")
    for kernel in ("product", "one", "exp_product", "shrunk", "offset")
    for rule, n in (("simpson", 21), ("trapezoid", 21), ("simpson", 101))
    for interval, nonlinearity, center, lam in (
        ((0.0, 1.0), "square", 0.3, 0.1),
        ((-1.0, 1.0), "sin", "ramp", -0.37),
        ((0.5, 1.0), "square", "ramp", 0.7))
]


def grid_and_center(case):
    kernel, rule, interval, n, nonlinearity, center, lam, form = case
    grid = getattr(Grid, rule)(*interval, n)
    return grid, 0.2 + 0.5 * np.cos(3.0 * grid.nodes) if center == "ramp" else center


def build(case):
    kernel, rule, interval, n, nonlinearity, center, lam, form = case
    grid, x0 = grid_and_center(case)
    h, modulus = NONLINEARITIES[nonlinearity]
    table = (factored_table if form == "factored" else dense_table)(kernel, grid)
    spec = HammersteinSpec((HammersteinTerm(table, h, modulus),), lam,
                           FORCINGS["sin_pi"])
    handle = build_hammerstein_sup(spec, grid, 1.0, center=x0)
    return handle, row_sum_bound(table, grid.weights)


@functools.lru_cache(maxsize=None)
def exact_bounds(case) -> tuple[Fraction, Fraction]:
    """(max_i sum_l |w_l k_il|, max_i |f_i + lam sum_l w_l k_il v_l - x0_i|)
    at the float nodes, weights, f, v = h(x0) and x0."""
    kernel, rule, interval, n, nonlinearity, _, lam, form = case
    grid, x0 = grid_and_center(case)
    x0 = operators._resolve_center(x0, grid)
    k = exact_kernel(kernel, rule, interval, n, form)
    w = [Fraction(x) for x in grid.weights.tolist()]
    v = _mesh_callback(NONLINEARITIES[nonlinearity][0])(x0)
    wv = [a * Fraction(b) for a, b in zip(w, v.tolist())]
    f = _mesh_callback(FORCINGS["sin_pi"])(grid.nodes).tolist()
    norm = max(sum(abs(a) * abs(b) for a, b in zip(w, row)) for row in k)
    shift = max(abs(Fraction(fi) + Fraction(lam) * sum(a * b for a, b in zip(row, wv))
                    - Fraction(xi))
                for fi, xi, row in zip(f, x0.tolist(), k))
    return norm, shift


def violations() -> list:
    """The cases whose kernel norm or a falls below its exact value."""
    bad = []
    for case in CASES:
        handle, knorm = build(case)
        norm, shift = exact_bounds(case)
        if Fraction(knorm) < norm:
            bad.append((case, "knorm"))
        if Fraction(handle.profile.center_shift) < shift:
            bad.append((case, "a"))
        if Fraction(handle.profile.center_shift_low) > shift:
            bad.append((case, "a_low"))
    return bad


class TestSupBuild:
    def test_knorm_and_a_lie_above_their_exact_values(self):
        assert violations() == []

    def test_knorm_and_a_are_within_a_few_ulps(self):
        # the outer sum over a rank-r factor costs r u sum_j |phi_ij c_j|, a
        # priori, and the declared rounding e of each factor 2e of the same;
        # exp_product declares k >= 0, so on [-1, 1], where its factors
        # change sign, its row sums are read through the signed factors, and
        # sum_j |phi_ij c_j| is at most 1.5 times the row sum (3.44 against
        # 2.35); 8u more covers the rest (44u seen for exp_product, 5u for
        # product and one).  The synthetic kernels are left out: their
        # declared errors are large.  A dense twin's row sums are summed by
        # extraction where they may be the largest, so each of its knorms
        # lies within DENSE_KNORM u of its exact value.
        for case in CASES[::2]:
            handle, knorm = build(case)
            norm, shift = exact_bounds(case)
            if case[-1] == "dense":
                assert knorm - float(norm) <= DENSE_KNORM * U * float(norm), case
            elif case[0] in SYNTHETIC:
                continue
            else:
                table = factored_table(case[0], grid_and_center(case)[0])
                rank, rounding = table._factors[0].shape[1], table._factor_error[0]
                width = 1.5 * (rank + 2 * rounding / U) + 8
                assert knorm - float(norm) <= width * U * knorm, case
            profile = handle.profile
            assert profile.center_shift - float(shift) <= 8 * U * float(shift), case
            assert float(shift) - profile.center_shift_low <= 8 * U * float(shift), case

    def test_reading_signed_factors_as_nonnegative_breaks_knorm(self, monkeypatch):
        # product's factor t changes sign on [-1, 1], where its row sums are
        # about 1: a copy that declared k >= 0 would read them through the
        # signed factors, as about 3e-16
        monkeypatch.setitem(presets._FACTOR_DECLARATIONS, "product", (0.0, 0.0, True))
        missed = {(case[0], case[2], case[-1], bound) for case, bound in violations()}
        assert missed == {("product", (-1.0, 1.0), "factored", "knorm")}

    @pytest.mark.parametrize("term", ["factor rounding", "remainder", "image errors",
                                      "sum roundings", "slack of a"])
    def test_dropping_a_rounding_term_breaks_a_bound(self, monkeypatch, term):
        if term in ("factor rounding", "remainder"):
            index = term == "remainder"
            for name, (factors, rounding, remainder, fn) in SYNTHETIC.items():
                declared = [rounding, remainder]
                declared[index] = 0.0
                monkeypatch.setitem(SYNTHETIC, name, (factors, *declared, fn))
        elif term == "image errors":
            rows = _enclose.factored_rows
            monkeypatch.setattr(operators, "factored_rows",
                                lambda *args: (rows(*args)[0], 0.0))
        elif term == "sum roundings":
            # the roundings of f + lam y - x0
            monkeypatch.setattr(operators, "two_sum", lambda a, b: (a + b, 0.0))
        else:
            # all of it, so that a's lower end is the float a: it must fail too
            rows = _enclose.factored_rows
            monkeypatch.setattr(operators, "factored_rows",
                                lambda *args: (rows(*args)[0], 0.0))
            monkeypatch.setattr(operators, "two_sum", lambda a, b: (a + b, 0.0))
            monkeypatch.setattr(operators, "U", 0.0)
            monkeypatch.setattr(operators, "TINY", 0.0)
            assert any(bound == "a_low" for _, bound in violations())
        assert violations() != []


# 1 + 40 terms each a little over half an ulp of 1, whose float sum rounds
# above the exact one; and 1 + 2^-60, which no float holds, so that its
# float sum, 1, falls below
NUDGED = np.array([[1.0] + [2.0**-53 * (1.0 + 2.0**-20)] * 40, [1.0, 2.0**-60] + [0.0] * 39])


@pytest.mark.parametrize("term,budget", [("a-priori errors", math.inf),
                                         ("extraction errors", 0.0)])
def test_dropping_a_summation_term_breaks_row_sums(monkeypatch, term, budget):
    sums, errors, _ = _enclose.row_sums(NUDGED, np.ones(2), budget)
    exact = [exact_sum(row) for row in NUDGED]
    assert all(abs(x - Fraction(s)) <= Fraction(e) for x, s, e in zip(exact, sums, errors))
    if term == "extraction errors":
        extract = _enclose._extract
        monkeypatch.setattr(_enclose, "_extract", lambda *args: (extract(*args)[0], 0.0))
        sums, errors, _ = _enclose.row_sums(NUDGED, np.ones(2), budget)
    assert any(Fraction(s) < x for x, s in zip(exact, sums))
    assert not all(abs(x - Fraction(s)) <= Fraction(e) * (term != "a-priori errors")
                   for x, s, e in zip(exact, sums, errors))


def test_dropping_the_unit_roundoff_breaks_the_outer_sums(monkeypatch):
    # the outer sums add their r terms in row order (a reduction over axis
    # 0), so 40 terms of 3/4 of half an ulp of 1 after a leading 1 are each
    # lost: the float sum is 1, 30u below the exact one
    c = np.array([1.0] + [0.75 * U] * 40)
    exact = exact_sum(c)
    ones = np.ones((c.size, 2))
    for dropped in (False, True):
        if dropped:
            monkeypatch.setattr(_enclose, "U", 0.0)
        y, errors = _enclose.factored_rows(ones, ones * c[:, None], np.array([1.0, 0.0]),
                                           0.0, 0.0)
        assert (abs(exact - Fraction(y[0])) <= Fraction(errors[0])) is not dropped


def test_an_underflowing_w_v_counts_in_the_factored_image():
    # w_0 v_0 = TINY / 2 rounds to 0, which loses 2^99 TINY of the image
    w, v = np.array([0.5, 0.5]), np.array([2.0**-1074, 0.0])
    table = KernelTable._from_factors(index_grid(w), np.ones((2, 1)),
                                      np.array([[2.0**100], [0.0]]))
    y, errors = operators._factored_pass(table, w, v, 0.0, 1.0)
    exact = Fraction(2.0**100) * Fraction(0.5) * Fraction(2.0**-1074)
    assert y[0] == 0.0 and exact <= Fraction(errors[0])


# ---------------------------------------------------------------------------
# the dense pass against the exact row sums and image of its samples
# ---------------------------------------------------------------------------

def index_grid(weights) -> Grid:
    """A grid on the nodes 0, 1, ..., n - 1 with the given weights."""
    weights = np.asarray(weights, dtype=float)
    return Grid(0.0, math.fsum(weights.tolist()), np.arange(weights.size, dtype=float),
                weights, "index")


def dense_misses(values: np.ndarray, weights: np.ndarray, v: np.ndarray, c=0.0, s=1.0):
    """The rows whose exact image Z (w v) leaves the dense pass's error
    bound, and whether its knorm lies below an exact row sum sum_l |Z_il w_l|.
    The image's rows are extracted where |c + s y| may reach its max: all
    of them at s = 0."""
    grid = index_grid(weights)
    table = KernelTable(grid, values)
    y, errors = operators._dense_pass(table, grid.weights, v, c, s)
    wv = [Fraction(a) * Fraction(b) for a, b in zip(weights.tolist(), v.tolist())]
    rows = values.tolist()
    exact = [sum((Fraction(k) * x for k, x in zip(row, wv)), Fraction(0)) for row in rows]
    norms = [sum((abs(Fraction(k) * Fraction(w)) for k, w in zip(row, weights.tolist())),
                 Fraction(0)) for row in rows]
    misses = [i for i, (x, a, e) in enumerate(zip(exact, y, errors))
              if abs(x - Fraction(a)) > Fraction(e)]
    return misses, Fraction(row_sum_bound(table, grid.weights)) < max(norms)


@st.composite
def dense_inputs(draw):
    """(Z, w, v): an (n, n) table, positive weights and a vector, each
    entry a random mantissa times 2^k with k drawn per array, zeros and
    signs sprinkled into Z and v, such that no product overflows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))

    def entries(shape, low):
        out = np.ldexp(rng.random(shape) + 0.5, draw(st.integers(low, 300)))
        out[rng.random(shape) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
        return out * rng.choice([-1.0, 1.0], shape)

    # products of all three reach below 2^-1074, where they underflow, and
    # w v does too
    weights = np.ldexp(rng.random(n) + 0.5, draw(st.integers(-400, 0)))
    return entries((n, n), -600), weights, entries(n, -1000)


# (c, s) of the image: s = 0 extracts every row, c = 0 the rows that may
# be the largest, and a c too large for s y to matter only the first row
TARGETS = {"every row": (0.0, 0.0), "largest rows": (0.0, 1.0),
           "first row": (np.array([1e300] + [0.0] * 39), 1e-300)}

# (Z_0l, w, v): a row whose extracted image falls short of the exact one by
# more than its errors less one cover of the pass's rounding: the 2u of the
# row's size for z = fl(w v) and fl(Z z) each rounding (found by a random
# search), TINY for each product that underflows, and |Z_0l| TINY where
# w_l v_l does
SHORTFALLS = {
    "two roundings": ([1.512660414987241, 1.988796541631013],
                      [1.818592176088178, 1.1036202492644418],
                      [1.6206405596567888, 1.8837427440914931]),
    "underflowing products": ([2.0**-1000] * 8, [1.0] * 8, [0.4 * 2.0**-74] * 8),
    "underflowing w v": ([2.0**100, 0.0], [0.5, 0.5], [2.0**-1074, 0.0]),
}


class TestDensePass:
    @settings(max_examples=60, deadline=None)
    @given(dense_inputs(), st.sampled_from(sorted(TARGETS)), st.sampled_from([None, 3]))
    def test_image_and_row_sums_are_enclosed(self, inputs, target, block_rows):
        # a block of three rows reads the table in several blocks
        values, weights, v = inputs
        c, s = TARGETS[target]
        c = c if np.ndim(c) == 0 else c[:values.shape[0]]
        with pytest.MonkeyPatch.context() as patch:
            if block_rows:
                patch.setattr(operators, "_BLOCK_ELEMENTS", block_rows * values.shape[0])
            assert dense_misses(values, weights, v, c, s) == ([], False)

    def test_dropping_the_image_errors_breaks_the_image(self):
        # the rows of NUDGED, summed a priori, since row 2 alone may be the
        # largest: one float sum rounds above its exact value and one below,
        # so y alone misses both
        values = np.zeros((41, 41))
        values[:2] = NUDGED
        ones, c = np.ones(41), np.zeros(41)
        c[2] = 10.0
        assert dense_misses(values, ones, ones, c) == ([], False)
        y, _ = operators._dense_pass(KernelTable(index_grid(ones), values), ones, ones, c, 1.0)
        exact = [exact_sum(row) for row in NUDGED]
        assert Fraction(y[0]) > exact[0] and Fraction(y[1]) < exact[1]

    def test_dropping_the_product_rounding_breaks_the_image(self):
        # z = fl(w v) and each product fl(Z z) round down by almost an ulp
        # each, 2u in all: more than the extraction error of the float terms
        # (about u), so the rounding of the products must be counted too
        n = 64
        z, w, v = 1.0003918919240609, 1.0000224978025065, 1.0003541916962506
        values = np.full((n, n), z)
        assert dense_misses(values, np.full(n, w), np.full(n, v), 0.0, 0.0) == ([], False)
        terms = values[:1] * (w * v)
        s, e = _enclose._extract(terms, 1)
        exact = n * Fraction(z) * Fraction(w) * Fraction(v)
        assert exact - Fraction(s[0]) > Fraction(e[0])

    def test_row_sums_count_the_rounding_of_the_products_once(self, monkeypatch):
        # each product |Z_il| w_l rounds down, and the extracted sum of the
        # float terms with its error falls short of the exact row sum: u
        # times the row's size, counted once, covers it, and a copy without
        # it (u = 0 in the pass) leaves the knorm below
        w = np.full(2, 1.0036492145288018)
        values = np.array([[1.0021937043066065, 0.5015619328344311], [0.0, 0.0]])
        table = KernelTable(index_grid(w), values)
        exact = sum(Fraction(k) * Fraction(x) for k, x in zip(values[0], w))
        assert Fraction(row_sum_bound(table, w)) >= exact
        monkeypatch.setattr(operators, "U", 0.0)
        assert Fraction(row_sum_bound(table, w)) < exact

    def test_rows_too_large_to_extract_keep_their_a_priori_bound(self):
        # the largest row passes _EXTRACT_LIMIT, where extraction's sigma
        # would overflow, so it is summed a priori: its float sum drops each
        # term just under half an ulp of the first (numpy's first of eight
        # partial sums takes every eighth term)
        n = 128
        values = np.zeros((n, n))
        values[0, ::8] = 2.0**1015 * U * (1.0 - 2.0**-20)
        values[0, 0] = 2.0**1015
        # s = 0 would sum every image row by extraction, but for this one
        assert dense_misses(values, np.ones(n), np.ones(n), 0.0, 0.0) == ([], False)
        assert values[0].sum() < exact_sum(values[0])

    @pytest.mark.parametrize("name", sorted(SHORTFALLS))
    def test_each_cover_of_the_image_rounding_is_needed(self, name):
        row, w, v = map(np.array, SHORTFALLS[name])
        values = np.zeros((row.size, row.size))
        values[0] = row
        assert dense_misses(values, w, v, 0.0, 0.0) == ([], False)


def test_dense_sup_build_extracts_only_rows_that_may_be_the_largest(monkeypatch):
    # a sampled exp_product table on [0, 2]: the largest row sum, and the
    # largest |f + lam y - x0|, each sit in one row that no other can reach,
    # so each of the two images extracts that row alone, at every lambda
    grid = Grid.simpson(0.0, 2.0, 2001)
    table = KernelTable.from_function(grid, presets.KERNELS["exp_product"])
    rows, extract = [], operators._extract
    monkeypatch.setattr(operators, "_extract",
                        lambda terms, axis: rows.append(len(terms)) or extract(terms, axis))
    h, modulus = NONLINEARITIES["square"]
    for lam in (0.002, 0.1, 1.0):
        spec = HammersteinSpec((HammersteinTerm(table, h, modulus),), lam, FORCINGS["sin_pi"])
        rows.clear()
        build_hammerstein_sup(spec, grid, 1.0, center=0.05)
        assert rows == [1, 1], lam


def test_modulus_scale_keeps_both_ends_of_a():
    config = {"kind": "hammerstein_c", "lambda": 0.2, "radius": 1.0, "x0": 0.1,
              "grid": {"rule": "simpson", "n": 101}, "forcing": "sin_pi",
              "terms": [{"kernel": "exp_product", "nonlinearity": "sin"}]}
    plain = cli._build_problem(config)["handle"].profile
    scaled = cli._build_problem(dict(config, modulus_scale=2.0))["handle"].profile
    assert plain.center_shift_low < plain.center_shift
    assert (scaled.center_shift_low, scaled.center_shift) == (plain.center_shift_low,
                                                              plain.center_shift)


def test_sup_build_of_a_factored_table_never_calls_its_kernel(monkeypatch):
    calls = []

    def counting(t, s):
        calls.append(np.shape(t))
        return t * s

    monkeypatch.setitem(presets.KERNELS, "product", counting)
    sup = {"kind": "hammerstein_c", "lambda": 0.2, "radius": 1.0, "x0": 0.1,
           "grid": {"rule": "simpson", "n": 101}, "forcing": "sin_pi",
           "terms": [{"kernel": "product", "nonlinearity": "sin"}]}
    # the L_p build's Zaanen estimate reads the factors too
    lp = {"kind": "hammerstein_lp", "lambda": 0.2, "radius": 1.0, "p": 2.0,
          "grid": {"rule": "simpson", "n": 101}, "forcing": "sin_pi",
          "terms": [{"kernel": "product", "nonlinearity": "linear"}]}
    for config in (sup, lp):
        handle = cli._build_problem(config)["handle"]
        handle.apply(handle.center)
    assert calls == []
