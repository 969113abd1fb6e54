"""Upper bounds on floating-point sums and products under round-to-nearest.

numpy rounds each operation to nearest and has no directed rounding, so a
bound here is a float result together with a float error term, each made
to lie at or above the exact real value it stands for.  With u = 2^-53:

* a sum a + b is exact on underflow and errs by at most u |fl(a + b)|
  otherwise; TwoSum (Knuth) finds that error exactly, and add_up rounds
  the sum upward from it;
* a product of two floats errs by at most u |fl(a b)|, or by 2^-1075 where
  it underflows; mul_up moves a nonnegative product one spacing up, which
  covers both, and keeps a product with a zero factor at 0;
* a float sum of n terms, in any order, lies within (n - 1) u sum |terms|
  of the exact sum, and a float dot product of length r within
  r u sum |a_j b_j| where no product underflows (Rump, BIT 52, 2012;
  Jeannerod and Rump, SIMAX 34(2), 2013).

row_sums sums chosen rows within about an ulp instead, by one
extraction step (Rump, Ogita and Oishi, "Accurate floating-point summation
part I", SISC 31(1), 2008): each term splits exactly into a high part on the
grid of spacing u sigma, sigma a power of two >= (n + 2) max |term|, whose
sum is exact in any order, and a low part below u sigma, whose float sum
errs by at most (n - 1) n u^2 sigma.  Everything here is elementwise numpy
or a numpy reduction, never a BLAS product, so no bound depends on the
BLAS thread count.
"""

from __future__ import annotations

import numpy as np

U = 2.0**-53
# the least positive float: more than a product loses to underflow, 2^-1075
TINY = 2.0**-1074
# rows with a term this large stay a priori: their sigma would overflow
_EXTRACT_LIMIT = 2.0**960


def two_sum(a, b):
    """(s, low) with s = fl(a + b) and s + low = a + b exactly, elementwise
    (finite sums)."""
    s = np.add(a, b)
    z = s - a
    return s, (a - (s - z)) + (b - z)


def add_up(a, b):
    """a + b rounded upward, elementwise (finite sums)."""
    s, low = two_sum(a, b)
    return np.where(low > 0.0, np.nextafter(s, np.inf), s)


def mul_up(a, b):
    """a b rounded upward, elementwise, for a, b >= 0."""
    p = np.multiply(a, b)
    return np.where((np.asarray(a) == 0.0) | (np.asarray(b) == 0.0), p,
                    np.nextafter(p, np.inf))


def _absolute(values: np.ndarray) -> np.ndarray:
    """|values|: values itself when no sign bit is set (|v| = v, bit for bit)."""
    return np.abs(values) if np.any(np.signbit(values)) else values


def inflate(total, roundings: int):
    """An upper bound on the exact value of a nonnegative float sum total
    whose every term went through at most `roundings` roundings, none an
    underflowing product: total / (1 - k u) <= total (1 + 2 k u)."""
    return mul_up(total, 1.0 + 2.0 * roundings * U)


def _extract(terms: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """(sums, errors) of terms along axis by one extraction step."""
    n = terms.shape[axis]
    # floored at TINY, so that a row of zeros gets the least sigma, not 2^(n + 1)
    top = np.maximum(np.max(np.abs(terms), axis=axis, keepdims=True), TINY)
    # top < 2^e, and 2^bit_length(n + 1) >= n + 2
    sigma = np.ldexp(1.0, np.frexp(top)[1] + (n + 1).bit_length())
    high = (sigma + terms) - sigma
    sums = high.sum(axis=axis) + (terms - high).sum(axis=axis)
    # n (n - 1) u^2 is exact
    rest = mul_up(sigma.reshape(sums.shape), n * (n - 1) * U * U)
    return sums, add_up(mul_up(np.abs(sums), U), rest)


def row_sums(terms: np.ndarray, weights: np.ndarray, budget: float
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sums, errors, magnitudes) of the rows of terms, an (m, n) array:
    |sum_l terms[j, l] - sums[j]| <= errors[j] and
    sum_l |terms[j, l]| <= magnitudes[j], exactly.

    A row is summed in floats with the a-priori error, unless the weighted
    a-priori errors, weights[j] * errors[j], would leave more than budget in
    all: then the rows with the largest are summed by extraction, within
    about an ulp, until the rest fit.  So the data, not a setting, decides
    which rows cost more."""
    n = terms.shape[1]
    sums = terms.sum(axis=1)
    magnitudes = inflate(_absolute(terms).sum(axis=1), n - 1)
    errors = mul_up(magnitudes, (n - 1) * U)
    impact = weights * errors
    order = np.argsort(impact)
    tight = order[np.cumsum(impact[order]) > budget]
    tight = tight[np.max(np.abs(terms[tight]), axis=1, initial=0.0) < _EXTRACT_LIMIT]
    if tight.size:
        sums[tight], errors[tight] = _extract(terms[tight], 1)
    return sums, errors, magnitudes


def factored_rows(phi: np.ndarray, psi: np.ndarray, z: np.ndarray, c, s: float,
                  relative: float = 0.0, extra: float = 0.0
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(y, errors) for y = phi^T (psi z), with phi and psi C-contiguous
    (r, n) arrays, the transposes of a kernel's factors: for each i,

        |sum_j sum_l x_jil - y_i| + extra <= errors_i

    for any reals x_jil within relative |phi_ji psi_jl z_l| of
    phi_ji psi_jl z_l, the products of these floats.  The caller takes the
    max of |c + s y|: the r sums over l take row_sums, with about an ulp of
    that max over |s| as their budget; each y_i is a float dot of length r,
    bounded a priori."""
    r, n = psi.shape
    terms = psi * z
    absolute = _absolute(phi)
    scale = np.max(absolute, axis=1, initial=0.0)
    first = terms.sum(axis=1)
    products = phi * first[:, None]
    y = products.sum(axis=0)
    budget = U * float(np.max(np.abs(c + s * y))) / abs(s) if s else np.inf
    sums, errors, magnitudes = row_sums(terms, scale, budget)
    changed = np.flatnonzero(sums != first)
    if changed.size:
        products[changed] = phi[changed] * sums[changed, None]
        y = products.sum(axis=0)
    # |sum_l psi_jl z_l - sums_j| <= errors_j + u magnitudes_j and
    # |psi_jl z_l| <= (1 + u) |terms_jl|, underflow aside; and each row's
    # dot of length r errs by at most r u sum_j |phi_ji sums_j|
    columns = add_up(add_up(add_up(errors, mul_up(magnitudes, U)),
                            mul_up(mul_up(magnitudes, 1.0 + 2.0 * U), relative)),
                     mul_up(np.abs(sums), r * U))
    # the products psi_jl z_l and phi_ji sums_j of nonzero factors, each
    # losing < TINY if it underflows, the first scaled by |phi_ji| after;
    # and the r products |phi_ji| columns_j
    lost = (np.count_nonzero(z) * r * float(np.max(scale, initial=0.0))
            + np.count_nonzero(sums) + np.count_nonzero(columns))
    floor = add_up(mul_up(inflate(lost, 2), TINY), extra)
    # each term of the r + 1 passed through at most r + 1 roundings
    return y, inflate((absolute * columns[:, None]).sum(axis=0) + floor, r + 1)
