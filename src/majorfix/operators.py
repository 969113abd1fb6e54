"""Builders for the concrete operator families.

Each builder returns an OperatorHandle: grid-discretized apply, the ambient
norm, a center, and the majorant profile assembled from the family's
Lipschitz modulus.  The multilinear norm is the smallest mode-unfolding
spectral norm, a certified upper bound; superposition envelopes carry their
exact piecewise primitive.  Moduli that need quadrature (Urysohn,
composition) are sampled on a radius grid, 1 MiB of mesh at a time (see
_tabulated_sup_handle), under the sound upper envelope of their declared
shape (see modulus_from_samples), so the scalar core keeps its
exact-primitive contract: a monotone modulus, the default, is sampled at
257 radii under its first-order step envelope, and a convex one at 33 under
its second-order chord.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._enclose import (_EXTRACT_LIMIT, TINY, U, _extract, add_up, factored_rows,
                       inflate, mul_up, two_sum)
from .discretize import _BLOCK_ELEMENTS, Grid, KernelTable, _mesh_callback, lp_norm
from .iteration import OperatorHandle, make_operator
from .majorant import MajorantProfile
from .moduli import (
    ConstantModulus,
    LipschitzModulus,
    PowerSumModulus,
    _SHAPE_RADII,
    _check_shape,
    combine_moduli,
    modulus_from_samples,
    recenter_modulus,
)

__all__ = [
    "MultilinearSpec",
    "HammersteinTerm",
    "HammersteinSpec",
    "LipschitzPairSet",
    "UrysohnSpec",
    "CompositionSpec",
    "build_multilinear",
    "multilinear_critical_shift",
    "build_hammerstein_sup",
    "build_hammerstein_lp",
    "build_superposition_modulus",
    "build_urysohn",
    "build_composition",
    "build_self_majorizing",
]


def _sup_norm(v: np.ndarray) -> float:
    return float(np.abs(v).max())


# ---------------------------------------------------------------------------
# polynomial (multilinear) equations x = eta + T(x, ..., x)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MultilinearSpec:
    """Symmetric m-linear map T plus constant term eta on R^d.

    operator_norm is the norm C of T; exact for d = 1, otherwise supplied
    or bounded by the smallest spectral norm over the m+1 mode unfoldings
    (a certified upper bound: an over-estimate only shrinks the zones).
    """

    dimension: int
    degree: int
    tensor: np.ndarray | float
    constant: np.ndarray | float
    operator_norm: float | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.degree < 2 or int(self.degree) != self.degree:
            raise ValueError("degree must be an integer >= 2")
        if self.operator_norm is not None and self.operator_norm < 0.0:
            raise ValueError("operator_norm must be >= 0")


def _contract(tensor: np.ndarray, vectors) -> np.ndarray:
    out = tensor
    for v in vectors:
        out = np.tensordot(out, v, axes=([out.ndim - 1], [0]))
    return out


def build_multilinear(spec: MultilinearSpec, radius: float) -> OperatorHandle:
    """Handle for x -> eta + T(x, ..., x) centered at the origin.

    The modulus is C * m * r**(m-1) in the Euclidean norm (absolute value
    for d = 1).
    """
    d, m = spec.dimension, int(spec.degree)
    eta = np.atleast_1d(np.asarray(spec.constant, dtype=float))
    if eta.shape != (d,):
        raise ValueError(f"constant term shape {eta.shape} does not match dimension {d}")
    if d == 1:
        tensor = np.asarray(spec.tensor, dtype=float)
        if tensor.size != 1:
            raise ValueError("dimension 1 expects a scalar coefficient")
        coef = float(tensor.reshape(()))
        norm_c = abs(coef) if spec.operator_norm is None else float(spec.operator_norm)

        def apply(x: np.ndarray) -> np.ndarray:
            return eta + coef * x**m
    else:
        tensor = np.asarray(spec.tensor, dtype=float)
        if tensor.shape != (d,) * (m + 1):
            raise ValueError(
                f"tensor shape {tensor.shape} does not match (d,)*(m+1) = {(d,) * (m + 1)}"
            )
        if spec.operator_norm is None:
            # y . T(x_1, ..., x_m) = u^T M_k v for the mode-k unfolding M_k,
            # with u one of y, x_1, ..., x_m and v the Kronecker product of
            # the rest, so ||M_k||_2 bounds C for every k
            norm_c = min(float(np.linalg.norm(np.moveaxis(tensor, k, 0).reshape(d, -1), 2))
                         for k in range(m + 1))
        else:
            norm_c = float(spec.operator_norm)

        def apply(x: np.ndarray) -> np.ndarray:
            return eta + _contract(tensor, [x] * m)

    modulus = PowerSumModulus(((norm_c * m, float(m - 1)),))
    norm = lambda v: float(np.linalg.norm(v))
    return make_operator(apply, np.zeros(d), norm, modulus, radius)


def multilinear_critical_shift(norm_c: float, degree: int) -> float:
    """Largest ||eta|| for which x = eta + T(x,...,x) still has a root.

    Equals max_r (r - C r**m), the peak clearance of the bisectrix over the
    power curve.
    """
    if norm_c <= 0.0:
        raise ValueError("operator norm must be > 0")
    if degree < 2 or int(degree) != degree:
        raise ValueError("degree must be an integer >= 2")
    m = int(degree)
    return (1.0 / (norm_c * m)) ** (1.0 / (m - 1)) * (m - 1) / m


# ---------------------------------------------------------------------------
# Hammerstein sums x(t) = f(t) + lambda * sum_j int k_j(t,s) h_j(x(s)) ds
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HammersteinTerm:
    """One summand: kernel k_j (a callable, an (n, n) sample array or a
    KernelTable), nonlinearity h_j, and the modulus of u -> h_j(u) in the
    build's norms: the scalar modulus for the sup build, the superposition
    modulus (see build_superposition_modulus) for the L_p build."""

    kernel: Callable[[float, float], float] | np.ndarray | KernelTable
    nonlinearity: Callable
    modulus: LipschitzModulus


@dataclass(frozen=True, eq=False)
class HammersteinSpec:
    """Terms, lambda and forcing of a Hammerstein sum; the interval is the
    build grid's.  Callbacks are pointwise functions of numpy arrays: a
    kernel k(t, s) is sampled once, a block of rows per call, on the open
    mesh t = nodes[i:j, None], s = nodes[None, :] (see
    KernelTable.from_function); f(t) gets the nodes and h(u) the iterate.
    A scalar-only callback is passed as np.vectorize(fn, otypes=[float]).
    A TypeError or ValueError from a callback is raised as a RuntimeError
    naming it.
    """

    terms: tuple[HammersteinTerm, ...]
    lam: float
    forcing: Callable[[float], float] | np.ndarray

    def __post_init__(self):
        if not self.terms:
            raise ValueError("need at least one Hammerstein term")


def _sample_kernel(kernel, grid: Grid) -> KernelTable:
    """The kernel as a table on the build grid, with read-only samples: a
    callable is sampled and an array copied, so the caller cannot change
    the operator after its modulus was built."""
    if callable(kernel):
        return KernelTable.from_function(grid, kernel)
    if not hasattr(kernel, "grid"):
        return KernelTable(grid, kernel)
    # a table must be sampled on the build grid (or an equal one)
    if not (kernel.grid is grid or (np.array_equal(kernel.grid.nodes, grid.nodes)
                                    and np.array_equal(kernel.grid.weights, grid.weights))):
        raise ValueError("kernel table is not sampled on the build grid")
    return kernel


def _resolve_center(center, grid: Grid) -> np.ndarray:
    if center is None:
        return np.zeros(grid.n)
    arr = np.atleast_1d(np.asarray(center, dtype=float))
    if arr.size == 1:
        return np.full(grid.n, float(arr[0]))
    if arr.shape != (grid.n,):
        raise ValueError("center length does not match the grid")
    return arr


def _product(table: KernelTable) -> Callable[[np.ndarray], np.ndarray]:
    """v -> K v for the table's kernel K: phi @ (psi.T @ v) where the table
    carries factors (phi, psi), else its samples @ v."""
    if table._factors is None:
        return functools.partial(np.matmul, table.values)
    phi, psi = table._factors
    return lambda v: phi @ (psi.T @ v)


def _factored_pass(table: KernelTable, weights: np.ndarray, v, c, s: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(y, errors) with |sum_l x_l k(t_i, s_l) - y_i| <= errors_i, read
    from a table's factors (phi, psi) and declared error (rounding e,
    remainder tau) without its kernel: x = w v for the float v, or, where v
    is None, |k| and x = |w|, whose images are the row sums.  The caller
    takes the max of |c + s y| (see _enclose.factored_rows).

    The exact factors lie within (1 + e) of the stored ones entrywise, so
    each term phi_ij psi_lj x_l lies within g = (1 + e)^2 - 1 of its float,
    and the kernel within tau of their sum; |k| is read as
    KernelTable._absolute_factors gives it.  x = w v is taken from z =
    fl(w v), within u |z| of it, which adds u (1 + g) to each term's spread
    (2u (1 + g) is taken), or < TINY scaled by the largest |k| where w_l v_l
    underflows."""
    if v is not None and not np.any(v):
        return np.zeros(v.size), np.zeros(v.size)
    phi, psi = table._absolute_factors() if v is None else table._factors
    # (r, n) arrays, so that each sum over l runs along a contiguous row
    phi_t = np.ascontiguousarray(phi.T)
    psi_t = phi_t if psi is phi else np.ascontiguousarray(psi.T)
    rounding, remainder = table._factor_error
    g = float(mul_up(rounding, add_up(2.0, rounding)))
    if v is None:
        z, relative, lost = np.abs(weights), g, 0.0
    else:
        z, relative = weights * v, float(add_up(g, mul_up(2.0 * U, add_up(1.0, g))))
        scales = np.max(np.abs(phi_t), axis=1) * np.max(np.abs(psi_t), axis=1)
        kmax = add_up(mul_up(add_up(1.0, g), inflate(scales.sum(), scales.size)), remainder)
        lost = mul_up(np.count_nonzero(v) * TINY, kmax)
    # tau (1 + u) on sum |z|, and lost where w_l v_l underflows
    extra = add_up(mul_up(mul_up(remainder, 1.0 + 2.0 * U), inflate(np.abs(z).sum(), z.size)),
                   lost)
    return factored_rows(phi_t, psi_t, z, c, s, relative, extra)


def _dense_pass(table: KernelTable, weights: np.ndarray, v, c, s: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """_factored_pass's (y, errors) for samples Z, read in blocks of rows of
    about _BLOCK_ELEMENTS values, an eighth of that where extracted.  Each
    row of the float terms fl(Z_il z_l), z = fl(w v), or fl(|Z_il| |w_l|)
    where v is None, is summed with its a-priori error, and again by
    extraction where the upper end of |c + s y| can reach the largest lower
    end.  Each term lies within u of its float, u more where z rounds, or
    loses < TINY where a product underflows: |Z_il| TINY where w_l v_l
    does."""
    values, n = table.values, table.grid.n
    if v is None:
        z, spread, under = np.abs(weights), U, np.zeros(0, dtype=int)
    elif not np.any(v):
        return np.zeros(n), np.zeros(n)
    else:
        z, spread = weights * v, 2.0 * U * (1.0 + 2.0 * U)
        under = np.flatnonzero((np.abs(z) < 2.0**-1022) & (v != 0.0))
    rows = max(1, _BLOCK_ELEMENTS // n)
    y, buffer = np.empty(n), np.empty((rows, n))
    sizes = y if v is None else np.empty(n)
    for i in range(0, n, rows):
        block = values[i:i + rows]
        terms = buffer[:len(block)]
        np.multiply(block if v is not None else np.abs(block, out=terms), z, out=terms)
        y[i:i + rows] = terms.sum(axis=1)
        if sizes is not y:
            sizes[i:i + rows] = np.abs(terms, out=terms).sum(axis=1)
    # sizes bounds sum_l |terms_il|, and spread its terms' roundings
    sizes = inflate(sizes, n - 1)
    lost = mul_up(inflate(np.abs(values[:, under]).sum(axis=1), under.size), TINY)
    rounding = add_up(add_up(mul_up(sizes, spread), n * TINY), lost)
    errors = mul_up(sizes, (n - 1) * U)
    size, reach = np.abs(c + s * y), abs(s) * (errors + rounding)
    tight = np.flatnonzero((size + reach >= np.max(size - reach)) & (sizes < _EXTRACT_LIMIT))
    for part in np.array_split(tight, 1 + 8 * tight.size // rows):
        terms = values[part] * z if v is not None else np.abs(values[part]) * z
        y[part], errors[part] = _extract(terms, 1)
    return y, add_up(errors, rounding)


def _center_shift_bounds(fvec, lam: float, x0, passes) -> tuple[float, float]:
    """Upper and lower bounds on a = max_i |f + lam sum_k Y_k - x0|_i, each
    exact Y_k within the errors of the float y of passes[k], a (y, errors);
    TwoSum gives the rounding of each of the apply's sums exactly."""
    out, slack = fvec, np.zeros_like(fvec)
    for y, error in passes:
        p = lam * y
        # |lam y - p| <= u |p|, or < TINY where the product underflows
        slack = add_up(slack, np.where(y != 0.0, add_up(mul_up(np.abs(p), U), TINY), 0.0))
        slack = add_up(slack, mul_up(abs(lam), error))
        out, low = two_sum(out, p)
        slack = add_up(slack, np.abs(low))
    d, low = two_sum(out, -x0)
    slack = add_up(slack, np.abs(low))
    # |d| - slack rounded down is -(slack - |d|) rounded up
    floor = -add_up(slack, -np.abs(d))
    return float(np.max(add_up(np.abs(d), slack))), max(float(np.max(floor)), 0.0)


def _nystrom_handle(spec: HammersteinSpec, grid: Grid, tables, knorms,
                    norm, radius: float, center) -> OperatorHandle:
    """x -> f + lambda * sum_j K_j (w * h_j(x)) with modulus
    |lambda| * sum_j knorms_j * h_j(r), h_j the terms' moduli, recentered on
    x0; the apply reads each K_j through its factors where its table carries
    them, else whole.  Without knorms, one bounded pass per table
    (_factored_pass, _dense_pass) encloses two images: |K_j| |w|, whose
    largest upper end bounds the row sums max_i sum_l |w_l k_j(t_i, s_l)|,
    and K_j (w h_j(x0)), from which a is bounded on both sides
    (_center_shift_bounds); with knorms, a is one apply's displacement
    (make_operator)."""
    x0 = _resolve_center(center, grid)
    if callable(spec.forcing):
        fvec = _mesh_callback(spec.forcing)(grid.nodes)
    elif np.shape(spec.forcing) == (grid.n,):
        fvec = np.asarray(spec.forcing, dtype=float)
    else:
        raise ValueError("forcing array length does not match the grid")
    hs = [_mesh_callback(term.nonlinearity) for term in spec.terms]
    weights, lam = grid.weights, spec.lam
    products = [_product(table) for table in tables]

    passes = []
    if knorms is None:
        knorms = []
        for table, h in zip(tables, hs):
            image = _dense_pass if table._factors is None else _factored_pass
            knorms.append(float(np.max(add_up(*image(table, weights, None, 0.0, 1.0)))))
            passes.append(image(table, weights, h(x0), fvec - x0, lam))
    modulus = combine_moduli([term.modulus for term in spec.terms],
                             [abs(lam) * kn for kn in knorms])
    shift = norm(x0)
    if shift > 0.0:
        modulus = recenter_modulus(modulus, shift)

    def apply(x: np.ndarray) -> np.ndarray:
        out = fvec.copy()
        for product, h in zip(products, hs):
            out += lam * product(weights * h(x))
        return out

    if not passes:
        return make_operator(apply, x0, norm, modulus, radius)
    a, a_low = _center_shift_bounds(fvec, lam, x0, passes)
    profile = MajorantProfile(a, modulus, float(radius), center_shift_low=a_low)
    return OperatorHandle(apply, x0, norm, profile)


def build_hammerstein_sup(spec: HammersteinSpec, grid: Grid, radius: float,
                          center=None) -> OperatorHandle:
    """Nystrom discretization in the sup norm.

    Kernel norms are row sums max_i sum_l w_l |k_j(t_i, s_l)| and the
    modulus is |lambda| * sum_j ||K_j|| * h_j(r), with h_j each term's
    scalar modulus.  Every table's row sums are bounded from above, and a
    from both sides, with h_j(x0) and f taken as given (_nystrom_handle).
    """
    tables = [_sample_kernel(term.kernel, grid) for term in spec.terms]
    return _nystrom_handle(spec, grid, tables, None, _sup_norm, radius, center)


def build_hammerstein_lp(spec: HammersteinSpec, zaanen_norms, p: float,
                         grid: Grid, radius: float, center=None) -> OperatorHandle:
    """Nystrom discretization in the discrete L_p norm.

    Each term's modulus is the superposition modulus of its nonlinearity
    (see build_superposition_modulus) and zaanen_norms are the kernel norms
    pairing L_{q_j} against L_{p'}; the modulus is
    |lambda| * sum_j norm_j * h_j(r).
    """
    p = float(p)
    if p <= 1.0:
        raise ValueError("p must be > 1")
    zaanen_norms = [float(z) for z in zaanen_norms]
    if len(zaanen_norms) != len(spec.terms):
        raise ValueError("zaanen_norms must match the term count")
    if any(z < 0.0 for z in zaanen_norms):
        raise ValueError("Zaanen norms must be >= 0")
    tables = [_sample_kernel(term.kernel, grid) for term in spec.terms]
    norm = lambda v: lp_norm(grid, v, p)
    return _nystrom_handle(spec, grid, tables, zaanen_norms, norm, radius, center)


# ---------------------------------------------------------------------------
# superposition moduli for L_p nonlinearities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzPairSet:
    """Candidate (weight, slope) pairs whose lower envelope bounds a
    superposition operator between L_p and L_q."""

    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("pair set must be nonempty")
        cleaned = []
        for first, second in self.pairs:
            first, second = float(first), float(second)
            if first < 0.0 or second < 0.0:
                raise ValueError("pairs must be nonnegative")
            cleaned.append((first, second))
        object.__setattr__(self, "pairs", tuple(cleaned))


def build_superposition_modulus(pair_set: LipschitzPairSet, p: float, q: float,
                                length: float) -> LipschitzModulus:
    """Pointwise minimum over the pair set of weight * length**e0 + slope * r**e
    with e0 = (p-q)/(pq) and e = (p-q)/q.

    Exact on all of [0, inf): a constant when e vanishes, otherwise the
    envelope, a piecewise power sum with its closed-form primitive (see
    PowerSumModulus._envelope).
    """
    p, q, length = float(p), float(q), float(length)
    if p <= 1.0:
        raise ValueError("p must be > 1")
    if not (0.0 < q <= p):
        raise ValueError("q must lie in (0, p]")
    if length <= 0.0:
        raise ValueError("interval length must be > 0")
    e0 = (p - q) / (p * q)
    e = (p - q) / q
    curves = tuple((first * length**e0, second) for first, second in pair_set.pairs)
    if e == 0.0:
        return ConstantModulus(min(a + b for a, b in curves))
    return PowerSumModulus._envelope(curves, e)


# ---------------------------------------------------------------------------
# Urysohn equations x(t) = int K(t, s, x(s), x(t)) ds
# ---------------------------------------------------------------------------

def _tabulated_sup_handle(apply, chunk_modulus, grid: Grid, radius: float,
                          center, shape: str) -> OperatorHandle:
    """Sup-norm handle whose modulus k(r + |x0|) is sampled at the shape's
    radii r in [0, radius] (_SHAPE_RADII) under its envelope: k is the
    largest chunk_modulus(r, rows) of (c, 1, 1) chunks of radii over blocks
    of rows of t within _BLOCK_ELEMENTS (r, t, s) points, as few and even as
    steps of 16 rows allow, with room for a lone last row to join the block
    before: each row then keeps the bits of one gemv over all rows, which
    numpy would not give a single row (it sums one by a dot)."""
    x0 = _resolve_center(center, grid)
    rs = np.linspace(0.0, radius, _SHAPE_RADII[shape])
    r = (rs + _sup_norm(x0))[:, None, None]
    count = -(-grid.n // max(16, (_BLOCK_ELEMENTS // grid.n - 1) // 16 * 16))
    rows = min(grid.n, -(-grid.n // (16 * count)) * 16)
    chunk = max(1, _BLOCK_ELEMENTS // (rows * grid.n))
    edges = [*range(0, grid.n - 1, rows), grid.n]
    ks = np.concatenate([np.max([chunk_modulus(r[i:i + chunk], slice(*edge))
                                 for edge in zip(edges, edges[1:])], axis=0)
                         for i in range(0, rs.size, chunk)])
    return make_operator(apply, x0, _sup_norm, modulus_from_samples(rs, ks, shape),
                         radius)


@dataclass(frozen=True, eq=False)
class UrysohnSpec:
    """Kernel K(t,s,u,v) with its partial moduli l(t,s,r) (in u) and
    m(t,s,r) (in v), both nonnegative and nondecreasing in r; the interval
    is the build grid's.  shape declares what more l and m are in r:
    "monotone" claims nothing more, "convex" that both are convex in r, so
    the build samples the combined modulus at 33 radii instead of 257.

    Callbacks are pointwise on broadcastable open-mesh numpy arrays, as in
    HammersteinSpec: K(t, s, u, v) gets t = nodes[:, None], s = nodes[None, :],
    u = x[None, :], v = x[:, None]; l and m get a block of rows t[None, i:j],
    s[None] and a leading radius axis r[:, None, None].
    """

    kernel: Callable
    u_modulus: Callable
    v_modulus: Callable
    shape: str = "monotone"

    def __post_init__(self):
        _check_shape(self.shape)


def build_urysohn(spec: UrysohnSpec, grid: Grid, radius: float,
                  center=None) -> OperatorHandle:
    """Nystrom discretization in the sup norm.

    The modulus k(r) = max_t sum_l w_l (l(t, s_l, r) + m(t, s_l, r)) is
    sampled on a radius grid, a chunk of radii over a block of rows per
    call of the pointwise moduli (see UrysohnSpec), and wrapped in the upper
    envelope of the spec's shape; a sample set that breaks the shape is a
    construction error.
    """
    t, s, weights = grid.nodes[:, None], grid.nodes[None, :], grid.weights
    kernel = _mesh_callback(spec.kernel)
    l_mod, m_mod = _mesh_callback(spec.u_modulus), _mesh_callback(spec.v_modulus)

    # on C-contiguous blocks, @ gives each row the bits of a 2-d gemv
    def apply(x: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(kernel(t, s, x[None, :], x[:, None])) @ weights

    def chunk_modulus(r: np.ndarray, rows: slice) -> np.ndarray:
        block = l_mod(t[None, rows], s[None], r) + m_mod(t[None, rows], s[None], r)
        return np.max(np.ascontiguousarray(block) @ weights, axis=1)

    return _tabulated_sup_handle(apply, chunk_modulus, grid, radius, center,
                                 spec.shape)


# ---------------------------------------------------------------------------
# composition equations x(t) = F(t, x(t), int K(t, s, x(s)) ds)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CompositionSpec:
    """Outer map F(t,u,v) with moduli l(t,r,rho), m(t,r,rho); inner kernel
    K(t,s,u) with envelope n0(t,s,r) and modulus n(t,s,r); the interval is
    the build grid's.  shape declares what the moduli are in their radius
    arguments: "monotone" that all are nondecreasing, "convex" that all
    are convex and nondecreasing (l and m in r and rho jointly), which makes
    the combined modulus convex, so the build samples it at 33 radii
    instead of 257.

    Callbacks are pointwise on broadcastable open-mesh numpy arrays, as in
    HammersteinSpec: K gets t = nodes[:, None], s = nodes[None, :], u = x[None, :];
    F gets nodes, x and the inner integrals; n0 and n get a block of rows
    t[None, i:j], s[None] and a leading radius axis r[:, None, None]; l and
    m get nodes[None, i:j], r[:, None] and rho[r, t].
    """

    outer: Callable
    outer_u_modulus: Callable
    outer_v_modulus: Callable
    inner_kernel: Callable
    inner_bound: Callable
    inner_modulus: Callable
    shape: str = "monotone"

    def __post_init__(self):
        _check_shape(self.shape)


def build_composition(spec: CompositionSpec, grid: Grid, radius: float,
                      center=None) -> OperatorHandle:
    """Nystrom discretization of the outer/inner split in the sup norm.

    The combined modulus k(r) = max_t [ l(t, r, rho(t,r)) +
    m(t, r, rho(t,r)) * int n(t,s,r) ds ] with rho(t,r) = int n0(t,s,r) ds
    is sampled over a radius grid, a chunk of radii over a block of rows
    per call of the pointwise moduli (see CompositionSpec), and wrapped in
    the upper envelope of the spec's shape.
    """
    t, s, weights = grid.nodes[:, None], grid.nodes[None, :], grid.weights
    inner_kernel, outer = _mesh_callback(spec.inner_kernel), _mesh_callback(spec.outer)
    bound, n_mod = _mesh_callback(spec.inner_bound), _mesh_callback(spec.inner_modulus)
    l_mod, m_mod = map(_mesh_callback, (spec.outer_u_modulus, spec.outer_v_modulus))

    def apply(x: np.ndarray) -> np.ndarray:
        inner = np.ascontiguousarray(inner_kernel(t, s, x[None, :])) @ weights
        return np.array(outer(grid.nodes, x, inner))

    def chunk_modulus(r: np.ndarray, rows: slice) -> np.ndarray:
        rho = np.ascontiguousarray(bound(t[None, rows], s[None], r)) @ weights
        n_int = np.ascontiguousarray(n_mod(t[None, rows], s[None], r)) @ weights
        tr = (grid.nodes[None, rows], r[:, :, 0])
        return np.max(l_mod(*tr, rho) + m_mod(*tr, rho) * n_int, axis=1)

    return _tabulated_sup_handle(apply, chunk_modulus, grid, radius, center,
                                 spec.shape)


# ---------------------------------------------------------------------------
# the canonical scalar test operator
# ---------------------------------------------------------------------------

def build_self_majorizing(profile: MajorantProfile) -> OperatorHandle:
    """Scalar map x -> a + K(|x|): it coincides with its own upper majorant
    on the nonnegative axis, so every certified bound is an equality and the
    handle serves as the exact test oracle.  The handle carries profile
    itself: A(0) = a + K(0) = a, so there is no shift to measure."""
    R = profile.radius

    def apply(x: np.ndarray) -> np.ndarray:
        r = min(abs(float(x[0])), R)
        return np.array([profile.center_shift + profile.modulus_integral(r)])

    return OperatorHandle(apply, np.zeros(1), _sup_norm, profile)
