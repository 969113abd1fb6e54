"""Builders for the concrete operator families.

Each builder returns an OperatorHandle: grid-discretized apply, the ambient
norm, a center, and the majorant profile assembled from the family's
Lipschitz modulus.  The multilinear norm is the smallest mode-unfolding
spectral norm, a certified upper bound; superposition envelopes carry their
exact piecewise primitive.  Urysohn and composition moduli need
quadrature.  Declared as power sums in r with coefficient functions of
(t, s), the registry's form, they cost one weighted row sum per power,
bounded from above within a few ulps (_row_sum_bounds), and the modulus is
that power sum.  Callable moduli are sampled on a radius grid, 1 MiB of
mesh at a time (see _tabulated_sup_handle), under the sound upper envelope
of their declared shape (see modulus_from_samples), so the scalar core
keeps its exact-primitive contract: a monotone modulus, the default, is
sampled at 257 radii under its first-order step envelope, and a convex one
at 33 under its second-order chord.  Both families apply their kernels a
block of rows at a time (_row_blocks).  Kernel tables read themselves (see
discretize).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._enclose import TINY, U, add_up, mul_up, row_sums, two_sum
from .discretize import _BLOCK_ELEMENTS, Grid, KernelTable, _FactoredTable, _mesh_callback, lp_norm
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
    """One summand: kernel k_j (a callable, an (n, n) sample array or a table
    of samples or factors), nonlinearity h_j, and the modulus of u -> h_j(u)
    in the build's norms: the scalar modulus for the sup build, the
    superposition modulus (see build_superposition_modulus) for the L_p build."""

    kernel: Callable[[float, float], float] | np.ndarray | KernelTable | _FactoredTable
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


def _sample_kernel(kernel, grid: Grid) -> KernelTable | _FactoredTable:
    """The kernel as a read-only table on the build grid: a callable is
    sampled and an array copied, so the caller cannot change the operator
    after its modulus was built."""
    if callable(kernel):
        return KernelTable.from_function(grid, kernel)
    if not hasattr(kernel, "grid"):
        return KernelTable(grid, kernel)
    # a table must lie on the build grid (or an equal one)
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
    x0; the apply reads each K_j as its table does (_product).  Without
    knorms, each table's bounded image (_image) encloses two images:
    |K_j| |w|, whose largest upper end bounds the row sums
    max_i sum_l |w_l k_j(t_i, s_l)|, and K_j (w h_j(x0)), from which a is
    bounded on both sides (_center_shift_bounds); with knorms, a is one
    apply's displacement (make_operator)."""
    x0 = _resolve_center(center, grid)
    if callable(spec.forcing):
        fvec = _mesh_callback(spec.forcing)(grid.nodes)
    elif np.shape(spec.forcing) == (grid.n,):
        fvec = np.asarray(spec.forcing, dtype=float)
    else:
        raise ValueError("forcing array length does not match the grid")
    hs = [_mesh_callback(term.nonlinearity) for term in spec.terms]
    weights, lam = grid.weights, spec.lam
    products = [table._product() for table in tables]

    passes = []
    if knorms is None:
        knorms = []
        for table, h in zip(tables, hs):
            knorms.append(float(np.max(add_up(*table._image(weights, None, 0.0, 1.0)))))
            passes.append(table._image(weights, h(x0), fvec - x0, lam))
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

def _row_blocks(n: int) -> tuple[int, list[int]]:
    """(rows, edges) of the blocks of rows an (n, n) mesh is read in: the
    fewest within _BLOCK_ELEMENTS values, as even as steps of 16 rows
    allow, with room for a lone last row to join the block before.  On a
    C-contiguous block, @ then gives each row the bits of one gemv over all
    rows, which numpy would not give a single row (it sums one by a dot)."""
    count = -(-n // max(16, (_BLOCK_ELEMENTS // n - 1) // 16 * 16))
    rows = min(n, -(-n // (16 * count)) * 16)
    return rows, [*range(0, n - 1, rows), n]


def _row_integrals(block, grid: Grid) -> np.ndarray:
    """block(rows) @ w over the row blocks (_row_blocks) of the mesh, each
    block of rows made C-contiguous: the bits of one gemv over all rows."""
    _, edges = _row_blocks(grid.n)
    return np.concatenate([np.ascontiguousarray(block(slice(i, j))) @ grid.weights
                           for i, j in zip(edges, edges[1:])])


def _row_sum_bounds(coefficients, grid: Grid) -> np.ndarray:
    """Upper bounds on the exact row sums sum_l |w_l| sum_j |a_j(t_i, s_l)|
    of the coefficient callbacks a_j, whose values are taken as given.
    Each a_j gets a block of rows per call, t = nodes[i:j, None] and
    s = nodes[None, :], within _BLOCK_ELEMENTS values in all; a block
    whose values are one row broadcast along t has one row sum, taken once.
    The float terms fl(|w_l| |a_j|) are summed by _enclose.row_sums with
    about an ulp of the block's largest sum as its budget, so each bound
    lies within a few ulps of its exact sum.  Each exact product lies
    within u |term| of its term, or within TINY where it underflows: u
    times the row's magnitude and TINY per nonzero value cover both."""
    t, s = grid.nodes[:, None], grid.nodes[None, :]
    weights = np.tile(np.abs(grid.weights), len(coefficients))
    rows = max(1, _BLOCK_ELEMENTS // weights.size)
    bounds = np.empty(grid.n)
    for i in range(0, grid.n, rows):
        parts = [a(t[i:i + rows], s) for a in coefficients]
        if all(part.strides[0] == 0 for part in parts):
            parts = [part[:1] for part in parts]
        values = np.abs(np.concatenate(parts, axis=1))
        terms = values * weights
        top = float(np.max(terms.sum(axis=1)))
        if not np.isfinite(top):
            raise ValueError("declared coefficient row sums must be finite")
        sums, errors, magnitudes = row_sums(terms, np.ones(len(terms)), U * top)
        lost = np.count_nonzero(values, axis=1) * TINY
        bounds[i:i + rows] = add_up(sums, add_up(add_up(errors, mul_up(magnitudes, U)), lost))
    return bounds


def _declared(*moduli) -> bool:
    """Whether the moduli are declared as power sums {e: coefficient}: all
    of them (True) or none, each a callable (False); a mix is rejected."""
    declared = [isinstance(m, dict) for m in moduli]
    if any(declared) and not all(declared):
        raise ValueError("declare every modulus as a power sum {exponent: "
                         "coefficient function}, or none")
    return all(declared)


def _declared_sup_handle(apply, coefficients: dict, grid: Grid, radius: float,
                         center) -> OperatorHandle:
    """Sup-norm handle whose modulus is the power sum
    sum_e coefficients[e] r**e recentered on x0 (recenter_modulus)."""
    x0 = _resolve_center(center, grid)
    modulus = PowerSumModulus(tuple((c, e) for e, c in sorted(coefficients.items())))
    shift = _sup_norm(x0)
    if shift > 0.0:
        modulus = recenter_modulus(modulus, shift)
    return make_operator(apply, x0, _sup_norm, modulus, radius)


def _tabulated_sup_handle(apply, chunk_modulus, grid: Grid, radius: float,
                          center, shape: str) -> OperatorHandle:
    """Sup-norm handle whose modulus k(r + |x0|) is sampled at the shape's
    radii r in [0, radius] (_SHAPE_RADII) under its envelope: k is the
    largest chunk_modulus(r, rows) of (c, 1, 1) chunks of radii over the row
    blocks of t (_row_blocks), within _BLOCK_ELEMENTS (r, t, s) points."""
    x0 = _resolve_center(center, grid)
    rs = np.linspace(0.0, radius, _SHAPE_RADII[shape])
    r = (rs + _sup_norm(x0))[:, None, None]
    rows, edges = _row_blocks(grid.n)
    chunk = max(1, _BLOCK_ELEMENTS // (rows * grid.n))
    ks = np.concatenate([np.max([chunk_modulus(r[i:i + chunk], slice(*edge))
                                 for edge in zip(edges, edges[1:])], axis=0)
                         for i in range(0, rs.size, chunk)])
    return make_operator(apply, x0, _sup_norm, modulus_from_samples(rs, ks, shape),
                         radius)


@dataclass(frozen=True, eq=False)
class UrysohnSpec:
    """Kernel K(t,s,u,v) with its partial moduli l(t,s,r) (in u) and
    m(t,s,r) (in v), both nonnegative and nondecreasing in r; the interval
    is the build grid's.

    The moduli are both declared or both callables.  A declared modulus is
    a power sum in r, {e: a_e} for l(t,s,r) = sum_e a_e(t,s) r**e with
    nonnegative coefficient functions a_e(t, s) (the registry's form): the
    build reads |a_e| at the nodes, its float values taken as given, and
    shape is unused.  Callables are sampled in r, and shape declares what
    more l and m are in r: "monotone" claims nothing more, "convex" that
    both are convex in r, so the build samples the combined modulus at 33
    radii instead of 257.

    Callbacks are pointwise on broadcastable open-mesh numpy arrays, as in
    HammersteinSpec: K(t, s, u, v) and each a_e get a block of rows
    t = nodes[i:j, None] with s = nodes[None, :] (and u = x[None, :],
    v = x[i:j, None]); callable l and m get a block of rows t[None, i:j],
    s[None] and a leading radius axis r[:, None, None].
    """

    kernel: Callable
    u_modulus: Callable | dict
    v_modulus: Callable | dict
    shape: str = "monotone"

    def __post_init__(self):
        _check_shape(self.shape)
        _declared(self.u_modulus, self.v_modulus)


def build_urysohn(spec: UrysohnSpec, grid: Grid, radius: float,
                  center=None) -> OperatorHandle:
    """Nystrom discretization in the sup norm, applied a block of rows at a
    time (_row_integrals).

    The modulus is k(r) = max_t sum_l w_l (l(t, s_l, r) + m(t, s_l, r)),
    recentered on x0.  Declared moduli give the power sum
    sum_e max_t A_e(t) r**e, with A_e(t) the weighted row sum of l's and
    m's coefficients of r**e, each bounded from above (_row_sum_bounds).
    Callables are sampled on a radius grid, a chunk of radii over a block
    of rows per call, and wrapped in the upper envelope of the spec's
    shape; a sample set that breaks the shape is a construction error.
    """
    t, s, weights = grid.nodes[:, None], grid.nodes[None, :], grid.weights
    kernel = _mesh_callback(spec.kernel)

    def apply(x: np.ndarray) -> np.ndarray:
        return _row_integrals(lambda rows: kernel(t[rows], s, x[None, :], x[rows, None]),
                              grid)

    if _declared(spec.u_modulus, spec.v_modulus):
        coefficients = {}
        for e in sorted({*spec.u_modulus, *spec.v_modulus}):
            parts = [_mesh_callback(d[e]) for d in (spec.u_modulus, spec.v_modulus) if e in d]
            coefficients[e] = float(np.max(_row_sum_bounds(parts, grid)))
        return _declared_sup_handle(apply, coefficients, grid, radius, center)

    l_mod, m_mod = _mesh_callback(spec.u_modulus), _mesh_callback(spec.v_modulus)

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
    the build grid's.

    The moduli l, m and n are all declared or all callables.  Declared,
    each is a power sum in r with nonnegative coefficient functions:
    {e: c_e} for l(t,r) = sum_e c_e(t) r**e, which must hold for every rho
    (and likewise m), and {f: n_f} for n(t,s,r) = sum_f n_f(t,s) r**f (the
    registry's form); the build reads their magnitudes at the nodes, the
    float values taken as given, and inner_bound (None) and shape are
    unused.  Callables are sampled, and shape declares what
    the moduli are in their radius arguments: "monotone" that all are
    nondecreasing, "convex" that all are convex and nondecreasing (l and m
    in r and rho jointly), which makes the combined modulus convex, so the
    build samples it at 33 radii instead of 257.

    Callbacks are pointwise on broadcastable open-mesh numpy arrays, as in
    HammersteinSpec: K and each n_f get a block of rows t = nodes[i:j, None]
    with s = nodes[None, :] (and u = x[None, :]); F gets nodes, x and the
    inner integrals, and each c_e the nodes; callable n0 and n get a block
    of rows t[None, i:j], s[None] and a leading radius axis r[:, None, None],
    and callable l and m get nodes[None, i:j], r[:, None] and rho[r, t].
    """

    outer: Callable
    outer_u_modulus: Callable | dict
    outer_v_modulus: Callable | dict
    inner_kernel: Callable
    inner_bound: Callable | None
    inner_modulus: Callable | dict
    shape: str = "monotone"

    def __post_init__(self):
        _check_shape(self.shape)
        _declared(self.outer_u_modulus, self.outer_v_modulus, self.inner_modulus)


def build_composition(spec: CompositionSpec, grid: Grid, radius: float,
                      center=None) -> OperatorHandle:
    """Nystrom discretization of the outer/inner split in the sup norm, its
    inner integrals taken a block of rows at a time (_row_integrals).

    The combined modulus is k(r) = max_t [ l(t, r, rho(t,r)) +
    m(t, r, rho(t,r)) * int n(t,s,r) ds ] with rho(t,r) = int n0(t,s,r) ds,
    recentered on x0.  Declared moduli give the power sum
    sum_e max_t |c_e| r**e + sum_{e,f} max_t |m_e| N_f r**(e+f), with N_f(t)
    the weighted row sum of n_f, bounded from above (_row_sum_bounds), and
    each product rounded up.  Callables are sampled over a radius grid, a
    chunk of radii over a block of rows per call, and wrapped in the upper
    envelope of the spec's shape.
    """
    t, s, weights = grid.nodes[:, None], grid.nodes[None, :], grid.weights
    inner_kernel, outer = _mesh_callback(spec.inner_kernel), _mesh_callback(spec.outer)

    def apply(x: np.ndarray) -> np.ndarray:
        inner = _row_integrals(lambda rows: inner_kernel(t[rows], s, x[None, :]), grid)
        return np.array(outer(grid.nodes, x, inner))

    if _declared(spec.outer_u_modulus, spec.outer_v_modulus, spec.inner_modulus):
        sums = {f: _row_sum_bounds([_mesh_callback(n)], grid)
                for f, n in spec.inner_modulus.items()}
        coefficients: dict = {}

        def add(e, bounds: np.ndarray) -> None:
            coefficients[e] = float(add_up(coefficients.get(e, 0.0), np.max(bounds)))

        for e, c in spec.outer_u_modulus.items():
            add(e, np.abs(_mesh_callback(c)(grid.nodes)))
        for e, c in spec.outer_v_modulus.items():
            m = np.abs(_mesh_callback(c)(grid.nodes))
            for f, n_sum in sums.items():
                add(e + f, mul_up(m, n_sum))
        return _declared_sup_handle(apply, coefficients, grid, radius, center)

    bound, n_mod = _mesh_callback(spec.inner_bound), _mesh_callback(spec.inner_modulus)
    l_mod, m_mod = map(_mesh_callback, (spec.outer_u_modulus, spec.outer_v_modulus))

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
