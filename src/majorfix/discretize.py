"""Grids, quadrature, discrete norms, and kernel-norm estimation.

Everything here realizes integrals over [a, b] as weighted sums on a fixed
node set; the operator builders consume these pieces.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._enclose import _absolute

__all__ = [
    "Grid",
    "KernelTable",
    "lp_norm",
    "zaanen_norm_estimate",
    "zaanen_sweep_objectives",
]

_ZAANEN_SWEEPS = 50
_BLOCK_ELEMENTS = 2**17  # a block of float64 values read or sampled at once: 1 MiB


def _uniform_nodes(lower: float, upper: float, n: int) -> tuple[np.ndarray, float]:
    # both checked before np.linspace, which warns on a non-finite length
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError("grid bounds, nodes and weights must be finite")
    if not math.isfinite(upper - lower):
        raise ValueError(f"grid interval [{lower!r}, {upper!r}] has no finite length")
    return np.linspace(lower, upper, n), (upper - lower) / (n - 1)


@dataclass(frozen=True, eq=False)
class Grid:
    """Quadrature rule on [lower, upper]: nodes, weights, and a rule tag."""

    lower: float
    upper: float
    nodes: np.ndarray
    weights: np.ndarray
    rule: str

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).copy()
        weights = np.asarray(self.weights, dtype=float).copy()
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size < 2:
            raise ValueError("grid needs matching 1-d node/weight arrays, length >= 2")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)
                and np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise ValueError("grid bounds, nodes and weights must be finite")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        length = self.upper - self.lower
        if length <= 0.0:
            raise ValueError("grid interval must have positive length")
        total = math.fsum(weights.tolist())
        if abs(total - length) > 4.0 * math.ulp(max(abs(length), 1.0)):
            raise ValueError(
                f"quadrature weights sum to {total!r}, expected {length!r}"
            )
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return int(self.nodes.size)

    @classmethod
    def trapezoid(cls, lower: float, upper: float, n: int) -> "Grid":
        if n < 2:
            raise ValueError("trapezoid rule needs n >= 2")
        nodes, h = _uniform_nodes(lower, upper, n)
        weights = np.full(n, h)
        weights[0] = weights[-1] = 0.5 * h
        return cls(lower, upper, nodes, weights, "trapezoid")

    @classmethod
    def simpson(cls, lower: float, upper: float, n: int) -> "Grid":
        if n < 3 or n % 2 == 0:
            raise ValueError("simpson rule needs odd n >= 3")
        nodes, h = _uniform_nodes(lower, upper, n)
        weights = np.full(n, 2.0 * h / 3.0)
        weights[1::2] = 4.0 * h / 3.0
        weights[0] = weights[-1] = h / 3.0
        return cls(lower, upper, nodes, weights, "simpson")


def lp_norm(grid: Grid, samples, p: float) -> float:
    """Discrete L_p norm with the grid's quadrature weights."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != grid.nodes.shape:
        raise ValueError(
            f"samples length {samples.size} does not match grid size {grid.n}"
        )
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p!r}")
    return float((grid.weights @ np.abs(samples) ** p) ** (1.0 / p))


def _mesh_callback(fn):
    """Evaluate fn on broadcastable arrays as a float array of their shape
    (fn's own result, or a read-only broadcast view of it).  A TypeError or
    ValueError from fn is a fault of the callback, not of its arguments: it
    is raised as a RuntimeError naming fn, chained from the original.  Other
    exceptions propagate."""
    def evaluate(*args):
        shape = np.broadcast_shapes(*(np.shape(a) for a in args))
        try:
            values = np.asarray(fn(*args), dtype=float)
            return values if values.shape == shape else np.broadcast_to(values, shape)
        except (TypeError, ValueError) as exc:
            name = getattr(fn, "__qualname__", repr(fn))
            raise RuntimeError(f"callback {name} raised {type(exc).__name__}: "
                               f"{exc}") from exc

    return evaluate


def _node_indices(coords: np.ndarray, grid: Grid, path: Path) -> np.ndarray:
    """The index of the grid node each coordinate names: the sorted unique
    coordinates must be the nodes, to within 1e-9 of the grid's length."""
    unique, index = np.unique(coords, return_inverse=True)
    if (unique.shape != grid.nodes.shape or np.any(
            np.abs(unique - grid.nodes) > 1e-9 * (grid.upper - grid.lower))):
        raise ValueError(f"{path}: kernel coordinates are not the {grid.n} "
                         f"nodes of the {grid.rule} grid on "
                         f"[{grid.lower!r}, {grid.upper!r}]")
    return index


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Kernel samples z(t_i, s_l) on the square of one grid, held in a
    read-only C-contiguous array that the table alone owns: the values given
    are copied, and the sampling constructors fill an array of their own.
    A table made by _from_factors holds no samples (values is None): it
    carries the exact factors of its kernel, which the builds and the
    iterates read instead."""

    grid: Grid
    values: np.ndarray | None

    def __post_init__(self, copy: bool = True):
        values = (np.array if copy else np.asarray)(self.values, dtype=float, order="C")
        if values.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"kernel values shape {values.shape} does not match "
                             f"grid ({self.grid.n}, {self.grid.n})")
        if not np.all(np.isfinite(values)):
            raise ValueError("kernel values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def _adopt(cls, grid: Grid, values: np.ndarray) -> "KernelTable":
        """A table around values, uncopied: only for arrays that this module
        made and nothing else holds."""
        table = object.__new__(cls)
        table.__dict__.update(grid=grid, values=values)
        table.__post_init__(copy=False)
        return table

    # (phi, psi) of a kernel with exact factors, their declared error
    # (rounding, remainder) and whether k >= 0, see _from_factors
    _factors = None
    _factor_error = (0.0, 0.0)
    _nonnegative = False

    @classmethod
    def _from_factors(cls, grid: Grid, phi, psi, rounding: float = 0.0,
                      remainder: float = 0.0, nonnegative: bool = False) -> "KernelTable":
        """A table of factors alone, with no samples, that carries read-only
        copies of phi and psi, each (n, r): only for factors of the kernel k
        as the registry derives them (presets._KERNEL_FACTORS), for which
        |k(t_i, s_l) - sum_j phi_j(t_i) psi_j(s_l)| <= remainder at every
        node pair with the exact factors, each stored factor entry lies
        within rounding times its magnitude of the exact one, and, where
        nonnegative, k >= 0 at every node pair."""
        # one copy where psi is phi (exp_product), which the sup build then
        # transposes once
        factors = tuple(np.array(f, dtype=float) for f in (phi, psi)[:1 + (psi is not phi)])
        for f in factors:
            f.setflags(write=False)
        table = object.__new__(cls)
        table.__dict__.update(grid=grid, values=None, _factors=(factors[0], factors[-1]),
                              _factor_error=(float(rounding), float(remainder)),
                              _nonnegative=bool(nonnegative))
        return table

    def _absolute_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(P, Q) that |k| is read as, P Q^T: (phi, psi) where the table
        declares k >= 0, else (|phi|, |psi|), which bounds it."""
        return self._factors if self._nonnegative else tuple(map(_absolute, self._factors))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "KernelTable":
        """Sample fn into the table's own array, a block of rows per call:
        t = grid.nodes[i:j, None], s = grid.nodes[None, :], with
        _BLOCK_ELEMENTS values per block; each result must broadcast to the
        block's shape.  fn must be pointwise on numpy arrays, so every sample
        is what one call on the whole open mesh would give; a scalar-only fn
        is passed as np.vectorize(fn, otypes=[float]).  A TypeError or
        ValueError from fn is raised as a RuntimeError naming it."""
        t, s = grid.nodes[:, None], grid.nodes[None, :]
        values = np.empty((grid.n, grid.n))
        rows = max(1, _BLOCK_ELEMENTS // grid.n)
        sample = _mesh_callback(fn)
        for i in range(0, grid.n, rows):
            values[i:i + rows] = sample(t[i:i + rows], s)
        return cls._adopt(grid, values)

    @classmethod
    def from_csv(cls, path, grid: Grid) -> "KernelTable":
        """Load a kernel from CSV onto grid x grid.

        Two layouts are accepted: a header row "t,s,value" followed by
        triples, whose unique t and s coordinates must be the grid's nodes
        (to within 1e-9 of the grid's length), one triple per node pair; or
        a headerless dense matrix whose rows are the t nodes and whose
        columns are the s nodes.
        """
        path = Path(path)
        with path.open(newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
        if not rows:
            raise ValueError(f"{path}: empty kernel CSV")
        if [cell.strip().lower() for cell in rows[0]] != ["t", "s", "value"]:
            values = np.array([[float(cell) for cell in row] for row in rows])
            return cls._adopt(grid, values)
        triples = np.array([[float(cell) for cell in row] for row in rows[1:]])
        if triples.ndim != 2 or triples.shape[1] != 3:
            raise ValueError(f"{path}: each row after the header needs t, s and value")
        values = np.full((grid.n, grid.n), np.nan)
        values[_node_indices(triples[:, 0], grid, path),
               _node_indices(triples[:, 1], grid, path)] = triples[:, 2]
        if len(triples) != values.size or np.any(np.isnan(values)):
            raise ValueError(f"{path}: triples do not name each (t, s) node pair once")
        return cls._adopt(grid, values)


def _holder_extremal(v: np.ndarray, p: float, w: np.ndarray
                     ) -> tuple[np.ndarray, float]:
    """Maximize sum(w * v * x) over the weighted-L_p unit ball, v >= 0.

    The maximum equals the weighted conjugate norm of v and is attained in
    closed form; returns (x, max value).
    """
    q = p / (p - 1.0)
    dual = float((w @ v**q) ** (1.0 / q))
    if dual == 0.0:
        return np.zeros_like(v), 0.0
    return (v / dual) ** (q - 1.0), dual


def zaanen_sweep_objectives(kernel: KernelTable, alpha: float, beta: float,
                            iters: int) -> list[float]:
    """Objective value after each alternating-maximization sweep.

    Maximizes the bilinear form of |z| over the product of the L_alpha and
    L_beta unit balls weighted by the grid's weights w; each half-step is an
    exact block maximization via the closed-form Hoelder-extremal vector, so
    in exact arithmetic the trail is nondecreasing.  A table of samples Z is
    read as |Z|, a table of factors as P Q^T (KernelTable._absolute_factors).
    """
    alpha, beta = float(alpha), float(beta)
    if alpha <= 1.0 or beta <= 1.0:
        raise ValueError("alpha and beta must both be > 1")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    w = kernel.grid.weights
    if kernel._factors is None:
        Z = _absolute(kernel.values)
        rows, columns = (lambda u: Z @ u), (lambda u: Z.T @ u)
    else:
        # numpy reductions, never BLAS, so no bit depends on the thread count
        P, Q = (np.ascontiguousarray(f.T) for f in kernel._absolute_factors())
        rows = lambda u: (P * (Q * u).sum(axis=1)[:, None]).sum(axis=0)
        columns = lambda u: (Q * (P * u).sum(axis=1)[:, None]).sum(axis=0)
    # constant start keeps the iteration inside the nonnegative cone
    y = np.ones(kernel.grid.n)
    y /= float((w @ y**beta) ** (1.0 / beta))
    objectives: list[float] = []
    for _ in range(iters):
        x, _ = _holder_extremal(columns(w * y), alpha, w)
        y, value = _holder_extremal(rows(w * x), beta, w)
        objectives.append(value)
    return objectives


def zaanen_norm_estimate(kernel: KernelTable, alpha: float, beta: float) -> float:
    """Estimate the bilinear sup-norm of |z| over the two unit balls: the
    last of _ZAANEN_SWEEPS sweeps (zaanen_sweep_objectives), a float with no
    bound.  Consumers needing a safe bound may inflate it (over-estimating
    a modulus only shrinks certified zones)."""
    return zaanen_sweep_objectives(kernel, alpha, beta, _ZAANEN_SWEEPS)[-1]
