"""Grids, quadrature, discrete norms, and kernel-norm estimation.

Everything here realizes integrals over [a, b] as weighted sums on a fixed
node set; the operator builders consume these pieces.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Grid",
    "KernelTable",
    "lp_norm",
    "zaanen_norm_estimate",
    "zaanen_sweep_objectives",
]

_ZAANEN_SWEEPS = 50


def _uniform_nodes(lower: float, upper: float, n: int) -> tuple[np.ndarray, float]:
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError("grid bounds, nodes and weights must be finite")
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

    @classmethod
    def from_nodes(cls, nodes) -> "Grid":
        """Trapezoid weights on arbitrary strictly increasing nodes."""
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least 2 nodes")
        gaps = np.diff(nodes)
        weights = np.zeros_like(nodes)
        weights[:-1] += 0.5 * gaps
        weights[1:] += 0.5 * gaps
        return cls(float(nodes[0]), float(nodes[-1]), nodes, weights, "trapezoid")


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


def _shaped(values, shape) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return values if values.shape == shape else np.broadcast_to(values, shape)


def _mesh_callback(fn):
    """Evaluate fn on broadcastable arrays as a float array of their shape
    (fn's own result, or a read-only broadcast view of it).  If fn rejects
    arrays on its first call (TypeError or ValueError), it is called per
    element with scalars from then on.  Once that is settled, a TypeError or
    ValueError from fn is a fault of the callback, not of its arguments: it
    is raised as a RuntimeError naming fn, chained from the original.  Other
    exceptions propagate."""
    vectorised = None

    def evaluate(*args):
        nonlocal vectorised
        shape = np.broadcast_shapes(*(np.shape(a) for a in args))
        if vectorised is None:
            try:
                values = _shaped(fn(*args), shape)
            except (TypeError, ValueError):
                vectorised = False
            else:
                vectorised = True
                return values
        try:
            if vectorised:
                return _shaped(fn(*args), shape)
            points = zip(*(np.broadcast_to(a, shape).flat for a in args))
            return np.array([float(fn(*p)) for p in points]).reshape(shape)
        except (TypeError, ValueError) as exc:
            name = getattr(fn, "__qualname__", repr(fn))
            raise RuntimeError(f"callback {name} raised {type(exc).__name__}: "
                               f"{exc}") from exc

    return evaluate


def _absolute(values: np.ndarray) -> np.ndarray:
    """|values|: values itself when no sign bit is set (|v| = v, bit for bit)."""
    return np.abs(values) if np.any(np.signbit(values)) else values


def _fresh_refcount():
    values = np.empty(0)
    return sys.getrefcount(values)


# what sys.getrefcount reads for a local array nothing else holds, in the
# code shape of KernelTable.from_function; None off CPython (no such count)
_FRESH_REFS = (_fresh_refcount() if sys.implementation.name == "cpython"
               and hasattr(sys, "getrefcount") else None)


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Kernel samples z(t_i, s_l) on a product of two grids, held as a
    read-only C-contiguous copy of the values given."""

    grid_t: Grid
    grid_s: Grid
    values: np.ndarray

    def __post_init__(self, copy: bool = True):
        values = (np.array if copy else np.asarray)(self.values, dtype=float, order="C")
        if values.shape != (self.grid_t.n, self.grid_s.n):
            raise ValueError(
                f"kernel values shape {values.shape} does not match grids "
                f"({self.grid_t.n}, {self.grid_s.n})"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("kernel values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def _adopt(cls, grid_t: Grid, grid_s: Grid, values) -> "KernelTable":
        """A table around values, uncopied if C-contiguous float: only for
        arrays that this module made and nothing else holds."""
        table = object.__new__(cls)
        table.__dict__.update(grid_t=grid_t, grid_s=grid_s, values=values)
        table.__post_init__(copy=False)
        return table

    def regrid(self, grid_t: Grid, grid_s: Grid) -> "KernelTable":
        """The same samples, shared read-only, on other grids of their sizes."""
        return self._adopt(grid_t, grid_s, self.values)

    @classmethod
    def from_function(cls, grid_t: Grid, grid_s: Grid, fn) -> "KernelTable":
        """Sample fn once, on the open mesh t = grid_t.nodes[:, None],
        s = grid_s.nodes[None, :]; its result must broadcast to (n_t, n_s).
        A scalar-only fn (TypeError or ValueError on arrays) is called per
        node pair, slowly; its later errors propagate (see _mesh_callback).
        On CPython a fresh result that nothing else references becomes the
        table's array, uncopied; anything else (and every result on other
        interpreters) is copied."""
        values = _mesh_callback(fn)(grid_t.nodes[:, None], grid_s.nodes[None, :])
        if (values.base is None and _FRESH_REFS is not None
                and sys.getrefcount(values) == _FRESH_REFS):
            return cls._adopt(grid_t, grid_s, values)
        return cls(grid_t, grid_s, values)

    @classmethod
    def from_csv(cls, path) -> "KernelTable":
        """Load a kernel from CSV.

        Two layouts are accepted: a header row "t,s,value" followed by
        triples (grids are rebuilt from the unique sorted coordinates with
        trapezoid weights), or a headerless dense matrix whose rows span t
        and columns span s on uniform [0, 1] grids.
        """
        path = Path(path)
        with path.open(newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
        if not rows:
            raise ValueError(f"{path}: empty kernel CSV")
        header = [cell.strip().lower() for cell in rows[0]]
        if header == ["t", "s", "value"]:
            triples = [
                (float(r[0]), float(r[1]), float(r[2])) for r in rows[1:]
            ]
            ts = sorted({t for t, _, _ in triples})
            ss = sorted({s for _, s, _ in triples})
            index_t = {t: i for i, t in enumerate(ts)}
            index_s = {s: i for i, s in enumerate(ss)}
            values = np.full((len(ts), len(ss)), np.nan)
            for t, s, v in triples:
                values[index_t[t], index_s[s]] = v
            if np.any(np.isnan(values)):
                raise ValueError(f"{path}: triples do not fill the (t, s) product")
            return cls._adopt(Grid.from_nodes(ts), Grid.from_nodes(ss), values)
        values = np.array([[float(cell) for cell in row] for row in rows])
        grid_t = Grid.trapezoid(0.0, 1.0, values.shape[0])
        grid_s = Grid.trapezoid(0.0, 1.0, values.shape[1])
        return cls._adopt(grid_t, grid_s, values)


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

    Maximizes the bilinear form of |z| over the product of weighted L_alpha
    and L_beta unit balls; each half-step is an exact block maximization via
    the closed-form Hoelder-extremal vector, so the trail is nondecreasing.
    """
    alpha, beta = float(alpha), float(beta)
    if alpha <= 1.0 or beta <= 1.0:
        raise ValueError("alpha and beta must both be > 1")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    Z = _absolute(kernel.values)
    wt, ws = kernel.grid_t.weights, kernel.grid_s.weights
    # constant start keeps the iteration inside the nonnegative cone
    y = np.ones(kernel.grid_t.n)
    y /= float((wt @ y**beta) ** (1.0 / beta))
    objectives = []
    for _ in range(iters):
        phi = Z.T @ (wt * y)
        x, _ = _holder_extremal(phi, alpha, ws)
        psi = Z @ (ws * x)
        y, value = _holder_extremal(psi, beta, wt)
        objectives.append(value)
    return objectives


def zaanen_norm_estimate(kernel: KernelTable, alpha: float, beta: float) -> float:
    """Estimate the bilinear sup-norm of |z| over the two unit balls.

    _ZAANEN_SWEEPS sweeps of alternating maximization yield a certified lower
    bound of the discrete norm; it is reported as an estimate.  Consumers
    needing a safe bound may inflate it (over-estimating a modulus only
    shrinks certified zones).
    """
    return zaanen_sweep_objectives(kernel, alpha, beta, _ZAANEN_SWEEPS)[-1]
