"""Shared oracles and generators, independent of the code paths they check."""

from __future__ import annotations

import math

import numpy as np

from majorfix import MajorantProfile, PowerSumModulus, UrysohnSpec, combine_moduli
from majorfix.iteration import BOUND_SLACK_ABS, BOUND_SLACK_REL


def quadratic_radii(a: float, c: float, radius: float) -> dict:
    """Closed forms for the quadratic family upper(r) = a + c r^2
    (modulus k(r) = 2 c r), straight from the quadratic formula."""
    out: dict = {}
    out["inner"] = (math.sqrt(1.0 + 4.0 * a * c) - 1.0) / (2.0 * c)
    r_cr = 1.0 / (2.0 * c)
    out["contraction"] = r_cr if r_cr <= radius else None
    disc = 1.0 - 4.0 * a * c
    if disc < 0.0:
        out["convergence"] = None
        out["gap"] = a - 1.0 / (4.0 * c)      # a - max_r (r - c r^2)
        out["gap_argmin"] = r_cr
        return out
    r1 = (1.0 - math.sqrt(disc)) / (2.0 * c)
    r2 = (1.0 + math.sqrt(disc)) / (2.0 * c)
    out["convergence"] = r1
    end_gap = a + c * radius**2 - radius
    if end_gap < 0.0:
        out["uniqueness"] = (radius, True, False)
    elif disc == 0.0:
        out["uniqueness"] = (r1, False, True)
    else:
        out["uniqueness"] = (r2, False, False)
    return out


def random_existence_profile(rng) -> tuple[MajorantProfile, float]:
    """Random power-sum profile built around a known smallest root.

    Pick the root rho and the slope k(rho) < 1 first, then set the
    displacement a = rho - K(rho); since k is nondecreasing and stays below
    1 up to rho, the gap a + K(r) - r is strictly decreasing there and rho
    is exactly the smallest fixed point of the upper majorant.
    """
    nterms = int(rng.integers(1, 4))
    exponents = np.sort(rng.uniform(0.0, 3.0, nterms))
    coefficients = rng.uniform(0.1, 2.0, nterms)
    rho = float(rng.uniform(0.1, 2.0))
    rate = float(rng.uniform(0.05, 0.95))
    raw = PowerSumModulus(tuple(zip(coefficients.tolist(), exponents.tolist())))
    modulus = combine_moduli([raw], [rate / raw(rho)])
    a = rho - modulus.primitive(rho)
    radius = rho * float(rng.uniform(1.3, 3.0))
    return MajorantProfile(a, modulus, radius), rho


def sample_with_norm(rng, op, bound: float) -> np.ndarray:
    """Random vector with op.norm at most bound."""
    direction = rng.normal(size=op.center.shape)
    nrm = float(op.norm(direction))
    if nrm == 0.0:
        return np.zeros_like(op.center)
    return direction * (bound * float(rng.uniform(0.0, 1.0)) / nrm)


def lipschitz_increment_holds(op, rng, count: int = 200,
                              slack: float = 1e-9) -> float:
    """Check ||A(x+h) - A(x)|| <= K(r+delta) - K(r) on random samples.

    Returns the worst observed excess (negative when everything holds);
    asserts inside so a failure points at the offending sample.
    """
    profile = op.profile
    R = profile.radius
    worst = -math.inf
    for i in range(count):
        r = float(rng.uniform(0.0, 0.98 * R))
        delta = float(rng.uniform(0.0, R - r))
        x = op.center + sample_with_norm(rng, op, r)
        h = sample_with_norm(rng, op, delta)
        lhs = float(op.norm(np.asarray(op.apply(x + h), dtype=float)
                            - np.asarray(op.apply(x), dtype=float)))
        rhs = profile.modulus_integral(min(r + delta, R)) - profile.modulus_integral(r)
        excess = lhs - rhs
        worst = max(worst, excess)
        assert excess <= slack, (
            f"sample {i}: increment {lhs} exceeds K({r + delta}) - K({r}) = {rhs}"
        )
    return worst


def picard_reference(op, steps: int = 3000) -> np.ndarray:
    """Plain Picard iteration from the center, independent of the engine."""
    x = op.center.copy()
    for _ in range(steps):
        x = np.asarray(op.apply(x), dtype=float)
    return x


def reference_check(trace, x_ref, norm) -> tuple[float, list]:
    """Check ||x_ref - xi_n|| <= apriori_bound at every recorded step, with
    the slack the iteration allows its own step check.

    Returns the worst excess (observed minus bound) and the failing steps
    as (n, observed, bound).
    """
    x_ref = np.asarray(x_ref, dtype=float)
    worst, failures = -math.inf, []
    for rec in trace.steps:
        observed = float(norm(x_ref - rec.state))
        excess = observed - rec.apriori_bound
        worst = max(worst, excess)
        if excess > BOUND_SLACK_ABS + BOUND_SLACK_REL * abs(rec.apriori_bound):
            failures.append((rec.index, observed, rec.apriori_bound))
    return worst, failures


def per_radius_modulus(spec, grid, radius: float, shift: float = 0.0,
                       samples: int = 257) -> tuple[np.ndarray, np.ndarray]:
    """Tabulated Urysohn or composition modulus, one radius at a time.

    Every (t, s, r) callback is called once per radius on the full (t, s)
    meshgrid with a scalar r, its result broadcast and copied, and each
    row reduced by a 2-d matrix-vector product; the outer composition
    moduli get the node vector, the scalar r and rho.  Returns the sample
    radii and the running maximum of the samples, as the builders wrap them.
    """
    tt, ss = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    t, w = grid.nodes, grid.weights

    def on_mesh(fn, r):
        return np.broadcast_to(np.asarray(fn(tt, ss, r), dtype=float), tt.shape).copy()

    def on_nodes(fn, r, rho):
        return np.broadcast_to(np.asarray(fn(t, r, rho), dtype=float), t.shape)

    rs = np.linspace(0.0, radius, samples)
    ks = []
    for r in rs:
        r = r + shift
        if isinstance(spec, UrysohnSpec):
            total = on_mesh(spec.u_modulus, r) + on_mesh(spec.v_modulus, r)
            ks.append(float(np.max(total @ w)))
        else:
            rho = on_mesh(spec.inner_bound, r) @ w
            n_int = on_mesh(spec.inner_modulus, r) @ w
            ks.append(float(np.max(on_nodes(spec.outer_u_modulus, r, rho)
                                   + on_nodes(spec.outer_v_modulus, r, rho) * n_int)))
    return rs, np.maximum.accumulate(ks)


def meshgrid_kernel(fn, grid) -> np.ndarray:
    """Kernel samples, the way a full-meshgrid sampler takes them.

    fn is called once on the whole (t, s) meshgrid and its result broadcast
    to the meshgrid's shape.  Returns a fresh (n, n) array.
    """
    tt, ss = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    return np.broadcast_to(np.asarray(fn(tt, ss), dtype=float), tt.shape).copy()


def plain_zaanen_sweeps(kernel, alpha: float, beta: float,
                        iters: int) -> list[float]:
    """The alternating-maximization trail, every one of its iters sweeps
    computed: the same float operations, in the same order, as the
    estimator, with no early stop."""
    Z = np.abs(kernel.values)
    w = kernel.grid.weights

    def extremal(v, p, w):
        q = p / (p - 1.0)
        dual = float((w @ v**q) ** (1.0 / q))
        if dual == 0.0:
            return np.zeros_like(v), 0.0
        return (v / dual) ** (q - 1.0), dual

    y = np.ones(kernel.grid.n)
    y /= float((w @ y**beta) ** (1.0 / beta))
    objectives = []
    for _ in range(iters):
        x, _ = extremal(Z.T @ (w * y), alpha, w)
        y, value = extremal(Z @ (w * x), beta, w)
        objectives.append(value)
    return objectives
