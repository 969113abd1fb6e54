"""Certified successive approximation on concrete operators.

Alongside the operator iterates xi_{n+1} = A(xi_n) this runs two scalar
envelope sequences through the upper majorant: one from 0 (the center
envelope r_n) and one from the initial offset rho_0 = ||xi_0 - x0|| (the
start envelope rho_n).  The computable bounds recorded at every step are

    a-priori:  ||x* - xi_n||      <= r_star + rho_n - 2 r_n
    per step:  ||xi_{n+1} - xi_n|| <= rho_{n+1} + rho_n - 2 r_n
    center:    ||x* - x_n||        <= r_star - r_n

and an observed step norm exceeding its bound beyond a small slack means
the supplied modulus is not a valid Lipschitz bound for the operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BoundViolationError, InadmissibleStartError, NoExistenceError
from .majorant import MajorantProfile, ZoneReport, analyze
from .moduli import LipschitzModulus

__all__ = [
    "OperatorHandle",
    "StoppingRule",
    "StepRecord",
    "IterationTrace",
    "CertificationRecord",
    "make_operator",
    "check_admissible_start",
    "iterate",
    "certify_trace",
]

BOUND_SLACK_ABS = 1e-12
BOUND_SLACK_REL = 1e-9


def _slack(bound: float) -> float:
    return BOUND_SLACK_ABS + BOUND_SLACK_REL * abs(bound)


@dataclass(frozen=True)
class OperatorHandle:
    """An operator with its center, ambient norm and majorant profile.

    apply must be pure and is only queried inside the ball of
    profile.radius around center; norm is the ambient space norm, injected
    by whoever built the handle (sup over a grid, discrete L_p, Euclidean).
    """

    apply: Callable[[np.ndarray], np.ndarray]
    center: np.ndarray
    norm: Callable[[np.ndarray], float]
    profile: MajorantProfile


def make_operator(apply, center, norm, modulus: LipschitzModulus,
                  radius: float) -> OperatorHandle:
    """Assemble an OperatorHandle, measuring a = ||A x0 - x0|| with one
    application of the operator."""
    center = np.asarray(center, dtype=float)
    center_shift = float(norm(np.asarray(apply(center), dtype=float) - center))
    profile = MajorantProfile(center_shift, modulus, float(radius))
    return OperatorHandle(apply, center, norm, profile)


@dataclass(frozen=True)
class StoppingRule:
    """Stop when the a-priori bound drops under bound_tol, or at max_steps."""

    bound_tol: float = 1e-10
    max_steps: int = 1000

    def __post_init__(self):
        if not math.isfinite(self.bound_tol) or self.bound_tol <= 0.0:
            raise ValueError("bound_tol must be finite and > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True, eq=False)
class StepRecord:
    """One application of the operator with its certified bounds."""

    index: int
    state: np.ndarray          # xi_n
    step_norm: float           # ||xi_{n+1} - xi_n||
    envelope_center: float     # r_n
    envelope_start: float      # rho_n
    apriori_bound: float       # r_star + rho_n - 2 r_n
    step_bound: float          # rho_{n+1} + rho_n - 2 r_n
    center_bound: float        # r_star - r_n

    def to_dict(self) -> dict:
        return {
            "n": self.index,
            "step_norm": self.step_norm,
            "envelope_center": self.envelope_center,
            "envelope_start": self.envelope_start,
            "apriori_bound": self.apriori_bound,
            "step_bound": self.step_bound,
            "center_bound": self.center_bound,
        }


@dataclass
class IterationTrace:
    """Step records plus the terminal status of a run."""

    steps: list[StepRecord] = field(default_factory=list)
    status: str = "converged"          # converged | max_steps | bound_violated
    final_state: np.ndarray | None = None
    final_bound: float = 0.0


def check_admissible_start(report: ZoneReport, rho0: float) -> bool:
    """Whether an initial offset lies in the certified start region.

    Admissible: rho0 <= convergence_radius, or strictly inside the annulus
    up to the uniqueness radius (boundary included only when it is closed).
    """
    if not report.existence_certified:
        raise ValueError("existence not certified; no admissible region")
    rho0 = float(rho0)
    if rho0 < 0.0:
        raise ValueError("rho0 must be >= 0")
    return rho0 <= report.convergence_radius or report.uniqueness_zone.contains(rho0)


def iterate(op: OperatorHandle, xi0, rule: StoppingRule, *,
            report: ZoneReport | None = None) -> tuple[np.ndarray, IterationTrace]:
    """Run certified successive approximations from xi0.

    Returns (x_star, trace) where the final a-priori bound certifies
    ||x_star - x*_true|| <= trace.final_bound.  Raises NoExistenceError when
    the profile admits no fixed point, InadmissibleStartError when xi0 is
    outside the certified start region, and BoundViolationError when an
    observed step contradicts the modulus.
    """
    if report is None:
        report = analyze(op.profile)
    if not report.existence_certified:
        raise NoExistenceError(report.gap, report.gap_argmin)
    xi = np.array(xi0, dtype=float, copy=True)
    if xi.shape != op.center.shape:
        raise ValueError(
            f"start shape {xi.shape} does not match center shape {op.center.shape}"
        )
    rho0 = float(op.norm(xi - op.center))
    if not check_admissible_start(report, rho0):
        raise InadmissibleStartError(rho0, report.convergence_radius,
                                     report.uniqueness_radius,
                                     report.uniqueness_radius_closed)
    r_star = report.convergence_radius
    profile = op.profile
    r_n, rho_n = 0.0, rho0
    steps: list[StepRecord] = []
    n = 0
    while True:
        apriori = r_star + rho_n - 2.0 * r_n
        if apriori <= rule.bound_tol:
            status = "converged"
            break
        if n >= rule.max_steps:
            status = "max_steps"
            break
        nxt = np.asarray(op.apply(xi), dtype=float)
        if nxt.shape != xi.shape:
            raise ValueError("operator changed the state shape")
        step_norm = float(op.norm(nxt - xi))
        r_next = profile.upper(r_n)
        # upper is deterministic, so envelopes that start equal (xi0 at the
        # center) stay equal without a second evaluation
        rho_next = r_next if rho_n == r_n else profile.upper(rho_n)
        step_bound = rho_next + rho_n - 2.0 * r_n
        record = StepRecord(n, xi.copy(), step_norm, r_n, rho_n,
                            apriori, step_bound, r_star - r_n)
        steps.append(record)
        if step_norm > step_bound + _slack(step_bound):
            trace = IterationTrace(steps, "bound_violated", nxt, apriori)
            raise BoundViolationError(
                f"step {n}: observed norm {step_norm!r} exceeds the certified "
                f"bound {step_bound!r}; the modulus does not cover this operator",
                trace=trace, record=record,
            )
        drift = float(op.norm(nxt - op.center))
        if drift > rho_next + _slack(rho_next):
            trace = IterationTrace(steps, "bound_violated", nxt, apriori)
            raise BoundViolationError(
                f"step {n}: iterate drifted to distance {drift!r} from the "
                f"center, beyond the envelope {rho_next!r}",
                trace=trace, record=record,
            )
        xi = nxt
        r_n, rho_n = r_next, rho_next
        n += 1
    trace = IterationTrace(steps, status, xi.copy(), apriori)
    return xi, trace


@dataclass(frozen=True)
class CertificationRecord:
    """Re-checked step inequalities with the worst observed excess."""

    steps_checked: int
    step_ok: bool
    worst_step_excess: float


def certify_trace(trace: IterationTrace) -> CertificationRecord:
    """Re-check step_norm <= step_bound + slack on every step of a finished
    trace.  A NaN step norm, which iterate lets through, fails it; an empty
    trace passes with zero excess."""
    steps = trace.steps
    return CertificationRecord(
        len(steps),
        all(rec.step_norm <= rec.step_bound + _slack(rec.step_bound) for rec in steps),
        max((rec.step_norm - rec.step_bound for rec in steps), default=0.0))
