"""Independent oracles for majorfix documents.

Nothing here calls majorfix.  Expected radii come from closed forms where
the majorant is quadratic or linear (k = alpha + 2 beta r), from a profile
built around a known smallest root, or from a plain bisection on the
benchmark's own evaluation of K(r).  Reference solutions of the Nystrom
equations come from the benchmark's own Newton solve.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

EPS = 2.0 ** -52
FINDER_TOL = 1e-12          # majorfix's default radius tolerance
SLACK_ABS = 1e-12           # the published per-step bound slack:
SLACK_REL = 1e-9            # abs + rel * |bound|
RADIUS_KEYS = ("inner_radius", "convergence_radius", "uniqueness_radius",
               "contraction_radius")


def slack(bound: float) -> float:
    return SLACK_ABS + SLACK_REL * abs(bound)


# ---------------------------------------------------------------------------
# majorant models: a, R, k(r), K(r), k'(r) evaluated by the benchmark itself
# ---------------------------------------------------------------------------

@dataclass
class Model:
    """Upper majorant a + K(r) on [0, R], with k = K' and dk = k'."""

    a: float
    R: float
    k: object
    K: object
    dk: object
    quadratic: tuple[float, float] | None = None   # (alpha, beta) closed form
    known_root: float | None = None                # smallest root by design

    def gap(self, r: float) -> float:
        return self.a + self.K(r) - r

    def noise(self, r: float) -> float:
        return 64.0 * EPS * max(1.0, self.a, r, abs(self.a + self.K(r)))


def quadratic_model(a: float, alpha: float, beta: float, R: float) -> Model:
    """upper(r) = a + alpha r + beta r^2, i.e. k(r) = alpha + 2 beta r."""
    return Model(a, R, lambda r: alpha + 2.0 * beta * r,
                 lambda r: alpha * r + beta * r * r, lambda r: 2.0 * beta,
                 quadratic=(alpha, beta))


def power_sum_model(a: float, terms, R: float, shift: float = 0.0,
                    known_root: float | None = None) -> Model:
    """k(r) = sum c (shift + r)^p; K is its exact integral from 0 to r."""
    terms = [(float(c), float(p)) for c, p in terms]

    def k(r):
        return sum(c * (shift + r) ** p for c, p in terms)

    def K(r):
        return sum(c * ((shift + r) ** (p + 1.0) - shift ** (p + 1.0)) / (p + 1.0)
                   for c, p in terms)

    def dk(r):
        return sum(c * p * (shift + r) ** (p - 1.0) for c, p in terms if p > 0.0)

    return Model(a, R, k, K, dk, known_root=known_root)


def tabulated_model(a: float, xs, ys, R: float,
                    known_root: float | None = None) -> Model:
    """Linear interpolant of (xs, ys) with its exact piecewise-quadratic K."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    cum = [0.0]
    for j in range(len(xs) - 1):
        cum.append(cum[-1] + (xs[j + 1] - xs[j]) * (ys[j] + ys[j + 1]) / 2.0)

    def seg(r):
        j = 0
        while j < len(xs) - 2 and xs[j + 1] <= r:
            j += 1
        return j, (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])

    def k(r):
        j, slope = seg(r)
        return ys[j] + slope * (r - xs[j])

    def K(r):
        j, slope = seg(r)
        dr = r - xs[j]
        return cum[j] + ys[j] * dr + 0.5 * slope * dr * dr

    def dk(r):
        return seg(r)[1]

    return Model(a, R, k, K, dk, known_root=known_root)


def _bisect(pred, lo: float, hi: float) -> float:
    """Switch point of pred (True at lo, False at hi) to full precision."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if pred(mid):
            lo = mid
        else:
            hi = mid


@dataclass
class Expected:
    existence: bool
    radii: dict = field(default_factory=dict)     # name -> value or None
    widths: dict = field(default_factory=dict)    # name -> allowed error
    uniqueness_closed: bool = False
    degenerate: bool = False


def _width(model: Model, r: float, slope: float, curvature: float) -> float:
    """Finder tolerance plus the band in which float noise hides the root."""
    noise = model.noise(r)
    band = noise / abs(slope) if slope != 0.0 else math.inf
    if curvature > 0.0:
        band = min(band, math.sqrt(2.0 * noise / curvature))
    return 4.0 * FINDER_TOL + band


def expected_radii(model: Model) -> Expected:
    a, R = model.a, model.R
    if model.quadratic is not None:
        return _quadratic_radii(model)
    k = model.k
    if k(R) < 1.0:
        r_cr = None
    elif k(0.0) >= 1.0:
        r_cr = 0.0
    else:
        r_cr = _bisect(lambda r: k(r) < 1.0, 0.0, R)
    argmin = R if r_cr is None else r_cr
    out = Expected(existence=model.gap(argmin) <= 0.0 or a == 0.0)
    out.radii["contraction_radius"] = r_cr
    if r_cr is not None:
        out.widths["contraction_radius"] = 4.0 * FINDER_TOL + (
            model.noise(r_cr) / model.dk(r_cr) if model.dk(r_cr) > 0 else 0.0)
    if not out.existence:
        return out
    if model.known_root is not None:
        r_conv = model.known_root
    elif a == 0.0:
        r_conv = 0.0
    else:
        r_conv = _bisect(lambda r: model.gap(r) > 0.0, 0.0, argmin)
    r_in = 0.0 if a == 0.0 else _bisect(
        lambda r: a - model.K(r) - r > 0.0, 0.0, min(a, R))
    if model.gap(R) < 0.0:
        r_uni, closed = R, True
    else:
        r_uni, closed = _bisect(lambda r: model.gap(r) < 0.0, argmin, R), False
    out.radii.update(convergence_radius=r_conv, inner_radius=r_in,
                     uniqueness_radius=r_uni)
    out.uniqueness_closed = closed
    for name, r, sign in (("convergence_radius", r_conv, -1.0),
                          ("inner_radius", r_in, 1.0),
                          ("uniqueness_radius", r_uni, -1.0)):
        out.widths[name] = _width(model, r, k(r) + sign, model.dk(r))
    return out


def _quadratic_radii(model: Model) -> Expected:
    a, R = model.a, model.R
    alpha, beta = model.quadratic
    k = model.k
    if k(R) < 1.0:
        r_cr = None
    elif alpha >= 1.0:
        r_cr = 0.0
    else:
        r_cr = (1.0 - alpha) / (2.0 * beta)
    if beta > 0.0:
        disc = (1.0 - alpha) ** 2 - 4.0 * beta * a
    else:
        disc = (1.0 - alpha) ** 2
    if a == 0.0:
        r_conv = 0.0
    elif alpha >= 1.0 or disc < 0.0:
        r_conv = None
    else:
        r_conv = 2.0 * a / ((1.0 - alpha) + math.sqrt(disc))
    existence = r_conv is not None and r_conv <= R
    out = Expected(existence=existence)
    out.radii["contraction_radius"] = r_cr
    if r_cr is not None:
        out.widths["contraction_radius"] = 4.0 * FINDER_TOL + (
            model.noise(r_cr) / (2.0 * beta) if beta > 0.0 else 0.0)
    if not existence:
        return out
    r_in = 2.0 * a / ((1.0 + alpha) + math.sqrt((1.0 + alpha) ** 2 + 4.0 * beta * a))
    if model.gap(R) < 0.0:
        r_uni, closed, degenerate = R, True, False
    elif disc == 0.0:
        r_uni, closed, degenerate = r_conv, False, True
    else:
        r_uni, closed, degenerate = ((1.0 - alpha) + math.sqrt(disc)) / (2.0 * beta), False, False
    out.radii.update(convergence_radius=r_conv, inner_radius=r_in,
                     uniqueness_radius=r_uni)
    out.uniqueness_closed, out.degenerate = closed, degenerate
    for name, r, sign in (("convergence_radius", r_conv, -1.0),
                          ("inner_radius", r_in, 1.0),
                          ("uniqueness_radius", r_uni, -1.0)):
        out.widths[name] = _width(model, r, k(r) + sign, 2.0 * beta)
    return out


# ---------------------------------------------------------------------------
# Nystrom helpers: own Simpson grid, kernel norms and the Newton reference
# ---------------------------------------------------------------------------

def simpson(lo: float, hi: float, n: int):
    nodes = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    w = np.full(n, 2.0 * h / 3.0)
    w[1::2] = 4.0 * h / 3.0
    w[0] = w[-1] = h / 3.0
    return nodes, w


def low_rank_factors(kernel: str, t: np.ndarray, terms: int = 26):
    """k(t, s) = sum_j phi_j(t) psi_j(s): exact for 'product', a Taylor
    series for 'exp_product' whose remainder is below 1/26! on [0, 1]^2."""
    if kernel == "product":
        return t[:, None], t[:, None]
    if kernel == "exp_product":
        j = np.arange(terms)
        scale = np.sqrt([float(math.factorial(i)) for i in j])
        powers = t[:, None] ** j[None, :] / scale[None, :]
        return powers, powers
    raise ValueError(f"no low-rank form for kernel {kernel!r}")


def newton_reference(fvec, lam, phi, psi, w, h, dh, x_start):
    """Solve x = f + lam * K W h(x) with K = phi psi^T.

    Writing x = f + lam * phi c turns the discretized equation into
    c = psi^T W h(f + lam phi c), an m-dimensional system: Picard steps
    from the start bring c into the basin, Newton steps polish it.
    """
    m = phi.shape[1]
    c = psi.T @ (w * h(x_start))
    for _ in range(20000):
        c_new = psi.T @ (w * h(fvec + lam * (phi @ c)))
        done = np.max(np.abs(c_new - c)) <= 1e-9 * max(1.0, np.max(np.abs(c_new)))
        c = c_new
        if done:
            break
    for _ in range(30):
        x = fvec + lam * (phi @ c)
        residual = c - psi.T @ (w * h(x))
        jac = np.eye(m) - lam * (psi.T * (w * dh(x))) @ phi
        step = np.linalg.solve(jac, residual)
        c = c - step
        if np.max(np.abs(step)) <= 4.0 * EPS * max(1.0, np.max(np.abs(c))):
            break
    return fvec + lam * (phi @ c)


# ---------------------------------------------------------------------------
# document checks
# ---------------------------------------------------------------------------

def _close(got, want, width) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(float(got) - float(want)) <= width


def check_radii(radii: dict, exp: Expected, errors: list) -> None:
    for name in RADIUS_KEYS:
        want = exp.radii.get(name)
        got = radii.get(name)
        if not _close(got, want, exp.widths.get(name, 0.0)):
            errors.append(f"{name} {got!r} != expected {want!r}")
    if exp.existence:
        if radii.get("uniqueness_radius_closed") != exp.uniqueness_closed:
            errors.append("uniqueness boundary closedness differs")
        if bool(radii.get("degenerate")) != exp.degenerate:
            errors.append("degenerate flag differs")
        inner, conv, uni = (radii.get(k) for k in RADIUS_KEYS[:3])
        if None in (inner, conv, uni) or not inner <= conv <= uni:
            errors.append(f"zone order broken: {inner!r}, {conv!r}, {uni!r}")


def _zone(z: dict):
    return (z["lo"], z["hi"], z["lo_closed"], z["hi_closed"], z["empty"])


def check_zones(zones: dict, radii: dict, errors: list) -> None:
    """Zones must be assembled from the radii written beside them."""
    if radii.get("convergence_radius") is None:
        for name in ("existence_zone", "uniqueness_zone", "contraction_zone"):
            if not zones[name]["empty"]:
                errors.append(f"{name} not empty without existence")
        return
    inner, conv, uni = (radii[k] for k in RADIUS_KEYS[:3])
    if _zone(zones["existence_zone"]) != (inner, conv, True, True, False):
        errors.append("existence zone is not [inner, convergence]")
    ez = zones["uniqueness_zone"]
    if (ez["lo"], ez["hi"], ez["hi_closed"]) != (0.0, uni, radii["uniqueness_radius_closed"]):
        errors.append("uniqueness zone is not [0, uniqueness]")
    cz = zones["contraction_zone"]
    cap = uni if radii["contraction_radius"] is None else min(radii["contraction_radius"], uni)
    if cap <= conv:
        if not cz["empty"]:
            errors.append("contraction zone should be empty")
    elif (cz["lo"], cz["hi"], cz["empty"]) != (conv, cap, False):
        errors.append("contraction zone is not (convergence, cap)")


def check_analyze(doc: dict, exp: Expected, errors: list) -> None:
    if doc["existence_certified"] != exp.existence:
        errors.append(f"existence_certified {doc['existence_certified']} "
                      f"!= expected {exp.existence}")
        return
    check_radii(doc["radii"], exp, errors)
    check_zones(doc["zones"], doc["radii"], errors)
    if exp.existence != (doc["gap_witness"] is None):
        errors.append("gap witness presence does not match existence")


def check_compare(doc: dict, exp: Expected, errors: list) -> None:
    if doc["existence_certified"] != exp.existence:
        errors.append("existence_certified differs")
        return
    ez = doc["existence_zone"]
    if exp.existence:
        radii = {"inner_radius": ez["lo"], "convergence_radius": ez["hi"],
                 "uniqueness_radius": doc["uniqueness_zone"]["hi"]}
        for name in radii:
            if not _close(radii[name], exp.radii[name], exp.widths[name]):
                errors.append(f"compare {name} {radii[name]!r} != {exp.radii[name]!r}")
    if doc["banach_applicable"] == doc["contraction_zone"]["empty"]:
        errors.append("banach_applicable disagrees with the contraction zone")


def check_steps(doc: dict, errors: list, max_steps: int, bound_tol: float) -> None:
    steps = doc["steps"]
    for rec in steps:
        if rec["step_norm"] > rec["step_bound"] + slack(rec["step_bound"]):
            errors.append(f"step {rec['n']}: step_norm {rec['step_norm']!r} > "
                          f"step_bound {rec['step_bound']!r}")
            break
    status = doc["status"]
    if status == "converged":
        if doc["final_bound"] > bound_tol:
            errors.append("converged with final_bound above --bound-tol")
    elif status == "max_steps":
        if len(steps) != max_steps:
            errors.append("max_steps status with a short trace")
    else:
        errors.append(f"unexpected status {status!r}")
    if not doc["certification"]["step_ok"]:
        errors.append("certification.step_ok is false")


def check_solution(doc: dict, x_ref, start, errors: list,
                   ref_error: float = 0.0) -> None:
    """The a-priori bounds must cover the distance to the reference, which
    is itself known to within ref_error."""
    solution = np.asarray(doc["solution"], dtype=float)
    x_ref = np.atleast_1d(np.asarray(x_ref, dtype=float))
    err = float(np.max(np.abs(solution - x_ref)))
    bound = doc["final_bound"]
    if err > bound + slack(bound) + 1e-12 + ref_error:
        errors.append(f"|x - x_ref| = {err:.3e} exceeds final_bound {bound:.3e}")
    if doc["steps"] and start is not None:
        first = doc["steps"][0]["apriori_bound"]
        err0 = float(np.max(np.abs(np.atleast_1d(start) - x_ref)))
        if err0 > first + slack(first) + 1e-12 + ref_error:
            errors.append(f"|xi0 - x_ref| = {err0:.3e} exceeds apriori bound {first:.3e}")


def read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_zone_tables(files: list, model: Model, exp: Expected, samples: int,
                      family: bool, errors: list) -> list:
    """Curve table against the own K(r); markers against the radii."""
    curve = read_csv(files[0])
    if curve[0] != ["r", "a_plus", "a_minus", "bisectrix"] or len(curve) != samples + 1:
        errors.append("curve table has the wrong header or row count")
        return []
    table = np.array(curve[1:], dtype=float)
    r = table[:, 0]
    own = np.array([model.K(float(x)) for x in r])
    if np.max(np.abs(table[:, 1] - model.a - own)) > 1e-12 * max(1.0, float(np.max(own))):
        errors.append("a_plus column differs from a + K(r)")
    if np.max(np.abs(table[:, 1] + table[:, 2] - 2.0 * model.a)) > 1e-12 * max(1.0, float(np.max(own))):
        errors.append("a_plus + a_minus differs from 2a")
    markers = read_csv(files[1])[1:]
    written = {name: (float(value), boundary) for name, value, boundary in markers}
    for name in RADIUS_KEYS:
        want = exp.radii.get(name)
        got = written.get(name, (None, None))[0]
        if not _close(got, want, exp.widths.get(name, 0.0)):
            errors.append(f"marker {name} {got!r} != expected {want!r}")
    if family != (len(files) == 3):
        errors.append("family table presence does not match the problem kind")
    elif family and len(read_csv(files[2])) != samples + 1:
        errors.append("family table has the wrong row count")
    return markers


# ---------------------------------------------------------------------------
# certificate digest
# ---------------------------------------------------------------------------

def _flat(value, out: list) -> None:
    if isinstance(value, dict):
        for key in value:
            out.append(key)
            _flat(value[key], out)
    elif isinstance(value, float):
        out.append(repr(value))
    else:
        out.append(json.dumps(value))


def certificate_fields(command: str, code: int, doc, markers) -> list:
    """Every radius, zone endpoint, step count and final bound as written."""
    out = [command, str(code)]
    if doc is None:
        out += [f"{name}={value}:{boundary}" for name, value, boundary in markers or ()]
        return out
    if command in ("analyze", "solve"):
        _flat(doc["radii"], out)
    if command == "analyze":
        _flat(doc["zones"], out)
    if command == "compare":
        for name in ("contraction_zone", "uniqueness_zone", "existence_zone"):
            _flat(doc[name], out)
    if command == "solve":
        out += [doc["status"], str(len(doc["steps"])), repr(doc["final_bound"])]
    return out


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, pid: int, fields: list) -> None:
        self._h.update(f"{pid}|{'|'.join(fields)}\n".encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()
