"""Seeded problem generators for the three workloads.

Each workload is a fixed list of slots: a family, a regime, a command and a
size.  The seed draws only the continuous parameters inside a slot, so every
seed runs the same mix of kinds, sizes and step-count strata, and the
run-to-run spread comes from the program rather than from the mix.  Where
the cost of a problem depends on its contraction rate k(r*), the rates of a
slot group are drawn stratified in log(1 - rate), one draw per stratum;
nystrom-solve sets lambda so that each solve takes a fixed step count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from oracles import (Expected, Model, expected_radii, low_rank_factors,
                     newton_reference, power_sum_model, quadratic_model,
                     simpson, tabulated_model)

BOUND_TOL = 1e-10
MAX_STEPS = 1000
ZONE_SAMPLES = 201


@dataclass
class Problem:
    """One cli.main call and what its output must look like."""

    pid: int
    label: str                 # family/regime, for the per-kind counts
    command: str               # analyze | solve | compare | zones
    config: dict | None        # written to a file; None for a shipped preset
    preset: str | None = None
    options: list = field(default_factory=list)
    model: Model | None = None
    expected: Expected | None = None
    x_ref: object = None       # reference fixed point for solve
    start: object = None       # the first iterate xi0
    family_table: bool = False
    cost: float = 0.0          # rough relative cost, to pick cheap warm-ups


@dataclass
class Workload:
    name: str
    problems: list
    min_passes: int            # passes every run makes, for the tail samples


def _stratified_rates(rng, count: int, lo: float = 0.05, hi: float = 0.95):
    """One rate per stratum of log(1 - rate) over [1 - hi, 1 - lo], shuffled.

    Draws stay in the middle tenth of their stratum: the step count of a
    solve grows like 1 / (1 - rate), and a draw anywhere in the top stratum
    would move the cost of a whole pass from seed to seed."""
    edges = np.linspace(math.log(1.0 - hi), math.log(1.0 - lo), count + 1)
    draws = edges[:-1] + (edges[1:] - edges[:-1]) * rng.uniform(0.45, 0.55, size=count)
    rng.shuffle(draws)
    return [1.0 - math.exp(v) for v in draws]


def _shuffled(rng, problems: list) -> list:
    """Problems in a seeded order, numbered in that order."""
    problems = [problems[i] for i in rng.permutation(len(problems))]
    for pid, problem in enumerate(problems):
        problem.pid = pid
    return problems


# ---------------------------------------------------------------------------
# scalar-certify
# ---------------------------------------------------------------------------

SCALAR_SLOTS = [
    # family, regime, {command: count}; 100 problems per pass
    ("quadratic", "exists", {"solve": 8, "analyze": 6, "compare": 2, "zones": 2}),
    ("quadratic", "tangent_below", {"solve": 2, "analyze": 1, "zones": 1}),
    ("quadratic", "tangent_above", {"analyze": 1}),
    ("quadratic", "none", {"solve": 2, "analyze": 2, "compare": 1}),
    ("power_sum", "exists", {"solve": 8, "analyze": 6, "compare": 2, "zones": 2}),
    ("constant", "exists", {"solve": 5, "analyze": 4, "compare": 1, "zones": 1}),
    ("constant", "none", {"solve": 1, "analyze": 1}),
    ("tabulated", "exists", {"solve": 6, "analyze": 5, "compare": 1, "zones": 1}),
    ("multilinear", "exists", {"solve": 6, "analyze": 5, "compare": 1, "zones": 2}),
    ("multilinear", "none", {"solve": 1, "analyze": 1}),
]
PRESET_SLOTS = [
    ("quadratic", "solve"), ("quadratic", "analyze"),
    ("tangency", "solve"), ("tangency", "zones"),
    ("contraction", "solve"), ("contraction", "compare"),
    ("supercritical", "solve"), ("supercritical", "analyze"),
    ("multilinear-quadratic", "solve"), ("multilinear-quadratic", "zones"),
    ("multilinear-cubic", "solve"), ("multilinear-cubic", "analyze"),
]
# Near-tangent draws sit 1e-11..1e-9 from tangency.  The band (0, 1e-12]
# just past tangency, which the finder tolerance cannot resolve, is probed
# by selftest.py instead (see README.md).
TANGENT_LOG10 = (-11.0, -9.0)


def model_from_config(config: dict, known_root: float | None = None) -> Model:
    """Own model of a scalar_profile or 1-d multilinear config."""
    R = float(config["radius"])
    if config["kind"] == "multilinear":
        C, m = abs(float(config["coefficient"])), int(config["degree"])
        a = abs(float(config["constant"]))
        if m == 2:
            return quadratic_model(a, 0.0, C, R)
        return power_sum_model(a, [(C * m, m - 1.0)], R, known_root=known_root)
    a = float(config["center_shift"])
    mod = config["modulus"]
    if mod["type"] == "constant":
        return quadratic_model(a, float(mod["value"]), 0.0, R)
    if mod["type"] == "power_sum":
        terms = mod["terms"]
        if len(terms) == 1 and float(terms[0][1]) == 1.0:
            return quadratic_model(a, 0.0, float(terms[0][0]) / 2.0, R)
        return power_sum_model(a, terms, R, known_root=known_root)
    return tabulated_model(a, mod["abscissae"], mod["ordinates"], R,
                           known_root=known_root)


def _quadratic_config(rng, regime: str, rate: float):
    c = float(rng.uniform(0.5, 2.0))
    if regime == "exists":
        r1 = rate / (2.0 * c)
        a = r1 - c * r1 * r1
        r2 = (1.0 + math.sqrt(1.0 - 4.0 * a * c)) / (2.0 * c)
        if rng.uniform() < 0.5:
            R = r1 + (r2 - r1) * float(rng.uniform(0.3, 0.9))
        else:
            R = r2 * float(rng.uniform(1.1, 1.6))
    elif regime == "none":
        a = (1.0 + float(rng.uniform(0.05, 1.0))) / (4.0 * c)
        R = float(rng.uniform(1.2, 3.0)) / (2.0 * c)
    else:
        delta = 10.0 ** float(rng.uniform(*TANGENT_LOG10))
        a = 1.0 / (4.0 * c) + (delta if regime == "tangent_above" else -delta)
        R = float(rng.uniform(1.3, 2.5)) / (2.0 * c)
    return {"kind": "scalar_profile", "center_shift": a,
            "modulus": {"type": "power_sum", "terms": [[2.0 * c, 1.0]]},
            "radius": R}, None


def _power_sum_config(rng, regime: str, rate: float):
    nterms = int(rng.integers(1, 4))
    exponents = np.sort(rng.uniform(0.0, 3.0, nterms))
    coefs = rng.uniform(0.1, 2.0, nterms)
    rho = float(rng.uniform(0.1, 2.0))
    raw = float(sum(c * rho ** p for c, p in zip(coefs, exponents)))
    terms = [[float(c) * rate / raw, float(p)] for c, p in zip(coefs, exponents)]
    K = sum(c * rho ** (p + 1.0) / (p + 1.0) for c, p in terms)
    R = rho * float(rng.uniform(1.3, 3.0))
    return {"kind": "scalar_profile", "center_shift": rho - K,
            "modulus": {"type": "power_sum", "terms": terms},
            "radius": R}, rho


def _constant_config(rng, regime: str, rate: float):
    a = float(rng.uniform(0.1, 2.0))
    r_conv = a / (1.0 - rate)
    spread = (1.2, 3.0) if regime == "exists" else (0.3, 0.85)
    return {"kind": "scalar_profile", "center_shift": a,
            "modulus": {"type": "constant", "value": rate},
            "radius": r_conv * float(rng.uniform(*spread))}, None


def _tabulated_config(rng, regime: str, rate: float):
    R = float(rng.uniform(0.5, 3.0))
    inner = np.sort(rng.uniform(0.0, R, int(rng.integers(2, 9))))
    xs = np.concatenate(([0.0], inner, [R]))
    xs = np.unique(xs)
    ys = float(rng.uniform(0.0, 0.3)) + np.concatenate(
        ([0.0], np.cumsum(rng.uniform(0.0, 1.0, xs.size - 1))))
    rho = R * float(rng.uniform(0.2, 0.7))
    ys = ys * (rate / float(np.interp(rho, xs, ys)))
    model = tabulated_model(0.0, xs.tolist(), ys.tolist(), R)
    return {"kind": "scalar_profile", "center_shift": rho - model.K(rho),
            "modulus": {"type": "tabulated", "abscissae": xs.tolist(),
                        "ordinates": ys.tolist()},
            "radius": R}, rho


def _multilinear_config(rng, regime: str, rate: float, degree: int):
    c = float(rng.uniform(0.5, 2.0))
    if regime == "exists":
        r1 = rate / (2.0 * c) if degree == 2 else math.sqrt(rate / (3.0 * c))
        eta = r1 - c * r1 ** degree
        R = r1 * float(rng.uniform(1.3, 3.0))
    else:
        critical = (1.0 / (c * degree)) ** (1.0 / (degree - 1)) * (degree - 1) / degree
        eta, r1 = critical * float(rng.uniform(1.1, 2.0)), None
        R = float(rng.uniform(1.0, 2.0))
    return {"kind": "multilinear", "dimension": 1, "degree": degree,
            "coefficient": c, "constant": eta, "radius": R}, r1


def scalar_certify(rng, presets: dict) -> Workload:
    problems: list[Problem] = []
    makers = {"quadratic": _quadratic_config, "power_sum": _power_sum_config,
              "constant": _constant_config, "tabulated": _tabulated_config}
    for family, regime, commands in SCALAR_SLOTS:
        for command, count in commands.items():
            rates = _stratified_rates(rng, count)
            for i, rate in enumerate(rates):
                if family == "multilinear":
                    config, root = _multilinear_config(rng, regime, rate, 2 + i % 2)
                else:
                    config, root = makers[family](rng, regime, rate)
                offset = None
                if command == "solve" and regime == "exists" and i % 4 == 1:
                    offset = float(rng.uniform(0.1, 0.9))
                problems.append(_scalar_problem(
                    f"{family}/{regime}", command, config, None, root, offset))
    for name, command in PRESET_SLOTS:
        problems.append(_scalar_problem(f"preset/{name}", command,
                                        presets[name], name, None, None))
    problems = _shuffled(rng, problems)
    return Workload("scalar-certify", problems, 11)


def _scalar_problem(label, command, config, preset, root, offset) -> Problem:
    model = model_from_config(config, known_root=root)
    expected = expected_radii(model)
    problem = Problem(0, label, command, None if preset else config, preset,
                      model=model, expected=expected,
                      family_table=config["kind"] == "multilinear")
    if command == "solve":
        problem.options = ["--bound-tol", repr(BOUND_TOL),
                           "--max-steps", str(MAX_STEPS)]
        if expected.existence:
            # the scalar maps iterate monotonically onto their smallest root
            problem.x_ref = expected.radii["convergence_radius"]
            problem.start = 0.0
            if offset is not None:
                start = offset * problem.x_ref
                problem.options += ["--start-offset", repr(start)]
                problem.start = start
    if command == "zones":
        problem.options = ["--samples", str(ZONE_SAMPLES)]
    # The warm-up set takes the cheapest problem of each kind, so that
    # set-up time does not depend on which draws the seed made.
    problem.cost = float(label.split("/")[1].startswith("tangent"))
    if command == "solve":
        problem.cost = (_steps(model, offset or 0.0) if expected.existence
                        else MAX_STEPS + 1.0)
    return problem


# ---------------------------------------------------------------------------
# nystrom-build
# ---------------------------------------------------------------------------

BUILD_SLOTS = [("urysohn", 101, 2), ("urysohn", 201, 2), ("urysohn", 401, 1),
               ("composition", 101, 2), ("composition", 201, 2),
               ("composition", 401, 1),
               ("hammerstein_lp", 1001, 2), ("multilinear", 8, 3)]
# 15 problems a pass: an odd count keeps the pooled median and p90 inside a
# group of like problems rather than on the gap between two groups.


def _interval(rng):
    lo = float(rng.uniform(0.0, 0.4))
    return lo, lo + float(rng.uniform(0.6, 1.2))


def _nystrom_build_problem(rng, kind: str, n: int, recenter: bool) -> Problem:
    if kind in ("urysohn", "composition"):
        lo, hi = _interval(rng)
        c = float(rng.uniform(0.01, 0.2)) if recenter else 0.0
        R = float(rng.uniform(0.5, 2.0))
        t, w = simpson(lo, hi, n)
        W, S1 = float(w.sum()), float(w @ t)
        if kind == "urysohn":
            image = 0.2 * t * W + 0.1 * c * c * S1 + 0.05 * c * W
            alpha, beta = 0.2 * S1 * c + 0.05 * W, 0.1 * S1
            config = {"kind": "urysohn", "kernel": "mixed_quadratic"}
        else:
            image = 0.1 * t + 0.5 * c + 0.25 * c * c * S1
            alpha, beta = 0.5 + 0.5 * S1 * c, 0.25 * S1
            config = {"kind": "composition", "outer": "affine_mix",
                      "inner": "weighted_square"}
        config.update(interval=[lo, hi], grid={"rule": "simpson", "n": n},
                      radius=R)
        if c:
            config["x0"] = c
        a = float(np.max(np.abs(image - c)))
        model = quadratic_model(a, alpha, beta, R)
        cost = n * n
    elif kind == "hammerstein_lp":
        lo, hi = _interval(rng)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        kernel = str(rng.choice(["product", "one"]))
        forcing = str(rng.choice(["identity", "sin_pi", "one"]))
        t, w = simpson(lo, hi, n)
        phi = t if kernel == "product" else np.ones_like(t)
        pc = p / (p - 1.0)
        zaanen = float((w @ phi ** p) ** (1 / p)) * float((w @ phi ** pc) ** (1 / pc))
        rate = float(rng.uniform(0.2, 0.8))
        lam = rate / (1.05 * zaanen)
        f = {"identity": t, "sin_pi": np.sin(np.pi * t), "one": np.ones_like(t)}[forcing]
        a = float((w @ np.abs(f) ** p) ** (1 / p))
        R = a / (1.0 - rate) * float(rng.uniform(1.2, 3.0))
        config = {"kind": "hammerstein_lp", "interval": [lo, hi], "lambda": lam,
                  "p": p, "grid": {"rule": "simpson", "n": n}, "radius": R,
                  "terms": [{"kernel": kernel, "nonlinearity": "linear", "q": p}],
                  "forcing": forcing}
        model = quadratic_model(a, lam * 1.05 * zaanen, 0.0, R)
        cost = n * n
    else:
        d = n
        tensor = rng.normal(size=(d, d, d)) * 0.3
        c_up = float(np.linalg.norm(tensor.reshape(d, d * d), 2))
        eta = rng.normal(size=d)
        eta *= float(rng.uniform(0.3, 0.9)) / (4.0 * 1.1 * c_up * np.linalg.norm(eta))
        R = float(rng.uniform(0.8, 1.5)) / c_up
        config = {"kind": "multilinear", "dimension": d, "degree": 2,
                  "tensor": tensor.tolist(), "constant": eta.tolist(),
                  "radius": R, "seed": int(rng.integers(0, 2**31))}
        # the operator norm C is the program's own estimate; the oracle
        # reads it back from critical_shift = 1 / (4 C)
        model = quadratic_model(float(np.linalg.norm(eta)), 0.0, math.nan, R)
        cost = 2e5
    problem = Problem(0, f"{kind}/n={n}", "analyze", config, model=model,
                      cost=cost)
    if not math.isnan(model.quadratic[1]):
        problem.expected = expected_radii(model)
    return problem


def nystrom_build(rng) -> Workload:
    # Recentering on a scalar x0 changes a build's cost, so it takes fixed
    # slots, every other Urysohn/composition problem; the seed draws x0.
    slots = [(kind, n) for kind, n, count in BUILD_SLOTS for _ in range(count)]
    problems = [_nystrom_build_problem(rng, kind, n, i % 2 == 1)
                for i, (kind, n) in enumerate(slots)]
    problems = _shuffled(rng, problems)
    return Workload("nystrom-build", problems, 8)


# ---------------------------------------------------------------------------
# nystrom-solve
# ---------------------------------------------------------------------------

NONLINEAR = {
    # name -> (h, h', modulus of h as power-sum terms in |u| <= rho)
    "square": (lambda u: u * u, lambda u: 2.0 * u, [(2.0, 1.0)]),
    "cube": (lambda u: u ** 3, lambda u: 3.0 * u * u, [(3.0, 2.0)]),
    "sin": (np.sin, np.cos, [(1.0, 0.0)]),
}
FORCING = {"identity": lambda t: t, "sin_pi": lambda t: np.sin(np.pi * t)}
KERNEL = {"product": lambda t, s: t * s, "exp_product": lambda t, s: np.exp(t * s)}


def _row_sums(kernel, t, w, chunk: int = 256):
    """(sum_l k(t_i, s_l) w_l, sum_l |k(t_i, s_l)| w_l) without an n x n array."""
    fn = KERNEL[kernel]
    signed, absolute = np.empty_like(t), np.empty_like(t)
    for i in range(0, t.size, chunk):
        block = fn(t[i:i + chunk, None], t[None, :])
        signed[i:i + chunk] = block @ w
        absolute[i:i + chunk] = np.abs(block) @ w
    return signed, absolute


def _solve_model(lam, c, kn, kw, f, h, terms, R) -> Model:
    a = float(np.max(np.abs(f + lam * float(h(np.float64(c))) * kw - c)))
    scaled = [(lam * kn * coef, p) for coef, p in terms]
    if terms[0][1] == 0.0:
        return quadratic_model(a, scaled[0][0], 0.0, R)
    if terms[0][1] == 1.0:
        coef = scaled[0][0]
        return quadratic_model(a, coef * abs(c), coef / 2.0, R)
    return power_sum_model(a, scaled, R, shift=abs(c))


def _steps(model: Model, share: float) -> int:
    """Steps the certified iteration takes on this model, started at
    share * r* from the center: the envelope loop of majorfix's iterate."""
    exp = expected_radii(model)
    if not exp.existence:
        return MAX_STEPS + 1
    r_star = exp.radii["convergence_radius"]
    r, rho, n = 0.0, share * r_star, 0
    while r_star + rho - 2.0 * r > BOUND_TOL and n < MAX_STEPS:
        r, rho, n = model.a + model.K(r), model.a + model.K(rho), n + 1
    return n


# Steps per solve, log-spaced over 40..400 at each grid size, so the pass
# holds a smooth spread of costs.  25 problems a pass: the pooled p50 and p75
# then fall inside the copies of one problem (ranks 12.5 and 18.75 of 25)
# rather than on the gap between two, which a seed or a little host noise
# would flip.
SOLVE_STEPS = {1001: [round(40 * 10 ** (j / 12)) for j in range(13)],
               2001: [round(40 * 10 ** (j / 11)) for j in range(12)]}


def _nystrom_solve_problem(n, kernel, name, forcing, steps, c, share, radius_factor):
    """lambda is set by bisection so that the iteration takes `steps` steps."""
    t, w = simpson(0.0, 1.0, n)
    kw, kabs = _row_sums(kernel, t, w)
    kn = float(np.max(kabs))
    h, dh, terms = NONLINEAR[name]
    f = FORCING[forcing](t)

    def count(lam):
        return _steps(_solve_model(lam, c, kn, kw, f, h, terms, 1e3), share)

    hi = 1.0 / kn
    while count(hi) < steps:
        hi *= 2.0
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if count(mid) < steps:
            lo = mid
        else:
            hi = mid
    lam = hi
    probe = _solve_model(lam, c, kn, kw, f, h, terms, 1e3)
    R = expected_radii(probe).radii["convergence_radius"] * radius_factor
    model = _solve_model(lam, c, kn, kw, f, h, terms, R)
    expected = expected_radii(model)
    config = {"kind": "hammerstein_c", "interval": [0.0, 1.0], "lambda": lam,
              "grid": {"rule": "simpson", "n": n}, "radius": R,
              "terms": [{"kernel": kernel, "nonlinearity": name}],
              "forcing": forcing}
    if c:
        config["x0"] = c
    options = ["--bound-tol", repr(BOUND_TOL), "--max-steps", str(MAX_STEPS)]
    offset = share * expected.radii["convergence_radius"]
    if share:
        options += ["--start-offset", repr(offset)]
    start = np.full(n, c + offset)
    phi, psi = low_rank_factors(kernel, t)
    x_ref = newton_reference(f, lam, phi, psi, w, h, dh, start)
    return Problem(0, f"hammerstein_c/n={n}", "solve", config, options=options,
                   model=model, expected=expected, x_ref=x_ref, start=start,
                   cost=n * steps)


def nystrom_solve(rng) -> Workload:
    problems = []
    for n, targets in SOLVE_STEPS.items():
        pairs = list(itertools.product(NONLINEAR, FORCING)) * 3
        order = rng.permutation(len(pairs))
        # recentering and off-center starts change a solve's cost, so they
        # sit in fixed slots and the seed draws only their size
        centers = np.zeros(len(targets))
        centers[1::4] = rng.uniform(0.02, 0.1, 3)
        shares = np.zeros(len(targets))
        shares[3::4] = rng.uniform(0.1, 0.5, 3)
        for j, target in enumerate(targets):
            name, forcing = pairs[order[j]]
            # the kernel sets the build cost, so it alternates with the step count
            kernel = "product" if j % 2 == 0 else "exp_product"
            problems.append(_nystrom_solve_problem(
                n, kernel, name, forcing, target, float(centers[j]),
                float(shares[j]), float(rng.uniform(1.5, 3.0))))
    problems = _shuffled(rng, problems)
    return Workload("nystrom-solve", problems, 2)


# The calibration parts of speed.py that match each workload's own work.
SPEED_PARTS = {"scalar-certify": ("python", "stdlib", "kernel"),
               "nystrom-build": ("python", "elementwise", "matvec", "kernel"),
               "nystrom-solve": ("matvec", "kernel")}

GENERATORS = {"scalar-certify": scalar_certify, "nystrom-build": nystrom_build,
              "nystrom-solve": nystrom_solve}


def generate(name: str, seed: int, presets: dict) -> Workload:
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(name)])
    if name == "scalar-certify":
        return scalar_certify(rng, presets)
    return GENERATORS[name](rng)
