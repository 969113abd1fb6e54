"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest

from majorfix import (
    BoundViolationError,
    ConstantModulus,
    Grid,
    KernelTable,
    MajorantProfile,
    NoExistenceError,
    OperatorHandle,
    PowerSumModulus,
    StoppingRule,
    analyze,
    build_self_majorizing,
    certify_trace,
    combine_moduli,
    eval_majorants,
    find_contraction_radius,
    find_convergence_radius,
    find_inner_radius,
    find_uniqueness_radius,
    iterate,
    multilinear_critical_shift,
    zaanen_norm_estimate,
    zaanen_sweep_objectives,
)
from majorfix.cli import _build_problem, main
from majorfix.presets import get_preset

from helpers import (
    lipschitz_increment_holds,
    picard_reference,
    quadratic_radii,
    random_existence_profile,
    reference_check,
)

ZOO_PRESETS = ("multilinear-quadratic", "multilinear-cubic", "multilinear-2d",
               "hammerstein-separable", "hammerstein-lp", "urysohn", "composition")
SCALAR_PRESETS = ("quadratic", "tangency", "contraction",
                  "multilinear-quadratic", "multilinear-cubic")
BETA = (1.0 - math.sqrt(0.9)) / 0.05


def _verdict(name: str, problems: list) -> None:
    print(f"acceptance[{name}]: {'PASS' if not problems else 'FAIL'}")
    assert not problems, f"{name}: " + "; ".join(problems)


def _check(problems: list, condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def quad_profile(a, c):
    return MajorantProfile(a, PowerSumModulus(((2.0 * c, 1.0),)), 1.0)


def test_criterion_1_quadratic_closed_forms():
    problems = []
    for a in (0.1875, 0.25):
        for c in (1.0, 2.0):
            profile = quad_profile(a, c)
            oracle = quadratic_radii(a, c, 1.0)
            if oracle["convergence"] is None:
                try:
                    find_convergence_radius(profile,
                                            find_contraction_radius(profile))
                    problems.append(f"(a={a}, c={c}): existence not refuted")
                except NoExistenceError as exc:
                    _check(problems, abs(exc.gap - oracle["gap"]) <= 1e-10,
                           f"(a={a}, c={c}): gap {exc.gap} vs {oracle['gap']}")
                continue
            r_cr = find_contraction_radius(profile)
            r_conv = find_convergence_radius(profile, r_cr)
            r_inner = find_inner_radius(profile)
            r_uni, closed, degenerate = find_uniqueness_radius(profile, r_conv, r_cr)
            _check(problems, abs(r_conv - oracle["convergence"]) <= 1e-10,
                   f"(a={a}, c={c}): convergence {r_conv}")
            _check(problems, abs(r_inner - oracle["inner"]) <= 1e-10,
                   f"(a={a}, c={c}): inner {r_inner}")
            o_uni, o_closed, o_degenerate = oracle["uniqueness"]
            _check(problems, abs(r_uni - o_uni) <= 1e-10,
                   f"(a={a}, c={c}): uniqueness {r_uni}")
            _check(problems, closed == o_closed and degenerate == o_degenerate,
                   f"(a={a}, c={c}): flags ({closed}, {degenerate})")
    # tangency case collapses all three radii onto 0.5 with the flag set
    tangent = quad_profile(0.25, 1.0)
    report = analyze(tangent)
    for label, value in (("convergence", report.convergence_radius),
                         ("contraction", report.contraction_radius),
                         ("uniqueness", report.uniqueness_radius)):
        _check(problems, abs(value - 0.5) <= 1e-10, f"tangency {label}: {value}")
    _check(problems, report.degenerate, "tangency: degenerate flag missing")
    _verdict("1 quadratic closed forms", problems)


def test_criterion_2_critical_shift_dual_oracle():
    problems = []
    for m in range(2, 6):
        for c in (0.5, 1.0, 2.0):
            closed = (1.0 / (c * m)) ** (1.0 / (m - 1)) * (m - 1) / m
            value = multilinear_critical_shift(c, m)
            _check(problems, abs(value - closed) <= 1e-12,
                   f"(m={m}, C={c}): closed form off by {abs(value - closed)}")
            r_opt = (1.0 / (c * m)) ** (1.0 / (m - 1))
            rs = np.linspace(0.0, 1.5 * r_opt, 1_000_000)
            brute = float(np.max(rs - c * rs**m))
            _check(problems, abs(value - brute) <= 1e-6,
                   f"(m={m}, C={c}): brute force off by {abs(value - brute)}")
    _verdict("2 critical shift dual oracle", problems)


def test_criterion_3_banach_reduction():
    problems = []
    rng = np.random.default_rng(3)
    for i in range(100):
        q = float(rng.uniform(0.005, 0.995))
        a = float(rng.uniform(0.01, 5.0))
        r_star = a / (1.0 - q)
        radius = 1.5 * r_star + 0.1
        report = analyze(MajorantProfile(a, ConstantModulus(q), radius))
        _check(problems, abs(report.convergence_radius - r_star) <= 1e-10,
               f"#{i}: convergence {report.convergence_radius} vs {r_star}")
        _check(problems, abs(report.inner_radius - a / (1.0 + q)) <= 1e-10,
               f"#{i}: inner {report.inner_radius}")
        _check(problems, report.contraction_radius is None,
               f"#{i}: contraction radius should be absent")
        _check(problems,
               report.uniqueness_radius == radius and report.uniqueness_radius_closed,
               f"#{i}: uniqueness zone should close at R")
    _verdict("3 banach reduction", problems)


def test_criterion_4_separable_hammerstein():
    problems = []
    problem = _build_problem(get_preset("hammerstein-separable"))
    handle = problem["handle"]
    report = analyze(handle.profile)
    oracle = quadratic_radii(1.0, 0.05, 3.0)
    _check(problems, abs(report.inner_radius - oracle["inner"]) <= 1e-6,
           f"inner {report.inner_radius} vs oracle {oracle['inner']}")
    _check(problems, abs(report.convergence_radius - oracle["convergence"]) <= 1e-6,
           f"convergence {report.convergence_radius} vs {oracle['convergence']}")
    _check(problems, abs(report.inner_radius - 0.954451) <= 1e-6,
           f"inner {report.inner_radius} vs 0.954451")
    _check(problems, abs(report.convergence_radius - 1.055729) <= 1.1e-6,
           f"convergence {report.convergence_radius} vs 1.055729")
    solution, trace = iterate(handle, handle.center,
                              StoppingRule(bound_tol=1e-8, max_steps=1000))
    _check(problems, trace.status == "converged", f"status {trace.status}")
    sup = float(np.max(np.abs(solution)))
    _check(problems, abs(sup - BETA) <= 1e-6, f"sup {sup} vs beta {BETA}")
    _check(problems, report.inner_radius <= BETA <= report.convergence_radius,
           "beta escapes the certified ring")
    _verdict("4 separable hammerstein end-to-end", problems)


def _steps_for_rate(rate: float, target: float = 1e-14) -> int:
    rate = min(max(rate, 0.05), 0.97)
    return min(1400, max(40, int(math.log(target) / math.log(rate)) + 10))


def test_criterion_5_bound_certification():
    problems = []
    rule = StoppingRule(bound_tol=1e-9, max_steps=3000)
    for name in ZOO_PRESETS + ("quadratic", "contraction", "tangency"):
        handle = _build_problem(get_preset(name))["handle"]
        report = analyze(handle.profile)
        if not report.existence_certified:
            problems.append(f"{name}: existence not certified")
            continue
        rate = handle.profile.slope(report.convergence_radius)
        local_rule = rule if rate < 0.9 else StoppingRule(bound_tol=1e-9,
                                                          max_steps=300)
        _, trace = iterate(handle, handle.center, local_rule, report=report)
        _check(problems, certify_trace(trace).step_ok, f"{name}: step check failed")
        if rate < 0.9:
            x_ref = picard_reference(handle, _steps_for_rate(rate))
            _, failures = reference_check(trace, x_ref, handle.norm)
            _check(problems, not failures,
                   f"{name}: reference check failed ({failures[:2]})")

    rng = np.random.default_rng(5)
    for i in range(1000):
        profile, rho = random_existence_profile(rng)
        handle = build_self_majorizing(profile)
        report = analyze(profile)
        start = np.zeros(1)
        if i % 3 == 1:
            start = np.array([0.5 * rho])
        elif i % 3 == 2 and report.uniqueness_radius > rho * (1.0 + 1e-6):
            start = np.array([min(0.5 * (rho + report.uniqueness_radius),
                                  0.999 * report.uniqueness_radius)])
        _, trace = iterate(handle, start, rule, report=report)
        rate = profile.slope(report.convergence_radius)
        x_ref = picard_reference(handle, _steps_for_rate(rate))
        _, failures = reference_check(trace, x_ref, handle.norm)
        _check(problems, certify_trace(trace).step_ok and not failures,
               f"profile #{i}: certification failed ({failures[:2]})")
        if problems and len(problems) > 5:
            break

    # the deliberately halved modulus must trip the violation detector
    base = MajorantProfile(0.1875, PowerSumModulus(((2.0, 1.0),)), 1.0)
    good = build_self_majorizing(base)
    corrupt = OperatorHandle(
        good.apply, good.center, good.norm,
        MajorantProfile(0.1875, combine_moduli([base.modulus], [0.5]), 1.0))
    try:
        iterate(corrupt, np.zeros(1), rule)
        problems.append("halved modulus not detected")
    except BoundViolationError:
        pass
    _verdict("5 bound certification", problems)


def test_criterion_6_lipschitz_increment_property():
    problems = []
    rng = np.random.default_rng(6)
    for name in ZOO_PRESETS:
        handle = _build_problem(get_preset(name))["handle"]
        try:
            lipschitz_increment_holds(handle, rng, count=200, slack=1e-9)
        except AssertionError as exc:
            problems.append(f"{name}: {exc}")
    _verdict("6 lipschitz increment property", problems)


def test_criterion_7_exclusion_zones():
    problems = []
    for name in SCALAR_PRESETS:
        handle = _build_problem(get_preset(name))["handle"]
        report = analyze(handle.profile)
        if not report.existence_certified:
            problems.append(f"{name}: existence not certified")
            continue
        radius = handle.profile.radius
        xs = np.linspace(-radius, radius, 100_001)
        residual = np.array([float(handle.apply(np.array([x]))[0]) - x for x in xs])
        # a sign change is only localized to its bracket; classify via the
        # bracket's radius range so boundary roots are not misattributed
        crossings = []
        for i in range(xs.size - 1):
            if residual[i] == 0.0:
                crossings.append((abs(xs[i]), abs(xs[i])))
            elif residual[i] * residual[i + 1] < 0.0:
                lo, hi = xs[i], xs[i + 1]
                if lo <= 0.0 <= hi:
                    crossings.append((0.0, max(abs(lo), abs(hi))))
                else:
                    crossings.append((min(abs(lo), abs(hi)),
                                      max(abs(lo), abs(hi))))
        if residual[-1] == 0.0:
            crossings.append((abs(xs[-1]), abs(xs[-1])))
        for rho_lo, rho_hi in crossings:
            _check(problems, rho_hi >= report.inner_radius - 1e-6,
                   f"{name}: fixed point at radius <= {rho_hi} inside the "
                   f"inner ball")
            inside_annulus = (rho_lo > report.convergence_radius + 1e-6
                              and rho_hi < report.uniqueness_radius - 1e-6)
            _check(problems, not inside_annulus,
                   f"{name}: fixed point near radius {rho_lo} inside the "
                   f"uniqueness annulus")
    _verdict("7 exclusion zones", problems)


def _envelope(profile, start, count):
    """Iterates of the upper majorant: [start, upper(start), ...]."""
    values = [start]
    for _ in range(count):
        values.append(profile.upper(values[-1]))
    return values


def test_criterion_8_monotone_sequences():
    problems = []
    rng = np.random.default_rng(8)
    for i in range(1000):
        profile, rho = random_existence_profile(rng)
        report = analyze(profile)
        rate = profile.slope(report.convergence_radius)
        count = _steps_for_rate(rate)
        center = _envelope(profile, 0.0, count)
        _check(problems,
               all(b >= a - 1e-15 for a, b in zip(center, center[1:])),
               f"#{i}: center envelope not nondecreasing")
        _check(problems, abs(center[-1] - report.convergence_radius) <= 1e-9,
               f"#{i}: center envelope limit {center[-1]} vs "
               f"{report.convergence_radius}")
        below = _envelope(profile, 0.5 * rho, count)
        _check(problems,
               all(b >= a - 1e-15 for a, b in zip(below, below[1:])),
               f"#{i}: start envelope from below not nondecreasing")
        _check(problems,
               all(s >= c - 1e-15 for s, c in zip(below, center)),
               f"#{i}: start envelope dips under the center envelope")
        upper_room = min(report.uniqueness_radius, profile.radius)
        if upper_room > rho * (1.0 + 1e-9):
            start = min(0.5 * (rho + upper_room), 0.999 * upper_room)
            above = _envelope(profile, start, count)
            _check(problems,
                   all(b <= a + 1e-15 for a, b in zip(above, above[1:])),
                   f"#{i}: start envelope from above not nonincreasing")
            _check(problems, above[-1] >= report.convergence_radius - 1e-9,
                   f"#{i}: envelope from above undershoots the limit")
        if problems and len(problems) > 5:
            break
    _verdict("8 monotone sequences", problems)


def test_criterion_9_zaanen_estimator():
    problems = []
    grid = Grid.simpson(0.0, 1.0, 101)
    constant = KernelTable.from_function(grid, lambda t, s: np.ones_like(t))
    product = KernelTable.from_function(grid, lambda t, s: t * s)
    est_constant = zaanen_norm_estimate(constant, 2.0, 2.0)
    est_product = zaanen_norm_estimate(product, 2.0, 2.0)
    _check(problems, abs(est_constant - 1.0) <= 0.01,
           f"constant kernel estimate {est_constant}")
    _check(problems, abs(est_product - 1.0 / 3.0) <= 0.01 / 3.0,
           f"product kernel estimate {est_product}")
    for table in (constant, product):
        sweeps = zaanen_sweep_objectives(table, 2.0, 2.0, 50)
        _check(problems,
               all(b >= a - 1e-13 for a, b in zip(sweeps, sweeps[1:])),
               "objective trail decreased between sweeps")
    _verdict("9 zaanen estimator", problems)


def test_criterion_10_cli_round_trip(tmp_path):
    problems = []

    def run(args):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(args)
        return code, buffer.getvalue()

    out = tmp_path / "zones.csv"
    code, _ = run(["zones", "--preset", "quadratic", "--out", str(out),
                   "--samples", "201"])
    _check(problems, code == 0, f"zones exit code {code}")
    profile = MajorantProfile(0.1875, PowerSumModulus(((2.0, 1.0),)), 1.0)
    with out.open() as fh:
        for row in csv.DictReader(fh):
            upper, lower = eval_majorants(profile, float(row["r"]))
            if abs(float(row["a_plus"]) - upper) > 1e-12 \
                    or abs(float(row["a_minus"]) - lower) > 1e-12:
                problems.append(f"round trip mismatch at r={row['r']}")
                break

    code, _ = run(["analyze", "--preset", "quadratic"])
    _check(problems, code == 0, f"success scenario exit {code}")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "unknown"}))
    code, _ = run(["analyze", "--config", str(bad)])
    _check(problems, code == 2, f"config error scenario exit {code}")
    code, _ = run(["solve", "--preset", "quadratic", "--start-offset", "0.9"])
    _check(problems, code == 3, f"inadmissible scenario exit {code}")
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text(json.dumps({
        "kind": "scalar_profile", "center_shift": 0.1875,
        "modulus": {"type": "power_sum", "terms": [[2.0, 1.0]]},
        "radius": 1.0, "modulus_scale": 0.5}))
    code, _ = run(["solve", "--config", str(corrupt),
                   "--out", str(tmp_path / "t.json")])
    _check(problems, code == 4, f"bound violation scenario exit {code}")
    _verdict("10 cli round trip", problems)
