"""Batch front end: analyze / solve / zones / compare on problem configs.

Configs are JSON documents (see README for the schema); demo problems ship
as named presets so every scenario is reproducible from one command.  Exit
codes: 0 success (a certified no-existence analysis is success), 2 config
error, 3 inadmissible start, 4 bound violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .discretize import Grid, KernelTable, zaanen_norm_estimate
from .errors import (
    BoundViolationError,
    ConfigError,
    InadmissibleStartError,
    NoExistenceError,
)
from .iteration import OperatorHandle, StoppingRule, certify_trace, iterate
from .majorant import MajorantProfile, ZoneReport, analyze, eval_majorants
from .moduli import ConstantModulus, PowerSumModulus, TabulatedModulus, combine_moduli
from .operators import (
    CompositionSpec,
    HammersteinSpec,
    HammersteinTerm,
    LipschitzPairSet,
    MultilinearSpec,
    UrysohnSpec,
    build_composition,
    build_hammerstein_lp,
    build_hammerstein_sup,
    build_multilinear,
    build_self_majorizing,
    build_superposition_modulus,
    build_urysohn,
    multilinear_critical_shift,
)
from .presets import (
    COMPOSITION_INNER,
    COMPOSITION_OUTER,
    FORCINGS,
    KERNELS,
    LP_NONLINEARITIES,
    NONLINEARITIES,
    URYSOHN_KERNELS,
    _KERNEL_FACTORS,
    get_preset,
    preset_names,
)

__all__ = ["main", "entrypoint", "run_analyze", "run_solve", "run_zones", "run_compare"]

_FAMILY_FACTORS = (0.5, 0.9, 1.0, 1.25)
_ZAANEN_INFLATION = 1.05
# the keys each nested config object may hold
_GRID_KEYS = ("rule", "n")
_MODULUS_KEYS = {"constant": ("type", "value"), "power_sum": ("type", "terms"),
                 "tabulated": ("type", "abscissae", "ordinates")}
_TERM_KEYS = ("kernel", "kernel_csv", "nonlinearity")
_LP_TERM_KEYS = _TERM_KEYS + ("q", "pairs", "zaanen_norm")


# ---------------------------------------------------------------------------
# config validation and problem building
# ---------------------------------------------------------------------------

def _fail(message: str) -> None:
    raise ConfigError(message)


def _lookup(table: dict, name, what: str):
    if not isinstance(name, str) or name not in table:
        _fail(f"unknown {what} {name!r}; available: {sorted(table)}")
    return table[name]


def _check_keys(doc: dict, allowed, what: str) -> None:
    for key in doc:
        if key not in allowed:
            _fail(f"unknown key {key!r} in {what}; allowed: {sorted(allowed)}")


def _numbers(config: dict, key: str) -> np.ndarray:
    """A number or nested list of numbers as floats; no strings, booleans or nulls."""
    if key not in config:
        _fail(f"missing required field {key!r}")
    value = config[key]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in np.asarray(value, dtype=object).ravel()):
        _fail(f"field {key!r} must be a number or a list of numbers")
    return np.asarray(value, dtype=float)


def _number(config: dict, key: str, *, positive=False, nonnegative=False) -> float:
    value = _numbers(config, key)
    if value.ndim or not math.isfinite(value):
        _fail(f"field {key!r} must be a finite number, got {config[key]!r}")
    value = float(value)
    if positive and value <= 0.0:
        _fail(f"field {key!r} must be > 0, got {value!r}")
    if nonnegative and value < 0.0:
        _fail(f"field {key!r} must be >= 0, got {value!r}")
    return value


def _pairs(config: dict, key: str) -> tuple[tuple[float, float], ...]:
    pairs = _numbers(config, key)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or not len(pairs):
        _fail(f"field {key!r} must be a nonempty list of number pairs")
    return tuple(map(tuple, pairs.tolist()))


def _center(config: dict):
    return None if config.get("x0") is None else _numbers(config, "x0")


def _build_modulus(doc) -> ConstantModulus | PowerSumModulus | TabulatedModulus:
    if not isinstance(doc, dict) or "type" not in doc:
        _fail("modulus must be an object with a 'type' field")
    kind = doc["type"]
    _check_keys(doc, _lookup(_MODULUS_KEYS, kind, "modulus type"), f"{kind} modulus")
    if kind == "constant":
        return ConstantModulus(_number(doc, "value", nonnegative=True))
    if kind == "power_sum":
        return PowerSumModulus(_pairs(doc, "terms"))
    return TabulatedModulus(_numbers(doc, "abscissae"), _numbers(doc, "ordinates"))


def _build_grid(config: dict) -> Grid:
    doc = config.get("grid", {"rule": "simpson", "n": 101})
    if not isinstance(doc, dict):
        _fail("'grid' must be an object")
    _check_keys(doc, _GRID_KEYS, "grid")
    rule = doc.get("rule", "simpson")
    n = doc.get("n", 101)
    if not isinstance(n, int) or isinstance(n, bool):
        _fail(f"grid node count must be an integer, got {n!r}")
    interval = _numbers(config, "interval") if "interval" in config else [0.0, 1.0]
    if np.shape(interval) != (2,):
        _fail("'interval' must be a pair of numbers")
    if rule not in ("simpson", "trapezoid"):
        _fail(f"unknown quadrature rule {rule!r}")
    return getattr(Grid, rule)(float(interval[0]), float(interval[1]), n)


def _resolve_kernel(term: dict, grid: Grid):
    if "kernel_csv" in term:
        path = Path(term["kernel_csv"])
        if not path.exists():
            _fail(f"kernel CSV {path} does not exist")
        return KernelTable.from_csv(path, grid)
    kernel = term.get("kernel")
    if isinstance(kernel, str):
        fn = _lookup(KERNELS, kernel, "kernel")
        factors = _KERNEL_FACTORS[kernel](grid.nodes)
        if factors is None:
            return KernelTable.from_function(grid, fn)
        # builds read it a block of rows at a time, Zaanen sweeps it whole
        return KernelTable._unsampled(grid, fn)._with_factors(*factors)
    if isinstance(kernel, list):
        return KernelTable(grid, _numbers(term, "kernel"))
    _fail("each term needs a 'kernel' (name or matrix) or 'kernel_csv'")


def _scalar_profile(config: dict, radius: float):
    profile = MajorantProfile(_number(config, "center_shift", nonnegative=True),
                              _build_modulus(config.get("modulus")), radius)
    return build_self_majorizing(profile), {}


def _multilinear(config: dict, radius: float):
    dimension = config.get("dimension", 1)
    degree = config.get("degree")
    if not all(type(v) is int for v in (dimension, degree)):
        _fail("multilinear needs integer 'dimension' and 'degree'")
    tensor = (_number(config, "coefficient") if dimension == 1
              else _numbers(config, "tensor"))
    operator_norm = (None if config.get("operator_norm") is None
                     else _number(config, "operator_norm"))
    spec = MultilinearSpec(
        dimension=dimension, degree=degree, tensor=tensor,
        constant=_numbers(config, "constant"), operator_norm=operator_norm)
    handle = build_multilinear(spec, radius)
    shift = handle.profile.center_shift
    critical = multilinear_critical_shift(
        handle.profile.modulus.terms[0][0] / degree, degree)
    return handle, {"multilinear": {"center_shift": shift, "critical_shift": critical,
                                    "solvable": shift <= critical}}


def _hammerstein_spec(config: dict, grid: Grid, make_term) -> HammersteinSpec:
    """Lambda, terms and forcing; make_term turns one term into a HammersteinTerm."""
    lam = _number(config, "lambda")
    terms = config.get("terms")
    if (not isinstance(terms, list) or not terms
            or not all(isinstance(term, dict) for term in terms)):
        _fail("'terms' must be a nonempty list of objects")
    forcing = config.get("forcing", "zero")
    forcing = (_lookup(FORCINGS, forcing, "forcing") if isinstance(forcing, str)
               else _numbers(config, "forcing"))
    return HammersteinSpec(tuple(make_term(term) for term in terms), lam, forcing)


def _hammerstein_c(config: dict, radius: float):
    grid = _build_grid(config)

    def make_term(term: dict) -> HammersteinTerm:
        _check_keys(term, _TERM_KEYS, "term")
        fn, modulus = _lookup(NONLINEARITIES, term.get("nonlinearity"), "nonlinearity")
        return HammersteinTerm(_resolve_kernel(term, grid), fn, modulus)

    spec = _hammerstein_spec(config, grid, make_term)
    handle = build_hammerstein_sup(spec, grid, radius, center=_center(config))
    return handle, {"grid": {"rule": grid.rule, "n": grid.n}}


def _hammerstein_lp(config: dict, radius: float):
    grid = _build_grid(config)
    p = _number(config, "p")
    norms = []

    def make_term(term: dict) -> HammersteinTerm:
        _check_keys(term, _LP_TERM_KEYS, "term")
        fn, default_pairs = _lookup(LP_NONLINEARITIES, term.get("nonlinearity"),
                                    "L_p nonlinearity")
        q = _number(term, "q") if "q" in term else p
        pairs = LipschitzPairSet(_pairs(term, "pairs") if "pairs" in term
                                 else default_pairs)
        # build_superposition_modulus rejects p <= 1 before anything divides by p - 1
        modulus = build_superposition_modulus(pairs, p, q, grid.upper - grid.lower)
        kernel = _resolve_kernel(term, grid)
        if "zaanen_norm" in term:
            norms.append(_number(term, "zaanen_norm"))
        elif q <= 1.0:
            _fail("Zaanen estimation needs q > 1; supply 'zaanen_norm' for this term")
        else:
            norms.append(_ZAANEN_INFLATION
                         * zaanen_norm_estimate(kernel, q, p / (p - 1.0)))
        return HammersteinTerm(kernel, fn, modulus)

    spec = _hammerstein_spec(config, grid, make_term)
    handle = build_hammerstein_lp(spec, norms, p, grid, radius, center=_center(config))
    return handle, {"grid": {"rule": grid.rule, "n": grid.n}}


def _declared_shape(*parts: dict) -> str:
    """convex when every named registry part declares it, else monotone."""
    return ("convex" if all(part.get("shape") == "convex" for part in parts)
            else "monotone")


def _urysohn(config: dict, radius: float):
    grid = _build_grid(config)
    demo = _lookup(URYSOHN_KERNELS, config.get("kernel"), "Urysohn kernel")
    spec = UrysohnSpec(demo["kernel"], demo["u_modulus"], demo["v_modulus"],
                       _declared_shape(demo))
    handle = build_urysohn(spec, grid, radius, center=_center(config))
    return handle, {"grid": {"rule": grid.rule, "n": grid.n}}


def _composition(config: dict, radius: float):
    grid = _build_grid(config)
    outer = _lookup(COMPOSITION_OUTER, config.get("outer"), "outer map")
    inner = _lookup(COMPOSITION_INNER, config.get("inner"), "inner kernel")
    spec = CompositionSpec(outer["outer"], outer["u_modulus"], outer["v_modulus"],
                           inner["kernel"], inner["bound"], inner["modulus"],
                           _declared_shape(outer, inner))
    handle = build_composition(spec, grid, radius, center=_center(config))
    return handle, {"grid": {"rule": grid.rule, "n": grid.n}}


# kind -> builder(config, radius) -> (handle, keys added to the analyze document)
_BUILDERS = {"multilinear": _multilinear, "hammerstein_c": _hammerstein_c,
             "hammerstein_lp": _hammerstein_lp, "urysohn": _urysohn,
             "composition": _composition, "scalar_profile": _scalar_profile}
KINDS = tuple(_BUILDERS)


def _build_problem(config: dict) -> dict:
    """Validate the config and build the handle it describes.  A
    TypeError, ValueError or OverflowError (the library's argument checks,
    float() of a JSON number) is a config error; any other fault propagates."""
    if not isinstance(config, dict):
        _fail("config must be a JSON object")
    kind = config.get("kind")
    if kind not in KINDS:
        _fail(f"unknown problem kind {kind!r}; expected one of {KINDS}")
    try:
        radius = _number(config, "radius", positive=True)
        handle, extras = _BUILDERS[kind](config, radius)
        if config.get("modulus_scale") is not None:
            scale = _number(config, "modulus_scale", positive=True)
            old = handle.profile
            profile = MajorantProfile(old.center_shift,
                                      combine_moduli([old.modulus], [scale]), old.radius)
            handle = OperatorHandle(handle.apply, handle.center, handle.norm, profile)
    except (TypeError, ValueError, OverflowError) as exc:
        _fail(f"invalid {kind} config: {exc}")
    return {"kind": kind, "handle": handle, "extras": extras}


def _analyzed(config: dict) -> tuple[dict, ZoneReport]:
    problem = _build_problem(config)
    return problem, analyze(problem["handle"].profile)


# ---------------------------------------------------------------------------
# document assembly
# ---------------------------------------------------------------------------

def _radii_doc(report: ZoneReport, radius: float) -> dict:
    return {
        "inner_radius": report.inner_radius,
        "convergence_radius": report.convergence_radius,
        "uniqueness_radius": report.uniqueness_radius,
        "uniqueness_radius_closed": report.uniqueness_radius_closed,
        "degenerate": report.degenerate,
        "contraction_radius": report.contraction_radius,
        "domain_radius": radius,
    }


def _zones_doc(report: ZoneReport) -> dict:
    return {
        "existence_zone": report.existence_zone.to_dict(),
        "uniqueness_zone": report.uniqueness_zone.to_dict(),
        "contraction_zone": report.contraction_zone.to_dict(),
    }


def run_analyze(config: dict) -> dict:
    """Build the problem, run the zone analysis, and emit the certificate.

    A no-existence outcome is a valid certificate, not an error: the
    document carries the flag and the minimized-gap witness.
    """
    problem, report = _analyzed(config)
    document = {
        "kind": problem["kind"],
        "existence_certified": report.existence_certified,
        "radii": _radii_doc(report, problem["handle"].profile.radius),
        "zones": _zones_doc(report),
        "gap_witness": None,
    }
    if not report.existence_certified:
        document["gap_witness"] = {"gap": report.gap, "argmin": report.gap_argmin}
    document.update(problem["extras"])
    return document


def run_solve(config: dict, bound_tol: float = 1e-10, max_steps: int = 1000,
              start_offset: float = 0.0) -> dict:
    """Run the certified iteration and emit the step-by-step trace.

    A bound violation still produces a document (status bound_violated with
    the offending step as the diagnostic row); the caller maps it to exit
    code 4.  A profile with no fixed point raises NoExistenceError from
    iterate (exit code 3).
    """
    try:
        rule = StoppingRule(bound_tol=bound_tol, max_steps=max_steps)
    except ValueError as exc:
        _fail(str(exc))
    _number({"start_offset": start_offset}, "start_offset", nonnegative=True)
    problem, report = _analyzed(config)
    handle = problem["handle"]
    xi0 = handle.center
    if start_offset:
        direction = np.ones_like(handle.center)
        xi0 = handle.center + direction * (start_offset / handle.norm(direction))
    document = {
        "kind": problem["kind"],
        "radii": _radii_doc(report, handle.profile.radius),
        "start_offset": float(handle.norm(xi0 - handle.center)),
        "status": None,
        "steps": [],
        "final_bound": None,
        "solution": None,
        "certification": None,
    }
    try:
        solution, trace = iterate(handle, xi0, rule, report=report)
    except BoundViolationError as exc:
        document["status"] = "bound_violated"
        document["steps"] = [rec.to_dict() for rec in exc.trace.steps]
        document["diagnostic"] = {
            "message": str(exc),
            "step": exc.record.to_dict(),
            "observed_step_norm": exc.record.step_norm,
            "certified_step_bound": exc.record.step_bound,
        }
        return document
    document["status"] = trace.status
    document["steps"] = [rec.to_dict() for rec in trace.steps]
    document["final_bound"] = trace.final_bound
    document["solution"] = [float(v) for v in np.atleast_1d(solution)]
    document["certification"] = asdict(certify_trace(trace))
    return document


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_zones(config: dict, samples: int, out: Path) -> dict:
    """Write the curve table (r, a_plus, a_minus, bisectrix), a companion
    marker table, and, for multilinear problems, a family sweep of upper
    majorants across sub- and supercritical center shifts."""
    if samples < 2:
        _fail("--samples must be >= 2")
    problem, report = _analyzed(config)
    profile = problem["handle"].profile
    out = Path(out)

    rows = []
    for r in np.linspace(0.0, profile.radius, samples):
        upper, lower = eval_majorants(profile, float(r))
        rows.append((float(r), upper, lower, float(r)))
    _write_csv(out, ["r", "a_plus", "a_minus", "bisectrix"], rows)
    files = [str(out)]

    markers_path = out.with_name(out.stem + ".markers" + (out.suffix or ".csv"))
    markers = [(name, getattr(report, name), "closed")
               for name in ("inner_radius", "convergence_radius", "contraction_radius")
               if getattr(report, name) is not None]
    if report.uniqueness_radius is not None:
        boundary = "closed" if report.uniqueness_radius_closed else "open"
        markers.append(("uniqueness_radius", report.uniqueness_radius, boundary))
    markers.append(("domain_radius", profile.radius, "closed"))
    _write_csv(markers_path, ["name", "value", "boundary"], markers)
    files.append(str(markers_path))

    if problem["kind"] == "multilinear":
        critical = problem["extras"]["multilinear"]["critical_shift"]
        shifts = [factor * critical for factor in _FAMILY_FACTORS]
        family_path = out.with_name(out.stem + ".family" + (out.suffix or ".csv"))
        header = ["r"] + [f"a_plus@shift={shift:.12g}" for shift in shifts]
        family_rows = []
        for r in np.linspace(0.0, profile.radius, samples):
            integral = profile.modulus_integral(float(r))
            family_rows.append((float(r), *[shift + integral for shift in shifts]))
        _write_csv(family_path, header, family_rows)
        files.append(str(family_path))

    return {"kind": problem["kind"], "rows": samples, "files": files,
            "existence_certified": report.existence_certified}


def run_compare(config: dict) -> dict:
    """Contrast the classical contraction zone with the majorization zones."""
    problem, report = _analyzed(config)
    contraction, uniqueness = report.contraction_zone, report.uniqueness_zone
    wider = (uniqueness.contains_interval(contraction)
             and not contraction.contains_interval(uniqueness))
    return {
        "kind": problem["kind"],
        "existence_certified": report.existence_certified,
        "contraction_zone": contraction.to_dict(),
        "uniqueness_zone": uniqueness.to_dict(),
        "existence_zone": report.existence_zone.to_dict(),
        "banach_applicable": not contraction.is_empty(),
        "majorization_strictly_wider": wider,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _load_config(args) -> dict:
    if bool(args.config) == bool(args.preset):
        _fail("exactly one of --config or --preset is required")
    if args.preset:
        try:
            return get_preset(args.preset)
        except KeyError as exc:
            _fail(str(exc.args[0]))
    path = Path(args.config)
    if not path.exists():
        _fail(f"config file {path} does not exist")
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        _fail(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        _fail(f"config file {path} must hold a JSON object")
    return config


def _record_rows(records) -> str | None:
    """The rows of a list of flat records at depth 1 of a document, as
    json.dumps(indent=2) lays them out; None unless every record holds the
    same string keys in the same order and only ints and floats.

    An indent sends json.dumps to its pure-Python encoder, so the values go
    through one compact dump (the C encoder) and are split on ", ", which no
    JSON number, NaN or Infinity contains; each row is then filled into one
    template.
    """
    if not isinstance(records, list) or not records or type(records[0]) is not dict:
        return None
    keys = list(records[0])
    if (not keys or not all(type(key) is str for key in keys)
            or not all(type(row) is dict and list(row) == keys for row in records)):
        return None
    values = [value for row in records for value in row.values()]
    if not all(issubclass(t, (int, float)) for t in set(map(type, values))):
        return None
    template = "    {\n" + ",\n".join(
        "      " + json.dumps(key).replace("%", "%%") + ": %s" for key in keys) + "\n    }"
    parts = json.dumps(values)[1:-1].split(", ")
    width = len(keys)
    return ",\n".join(template % tuple(parts[i:i + width])
                       for i in range(0, len(parts), width))


def _document_text(document: dict) -> str:
    """json.dumps(document, indent=2), with a solve trace's steps rendered
    by _record_rows and its solution, a list of floats, through one compact
    dump (the C encoder) split on ", " as _record_rows does."""
    parts = {}
    solution = document.get("solution")
    if type(solution) is list and solution and all(type(v) is float for v in solution):
        parts["solution"] = "[\n    " + json.dumps(solution)[1:-1].replace(", ", ",\n    ") + "\n  ]"
    rows = _record_rows(document.get("steps"))
    if rows is not None:
        parts["steps"] = "[\n" + rows + "\n  ]"
    text = json.dumps({**document, **dict.fromkeys(parts, [])}, indent=2)
    # at indent 2, a line opening with two spaces and a quote is a top-level
    # key; the solution goes in first, while the text is short
    for key, part in parts.items():
        text = text.replace(f'\n  "{key}": []', f'\n  "{key}": {part}', 1)
    return text


def _emit(document: dict, out: str | None) -> None:
    text = _document_text(document)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: parse_args leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="majorfix",
        description="Certified fixed-point analysis and iteration on "
                    "majorant profiles and discretized integral equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "emit the zone certificate for a problem"),
        ("solve", "run the certified iteration and emit the trace"),
        ("zones", "export curve and marker tables for the zone diagram"),
        ("compare", "contrast the contraction zone with the majorization zones"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="path to a JSON problem config")
        cmd.add_argument("--preset", help=f"named preset ({', '.join(preset_names())})")
        cmd.add_argument("--out", help="output path (default: stdout)")
        if name == "solve":
            cmd.add_argument("--bound-tol", type=float, default=1e-10,
                             help="stop once the a-priori bound drops below this")
            cmd.add_argument("--max-steps", type=int, default=1000)
            cmd.add_argument("--start-offset", type=float, default=0.0,
                             help="distance of the initial iterate from the center")
        if name == "zones":
            cmd.add_argument("--samples", type=int, default=201,
                             help="number of radius samples in the curve table")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _load_config(args)
        if args.command == "analyze":
            _emit(run_analyze(config), args.out)
        elif args.command == "solve":
            document = run_solve(config, bound_tol=args.bound_tol,
                                 max_steps=args.max_steps,
                                 start_offset=args.start_offset)
            _emit(document, args.out)
            if document["status"] == "bound_violated":
                print("bound violation: " + document["diagnostic"]["message"],
                      file=sys.stderr)
                return 4
        elif args.command == "zones":
            if not args.out:
                _fail("zones requires --out (CSV destination)")
            summary = run_zones(config, args.samples, Path(args.out))
            print(json.dumps(summary, indent=2))
        else:
            _emit(run_compare(config), args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InadmissibleStartError as exc:
        print(f"inadmissible start: {exc}", file=sys.stderr)
        return 3
    except NoExistenceError as exc:
        # solve on a supercritical problem: no admissible start exists
        print(f"cannot iterate: {exc}", file=sys.stderr)
        return 3
    return 0


def entrypoint() -> None:
    sys.exit(main())
