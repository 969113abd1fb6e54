"""The majorfix benchmark: certificate throughput and latency on three workloads.

    python3 perfbench/run.py --workload scalar-certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

Run from the root of a source checkout; majorfix is imported from ./src.
One process runs one workload as a closed loop with a single caller: each
problem is one in-process call of majorfix.cli.main on a generated config
file, and the next call starts once the previous document is written and
checked.  The loop makes whole passes over the workload's problem list
until --seconds of timed call time have passed (and at least the
workload's minimum number of passes).  Only the calls are timed; input
generation, the oracles and the host-speed calibration slices of speed.py
run between them.  The timed metrics are wall times scaled to a host of
fixed speed (see speed.py); the raw wall figures are printed beside them.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
untraced and half traced, prints the per-layer metrics and the tracing
overhead, and writes the spans to .perfbench/spans-<workload>.csv.  The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics.
"""

from __future__ import annotations

import os

# One process and one BLAS thread: the load stays within two cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (BOUND_TOL, MAX_STEPS, SPEED_PARTS, ZONE_SAMPLES,  # noqa: E402
                       generate)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 11
# Importing runs module code and reads files, whatever the workload.
IMPORT_SPEED_PARTS = ("python", "stdlib", "kernel")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def blas_record() -> tuple[str, str]:
    """BLAS library name/version and the thread count it reports."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    # numpy wheels bundle their BLAS next to the package; CDLL returns the
    # copy numpy already loaded, so the count is the one numpy uses
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return name, f"{fn()} (reported by {symbol})"
    return name, f"{BLAS_THREADS} (requested)"


def print_environment(seed: int, workload) -> None:
    blas, threads = blas_record()
    print(f"env git_commit={git_commit()} seed={seed}")
    print(f"env python={platform.python_version()} numpy={np.__version__} "
          f"blas={blas!r} blas_threads={threads} nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} processes=1")
    kinds = Counter(f"{p.label.split('/')[0]}:{p.command}" for p in workload.problems)
    print(f"env workload={workload.name} problems_per_pass={len(workload.problems)} "
          f"min_passes={workload.min_passes} kinds="
          + ",".join(f"{k}={v}" for k, v in sorted(kinds.items())))


# ---------------------------------------------------------------------------
# one problem
# ---------------------------------------------------------------------------

class Runner:
    """Issues one problem at a time through cli.main and checks its output."""

    def __init__(self, majorfix, workload, work: Path):
        self.cli = majorfix.cli
        self.workload = workload
        self.tracer: Tracer | None = None
        self.calls = 0
        self.argv = {}
        for p in workload.problems:
            out = work / (f"z{p.pid}.csv" if p.command == "zones" else f"o{p.pid}.json")
            if p.config is not None:
                config = work / f"c{p.pid}.json"
                config.write_text(json.dumps(p.config))
                source = ["--config", str(config)]
            else:
                source = ["--preset", p.preset]
            self.argv[p.pid] = ([p.command, *source, "--out", str(out), *p.options], out)

    def outputs(self, out: Path) -> list[Path]:
        if out.suffix == ".json":
            return [out]
        return [out, out.with_name(out.stem + ".markers.csv"),
                out.with_name(out.stem + ".family.csv")]

    def run(self, problem):
        """Returns (seconds, errors, certificate fields)."""
        argv, out = self.argv[problem.pid]
        for path in self.outputs(out):
            path.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        crash = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter_ns()
            try:
                if self.tracer is None:
                    code = self.cli.main(argv)
                else:
                    self.tracer.problem_id = self.calls
                    code = self.tracer.call("cli.main", self.cli.main, argv)
            except Exception:  # a raising call is a failed problem, not a crash
                code, crash = None, traceback.format_exc(limit=3)
            t1 = time.perf_counter_ns()
        self.calls += 1
        if self.tracer is not None:
            self.tracer.counts["cli.output_bytes"] += sum(
                p.stat().st_size for p in self.outputs(out) if p.exists())
        if crash is not None:
            return (t1 - t0) / 1e9, [f"cli.main raised: {crash}"], ["raised"]
        errors: list = []
        try:
            fields = self.check(problem, code, stdout.getvalue(), out, errors)
        except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
            errors.append(f"malformed output: {exc!r}")
            fields = ["malformed"]
        return (t1 - t0) / 1e9, errors, fields

    def check(self, problem, code, stdout, out, errors) -> list:
        exp = problem.expected
        if exp is None:
            exp = self.expected_from_document(problem, out)
        want = 3 if problem.command == "solve" and not exp.existence else 0
        if code != want:
            errors.append(f"exit code {code}, expected {want}")
            return [problem.command, str(code)]
        if problem.command == "zones":
            summary = json.loads(stdout)
            markers = oracles.check_zone_tables(
                summary["files"], problem.model, exp, ZONE_SAMPLES,
                problem.family_table, errors)
            return oracles.certificate_fields("zones", code, None, markers)
        if code == 3:
            if out.exists():
                errors.append("a document was written for exit code 3")
            return oracles.certificate_fields("solve", code, None, [])
        doc = json.loads(out.read_text())
        if problem.command == "analyze":
            oracles.check_analyze(doc, exp, errors)
            self.check_extras(problem, doc, exp, errors)
        elif problem.command == "compare":
            oracles.check_compare(doc, exp, errors)
        else:
            oracles.check_radii(doc["radii"], exp, errors)
            oracles.check_steps(doc, errors, MAX_STEPS, BOUND_TOL)
            width = exp.widths["convergence_radius"]
            oracles.check_solution(doc, problem.x_ref, problem.start, errors,
                                   width if np.ndim(problem.x_ref) == 0 else 0.0)
        return oracles.certificate_fields(problem.command, code, doc, None)

    def expected_from_document(self, problem, out):
        """8-d multilinear: the closed forms use the program's own norm C,
        read back from critical_shift = 1 / (4 C)."""
        doc = json.loads(out.read_text())
        critical = doc["multilinear"]["critical_shift"]
        model = problem.model
        model = oracles.quadratic_model(model.a, 0.0, 1.0 / (4.0 * critical), model.R)
        problem.model = model
        return oracles.expected_radii(model)

    def check_extras(self, problem, doc, exp, errors) -> None:
        config = problem.config or {}
        if "grid" in config and doc.get("grid") != config["grid"]:
            errors.append("grid record differs from the config")
        extra = doc.get("multilinear")
        if extra is not None:
            if abs(extra["center_shift"] - problem.model.a) > 1e-12 * max(1.0, problem.model.a):
                errors.append("multilinear center_shift differs from ||eta||")
            if extra["solvable"] != exp.existence:
                errors.append("multilinear solvable flag differs from existence")


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Phase:
    def __init__(self):
        self.latencies: list[float] = []   # wall seconds of each call
        self.marks: list[int] = []         # the speed slice before each call
        self.digests: list[str] = []
        self.failures: list = []
        self.failed = 0

    @property
    def timed(self) -> float:
        return math.fsum(self.latencies)

    def scaled(self, speed: Speedometer | None) -> list[float]:
        """Call times on the scale of speed.py (wall times without one)."""
        if speed is None:
            return list(self.latencies)
        return [dt * speed.factor(k) for dt, k in zip(self.latencies, self.marks)]

    def problems_per_s(self, speed: Speedometer | None) -> float:
        """Documents per second of timed call time, over whole passes."""
        return len(self.latencies) / math.fsum(self.scaled(speed))


def run_passes(runner: Runner, seconds: float, min_passes: int,
               before_pass=None, speed: Speedometer | None = None) -> Phase:
    phase = Phase()
    while len(phase.digests) < min_passes or phase.timed < seconds:
        if before_pass is not None:
            before_pass()
        digest = oracles.Digest()
        for problem in runner.workload.problems:
            dt, errors, fields = runner.run(problem)
            phase.latencies.append(dt)
            phase.marks.append(speed.mark(dt) if speed is not None else 0)
            digest.add(problem.pid, fields)
            if errors:
                phase.failed += 1
                if len(phase.failures) < 20:
                    phase.failures.append((problem, errors))
        phase.digests.append(digest.hexdigest())
    if speed is not None:
        speed.finish()
    return phase


def warm_up_set(problems) -> list:
    """The cheapest problem of each (family, command)."""
    chosen: dict = {}
    for p in problems:
        key = (p.label.split("/")[0], p.command)
        if key not in chosen or p.cost < chosen[key].cost:
            chosen[key] = p
    return list(chosen.values())


class WarmUp:
    """Runs the warm-up set and keeps its wall times.

    It runs before each of the first SETUP_REPEATS passes rather than all at
    once, so that its repeats meet the same host contention as the passes;
    set-up time takes their median."""

    def __init__(self, runner: Runner, speed: Speedometer):
        self.runner = runner
        self.speed = speed
        self.problems = warm_up_set(runner.workload.problems)
        self.times: list[float] = []
        self.marks: list[int] = []
        self.failures: list = []

    def __call__(self) -> None:
        if len(self.times) >= SETUP_REPEATS:
            return
        total = 0.0
        for p in self.problems:
            dt, errors, _ = self.runner.run(p)
            total += dt
            if errors:
                self.failures.append((p, errors))
        self.times.append(total)
        self.marks.append(self.speed.mark(total))

    def scaled(self) -> list[float]:
        return [t * self.speed.factor(k) for t, k in zip(self.times, self.marks)]


def tail_percentile(min_samples: int) -> float:
    """Highest ladder percentile that leaves ten samples beyond it."""
    for pct in TAIL_LADDER:
        if min_samples - math.ceil(pct / 100.0 * min_samples) >= 10:
            return pct
    raise ValueError("too few samples for any tail percentile")


def percentile(sorted_values, pct: float) -> float:
    return sorted_values[max(math.ceil(pct / 100.0 * len(sorted_values)) - 1, 0)]


def report_failures(failures) -> None:
    for problem, errors in failures[:10]:
        print(f"FAILED pid={problem.pid} {problem.label} {problem.command}: "
              + "; ".join(errors[:3]))


def metric_line(name, value, unit, note="") -> None:
    print(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def import_majorfix():
    """Imports majorfix afresh; returns the package and the seconds it took.

    The first call also loads the standard-library modules majorfix uses;
    later calls drop majorfix's own modules and execute them again."""
    for name in [m for m in sys.modules if m.split(".")[0] == "majorfix"]:
        del sys.modules[name]
    t0 = time.perf_counter()
    majorfix = importlib.import_module("majorfix")
    for module in ("cli", "operators", "majorant", "discretize", "iteration",
                   "moduli", "presets"):
        importlib.import_module(f"majorfix.{module}")
    return majorfix, time.perf_counter() - t0


def run_workload(args) -> int:
    if not (SRC / "majorfix" / "__init__.py").is_file():
        print(f"error: no majorfix sources under {SRC}; run from the root of a "
              "majorfix checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    import_speed = Speedometer(WORK, IMPORT_SPEED_PARTS)
    import_times = []
    for _ in range(SETUP_REPEATS):
        majorfix, seconds = import_majorfix()
        import_times.append((seconds, import_speed.mark(seconds)))
    import_speed.finish()
    import_s = statistics.median(t for t, _ in import_times)
    import_scaled = statistics.median(t * import_speed.factor(k) for t, k in import_times)
    speed = Speedometer(WORK, SPEED_PARTS[args.workload])
    if not Path(majorfix.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: majorfix imported from {majorfix.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    presets = {name: majorfix.presets.get_preset(name)
               for name in majorfix.presets.preset_names()}
    workload = generate(args.workload, args.seed, presets)
    work = WORK / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(majorfix, workload, work)
    print_environment(args.seed, workload)

    warm_up = WarmUp(runner, speed)
    metrics: dict = {}
    correct = True

    if not args.trace:
        phase = run_passes(runner, args.seconds, workload.min_passes, warm_up, speed)
        setup_s = import_scaled + statistics.median(warm_up.scaled())
        setup_wall = import_s + statistics.median(warm_up.times)
        # the calibration arrays stay resident all run; they are not majorfix's
        rss_mib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024.0
                   - speed.resident_bytes) / 2.0**20
        lat = sorted(phase.scaled(speed))
        wall = sorted(phase.latencies)
        pct = tail_percentile(workload.min_passes * len(workload.problems))
        beyond = len(lat) - math.ceil(pct / 100.0 * len(lat))
        values = {
            "problems_per_s": (phase.problems_per_s(speed),
                               f"{len(phase.digests)} passes; wall "
                               f"{phase.problems_per_s(None):.4g}"),
            "latency_p50_ms": (1e3 * percentile(lat, 50.0),
                               f"{len(lat)} samples; wall {1e3 * percentile(wall, 50.0):.4g}"),
            "latency_tail_ms": (1e3 * percentile(lat, pct),
                                f"p{pct:g}, {len(lat)} samples, {beyond} beyond; "
                                f"wall {1e3 * percentile(wall, pct):.4g}"),
            "setup_s": (setup_s, f"median of {len(import_times)} imports "
                                 f"{import_scaled:.4f} s + median of "
                                 f"{len(warm_up.times)} runs of {len(warm_up.problems)} "
                                 f"warm-up problems; wall {setup_wall:.4g}"),
            "peak_rss_mb": (rss_mib, "ru_maxrss of this process less the "
                                     f"{speed.resident_bytes / 2.0**20:.1f} MiB of "
                                     "calibration arrays"),
        }
        print(f"speed {len(speed.slices)} calibration slices, median "
              f"{1e3 * speed.median_slice_s():.3f} ms (quartiles "
              + " / ".join(f"{1e3 * q:.3f}" for q in statistics.quantiles(speed.slices, n=4))
              + f"); times are scaled to {1e3 * speed.ref_s:g} ms a slice of "
              + "+".join(SPEED_PARTS[args.workload]))
        for name, (value, note) in values.items():
            unit = END_TO_END[name][0]
            metric_line(name, value, unit, note)
            metrics[name] = {"value": value, "unit": unit}
        phases = [phase]
    else:
        warm_up()
        untraced = run_passes(runner, args.seconds / 2.0, 1, speed=speed)
        tracer = Tracer()
        tracer.install(majorfix)
        runner.tracer = tracer
        try:
            traced = run_passes(runner, args.seconds / 2.0, 1, speed=speed)
        finally:
            tracer.uninstall()
            runner.tracer = None
        values = layer_metrics(tracer, len(traced.latencies))
        fast = untraced.problems_per_s(speed)
        slow = traced.problems_per_s(speed)
        values["trace.untraced_problems_per_s"] = fast
        values["trace.traced_problems_per_s"] = slow
        values["trace.overhead_pct"] = 100.0 * (fast / slow - 1.0)
        for name, (unit, _, moves) in PER_LAYER.items():
            metric_line(name, values[name], unit, f"-> {moves}")
            metrics[name] = {"value": values[name], "unit": unit}
        spans = WORK / f"spans-{args.workload}.csv"
        tracer.write(spans)
        print(f"trace spans={len(tracer.name)} written to {spans.relative_to(ROOT)}")
        if traced.digests[0] != untraced.digests[0]:
            print("MISMATCH traced certificate digest differs from the untraced one")
            correct = False
        phases = [untraced, traced]

    digests = [d for phase in phases for d in phase.digests]
    print(f"digest sha256={digests[0]} over the first pass of "
          f"{len(workload.problems)} problems; {len(digests)} passes, "
          f"{'all identical' if len(set(digests)) == 1 else 'NOT identical'}")
    if len(set(digests)) != 1:
        correct = False
    attempted = sum(len(phase.latencies) for phase in phases)
    failed = sum(phase.failed for phase in phases)
    for failures in [warm_up.failures] + [phase.failures for phase in phases]:
        report_failures(failures)
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} problems)")
    correct = correct and failed == 0 and not warm_up.failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        print(f"== {name}")
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
