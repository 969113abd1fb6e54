"""Self-test of the benchmark machinery, on seeds the timed runs do not use.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches metrics.py; that the generators are
deterministic in the seed; that a cheap subset of every workload passes its
oracles with the same certificate digest traced and untraced; and that
corrupted documents (a wrong radius, a step above its bound, a solution
outside its a-priori bound, a wrong exit code) are counted as failures.
It also reports whether the known soundness defect just past tangency is
still present.  Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
from metrics import END_TO_END, PER_LAYER, WORKLOADS
from oracles import quadratic_model, expected_radii
from tracing import Tracer
from workloads import Problem, generate

SEED = 2
FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS)
           and all(w["why"] == WORKLOADS[w["name"]] for w in spec["workloads"]),
           "BENCHMARK.json workloads match metrics.WORKLOADS")
    expect({m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
           == END_TO_END, "BENCHMARK.json end_to_end matches metrics.END_TO_END")
    expect({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
           == {k: v[:2] for k, v in PER_LAYER.items()},
           "BENCHMARK.json per_layer matches metrics.PER_LAYER")


def runner_for(majorfix, name: str, problems=None):
    workload = generate(name, SEED, presets(majorfix))
    if problems is not None:
        workload.problems = problems(workload)
    work = run.WORK / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return run.Runner(majorfix, workload, work)


def presets(majorfix) -> dict:
    return {n: majorfix.presets.get_preset(n) for n in majorfix.presets.preset_names()}


def check_generators(majorfix) -> None:
    def inputs(name, seed):
        return [json.dumps(p.config) + str(p.options)
                for p in generate(name, seed, presets(majorfix)).problems]

    for name in WORKLOADS:
        first, again, other = inputs(name, SEED), inputs(name, SEED), inputs(name, SEED + 1)
        expect(first == again and first != other,
               f"{name}: generator is deterministic in the seed")


def check_workloads(majorfix) -> None:
    for name in WORKLOADS:
        runner = runner_for(majorfix, name, lambda w: run.warm_up_set(w.problems))
        plain = run.run_passes(runner, 0.0, 1)
        tracer = Tracer()
        tracer.install(majorfix)
        runner.tracer = tracer
        try:
            traced = run.run_passes(runner, 0.0, 1)
        finally:
            tracer.uninstall()
            runner.tracer = None
        run.report_failures(plain.failures + traced.failures)
        count = len(runner.workload.problems)
        expect(plain.failed == 0 and traced.failed == 0,
               f"{name}: {count} problems pass their oracles, untraced and traced")
        expect(plain.digests == traced.digests,
               f"{name}: traced digest equals untraced digest {plain.digests[0][:16]}")
        expect(len(tracer.name) > count, f"{name}: traced run recorded {len(tracer.name)} spans")


class Corrupting:
    """Stands in for majorfix.cli: runs main, then edits what it wrote."""

    def __init__(self, cli, edit):
        self.cli, self.edit = cli, edit

    def main(self, argv):
        code = self.cli.main(argv)
        out = argv[argv.index("--out") + 1]
        doc_path = Path(out)
        if doc_path.suffix == ".json" and doc_path.exists():
            doc = json.loads(doc_path.read_text())
            self.edit(doc)
            doc_path.write_text(json.dumps(doc))
        return code


def corrupted_failures(majorfix, name: str, pick, edit) -> tuple[int, int]:
    def problems(workload):
        return [p for p in workload.problems if pick(p)][:3]
    runner = runner_for(majorfix, name, problems)
    runner.cli = Corrupting(majorfix.cli, edit)
    phase = run.run_passes(runner, 0.0, 1)
    return phase.failed, len(runner.workload.problems)


def check_corruption(majorfix) -> None:
    def exists(command):
        return lambda p: p.command == command and p.expected is not None and p.expected.existence

    def shift_radius(doc):
        doc["radii"]["convergence_radius"] += 1e-6

    def raise_step(doc):
        doc["steps"][len(doc["steps"]) // 2]["step_norm"] *= 1.01
        doc["steps"][len(doc["steps"]) // 2]["step_norm"] += 1e-9

    def move_solution(doc):
        doc["solution"] = [x + 1e-6 for x in doc["solution"]]

    cases = [
        ("scalar-certify", exists("analyze"), shift_radius, "a convergence radius off by 1e-6"),
        ("scalar-certify", exists("solve"), raise_step, "a step norm above its bound"),
        ("scalar-certify", exists("solve"), move_solution, "a scalar solution moved by 1e-6"),
        ("nystrom-build", lambda p: p.label == "urysohn/n=101", shift_radius,
         "a Urysohn convergence radius off by 1e-6"),
        ("nystrom-solve", lambda p: p.config["grid"]["n"] == 1001, move_solution,
         "a Nystrom solution moved by 1e-6"),
    ]
    for name, pick, edit, what in cases:
        failed, count = corrupted_failures(majorfix, name, pick, edit)
        expect(count > 0 and failed == count, f"{name}: {what} fails {failed} of {count}")

    runner = runner_for(majorfix, "scalar-certify", lambda w: run.warm_up_set(w.problems)[:1])
    problem = runner.workload.problems[0]
    _, errors, _ = runner.run(problem)
    _, out = runner.argv[problem.pid]
    wrong = []
    runner.check(problem, 4, "", out, wrong)
    expect(not errors and bool(wrong), "an unexpected exit code is a failure")


def known_defect(majorfix) -> None:
    """ROADMAP item 1: a profile 9e-13 past tangency has no fixed point,
    but the finder tolerance of 1e-12 lets it through as certified."""
    config = {"kind": "scalar_profile", "center_shift": 0.25 + 9e-13,
              "modulus": {"type": "power_sum", "terms": [[2.0, 1.0]]}, "radius": 1.0}
    model = quadratic_model(config["center_shift"], 0.0, 1.0, 1.0)
    probe = Problem(0, "probe/past_tangency", "analyze", config, model=model,
                    expected=expected_radii(model))
    runner = runner_for(majorfix, "scalar-certify", lambda w: [probe])
    _, errors, _ = runner.run(probe)
    state = "still present" if errors else "fixed"
    print(f"info  known defect (ROADMAP item 1, past-tangency certificate): {state}"
          + (f": {errors[0]}" if errors else ""))


def main() -> int:
    if not (run.SRC / "majorfix" / "__init__.py").is_file():
        print(f"error: no majorfix sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import majorfix
    for module in ("cli", "operators", "majorant", "discretize", "iteration",
                   "moduli", "presets"):
        __import__(f"majorfix.{module}")
    check_benchmark_json()
    check_generators(majorfix)
    check_workloads(majorfix)
    check_corruption(majorfix)
    known_defect(majorfix)
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
