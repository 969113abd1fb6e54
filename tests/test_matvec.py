"""The sup build of a table of samples: the dense pass reads it once, a block
of rows at a time, with no BLAS product.

The pass bounds the table's row sums |Z| w from above and a from both sides
(tests/test_enclose.py), so a dense certificate does not depend on the BLAS
thread count: documents made in subprocesses under one and two OpenBLAS
threads must agree bit for bit, and so must concurrent builds on one table.
The apply stays one gemv per term.  A table of factors alone holds no
samples, and neither its sup build (tests/test_enclose.py) nor its L_p build
with a Zaanen norm given calls its kernel.
"""

import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from majorfix import (Grid, HammersteinSpec, HammersteinTerm, KernelTable,
                      PowerSumModulus, build_hammerstein_sup, cli, operators)
from majorfix.majorant import _TOL
from majorfix.presets import FORCINGS, KERNELS

from helpers import old_design

ROOT = Path(__file__).resolve().parents[1]
GATE = ROOT / "tests" / "data" / "gate"
U = 2.0**-53


def run_child(script: str, *args: str, threads: str = "1") -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("n", [5, 63, 64, 65, 127, 128, 129, 768, 1001, 2001])
def test_blocks_cover_every_row_once(n):
    grid = Grid.trapezoid(0.0, 1.0, n)
    table = KernelTable.from_function(grid, lambda t, s: t + s)
    weights = grid.weights
    # a c that only the first row reaches keeps every other image row a
    # priori: a row sums along itself, so each block's rows keep the bits of
    # the whole table's, and a row that no block read would keep np.empty's
    # garbage
    c = np.zeros(n)
    c[0] = 1e300
    y, errors = operators._dense_pass(table, weights, np.cos(grid.nodes), c, 1e-300)
    expected = (table.values * (weights * np.cos(grid.nodes))).sum(axis=1)
    assert np.array_equal(y[1:], expected[1:]) and abs(y[0] - expected[0]) <= errors[0]
    sums, errors = operators._dense_pass(table, weights, None, 0.0, 1.0)
    top = float(np.max((np.abs(table.values) * weights).sum(axis=1)))
    assert top <= float(np.max(sums + errors)) <= top * (1.0 + 8.0 * U)


def test_non_finite_sample_in_the_last_block_raises():
    grid = Grid.simpson(0.0, 1.0, 2001)
    last = grid.nodes[-1]

    def kernel(t, s):
        return np.where(t == last, np.inf, t * s)

    with pytest.raises(ValueError, match="kernel values must be finite"):
        KernelTable.from_function(grid, kernel)


def test_kernel_type_error_becomes_a_runtime_error_after_one_call():
    grid = Grid.simpson(0.0, 1.0, 2001)
    calls = []

    def kernel(t, s):
        calls.append(t.shape)
        raise TypeError("no arrays here")

    with pytest.raises(RuntimeError, match="raised TypeError: no arrays here"):
        KernelTable.from_function(grid, kernel)
    assert len(calls) == 1


def square_spec(kernel) -> HammersteinSpec:
    term = HammersteinTerm(kernel, lambda u: u**2, PowerSumModulus(((2.0, 1.0),)))
    return HammersteinSpec((term,), 0.1, FORCINGS["identity"])


# name -> (kind, kernel, nonlinearity, lambda) of a factored CLI build at
# n = 2001: the sup build, and L_p builds with their Zaanen norm given
NO_TABLE_BUILDS = {
    "sup-product": ("hammerstein_c", "product", "square", 0.1),
    "lp-product": ("hammerstein_lp", "product", "linear", 0.3),
    "lp-exp_product": ("hammerstein_lp", "exp_product", "linear", 0.3),
}


@pytest.mark.parametrize("name", sorted(NO_TABLE_BUILDS))
def test_factored_sup_build_keeps_no_table(monkeypatch, name):
    # the whole n = 2001 table would take 30.5 MiB
    kind, kernel, nonlinearity, lam = NO_TABLE_BUILDS[name]
    term = {"kernel": kernel, "nonlinearity": nonlinearity}
    config = {"kind": kind, "lambda": lam, "radius": 1.0, "forcing": "identity",
              "grid": {"rule": "simpson", "n": 2001}, "terms": [term]}
    if kind == "hammerstein_lp":
        config["p"] = 2.0
        term["zaanen_norm"] = 1.0
    calls = []
    monkeypatch.setitem(KERNELS, kernel, lambda t, s: calls.append("kernel"))
    monkeypatch.setattr(KernelTable, "from_function",
                        classmethod(lambda cls, grid, fn: calls.append("from_function")))
    tracemalloc.start()
    try:
        handle = cli._build_problem(config)["handle"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak <= 4 * 2**20
    assert handle.profile.center_shift > 0.0


@pytest.mark.parametrize("x0", [0.0, 0.05])
def test_dense_sup_build_reads_its_table_in_blocks(x0):
    # the table takes 30.5 MiB; the pass reads it a block of about 1 MiB at
    # a time, with and without an image to bound
    grid = Grid.simpson(0.0, 2.0, 2001)
    spec = square_spec(KernelTable.from_function(grid, KERNELS["exp_product"]))
    tracemalloc.start()
    try:
        handle = build_hammerstein_sup(spec, grid, 1.0, center=x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
    assert handle.profile.center_shift_low <= handle.profile.center_shift


# re-imports operators four times, each followed by a dense apply; prints
# the thread count after each
IDLE = """
import importlib, threading
import numpy as np
import majorfix.operators as operators
from majorfix import Grid, HammersteinSpec, HammersteinTerm, PowerSumModulus

grid = Grid.simpson(0.0, 1.0, 1001)
for _ in range(4):
    operators = importlib.reload(operators)
    term = HammersteinTerm(lambda t, s: np.exp(t * s), lambda u: u**2,
                           PowerSumModulus(((2.0, 1.0),)))
    spec = HammersteinSpec((term,), 0.1, lambda t: t)
    handle = operators.build_hammerstein_sup(spec, grid, 1.0)
    handle.apply(grid.nodes)
    print(threading.active_count())
"""


def test_no_thread_is_left_behind():
    result = run_child(IDLE)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1"] * 4


def test_concurrent_applies_on_one_handle():
    n = 1001
    grid = Grid.simpson(0.0, 1.0, n)
    op = build_hammerstein_sup(square_spec(KERNELS["exp_product"]), grid, 1.0)
    starts = [np.linspace(0.0, 0.1 * (k + 1), n) for k in range(4)]
    expected = [op.apply(x) for x in starts]
    results = [[] for _ in starts]

    def work(k):
        for _ in range(20):
            results[k].append(op.apply(starts[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(starts))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for want, got in zip(expected, results):
        assert len(got) == 20
        assert all(np.array_equal(want, y) for y in got)


def profile_bits(handle) -> tuple:
    profile = handle.profile
    return (profile.center_shift, profile.center_shift_low, profile.slope(0.5),
            profile.modulus_integral(0.5))


def test_concurrent_dense_sup_builds_on_one_table():
    # x0 = 0.05 makes h(x0) nonzero, so each build also reads the image
    n = 1001
    grid = Grid.simpson(0.0, 2.0, n)
    spec = square_spec(KernelTable.from_function(grid, KERNELS["exp_product"]))
    expected = profile_bits(build_hammerstein_sup(spec, grid, 1.0, center=0.05))
    results = [[] for _ in range(4)]

    def work(k):
        for _ in range(10):
            results[k].append(profile_bits(build_hammerstein_sup(spec, grid, 1.0, center=0.05)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got in results:
        assert len(got) == 10
        assert all(bits == expected for bits in got)


# the solve documents in tests/data/gate, written under one BLAS thread:
# the two on [0, 1] are built and iterated through their kernels' factors,
# the one on [0, 2] (where exp_product declines them) through its table
GATE_CONFIGS = {
    "n2001": (2001, [0.0, 1.0], 0.07, 1.5, "exp_product", "cube"),
    "n1001": (1001, [0.0, 1.0], 0.4, 3.0, "product", "square"),
    "dense-n1025": (1025, [0.0, 2.0], 0.002, 3.0, "exp_product", "square"),
}


def gate_config(tmp_path, name: str) -> Path:
    n, interval, lam, radius, kernel, nonlinearity = GATE_CONFIGS[name]
    config = {"kind": "hammerstein_c", "interval": interval, "lambda": lam,
              "grid": {"rule": "simpson", "n": n}, "radius": radius,
              "terms": [{"kernel": kernel, "nonlinearity": nonlinearity}],
              "forcing": "identity"}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    return path


# argv: command, config path, output path
CLI = """
import sys
from majorfix import cli
assert cli.main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]]) == 0
"""


@pytest.mark.parametrize("name", sorted(GATE_CONFIGS))
def test_solve_document_reproduced(tmp_path, name):
    out = tmp_path / "solve.json"
    result = run_child(CLI, "solve", str(gate_config(tmp_path, name)), str(out))
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (GATE / f"{name}.solve.json").read_bytes()


@pytest.mark.parametrize("name", sorted(GATE_CONFIGS))
def test_analyze_document_is_the_same_under_two_blas_threads(tmp_path, name):
    config = str(gate_config(tmp_path, name))
    documents = []
    for threads in ("1", "2"):
        out = tmp_path / f"analyze.{threads}.json"
        result = run_child(CLI, "analyze", config, str(out), threads=threads)
        assert result.returncode == 0, result.stderr
        documents.append(out.read_bytes())
    assert documents[0] == documents[1]


# The gate documents moved once each, when the sup builds began to bound
# their row sums from above and a from both sides: n2001 and n1001 with the
# factored build, dense-n1025 with the dense pass.  The design before
# (old_design) read each table's row sums |Z| @ w and measured a with one
# apply, both rounded to nearest.  Against it each radius must stay on its
# safe side (the inner radius, bisected on [0, a], only where a is exact,
# h(x0) = 0, and a is a table's own; else within _TOL) and each envelope r_n
# may only rise, by MOVED u r* at most (34 u r* seen, at n2001 with
# x0 = 0.05).  The bounds are differences r* - r_n: r* rises by less than its
# bisection bracket, _TOL, often by nothing, while r_n rises, so a bound may
# fall by as much as r_n rises: the old document's bounds are no exact values
# to stay above.  Where the exact fixed point and a are known in closed form
# (n1001), the radii and the final bound are held against them.
MOVED = 48
SAFE_UP = {"convergence_radius"}
SAFE_DOWN = {"inner_radius", "uniqueness_radius", "contraction_radius"}


def exact_gate_shift(name: str, x0: float) -> Fraction:
    """a = max_i |t_i + lam t_i x0^2 S - x0| of the n1001 discretization, with
    S = sum_l w_l s_l, at the float nodes and weights."""
    n, interval, lam, _, kernel, nonlinearity = GATE_CONFIGS[name]
    assert (kernel, nonlinearity) == ("product", "square")
    grid = Grid.simpson(*interval, n)
    t = [Fraction(x) for x in grid.nodes.tolist()]
    S = sum(Fraction(w) * s for w, s in zip(grid.weights.tolist(), t))
    x0, lam = Fraction(x0), Fraction(lam)
    return max(abs(x + lam * x * x0 * x0 * S - x0) for x in t)


def exact_gate_fixed_point(name: str) -> list[Decimal]:
    """The exact fixed point of the n1001 discretization at the float nodes
    and weights, to 50 digits: x_i = t_i (1 + lam c), where
    c = S (1 + lam c)^2 and S = sum_l w_l s_l^3."""
    n, interval, lam, _, kernel, nonlinearity = GATE_CONFIGS[name]
    assert (kernel, nonlinearity) == ("product", "square")
    grid = Grid.simpson(*interval, n)
    with localcontext() as ctx:
        ctx.prec = 50
        t = [Decimal(x) for x in grid.nodes.tolist()]
        S = sum(Decimal(w) * s**3 for w, s in zip(grid.weights.tolist(), t))
        lam = Decimal(lam)
        # the smaller root, which the iteration from the center reaches
        c = ((1 - 2 * lam * S) - (1 - 4 * lam * S).sqrt()) / (2 * lam * lam * S)
        return [x * (1 + lam * c) for x in t]


@pytest.mark.parametrize("x0", [None, 0.05, 0.1])
@pytest.mark.parametrize("name", sorted(GATE_CONFIGS))
def test_moved_gate_document_against_the_dense_design(tmp_path, monkeypatch, name, x0):
    # x0 > 0 makes h(x0) nonzero, so a sums a real image; without it the
    # bounded document is the gate document (test_solve_document_reproduced)
    path = gate_config(tmp_path, name)
    config = json.loads(path.read_text())
    if x0 is not None:
        config["x0"] = x0
        path.write_text(json.dumps(config))
    documents = []
    for design in ("bounded", "old"):
        if design == "old":
            monkeypatch.setattr(cli, "_resolve_kernel", lambda term, grid:
                                KernelTable.from_function(grid, KERNELS[term["kernel"]]))
            monkeypatch.setattr(cli, "build_hammerstein_sup", old_design)
        out = tmp_path / f"{design}.json"
        assert cli.main(["solve", "--config", str(path), "--out", str(out)]) == 0
        documents.append(json.loads(out.read_text()))
    new, old = documents
    for key, value in old["radii"].items():
        if key == "inner_radius" and x0 is not None:
            assert abs(new["radii"][key] - value) <= _TOL
        elif key in SAFE_UP:
            assert new["radii"][key] >= value, key
        elif key in SAFE_DOWN and value is not None:
            assert new["radii"][key] <= value, key
        else:
            assert new["radii"][key] == value, key
    assert new["status"] == old["status"] and len(new["steps"]) == len(old["steps"])
    width = MOVED * U * old["radii"]["convergence_radius"]
    assert -width <= new["final_bound"] - old["final_bound"] <= width + _TOL
    for mine, theirs in zip(new["steps"], old["steps"]):
        for key in ("envelope_center", "envelope_start"):
            assert 0.0 <= mine[key] - theirs[key] <= width, key
        for key in ("apriori_bound", "step_bound", "center_bound"):
            assert -width <= mine[key] - theirs[key] <= width + _TOL, key
    if name == "n1001":
        monkeypatch.undo()
        profile = cli._build_problem(config)["handle"].profile
        a, inner = exact_gate_shift(name, x0 or 0.0), new["radii"]["inner_radius"]
        assert Fraction(profile.center_shift_low) <= a <= Fraction(profile.center_shift)
        # the inner radius lies below the root of a - K(r) = r, K as evaluated
        assert a - Fraction(profile.modulus_integral(inner)) - Fraction(inner) > 0
        exact = exact_gate_fixed_point(name)
        center = Decimal(x0 or 0.0)
        distance = max(abs(x - center) for x in exact)
        radii = new["radii"]
        assert Decimal(inner) <= distance <= Decimal(radii["convergence_radius"])
        error = max(abs(Decimal(x) - y) for x, y in zip(new["solution"], exact))
        assert error <= Decimal(new["final_bound"])
