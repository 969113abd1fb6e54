"""KernelTable._row_pass: a kernel read once, a block of rows at a time.

The pass gives a Hammerstein build its kernel row sums |Z| w and its first
image Z u.  Bit checks run in subprocesses under a fixed OpenBLAS thread
count: under one thread each row of a gemv has one accumulation order, so
every block's rows must be the rows of the whole product; under two
threads the blocks must give the one-thread bits too.  An unsampled table
of 768 rows or more is sampled on two threads where two CPUs are usable;
pinned to one CPU, it must give the same bits on the calling thread.
"""

import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from majorfix import (Grid, HammersteinSpec, HammersteinTerm, KernelTable,
                      PowerSumModulus, build_hammerstein_sup, cli, discretize)
from majorfix.presets import FORCINGS, KERNELS

ROOT = Path(__file__).resolve().parents[1]
GATE = ROOT / "tests" / "data" / "gate"
# threads that sample an unsampled table of 768 rows or more
SAMPLERS = 2 if discretize._usable_cpus() >= 2 else 1


def run_child(script: str, *args: str, threads: str = "1") -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)


# argv: n; prints one line per table and source: its name and the hex
# digest of the pass's bytes, then the most threads that called one sampled
# kernel.  Under one BLAS thread each pass must give the bits of the whole
# products |Z| @ w and Z @ u.
BITS = """
import hashlib, os, sys, threading
import numpy as np
from majorfix import Grid, KernelTable
from majorfix.presets import KERNELS

n = int(sys.argv[1])
one_thread = os.environ["OPENBLAS_NUM_THREADS"] == "1"
rng = np.random.default_rng(n)
# nodes 0, 1, ..., n - 1: a sampled table's kernel looks its rows up by node
index = Grid.trapezoid(0.0, n - 1.0, n)
unit = Grid.simpson(0.0, 1.0, n) if n % 2 else Grid.trapezoid(0.0, 1.0, n)


def absolute():
    mat = rng.standard_normal((n, n))
    return np.abs(mat, out=mat)


def negative_zero():
    mat = absolute()
    mat[rng.random((n, n)) < 0.01] = -0.0
    mat[n // 2] = -0.0
    return mat


tables = {
    "signed": lambda: (index, rng.standard_normal((n, n))),
    "absolute": lambda: (index, absolute()),
    "negative_zero": lambda: (index, negative_zero()),
    "exp_product": lambda: (unit, None),
}
threads = 0
for name, make in tables.items():
    grid, mat = make()
    if mat is None:
        fn = KERNELS[name]
        stored = KernelTable.from_function(grid, fn)
    else:
        # the table holds mat itself, uncopied: n = 4097 is 128 MiB
        fn = lambda t, s, mat=mat: mat[t[:, 0].astype(int)]
        stored = KernelTable._adopt(grid, mat)
    calls = []

    def sampled(t, s, fn=fn):
        calls.append(threading.get_ident())
        return fn(t, s)

    u = grid.weights * rng.standard_normal(n)
    whole = (np.abs(stored.values) @ grid.weights).tobytes() + (stored.values @ u).tobytes()
    for source, table in (("stored", stored), ("sampled", KernelTable._unsampled(grid, sampled))):
        sums, image = table._row_pass(u, grid.weights)
        got = sums.tobytes() + image.tobytes()
        assert "values" not in table.__dict__ or source == "stored", "sampled whole"
        assert got == whole or not one_thread, f"{name} {source} lost a bit"
        print(name, source, hashlib.sha256(got).hexdigest())
    assert calls[0] == threading.get_ident()
    threads = max(threads, len(set(calls)))
    del grid, mat, fn, stored, table
print("threads", threads)
"""


@pytest.mark.parametrize("n", [768, 1001, 1025, 2001, 2049, 4097])
def test_rows_keep_the_bits_of_the_whole_product(n):
    one = run_child(BITS, str(n))
    assert one.returncode == 0, one.stderr
    assert len(one.stdout.splitlines()) == 9
    assert one.stdout.splitlines()[-1] == f"threads {SAMPLERS}"
    two = run_child(BITS, str(n), threads="2")
    assert two.returncode == 0, two.stderr
    assert two.stdout == one.stdout


# pins the process to one CPU before numpy and majorfix are imported
PIN = """
import os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
@pytest.mark.parametrize("n", [1001, 2001])
def test_one_cpu_samples_on_the_calling_thread_with_the_same_bits(n):
    pinned = run_child(PIN + BITS, str(n))
    assert pinned.returncode == 0, pinned.stderr
    free = run_child(BITS, str(n))
    assert free.returncode == 0, free.stderr
    assert pinned.stdout.splitlines()[-1] == "threads 1"
    assert pinned.stdout.splitlines()[:-1] == free.stdout.splitlines()[:-1]


# n, blocks on one thread, blocks on two: split, the blocks halve to 64 rows
@pytest.mark.parametrize("n, serial, split", [(513, 2, 2), (767, 5, 5), (1001, 7, 15),
                                              (2001, 31, 31)])
def test_sampled_on_two_threads_from_768_rows(n, serial, split):
    grid = Grid.simpson(0.0, 1.0, n)
    calls = []

    def kernel(t, s):
        calls.append(threading.get_ident())
        return KERNELS["exp_product"](t, s)

    KernelTable._unsampled(grid, kernel)._row_pass(grid.weights, grid.weights)
    assert calls[0] == threading.get_ident()
    assert len(set(calls)) == (SAMPLERS if n >= 768 else 1)
    assert len(calls) == (split if len(set(calls)) == 2 else serial)


# rows 200 and 900 of n = 1001 lie in the calling thread's half and the
# other thread's half
@pytest.mark.parametrize("bad", [[200], [900], [200, 900]],
                         ids=["calling-thread", "other-thread", "both"])
def test_first_failing_block_in_row_order_is_raised(bad):
    n = 1001
    # node i is row i
    grid = Grid.trapezoid(0.0, n - 1.0, n)
    calls = {}

    def kernel(t, s):
        rows = range(int(t[0, 0]), int(t[-1, 0]) + 1)
        calls[rows.start] = threading.get_ident()
        if any(row in rows for row in bad):
            raise TypeError(f"row {rows.start}")
        return t + s

    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        KernelTable._unsampled(grid, kernel)._row_pass(grid.weights, grid.weights)
    assert threading.active_count() == before
    first = {row: max(start for start in calls if start <= row) for row in bad}
    assert str(info.value).endswith(f"raised TypeError: row {first[min(bad)]}")
    assert isinstance(info.value.__cause__, TypeError)
    # every failing block was sampled, and on its half's thread
    home = threading.get_ident()
    assert [calls[first[row]] == home for row in bad] == [
        row < 500 or SAMPLERS == 1 for row in bad]


@pytest.mark.parametrize("n", [5, 63, 64, 65, 127, 128, 129, 768, 1001, 2001])
def test_blocks_cover_every_row_once(n):
    grid = Grid.trapezoid(0.0, 1.0, n)
    seen = []

    def kernel(t, s):
        seen.append(t.shape[0])
        return t + s

    sums, image = KernelTable._unsampled(grid, kernel)._row_pass(grid.weights, grid.weights)
    table = KernelTable.from_function(grid, lambda t, s: t + s)
    # stored rows are read on the calling thread, in one gemv up to n = 129;
    # under a threaded BLAS a whole n = 2001 gemv may round otherwise
    stored = table._row_pass(grid.weights, grid.weights)
    assert np.array_equal(sums, stored[0]) and np.array_equal(image, stored[1])
    if n < 768:
        assert np.array_equal(sums, np.abs(table.values) @ grid.weights)
        assert np.array_equal(image, table.values @ grid.weights)
    assert sum(seen) == n and (len(seen) == 1 or min(seen) >= 64)
    unweighted = KernelTable._unsampled(grid, kernel)._row_pass(grid.weights)
    assert unweighted[0] is None and np.array_equal(unweighted[1], image)


def test_non_finite_sample_in_the_last_block_raises():
    grid = Grid.simpson(0.0, 1.0, 2001)
    last = grid.nodes[-1]

    def kernel(t, s):
        return np.where(t == last, np.inf, t * s)

    table = KernelTable._unsampled(grid, kernel)
    with pytest.raises(ValueError, match="kernel values must be finite"):
        table._row_pass(grid.weights, grid.weights)


def test_kernel_type_error_becomes_a_runtime_error_after_one_call():
    grid = Grid.simpson(0.0, 1.0, 2001)
    calls = []

    def kernel(t, s):
        calls.append(t.shape)
        raise TypeError("no arrays here")

    with pytest.raises(RuntimeError, match="raised TypeError: no arrays here"):
        KernelTable._unsampled(grid, kernel)._row_pass(grid.weights, grid.weights)
    assert len(calls) == 1


def square_spec(kernel) -> HammersteinSpec:
    term = HammersteinTerm(kernel, lambda u: u**2, PowerSumModulus(((2.0, 1.0),)))
    return HammersteinSpec((term,), 0.1, FORCINGS["identity"])


def test_factored_sup_build_keeps_no_table():
    # the whole n = 2001 table would take 30.5 MiB
    grid = Grid.simpson(0.0, 1.0, 2001)
    table = cli._resolve_kernel({"kernel": "product"}, grid)
    tracemalloc.start()
    try:
        handle = build_hammerstein_sup(square_spec(table), grid, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    assert "values" not in table.__dict__
    assert handle.profile.center_shift > 0.0


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


def test_concurrent_row_passes_on_one_table():
    # four callers, each pass with a thread of its own: eight threads
    n = 1001
    grid = Grid.simpson(0.0, 1.0, n)
    table = KernelTable._unsampled(grid, KERNELS["exp_product"])
    starts = [grid.weights * np.linspace(0.0, 0.1 * (k + 1), n) for k in range(4)]
    expected = [table._row_pass(u, grid.weights) for u in starts]
    results = [[] for _ in starts]

    def work(k):
        for _ in range(10):
            results[k].append(table._row_pass(starts[k], grid.weights))

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
    for (sums, image), got in zip(expected, results):
        assert len(got) == 10
        assert all(np.array_equal(sums, s) and np.array_equal(image, y) for s, y in got)
    assert "values" not in table.__dict__


# the solve documents in tests/data/gate were written under one BLAS thread
# by the design that sampled every table whole and read it with one gemv;
# the two on [0, 1] iterate through their kernels' factors, the one on
# [0, 2] (where exp_product declines them) on its table
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


@pytest.mark.parametrize("name", ["n2001", "n1001"])
def test_analyze_document_is_the_same_under_two_blas_threads(tmp_path, name):
    config = str(gate_config(tmp_path, name))
    documents = []
    for threads in ("1", "2"):
        out = tmp_path / f"analyze.{threads}.json"
        result = run_child(CLI, "analyze", config, str(out), threads=threads)
        assert result.returncode == 0, result.stderr
        documents.append(out.read_bytes())
    assert documents[0] == documents[1]
