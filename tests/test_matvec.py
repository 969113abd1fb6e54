"""operators._matvec: large kernel tables read on two threads, in row blocks.

The split runs only under a one-thread BLAS on two or more CPUs.  Bit
checks run in subprocesses under one OpenBLAS thread, where each row of a
gemv has one accumulation order, and turn the split on whatever the CPU
count; the other checks run at the ambient thread count.
"""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from majorfix import (Grid, HammersteinSpec, HammersteinTerm, PowerSumModulus,
                      build_hammerstein_sup, operators)
from majorfix.operators import _matvec
from majorfix.presets import FORCINGS, KERNELS

ROOT = Path(__file__).resolve().parents[1]


def run_child(script: str, *args: str, threads: str = "1") -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)


# argv: n, then the size floor or "default"; prints the tables whose rows
# lost a bit
BITS = """
import sys
import numpy as np
from majorfix import Grid, KernelTable, operators
from majorfix.presets import KERNELS

n, floor = int(sys.argv[1]), sys.argv[2]
operators._split_pays = lambda: True
if floor != "default":
    operators._SPLIT_ROWS = int(floor)
grid = Grid.trapezoid(0.0, 1.0, n)
rng = np.random.default_rng(n)
tables = {
    "exp_product": lambda: KernelTable.from_function(grid, KERNELS["exp_product"]).values,
    "signed": lambda: rng.standard_normal((n, n)),
    "absolute": lambda: np.abs(rng.standard_normal((n, n))),
}
lost = []
for name, make in tables.items():
    mat = make()
    assert n >= operators._SPLIT_ROWS, "the table does not split"
    for _ in range(3):
        v = grid.weights * rng.standard_normal(n)
        if not np.array_equal(operators._matvec(mat, v), mat @ v):
            lost.append(name)
    del mat
print(sorted(set(lost)))
"""


FLOOR = operators._SPLIT_ROWS


# at floor 0 the worker's block is 3 and 65 rows; a one-row block would go
# to numpy's dot, which rounds differently, but at the floor or above the
# worker's block has 256 rows or more
@pytest.mark.parametrize("n,floor", [
    *((n, "default") for n in (FLOOR, FLOOR + 1, FLOOR + 2, FLOOR + 3, 1001, 1003, 1023,
                               1025, 1449, 2001, 2002, 2003, 2004, 4097)),
    *((n, "0") for n in (515, 577)),
])
def test_split_keeps_the_bits_of_the_whole_product(n, floor):
    result = run_child(BITS, str(n), floor)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


BUSY = """
import os, signal, threading
import numpy as np
from majorfix import operators

signal.alarm(20)
operators._split_pays = lambda: True
rng = np.random.default_rng(1)
mat, v = rng.standard_normal((1001, 1001)), rng.standard_normal(1001)
gate = threading.Event()
blocker = operators._worker(os.getpid()).submit(gate.wait)
result = operators._matvec(mat, v)
gate.set()
blocker.result()
assert np.array_equal(result, mat @ v)
"""


def test_caller_reads_both_blocks_while_the_worker_is_busy():
    # the worker is held until _matvec returns, so only the calling thread
    # can have read the second block
    result = run_child(BUSY)
    assert result.returncode == 0, result.stderr


RELEASE = """
import os, signal, threading, weakref
import numpy as np
from majorfix import operators

signal.alarm(20)
operators._split_pays = lambda: True
rng = np.random.default_rng(1)
v = rng.standard_normal(1001)
gate = threading.Event()
blocker = operators._worker(os.getpid()).submit(gate.wait)
for k in range(4):
    if k == 1:
        gate.set()
        blocker.result()
    mat = rng.standard_normal((1001, 1001))
    table = weakref.ref(mat)
    operators._matvec(mat, v)
    del mat
    assert table() is None, f"apply {k} left its table alive"
"""


def test_no_table_outlives_its_apply():
    # the first apply is cancelled into the queue of a held worker, which
    # keeps the job until the worker is free; the others run on the worker
    result = run_child(RELEASE)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("n", [FLOOR, 1001, 1449])
def test_calling_thread_reads_more_than_500_rows(monkeypatch, n):
    # numpy's matmul keeps the GIL for 500 rows or fewer, which would hold
    # the worker back until the calling thread's block is done
    monkeypatch.setattr(operators, "_split_pays", lambda: True)
    matmul, calls = np.matmul, []

    def recording(a, *args, **kwargs):
        calls.append((threading.get_ident(), a.shape[0]))
        return matmul(a, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    rng = np.random.default_rng(n)
    _matvec(rng.standard_normal((n, n)), rng.standard_normal(n))
    mine = [rows for thread, rows in calls if thread == threading.get_ident()]
    assert mine[0] > 500
    assert sum(rows for _, rows in calls) == n


# argv: "pin" to keep the child on one CPU, or "free"; prints whether the
# pool was made
GUARD = """
import os, sys
import numpy as np
from majorfix import operators

if sys.argv[1] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
rng = np.random.default_rng(3)
mat, v = rng.standard_normal((2001, 2001)), rng.standard_normal(2001)
assert np.array_equal(operators._matvec(mat, v), mat @ v)
print(operators._worker.cache_info().currsize)
"""
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.parametrize("threads,cpus,pool", [
    ("2", "free", "0"),
    pytest.param("1", "pin", "0", marks=pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")),
    pytest.param("1", "free", "1", marks=pytest.mark.skipif(
        CPUS < 2, reason="needs two CPUs")),
])
def test_split_only_under_one_blas_thread_on_two_cpus(threads, cpus, pool):
    result = run_child(GUARD, cpus, threads=threads)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == pool


def test_matvec_is_the_whole_product_at_the_ambient_thread_count(monkeypatch):
    # one BLAS thread splits and keeps every row's bits; a threaded BLAS
    # reads the table whole
    rng = np.random.default_rng(7)
    for n, floor in ((2001, operators._SPLIT_ROWS), (577, 0)):
        monkeypatch.setattr(operators, "_SPLIT_ROWS", floor)
        mat, v = rng.standard_normal((n, n)), rng.standard_normal(n)
        assert np.array_equal(_matvec(mat, v), mat @ v)


@pytest.mark.parametrize("v", [np.ones(576), np.ones((576, 1))])
def test_shape_mismatch_raises_as_matmul(monkeypatch, v):
    monkeypatch.setattr(operators, "_SPLIT_ROWS", 0)
    monkeypatch.setattr(operators, "_split_pays", lambda: True)
    mat = np.ones((577, 577))
    with pytest.raises(ValueError) as whole:
        mat @ v
    with pytest.raises(type(whole.value)) as split:
        _matvec(mat, v)
    assert str(split.value) == str(whole.value)


FORK = """
import os, signal, threading
import numpy as np
from majorfix import operators

operators._split_pays = lambda: True
rng = np.random.default_rng(0)
mat, v = rng.standard_normal((1001, 1001)), rng.standard_normal(1001)
expected = operators._matvec(mat, v)
assert operators._worker.cache_info().currsize == 1
pid = os.fork()
if pid == 0:
    signal.alarm(5)
    same = np.array_equal(operators._matvec(mat, v), expected)
    os._exit(0 if same and threading.active_count() == 2 else 1)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_split_apply_in_a_forked_child():
    # a pool made before fork has no thread in the child: a split apply
    # there must start a worker of its own, and not hang until the alarm
    # kills the child
    result = run_child(FORK)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"


def test_concurrent_applies_on_one_handle(monkeypatch):
    monkeypatch.setattr(operators, "_split_pays", lambda: True)
    n = 1001
    grid = Grid.simpson(0.0, 1.0, n)
    term = HammersteinTerm(KERNELS["exp_product"], lambda u: u**2,
                           PowerSumModulus(((2.0, 1.0),)))
    op = build_hammerstein_sup(HammersteinSpec((term,), 0.1, FORCINGS["identity"]),
                               grid, 1.0)
    assert grid.n >= operators._SPLIT_ROWS
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


# solves once on the split, once with the floor above the table
SOLVE = """
import sys
from majorfix import cli, operators

config, out = sys.argv[1], sys.argv[2]
operators._split_pays = lambda: True
assert cli.main(["solve", "--config", config, "--out", out + ".split"]) == 0
assert operators._worker.cache_info().currsize == 1
operators._SPLIT_ROWS = 2**62
assert cli.main(["solve", "--config", config, "--out", out + ".whole"]) == 0
"""


@pytest.mark.parametrize("n,lam,radius,kernel,nonlinearity", [
    (2001, 0.07, 1.5, "exp_product", "cube"),
    (1001, 0.4, 3.0, "product", "square"),
], ids=["n2001", "n1001"])
def test_solve_document_at_a_split_size(tmp_path, n, lam, radius, kernel, nonlinearity):
    config = {"kind": "hammerstein_c", "interval": [0.0, 1.0], "lambda": lam,
              "grid": {"rule": "simpson", "n": n}, "radius": radius,
              "terms": [{"kernel": kernel, "nonlinearity": nonlinearity}],
              "forcing": "identity"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = run_child(SOLVE, str(path), str(tmp_path / "solve"))
    assert result.returncode == 0, result.stderr
    split = (tmp_path / "solve.split").read_bytes()
    assert split == (tmp_path / "solve.whole").read_bytes()
    doc = json.loads(split)
    assert doc["status"] == "converged" and len(doc["steps"]) > 30
    assert math.isfinite(doc["final_bound"])
