"""operators._matvec: large kernel tables read on two threads, in row blocks.

Bit checks run in subprocesses under one OpenBLAS thread, where each row of
a gemv has one accumulation order; the other checks run at the ambient
thread count.
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


def run_one_blas_thread(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
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
if floor != "default":
    operators._SPLIT_BYTES = int(floor)
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
    assert mat.nbytes >= operators._SPLIT_BYTES, "the table does not split"
    for _ in range(3):
        v = grid.weights * rng.standard_normal(n)
        if not np.array_equal(operators._matvec(mat, v), mat @ v):
            lost.append(name)
    del mat
print(sorted(set(lost)))
"""


@pytest.mark.parametrize("n,floor", [
    *((n, "default") for n in (1449, 2001, 2002, 2003, 2004, 4097)),
    *((n, "0") for n in (130, 257, 1001)),
])
def test_split_keeps_the_bits_of_the_whole_product(n, floor):
    result = run_one_blas_thread(BITS, str(n), floor)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


BUSY = """
import os, signal, threading
import numpy as np
from majorfix import operators

signal.alarm(20)
rng = np.random.default_rng(1)
mat, v = rng.standard_normal((2001, 2001)), rng.standard_normal(2001)
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
    result = run_one_blas_thread(BUSY)
    assert result.returncode == 0, result.stderr


def test_split_within_rounding_of_the_whole_product(monkeypatch):
    # at the ambient thread count the bits may differ; each side is within
    # gamma_n |mat| @ |v| of the exact product, gamma_n = n u
    rng = np.random.default_rng(7)
    for n, floor in ((2001, operators._SPLIT_BYTES), (257, 0)):
        monkeypatch.setattr(operators, "_SPLIT_BYTES", floor)
        mat, v = rng.standard_normal((n, n)), rng.standard_normal(n)
        gamma = n * 2.0**-53
        bound = 2.0 * gamma * (np.abs(mat) @ np.abs(v))
        assert np.all(np.abs(_matvec(mat, v) - mat @ v) <= bound)


@pytest.mark.parametrize("v", [np.ones(129), np.ones((129, 1))])
def test_shape_mismatch_raises_as_matmul(monkeypatch, v):
    monkeypatch.setattr(operators, "_SPLIT_BYTES", 0)
    mat = np.ones((130, 130))
    with pytest.raises(ValueError) as whole:
        mat @ v
    with pytest.raises(type(whole.value)) as split:
        _matvec(mat, v)
    assert str(split.value) == str(whole.value)


FORK = """
import os, signal, threading
import numpy as np
from majorfix import operators

rng = np.random.default_rng(0)
mat, v = rng.standard_normal((1449, 1449)), rng.standard_normal(1449)
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
    result = run_one_blas_thread(FORK)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"


def test_concurrent_applies_on_one_handle():
    n = 1449
    grid = Grid.simpson(0.0, 1.0, n)
    term = HammersteinTerm(KERNELS["exp_product"], lambda u: u**2,
                           PowerSumModulus(((2.0, 1.0),)))
    op = build_hammerstein_sup(HammersteinSpec((term,), 0.1, FORCINGS["identity"]),
                               grid, 1.0)
    assert grid.n**2 * 8 >= operators._SPLIT_BYTES
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
assert cli.main(["solve", "--config", config, "--out", out + ".split"]) == 0
assert operators._worker.cache_info().currsize == 1
operators._SPLIT_BYTES = 2**62
assert cli.main(["solve", "--config", config, "--out", out + ".whole"]) == 0
"""


def test_solve_document_at_a_split_size(tmp_path):
    config = {"kind": "hammerstein_c", "interval": [0.0, 1.0], "lambda": 0.07,
              "grid": {"rule": "simpson", "n": 2001}, "radius": 1.5,
              "terms": [{"kernel": "exp_product", "nonlinearity": "cube"}],
              "forcing": "identity"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = run_one_blas_thread(SOLVE, str(path), str(tmp_path / "solve"))
    assert result.returncode == 0, result.stderr
    split = (tmp_path / "solve.split").read_bytes()
    assert split == (tmp_path / "solve.whole").read_bytes()
    doc = json.loads(split)
    assert doc["status"] == "converged" and len(doc["steps"]) > 30
    assert math.isfinite(doc["final_bound"])
