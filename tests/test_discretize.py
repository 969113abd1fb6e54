import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from majorfix import (
    Grid,
    KernelTable,
    lp_norm,
    zaanen_norm_estimate,
    zaanen_sweep_objectives,
)
from majorfix import discretize
from majorfix.presets import KERNELS
from helpers import meshgrid_kernel, plain_zaanen_sweeps


class TestGrid:
    def test_weights_sum_to_length(self):
        for grid in (Grid.trapezoid(0.0, 1.0, 2), Grid.trapezoid(-1.0, 2.0, 57),
                     Grid.simpson(0.0, 1.0, 3), Grid.simpson(0.5, 4.5, 201)):
            length = grid.upper - grid.lower
            assert abs(math.fsum(grid.weights.tolist()) - length) \
                <= 4.0 * math.ulp(max(abs(length), 1.0))

    def test_simpson_needs_odd_n(self):
        with pytest.raises(ValueError):
            Grid.simpson(0.0, 1.0, 4)

    def test_nodes_strictly_increasing(self):
        grid = Grid.simpson(0.0, 1.0, 11)
        assert np.all(np.diff(grid.nodes) > 0)

    # checked before np.linspace, which warns on a non-finite bound or length
    @pytest.mark.parametrize("make", [lambda: Grid.simpson(0.0, math.nan, 5),
                                      lambda: Grid.simpson(-math.inf, 1.0, 5),
                                      lambda: Grid.trapezoid(0.0, math.inf, 5),
                                      lambda: Grid.simpson(-1e308, 1e308, 5),
                                      lambda: Grid.trapezoid(-1e308, 1e308, 5)],
                             ids=["simpson-nan", "simpson-inf", "trapezoid-inf",
                                  "simpson-length-overflow",
                                  "trapezoid-length-overflow"])
    def test_rejects_non_finite_bounds(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()


class TestQuadrature:
    def test_trapezoid_linear_exact(self):
        grid = Grid.trapezoid(0.0, 1.0, 2)
        assert grid.weights @ grid.nodes == 0.5

    def test_simpson_cubic_exact(self):
        grid = Grid.simpson(0.0, 1.0, 3)
        assert grid.weights @ grid.nodes**3 == pytest.approx(0.25, abs=1e-15)

    def test_trapezoid_exp_error_bound(self):
        grid = Grid.trapezoid(0.0, 1.0, 101)
        value = grid.weights @ np.exp(grid.nodes)
        assert abs(value - (math.e - 1.0)) < 2e-5

    def test_length_mismatch(self):
        grid = Grid.trapezoid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            lp_norm(grid, np.ones(4), 2.0)


class TestLpNorm:
    def test_constant_one(self):
        grid = Grid.simpson(0.0, 1.0, 11)
        assert lp_norm(grid, np.ones(grid.n), 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_identity_l2(self):
        grid = Grid.simpson(0.0, 1.0, 101)
        assert lp_norm(grid, grid.nodes, 2.0) == pytest.approx(
            1.0 / math.sqrt(3.0), abs=1e-10)

    def test_p_below_one_rejected(self):
        grid = Grid.trapezoid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            lp_norm(grid, np.ones(5), 0.5)


def weighted_operator_norm(table: KernelTable) -> float:
    """Independent oracle: top singular value of the weighted kernel matrix,
    which is the discrete L2 -> L2 norm of the |z| integral operator."""
    root = np.sqrt(table.grid.weights)
    scaled = root[:, None] * np.abs(table.values) * root[None, :]
    # power iteration on scaled^T scaled
    v = np.ones(scaled.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(500):
        v = scaled.T @ (scaled @ v)
        v /= np.linalg.norm(v)
    return float(np.linalg.norm(scaled @ v))


class TestZaanen:
    def setup_method(self):
        self.grid = Grid.simpson(0.0, 1.0, 101)

    def test_rank_one_constant(self):
        table = KernelTable.from_function(self.grid, lambda t, s: np.ones_like(t))
        assert zaanen_norm_estimate(table, 2.0, 2.0) == pytest.approx(1.0, rel=0.01)

    def test_zero_kernel(self):
        table = KernelTable(self.grid, np.zeros((self.grid.n, self.grid.n)))
        assert zaanen_norm_estimate(table, 2.0, 2.0) == 0.0

    def test_rank_one_product(self):
        table = KernelTable.from_function(self.grid, lambda t, s: t * s)
        assert zaanen_norm_estimate(table, 2.0, 2.0) == pytest.approx(1.0 / 3.0, rel=0.01)

    def test_sweeps_nondecreasing(self):
        table = KernelTable.from_function(self.grid,
                                          lambda t, s: np.exp(-t * s) + 0.3 * t)
        sweeps = zaanen_sweep_objectives(table, 2.0, 2.0, 30)
        assert all(b >= a - 1e-13 for a, b in zip(sweeps, sweeps[1:]))

    def test_matches_weighted_operator_norm(self):
        table = KernelTable.from_function(self.grid,
                                          lambda t, s: np.exp(-t * s) + 0.3 * t)
        estimate = zaanen_sweep_objectives(table, 2.0, 2.0, 200)[-1]
        assert estimate == pytest.approx(weighted_operator_norm(table), rel=1e-6)

    def test_alpha_must_exceed_one(self):
        table = KernelTable.from_function(self.grid, lambda t, s: t * s)
        with pytest.raises(ValueError):
            zaanen_norm_estimate(table, 1.0, 2.0)


def _sparse_table(grid):
    rng = np.random.default_rng(5)
    shape = (grid.n, grid.n)
    return rng.uniform(0.0, 1.0, shape) * (rng.uniform(size=shape) < 0.1)


ZAANEN_TABLES = {
    "constant": lambda grid: KernelTable.from_function(grid, KERNELS["one"]),
    "product": lambda grid: KernelTable.from_function(grid, KERNELS["product"]),
    "exp_product": lambda grid: KernelTable.from_function(grid, KERNELS["exp_product"]),
    "signed": lambda grid: KernelTable.from_function(
        grid, lambda t, s: np.cos(3.0 * t * s)),
    "sparse": lambda grid: KernelTable(grid, _sparse_table(grid)),
}


class TestZaanenTrail:
    """Every sweep of a trail is computed, none repeated from an earlier
    state: a table of samples gives the trail of the plain loop bit for
    bit, and a table of factors the same bits under any BLAS thread count."""

    @pytest.mark.parametrize("iters", [1, 2, 3, 50, 200])
    @pytest.mark.parametrize("alpha,beta", [(2.0, 2.0), (1.2, 4.0), (3.0, 1.5)])
    @pytest.mark.parametrize("name", sorted(ZAANEN_TABLES))
    def test_trail_matches_the_plain_loop(self, name, alpha, beta, iters):
        table = ZAANEN_TABLES[name](Grid.simpson(0.0, 1.0, 101))
        trail = zaanen_sweep_objectives(table, alpha, beta, iters)
        assert len(trail) == iters
        assert trail == plain_zaanen_sweeps(table, alpha, beta, iters)

    def test_trail_independent_of_the_blas_thread_count(self):
        # the factored sweeps sum with numpy reductions, never BLAS; on
        # [-1, 1] product is read through |phi| and exp_product through its
        # signed factors
        script = (
            "from majorfix import Grid, cli, zaanen_sweep_objectives\n"
            "grid = Grid.simpson(-1.0, 1.0, 1001)\n"
            "for name in ('product', 'one', 'exp_product'):\n"
            "    table = cli._resolve_kernel({'kernel': name}, grid)\n"
            "    assert type(table).__name__ == '_FactoredTable'\n"
            "    for alpha, beta in ((2.0, 2.0), (1.5, 3.0)):\n"
            "        print(zaanen_sweep_objectives(table, alpha, beta, 50))\n"
        )
        root = Path(__file__).resolve().parents[1]
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(root / "src"))
            result = subprocess.run([sys.executable, "-c", script], env=env,
                                    capture_output=True, text=True)
            assert result.returncode == 0, (threads, result.stderr)
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 6


class TestKernelTable:
    def test_shape_validation(self):
        grid = Grid.trapezoid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            KernelTable(grid, np.zeros((3, 4)))

    def test_from_csv_triples(self, tmp_path):
        path = tmp_path / "kernel.csv"
        lines = ["t,s,value"]
        for t in (1.0, 0.0, 0.5):
            for s in (0.5, 1.0, 0.0):
                lines.append(f"{t},{s},{t * s}")
        path.write_text("\n".join(lines) + "\n")
        grid = Grid.simpson(0.0, 1.0, 3)
        table = KernelTable.from_csv(path, grid)
        assert table.grid is grid
        assert np.array_equal(table.values, [[0.0, 0.0, 0.0], [0.0, 0.25, 0.5],
                                             [0.0, 0.5, 1.0]])

    def test_from_csv_dense(self, tmp_path):
        path = tmp_path / "dense.csv"
        path.write_text("0.0,0.1,0.2\n0.3,0.4,0.5\n0.6,0.7,0.8\n")
        grid = Grid.simpson(-1.0, 1.0, 3)
        table = KernelTable.from_csv(path, grid)
        assert table.grid is grid
        assert np.array_equal(table.values, np.arange(9).reshape(3, 3) / 10.0)
        assert not table.values.flags.writeable
        with pytest.raises(ValueError, match="does not match grid"):
            KernelTable.from_csv(path, Grid.trapezoid(0.0, 2.0, 2))

    # the grid [0, 2] with 5 nodes; the tolerance is 1e-9 * 2
    @pytest.mark.parametrize("ts,ok", [
        ([0.0, 0.5, 1.0, 1.5, 2.0], True),
        ([0.0, 0.5 + 1.5e-9, 1.0, 1.5, 2.0 - 1.5e-9], True),
        ([0.0, 0.5 + 3e-9, 1.0, 1.5, 2.0], False),
        ([0.0, 0.5, 1.0, 2.0], False),
        ([0.0, 0.5, 1.0, 1.5, 2.0, 2.5], False),
        ([0.0, 0.4, 1.0, 1.5, 2.0], False),
    ], ids=["nodes", "within-tolerance", "off-node", "missing-node", "extra-node",
            "other-node"])
    def test_from_csv_triples_must_name_grid_nodes(self, tmp_path, ts, ok):
        grid = Grid.simpson(0.0, 2.0, 5)
        path = tmp_path / "kernel.csv"
        path.write_text("t,s,value\n" + "".join(
            f"{t!r},{s!r},{i + 0.25 * j}\n" for i, t in enumerate(ts)
            for j, s in enumerate(grid.nodes.tolist())))
        if not ok:
            with pytest.raises(ValueError, match="not the 5 nodes"):
                KernelTable.from_csv(path, grid)
            return
        table = KernelTable.from_csv(path, grid)
        assert np.array_equal(table.values,
                              np.arange(5.0)[:, None] + 0.25 * np.arange(5.0))

    @pytest.mark.parametrize("text,match", [
        ("t,s,value\n0,0,1\n0,1,2\n1,0,3\n", "each .* pair once"),
        ("t,s,value\n0,0,1\n0,1,2\n1,0,3\n1,1,4\n0,0,9\n", "each .* pair once"),
        ("t,s,value\n0,0\n0,1\n1,0\n1,1\n", "needs t, s and value"),
        ("", "empty"),
    ], ids=["hole", "duplicate", "short-row", "empty"])
    def test_from_csv_malformed(self, tmp_path, text, match):
        path = tmp_path / "kernel.csv"
        path.write_text(text)
        grid = Grid.trapezoid(0.0, 1.0, 2)
        with pytest.raises(ValueError, match=match):
            KernelTable.from_csv(path, grid)


SAMPLED_KERNELS = {
    **KERNELS,
    "scalar_only_exp": np.vectorize(lambda t, s: math.exp(t * s), otypes=[float]),
    "constant": lambda t, s: 2.0,
}
_OWNED = np.arange(49.0).reshape(7, 7)


@pytest.fixture(params=[None, 3], ids=["default-block", "3-row-block"])
def block_rows(request, monkeypatch):
    """The kernel block size: the default, or 3 rows of an s-grid of n_s
    nodes (call the fixture's value with n_s)."""
    def set_rows(n_s):
        if request.param is not None:
            monkeypatch.setattr(discretize, "_BLOCK_ELEMENTS", request.param * n_s)
    return set_rows


class TestKernelSampling:
    # a block is 2**17 // n rows by default: all 101 rows at n = 101, and
    # 130 rows at n = 1001, so 8 blocks with a partial last one
    @pytest.mark.parametrize("name", sorted(SAMPLED_KERNELS))
    @pytest.mark.parametrize("grid", [
        Grid.simpson(0.0, 1.0, 101),
        Grid.simpson(-0.5, 1.5, 1001),
        Grid.trapezoid(0.2, 2.0, 7),
    ], ids=["simpson101", "simpson1001", "trapezoid7"])
    def test_open_mesh_matches_meshgrid_reference(self, name, grid, block_rows):
        block_rows(grid.n)
        fn = SAMPLED_KERNELS[name]
        table = KernelTable.from_function(grid, fn)
        reference = meshgrid_kernel(fn, grid)
        assert table.values.shape == (grid.n, grid.n)
        assert np.array_equal(table.values, reference)
        assert not table.values.flags.writeable

    def test_array_error_propagates_without_scalar_retry(self, block_rows):
        block_rows(11)
        calls = []

        def kernel(t, s):
            calls.append(np.ndim(t))
            if np.ndim(t):
                raise RuntimeError("bug in the kernel")
            return t * s

        grid = Grid.simpson(0.0, 1.0, 11)
        with pytest.raises(RuntimeError, match="bug in the kernel"):
            KernelTable.from_function(grid, kernel)
        assert calls == [2]

    def test_type_error_after_an_array_block_names_the_kernel(self, monkeypatch):
        monkeypatch.setattr(discretize, "_BLOCK_ELEMENTS", 3 * 11)
        calls = []

        def kernel(t, s):
            calls.append(np.shape(t))
            if len(calls) > 1:
                raise TypeError("fails on the second block")
            return t * s

        grid = Grid.simpson(0.0, 1.0, 11)
        with pytest.raises(RuntimeError, match="kernel raised TypeError: fails on "
                                               "the second block") as info:
            KernelTable.from_function(grid, kernel)
        assert isinstance(info.value.__cause__, TypeError)
        assert calls == [(3, 1), (3, 1)]

    def test_held_result_is_copied(self):
        held = []

        def kernel(t, s):
            held.append(t * s)
            return held[-1]

        grid = Grid.simpson(0.0, 1.0, 11)
        table = KernelTable.from_function(grid, kernel)
        assert held[0].flags.writeable
        held[0][:] = -1.0
        assert np.array_equal(table.values, grid.nodes[:, None] * grid.nodes)

    def test_table_of_factors_holds_no_samples(self):
        grid = Grid.simpson(0.0, 1.0, 11)
        column = grid.nodes[:, None]
        table = discretize._FactoredTable(grid, column, column, 2.0**-52, 1e-20)
        assert not hasattr(table, "values") and table.grid is grid
        phi, psi = table.phi, table.psi
        assert phi is psi and not phi.flags.writeable
        assert np.array_equal(phi, column)
        assert (table.rounding, table.remainder) == (2.0**-52, 1e-20)
        with pytest.raises(AttributeError, match="'missing'"):
            table.missing

    def test_module_array_is_copied(self):
        grid = Grid.trapezoid(0.0, 1.0, 7)
        table = KernelTable.from_function(grid, lambda t, s: _OWNED)
        assert _OWNED.flags.writeable
        before = _OWNED.copy()
        _OWNED[0, 0] = 99.0
        try:
            assert np.array_equal(table.values, before)
        finally:
            _OWNED[0, 0] = before[0, 0]

    def test_passed_array_is_copied(self):
        grid = Grid.trapezoid(0.0, 1.0, 4)
        values = np.ones((4, 4))
        table = KernelTable(grid, values)
        values[0, 0] = 5.0
        assert values.flags.writeable and table.values[0, 0] == 1.0

    def test_fortran_result_is_stored_c_contiguous(self):
        grid = Grid.trapezoid(0.0, 1.0, 6)
        table = KernelTable.from_function(
            grid, lambda t, s: np.asfortranarray(t * s + 1.0))
        assert table.values.flags.c_contiguous

    def test_non_finite_samples_rejected(self):
        grid = Grid.trapezoid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="finite"):
            KernelTable.from_function(
                grid, lambda t, s: np.where(t > 0.5, np.inf, s))

    @pytest.mark.parametrize("kernel", [
        lambda t, s: np.cos(3.0 * t * s),
        lambda t, s: np.where(t * s < 0.3, -0.0, t * s),
    ], ids=["signed", "negative-zero"])
    def test_zaanen_on_signed_table_matches_its_absolute_table(self, kernel):
        # a table with a sign bit set is reduced through |z|; one without
        # is read directly
        grid = Grid.simpson(0.0, 1.0, 41)
        table = KernelTable.from_function(grid, kernel)
        assert np.any(np.signbit(table.values))
        absolute = KernelTable(grid, np.abs(table.values))
        assert (zaanen_sweep_objectives(table, 2.0, 3.0, 20)
                == zaanen_sweep_objectives(absolute, 2.0, 3.0, 20))
