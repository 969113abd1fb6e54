import math
import weakref

import numpy as np
import pytest

from majorfix import (
    Grid,
    KernelTable,
    lp_norm,
    quadrature_integrate,
    zaanen_norm_estimate,
    zaanen_sweep_objectives,
)
from majorfix import discretize
from majorfix.presets import KERNELS
from helpers import meshgrid_kernel


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

    def test_from_nodes_nonuniform(self):
        grid = Grid.from_nodes([0.0, 0.1, 0.5, 1.0])
        assert abs(math.fsum(grid.weights.tolist()) - 1.0) < 1e-14

    # checked before np.linspace, which warns on a non-finite bound
    @pytest.mark.parametrize("make", [lambda: Grid.simpson(0.0, math.nan, 5),
                                      lambda: Grid.simpson(-math.inf, 1.0, 5),
                                      lambda: Grid.trapezoid(0.0, math.inf, 5),
                                      lambda: Grid.from_nodes([0.0, 1.0, math.nan])],
                             ids=["simpson-nan", "simpson-inf", "trapezoid-inf",
                                  "from-nodes-nan"])
    def test_rejects_non_finite_bounds(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()


class TestQuadrature:
    def test_trapezoid_linear_exact(self):
        grid = Grid.trapezoid(0.0, 1.0, 2)
        assert quadrature_integrate(grid, grid.nodes) == 0.5

    def test_simpson_cubic_exact(self):
        grid = Grid.simpson(0.0, 1.0, 3)
        assert quadrature_integrate(grid, grid.nodes**3) == pytest.approx(0.25, abs=1e-15)

    def test_trapezoid_exp_error_bound(self):
        grid = Grid.trapezoid(0.0, 1.0, 101)
        value = quadrature_integrate(grid, np.exp(grid.nodes))
        assert abs(value - (math.e - 1.0)) < 2e-5

    def test_length_mismatch(self):
        grid = Grid.trapezoid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            quadrature_integrate(grid, np.ones(4))


class TestLpNorm:
    def test_constant_one(self):
        grid = Grid.simpson(0.0, 1.0, 11)
        assert lp_norm(grid, np.ones(grid.n), 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_identity_l2(self):
        grid = Grid.simpson(0.0, 1.0, 101)
        assert lp_norm(grid, grid.nodes, 2.0) == pytest.approx(
            1.0 / math.sqrt(3.0), abs=1e-10)

    def test_sup_variant(self):
        grid = Grid.simpson(0.0, 1.0, 101)
        assert lp_norm(grid, grid.nodes, "sup") == 1.0
        assert lp_norm(grid, grid.nodes, math.inf) == 1.0

    def test_p_below_one_rejected(self):
        grid = Grid.trapezoid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            lp_norm(grid, np.ones(5), 0.5)


def weighted_operator_norm(table: KernelTable) -> float:
    """Independent oracle: top singular value of the weighted kernel matrix,
    which is the discrete L2 -> L2 norm of the |z| integral operator."""
    dt = np.sqrt(table.grid_t.weights)
    ds = np.sqrt(table.grid_s.weights)
    scaled = dt[:, None] * np.abs(table.values) * ds[None, :]
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
        table = KernelTable.from_function(self.grid, self.grid,
                                          lambda t, s: np.ones_like(t))
        assert zaanen_norm_estimate(table, 2.0, 2.0) == pytest.approx(1.0, rel=0.01)

    def test_zero_kernel(self):
        table = KernelTable(self.grid, self.grid,
                            np.zeros((self.grid.n, self.grid.n)))
        assert zaanen_norm_estimate(table, 2.0, 2.0) == 0.0

    def test_rank_one_product(self):
        table = KernelTable.from_function(self.grid, self.grid, lambda t, s: t * s)
        assert zaanen_norm_estimate(table, 2.0, 2.0) == pytest.approx(1.0 / 3.0, rel=0.01)

    def test_sweeps_nondecreasing(self):
        table = KernelTable.from_function(self.grid, self.grid,
                                          lambda t, s: np.exp(-t * s) + 0.3 * t)
        sweeps = zaanen_sweep_objectives(table, 2.0, 2.0, 30)
        assert all(b >= a - 1e-13 for a, b in zip(sweeps, sweeps[1:]))

    def test_matches_weighted_operator_norm(self):
        table = KernelTable.from_function(self.grid, self.grid,
                                          lambda t, s: np.exp(-t * s) + 0.3 * t)
        estimate = zaanen_norm_estimate(table, 2.0, 2.0, iters=200)
        assert estimate == pytest.approx(weighted_operator_norm(table), rel=1e-6)

    def test_alpha_must_exceed_one(self):
        table = KernelTable.from_function(self.grid, self.grid, lambda t, s: t * s)
        with pytest.raises(ValueError):
            zaanen_norm_estimate(table, 1.0, 2.0)


class TestKernelTable:
    def test_shape_validation(self):
        grid = Grid.trapezoid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            KernelTable(grid, grid, np.zeros((3, 4)))

    def test_from_csv_triples(self, tmp_path):
        path = tmp_path / "kernel.csv"
        lines = ["t,s,value"]
        for t in (0.0, 0.5, 1.0):
            for s in (0.0, 1.0):
                lines.append(f"{t},{s},{t * s}")
        path.write_text("\n".join(lines) + "\n")
        table = KernelTable.from_csv(path)
        assert table.values.shape == (3, 2)
        assert table.values[1, 1] == 0.5

    def test_from_csv_dense(self, tmp_path):
        path = tmp_path / "dense.csv"
        path.write_text("0.0,0.1\n0.2,0.3\n0.4,0.5\n")
        table = KernelTable.from_csv(path)
        assert table.values.shape == (3, 2)
        assert table.grid_t.n == 3 and table.grid_s.n == 2


SAMPLED_KERNELS = {
    **KERNELS,
    "scalar_only_exp": lambda t, s: math.exp(t * s),
    "constant": lambda t, s: 2.0,
}
_OWNED = np.arange(35.0).reshape(7, 5)


class TestKernelSampling:
    @pytest.mark.parametrize("name", sorted(SAMPLED_KERNELS))
    @pytest.mark.parametrize("grids", [
        (Grid.simpson(0.0, 1.0, 101),) * 2,
        (Grid.simpson(-0.5, 1.5, 1001),) * 2,
        (Grid.trapezoid(0.0, 1.0, 7), Grid.trapezoid(0.2, 2.0, 5)),
    ], ids=["simpson101", "simpson1001", "trapezoid7x5"])
    def test_open_mesh_matches_meshgrid_reference(self, name, grids):
        fn = SAMPLED_KERNELS[name]
        table = KernelTable.from_function(*grids, fn)
        reference = meshgrid_kernel(fn, *grids)
        assert table.values.shape == (grids[0].n, grids[1].n)
        assert np.array_equal(table.values, reference)
        assert not table.values.flags.writeable

    def test_array_error_propagates_without_scalar_retry(self):
        calls = []

        def kernel(t, s):
            calls.append(np.ndim(t))
            if np.ndim(t):
                raise RuntimeError("bug in the kernel")
            return t * s

        grid = Grid.simpson(0.0, 1.0, 11)
        with pytest.raises(RuntimeError, match="bug in the kernel"):
            KernelTable.from_function(grid, grid, kernel)
        assert calls == [2]

    def test_fresh_result_is_adopted(self):
        made = []

        def kernel(t, s):
            out = t * s
            made.append(weakref.ref(out))
            return out

        grid = Grid.simpson(0.0, 1.0, 11)
        table = KernelTable.from_function(grid, grid, kernel)
        assert made[0]() is table.values
        assert not table.values.flags.writeable

    def test_held_result_is_copied(self):
        held = []

        def kernel(t, s):
            held.append(t * s)
            return held[-1]

        grid = Grid.simpson(0.0, 1.0, 11)
        table = KernelTable.from_function(grid, grid, kernel)
        assert held[0].flags.writeable
        held[0][:] = -1.0
        assert np.array_equal(table.values, grid.nodes[:, None] * grid.nodes)

    def test_module_array_is_copied(self):
        grid_t, grid_s = Grid.trapezoid(0.0, 1.0, 7), Grid.trapezoid(0.0, 1.0, 5)
        table = KernelTable.from_function(grid_t, grid_s, lambda t, s: _OWNED)
        assert _OWNED.flags.writeable
        before = _OWNED.copy()
        _OWNED[0, 0] = 99.0
        try:
            assert np.array_equal(table.values, before)
        finally:
            _OWNED[0, 0] = before[0, 0]

    def test_result_is_copied_where_refcount_is_unknown(self, monkeypatch):
        # off CPython there is no reference count to tell a fresh result
        monkeypatch.setattr(discretize, "_FRESH_REFS", None)
        made = []

        def kernel(t, s):
            out = t * s
            made.append(weakref.ref(out))
            return out

        grid = Grid.simpson(0.0, 1.0, 11)
        table = KernelTable.from_function(grid, grid, kernel)
        assert made[0]() is not table.values
        assert np.array_equal(table.values, grid.nodes[:, None] * grid.nodes)

    def test_regrid_shares_samples_and_checks_shape(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("1,2,3\n4,5,6\n")
        table = KernelTable.from_csv(path)
        grid_t, grid_s = Grid.simpson(-1.0, 1.0, 3), Grid.trapezoid(0.0, 2.0, 2)
        with pytest.raises(ValueError, match="does not match grids"):
            table.regrid(grid_t, grid_s)
        moved = table.regrid(grid_s, grid_t)
        assert moved.values is table.values
        assert moved.grid_t is grid_s and moved.grid_s is grid_t

    def test_passed_array_is_copied(self):
        grid = Grid.trapezoid(0.0, 1.0, 4)
        values = np.ones((4, 4))
        table = KernelTable(grid, grid, values)
        values[0, 0] = 5.0
        assert values.flags.writeable and table.values[0, 0] == 1.0

    def test_fortran_result_is_stored_c_contiguous(self):
        grid = Grid.trapezoid(0.0, 1.0, 6)
        table = KernelTable.from_function(
            grid, grid, lambda t, s: np.asfortranarray(t * s + 1.0))
        assert table.values.flags.c_contiguous

    def test_non_finite_samples_rejected(self):
        grid = Grid.trapezoid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="finite"):
            KernelTable.from_function(
                grid, grid, lambda t, s: np.where(t > 0.5, np.inf, s))

    @pytest.mark.parametrize("kernel", [
        lambda t, s: np.cos(3.0 * t * s),
        lambda t, s: np.where(t * s < 0.3, -0.0, t * s),
    ], ids=["signed", "negative-zero"])
    def test_zaanen_on_signed_table_matches_its_absolute_table(self, kernel):
        # a table with a sign bit set is reduced through |z|; one without
        # is read directly
        grid = Grid.simpson(0.0, 1.0, 41)
        table = KernelTable.from_function(grid, grid, kernel)
        assert np.any(np.signbit(table.values))
        absolute = KernelTable(grid, grid, np.abs(table.values))
        assert (zaanen_sweep_objectives(table, 2.0, 3.0, 20)
                == zaanen_sweep_objectives(absolute, 2.0, 3.0, 20))
