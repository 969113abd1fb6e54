"""Registry kernels applied through their exact factors, phi @ (psi.T @ v).

A CLI build samples each registry kernel into its table, which gives a and
the kernel norms, and attaches the kernel's factors (presets._KERNEL_FACTORS);
the handle's apply then reads K v through them.  The soundness gate: the
factored product lies within the dense product's own rounding bound,
|phi (psi^T v) - Z v| <= n u |Z| |v| elementwise with u = 2^-53, so an
iterate is certified no less than a dense one.  The twin tests hold every
certificate of a registry build to its inline-matrix twin, bit for bit.
"""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorfix import Grid, KernelTable, cli, operators
from majorfix.cli import main
from majorfix.presets import _KERNEL_FACTORS, KERNELS

UNIT = 2.0**-53
RULES = {"simpson": Grid.simpson, "trapezoid": Grid.trapezoid}
INTERVALS = [(0.0, 1.0), (-1.0, 1.0), (-1.0, 0.0), (0.5, 1.0)]


def registry_table(name: str, grid: Grid) -> KernelTable:
    return cli._resolve_kernel({"kernel": name}, grid)


@functools.lru_cache(maxsize=1)
def gate_case(name, rule, n, interval):
    """(n, |Z|, dense product, factored product) of one registry table;
    one case is held at a time, since an n = 2001 table is 32 MiB."""
    table = registry_table(name, RULES[rule](*interval, n))
    assert table._factors is not None, f"{name} carries no factors on {interval}"
    return (n, np.abs(table.values), functools.partial(operators._matvec, table.values),
            operators._product(table))


def violations(case, v: np.ndarray) -> np.ndarray:
    """The rows where the factored product leaves the dense one's bound."""
    n, magnitude, dense, factored = case
    bound = n * UNIT * (magnitude @ np.abs(v))
    return np.flatnonzero(~(np.abs(factored(v) - dense(v)) <= bound))


# entries of v: zero or of a normal magnitude, so that no product underflows
# below the relative bound
ENTRY = st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))


@st.composite
def vectors(draw, n):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal(n) if draw(st.booleans()) else rng.random(n)
    v *= 2.0 ** draw(st.integers(-300, 300))
    for i, value in draw(st.dictionaries(st.integers(0, n - 1), ENTRY, max_size=8)).items():
        v[i] = value
    return v


class TestSoundnessGate:
    @pytest.mark.parametrize("interval", INTERVALS, ids=str)
    @pytest.mark.parametrize("n", [21, 101, 1001, 2001])
    @pytest.mark.parametrize("rule", sorted(RULES))
    @pytest.mark.parametrize("name", sorted(_KERNEL_FACTORS))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_factored_within_dense_rounding_bound(self, name, rule, n, interval, data):
        # a row of zeros (t = 0 under product) has bound 0 and passes with equality
        case = gate_case(name, rule, n, interval)
        assert list(violations(case, data.draw(vectors(n)))) == []

    def test_gate_rejects_the_wrong_factors(self):
        # exp_product's table handed product's factors: t s is not exp(t s)
        grid = Grid.simpson(0.0, 1.0, 101)
        table = KernelTable.from_function(grid, KERNELS["exp_product"])
        wrong = table._with_factors(*_KERNEL_FACTORS["product"](grid.nodes))
        case = (grid.n, np.abs(table.values),
                functools.partial(operators._matvec, table.values), operators._product(wrong))
        assert len(violations(case, np.ones(grid.n))) == grid.n


class TestFactors:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_every_registry_kernel_declares_factors(self, name):
        grid = Grid.trapezoid(-1.0, 1.0, 11)
        phi, psi = _KERNEL_FACTORS[name](grid.nodes)
        samples = KernelTable.from_function(grid, KERNELS[name]).values
        np.testing.assert_allclose(phi @ psi.T, samples, rtol=4e-15, atol=0.0)

    @pytest.mark.parametrize("interval", [(0.0, 2.0), (-1.0 - 2**-52, 0.0)], ids=str)
    def test_exp_product_declines_beyond_the_unit_interval(self, interval):
        grid = Grid.simpson(*interval, 21)
        assert _KERNEL_FACTORS["exp_product"](grid.nodes) is None
        assert registry_table("exp_product", grid)._factors is None
        for name in ("product", "one"):
            assert registry_table(name, grid)._factors is not None

    def test_inline_and_csv_kernels_stay_dense(self, tmp_path):
        grid = Grid.simpson(0.0, 1.0, 5)
        matrix = KernelTable.from_function(grid, KERNELS["product"]).values
        path = tmp_path / "kernel.csv"
        path.write_text("\n".join(",".join(map(repr, row)) for row in matrix.tolist()))
        for term in ({"kernel": matrix.tolist()}, {"kernel_csv": str(path)}):
            table = cli._resolve_kernel(term, grid)
            assert table._factors is None and np.array_equal(table.values, matrix)

    def test_factors_are_read_only_copies(self):
        grid = Grid.simpson(0.0, 1.0, 5)
        table = KernelTable.from_function(grid, KERNELS["product"])
        phi = grid.nodes[:, None].copy()
        factored = table._with_factors(phi, phi)
        assert factored.values is table.values and table._factors is None
        assert not any(f.flags.writeable for f in factored._factors)
        phi[0, 0] = 7.0
        assert factored._factors[0][0, 0] == 0.0


def count_matvecs(monkeypatch) -> list:
    calls, matvec = [], operators._matvec

    def counting(mat, v):
        calls.append(mat.shape)
        return matvec(mat, v)

    monkeypatch.setattr(operators, "_matvec", counting)
    return calls


class TestFactoredPathTaken:
    # one dense product for a, one for the sup build's row sums; the L_p
    # build reads its norm through Zaanen sweeps, not _matvec
    @pytest.mark.parametrize("preset,dense", [("hammerstein-separable", 2),
                                              ("hammerstein-lp", 1)])
    @pytest.mark.parametrize("max_steps", ["3", "1000"])
    def test_dense_products_only_in_the_build(self, monkeypatch, tmp_path, preset,
                                              dense, max_steps):
        calls = count_matvecs(monkeypatch)
        out = tmp_path / "solve.json"
        assert main(["solve", "--preset", preset, "--max-steps", max_steps,
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["steps"]) > 2
        assert len(calls) == dense

    def test_declined_factors_iterate_dense(self, monkeypatch, tmp_path):
        calls = count_matvecs(monkeypatch)
        config = twin_configs("hammerstein_c", "exp_product", (0.0, 2.0))[0]
        doc = solve(tmp_path, config)
        assert len(calls) == 2 + len(doc["steps"])


# kind -> (nonlinearity, lambda on [0, 1], lambda on [0, 2]); the L_p terms
# take q = p = 2
TWIN_KINDS = {"hammerstein_c": ("square", 0.05, 0.005),
              "hammerstein_lp": ("linear", 0.3, 0.02)}


def twin_configs(kind: str, kernel: str, interval) -> tuple[dict, dict]:
    """A registry config at n = 101 and its twin, whose inline kernel
    matrix holds the same samples."""
    nonlinearity, lam, wide_lam = TWIN_KINDS[kind]
    config = {"kind": kind, "interval": list(interval), "radius": 3.0,
              "lambda": lam if interval[1] <= 1.0 else wide_lam,
              "grid": {"rule": "simpson", "n": 101}, "forcing": "sin_pi",
              "terms": [{"kernel": kernel, "nonlinearity": nonlinearity}]}
    if kind == "hammerstein_lp":
        config["p"] = 2.0
    grid = Grid.simpson(*interval, 101)
    samples = KernelTable.from_function(grid, KERNELS[kernel]).values.tolist()
    twin = json.loads(json.dumps(config))
    twin["terms"][0]["kernel"] = samples
    return config, twin


def solve(tmp_path, config, name="config") -> dict:
    path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out.json"
    path.write_text(json.dumps(config))
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    return json.loads(out.read_text())


BOUND_KEYS = ("n", "envelope_center", "envelope_start", "apriori_bound",
              "step_bound", "center_bound")


class TestInlineTwins:
    @pytest.mark.parametrize("kind", sorted(TWIN_KINDS))
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_certificates_keep_their_bits(self, tmp_path, kind, kernel):
        config, twin = twin_configs(kind, kernel, (0.0, 1.0))
        handles = [cli._build_problem(c)["handle"] for c in (config, twin)]
        shifts = [handle.profile.center_shift for handle in handles]
        assert shifts[0] == shifts[1] > 0.0
        factored, dense = solve(tmp_path, config, "factored"), solve(tmp_path, twin, "dense")
        assert factored["status"] == dense["status"] == "converged"
        for key in ("radii", "start_offset", "final_bound"):
            assert factored[key] == dense[key], key
        assert len(factored["steps"]) == len(dense["steps"]) > 2
        for mine, theirs in zip(factored["steps"], dense["steps"]):
            assert [mine[k] for k in BOUND_KEYS] == [theirs[k] for k in BOUND_KEYS]
        gap = np.subtract(factored["solution"], dense["solution"])
        assert handles[0].norm(gap) <= 2.0 * dense["final_bound"]

    @pytest.mark.parametrize("kind", sorted(TWIN_KINDS))
    def test_declined_factors_give_the_twins_document(self, tmp_path, kind):
        config, twin = twin_configs(kind, "exp_product", (0.0, 2.0))
        factored, dense = solve(tmp_path, config, "factored"), solve(tmp_path, twin, "dense")
        assert factored["status"] == "converged" and len(factored["steps"]) > 2
        assert ((tmp_path / "factored.out.json").read_bytes()
                == (tmp_path / "dense.out.json").read_bytes())
