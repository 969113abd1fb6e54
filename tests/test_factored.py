"""Registry kernels applied through their exact factors, phi @ (psi.T @ v).

A CLI build hands each registry kernel that has factors
(presets._KERNEL_FACTORS) to the builder as a table of factors alone: the
sup build bounds its kernel norms and a from them (tests/test_enclose.py),
the L_p build estimates its Zaanen norm from them, and the handle's apply
reads K v through the factors.  An L_p build, which does not bound a,
measures it with one call of its own apply.  The soundness gate: the
factored product lies within the dense product's own rounding bound,
|phi (psi^T v) - Z v| <= n u |Z| |v| elementwise with u = 2^-53, so an
iterate is certified no less than a dense one.  The twin tests hold the a
of a registry L_p build within a few ulps of its inline-matrix twin's, and
both twins' Zaanen estimates within a few ulps of the closed form.  A sup
build bounds its twin too (the dense pass): each of the two lies on its
safe side of the design that rounded both to nearest (helpers.old_design),
and the two agree, within a few ulps of the convergence radius.
"""

import decimal
import functools
import json
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorfix import Grid, KernelTable, cli, operators, zaanen_norm_estimate
from majorfix.cli import main
from majorfix.majorant import _TOL
from majorfix.presets import _KERNEL_FACTORS, KERNELS, get_preset

from helpers import old_design, row_sum_bound

UNIT = 2.0**-53
RULES = {"simpson": Grid.simpson, "trapezoid": Grid.trapezoid}
INTERVALS = [(0.0, 1.0), (-1.0, 1.0), (-1.0, 0.0), (0.5, 1.0)]


def registry_table(name: str, grid: Grid) -> KernelTable:
    return cli._resolve_kernel({"kernel": name}, grid)


@functools.lru_cache(maxsize=1)
def gate_case(name, rule, n, interval):
    """(n, |Z|, dense product, factored product) of one registry table and
    a table sampled beside it; one case is held at a time, since an
    n = 2001 table is 32 MiB."""
    grid = RULES[rule](*interval, n)
    table = registry_table(name, grid)
    assert table._factors is not None, f"{name} carries no factors on {interval}"
    samples = KernelTable.from_function(grid, KERNELS[name]).values
    return (n, np.abs(samples), functools.partial(np.matmul, samples),
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
        wrong = KernelTable._from_factors(grid, *_KERNEL_FACTORS["product"](grid.nodes))
        case = (grid.n, np.abs(table.values),
                functools.partial(np.matmul, table.values), operators._product(wrong))
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
        phi = grid.nodes[:, None].copy()
        factored = KernelTable._from_factors(grid, phi, phi)
        assert factored.values is None and factored._factors[0] is not phi
        assert not any(f.flags.writeable for f in factored._factors)
        phi[0, 0] = 7.0
        assert factored._factors[0][0, 0] == 0.0


def count_samplings(monkeypatch) -> list:
    """The sizes of the kernel tables sampled whole, as they are sampled."""
    sampled, sample = [], KernelTable.from_function

    def counting(cls, grid, fn):
        sampled.append(grid.n)
        return sample(grid, fn)

    monkeypatch.setattr(KernelTable, "from_function", classmethod(counting))
    return sampled


def count_dense_applies(monkeypatch) -> list:
    """The shapes of the vectors each dense apply of a table reads."""
    calls, product = [], operators._product

    def counting(table):
        apply = product(table)
        if table._factors is not None:
            return apply

        def dense(v):
            calls.append(v.shape)
            return apply(v)
        return dense

    monkeypatch.setattr(operators, "_product", counting)
    return calls


class TestFactoredPathTaken:
    # a factored build reads its kernel's factors and iterates through
    # them, so it makes no dense product and samples no n x n table, the
    # L_p build's Zaanen estimate included
    @pytest.mark.parametrize("preset", ["hammerstein-separable", "hammerstein-lp"])
    @pytest.mark.parametrize("max_steps", ["3", "1000"])
    def test_no_dense_product_for_factored_kernels(self, monkeypatch, tmp_path, preset,
                                                   max_steps):
        tables, calls = count_samplings(monkeypatch), count_dense_applies(monkeypatch)
        out = tmp_path / "solve.json"
        assert main(["solve", "--preset", preset, "--max-steps", max_steps,
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["steps"]) > 2
        assert tables == [] and calls == []

    def test_declined_factors_iterate_dense(self, monkeypatch, tmp_path):
        config = twin_configs("hammerstein_c", "exp_product", (0.0, 2.0))[0]
        tables, calls = count_samplings(monkeypatch), count_dense_applies(monkeypatch)
        doc = solve(tmp_path, config)
        # the dense pass bounds a with no product, and one apply makes each step
        assert tables == [101] and len(calls) == len(doc["steps"])


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


# A sup build's row sums are rounded up (tests/test_enclose.py) and its a
# is exact here, h(0) = 0.  So against the design that rounded the row sums
# to nearest a radius may only move to its safe side, by less than its
# bisection bracket _TOL; an envelope r_n may only rise, by SUP_MOVED u r* at
# most (9 seen, for the factored exp_product, 2 for any dense twin); and a
# bound r* - r_n may fall by as much, since r* often stays put.  The factored
# build and its dense twin lie within the same widths of each other, either
# way up (9 seen).
SUP_MOVED = 16

# An L_p build with h(x0) != 0 measures a through the factors, its twin
# through the samples, so their a may part by LP_MOVED ulps (1 seen at
# n = 101, up to 4 at n = 1001).
LP_MOVED = 4

# A factored exp_product's row sums on [-1, 1] against its dense twin's: the
# outer dots over its 26 columns and its declared factor rounding cost
# (26 u + 2 e) sum_j |phi_ij c_j|, 1.5 times the row sum here (40 u seen)
TWIN_KNORM = 64


def assert_sup_twin(new: dict, old: dict, one_sided: bool = True) -> None:
    """new against old: on its safe side where one_sided, else either way."""
    width = SUP_MOVED * UNIT * old["radii"]["convergence_radius"]
    # how far new may lie on its unsafe side of old: a radius, an envelope
    tol, envelope = (0.0, 0.0) if one_sided else (_TOL, width)
    for key, value in old["radii"].items():
        mine = new["radii"][key]
        if key == "convergence_radius":
            assert value - tol <= mine <= value + _TOL, key
        elif key in ("inner_radius", "uniqueness_radius", "contraction_radius") \
                and value is not None:
            assert value - _TOL <= mine <= value + tol, key
        else:
            assert mine == value, key
    assert new["start_offset"] == old["start_offset"]
    bounds = [(new["final_bound"], old["final_bound"])]
    for mine, theirs in zip(new["steps"], old["steps"]):
        assert mine["n"] == theirs["n"]
        for key in ("envelope_center", "envelope_start"):
            assert -envelope <= mine[key] - theirs[key] <= width, key
        bounds += [(mine[key], theirs[key])
                   for key in ("apriori_bound", "step_bound", "center_bound")]
    assert all(-width <= mine - theirs <= width + _TOL for mine, theirs in bounds)


class TestInlineTwins:
    @pytest.mark.parametrize("kind,x0", [("hammerstein_c", None), ("hammerstein_lp", None),
                                         ("hammerstein_lp", 0.05), ("hammerstein_lp", 0.3)])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_certificates_keep_their_bits(self, tmp_path, kind, x0, kernel):
        config, twin = twin_configs(kind, kernel, (0.0, 1.0))
        if x0 is not None:
            config["x0"] = twin["x0"] = x0
        handles = [cli._build_problem(c)["handle"] for c in (config, twin)]
        a, twin_a = (handle.profile.center_shift for handle in handles)
        assert twin_a > 0.0
        assert abs(a - twin_a) <= (0 if x0 is None else LP_MOVED) * math.ulp(twin_a)
        factored, dense = solve(tmp_path, config, "factored"), solve(tmp_path, twin, "dense")
        assert factored["status"] == dense["status"] == "converged"
        assert len(factored["steps"]) == len(dense["steps"]) > 2
        if kind == "hammerstein_c":
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "build_hammerstein_sup", old_design)
                old = solve(tmp_path, twin, "old")
            assert_sup_twin(factored, old)
            assert_sup_twin(dense, old)
            assert_sup_twin(factored, dense, one_sided=False)
        gap = np.subtract(factored["solution"], dense["solution"])
        assert handles[0].norm(gap) <= 2.0 * dense["final_bound"]

    def test_signed_factors_give_the_twins_row_sums(self):
        # exp_product declares k >= 0, so on [-1, 1], where its factors
        # change sign, its row sums are read through them, not through
        # |phi| |psi|^T (3.44 against 2.35): the factored knorm lies within
        # TWIN_KNORM u of its dense twin's, a priori costs of its 26 columns
        config, twin = twin_configs("hammerstein_c", "exp_product", (-1.0, 1.0))
        grid = Grid.simpson(-1.0, 1.0, 101)
        factored, dense = (row_sum_bound(cli._resolve_kernel(c["terms"][0], grid), grid.weights)
                           for c in (config, twin))
        assert abs(factored - dense) <= TWIN_KNORM * UNIT * dense

    @pytest.mark.parametrize("kind", sorted(TWIN_KINDS))
    def test_declined_factors_give_the_twins_document(self, tmp_path, kind):
        config, twin = twin_configs(kind, "exp_product", (0.0, 2.0))
        factored, dense = solve(tmp_path, config, "factored"), solve(tmp_path, twin, "dense")
        assert factored["status"] == "converged" and len(factored["steps"]) > 2
        assert ((tmp_path / "factored.out.json").read_bytes()
                == (tmp_path / "dense.out.json").read_bytes())


# A registry kernel's Zaanen estimate reads |k| through its factors, its
# inline twin's through the samples.  For product and one, |k| is
# |phi| |phi|^T, of rank one, whose bilinear sup over the L_p and L_p' unit
# balls (q = p) is ||phi||_{p,w} ||phi||_{p',w}: each estimate lies within
# ZAANEN_FACTORED ulps (2.8 seen) or ZAANEN_SAMPLED ulps (34.1 seen, at
# n = 1001) of that closed form, computed at 50 digits.  exp_product has no
# closed form; its factored estimate lies within ZAANEN_TWIN u of its dense
# twin's, relative (3.8 seen).
ZAANEN_FACTORED = 4
ZAANEN_SAMPLED = 40
ZAANEN_TWIN = 8
EXPONENTS = (1.5, 2.0, 3.0)


def weighted_norm(values, weights, p: float) -> Decimal:
    """||values||_{p,w}, in decimal at the context's precision."""
    p = Decimal(p)
    return sum(Decimal(w) * abs(Decimal(v)) ** p for v, w in zip(values, weights)) ** (1 / p)


class TestZaanenEstimate:
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (0.3, 1.2), (-1.0, 1.0)], ids=str)
    @pytest.mark.parametrize("n", [21, 101, 1001])
    @pytest.mark.parametrize("name", ["product", "one"])
    def test_twins_lie_near_the_closed_form(self, name, n, interval):
        grid = Grid.simpson(*interval, n)
        phi = grid.nodes.tolist() if name == "product" else [1.0] * n
        twins = ((registry_table(name, grid), ZAANEN_FACTORED),
                 (KernelTable.from_function(grid, KERNELS[name]), ZAANEN_SAMPLED))
        for p in EXPONENTS:
            conjugate = p / (p - 1.0)
            with decimal.localcontext(prec=50):
                exact = (weighted_norm(phi, grid.weights.tolist(), p)
                         * weighted_norm(phi, grid.weights.tolist(), conjugate))
                for table, width in twins:
                    estimate = zaanen_norm_estimate(table, p, conjugate)
                    ulps = abs(Decimal(estimate) - exact) / Decimal(math.ulp(float(exact)))
                    assert ulps <= width, (p, table._factors is None, float(ulps))

    @pytest.mark.parametrize("interval", [(0.0, 1.0), (-1.0, 1.0)], ids=str)
    @pytest.mark.parametrize("n", [21, 101, 1001])
    def test_exp_product_lies_near_its_dense_twin(self, n, interval):
        grid = Grid.simpson(*interval, n)
        factored = registry_table("exp_product", grid)
        assert factored._factors is not None
        dense = KernelTable.from_function(grid, KERNELS["exp_product"])
        for p in EXPONENTS:
            mine, theirs = (zaanen_norm_estimate(table, p, p / (p - 1.0))
                            for table in (factored, dense))
            assert abs(mine - theirs) <= ZAANEN_TWIN * UNIT * theirs, p


def unbounded_configs() -> dict:
    """name -> config of a build that does not bound a, off the origin
    where its kind takes a center."""
    lp, inline = twin_configs("hammerstein_lp", "exp_product", (0.0, 1.0))
    configs = {"lp-registry": lp, "lp-inline": inline,
               "urysohn": dict(get_preset("urysohn")),
               "composition": dict(get_preset("composition"))}
    for config in configs.values():
        config["x0"] = 0.3
    configs["multilinear"] = get_preset("multilinear-2d")
    return configs


@pytest.mark.parametrize("name", sorted(unbounded_configs()))
def test_a_is_one_apply_displacement(name):
    # bit for bit under any BLAS thread count: a and the iterates share
    # every product
    handle = cli._build_problem(unbounded_configs()[name])["handle"]
    center = handle.center
    assert handle.profile.center_shift == handle.norm(handle.apply(center) - center) > 0.0
